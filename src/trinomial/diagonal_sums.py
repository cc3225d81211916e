"""Diagonal coefficients of (1 + x + x^2)^n as binomial sums.

z(n, lam) denotes the coefficient of x^(n+lam), i.e. the entry lam places
right of the center of row n; z(n, 0) is the central coefficient p(n).  By
symmetry the left half of the row carries no extra information.

Three different reindexings of the same double sum are implemented
separately on purpose: they disagree the moment any one of them is wrong,
which is the whole point of keeping them independent.  Each returns whole
diagonals over a range of lam and reads its binomials from one table per
max_n, so a triangular range costs at most (max_n + 1)(max_n + 2) / 2
calls of char, not two per term.  A fourth route multiplies each term into the
next by a rational ratio instead of evaluating binomials from scratch;
every such step is an exact integer division.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Callable

from .binomial import char
from .exact import div_exact

__all__ = [
    "z_sum_form1",
    "z_sum_form2",
    "z_sum_form3",
    "z_term_ratio",
    "central_p_factor_series",
]


def _check_indices(n: int, lam: int) -> None:
    if n < 0:
        raise ValueError(f"n must be >= 0, got {n}")
    if lam < 0:
        raise ValueError(f"lam must be >= 0, got {lam}")


class _Row(dict):
    """Row m of the binomial table, k -> char(m, k), zero past k = m.

    An entry is filled the first time a form reads it, so a deep diagonal
    costs only the few binomials it touches, in time and in memory.
    """

    def __init__(self, m: int) -> None:
        self.m = m

    def __missing__(self, k: int) -> int:
        self[k] = value = char(self.m, k) if k <= self.m else 0
        return value


Table = tuple[_Row, ...]


@lru_cache(maxsize=4)
def _char_table(max_n: int) -> Table:
    # one table per max_n, shared by the three forms
    return tuple(_Row(m) for m in range(max_n + 1))


def _diagonals(
    term_sum: Callable[[Table, int, int], int], lams: range, max_n: int
) -> list[list[int]]:
    _check_indices(max_n, min(lams, default=0))
    table = _char_table(max_n)
    return [[term_sum(table, n, lam) for n in range(max_n + 1)] for lam in lams]


def _form1(table: Table, n: int, lam: int) -> int:
    row = table[n]
    total = 0
    a = 0
    while True:
        first = row[a]
        term = first * table[n - a][lam + a] if first else 0
        if term == 0:
            return total
        total += term
        a += 1


def z_sum_form1(lams: range, max_n: int) -> list[list[int]]:
    """z(0..max_n, lam) for each lam in lams, with
    z(n, lam) = sum over a of char(n, a) * char(n - a, lam + a).

    Terms vanish once a passes (n - lam) / 2 and stay zero, so each sum
    stops at its first zero term.
    """
    return _diagonals(_form1, lams, max_n)


def _form2(table: Table, n: int, lam: int) -> int:
    row = table[n]
    total = 0
    k = 0
    while True:
        first = row[lam + k]
        if first == 0:
            return total
        total += first * table[n - lam - k][k]
        k += 1


def z_sum_form2(lams: range, max_n: int) -> list[list[int]]:
    """z(0..max_n, lam) for each lam in lams, with
    z(n, lam) = sum over k of char(n, lam + k) * char(n - lam - k, k).

    Unlike form 1, the second factor can vanish while the first is still
    alive, so only the first factor going to zero ends each sum.
    """
    return _diagonals(_form2, lams, max_n)


def _form3(table: Table, n: int, lam: int) -> int:
    row = table[n]
    total = 0
    k = 0
    while True:
        second = row[lam + 2 * k]
        if second == 0:
            return total
        total += table[lam + 2 * k][k] * second
        k += 1


def z_sum_form3(lams: range, max_n: int) -> list[list[int]]:
    """z(0..max_n, lam) for each lam in lams, with
    z(n, lam) = sum over k of char(lam + 2k, k) * char(n, lam + 2k).

    Each sum stops when the second factor goes to zero.
    """
    return _diagonals(_form3, lams, max_n)


def z_term_ratio(n: int, lam: int) -> tuple[int, list[int]]:
    """Evaluate z(n, lam) by multiplying each term into the next.

    The terms are those of z_sum_form1.  Starting from char(n, lam), term a
    is multiplied by

        (n - 2a - lam) * (n - 2a - lam - 1) / ((a + 1) * (lam + a + 1))

    to produce term a+1.  The numerator hits zero exactly when the terms
    run out.  Returns (sum, list of terms); every term is checked to be an
    integer even though the ratio is not.
    """
    _check_indices(n, lam)
    term = char(n, lam)
    if term == 0:
        return 0, []
    terms = [term]
    a = 0
    while True:
        term = div_exact(
            term * (n - 2 * a - lam) * (n - 2 * a - lam - 1),
            (a + 1) * (lam + a + 1),
        )
        if term == 0:
            break
        terms.append(term)
        a += 1
    return sum(terms), terms


def central_p_factor_series(n: int) -> int:
    """p(n) = sum over k of C(2k, k) * char(n, 2k).

    The central binomial factors C(2k, k) are built incrementally from the
    step ratio (4k + 2) / (k + 1), with integrality checked at every step.
    """
    if n < 0:
        raise ValueError(f"n must be >= 0, got {n}")
    total = 0
    factor = 1
    k = 0
    while True:
        weight = char(n, 2 * k)
        if weight == 0:
            return total
        total += factor * weight
        factor = div_exact(factor * (4 * k + 2), k + 1)
        k += 1
