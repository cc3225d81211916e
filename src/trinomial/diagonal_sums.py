"""Diagonal coefficients of (1 + x + x^2)^n as binomial sums.

z(n, lam) denotes the coefficient of x^(n+lam), i.e. the entry lam places
right of the center of row n; z(n, 0) is the central coefficient p(n).  By
symmetry the left half of the row carries no extra information.

Three different reindexings of the same double sum are implemented
separately on purpose: they disagree the moment any one of them is wrong,
which is the whole point of keeping them independent.  Each returns whole
diagonals over a range of lam, one multiply-add over a slice of n per
summation index, and reads its binomials as runs C(lo..hi, c) of one
column c, each run one char and one exact step per further entry.  A
call for more than one diagonal builds the whole table of columns, each
column one run from its diagonal entry C(c, c), keeps it for the latest
max_n only, and slices whole columns.  One diagonal reads a few entries
per n, so it builds only the runs it reads and keeps none of them.  A
fourth route multiplies each term into the next by a rational ratio
instead of evaluating binomials from scratch; every such step is an
exact integer division.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import repeat
from operator import add, mul
from typing import Callable, Iterator

from .binomial import char
from .exact import div_exact, div_exact_each, index, route

__all__ = [
    "z_sum_form1",
    "z_sum_form2",
    "z_sum_form3",
    "z_term_ratio",
    "z_ratio_diagonals",
]


def _run(c: int, lo: int, hi: int) -> list[int]:
    # C(lo..hi, c) for c <= lo: C(lo, c) from char, then C(m + 1, c) = C(m, c)(m + 1)
    # / (m + 1 - c), one exact step per entry
    values = [char(lo, c)]
    for m in range(lo, hi):
        values.append(div_exact(values[-1] * (m + 1), m + 1 - c))
    return values


@lru_cache(maxsize=1)
def _char_table(max_n: int) -> list[list[int]]:
    # column c is the run C(c..max_n, c), for the latest max_n only: the routes of
    # one first_mismatch share it
    return [_run(c, c, max_n) for c in range(max_n + 1)]


Run = Callable[[int, int, int], list[int]]


def _diagonals(kernel: Callable[[int, int, Run], list[int]], lams: range, max_n: int) -> list[list[int]]:
    if len(lams) > 1:
        columns = _char_table(max_n)

        def run(c: int, lo: int, hi: int) -> list[int]:
            return columns[c][lo - c : hi + 1 - c]

    else:  # one diagonal reads a few entries per n: it builds only those and keeps none
        run = _run
    return [kernel(lam, max_n, run) for lam in lams]


# Each kernel reads run(c, lo, hi) = C(lo..hi, c) into acc = z(lam..max_n, lam), and
# adds summation index a, alive for n >= start = lam + 2a, into acc[2a:] with one map
# over the slice.  The factors span that slice exactly, so a single diagonal's run
# starts where char is cheapest, at the lowest m the sum reads.
def _products(run: Run, c: int, d: int, start: int, max_n: int) -> Iterator[int]:
    # C(c..c + max_n - start, c) C(start..max_n, d), entry by entry
    if c == d:  # lam = 0: both factors read column c, so it is built once
        column = run(c, c, max_n)
        return map(mul, column, column[start - c :])
    return map(mul, run(c, c, c + max_n - start), run(d, start, max_n))


def _form1(lam: int, max_n: int, run: Run) -> list[int]:
    acc = [0] * (max_n + 1 - lam)
    for a in range((max_n - lam) // 2 + 1):  # until lam + 2a > max_n
        acc[2 * a :] = map(add, acc[2 * a :], _products(run, lam + a, a, lam + 2 * a, max_n))
    return acc


@route
def z_sum_form1(lams: range, max_n: int) -> list[list[int]]:
    """z(lam..max_n, lam) for each lam in lams, with
    z(n, lam) = sum over a of char(n, a) * char(n - a, lam + a).

    Term a vanishes for n < lam + 2a, so index a adds to n >= lam + 2a
    only, and the sum stops once lam + 2a passes max_n.
    """
    return _diagonals(_form1, lams, max_n)


def _form2(lam: int, max_n: int, run: Run) -> list[int]:
    acc = [0] * (max_n + 1 - lam)
    for k in range((max_n - lam) // 2 + 1):  # the second factor is zero below n = lam + 2k
        acc[2 * k :] = map(add, acc[2 * k :], _products(run, k, lam + k, lam + 2 * k, max_n))
    return acc


@route
def z_sum_form2(lams: range, max_n: int) -> list[list[int]]:
    """z(lam..max_n, lam) for each lam in lams, with
    z(n, lam) = sum over k of char(n, lam + k) * char(n - lam - k, k).

    Unlike form 1, the second factor vanishes for n < lam + 2k while the
    first is still alive; so index k adds to n >= lam + 2k only, and the sum
    stops once lam + 2k passes max_n.
    """
    return _diagonals(_form2, lams, max_n)


def _form3(lam: int, max_n: int, run: Run) -> list[int]:
    acc = [0] * (max_n + 1 - lam)
    for k, j in enumerate(range(lam, max_n + 1, 2)):  # j = lam + 2k, until j > max_n
        acc[2 * k :] = map(add, acc[2 * k :], map(mul, repeat(run(k, j, j)[0]), run(j, j, max_n)))
    return acc


@route
def z_sum_form3(lams: range, max_n: int) -> list[list[int]]:
    """z(lam..max_n, lam) for each lam in lams, with
    z(n, lam) = sum over k of char(lam + 2k, k) * char(n, lam + 2k).

    Index k adds to n >= lam + 2k, where the second factor is alive, and
    the sum stops once lam + 2k passes max_n.
    """
    return _diagonals(_form3, lams, max_n)


def _ratio_step(numerators: list[int], lam: int, a: int) -> list[int]:
    # term a + 1 of z(n, lam) from term a times u(u - 1), u = n - 2a - lam
    return div_exact_each(numerators, (a + 1) * (lam + a + 1))


def z_term_ratio(n: int, lam: int) -> tuple[int, list[int]]:
    """Evaluate z(n, lam) by multiplying each term into the next.

    The terms are those of z_sum_form1.  Starting from char(n, lam), term a
    is multiplied by

        (n - 2a - lam) * (n - 2a - lam - 1) / ((a + 1) * (lam + a + 1))

    to produce term a+1.  The numerator hits zero exactly when the terms
    run out, after term (n - lam) // 2.  Returns (sum, list of terms); every
    term is checked to be an integer even though the ratio is not.
    """
    index("n", n)
    index("lam", lam)
    terms = [char(n, lam)] if lam <= n else []
    for a in range((n - lam) // 2):
        u = n - 2 * a - lam
        terms += _ratio_step([terms[-1] * u * (u - 1)], lam, a)
    return sum(terms), terms


def _ratio_diagonal(lam: int, max_n: int, run: Run) -> list[int]:
    terms = run(lam, lam, max_n)  # the first terms C(n, lam), n = lam..max_n
    totals = list(terms)
    pronic = [u * (u - 1) for u in range(2, max_n - lam + 1)]
    for a in range((max_n - lam) // 2):
        # term a + 1 is alive for n >= lam + 2a + 2 (u >= 2), the tail of term a's span
        terms = _ratio_step(list(map(mul, terms[2:], pronic)), lam, a)
        totals[2 * a + 2 :] = map(add, totals[2 * a + 2 :], terms)
    return totals


@route
def z_ratio_diagonals(lams: range, max_n: int) -> list[list[int]]:
    """z(lam..max_n, lam) for each lam in lams by the term ratio of
    z_term_ratio, each step taken for every n still alive at once, its first
    terms C(n, lam) read as column lam, as the sums read theirs."""
    return _diagonals(_ratio_diagonal, lams, max_n)

