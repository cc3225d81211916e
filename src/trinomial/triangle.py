"""Brute-force expansion of (1 + x + x^2)^n.

This is the oracle the cleverer routes are measured against.  Each row is
produced from the previous one by the additive rule
T(n, k) = T(n-1, k) + T(n-1, k-1) + T(n-1, k-2), which is nothing more than
multiplying out one further factor of (1 + x + x^2).  Row n has 2n+1
entries, is palindromic, and sums to 3^n.
"""

from __future__ import annotations

from collections import deque
from typing import Iterator, NamedTuple

from .exact import div_exact, index, route

__all__ = ["TrinomialTriangle", "build_triangle", "row", "z_oracle_diagonals", "leading_term_check"]


class TrinomialTriangle(NamedTuple):
    """Rows 0..max_n of the coefficient triangle, built eagerly.

    Immutable once built, so instances can be shared freely between
    threads and reused across checks.
    """

    rows: tuple[tuple[int, ...], ...]

    @property
    def max_n(self) -> int:
        return len(self.rows) - 1

    def row(self, n: int) -> tuple[int, ...]:
        """All 2n+1 coefficients of (1 + x + x^2)^n."""
        if not 0 <= index("n", n, None) <= self.max_n:
            raise IndexError(f"row {n} not built (have 0..{self.max_n})")
        return self.rows[n]

    def coeff(self, n: int, k: int) -> int:
        """Coefficient of x^k in (1 + x + x^2)^n; zero outside 0 <= k <= 2n."""
        row = self.row(n)
        if not 0 <= index("k", k, None) < len(row):
            return 0
        return row[k]


def _rows(max_n: int) -> Iterator[tuple[int, ...]]:
    """Rows 0..max_n in order, each built from the one before."""
    index("max_n", max_n)
    prev: tuple[int, ...] = (1,)
    yield prev
    for _ in range(max_n):
        # tuples from lists, here and in build_triangle: tuple() of a generator is
        # resized to fit, and CPython keeps freed tuples under 20 long, 2000 a size
        padded = (0, 0, *prev, 0, 0)
        prev = tuple([padded[k] + padded[k + 1] + padded[k + 2] for k in range(len(prev) + 2)])
        yield prev


def build_triangle(max_n: int) -> TrinomialTriangle:
    """Expand (1 + x + x^2)^n for all n up to max_n."""
    return TrinomialTriangle(tuple(list(_rows(max_n))))


def row(n: int) -> tuple[int, ...]:
    """Row n alone: build_triangle(n).row(n) in O(n) memory."""
    index("n", n)
    return deque(_rows(n), maxlen=1)[0]


@route
def z_oracle_diagonals(lams: range, max_n: int) -> list[list[int]]:
    """z(0..max_n, lam) for each lam in lams: row n holds z(n, lam) at index n + lam,
    and 0 past its end.  The rows are streamed, so only the diagonals are kept."""
    diagonals = [[0] * lam for lam in lams]
    for n, row in enumerate(_rows(max_n)):
        for diagonal, value in zip(diagonals, row[n + lams.start : n + lams.stop]):
            diagonal.append(value)
    return diagonals


# Closed forms for the first few coefficients of a row, valid for every n
# once out-of-range k is excluded.  Keyed by k.
_LEADING_FORMS = {
    1: lambda n: n,
    2: lambda n: div_exact(n * (n + 1), 2),
    3: lambda n: div_exact(n * (n - 1) * (n + 4), 6),
    4: lambda n: div_exact(n * (n - 1) * (n * n + 7 * n - 6), 24),
    5: lambda n: div_exact(n * (n + 1) * (n - 1) * (n - 2) * (n + 12), 120),
}


def leading_term_check(tri: TrinomialTriangle, n: int) -> bool:
    """True iff the closed forms for T(n, 1..5) match row n of the triangle.

    Formulas for k > 2n are skipped: the closed forms describe interior
    coefficients and row n simply has no x^k term there.
    """
    row = tri.row(n)
    for k, form in _LEADING_FORMS.items():
        if k > 2 * n:
            continue
        if form(n) != row[k]:
            return False
    return True
