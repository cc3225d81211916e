"""Expansions of (1 + x + x^2)^n: the brute-force oracle, and row n alone.

build_triangle and z_oracle_diagonals, the oracle the cleverer routes are
measured against, build each row from the one before by the additive rule
T(n, k) = T(n-1, k) + T(n-1, k-1) + T(n-1, k-2), multiplying out one further
factor of (1 + x + x^2).  row(n) takes row n by its own recurrence in k, apart
from the oracle.  Row n has 2n+1 entries, is palindromic, and sums to 3^n.
"""

from __future__ import annotations

from typing import Iterator, NamedTuple

from .exact import ExactnessError, div_exact, index, route

__all__ = ["TrinomialTriangle", "build_triangle", "row", "z_oracle_diagonals", "leading_term_check"]


class TrinomialTriangle(NamedTuple):
    """Rows 0..max_n of the coefficient triangle, built eagerly.

    Immutable once built, so instances can be shared freely between
    threads and reused across checks.
    """

    rows: tuple[tuple[int, ...], ...]

    def row(self, n: int) -> tuple[int, ...]:
        """All 2n+1 coefficients of (1 + x + x^2)^n."""
        if not 0 <= index("n", n, None) < len(self.rows):
            raise IndexError(f"row {n} not built (have 0..{len(self.rows) - 1})")
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
    """Row n alone, equal to build_triangle(n).row(n) but built from no other row:
    f = (1 + x + x^2)^n has f'(1 + x + x^2) = n(1 + 2x) f, so (k + 1) T(n, k+1) =
    (n - k) T(n, k) + (2n - k + 1) T(n, k-1), one exact division per entry of the
    left half, which is mirrored.  Summing to 3^n certifies the row, centre too."""
    index("n", n)
    half = [0, 1]  # T(n, -1..k); the zero T(n, -1) is left out of the row
    for k in range(n):
        half.append(div_exact((n - k) * half[-1] + (2 * n - k + 1) * half[-2], k + 1))
    result = tuple(half[1:] + half[-2:0:-1])
    if sum(result) != 3**n:
        raise ExactnessError(f"row {n} does not sum to 3^{n}")
    return result


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
