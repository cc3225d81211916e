"""Brute-force expansion of (1 + x + x^2)^n.

This is the oracle the cleverer routes are measured against.  Each row is
produced from the previous one by the additive rule
T(n, k) = T(n-1, k) + T(n-1, k-1) + T(n-1, k-2), which is nothing more than
multiplying out one further factor of (1 + x + x^2).  Row n has 2n+1
entries, is palindromic, and sums to 3^n.
"""

from __future__ import annotations

from dataclasses import dataclass

from .exact import div_exact

__all__ = ["TrinomialTriangle", "build_triangle", "leading_term_check"]


@dataclass(frozen=True)
class TrinomialTriangle:
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
        if not 0 <= n <= self.max_n:
            raise IndexError(f"row {n} not built (have 0..{self.max_n})")
        return self.rows[n]

    def coeff(self, n: int, k: int) -> int:
        """Coefficient of x^k in (1 + x + x^2)^n; zero outside 0 <= k <= 2n."""
        row = self.row(n)
        if k < 0 or k >= len(row):
            return 0
        return row[k]


def build_triangle(max_n: int) -> TrinomialTriangle:
    """Expand (1 + x + x^2)^n for all n up to max_n."""
    if max_n < 0:
        raise ValueError(f"max_n must be >= 0, got {max_n}")
    rows: list[tuple[int, ...]] = [(1,)]
    for n in range(1, max_n + 1):
        prev = rows[-1]
        width = len(prev)
        row = []
        for k in range(2 * n + 1):
            total = 0
            for d in (0, 1, 2):
                j = k - d
                if 0 <= j < width:
                    total += prev[j]
            row.append(total)
        rows.append(tuple(row))
    return TrinomialTriangle(tuple(rows))


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
