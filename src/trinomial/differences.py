"""Diagonals of (1 + x + x^2)^n from forward differences of the center.

Once the central column p(n) is known, every other diagonal falls out of
its difference table: with Delta^k the k-th forward difference in n,

    2 z(n, lam) = Delta^lam p(n) - c_1 Delta^(lam-2) p(n)
                  + c_2 Delta^(lam-4) p(n) - ...

where c_j = (lam / j) * C(lam - j - 1, j - 1) and the sum stops while
lam - 2j >= 0.  The right-hand side is always even; the halving is checked.

A second, stepwise route builds the diagonals one at a time:
q(n) = (p(n+1) - p(n)) / 2 and then
z[lam+1](n) = z[lam](n+1) - z[lam](n) - z[lam-1](n).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from .binomial import char
from .exact import ExactnessError, div_exact
from .recurrences import DiagonalSequence

__all__ = [
    "DifferenceTable",
    "build_difference_table",
    "delta_expansion_coefficients",
    "z_from_differences",
    "stepwise_chain",
]


@dataclass(frozen=True)
class DifferenceTable:
    """Forward differences of an integer sequence.

    rows[j][i] is Delta^j applied to the base sequence, evaluated at index
    i; rows[0] is the base itself.  Row j is one entry shorter than row
    j-1, so a table of depth d needs a base of length at least d + 1.
    """

    rows: tuple[tuple[int, ...], ...]

    @property
    def max_order(self) -> int:
        return len(self.rows) - 1

    @property
    def base(self) -> tuple[int, ...]:
        return self.rows[0]

    def delta(self, order: int, i: int) -> int:
        if not 0 <= order <= self.max_order:
            raise IndexError(f"difference order {order} not built (have 0..{self.max_order})")
        row = self.rows[order]
        if not 0 <= i < len(row):
            raise IndexError(
                f"Delta^{order} at index {i} needs a longer base sequence"
            )
        return row[i]


def build_difference_table(base: Sequence[int], max_order: int) -> DifferenceTable:
    if max_order < 0:
        raise ValueError(f"max_order must be >= 0, got {max_order}")
    if len(base) <= max_order:
        raise ValueError(
            f"base of length {len(base)} cannot support differences to order {max_order}"
        )
    rows = [tuple(base)]
    for _ in range(max_order):
        prev = rows[-1]
        rows.append(tuple(prev[i + 1] - prev[i] for i in range(len(prev) - 1)))
    return DifferenceTable(tuple(rows))


def delta_expansion_coefficients(lam: int) -> list[int]:
    """Signed coefficients [c_0, -c_1, c_2, ...] of the Delta expansion.

    c_0 = 1 and c_j = (lam / j) * C(lam - j - 1, j - 1); the list covers
    exactly the orders lam, lam - 2, lam - 4, ... that stay nonnegative.
    """
    if lam < 1:
        raise ValueError(f"lam must be >= 1, got {lam}")
    coeffs = [1]
    j = 1
    while lam - 2 * j >= 0:
        c = div_exact(lam * char(lam - j - 1, j - 1), j)
        coeffs.append(-c if j % 2 else c)
        j += 1
    return coeffs


def z_from_differences(table: DifferenceTable, lam: int, max_n: int) -> list[int]:
    """z(0..max_n, lam), lam >= 1, from a difference table of the p column."""
    coeffs = delta_expansion_coefficients(lam)
    if max_n < 0:
        raise ValueError(f"max_n must be >= 0, got {max_n}")
    values = []
    for n in range(max_n + 1):
        doubled = sum(c * table.delta(lam - 2 * j, n) for j, c in enumerate(coeffs))
        if doubled % 2:
            raise ExactnessError(
                f"Delta expansion for lam={lam}, n={n} gave odd value {doubled}"
            )
        values.append(doubled // 2)
    return values


def stepwise_chain(
    p_values: Sequence[int], max_lambda: int, max_n: int
) -> list[DiagonalSequence]:
    """Diagonals 1..max_lambda, each for n = 0..max_n, built one from the next.

    Needs p(0..max_n + max_lambda) since every step consumes one index of
    lookahead.
    """
    if max_lambda < 1:
        raise ValueError(f"max_lambda must be >= 1, got {max_lambda}")
    if max_n < 0:
        raise ValueError(f"max_n must be >= 0, got {max_n}")
    needed = max_n + max_lambda + 1
    if len(p_values) < needed:
        raise ValueError(
            f"need p(0..{needed - 1}) but only {len(p_values)} values were given"
        )
    prev = list(p_values)
    halved = []
    for i in range(len(prev) - 1):
        step = prev[i + 1] - prev[i]
        if step % 2:
            raise ExactnessError(f"p({i + 1}) - p({i}) = {step} is odd")
        halved.append(step // 2)
    chains = [prev, halved]
    for _ in range(2, max_lambda + 1):
        older, cur = chains[-2], chains[-1]
        chains.append([cur[i + 1] - cur[i] - older[i] for i in range(len(cur) - 1)])
    return [
        DiagonalSequence(lam, tuple(chains[lam][: max_n + 1]), "stepwise")
        for lam in range(1, max_lambda + 1)
    ]
