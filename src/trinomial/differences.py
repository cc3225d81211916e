"""Diagonals of (1 + x + x^2)^n from forward differences of the center.

Once the central column p(n) is known, every other diagonal falls out of
its difference table: with Delta^k the k-th forward difference in n,

    2 z(n, lam) = Delta^lam p(n) - c_1 Delta^(lam-2) p(n)
                  + c_2 Delta^(lam-4) p(n) - ...

where c_j = (lam / j) * C(lam - j - 1, j - 1) and the sum stops while
lam - 2j >= 0.  The right-hand side is always even; the halving is checked.

The paper's stepwise chain builds the diagonals one at a time:
q(n) = (p(n+1) - p(n)) / 2 and then
z[lam+1](n) = z[lam](n+1) - z[lam](n) - z[lam-1](n).
"""

from __future__ import annotations

from operator import sub
from typing import Sequence

from .exact import ExactnessError, div_exact

__all__ = [
    "build_difference_table",
    "delta_expansion_coefficients",
    "z_from_differences",
    "stepwise_chain",
]


def build_difference_table(
    base: Sequence[int], max_order: int
) -> tuple[tuple[int, ...], ...]:
    """Forward differences of an integer sequence, orders 0..max_order.

    rows[j][i] is Delta^j of the base at index i; rows[0] is the base
    itself, and each row is one entry shorter than the one before.
    """
    if max_order < 0:
        raise ValueError(f"max_order must be >= 0, got {max_order}")
    if len(base) <= max_order:
        raise ValueError(
            f"base of length {len(base)} cannot support differences to order {max_order}"
        )
    rows = [tuple(base)]
    for _ in range(max_order):
        prev = rows[-1]
        rows.append(tuple(map(sub, prev[1:], prev)))
    return tuple(rows)


def delta_expansion_coefficients(lam: int) -> list[int]:
    """Signed coefficients [c_0, -c_1, c_2, ...] of the Delta expansion.

    c_0 = 1 and c_j = (lam / j) * C(lam - j - 1, j - 1); the list covers
    exactly the orders lam, lam - 2, lam - 4, ... that stay nonnegative.
    Each c_j is one exact step from the one before,
    c_j = c_(j-1) (lam - 2j + 2)(lam - 2j + 1) / (j (lam - j)).
    """
    if lam < 1:
        raise ValueError(f"lam must be >= 1, got {lam}")
    coeffs, c = [1], 1
    for j in range(1, lam // 2 + 1):
        c = div_exact(c * (lam - 2 * j + 2) * (lam - 2 * j + 1), j * (lam - j))
        coeffs.append(-c if j % 2 else c)
    return coeffs


def z_from_differences(
    rows: Sequence[Sequence[int]], lam: int, max_n: int
) -> list[int]:
    """z(0..max_n, lam), lam >= 1, from a difference table of the p column.

    2 z(., lam) is formed as one combination of whole difference rows, and
    each value is then checked to be even.  Every index is nonnegative, so
    a table too short for (lam, max_n) raises IndexError.
    """
    coeffs = delta_expansion_coefficients(lam)
    if max_n < 0:
        raise ValueError(f"max_n must be >= 0, got {max_n}")
    doubled = [0] * (max_n + 1)
    for j, c in enumerate(coeffs):
        row = rows[lam - 2 * j]
        if len(row) <= max_n:
            raise IndexError(f"difference row {lam - 2 * j} too short for max_n = {max_n}")
        doubled = [d + c * v for d, v in zip(doubled, row)]
    for n, value in enumerate(doubled):
        if value & 1:
            raise ExactnessError(
                f"Delta expansion for lam={lam}, n={n} gave odd value {value}"
            )
    return [value >> 1 for value in doubled]


def stepwise_chain(
    p_values: Sequence[int], max_lambda: int, max_n: int
) -> list[tuple[int, ...]]:
    """Diagonals 1..max_lambda, each for n = 0..max_n, built one from the next.

    Entry lam - 1 of the result is z(0..max_n, lam).  Needs
    p(0..max_n + max_lambda) since every step consumes one index of
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
    return [tuple(chain[: max_n + 1]) for chain in chains[1:]]
