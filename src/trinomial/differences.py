"""Diagonals of (1 + x + x^2)^n from forward differences of the center.

Once the central column p(n) is known, every other diagonal falls out of
its forward differences: with Delta^k the k-th forward difference in n,

    2 z(n, lam) = Delta^lam p(n) - c_1 Delta^(lam-2) p(n)
                  + c_2 Delta^(lam-4) p(n) - ...

where c_j = (lam / j) * C(lam - j - 1, j - 1) and the sum stops while
lam - 2j >= 0.  The right-hand side is always even; the halving is checked.
z_delta_diagonals streams the difference orders: each order is added into
every doubled diagonal that reads it and then replaced by the next, so one
order is held at a time and no table of differences is kept.

The paper's stepwise chain builds the diagonals one at a time:
q(n) = (p(n+1) - p(n)) / 2 and then
z[lam+1](n) = z[lam](n+1) - z[lam](n) - z[lam-1](n).
"""

from __future__ import annotations

from itertools import islice
from operator import sub
from typing import Sequence

from .exact import ExactnessError, div_exact, div_exact_each, index, route
from .recurrences import central_sequence

__all__ = [
    "delta_expansion_coefficients",
    "z_delta_diagonals",
    "stepwise_chain",
]


def delta_expansion_coefficients(lam: int) -> list[int]:
    """Signed coefficients [c_0, -c_1, c_2, ...] of the Delta expansion.

    c_0 = 1 and c_j = (lam / j) * C(lam - j - 1, j - 1); the list covers
    exactly the orders lam, lam - 2, lam - 4, ... that stay nonnegative.
    Each c_j is one exact step from the one before,
    c_j = c_(j-1) (lam - 2j + 2)(lam - 2j + 1) / (j (lam - j)).
    """
    index("lam", lam, 1)
    coeffs, c = [1], 1
    for j in range(1, lam // 2 + 1):
        c = div_exact(c * (lam - 2 * j + 2) * (lam - 2 * j + 1), j * (lam - j))
        coeffs.append(-c if j % 2 else c)
    return coeffs


@route
def z_delta_diagonals(lams: range, max_n: int) -> list[list[int]]:
    """z(0..max_n, lam) for each lam in lams by the Delta expansion.

    One pass over the orders k = 0..top, top the largest lam in lams:
    Delta^k p(lam..max_n) is added, times its coefficient, into the doubled
    diagonal of each lam >= k of the same parity, and Delta^(k+1) is then
    taken from it.  Below n = lam a diagonal is zero and is not computed,
    and no order is taken below n = lo, the smallest lam.
    Each doubled diagonal is checked to be even and halved.  lam = 0 is
    the central column itself.
    """
    lo, top = lams[0], lams[-1]
    row = list(central_sequence(max_n + top))
    center = row[: max_n + 1]
    del row[:lo]  # every lam reads n >= lo only
    coeffs = {lam: delta_expansion_coefficients(lam) for lam in lams if lam}
    doubled = {lam: [0] * (max_n + 1 - lam) for lam in coeffs}  # n = lam..max_n only
    for k in range(top + 1):
        if k:
            row = list(map(sub, row[1:], row))
        for lam in range(k or 2, top + 1, 2):  # lam >= k, lam = k mod 2, lam >= 1
            if lam in doubled:
                c = coeffs[lam][(lam - k) // 2]
                doubled[lam] = [d + c * v for d, v in zip(doubled[lam], islice(row, lam - lo, None))]
    for lam, values in doubled.items():
        for n, value in enumerate(values, lam):
            if value & 1:
                raise ExactnessError(
                    f"Delta expansion for lam={lam}, n={n} gave odd value {value}"
                )
        doubled[lam] = [0] * lam + [value >> 1 for value in values]
    return [center if lam == 0 else doubled[lam] for lam in lams]


def stepwise_chain(
    p_values: Sequence[int], max_lambda: int, max_n: int
) -> list[tuple[int, ...]]:
    """Diagonals 1..max_lambda, each for n = 0..max_n, built one from the next.

    Entry lam - 1 of the result is z(0..max_n, lam).  Needs
    p(0..max_n + max_lambda) since every step consumes one index of
    lookahead, and reads only those: any later values are ignored.
    """
    index("max_lambda", max_lambda, 1)
    index("max_n", max_n)
    needed = max_n + max_lambda + 1
    if len(p_values) < needed:
        raise ValueError(f"need p(0..{needed - 1}) but only {len(p_values)} values were given")
    p = p_values[:needed]
    chains = [p, div_exact_each(list(map(sub, p[1:], p)), 2)]
    for _ in range(2, max_lambda + 1):
        older, cur = chains[-2], chains[-1]
        chains.append([cur[i + 1] - cur[i] - older[i] for i in range(len(cur) - 1)])
    return [tuple(chain[: max_n + 1]) for chain in chains[1:]]
