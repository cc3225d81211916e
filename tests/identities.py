"""Side identities of the paper, kept as checks for the tests only.

None of them is a route or is called by the package: the two product
identities that justify the sum reindexings, the stepwise chain that
climbs from one diagonal to the next, and the integer weights of the
cosine power reduction.  Each keeps the package's index rule.
"""

from __future__ import annotations

import math
from operator import sub
from typing import Sequence

from trinomial.binomial import char
from trinomial.exact import div_exact_each, index


def _char_product(n: int, a: int, b: int) -> int:
    # char(n, a) * char(n - a, b), short-circuiting so the second factor is
    # never evaluated with a negative upper index.
    first = char(n, a)
    if first == 0:
        return 0
    return first * char(n - a, b)


def product_swap_check(n: int, alpha: int, beta: int) -> bool:
    """Check char(n,a)*char(n-a,b) == char(n,b)*char(n-b,a), both sides
    computed independently."""
    index("n", n)
    index("alpha", alpha)
    index("beta", beta)
    return _char_product(n, alpha, beta) == _char_product(n, beta, alpha)


def product_collapse_check(n: int, alpha: int, beta: int) -> bool:
    """Check char(n,a)*char(n-a,b) == char(a+b,a)*char(n,a+b), both sides
    computed independently."""
    index("n", n)
    index("alpha", alpha)
    index("beta", beta)
    lhs = _char_product(n, alpha, beta)
    rhs = char(alpha + beta, alpha) * char(n, alpha + beta)
    return lhs == rhs


def stepwise_chain(
    p_values: Sequence[int], max_lambda: int, max_n: int
) -> list[tuple[int, ...]]:
    """Diagonals 1..max_lambda, each for n = 0..max_n, built one from the next:
    q(n) = (p(n+1) - p(n)) / 2 and z[lam+1](n) = z[lam](n+1) - z[lam](n) - z[lam-1](n).

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


def cos_power_expansion(alpha: int) -> list[int]:
    """Integer weights m_j with 2^alpha cos^alpha phi = sum_j m_j cos((alpha - 2j) phi).

    m_j = 2 C(alpha, j), except that the j = alpha/2 entry (the constant
    term, present only for even alpha) is C(alpha, alpha/2) taken once.
    The weights sum to 2^alpha (set phi = 0).
    """
    index("alpha", alpha)
    weights = [2 * math.comb(alpha, j) for j in range((alpha + 1) // 2)]
    if alpha % 2 == 0:  # cos(0 phi): the halves fold together once
        weights.append(math.comb(alpha, alpha // 2))
    return weights
