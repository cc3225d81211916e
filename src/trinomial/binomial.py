"""Binomial coefficients under the zero conventions the rest of the package
assumes, plus the two product identities used to reindex double sums.

``char(n, lam)`` is the ordinary binomial coefficient C(n, lam) extended by
char(n, lam) = 0 for lam < 0 or lam > n.  The out-of-range zeros are load
bearing: the diagonal sums iterate until a factor vanishes instead of
carrying explicit upper bounds.
"""

from __future__ import annotations

from functools import lru_cache

from .exact import div_exact

__all__ = [
    "char",
    "product_swap_check",
    "product_collapse_check",
]


# Bounded, with room to spare: the sums ask only for the first entry of each
# column run, one per column of a range's table or per run of one diagonal.
@lru_cache(maxsize=1 << 15)
def _char_in_range(n: int, lam: int) -> int:
    # Multiplicative formula; div_exact asserts the classic fact that the
    # running product is divisible at every step.  Deliberately not a Pascal
    # triangle cache: the additive rule is checked against this in tests.
    c = 1
    for j in range(lam):
        c = div_exact(c * (n - j), j + 1)
    return c


def char(n: int, lam: int) -> int:
    """Binomial coefficient C(n, lam); zero when lam is outside [0, n]."""
    if n < 0:
        raise ValueError(f"negative upper index: {n}")
    if lam < 0 or lam > n:
        return 0
    return _char_in_range(n, min(lam, n - lam))


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
    if n < 0 or alpha < 0 or beta < 0:
        raise ValueError("indices must be nonnegative")
    return _char_product(n, alpha, beta) == _char_product(n, beta, alpha)


def product_collapse_check(n: int, alpha: int, beta: int) -> bool:
    """Check char(n,a)*char(n-a,b) == char(a+b,a)*char(n,a+b), both sides
    computed independently."""
    if n < 0 or alpha < 0 or beta < 0:
        raise ValueError("indices must be nonnegative")
    lhs = _char_product(n, alpha, beta)
    rhs = char(alpha + beta, alpha) * char(n, alpha + beta)
    return lhs == rhs

