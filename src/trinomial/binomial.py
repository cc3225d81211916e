"""Binomial coefficients under the zero conventions the rest of the package
assumes.

``char(n, lam)`` is the ordinary binomial coefficient C(n, lam) extended by
char(n, lam) = 0 for lam < 0 or lam > n.  Every sum in the package carries
explicit bounds and never asks for an out-of-range entry; the zeros are kept
because they make Pascal's rule hold on the whole row, edges included.
"""

from __future__ import annotations

from functools import lru_cache

from .exact import div_exact, index

__all__ = ["char"]


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
    index("n", n)
    index("lam", lam, None)  # any int: outside [0, n] the answer is 0
    if lam < 0 or lam > n:
        return 0
    return _char_in_range(n, min(lam, n - lam))
