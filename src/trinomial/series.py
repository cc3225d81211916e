"""Truncated formal power series over the integers, and the generating
functions whose coefficients are the diagonals of (1 + x + x^2)^n.

A PowerSeries carries its truncation order explicitly and refuses to mix
with a series of a different order: silent truncation is how generating
function bugs hide.  Every coefficient is an int and every division is a
div_exact, so a quotient that leaves the integers raises.

The generating functions:

    P(x)  = 1 / sqrt(1 - 2x - 3x^2)            central coefficients p(n)
    nu(x) = (1 - x - sqrt(1 - 2x - 3x^2)) / 2   the shift factor, x^2 M(x)
    Z[lam] = P * nu^lam                          diagonal lam, offset by lam

so the coefficient of x^(n+lam) in Z[lam] is z(n, lam).  M is the
Motzkin series, so z(n, lam) is [x^(n - lam)] P M^lam: the series route
z_series_diagonals, of which gf_Z is one diagonal shifted by lam and
gf_P the diagonal lam = 0.  One loop, _power, takes the square root
(certified by 2 a s' = a' s) and M^lam by Miller's recurrence.  P and M are
read off the root: P = 1/root = -root'/(1 + 3x) needs no division, as
2 root root' = -2 - 6x, and M_k = -r_(k+2)/2 is one exact halving each.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import lru_cache
from operator import mul
from typing import Sequence, Union

from .exact import DomainError, ExactnessError, div_exact, index, route

__all__ = [
    "PowerSeries",
    "polynomial",
    "gf_P",
    "gf_nu",
    "gf_Z",
    "z_series_diagonals",
    "b_substitution_check",
]

# ---------------------------------------------------------------------------
# raw coefficient-tuple kernels


def _mul(a: tuple[int, ...], b: tuple[int, ...]) -> tuple[int, ...]:
    # x^k of a * b to a's order: a_0 b_k + ... + a_k b_0 as one sum over a and b reversed;
    # b may run past a's order
    n = len(a)
    reversed_b = b[n - 1 :: -1]
    return tuple([sum(map(mul, a, reversed_b[n - 1 - k :])) for k in range(n)])


def _power(b: tuple[int, ...], p: int, q: int, order: int) -> list[int]:
    # b^(p/q) for b_0 = 1 by J. C. P. Miller's recurrence, from b f' = (p/q) b' f: q k f_k =
    # sum_{i=1..k} ((p + q) i - q k) b_i f_(k-i), one div_exact by q k; b_i past b's end is 0
    f = [1]
    for k in range(1, order + 1):
        terms = [((p + q) * i - q * k) * b[i] * f[k - i] for i in range(1, min(k, len(b) - 1) + 1)]
        f.append(div_exact(sum(terms), q * k))
    return f


def _is_root(s: list[int], a: tuple[int, ...]) -> bool:
    # s^2 = a for s_0 = a_0 = 1 iff 2 a s' = a' s to x^(order - 1), as (s^2 / a)' =
    # s (2 a s' - a' s) / a^2; x^(k-1) of it is one sum over the nonzero a_i
    terms = [(i, c) for i, c in enumerate(a) if c]
    return s[0] == 1 and not any(
        sum([c * (2 * k - 3 * i) * s[k - i] for i, c in terms if i <= k]) for k in range(1, len(a))
    )


# ---------------------------------------------------------------------------


class PowerSeries:
    """Formal power series truncated after x^order; coeffs[k] is for x^k.

    Immutable: two series are equal, and hash alike, when their
    coefficient tuples are.
    """

    __slots__ = ("coeffs",)
    coeffs: tuple[int, ...]

    def __init__(self, coeffs: Sequence[int]) -> None:
        if len(coeffs) == 0:
            raise DomainError("a series needs at least the constant coefficient")
        for c in coeffs:
            if type(c) is not int:
                raise TypeError(f"series coefficients must be int, got {c!r}")
        object.__setattr__(self, "coeffs", tuple(coeffs))

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"PowerSeries is immutable; cannot set {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"PowerSeries is immutable; cannot delete {name!r}")

    def __eq__(self, other: object) -> bool:
        if type(other) is not PowerSeries:
            return NotImplemented
        return self.coeffs == other.coeffs

    def __hash__(self) -> int:
        return hash(self.coeffs)

    def __repr__(self) -> str:
        return f"PowerSeries(coeffs={self.coeffs!r})"

    @property
    def order(self) -> int:
        return len(self.coeffs) - 1

    def _match(self, other: PowerSeries) -> None:
        if self.order != other.order:
            raise DomainError(
                f"order mismatch: {self.order} vs {other.order}; "
                "build both series at one order"
            )

    # -- arithmetic ---------------------------------------------------------

    def __sub__(self, other: PowerSeries) -> PowerSeries:
        self._match(other)
        return PowerSeries(tuple(a - b for a, b in zip(self.coeffs, other.coeffs)))

    def __mul__(self, other: Union[PowerSeries, int]) -> PowerSeries:
        if isinstance(other, PowerSeries):
            self._match(other)
            return PowerSeries(_mul(self.coeffs, other.coeffs))
        if type(other) is int:
            return PowerSeries(tuple(a * other for a in self.coeffs))
        return NotImplemented  # floats and Fractions in particular are refused

    __rmul__ = __mul__

    def __truediv__(self, other: int) -> PowerSeries:
        if type(other) is int:
            return PowerSeries(tuple(div_exact(a, other) for a in self.coeffs))
        return NotImplemented

    def sqrt(self) -> PowerSeries:
        """Square root s with s_0 = 1: a^(1/2) by _power, reading a to its degree d.

        Requires unit constant term.  Each s_k is a sum of min(k, d) terms and one
        div_exact by 2k, so a radicand with no integer root raises there.  The root
        is certified by 2 a s' = a' s, which holds iff s^2 = a when s_0 = a_0 = 1
        and costs O(order) per nonzero a_i, so a wrong root cannot escape.
        """
        if self.coeffs[0] != 1:
            raise DomainError("sqrt requires constant term 1")
        a = self.coeffs
        s = _power(a[: max(k for k, c in enumerate(a) if c) + 1], 1, 2, self.order)
        if not _is_root(s, a):
            raise ExactnessError("square root certification failed")
        return PowerSeries(s)

    # -- evaluation and rendering --------------------------------------------

    def evaluate(self, x: Fraction) -> Fraction:
        """Exact value of the truncated polynomial at a rational point."""
        acc = Fraction(0)
        for c in reversed(self.coeffs):
            acc = acc * x + c
        return acc

    def __str__(self) -> str:
        parts: list[str] = []
        for k, c in enumerate(self.coeffs):
            if not c:
                continue
            mag = str(abs(c))
            if k == 0:
                body = mag
            else:
                x = "x" if k == 1 else f"x^{k}"
                body = x if mag == "1" else f"{mag}*{x}"
            if not parts:
                parts.append(body if c > 0 else f"-{body}")
            else:
                parts.append(f"+ {body}" if c > 0 else f"- {body}")
        if not parts:
            parts.append("0")
        parts.append(f"+ O(x^{self.order + 1})")
        return " ".join(parts)


def polynomial(coeffs: Sequence[int], order: int) -> PowerSeries:
    """A polynomial viewed as a series of the given truncation order."""
    index("order", order)
    if len(coeffs) > order + 1:
        raise DomainError(
            f"{len(coeffs)} coefficients do not fit in truncation order {order}"
        )
    padded = list(coeffs) + [0] * (order + 1 - len(coeffs))
    return PowerSeries(padded)


# ---------------------------------------------------------------------------
# the generating functions themselves


def _root_and_m(order: int) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """sqrt(1 - 2x - 3x^2) to x^order, and M = nu / x^2 to x^(order - 2) from it:
    M_k = -r_(k+2) / 2, one exact halving each; the slice keeps orders 0 and 1 legal."""
    root = polynomial([1, -2, -3][: order + 1], order).sqrt().coeffs
    return root, tuple([div_exact(-r, 2) for r in root[2:]])


def _p_from_root(root: tuple[int, ...], order: int) -> tuple[int, ...]:
    # 2 root root' = -2 - 6x, so P = 1 / root = -root' / (1 + 3x):
    # P_k = -(k + 1) r_(k+1) - 3 P_(k-1), reading the root to x^(order + 1)
    p, prev = [], 0
    for k in range(order + 1):
        prev = -(k + 1) * root[k + 1] - 3 * prev
        p.append(prev)
    return tuple(p)


def gf_P(order: int) -> PowerSeries:
    """P = 1 / sqrt(1 - 2x - 3x^2); coefficient of x^n is p(n)."""
    return gf_Z(0, order)


def gf_nu(order: int) -> PowerSeries:
    """nu = (1 - x - sqrt(1 - 2x - 3x^2)) / 2 = x^2 M; starts at x^2."""
    index("order", order)
    return PowerSeries(((0, 0) + _root_and_m(order)[1])[: order + 1])


@route
def z_series_diagonals(lams: range, max_n: int) -> list[list[int]]:
    """z(0..max_n, lam) for each lam in lams, as [x^(n - lam)] P M^lam.

    The first diagonal takes P and M to order max_n - lam from one root, and
    M^lam in one pass by Miller's recurrence; each further diagonal is one
    more factor of M at one order less, on the bare coefficients.
    """
    lo = lams.start
    root, m = _root_and_m(max_n - lo + 2)  # P and M to x^(max_n - lo), from one root
    q = _p_from_root(root, max_n - lo)
    if lo:
        q = _mul(q, tuple(_power(m, lo, 1, max_n - lo)))
    rows = [[0] * lo + list(q)]
    for lam in lams[1:]:
        q = _mul(q[: max_n - lam + 1], m)  # _mul reads m only to q's order
        rows.append([0] * lam + list(q))
    return rows


@lru_cache(maxsize=16, typed=True)  # typed: 3.0 reaches the index rule even after 3
def gf_Z(lam: int, order: int) -> PowerSeries:
    """Z[lam] = P * nu^lam; coefficient of x^(n+lam) is z(n, lam).

    The series route's diagonal lam to n = order - lam, shifted by lam: one
    root at order - 2 lam + 2, and none when 2 lam > order.
    """
    index("lam", lam)
    index("order", order)
    if lam > order:
        return polynomial([], order)
    (diagonal,) = z_series_diagonals(range(lam, lam + 1), order - lam)
    return PowerSeries((0,) * lam + tuple(diagonal))


def b_substitution_check(b: Union[Fraction, int]) -> tuple[Fraction, Fraction]:
    """Verify the substitution x = b / (b^2 + b + 1) exactly at one point.

    Checks, for rational 0 < b < 1:

      * sqrt(1 - 2x - 3x^2) = (1 - b^2) / (1 + b + b^2), verified by
        squaring (exact);
      * nu(x) = b * x, verified by evaluating nu truncated after x^N at x.
        nu's coefficients are below 3^k, so the tail is at most
        (3x)^(N+1) / (3(1 - 3x)); N is the least order bringing that to
        1e-9; a gap past the tail bound plus 1e-9 raises ExactnessError.

    N grows without limit as b -> 1: 56 at b = 1/3, 1435 at b = 4/5.  The
    domain is N <= 1500, about 0 < b <= 0.8037; past it DomainError is
    raised before any series is built.  Returns (x, radical) exactly.
    """
    b = Fraction(b)
    if not 0 < b < 1:
        raise DomainError(f"b must be strictly between 0 and 1, got {b}")
    x = b / (b * b + b + 1)
    radical = (1 - b * b) / (1 + b + b * b)
    if radical * radical != 1 - 2 * x - 3 * x * x:
        raise ExactnessError(f"radical identity failed at b={b}")
    q, tol, budget = 3 * x, Fraction(1, 10**9), 1500
    # least N with q^(N+1) <= 3(1 - q) tol, in logs of ints: a tiny q underflows a float
    bound = 3 * (1 - q) * tol
    log_q = math.log(q.numerator) - math.log(q.denominator)
    log_bound = math.log(bound.numerator) - math.log(bound.denominator)
    order = max(0, math.ceil(log_bound / log_q) - 1) if log_q < 0 else budget + 1
    if order > budget:
        raise DomainError(f"b = {b} needs nu past order {budget}, the budget")
    tail = q ** (order + 1) / (3 * (1 - q))
    gap = abs(gf_nu(order).evaluate(x) - b * x)
    if gap > tail + tol:
        raise ExactnessError(f"nu({x}) differs from b*x by {float(gap):.3e} at order {order}")
    return x, radical
