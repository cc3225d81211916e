"""Truncated formal power series over the integers, and the generating
functions whose coefficients are the diagonals of (1 + x + x^2)^n.

A PowerSeries carries its truncation order explicitly and refuses to mix
with a series of a different order: silent truncation is how generating
function bugs hide.  Every coefficient is an int and every division is a
div_exact, so a quotient that leaves the integers raises.

The generating functions:

    P(x)  = 1 / sqrt(1 - 2x - 3x^2)            central coefficients p(n)
    nu(x) = (1 - x - sqrt(1 - 2x - 3x^2)) / 2   the shift factor
    Z[lam] = P * nu^lam                          diagonal lam, offset by lam

so the coefficient of x^(n+lam) in Z[lam] is z(n, lam).  The square root
is computed by Newton iteration and certified by squaring back.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import Iterator, Sequence, Union

from .exact import ExactnessError, div_exact

__all__ = [
    "PowerSeries",
    "polynomial",
    "gf_P",
    "gf_nu",
    "gf_Z",
    "b_substitution_check",
]

# ---------------------------------------------------------------------------
# raw coefficient-tuple kernels


def _mul(a: tuple[int, ...], b: tuple[int, ...]) -> tuple[int, ...]:
    order = len(a) - 1
    out = [0] * (order + 1)
    for i, ai in enumerate(a):
        if not ai:
            continue
        for j in range(order + 1 - i):
            bj = b[j]
            if bj:
                out[i + j] += ai * bj
    return tuple(out)


def _div(a: tuple[int, ...], b: tuple[int, ...]) -> tuple[int, ...]:
    if not b[0]:
        raise ZeroDivisionError("division by a series with zero constant term")
    order = len(a) - 1
    out: list[int] = []
    for k in range(order + 1):
        acc = a[k]
        for i, ci in enumerate(out):
            if ci:
                acc -= ci * b[k - i]
        out.append(div_exact(acc, b[0]))
    return tuple(out)


# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class PowerSeries:
    """Formal power series truncated after x^order; coeffs[k] is for x^k."""

    coeffs: tuple[int, ...]

    def __post_init__(self) -> None:
        if len(self.coeffs) == 0:
            raise ValueError("a series needs at least the constant coefficient")
        for c in self.coeffs:
            if type(c) is not int:
                raise TypeError(f"series coefficients must be int, got {c!r}")

    @property
    def order(self) -> int:
        return len(self.coeffs) - 1

    def _match(self, other: PowerSeries) -> None:
        if self.order != other.order:
            raise ValueError(
                f"order mismatch: {self.order} vs {other.order}; "
                "truncate explicitly before combining"
            )

    def coefficient(self, k: int) -> int:
        if not 0 <= k <= self.order:
            raise IndexError(f"coefficient {k} beyond truncation order {self.order}")
        return self.coeffs[k]

    # -- ring operations ----------------------------------------------------

    def __add__(self, other: PowerSeries) -> PowerSeries:
        self._match(other)
        return PowerSeries(tuple(a + b for a, b in zip(self.coeffs, other.coeffs)))

    def __sub__(self, other: PowerSeries) -> PowerSeries:
        self._match(other)
        return PowerSeries(tuple(a - b for a, b in zip(self.coeffs, other.coeffs)))

    def __neg__(self) -> PowerSeries:
        return PowerSeries(tuple(-a for a in self.coeffs))

    def __mul__(self, other: Union[PowerSeries, int]) -> PowerSeries:
        if isinstance(other, PowerSeries):
            self._match(other)
            return PowerSeries(_mul(self.coeffs, other.coeffs))
        if type(other) is int:
            return PowerSeries(tuple(a * other for a in self.coeffs))
        return NotImplemented  # floats and Fractions in particular are refused

    __rmul__ = __mul__

    def __truediv__(self, other: Union[PowerSeries, int]) -> PowerSeries:
        if isinstance(other, PowerSeries):
            self._match(other)
            return PowerSeries(_div(self.coeffs, other.coeffs))
        if type(other) is int:
            return PowerSeries(tuple(div_exact(a, other) for a in self.coeffs))
        return NotImplemented

    def __pow__(self, exponent: int) -> PowerSeries:
        if exponent < 0:
            raise ValueError("negative powers: divide explicitly instead")
        result = polynomial([1], self.order)
        base = self
        e = exponent
        while e:
            if e & 1:
                result = result * base
            e >>= 1
            if e:
                base = base * base
        return result

    def sqrt(self) -> PowerSeries:
        """Square root by Newton iteration s <- (s + a/s) / 2.

        Requires unit constant term.  Each pass doubles the number of
        correct coefficients.  If the root is an integer series, s + a/s
        truncated at the new target is exactly twice it, so the halving is
        a div_exact and a radicand with no integer root raises there.  The
        result is certified by squaring back, so a wrong root cannot escape.
        """
        if self.coeffs[0] != 1:
            raise ValueError("sqrt requires constant term 1")
        order = self.order
        s: tuple[int, ...] = (1,)
        while len(s) - 1 < order:
            target = min(2 * (len(s) - 1) + 1, order)
            a = self.coeffs[: target + 1]
            padded = s + (0,) * (target + 1 - len(s))
            quotient = _div(a, padded)
            s = tuple(div_exact(u + v, 2) for u, v in zip(padded, quotient))
        root = PowerSeries(s)
        if (root * root).coeffs != self.coeffs:
            raise ExactnessError("square root certification failed")
        return root

    # -- evaluation and rendering --------------------------------------------

    def evaluate(self, x: Fraction) -> Fraction:
        """Exact value of the truncated polynomial at a rational point."""
        acc = Fraction(0)
        for c in reversed(self.coeffs):
            acc = acc * x + c
        return acc

    def csv_rows(self) -> Iterator[tuple[int, str, str]]:
        """(degree, numerator, denominator = 1) per coefficient, as strings."""
        for k, c in enumerate(self.coeffs):
            yield k, str(c), "1"

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
    if order < 0:
        raise ValueError(f"order must be >= 0, got {order}")
    if len(coeffs) > order + 1:
        raise ValueError(
            f"{len(coeffs)} coefficients do not fit in truncation order {order}"
        )
    padded = list(coeffs) + [0] * (order + 1 - len(coeffs))
    return PowerSeries(tuple(padded))


# ---------------------------------------------------------------------------
# the generating functions themselves


def _radicand(order: int) -> PowerSeries:
    # slicing keeps degenerate truncation orders 0 and 1 legal
    return polynomial([1, -2, -3][: order + 1], order)


@lru_cache(maxsize=None)
def gf_P(order: int) -> PowerSeries:
    """P = 1 / sqrt(1 - 2x - 3x^2); coefficient of x^n is p(n)."""
    return polynomial([1], order) / _radicand(order).sqrt()


@lru_cache(maxsize=None)
def gf_nu(order: int) -> PowerSeries:
    """nu = (1 - x - sqrt(1 - 2x - 3x^2)) / 2; starts at x^2."""
    nu = (polynomial([1, -1][: order + 1], order) - _radicand(order).sqrt()) / 2
    if any(nu.coeffs[:2]):
        raise ExactnessError(f"nu does not start at x^2: {nu}")
    return nu


@lru_cache(maxsize=None)
def gf_Z(lam: int, order: int) -> PowerSeries:
    """Z[lam] = P * nu^lam; coefficient of x^(n+lam) is z(n, lam)."""
    if lam < 0:
        raise ValueError(f"lam must be >= 0, got {lam}")
    if lam == 0:
        return gf_P(order)
    return gf_Z(lam - 1, order) * gf_nu(order)


def b_substitution_check(
    b: Union[Fraction, int], order: int = 160, tol: float = 1e-9
) -> tuple[Fraction, Fraction]:
    """Verify the substitution x = b / (b^2 + b + 1) exactly at one point.

    Checks, for rational 0 < b < 1:

      * sqrt(1 - 2x - 3x^2) = (1 - b^2) / (1 + b + b^2), verified by
        squaring (exact);
      * nu(x) = b * x, verified by evaluating the truncated nu series at x
        and bounding the dropped tail geometrically (nu's coefficients are
        below 3^k, so the tail after x^N is at most (3x)^(N+1) / (3(1-3x))).

    Returns (x, radical) as exact rationals.
    """
    b = Fraction(b)
    if not 0 < b < 1:
        raise ValueError(f"b must be strictly between 0 and 1, got {b}")
    x = b / (b * b + b + 1)
    radical = (1 - b * b) / (1 + b + b * b)
    if radical * radical != 1 - 2 * x - 3 * x * x:
        raise ExactnessError(f"radical identity failed at b={b}")
    nu_at_x = gf_nu(order).evaluate(x)
    tail = (3 * x) ** (order + 1) / (3 * (1 - 3 * x))
    gap = abs(nu_at_x - b * x)
    if gap > tail and float(gap) > tol:
        raise ExactnessError(
            f"nu({x}) differs from b*x by {float(gap):.3e} at order {order}"
        )
    return x, radical
