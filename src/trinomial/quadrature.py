"""Float verification of the integral representations.

Everything exact lives elsewhere; this module exists to check that the
integral formulas

    z(n, lam) = (1/pi) * Int_0^pi cos(lam phi) (1 + 2 cos phi)^n dphi
    P(x)      = (1/pi) * Int_0^pi dphi / (1 - x - 2 x cos phi)
    Int_0^pi cos(lam phi) / (1 - 2 b cos phi + b^2) dphi
              = pi b^lam / (1 - b^2)

reproduce the exact numbers to floating tolerance.  Each integrand is an
even periodic sum_k a_k cos(k phi) with known a_k, and the trapezoid rule
on N panels of [0, pi] is off by exactly pi * sum_{j >= 1} a_{2Nj}
(Trefethen & Weideman, SIAM Review 2014), so N is set before f is run.

n is capped at 30: the first integrand reaches 3^n, and beyond that a
double carries too few bits for the comparison to mean much.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from typing import Callable

import numpy as np

from . import triangle

__all__ = [
    "QuadratureResult",
    "QuadratureError",
    "integrate_0_pi",
    "z_by_integral",
    "fourier_decomposition_check",
    "cos_power_expansion",
    "gf_by_integral",
    "b_identity_check",
    "b_reduction_chain_check",
]

MAX_PANELS = 2**20
MIN_TOL = 1e-13


class QuadratureError(RuntimeError):
    """More than MAX_PANELS panels needed, or an identity failed to verify."""


@dataclass(frozen=True)
class QuadratureResult:
    value: float
    abs_error_estimate: float
    panels: int


def integrate_0_pi(f: Callable[[np.ndarray], np.ndarray], panels: int) -> QuadratureResult:
    """Trapezoid estimate of Int_0^pi f on `panels` equal panels.

    f must accept a numpy array of angles and is called once, on all
    panels + 1 points, unless panels exceeds MAX_PANELS: then it raises
    QuadratureError.  abs_error_estimate is 0.0, as the rule cannot see the
    aliased terms; the callers below report the bound for their integrand.
    """
    if panels < 1:
        raise ValueError(f"need panels >= 1, got {panels}")
    if panels > MAX_PANELS:
        raise QuadratureError(f"{panels} panels needed, more than the budget of {MAX_PANELS}")
    values = np.asarray(f(np.linspace(0.0, math.pi, panels + 1)), dtype=float)
    value = (math.pi / panels) * (values.sum() - 0.5 * (values[0] + values[-1]))
    return QuadratureResult(float(value), 0.0, panels)


def _alias_order(q: float, c: float) -> int:
    """Smallest m >= 1 with sum_{j >= 1} q^(jm) = q^m / (1 - q^m) <= c,
    for 0 <= q < 1 and c > 0."""
    if q == 0.0:
        return 1
    return max(1, math.ceil(math.log(1.0 / (1.0 + 1.0 / c)) / math.log(q)))


def z_by_integral(n: int, lam: int) -> QuadratureResult:
    """z(n, lam) as (1/pi) Int_0^pi cos(lam phi) (1 + 2 cos phi)^n dphi.

    The returned value estimates z itself (the 1/pi is applied).  The
    integrand is a cosine polynomial of degree n + lam, so
    (n + lam) // 2 + 1 panels integrate it exactly: abs_error_estimate is
    0.0 and what error remains is roundoff on the scale 3^n.
    """
    if not 0 <= lam <= n <= 30:
        raise ValueError(f"need 0 <= lam <= n <= 30, got lam={lam}, n={n}")

    def f(phi: np.ndarray) -> np.ndarray:
        return np.cos(lam * phi) * (1.0 + 2.0 * np.cos(phi)) ** n

    panels = (n + lam) // 2 + 1
    return QuadratureResult(integrate_0_pi(f, panels).value / math.pi, 0.0, panels)


def fourier_decomposition_check(
    n: int, tol: float = 1e-9, grid_points: int = 64
) -> bool:
    """Check (1 + 2 cos phi)^n = p(n) + 2 sum_lam z(n, lam) cos(lam phi)
    pointwise on a uniform angle grid.

    The right side is reconstructed from row n of the exact triangle.
    Agreement is required to tol relative to the local magnitude
    (absolute where the left side vanishes), or to the roundoff of the
    cosine sum, (n + 1) eps sum |terms|, where its terms cancel.
    """
    if not 0 <= n <= 20:
        raise ValueError(f"need 0 <= n <= 20, got {n}")
    if grid_points < 2:
        raise ValueError("need at least two grid points")
    diag = triangle.row(n)[n:]
    for phi in np.linspace(0.0, math.pi, grid_points):
        lhs = (1.0 + 2.0 * math.cos(phi)) ** n
        terms = [float(diag[0])]
        terms += [2.0 * diag[lam] * math.cos(lam * phi) for lam in range(1, n + 1)]
        rhs = math.fsum(terms)
        roundoff = (n + 1) * sys.float_info.epsilon * math.fsum(map(abs, terms))
        if abs(lhs - rhs) > max(tol * max(1.0, abs(lhs)), roundoff):
            return False
    return True


def cos_power_expansion(alpha: int) -> list[int]:
    """Integer weights m_j with 2^alpha cos^alpha phi = sum_j m_j cos((alpha - 2j) phi).

    m_j = 2 C(alpha, j), except that the j = alpha/2 entry (the constant
    term, present only for even alpha) is C(alpha, alpha/2) taken once.
    The weights sum to 2^alpha (set phi = 0).
    """
    if alpha < 0:
        raise ValueError(f"alpha must be >= 0, got {alpha}")
    weights = []
    for j in range(alpha // 2 + 1):
        c = 2 * math.comb(alpha, j)
        if alpha == 2 * j:  # cos(0 phi): fold the halves together once
            c //= 2
        weights.append(c)
    return weights


def gf_by_integral(x: float, tol: float = 1e-9) -> QuadratureResult:
    """P(x) as (1/pi) Int_0^pi dphi / (1 - x - 2 x cos phi), for -1 < x < 1/3.

    With k = 2x / (1 - x) and r = k / (1 + sqrt(1 - k^2)) the integrand is
    P(x) (1 + 2 sum_m r^m cos(m phi)), so N panels are off by at most
    2 |r|^(2N) / (1 - |r|^(2N)) relative; N is the fewest that keep this
    below tol / 4; past MAX_PANELS, near an edge, it raises QuadratureError.
    The denominator is evaluated as (1 + x) sin^2(phi/2) + (1 - 3x)
    cos^2(phi/2), whose terms never cancel as 1 - x - 2x cos phi does.

    The value is also recomputed from the arccos antiderivative
    F(phi) = arccos((cos phi - k) / (1 - k cos phi)) / sqrt(1 - k^2) at the
    endpoints, and both are compared with the closed form
    1 / sqrt((1 + x)(1 - 3x)); disagreement raises QuadratureError.  The
    antiderivative loses accuracy like eps / (1 - k^2), so its tolerance
    is max(1e-12, 4 eps / (1 - k^2)) relative.
    """
    if not -1.0 < x < 1.0 / 3.0:
        raise ValueError(f"need -1 < x < 1/3, got {x}")
    if tol < MIN_TOL:
        raise ValueError(f"tol {tol} below supported minimum {MIN_TOL}")
    k = 2.0 * x / (1.0 - x)
    root = math.sqrt(1.0 - k * k)
    r = abs(k) / (1.0 + root)
    panels = (_alias_order(r, tol / 8.0) + 1) // 2
    lo, hi = 1.0 + x, 1.0 - 2.0 * x - x  # each exact near the edge where it vanishes

    def f(phi: np.ndarray) -> np.ndarray:
        return 1.0 / (lo * np.sin(0.5 * phi) ** 2 + hi * np.cos(0.5 * phi) ** 2)

    value = integrate_0_pi(f, panels).value / math.pi
    closed = 1.0 / math.sqrt(lo * hi)

    def arc(phi: float) -> float:
        return math.acos((math.cos(phi) - k) / (1.0 - k * math.cos(phi)))

    by_antiderivative = (arc(math.pi) - arc(0.0)) / root / ((1.0 - x) * math.pi)
    antiderivative_tol = max(1e-12, 4.0 * sys.float_info.epsilon / (1.0 - k * k))

    if abs(value - closed) > tol * max(1.0, abs(closed)):
        raise QuadratureError(
            f"quadrature {value} vs closed form {closed} at x={x}"
        )
    if abs(by_antiderivative - closed) > antiderivative_tol * max(1.0, abs(closed)):
        raise QuadratureError(
            f"antiderivative route {by_antiderivative} vs closed form {closed} at x={x}"
        )
    aliased = r ** (2 * panels)
    return QuadratureResult(value, closed * 2.0 * aliased / (1.0 - aliased), panels)


def _poisson_integral(b: float, lam: int, tol: float) -> float:
    """Int_0^pi cos(lam phi) / (1 - 2b cos phi + b^2) dphi to within tol / 4.

    For k > lam the cos(k phi) coefficient is at most 2 b^(k - lam) / (1 - b^2),
    so with 2N >= lam + m the error is at most 2 pi b^m / ((1 - b^2)(1 - b^m)).
    The denominator is written (1 - b)^2 + 4 b sin^2(phi / 2), because
    1 + b^2 - 2b cos phi cancels near phi = 0 as b -> 1.
    """
    if tol < MIN_TOL:
        raise ValueError(f"tol {tol} below supported minimum {MIN_TOL}")
    m = _alias_order(b, tol * (1.0 - b * b) / (8.0 * math.pi))

    def f(phi: np.ndarray) -> np.ndarray:
        return np.cos(lam * phi) / ((1.0 - b) ** 2 + 4.0 * b * np.sin(0.5 * phi) ** 2)

    return integrate_0_pi(f, (lam + m + 1) // 2).value


def b_identity_check(b: float, lam: int, tol: float = 1e-9) -> bool:
    """Check Int_0^pi cos(lam phi) / (1 - 2b cos phi + b^2) dphi
    equals pi b^lam / (1 - b^2), for 0 < b < 1."""
    if not 0.0 < b < 1.0:
        raise ValueError(f"need 0 < b < 1, got {b}")
    if lam < 0:
        raise ValueError(f"lam must be >= 0, got {lam}")
    closed = math.pi * b**lam / (1.0 - b * b)
    return abs(_poisson_integral(b, lam, tol) - closed) <= tol * max(1.0, abs(closed))


def b_reduction_chain_check(b: float, max_lambda: int, tol: float = 1e-9) -> bool:
    """Check the three-term reduction I(lam+1) = ((1 + b^2)/b) I(lam) - I(lam-1)
    on quadrature values of I(lam) = Int_0^pi cos(lam phi)/(1 - 2b cos phi + b^2).

    Also anchors the chain: I(0) = pi / (1 - b^2) and
    (1 + b^2) I(0) - 2 b I(1) = pi.
    """
    if not 0.0 < b < 1.0:
        raise ValueError(f"need 0 < b < 1, got {b}")
    if max_lambda < 1:
        raise ValueError(f"max_lambda must be >= 1, got {max_lambda}")
    values = [_poisson_integral(b, lam, tol) for lam in range(max_lambda + 1)]
    scale = max(1.0, values[0])
    if abs(values[0] - math.pi / (1.0 - b * b)) > tol * scale:
        return False
    if abs((1.0 + b * b) * values[0] - 2.0 * b * values[1] - math.pi) > tol * scale:
        return False
    ratio = (1.0 + b * b) / b
    for lam in range(1, max_lambda):
        predicted = ratio * values[lam] - values[lam - 1]
        if abs(values[lam + 1] - predicted) > tol * max(1.0, ratio) * scale:
            return False
    return True
