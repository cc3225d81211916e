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

The last two integrands are Poisson kernels whose coefficients decay only
like t^k, with t -> 1 at the edges of their domains.  They are integrated
after a conformal map of the disk that clusters the nodes at the peak
(Hale & Trefethen, "New quadrature formulas from conformal maps", SIAM
J. Numer. Anal. 2008), which takes N from order 1/(1 - t) to order
1/sqrt(1 - t).

n is capped at 30: the first integrand reaches 3^n, and beyond that a
double carries too few bits for the comparison to mean much.
"""

from __future__ import annotations

import math
import sys
from typing import Callable, NamedTuple

from . import triangle
from .exact import DomainError, index

__all__ = [
    "QuadratureResult",
    "QuadratureError",
    "integrate_0_pi",
    "z_by_integral",
    "fourier_decomposition_check",
    "gf_by_integral",
    "b_identity_check",
    "b_reduction_chain_check",
]

MAX_PANELS = 2**20
MIN_TOL = 1e-13


class QuadratureError(RuntimeError):
    """More than MAX_PANELS panels needed, or an identity failed to verify."""


class QuadratureResult(NamedTuple):
    value: float
    abs_error_estimate: float
    panels: int


def integrate_0_pi(f: Callable[[float], float], panels: int) -> QuadratureResult:
    """Trapezoid estimate of Int_0^pi f on `panels` equal panels.

    f takes one angle and is called once at each of the panels + 1 nodes,
    unless panels exceeds MAX_PANELS: then it raises QuadratureError before
    any call.  The nodes are summed with math.fsum.  abs_error_estimate is
    0.0, as the rule cannot see the aliased terms; the callers below report
    the bound for their integrand.
    """
    index("panels", panels, 1)
    if panels > MAX_PANELS:
        raise QuadratureError(f"{panels} panels needed, more than the budget of {MAX_PANELS}")
    h = math.pi / panels
    ends = 0.5 * (f(0.0) + f(math.pi))
    value = h * math.fsum([ends, *(f(j * h) for j in range(1, panels))])
    return QuadratureResult(value, 0.0, panels)


def z_by_integral(n: int, lam: int) -> QuadratureResult:
    """z(n, lam) as (1/pi) Int_0^pi cos(lam phi) (1 + 2 cos phi)^n dphi.

    The returned value estimates z itself (the 1/pi is applied).  The
    integrand is a cosine polynomial of degree n + lam, so
    (n + lam) // 2 + 1 panels integrate it exactly: abs_error_estimate is
    0.0 and what error remains is roundoff on the scale 3^n.
    """
    index("n", n, None)  # ints only; the bounds are the one check below
    index("lam", lam, None)
    if not 0 <= lam <= n <= 30:
        raise DomainError(f"need 0 <= lam <= n <= 30, got lam={lam}, n={n}")

    def f(phi: float) -> float:
        return math.cos(lam * phi) * (1.0 + 2.0 * math.cos(phi)) ** n

    panels = (n + lam) // 2 + 1
    return QuadratureResult(integrate_0_pi(f, panels).value / math.pi, 0.0, panels)


def fourier_decomposition_check(n: int) -> bool:
    """Check (1 + 2 cos phi)^n = p(n) + 2 sum_lam z(n, lam) cos(lam phi)
    pointwise at 64 equally spaced angles from 0 to pi.

    The right side is reconstructed from row n of the exact triangle.
    Agreement is required to 1e-9 relative to the local magnitude
    (absolute where the left side vanishes), or to the roundoff of the
    cosine sum, (n + 1) eps sum |terms|, where its terms cancel.
    """
    if not 0 <= index("n", n, None) <= 20:
        raise DomainError(f"need 0 <= n <= 20, got {n}")
    tol, grid_points = 1e-9, 64
    diag = triangle.row(n)[n:]
    for j in range(grid_points):
        phi = math.pi * j / (grid_points - 1)
        lhs = (1.0 + 2.0 * math.cos(phi)) ** n
        terms = [float(diag[0])]
        terms += [2.0 * diag[lam] * math.cos(lam * phi) for lam in range(1, n + 1)]
        rhs = math.fsum(terms)
        roundoff = (n + 1) * sys.float_info.epsilon * math.fsum(map(abs, terms))
        if abs(lhs - rhs) > max(tol * max(1.0, abs(lhs)), roundoff):
            return False
    return True


def _mapped_integral(lo: float, hi: float, lam: int, tol: float, scale: float) -> QuadratureResult:
    """Int_0^pi cos(lam phi) / (lo sin^2(phi/2) + hi cos^2(phi/2)) dphi, lo, hi > 0,
    on the fewest panels of the disk map whose error bound meets tol scale / 4.

    The kernel is P_t(phi) / sqrt(lo hi), a Poisson kernel with pole radius
    t = (sqrt(lo) - sqrt(hi)) / (sqrt(lo) + sqrt(hi)).  The map tan(phi/2) =
    s tan(psi/2), s = (1 - c) / (1 + c), c = t / (1 + sqrt(1 - t^2)), with
    Jacobian (1 - c^2) / (1 + 2c cos psi + c^2), turns it into P_c(psi) / sqrt(lo hi);
    s = (hi / lo)^(1/4) finds c without the cancellation in 1 - t^2.  As c != t
    this is not the closed form in disguise: f is the integrand at phi(psi)
    times the Jacobian, the kernel written (1 + u^2) / (lo u^2 + hi) in
    u = tan(phi/2), which unlike a rounded phi stays accurate near phi = pi.

    The mapped coefficients are at most M rho^k, so N panels are off by at
    most 2 pi M q / (1 - q), q = rho^(2N): exactly, for lam = 0, with rho = |c|
    and M = 1 / sqrt(lo hi).  For lam >= 1, M is a Cauchy estimate on
    |w| = rho = |c|^0.8: |cos(lam phi)| <= R^lam, R = (1 - |c| rho) / (rho - |c|),
    and |P_c| <= (1 - c^2) rho / ((1 - |c| rho)(rho - |c|)).

    For lo < hi the kernel peaks at phi = pi, where the node j pi / N is off
    by about eps pi; phi -> pi - phi swaps lo and hi and multiplies the value
    by (-1)^lam, which puts the peak at psi = 0, where the nodes are exact.
    """
    if not MIN_TOL <= tol < math.inf:
        raise DomainError(f"tol must be finite and at least {MIN_TOL}, got {tol}")
    sign = (-1) ** lam if lo < hi else 1
    lo, hi = max(lo, hi), min(lo, hi)
    s = (hi / lo) ** 0.25
    c = (1.0 - s) / (1.0 + s)
    a = max(abs(c), sys.float_info.epsilon)  # c may round to 0, and the estimate needs rho > |c|
    rho = a if lam == 0 else a**0.8
    log_m = -0.5 * math.log(lo * hi)  # M is kept as its log: R^lam can overflow
    if lam:
        log_m += lam * math.log((1.0 - a * rho) / (rho - a))
        log_m += math.log((1.0 - a * a) * rho / ((1.0 - a * rho) * (rho - a)))
    # smallest m >= 1 with M rho^m / (1 - rho^m) <= C = tol scale / (8 pi M), that is
    # rho^m <= C / (1 + C), then N = ceil(m / 2).  Both are kept as logs, since tol scale
    # can overflow; log(C / (1 + C)) takes the form whose exp stays at most 1
    log_c = math.log(tol / (8.0 * math.pi)) + math.log(scale) - log_m
    log_share = log_c - math.log1p(math.exp(log_c)) if log_c < 0.0 else -math.log1p(math.exp(-log_c))
    m = max(1, math.ceil(log_share / math.log(rho)))
    panels = (m + 1) // 2

    def f(psi: float) -> float:
        v = math.tan(0.5 * psi)
        u = s * v
        jacobian = s * (1.0 + v * v) / (1.0 + u * u)
        return math.cos(2.0 * lam * math.atan(u)) * (1.0 + u * u) / (lo * u * u + hi) * jacobian

    value = sign * integrate_0_pi(f, panels).value
    try:
        aliased = math.exp(log_m + 2 * panels * math.log(rho))
    except OverflowError:  # the bound meets tol scale / 4, which can pass the largest double
        aliased = math.inf
    return QuadratureResult(value, 2.0 * math.pi * aliased / (1.0 - rho ** (2 * panels)), panels)


def gf_by_integral(x: float, tol: float = 1e-9) -> QuadratureResult:
    """P(x) as (1/pi) Int_0^pi dphi / (1 - x - 2 x cos phi), for -1 < x < 1/3.

    The denominator is (1 + x) sin^2(phi/2) + (1 - 3x) cos^2(phi/2), whose
    terms never cancel as 1 - x - 2x cos phi does.  On the disk map the panel
    count to meet tol / 4 relative grows only like ((1 + x)(1 - 3x))^(-1/4),
    so every double of the domain stays within MAX_PANELS.

    The value is compared with the closed form 1 / sqrt((1 + x)(1 - 3x));
    a gap past tol relative (absolute below 1) raises QuadratureError.
    """
    if not -1.0 < x < 1.0 / 3.0:
        raise DomainError(f"need -1 < x < 1/3, got {x}")
    lo, hi = 1.0 + x, 1.0 - 2.0 * x - x  # each exact near the edge where it vanishes
    closed = 1.0 / math.sqrt(lo * hi)
    result = _mapped_integral(lo, hi, 0, tol, math.pi * closed)
    value = result.value / math.pi
    if abs(value - closed) > tol * max(1.0, abs(closed)):
        raise QuadratureError(f"quadrature {value} vs closed form {closed} at x={x}")
    return QuadratureResult(value, result.abs_error_estimate / math.pi, result.panels)


def _poisson_integral(b: float, lam: int, tol: float, scale: float) -> QuadratureResult:
    # 1 - 2b cos phi + b^2 = (1 + b)^2 sin^2(phi/2) + (1 - b)^2 cos^2(phi/2), whose
    # terms, unlike the left side's near phi = 0 as b -> 1, never cancel
    return _mapped_integral((1.0 + b) ** 2, (1.0 - b) ** 2, lam, tol, scale)


def b_identity_check(b: float, lam: int, tol: float = 1e-9) -> bool:
    """Check Int_0^pi cos(lam phi) / (1 - 2b cos phi + b^2) dphi
    equals pi b^lam / (1 - b^2), for 0 < b < 1."""
    if not 0.0 < b < 1.0:
        raise DomainError(f"need 0 < b < 1, got {b}")
    index("lam", lam)
    closed = math.pi * b**lam / ((1.0 - b) * (1.0 + b))
    scale = max(1.0, abs(closed))
    return abs(_poisson_integral(b, lam, tol, scale).value - closed) <= tol * scale


def b_reduction_chain_check(b: float, max_lambda: int, tol: float = 1e-9) -> bool:
    """Check the three-term reduction I(lam+1) = ((1 + b^2)/b) I(lam) - I(lam-1)
    on quadrature values of I(lam) = Int_0^pi cos(lam phi)/(1 - 2b cos phi + b^2).

    Also anchors the chain: I(0) = pi / (1 - b^2) and
    (1 + b^2) I(0) - 2 b I(1) = pi.
    """
    if not 0.0 < b < 1.0:
        raise DomainError(f"need 0 < b < 1, got {b}")
    index("max_lambda", max_lambda, 1)
    closed = math.pi / ((1.0 - b) * (1.0 + b))
    scale = max(1.0, closed)
    values = [_poisson_integral(b, lam, tol, scale).value for lam in range(max_lambda + 1)]
    if abs(values[0] - closed) > tol * scale:
        return False
    if abs((1.0 + b * b) * values[0] - 2.0 * b * values[1] - math.pi) > tol * scale:
        return False
    ratio = (1.0 + b * b) / b
    for lam in range(1, max_lambda):
        predicted = ratio * values[lam] - values[lam - 1]
        if abs(values[lam + 1] - predicted) > tol * max(1.0, ratio) * scale:
            return False
    return True
