"""Floating-point verification of the integral representations.

The exact integers z(n, lam) also arise as cosine-moment integrals, and
P(x) as a Poisson-kernel style integral.  Each integrand is a periodic
function with known cosine coefficients, and the trapezoid rule on N
panels misses only the coefficients at 2N, 4N, ..., so the panel count
is worked out from the integrand: (n + lam) // 2 + 1 panels make the z
integral exact.  P(x) peaks sharply near the edges of its domain; it is
integrated after a conformal map that clusters the nodes at the peak,
on the fewest panels whose error bound meets the tolerance.
"""

from __future__ import annotations

import math

from trinomial import (
    b_identity_check,
    b_reduction_chain_check,
    build_triangle,
    fourier_decomposition_check,
    gf_by_integral,
    z_by_integral,
)


def main() -> None:
    tri = build_triangle(15)
    print("z(n, lam) = (1/pi) Int_0^pi cos(lam phi) (1 + 2 cos phi)^n dphi:")
    for n, lam in ((6, 0), (12, 0), (15, 3), (15, 15)):
        exact = tri.coeff(n, n + lam)
        result = z_by_integral(n, lam)
        print(
            f"  n={n:2d} lam={lam:2d}: quadrature {result.value:.6f} "
            f"(exact {exact}, {result.panels} panels)"
        )

    print()
    print("P(1/4) = (1/pi) Int_0^pi dphi/(1 - 1/4 - cos(phi)/2) = 4/sqrt(5):")
    result = gf_by_integral(0.25, tol=1e-10)
    print(
        f"  quadrature {result.value:.12f}  vs  {4.0 / math.sqrt(5.0):.12f} "
        f"({result.panels} panels, error bound {result.abs_error_estimate:.1e})"
    )
    result = gf_by_integral(1.0 / 3.0 - 1e-6)
    print(f"  P(1/3 - 1e-6) = {result.value:.6f} with {result.panels} panels")

    print()
    print("(1 + 2 cos phi)^n equals p(n) + 2 sum_lam z(n,lam) cos(lam phi):")
    for n in (5, 12, 20):
        print(f"  n={n:2d}, 64 angles: {fourier_decomposition_check(n)}")

    print()
    print("Poisson-kernel moments: Int cos(lam phi)/(1 - 2b cos phi + b^2)")
    print("= pi b^lam / (1 - b^2), plus their three-term reduction chain:")
    for b in (0.3, 0.7, 0.9999):
        closed_ok = all(b_identity_check(b, lam) for lam in range(9))
        chain_ok = b_reduction_chain_check(b, 8)
        print(f"  b={b}: closed forms {closed_ok}, reduction chain {chain_ok}")


if __name__ == "__main__":
    main()
