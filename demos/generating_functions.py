"""The generating-function view, in exact arithmetic.

The central column of the triangle is generated by
P = 1/sqrt(1 - 2x - 3x^2); each further diagonal is P times a power of
the shift factor nu = (1 - x - sqrt(1 - 2x - 3x^2))/2.  Everything here
is a truncated series over the integers: equalities printed below are
coefficient-for-coefficient identities, not floating approximations.
"""

from __future__ import annotations

from fractions import Fraction

from trinomial import b_substitution_check, gf_P, gf_Z, gf_nu, polynomial

ORDER = 24


def main() -> None:
    P = gf_P(ORDER)
    nu = gf_nu(ORDER)
    print("P  =", str(P).split("+ O")[0][:70], "...")
    print("nu =", str(nu).split("+ O")[0][:70], "...")

    print()
    print("nu satisfies the quadratic nu(1-x) - x^2 = nu^2:")
    lhs = nu * polynomial([1, -1], ORDER) - polynomial([0, 0, 1], ORDER)
    print("  lhs == nu^2:", lhs == nu * nu)

    print()
    print("diagonals are Z[lam] = P nu^lam; consecutive ones satisfy")
    print("Z[lam+1] = Z[lam](1-x) - Z[lam-1] x^2:")
    one_minus_x = polynomial([1, -1], ORDER)
    x2 = polynomial([0, 0, 1], ORDER)
    for lam in range(1, 5):
        holds = gf_Z(lam + 1, ORDER) == gf_Z(lam, ORDER) * one_minus_x - gf_Z(lam - 1, ORDER) * x2
        print(f"  lam={lam}: {holds}")

    print()
    print("reading a diagonal off its series (lam = 2, coefficient of x^(n+2)):")
    ints = gf_Z(2, ORDER).coeffs
    print(" ", [ints[n + 2] for n in range(10)])

    print()
    print("rational points where nu collapses to b*x, with everything exact:")
    for b in (Fraction(1, 3), Fraction(1, 2)):
        x, radical = b_substitution_check(b)
        print(
            f"  b={b}:  x = b/(b^2+b+1) = {x},  "
            f"sqrt(1-2x-3x^2) = {radical}"
        )


if __name__ == "__main__":
    main()
