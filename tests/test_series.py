from __future__ import annotations

from fractions import Fraction

import pytest

from trinomial.exact import ExactnessError
from trinomial.recurrences import central_sequence
from trinomial.series import (
    PowerSeries,
    b_substitution_check,
    gf_P,
    gf_Z,
    gf_nu,
    polynomial,
)
from trinomial.triangle import build_triangle


def test_polynomial_constructor() -> None:
    ps = polynomial([1, 2], 4)
    assert ps.order == 4
    assert ps.coeffs == (1, 2, 0, 0, 0)
    with pytest.raises(ValueError):
        polynomial([1, 2, 3], 1)
    with pytest.raises(ValueError):
        polynomial([1], -1)


def test_ring_operations() -> None:
    a = polynomial([1, 2, 3], 5)
    b = polynomial([4, 5], 5)
    assert (a + b).coeffs[:3] == (5, 7, 3)
    assert (a - b).coeffs[:3] == (-3, -3, 3)
    assert (a * b).coeffs == (4, 13, 22, 15, 0, 0)
    assert (-a).coeffs[:3] == (-1, -2, -3)
    assert (a * 2).coeffs[:3] == (2, 4, 6)
    assert (2 * a) == (a * 2)
    assert (a * 6) / 3 == a * 2


def test_mismatched_orders_refused() -> None:
    a = polynomial([1], 3)
    b = polynomial([1], 4)
    for op in (lambda: a + b, lambda: a - b, lambda: a * b, lambda: a / b):
        with pytest.raises(ValueError):
            op()


def test_float_scalars_refused() -> None:
    a = polynomial([1, 1], 3)
    with pytest.raises(TypeError):
        a * 0.5  # type: ignore[operator]
    with pytest.raises(TypeError):
        a / 0.5  # type: ignore[operator]


def test_fraction_scalars_refused() -> None:
    a = polynomial([2, 2], 3)
    with pytest.raises(TypeError):
        a * Fraction(1, 2)  # type: ignore[operator]
    with pytest.raises(TypeError):
        a / Fraction(2)  # type: ignore[operator]


def test_scalar_division_with_remainder_raises() -> None:
    a = polynomial([2, 4, 3], 3)
    with pytest.raises(ExactnessError):
        a / 2
    with pytest.raises(ZeroDivisionError):
        a / 0


def test_division_round_trip() -> None:
    a = polynomial([1, -2, 5, 0, 3], 8)
    b = polynomial([1, 1, 1], 8)
    assert (a / b) * b == a
    assert (a * b) / b == a
    with pytest.raises(ZeroDivisionError):
        a / polynomial([0, 1], 8)


def test_series_division_leaving_the_integers_raises() -> None:
    a = polynomial([1, -2, 5, 0, 3], 8)
    with pytest.raises(ExactnessError):
        a / polynomial([2, 1, 1], 8)
    assert (a * 2) / polynomial([2], 8) == a


def test_power() -> None:
    x = polynomial([0, 1], 6)
    assert (x**3).coeffs == (0, 0, 0, 1, 0, 0, 0)
    one = polynomial([1], 6)
    assert x**0 == one
    with pytest.raises(ValueError):
        x ** (-1)


def test_sqrt_certified() -> None:
    radicand = polynomial([1, -2, -3], 120)
    root = radicand.sqrt()
    assert root * root == radicand
    # the root here is 1 - x - 2 nu, an integer series
    assert root.coeffs[:5] == (1, -1, -2, -2, -4)


def test_sqrt_requires_unit_constant() -> None:
    with pytest.raises(ValueError):
        polynomial([4], 3).sqrt()


def test_sqrt_without_integer_root_raises() -> None:
    # sqrt(1 + x) = 1 + x/2 - ...: the Newton halving meets an odd value
    with pytest.raises(ExactnessError):
        polynomial([1, 1], 8).sqrt()


def test_sqrt_of_a_square() -> None:
    root = polynomial([1, 3, -7, 0, 2], 12)
    assert (root * root).sqrt() == root


def test_factorization_of_radicand() -> None:
    lhs = polynomial([1, 1], 10) * polynomial([1, -3], 10)
    assert lhs == polynomial([1, -2, -3], 10)


def test_gf_P_matches_recurrence() -> None:
    assert gf_P(120).coeffs == central_sequence(120).values


def test_gf_nu_prefix() -> None:
    nu = gf_nu(9)
    assert nu.coeffs == (0, 0, 1, 1, 2, 4, 9, 21, 51, 127)


def test_nu_functional_equation_order_60() -> None:
    nu = gf_nu(60)
    lhs = nu * polynomial([1, -1], 60) - polynomial([0, 0, 1], 60)
    assert lhs == nu * nu


def test_gf_Z_matches_oracle_diagonals() -> None:
    tri = build_triangle(60)
    for lam in range(9):
        ints = gf_Z(lam, 60).coeffs
        for n in range(61 - lam):
            assert ints[n + lam] == tri.coeff(n, n + lam), (lam, n)


def test_scale_relation_order_60() -> None:
    one_minus_x = polynomial([1, -1], 60)
    x2 = polynomial([0, 0, 1], 60)
    for lam in range(1, 9):
        assert gf_Z(lam + 1, 60) == gf_Z(lam, 60) * one_minus_x - gf_Z(lam - 1, 60) * x2


def test_gf_Z_rejects_negative_lambda() -> None:
    with pytest.raises(ValueError):
        gf_Z(-1, 10)


def test_degenerate_orders() -> None:
    assert gf_P(0).coeffs == (1,)
    assert gf_nu(0).coeffs == (0,)
    assert gf_nu(1).coeffs == (0, 0)


def test_evaluate_horner() -> None:
    ps = polynomial([1, 2, 3], 2)
    assert ps.evaluate(Fraction(1, 2)) == Fraction(11, 4)


def test_b_substitution_half() -> None:
    x, radical = b_substitution_check(Fraction(1, 2))
    assert x == Fraction(2, 7)
    assert radical == Fraction(3, 7)


def test_b_substitution_third() -> None:
    x, radical = b_substitution_check(Fraction(1, 3))
    assert x == Fraction(3, 13)
    assert radical == Fraction(8, 13)


def test_b_substitution_fifth() -> None:
    x, radical = b_substitution_check(Fraction(1, 5))
    assert x == Fraction(5, 31)
    assert radical == Fraction(24, 31)


def test_b_substitution_domain() -> None:
    for bad in (Fraction(0), Fraction(1), Fraction(3, 2), Fraction(-1, 2)):
        with pytest.raises(ValueError):
            b_substitution_check(bad)


def test_str_rendering() -> None:
    assert str(polynomial([1, 1, 3], 3)) == "1 + x + 3*x^2 + O(x^4)"
    assert str(polynomial([0, -1], 2)) == "-x + O(x^3)"
    assert str(polynomial([-3, 0, 2], 2)) == "-3 + 2*x^2 + O(x^3)"
    assert str(polynomial([0], 2)) == "0 + O(x^3)"


def test_csv_rows() -> None:
    rows = list(polynomial([1, -12], 2).csv_rows())
    assert rows == [(0, "1", "1"), (1, "-12", "1"), (2, "0", "1")]


def test_constructor_rejects_non_integers() -> None:
    for bad in (Fraction(1, 2), Fraction(2), 1.0):
        with pytest.raises(TypeError):
            polynomial([1, bad], 2)
        with pytest.raises(TypeError):
            PowerSeries((1, bad))


def test_coefficient_accessor_bounds() -> None:
    ps = polynomial([1, 2], 3)
    assert ps.coefficient(1) == 2
    with pytest.raises(IndexError):
        ps.coefficient(4)
