from __future__ import annotations

import functools
import inspect
import re
import sys
from fractions import Fraction

import pytest

from trinomial import methods, series
from trinomial.exact import ExactnessError
from trinomial.recurrences import general_sequence
from trinomial.series import (
    PowerSeries,
    b_substitution_check,
    gf_P,
    gf_Z,
    gf_nu,
    polynomial,
    z_series_diagonals,
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
    assert (a - b).coeffs[:3] == (-3, -3, 3)
    assert (a * b).coeffs == (4, 13, 22, 15, 0, 0)
    assert (a * 2).coeffs[:3] == (2, 4, 6)
    assert (2 * a) == (a * 2)
    assert (a * 6) / 3 == a * 2


def test_mismatched_orders_refused() -> None:
    a = polynomial([1], 3)
    b = polynomial([1], 4)
    for op in (lambda: a - b, lambda: a * b):
        with pytest.raises(ValueError):
            op()
    with pytest.raises(TypeError):  # a series divides by an int only
        a / a


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
    # sqrt(1 + x) = 1 + x/2 - ...: the division by 2 for x^1 meets an odd value
    with pytest.raises(ExactnessError):
        polynomial([1, 1], 8).sqrt()


@pytest.fixture
def divisions(monkeypatch) -> list[tuple[int, int]]:
    """Every (a, b) the series module divides exactly from here on."""
    calls: list[tuple[int, int]] = []
    div_exact = series.div_exact

    def counting(a: int, b: int) -> int:
        calls.append((a, b))
        return div_exact(a, b)

    monkeypatch.setattr(series, "div_exact", counting)
    return calls


def test_sqrt_takes_one_exact_division_by_2k_per_coefficient(divisions) -> None:
    # Miller's recurrence for a^(1/2): 2k s_k = sum_{i=1..min(k, 2)} (3i - 2k) a_i s_(k-i)
    polynomial([1, -2, -3], 40).sqrt()
    assert [b for _, b in divisions] == list(range(2, 81, 2))


def test_power_of_m_is_the_repeated_product() -> None:
    _, m = series._root_and_m(32)  # M to x^30
    product = (1,) + (0,) * 30
    for lo in range(7):
        assert series._power(m, lo, 1, 30) == list(product), lo
        product = series._mul(product, m)


def test_the_route_takes_its_root_from_the_radicand_trimmed_to_its_degree(monkeypatch) -> None:
    # a padded radicand would make every root step sum over zeros: O(order^2), not O(order)
    calls: list[tuple[int, int, int, int]] = []
    power = series._power

    def recording(b: tuple[int, ...], p: int, q: int, order: int) -> list[int]:
        calls.append((len(b), p, q, order))
        return power(b, p, q, order)

    monkeypatch.setattr(series, "_power", recording)
    tri = build_triangle(30)
    assert z_series_diagonals(range(4, 5), 30) == [[tri.coeff(n, n + 4) for n in range(31)]]
    # the root to x^28 from 1 - 2x - 3x^2 alone, then M^4 to x^26 from M's 27 terms
    assert calls == [(3, 1, 2, 28), (27, 4, 1, 26)]
    calls.clear()
    assert gf_P(300).coeffs == general_sequence(0, 300)
    assert calls == [(3, 1, 2, 302)]


def test_sqrt_of_a_square() -> None:
    root = polynomial([1, 3, -7, 0, 2], 12)
    assert (root * root).sqrt() == root


def test_factorization_of_radicand() -> None:
    lhs = polynomial([1, 1], 10) * polynomial([1, -3], 10)
    assert lhs == polynomial([1, -2, -3], 10)


def test_gf_P_matches_recurrence() -> None:
    assert gf_P(120).coeffs == general_sequence(0, 120)


def test_p_comes_from_the_root_without_a_division() -> None:
    # P = -root' / (1 + 3x) one coefficient at a time; there is no series division
    tri = build_triangle(40)
    assert z_series_diagonals(range(3, 4), 40) == [[tri.coeff(n, n + 3) for n in range(41)]]
    assert z_series_diagonals(range(41), 40)[0] == list(general_sequence(0, 40))
    for order in (0, 1, 2, 7, 300):
        assert gf_P(order).coeffs == tuple(general_sequence(0, order))


def test_gf_nu_prefix() -> None:
    nu = gf_nu(9)
    assert nu.coeffs == (0, 0, 1, 1, 2, 4, 9, 21, 51, 127)


def test_z_series_diagonals_step_by_the_motzkin_series_from_one_root(root_orders) -> None:
    # row lam from n = lam on is P M^lam, so each row is the one before times M
    motzkin = (1, 1, 2, 4, 9, 21, 51, 127, 323, 835, 2188)
    rows = z_series_diagonals(range(3, 6), 14)
    for lam, (q, q_next) in enumerate(zip(rows, rows[1:]), 3):
        depth = 14 - lam - 1
        step = PowerSeries(tuple(q[lam : lam + depth + 1])) * PowerSeries(motzkin[: depth + 1])
        assert step.coeffs == tuple(q_next[lam + 1 :])
    assert rows[0] == [0, 0, 0] + [build_triangle(14).coeff(n, n + 3) for n in range(3, 15)]
    assert root_orders == [13]
    assert z_series_diagonals(range(0, 2), 0) == [[1], [0]]
    assert root_orders == [13, 2]


def test_z_series_diagonals_refuses_a_range_of_another_step() -> None:
    # each further diagonal is one more factor of M, so lams must step by 1
    tri = build_triangle(8)
    assert z_series_diagonals(range(0, 7), 8)[2] == [tri.coeff(n, n + 2) for n in range(9)]
    for lams in (range(0, 7, 2), range(6, -1, -1), range(3, -2, -1)):
        with pytest.raises(ValueError, match=re.escape(repr(lams))):
            z_series_diagonals(lams, 8)


def test_series_route_reads_m_off_the_root_by_one_halving_each(monkeypatch, divisions) -> None:
    def refuse(self: PowerSeries, other: object) -> None:
        raise AssertionError("nu needs no series subtraction or division")

    monkeypatch.setattr(PowerSeries, "__sub__", refuse)
    monkeypatch.setattr(PowerSeries, "__truediv__", refuse)
    tri = build_triangle(30)
    want = [[tri.coeff(n, n + lam) for n in range(31)] for lam in range(31)]
    assert z_series_diagonals(range(31), 30) == want
    # the root to x^32 takes one division by 2k for each x^k, and M to x^30 one halving each
    assert [b for _, b in divisions] == list(range(2, 65, 2)) + [2] * 31
    divisions.clear()
    assert gf_nu(9).coeffs == (0, 0, 1, 1, 2, 4, 9, 21, 51, 127)
    assert [b for _, b in divisions] == list(range(2, 19, 2)) + [2] * 8


def test_every_shifted_root_step_raises_and_the_last_fails_its_certificate(monkeypatch) -> None:
    # root step k is _root_and_m's k-th exact division, by 2k.  Moving it by -1, +1 or +2
    # makes a later step or a halving for M leave the integers, or fails the certificate;
    # after the last step only the certificate runs before M's halvings
    divisions: list[int] = []
    div_exact = series.div_exact
    target, shift = 0, 0

    def shifted(a: int, b: int) -> int:
        divisions.append(b)
        return div_exact(a, b) + (shift if len(divisions) == target else 0)

    monkeypatch.setattr(series, "div_exact", shifted)
    for order in (2, 8, 20, 42):
        for target in range(1, order + 1):
            for shift in (-1, 1, 2):
                divisions.clear()
                with pytest.raises(ExactnessError, match="certification" if target == order else None):
                    series._root_and_m(order)
                assert divisions[target - 1] == 2 * target, (order, target, shift)


def test_a_cold_series_diagonal_squares_no_root_back(monkeypatch) -> None:
    calls: list[int] = []
    mul = series._mul

    def counting(a: tuple[int, ...], b: tuple[int, ...]) -> tuple[int, ...]:
        calls.append(len(a))
        return mul(a, b)

    monkeypatch.setattr(series, "_mul", counting)
    assert z_series_diagonals(range(1), 300) == [list(general_sequence(0, 300))]
    assert calls == []


def test_a_deep_series_diagonal_raises_m_to_its_power_in_one_pass(monkeypatch) -> None:
    calls: list[int] = []
    mul = series._mul

    def counting(a: tuple[int, ...], b: tuple[int, ...]) -> tuple[int, ...]:
        calls.append(len(a))
        return mul(a, b)

    def refused(*args: object) -> None:
        raise AssertionError("the series route multiplied through PowerSeries")

    monkeypatch.setattr(series, "_mul", counting)
    monkeypatch.setattr(PowerSeries, "__mul__", refused)
    max_n = 30
    tri = build_triangle(max_n)
    for lo in (2, 7, max_n - 1, max_n):
        calls.clear()
        (diagonal,) = z_series_diagonals(range(lo, lo + 1), max_n)
        assert calls == [max_n - lo + 1], lo
        assert diagonal == [tri.coeff(n, n + lo) for n in range(max_n + 1)], lo


def test_a_wrong_power_of_m_fails_the_series_route_own_check(monkeypatch) -> None:
    # M^4 for M^3 passes every division of _power and gives z(4, 3) = 5; only the
    # edge check of exact.route, T(n, 2n - 1) = n, read as [x^1] P M^lam = 1 + lam, sees it
    power = series._power
    monkeypatch.setattr(series, "_power", lambda b, p, q, order: power(b, p + (q == 1), q, order))
    with pytest.raises(ExactnessError, match=re.escape("z_series_diagonals: z(4, 3) = 5, not 4")):
        methods.diagonal_values("series", 3, 10)
    with pytest.raises(ExactnessError):
        z_series_diagonals(range(3, 6), 10)
    assert z_series_diagonals(range(0, 1), 10) == [list(general_sequence(0, 10))]  # no power of M


@pytest.mark.parametrize("radicand", [(1, -2, -3), (1, 4), (1, 2, 1), (1, -6, 9), (1, 0, 4, 0, 4)])
def test_the_root_certificate_agrees_with_squaring_on_every_root_off_by_one(radicand) -> None:
    for order in (0, 1, 2, 5, 17, 40):
        a = polynomial(radicand[: order + 1], order).coeffs
        root = list(PowerSeries(a).sqrt().coeffs)
        assert series._is_root(root, a) and series._mul(tuple(root), tuple(root)) == a
        for k in range(order + 1):
            for shift in (-1, 1, 2):
                s = root.copy()
                s[k] += shift
                squares = series._mul(tuple(s), tuple(s)) == a
                assert not squares and series._is_root(s, a) == squares, (order, k, shift)


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


def test_gf_Z_does_not_recurse_per_lambda() -> None:
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(len(inspect.stack()) + 100)
    try:
        assert gf_Z(300, 610).coeffs[600:602] == (1, 301)
    finally:
        sys.setrecursionlimit(limit)


def test_gf_Z_takes_one_root_at_order_minus_2_lam_plus_2(root_orders) -> None:
    assert gf_Z(1200, 1205) == polynomial([], 1205)
    assert gf_Z(5, 9) == polynomial([], 9)
    assert gf_Z(10, 9) == polynomial([], 9)  # lam past the order: no diagonal is asked for
    assert root_orders == []
    z = gf_Z(5, 30)
    assert root_orders == [22]
    assert z.order == 30
    assert z.coeffs[:10] == (0,) * 10
    assert z.coeffs[10:13] == (1, 6, 28)  # z(5, 5), z(6, 5), z(7, 5)


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


def test_b_substitution_catches_a_wrong_nu_coefficient_at_every_accepted_b(monkeypatch) -> None:
    nu = functools.cache(series.gf_nu)  # each root once for both passes

    def wrong(order: int) -> PowerSeries:
        coeffs = list(nu(order).coeffs)
        coeffs[5] += 1000
        return PowerSeries(tuple(coeffs))

    # 1/100 and 4/5 bracket the domain; the old order-160 tail bound let 9/10 and 99/100 pass
    accepted = [Fraction(1, 100), Fraction(1, 5), Fraction(1, 3), Fraction(1, 2), Fraction(3, 4)]
    accepted.append(Fraction(4, 5))  # order 1435, next to the budget of 1500
    monkeypatch.setattr(series, "gf_nu", nu)
    for b in accepted:
        b_substitution_check(b)
    monkeypatch.setattr(series, "gf_nu", wrong)
    for b in accepted:
        with pytest.raises(ExactnessError):
            b_substitution_check(b)


def test_b_substitution_past_its_order_budget_raises_before_any_series(root_orders) -> None:
    for b in (Fraction(5, 6), Fraction(9, 10), Fraction(99, 100), Fraction(10**30 - 1, 10**30)):
        with pytest.raises(ValueError, match="past order 1500"):
            b_substitution_check(b)
    assert root_orders == []
    b_substitution_check(Fraction(1, 2))
    b_substitution_check(Fraction(1, 3))
    assert root_orders == [139, 56]


def test_str_rendering() -> None:
    assert str(polynomial([1, 1, 3], 3)) == "1 + x + 3*x^2 + O(x^4)"
    assert str(polynomial([0, -1], 2)) == "-x + O(x^3)"
    assert str(polynomial([-3, 0, 2], 2)) == "-3 + 2*x^2 + O(x^3)"
    assert str(polynomial([0], 2)) == "0 + O(x^3)"


def test_a_series_is_an_immutable_value() -> None:
    with pytest.raises(ValueError):
        PowerSeries(())
    a = polynomial([1, 2], 3)
    with pytest.raises(AttributeError, match="immutable; cannot set 'coeffs'"):
        a.coeffs = (0, 0, 0, 0)
    with pytest.raises(AttributeError, match="immutable; cannot delete 'coeffs'"):
        del a.coeffs
    assert a.coeffs == (1, 2, 0, 0)
    assert a != (1, 2, 0, 0) and not a == (1, 2, 0, 0)
    assert a == PowerSeries((1, 2, 0, 0)) and hash(a) == hash(PowerSeries((1, 2, 0, 0)))
    coeffs = [1, 2, 0, 0]
    b = PowerSeries(coeffs)
    coeffs[1] = 5
    assert b == a and hash(b) == hash(a) and b.coeffs == (1, 2, 0, 0)
    assert len({a, polynomial([1, 2], 3), polynomial([1, 2], 4)}) == 2
    assert repr(a) == "PowerSeries(coeffs=(1, 2, 0, 0))"
    assert eval(repr(a), {"PowerSeries": PowerSeries}) == a


def test_constructor_rejects_non_integers() -> None:
    for bad in (Fraction(1, 2), Fraction(2), 1.0):
        with pytest.raises(TypeError):
            polynomial([1, bad], 2)
        with pytest.raises(TypeError):
            PowerSeries((1, bad))

