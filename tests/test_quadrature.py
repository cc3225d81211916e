from __future__ import annotations

import math
import sys
from fractions import Fraction

import pytest

from identities import cos_power_expansion
from trinomial import cli, quadrature, triangle
from trinomial.binomial import char
from trinomial.quadrature import (
    MAX_PANELS,
    MIN_TOL,
    QuadratureError,
    QuadratureResult,
    b_identity_check,
    b_reduction_chain_check,
    fourier_decomposition_check,
    gf_by_integral,
    integrate_0_pi,
    z_by_integral,
)
from trinomial.triangle import build_triangle

EPS = sys.float_info.epsilon


def test_constant_integrates_to_pi() -> None:
    for panels in (1, 2, 7):
        result = integrate_0_pi(lambda phi: 1.0, panels)
        assert abs(result.value - math.pi) < 1e-12
        assert result.panels == panels


def test_pure_cosines_integrate_to_zero() -> None:
    # exact below the aliasing frequency 2N; at 2N the rule reads pi
    for panels in (1, 3, 8):
        for m in range(1, 2 * panels):
            result = integrate_0_pi(lambda phi, m=m: math.cos(m * phi), panels)
            assert abs(result.value) < 1e-12, (panels, m)
        aliased = integrate_0_pi(lambda phi: math.cos(2 * panels * phi), panels)
        assert abs(aliased.value - math.pi) < 1e-12, panels


def test_cosine_squared() -> None:
    # cos^2(2 phi) = (1 + cos 4 phi) / 2 is exact from 3 panels on
    result = integrate_0_pi(lambda phi: math.cos(2 * phi) ** 2, 3)
    assert abs(result.value - math.pi / 2) < 1e-12


def test_tolerance_floor(capsys) -> None:
    for check in (
        lambda: gf_by_integral(0.25, tol=1e-14),
        lambda: b_identity_check(0.5, 1, tol=1e-14),
        lambda: b_reduction_chain_check(0.5, 2, tol=1e-14),
    ):
        with pytest.raises(ValueError):
            check()
    assert cli.main(["quad", "--kind", "gf", "--x", "1/4", "--tol", "1e-14"]) == 2
    assert cli.main(["identity", "--b", "1/2", "--tol", "1e-14"]) == 2


def test_budget_exhaustion_raises() -> None:
    def never(phi: float) -> float:
        raise AssertionError("integrand evaluated")

    with pytest.raises(QuadratureError):
        integrate_0_pi(never, MAX_PANELS + 1)
    with pytest.raises(ValueError):
        integrate_0_pi(never, 0)


def test_panel_accounting() -> None:
    # the z integrand is a cosine polynomial of degree n + lam, so this
    # many panels leave only roundoff on the scale 3^n
    tri = build_triangle(30)
    for n in range(31):
        for lam in range(n + 1):
            result = z_by_integral(n, lam)
            assert result.panels == (n + lam) // 2 + 1, (n, lam)
            assert result.abs_error_estimate == 0.0
            assert abs(result.value - tri.coeff(n, n + lam)) <= 64 * EPS * 3.0**n, (n, lam)


def test_z_by_integral_matches_exact_small() -> None:
    tri = build_triangle(10)
    for n in range(11):
        for lam in range(n + 1):
            exact = tri.coeff(n, n + lam)
            got = z_by_integral(n, lam).value
            assert abs(got - exact) <= 1e-9 * exact, (n, lam)


def test_z_by_integral_domain() -> None:
    with pytest.raises(ValueError):
        z_by_integral(5, 6)
    with pytest.raises(ValueError):
        z_by_integral(31, 0)
    with pytest.raises(ValueError):
        z_by_integral(4, -1)


def test_gf_by_integral_quarter() -> None:
    result = gf_by_integral(0.25, tol=1e-10)
    assert abs(result.value - 4.0 / math.sqrt(5.0)) < 1e-10


def test_gf_by_integral_sample_points() -> None:
    # the last doubles inside the domain included
    edges = (
        math.nextafter(-1.0, 0.0), -1.0 + 1e-12, -1.0 + 1e-9, -1.0 + 1e-6,
        1.0 / 3.0 - 1e-6, 1.0 / 3.0 - 1e-9, math.nextafter(1.0 / 3.0, 0.0),
    )
    for x in (*edges, -0.9, -0.5, 0.0, 0.1, 0.25, 0.3):
        # exact arithmetic: in floats, 1 - 2x - 3x^2 loses digits at the edges
        closed = 1.0 / math.sqrt(float((1 + Fraction(x)) * (1 - 3 * Fraction(x))))
        result = gf_by_integral(x, tol=1e-10)
        assert abs(result.value - closed) <= 1e-10 * max(1.0, closed), x
        assert result.abs_error_estimate <= 2.5e-11 * closed, x


def test_gf_by_integral_at_min_tol_next_to_minus_one() -> None:
    # the kernel peaks at phi = pi here; node rounding there once failed tol 1e-13
    for x in (-1.0 + 1e-13, math.nextafter(-1.0, 0.0)):
        closed = 1.0 / math.sqrt(float((1 + Fraction(x)) * (1 - 3 * Fraction(x))))
        result = gf_by_integral(x, tol=MIN_TOL)
        assert abs(result.value - closed) <= MIN_TOL * closed, x


@pytest.mark.parametrize("tol", [math.nan, math.inf, -math.inf, 0.0, MIN_TOL / 2])
def test_a_tolerance_outside_min_tol_to_infinity_raises_value_error(tol) -> None:
    with pytest.raises(ValueError, match="tol must be finite and at least"):
        gf_by_integral(0.25, tol=tol)
    with pytest.raises(ValueError, match="tol must be finite and at least"):
        b_identity_check(0.5, 2, tol=tol)


def test_a_tolerance_up_to_the_largest_double_passes() -> None:
    # tol scale passes the largest double here, so the panel count is found in logs
    for tol in (1e306, 1e307, sys.float_info.max):
        assert b_identity_check(0.999, 2, tol=tol)
        assert b_reduction_chain_check(0.999, 2, tol=tol)
        assert gf_by_integral(0.25, tol=tol).panels == 1
    assert b_identity_check(0.999, 400, tol=1e307)  # an error bound past it reads inf


def test_mapped_integral_swaps_its_peak_with_sign_minus_one_to_the_lam() -> None:
    # phi -> pi - phi swaps lo and hi and multiplies cos(3 phi) by -1
    tol = 1e-12
    for lo, hi in ((4.0, 0.5), (1e-10, 4.0), (1.0, 1.0 + 1e-9)):
        swapped = quadrature._mapped_integral(hi, lo, 3, tol, 1.0).value
        direct = quadrature._mapped_integral(lo, hi, 3, tol, 1.0).value
        assert abs(swapped + direct) <= tol, (lo, hi)


@pytest.fixture
def panel_calls(monkeypatch) -> list[tuple[int, list[float]]]:
    """(panels, angles evaluated) for each call of integrate_0_pi."""
    calls = []
    real = quadrature.integrate_0_pi

    def spy(f, panels: int) -> QuadratureResult:
        evaluated: list[float] = []
        calls.append((panels, evaluated))
        return real(lambda phi: evaluated.append(phi) or f(phi), panels)

    monkeypatch.setattr(quadrature, "integrate_0_pi", spy)
    return calls


def test_b_identity_past_the_panel_budget_raises_before_evaluating(panel_calls) -> None:
    with pytest.raises(QuadratureError):
        b_identity_check(1.0 - 1e-12, 0)
    assert [evaluated for _, evaluated in panel_calls] == [[]]


def test_each_check_integrates_once_on_a_fixed_panel_count(panel_calls) -> None:
    for check in (
        lambda: z_by_integral(12, 3),
        lambda: gf_by_integral(math.nextafter(-1.0, 0.0)),
        lambda: gf_by_integral(0.3),
        lambda: b_identity_check(1e-300, 3),
        lambda: b_identity_check(0.999, 8),
    ):
        panel_calls.clear()
        assert check()
        [(panels, evaluated)] = panel_calls
        assert len(evaluated) == panels + 1
    assert panels <= 1000  # b = 0.999 took 15078 panels before the disk map


def test_gf_by_integral_domain() -> None:
    for bad in (-1.0, 1.0 / 3.0, 0.5, -2.0):
        with pytest.raises(ValueError):
            gf_by_integral(bad)


def test_b_identity_spot_checks() -> None:
    for lam in range(5):
        assert b_identity_check(0.5, lam)
    assert b_identity_check(0.9, 8)
    assert b_identity_check(0.9999, 0)


def test_b_identity_domain() -> None:
    with pytest.raises(ValueError):
        b_identity_check(0.0, 1)
    with pytest.raises(ValueError):
        b_identity_check(1.0, 1)
    with pytest.raises(ValueError):
        b_identity_check(0.5, -1)


def test_b_reduction_chain() -> None:
    assert b_reduction_chain_check(0.3, 6)
    assert b_reduction_chain_check(0.5, 8)
    assert b_reduction_chain_check(0.9999, 8)
    with pytest.raises(ValueError):
        b_reduction_chain_check(0.3, 0)
    for b in (0.0, 1.0, -0.5):
        with pytest.raises(ValueError):
            b_reduction_chain_check(b, 2)


@pytest.mark.parametrize("lam", [0, 1, 3])
def test_b_reduction_chain_fails_on_one_perturbed_integral(monkeypatch, lam: int) -> None:
    # I(0) fails its closed form, I(1) the anchor (1 + b^2) I(0) - 2b I(1) = pi, and a
    # middle I(lam) the three-term step into it
    poisson = quadrature._poisson_integral

    def perturbed(b: float, k: int, tol: float, scale: float) -> QuadratureResult:
        result = poisson(b, k, tol, scale)
        return result._replace(value=result.value + (1e-6 if k == lam else 0.0))

    monkeypatch.setattr(quadrature, "_poisson_integral", perturbed)
    assert not b_reduction_chain_check(0.5, 5)


def test_gf_by_integral_raises_when_it_misses_the_closed_form(monkeypatch) -> None:
    mapped = quadrature._mapped_integral

    def off(*args: float) -> QuadratureResult:
        result = mapped(*args)
        return result._replace(value=result.value * (1 + 1e-6))

    monkeypatch.setattr(quadrature, "_mapped_integral", off)
    with pytest.raises(QuadratureError, match="vs closed form"):
        gf_by_integral(0.25)


def test_cos_power_expansion_small_cases() -> None:
    assert cos_power_expansion(0) == [1]
    assert cos_power_expansion(1) == [2]
    assert cos_power_expansion(2) == [2, 2]
    assert cos_power_expansion(3) == [2, 6]
    assert cos_power_expansion(4) == [2, 8, 6]
    assert cos_power_expansion(5) == [2, 10, 20]
    with pytest.raises(ValueError):
        cos_power_expansion(-1)


def test_cos_power_expansion_weights_sum_to_power_of_two() -> None:
    for alpha in range(21):
        assert sum(cos_power_expansion(alpha)) == 2**alpha


def test_cos_power_expansion_pointwise() -> None:
    # 2^a cos^a phi == sum of the weighted cosines, at angles with nothing
    # special about them
    for alpha in range(9):
        weights = cos_power_expansion(alpha)
        for phi in (0.3, 1.1, 2.9):
            lhs = (2.0 * math.cos(phi)) ** alpha
            rhs = sum(
                w * math.cos((alpha - 2 * j) * phi) for j, w in enumerate(weights)
            )
            assert abs(lhs - rhs) < 1e-12, (alpha, phi)


def test_exact_fourier_reconstruction() -> None:
    """Expanding (1 + 2 cos phi)^n through the binomial theorem and the
    cosine power reduction must reproduce the diagonal coefficients exactly:
    the cos(0) weight is p(n) and the cos(lam phi) weight is 2 z(n, lam).
    Pure integer arithmetic on both sides."""
    tri = build_triangle(18)
    for n in range(19):
        collected = [0] * (n + 1)
        for alpha in range(n + 1):
            c = char(n, alpha)
            for j, w in enumerate(cos_power_expansion(alpha)):
                collected[alpha - 2 * j] += c * w
        assert collected[0] == tri.coeff(n, n)
        for lam in range(1, n + 1):
            assert collected[lam] == 2 * tri.coeff(n, n + lam), (n, lam)


def test_fourier_decomposition_check_range() -> None:
    for n in range(21):
        assert fourier_decomposition_check(n)


def test_fourier_decomposition_check_catches_a_wrong_coefficient(monkeypatch) -> None:
    real = triangle.row
    for n in (12, 20):

        def raised(m: int, n: int = n) -> tuple[int, ...]:
            row = list(real(m))
            row[n + n // 2] += 1
            return tuple(row)

        monkeypatch.setattr(triangle, "row", raised)
        assert not fourier_decomposition_check(n), n


def test_fourier_decomposition_domain() -> None:
    with pytest.raises(ValueError):
        fourier_decomposition_check(21)
    for bad in (None, "3"):  # the index rule's error, not a bare comparison TypeError
        with pytest.raises(TypeError, match=f"^n must be an int, got {bad!r}$"):
            fourier_decomposition_check(bad)  # type: ignore[arg-type]
