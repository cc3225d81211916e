from __future__ import annotations

import math

import pytest

from trinomial import differences
from trinomial.differences import (
    delta_expansion_coefficients,
    stepwise_chain,
    z_delta_diagonals,
)
from trinomial.exact import ExactnessError
from trinomial.recurrences import central_sequence
from trinomial.series import polynomial
from trinomial.triangle import build_triangle

# signed coefficient rows of 2 z(n, lam) in terms of Delta^(lam-2j) p(n)
KNOWN_COEFFS = {
    1: [1],
    2: [1, -2],
    3: [1, -3],
    4: [1, -4, 2],
    5: [1, -5, 5],
    6: [1, -6, 9, -2],
}


def test_difference_table_basics() -> None:
    # p(0..6) = 1, 1, 3, 7, 19, 51, 141 and its orders 1..3 from n = 0:
    # 0, 2, 4, 12, 32, 90 / 2, 2, 8, 20, 58 / 0, 6, 12, 38
    assert z_delta_diagonals(range(5), 3) == [
        [1, 1, 3, 7],
        [0, 1, 2, 6],
        [0, 0, 1, 3],
        [0, 0, 0, 1],
        [0, 0, 0, 0],
    ]


def test_difference_table_errors() -> None:
    with pytest.raises(ValueError):
        z_delta_diagonals(range(-1, 2), 3)
    with pytest.raises(ValueError):
        z_delta_diagonals(range(2), -1)
    with pytest.raises(ValueError):
        z_delta_diagonals(range(0), -1)
    assert z_delta_diagonals(range(0), 5) == []
    assert z_delta_diagonals(range(4, 4), 0) == []


def test_delta_expansion_coefficients_known() -> None:
    for lam, expected in KNOWN_COEFFS.items():
        assert delta_expansion_coefficients(lam) == expected
    with pytest.raises(ValueError):
        delta_expansion_coefficients(0)


def test_delta_expansion_coefficients_match_the_closed_form() -> None:
    for lam in range(1, 401):
        expected = [1] + [
            (-1) ** j * lam * math.comb(lam - j - 1, j - 1) // j for j in range(1, lam // 2 + 1)
        ]
        assert delta_expansion_coefficients(lam) == expected, lam


def test_delta_expansion_matches_surd_binomial_expansion() -> None:
    """The same signed coefficients arise from expanding
    ((x + w)^lam + (x - w)^lam) / 2^lam with w^2 = x^2 - 4: odd powers of w
    cancel and the result is sum_j c_j x^(lam - 2j) with the tested signs.
    All arithmetic here is exact polynomial arithmetic."""
    for lam in range(1, 13):
        order = max(lam, 2)
        acc = polynomial([0], order)
        w2 = polynomial([-4, 0, 1], order)  # x^2 - 4
        w2_power = polynomial([1], order)  # w2^(j // 2)
        for j in range(0, lam + 1, 2):
            term = polynomial([0] * (lam - j) + [2 * math.comb(lam, j)], order)
            acc = acc - term * w2_power
            w2_power = w2_power * w2
        acc = acc / -(2**lam)
        coeffs = delta_expansion_coefficients(lam)
        expected = [0] * (order + 1)
        for j, c in enumerate(coeffs):
            expected[lam - 2 * j] += c
        assert acc.coeffs == tuple(expected), lam


def test_z_from_differences_disambiguation() -> None:
    # the lam=3 diagonal: zero while the difference order is too short, first 1 at n=3
    tri = build_triangle(6)
    [values] = z_delta_diagonals(range(3, 4), 3)
    assert values[2] == 0 == tri.coeff(2, 5)
    assert values[3] == 1 == tri.coeff(3, 6)


def test_z_from_differences_matches_oracle() -> None:
    tri = build_triangle(40)
    expected = [[tri.coeff(n, n + lam) for n in range(41)] for lam in range(13)]
    assert z_delta_diagonals(range(13), 40) == expected
    for lam in range(13):
        assert z_delta_diagonals(range(lam, lam + 1), 40) == [expected[lam]], lam
    # past the diagonal every value is zero, alone or after live diagonals
    assert z_delta_diagonals(range(41, 45), 40) == [[0] * 41] * 4
    assert z_delta_diagonals(range(39, 43), 40)[2:] == [[0] * 41] * 2


def test_whole_ranges_to_max_n_60_match_oracle() -> None:
    # each whole range, so every order feeds every diagonal of its parity at once
    tri = build_triangle(60)
    for max_n in range(61):
        expected = [[tri.coeff(n, n + lam) for n in range(max_n + 1)] for lam in range(max_n + 3)]
        assert z_delta_diagonals(range(max_n + 3), max_n) == expected, max_n


def test_delta_expansion_is_zero_below_each_diagonal() -> None:
    # the route adds into n >= lam only; the full expansion at every n of 0..40 is
    # 2 z(n, lam), so 0 below the diagonal
    p = central_sequence(80)
    orders = [list(p)]
    for _ in range(40):
        orders.append([b - a for a, b in zip(orders[-1], orders[-1][1:])])
    tri = build_triangle(40)
    for lam in range(1, 41):
        coeffs = delta_expansion_coefficients(lam)
        full = [sum(c * orders[lam - 2 * j][n] for j, c in enumerate(coeffs)) for n in range(41)]
        assert full[:lam] == [0] * lam, lam
        assert full == [2 * tri.coeff(n, n + lam) for n in range(41)], lam


@pytest.mark.parametrize("lams,subtractions", [(range(30, 31), 765), (range(31), 1665)])
def test_differences_start_at_the_lowest_live_diagonal(monkeypatch, lams, subtractions) -> None:
    # order k over n = lo..max_n + top - k: lengths 41..11 for lam = 30 at max_n = 40;
    # a range from lam 0 differences the whole column, 71..41
    count = 0

    def counting(a: int, b: int) -> int:
        nonlocal count
        count += 1
        return a - b

    monkeypatch.setattr(differences, "sub", counting)
    tri = build_triangle(40)
    expected = [[tri.coeff(n, n + lam) for n in range(41)] for lam in lams]
    assert z_delta_diagonals(lams, 40) == expected
    assert count == subtractions


def test_z_from_differences_errors(monkeypatch) -> None:
    # a base that is not the central column breaks the parity guarantee
    # at an n >= lam: the route computes no n below the diagonal
    monkeypatch.setattr(differences, "central_sequence", lambda max_n: (1, 2, 4, 8, 17)[: max_n + 1])
    with pytest.raises(ExactnessError, match="lam=2, n=2"):
        z_delta_diagonals(range(2, 3), 2)


def test_stepwise_chain_golden() -> None:
    p = central_sequence(12)
    assert stepwise_chain(p, 3, 6) == [
        (0, 1, 2, 6, 16, 45, 126),
        (0, 0, 1, 3, 10, 30, 90),
        (0, 0, 0, 1, 4, 15, 50),
    ]


def test_stepwise_chain_matches_oracle() -> None:
    p = central_sequence(52)
    tri = build_triangle(40)
    for lam, seq in enumerate(stepwise_chain(p, 12, 40), start=1):
        for n in range(41):
            assert seq[n] == tri.coeff(n, n + lam), (lam, n)


def test_stepwise_chain_reads_only_p_up_to_max_n_plus_max_lambda() -> None:
    p = list(central_sequence(13))  # p(0..10 + 3)
    junk = [p[-1] + 1, 0]  # its first difference past p(13) is odd
    assert stepwise_chain(p + junk, 3, 10) == stepwise_chain(p, 3, 10)


def test_stepwise_chain_errors() -> None:
    p = central_sequence(5)
    with pytest.raises(ValueError):
        stepwise_chain(p, 3, 4)  # needs p(0..7)
    with pytest.raises(ValueError):
        stepwise_chain(p, 0, 3)
    with pytest.raises(ValueError):
        stepwise_chain(p, 1, -1)
    with pytest.raises(ExactnessError):
        stepwise_chain([1, 2, 3, 4], 1, 2)
