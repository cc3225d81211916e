from __future__ import annotations

import pytest

from trinomial.differences import (
    build_difference_table,
    delta_expansion_coefficients,
    stepwise_chain,
    z_from_differences,
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
    table = build_difference_table([1, 1, 3, 7, 19, 51], 3)
    assert table.base == (1, 1, 3, 7, 19, 51)
    assert table.rows[1] == (0, 2, 4, 12, 32)
    assert table.rows[2] == (2, 2, 8, 20)
    assert table.rows[3] == (0, 6, 12)
    assert table.delta(2, 1) == 2
    assert table.max_order == 3


def test_difference_table_errors() -> None:
    with pytest.raises(ValueError):
        build_difference_table([1, 2], 2)
    with pytest.raises(ValueError):
        build_difference_table([1, 2, 3], -1)
    table = build_difference_table([1, 2, 4, 8], 2)
    with pytest.raises(IndexError):
        table.delta(3, 0)
    with pytest.raises(IndexError):
        table.delta(1, 3)


def test_delta_expansion_coefficients_known() -> None:
    for lam, expected in KNOWN_COEFFS.items():
        assert delta_expansion_coefficients(lam) == expected
    with pytest.raises(ValueError):
        delta_expansion_coefficients(0)


def test_delta_expansion_matches_surd_binomial_expansion() -> None:
    """The same signed coefficients arise from expanding
    ((x + w)^lam + (x - w)^lam) / 2^lam with w^2 = x^2 - 4: odd powers of w
    cancel and the result is sum_j c_j x^(lam - 2j) with the tested signs.
    All arithmetic here is exact polynomial arithmetic."""
    import math

    for lam in range(1, 13):
        order = max(lam, 2)
        acc = polynomial([0], order)
        w2 = polynomial([-4, 0, 1], order)  # x^2 - 4
        for j in range(0, lam + 1, 2):
            term = polynomial([0] * (lam - j) + [2 * math.comb(lam, j)], order)
            acc = acc + term * (w2 ** (j // 2))
        acc = acc / 2**lam
        coeffs = delta_expansion_coefficients(lam)
        expected = polynomial([0], order)
        for j, c in enumerate(coeffs):
            expected = expected + polynomial([0] * (lam - 2 * j) + [c], order)
        assert acc == expected, lam


def test_z_from_differences_disambiguation() -> None:
    # the lam=3 diagonal: zero while the row is too short, first 1 at n=3
    table = build_difference_table(central_sequence(12).values, 3)
    tri = build_triangle(6)
    values = z_from_differences(table, 3, 3)
    assert values[2] == 0 == tri.coeff(2, 5)
    assert values[3] == 1 == tri.coeff(3, 6)


def test_z_from_differences_matches_oracle() -> None:
    p = central_sequence(60).values
    tri = build_triangle(40)
    for lam in range(1, 13):
        table = build_difference_table(p, lam)
        values = z_from_differences(table, lam, 40)
        for n in range(41):
            assert values[n] == tri.coeff(n, n + lam), (lam, n)


def test_z_from_differences_errors() -> None:
    table = build_difference_table(central_sequence(8).values, 4)
    with pytest.raises(ValueError):
        z_from_differences(table, 0, 1)
    with pytest.raises(ValueError):
        z_from_differences(table, 2, -1)
    with pytest.raises(IndexError):
        z_from_differences(table, 2, 8)  # Delta^2 row stops at index 6
    with pytest.raises(ExactnessError):
        # a base that is not the central column breaks the parity guarantee
        bad = build_difference_table([1, 2, 4, 8, 16], 2)
        z_from_differences(bad, 2, 0)


def test_stepwise_chain_golden() -> None:
    p = central_sequence(12).values
    chains = stepwise_chain(p, 3, 6)
    assert chains[0].values == (0, 1, 2, 6, 16, 45, 126)
    assert chains[1].values == (0, 0, 1, 3, 10, 30, 90)
    assert chains[2].values == (0, 0, 0, 1, 4, 15, 50)
    assert [c.lam for c in chains] == [1, 2, 3]
    assert all(c.method == "stepwise" for c in chains)


def test_stepwise_chain_matches_oracle() -> None:
    p = central_sequence(52).values
    tri = build_triangle(40)
    for seq in stepwise_chain(p, 12, 40):
        for n in range(41):
            assert seq.values[n] == tri.coeff(n, n + seq.lam), (seq.lam, n)


def test_stepwise_chain_errors() -> None:
    p = central_sequence(5).values
    with pytest.raises(ValueError):
        stepwise_chain(p, 3, 4)  # needs p(0..7)
    with pytest.raises(ValueError):
        stepwise_chain(p, 0, 3)
    with pytest.raises(ExactnessError):
        stepwise_chain([1, 2, 3, 4], 1, 2)
