from __future__ import annotations

from fractions import Fraction

import pytest

from trinomial.recurrences import central_sequence, general_sequence
from trinomial.triangle import build_triangle

P_KNOWN = (1, 1, 3, 7, 19, 51, 141, 393, 1107, 3139, 8953, 25653, 73789)


def test_central_golden() -> None:
    assert central_sequence(12) == P_KNOWN


def test_central_worked_steps() -> None:
    # two spot checks of the step p(m) = p(m-1) + (n+1)/(n+2) (p(m-1) + 3 p(m-2))
    assert 51 == 19 + Fraction(4, 5) * (19 + 3 * 7)
    assert 73789 == 25653 + Fraction(11, 12) * (25653 + 3 * 8953)


def test_central_short_sequences() -> None:
    assert central_sequence(0) == (1,)
    assert central_sequence(1) == (1, 1)
    with pytest.raises(ValueError):
        central_sequence(-1)


def test_general_lambda_one_golden() -> None:
    # pins the (2n+3) factor: with (2n-3) instead, the n=2 step gives
    # (4/15)(1*6 + 9*2) = 32/5, which is not even an integer
    assert general_sequence(1, 6) == (0, 1, 2, 6, 16, 45, 126)


def test_general_lambda_two_golden() -> None:
    assert general_sequence(2, 5) == (0, 0, 1, 3, 10, 30)


def test_general_reduces_to_central_at_lambda_zero() -> None:
    assert general_sequence(0, 40) == central_sequence(40)


def test_general_seeds() -> None:
    for lam in range(10):
        seq = general_sequence(lam, lam + 1)
        assert seq[:lam] == (0,) * lam
        assert seq[lam] == 1
        assert seq[lam + 1] == lam + 1


def test_general_matches_oracle() -> None:
    tri = build_triangle(100)
    for lam in range(11):
        seq = general_sequence(lam, 100)
        for n in range(101):
            assert seq[n] == tri.coeff(n, n + lam), (lam, n)


def test_general_truncation_below_seeds() -> None:
    assert general_sequence(3, 1) == (0, 0)
    assert general_sequence(3, 3) == (0, 0, 0, 1)


def test_general_rejects_bad_arguments() -> None:
    with pytest.raises(ValueError):
        general_sequence(-1, 5)
    with pytest.raises(ValueError):
        general_sequence(0, -1)


def test_growth_sanity() -> None:
    p = central_sequence(201)
    for n in range(5, 201):
        assert 2 * p[n] < p[n + 1] < 3 * p[n]
