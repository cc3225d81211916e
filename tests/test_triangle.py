from __future__ import annotations

from itertools import count

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from trinomial import triangle
from trinomial.exact import ExactnessError, div_exact
from trinomial.recurrences import general_sequence
from trinomial.triangle import TrinomialTriangle, build_triangle, leading_term_check, row, z_oracle_diagonals

FIRST_ROWS = [
    (1,),
    (1, 1, 1),
    (1, 2, 3, 2, 1),
    (1, 3, 6, 7, 6, 3, 1),
    (1, 4, 10, 16, 19, 16, 10, 4, 1),
    (1, 5, 15, 30, 45, 51, 45, 30, 15, 5, 1),
]


def test_first_rows() -> None:
    tri = build_triangle(5)
    for n, expected in enumerate(FIRST_ROWS):
        assert tri.row(n) == expected


def test_rows_are_palindromic() -> None:
    tri = build_triangle(64)
    for n in range(65):
        row = tri.row(n)
        assert row == row[::-1]


def test_row_sums_are_powers_of_three() -> None:
    tri = build_triangle(64)
    for n in range(65):
        assert sum(tri.row(n)) == 3**n


@settings(max_examples=25, deadline=None)
@given(n=st.integers(0, 120))
def test_random_rows_are_palindromes_summing_to_3_to_the_n(n: int) -> None:
    row = build_triangle(n).row(n)
    assert row == row[::-1]
    assert sum(row) == 3**n


def test_row_has_2n_plus_1_entries() -> None:
    tri = build_triangle(30)
    for n in range(31):
        assert len(tri.row(n)) == 2 * n + 1


def test_coeff_out_of_range_is_zero() -> None:
    tri = build_triangle(4)
    assert tri.coeff(3, -1) == 0
    assert tri.coeff(3, 7) == 0
    assert tri.coeff(3, 6) == 1


def test_row_beyond_built_raises() -> None:
    tri = build_triangle(4)
    with pytest.raises(IndexError):
        tri.row(5)
    with pytest.raises(IndexError):
        tri.coeff(5, 0)
    with pytest.raises(IndexError):
        tri.row(-1)


def test_build_triangle_rejects_negative() -> None:
    with pytest.raises(ValueError):
        build_triangle(-1)


def test_center_matches_recurrence_to_200() -> None:
    tri = build_triangle(200)
    p = general_sequence(0, 200)
    for n in range(201):
        assert tri.coeff(n, n) == p[n]


def test_leading_terms_to_64() -> None:
    tri = build_triangle(64)
    for n in range(65):
        assert leading_term_check(tri, n)


@pytest.mark.parametrize("k", [1, 3, 5])
def test_leading_terms_catch_one_altered_entry(k: int) -> None:
    rows = list(build_triangle(9).rows)
    rows[9] = rows[9][:k] + (rows[9][k] + 1,) + rows[9][k + 1 :]
    altered = TrinomialTriangle(tuple(rows))
    assert leading_term_check(altered, 8)
    assert not leading_term_check(altered, 9)


def test_row_alone_matches_the_triangle_to_60() -> None:
    tri = build_triangle(60)
    for n in range(61):
        assert row(n) == tri.row(n)


def test_row_builds_no_other_row(monkeypatch) -> None:
    calls = []
    rows = triangle._rows
    monkeypatch.setattr(triangle, "_rows", lambda max_n: calls.append(max_n) or rows(max_n))
    build_triangle(3)
    assert calls == [3]  # the count sees the oracle's rows
    for n in range(41):
        row(n)
    assert calls == [3]


def _one_step_too_large(step: int):
    """div_exact, except that call number `step` returns its quotient plus 1."""
    calls = count()

    def altered(a: int, b: int) -> int:
        return div_exact(a, b) + (next(calls) == step)

    return altered


def test_row_raises_whichever_step_is_one_too_large(monkeypatch) -> None:
    # a later division catches most steps; the last one, the centre, only the
    # 3^n certificate sees
    for n in range(1, 41):
        monkeypatch.setattr(triangle, "div_exact", _one_step_too_large(n))
        assert row(n) == build_triangle(n).row(n)  # the n steps themselves pass
        for step in range(n):
            monkeypatch.setattr(triangle, "div_exact", _one_step_too_large(step))
            with pytest.raises(ExactnessError, match="does not sum" if step == n - 1 else None):
                row(n)


@pytest.mark.parametrize("lams", [range(-1, 1), range(0, 5, 2), range(4, 0, -1)])
def test_oracle_route_refuses_a_negative_start_or_a_step_other_than_1(lams: range) -> None:
    # sliced at n + lo..n + hi, such a range would read other diagonals
    with pytest.raises(ValueError, match="need range"):
        z_oracle_diagonals(lams, 4)
