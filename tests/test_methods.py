from __future__ import annotations

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from trinomial import binomial, methods
from trinomial.methods import (
    METHOD_NAMES,
    central_values,
    clear_caches,
    diagonal_values,
    first_mismatch,
)
from trinomial.triangle import build_triangle


def _z_comb(n: int, lam: int) -> int:
    # pick j factors x^2 and n + lam - 2j factors x out of the n factors
    return sum(
        math.comb(n, j) * math.comb(n - j, n + lam - 2 * j)
        for j in range(min(n, (n + lam) // 2) + 1)
    )


def test_registry_lists_all_routes() -> None:
    assert METHOD_NAMES == (
        "oracle", "sum1", "sum2", "sum3", "ratio", "recurrence", "delta", "series",
    )


@pytest.mark.parametrize("method", METHOD_NAMES)
def test_every_method_matches_oracle(method: str) -> None:
    tri = build_triangle(24)
    for lam in range(25):
        values = diagonal_values(method, lam, 24)
        for n in range(25):
            assert values[n] == tri.coeff(n, n + lam), (method, lam, n)


def test_central_values_shortcut() -> None:
    for method in METHOD_NAMES:
        assert central_values(method, 8) == diagonal_values(method, 0, 8)


def test_unknown_method_rejected() -> None:
    with pytest.raises(ValueError):
        diagonal_values("guesswork", 0, 4)
    with pytest.raises(ValueError):
        first_mismatch(4, ["guesswork"])


def test_bad_arguments_rejected() -> None:
    with pytest.raises(ValueError):
        diagonal_values("oracle", -1, 4)
    with pytest.raises(ValueError):
        diagonal_values("oracle", 0, -1)


def test_first_mismatch_clean() -> None:
    assert first_mismatch(12) is None


def test_first_mismatch_subset() -> None:
    assert first_mismatch(10, ["ratio", "delta"]) is None


def test_clear_caches_is_idempotent() -> None:
    central_values("series", 6)
    clear_caches()
    clear_caches()
    assert central_values("series", 6) == [1, 1, 3, 7, 19, 51, 141]


def test_clear_caches_clears_binomials() -> None:
    central_values("sum1", 20)
    assert binomial._char_in_range.cache_info().currsize > 0
    clear_caches()
    assert binomial._char_in_range.cache_info().currsize == 0


@pytest.mark.parametrize("method", METHOD_NAMES)
@settings(max_examples=25, deadline=None)
@given(data=st.data())
def test_one_pass_rows_match_single_diagonals(method: str, data: st.DataObject) -> None:
    max_n = data.draw(st.integers(0, 30), label="max_n")
    a = data.draw(st.integers(0, max_n + 2), label="a")
    b = data.draw(st.integers(a + 1, max_n + 3), label="b")
    rows = methods._METHODS[method](range(a, b), max_n)
    assert len(rows) == b - a
    for lam, row in zip(range(a, b), rows):
        assert row == diagonal_values(method, lam, max_n), (lam, max_n)
        assert row == [_z_comb(n, lam) for n in range(max_n + 1)], (lam, max_n)


def test_first_mismatch_runs_each_route_once(monkeypatch) -> None:
    calls: dict[str, list[range]] = {}

    def counting(name, route):
        def wrapped(lams, max_n):
            calls.setdefault(name, []).append(lams)
            return route(lams, max_n)

        return wrapped

    for name, route in list(methods._METHODS.items()):
        monkeypatch.setitem(methods._METHODS, name, counting(name, route))
    assert first_mismatch(9, ["series", "delta", "series", "sum2"]) is None
    assert calls == {name: [range(10)] for name in ("series", "delta", "sum2")}


def _corrupt(monkeypatch, name: str, lam: int, n: int) -> None:
    route = methods._METHODS[name]

    def wrong(lams, max_n):
        rows = route(lams, max_n)
        rows[lams.index(lam)][n] += 1
        return rows

    monkeypatch.setitem(methods._METHODS, name, wrong)


@pytest.mark.parametrize("method", [m for m in METHOD_NAMES if m != "oracle"])
def test_first_mismatch_reports_the_corrupted_value(monkeypatch, method: str) -> None:
    _corrupt(monkeypatch, method, 5, 9)
    expected = build_triangle(12).coeff(9, 14)
    assert first_mismatch(12) == (method, 5, 9, expected + 1, expected)


def test_first_mismatch_scans_lam_major_in_method_order(monkeypatch) -> None:
    _corrupt(monkeypatch, "sum3", 4, 10)
    _corrupt(monkeypatch, "delta", 4, 6)
    _corrupt(monkeypatch, "ratio", 7, 8)
    order = ["ratio", "sum3", "delta"]
    assert first_mismatch(12, order)[:3] == ("sum3", 4, 10)
    assert first_mismatch(12, order[::-1])[:3] == ("delta", 4, 6)
    assert first_mismatch(12, ["ratio"])[:3] == ("ratio", 7, 8)
