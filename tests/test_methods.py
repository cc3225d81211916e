from __future__ import annotations

import math
import re
import sys
import tracemalloc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from trinomial import binomial, diagonal_sums, differences, methods, recurrences, series, triangle
from trinomial.methods import METHOD_NAMES, central_values, diagonal_values, first_mismatch
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
    with pytest.raises(ValueError, match="max_n must be >= 0"):
        first_mismatch(-1)


def test_first_mismatch_clean() -> None:
    assert first_mismatch(12) is None


def test_first_mismatch_subset() -> None:
    assert first_mismatch(10, ["ratio", "delta"]) is None


@pytest.mark.parametrize("method", METHOD_NAMES)
@settings(max_examples=25, deadline=None)
@given(data=st.data())
def test_one_pass_rows_match_single_diagonals(method: str, data: st.DataObject) -> None:
    max_n = data.draw(st.integers(0, 60), label="max_n")
    a = data.draw(st.integers(0, max_n + 2), label="a")
    b = data.draw(st.integers(a + 1, max_n + 3), label="b")
    rows = methods._METHODS[method](range(a, b), max_n)
    assert len(rows) == b - a
    for lam, row in zip(range(a, b), rows):
        assert row == diagonal_values(method, lam, max_n), (lam, max_n)
        assert row == [_z_comb(n, lam) for n in range(max_n + 1)], (lam, max_n)


@pytest.mark.parametrize("route", [triangle.z_oracle_diagonals, recurrences.z_recurrence_diagonals])
def test_module_routes_answer_every_range(route) -> None:
    tri = build_triangle(44)
    for max_n in (0, 1, 2, 7, 44):
        want = [[tri.coeff(n, n + lam) for n in range(max_n + 1)] for lam in range(max_n + 3)]
        for a in range(max_n + 3):
            for b in range(a + 1, max_n + 4):
                assert route(range(a, b), max_n) == want[a:b], (a, b, max_n)


def test_every_registered_route_is_a_public_module_function() -> None:
    for name, route in methods._METHODS.items():
        (cell,) = route.__closure__
        form = cell.cell_contents
        module = sys.modules[form.__module__]
        assert form.__name__ in module.__all__ and module is not methods, name


# what each route's body builds first: counted, none of them may run past max_n
_ROUTE_BUILDERS = (
    (triangle, "_rows"),
    (diagonal_sums, "_char_table"),
    (recurrences, "general_sequence"),
    (differences, "central_sequence"),
    (series, "_root_and_m"),
)


@pytest.mark.parametrize("method", METHOD_NAMES)
def test_every_route_keeps_the_one_contract(monkeypatch, method: str) -> None:
    route = methods._METHODS[method]
    for lams in (range(0, 5, 2), range(6, 0, -1), range(-1, 2), [0, 1]):
        with pytest.raises(ValueError, match=re.escape(f"need range(lo >= 0, hi) of step 1, got {lams!r}")):
            route(lams, 8)
    for lams in (range(2), range(0)):
        with pytest.raises(ValueError, match=re.escape("max_n must be >= 0, got -1")):
            route(lams, -1)
    with pytest.raises(TypeError, match=re.escape("max_n must be an int, got 2.0")):
        route(range(2), 2.0)
    built: list[str] = []
    for module, name in _ROUTE_BUILDERS:
        monkeypatch.setattr(module, name, lambda *args, _name=name: built.append(_name))
    for max_n in (0, 5):
        assert route(range(max_n + 1, max_n + 4), max_n) == [[0] * (max_n + 1)] * 3
        assert route(range(max_n + 4, max_n + 2), max_n) == []
    assert built == []


def test_a_max_n_that_is_no_int_is_refused_naming_it() -> None:
    with pytest.raises(TypeError, match="max_n must be an int, got 2.0"):
        central_values("sum1", 2.0)
    with pytest.raises(TypeError, match="max_n must be an int, got 3.0"):
        diagonal_values("delta", 1, 3.0)
    assert diagonal_values("delta", 1, 3) == [0, 1, 2, 6]
    with pytest.raises(TypeError, match="max_n must be an int, got 3.0"):  # not the cached answer for 3
        diagonal_values("delta", 1, 3.0)


def test_delta_past_the_diagonal_builds_no_table(monkeypatch) -> None:
    def refuse(max_n):
        raise AssertionError("central column built")

    monkeypatch.setattr(methods.differences, "central_sequence", refuse)
    assert diagonal_values("delta", 1200, 5) == [0] * 6


def test_cold_delta_route_looks_up_no_binomial() -> None:
    assert first_mismatch(40, ["delta"]) is None
    info = binomial._char_in_range.cache_info()
    assert info.hits + info.misses == 0


def test_oracle_streams_rows_and_builds_no_triangle(monkeypatch) -> None:
    def refuse(max_n):
        raise AssertionError("triangle built")

    monkeypatch.setattr(triangle, "build_triangle", refuse)
    assert first_mismatch(12) is None
    assert diagonal_values("oracle", 2, 12) == [_z_comb(n, 2) for n in range(13)]


def test_one_cold_oracle_diagonal_keeps_no_triangle() -> None:
    tracemalloc.start()
    try:
        values = diagonal_values("oracle", 3, 1000)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert values[1000] == _z_comb(1000, 3)
    assert peak < 5 * 2**20


def test_one_cold_delta_diagonal_keeps_no_difference_table() -> None:
    # one difference order at a time: the central column to n = 900 and the
    # doubled diagonal, not every order up to lam
    tracemalloc.start()
    try:
        values = diagonal_values("delta", 300, 600)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert values[600] == _z_comb(600, 300)
    assert peak < 2**20


@pytest.mark.parametrize("method", METHOD_NAMES)
def test_a_repeated_request_runs_its_route_once(monkeypatch, method: str) -> None:
    calls: list[tuple[range, int]] = []
    route = methods._METHODS[method]

    def counting(lams, max_n):
        calls.append((lams, max_n))
        return route(lams, max_n)

    monkeypatch.setitem(methods._METHODS, method, counting)
    first = diagonal_values(method, 4, 30)
    first[5] += 1  # the caller's list is its own
    assert diagonal_values(method, 4, 30) == [_z_comb(n, 4) for n in range(31)]
    assert central_values(method, 30) == central_values(method, 30) == [_z_comb(n, 0) for n in range(31)]
    assert calls == [(range(4, 5), 30), (range(0, 1), 30)]


def test_cold_sum_routes_keep_at_most_one_table() -> None:
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        # two diagonals make a range call, which fills the whole table for its max_n
        methods._METHODS["sum1"](range(2), 300)
        one_table = tracemalloc.get_traced_memory()[0] - start
        methods._METHODS["sum1"](range(2), 290)
        methods._METHODS["sum2"](range(2), 280)
        held = tracemalloc.get_traced_memory()[0] - start
    finally:
        tracemalloc.stop()
    assert one_table > 2**20  # the max_n = 300 table: most of what the first call keeps
    assert held <= 1.05 * one_table


@pytest.mark.parametrize("method", ["sum1", "sum2", "sum3", "ratio"])
def test_one_cold_sum_diagonal_keeps_no_table(method: str) -> None:
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        values = central_values(method, 300)
        held, peak = (size - start for size in tracemalloc.get_traced_memory())
    finally:
        tracemalloc.stop()
    assert values[300] == _z_comb(300, 0)
    assert held < 2**18
    assert peak < 2**19


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


def test_one_cold_series_route_takes_one_root(root_orders) -> None:
    assert first_mismatch(40, ["series"]) is None
    assert root_orders == [42]


@pytest.mark.parametrize("lam,max_n", [(1200, 5), (6, 5), (0, 12), (3, 40), (40, 40)])
def test_series_diagonal_roots_stay_below_max_n_minus_lam_plus_2(root_orders, lam, max_n) -> None:
    values = diagonal_values("series", lam, max_n)
    assert values == [_z_comb(n, lam) for n in range(max_n + 1)]
    assert root_orders == ([max_n - lam + 2] if lam <= max_n else [])


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
