"""Tests of the benchmark itself: python3 -m pytest perfbench/tests"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import coldcache
import harness
import inputs
import workloads
from reference import TrinomialRows, gf_closed, z_comb
from tracer import Tracer

BENCH = Path(__file__).resolve().parent.parent
ROOT = BENCH.parent
CENTRAL = [1, 1, 3, 7, 19, 51, 141, 393, 1107, 3139, 8953, 25653, 73789]


def test_reference_matches_golden_values():
    rows = TrinomialRows(40, 8, full_rows=[4, 7])
    assert rows.diagonal(0, 12) == CENTRAL
    assert [z_comb(n, 0) for n in range(13)] == CENTRAL
    assert rows.row(4) == [1, 4, 10, 16, 19, 16, 10, 4, 1]
    assert sum(rows.row(7)) == 3**7
    assert all(rows.z(n, lam) == z_comb(n, lam) for n in range(41) for lam in range(9))
    assert gf_closed(0.01) == pytest.approx(sum(p * 0.01**n for n, p in enumerate(CENTRAL)), rel=1e-12)


@pytest.mark.parametrize("workload", sorted(inputs.GENERATORS))
def test_inputs_are_deterministic_per_seed(workload):
    first = inputs.generate(workload, 7)
    assert first == inputs.generate(workload, 7)
    assert inputs.digest(first) == inputs.digest(inputs.generate(workload, 7))
    assert inputs.digest(first) != inputs.digest(inputs.generate(workload, 8))


def _warm_every_cache():
    from trinomial import methods, series

    methods.central_values("sum1", 30)
    methods.central_values("oracle", 10)
    methods.diagonal_values("delta", 2, 10)
    series.gf_Z(2, 12)


def test_reset_empties_every_cache_including_binomial():
    _warm_every_cache()
    caches = coldcache.find_caches()
    assert "trinomial.binomial._char_in_range" in caches
    assert caches["trinomial.binomial._char_in_range"].cache_info().currsize > 0
    before = coldcache.reset_caches()
    assert before["trinomial.binomial._char_in_range"].currsize > 0
    assert all(cache.cache_info().currsize == 0 for cache in caches.values())


def test_reset_finds_caches_behind_tracer_wrappers():
    plain = set(coldcache.find_caches())
    tracer = Tracer()
    tracer.install()
    try:
        _warm_every_cache()
        assert set(coldcache.find_caches()) == plain
        coldcache.reset_caches()
        assert all(c.cache_info().currsize == 0 for c in coldcache.find_caches().values())
    finally:
        tracer.uninstall()


def test_tracer_keys_routes_and_restores_originals():
    from trinomial import diagonal_sums, methods

    original = (methods.diagonal_values, diagonal_sums.z_sum_form1, methods._METHODS["sum1"].__closure__[0].cell_contents)
    tracer = Tracer()
    tracer.install()
    try:
        coldcache.reset_caches()
        methods.central_values("sum1", 12)
    finally:
        tracer.uninstall()
    assert (methods.diagonal_values, diagonal_sums.z_sum_form1,
            methods._METHODS["sum1"].__closure__[0].cell_contents) == original
    assert tracer.counts["methods.sum1.values"] == 13
    assert tracer.route_ns["methods.sum1"] > 0
    assert tracer.self_ns["diagonal_sums"] > 0  # reached through the registry's closure
    assert tracer.counts["binomial.char_calls"] > 0
    assert "trinomial.methods.diagonal_values[sum1]" in tracer.names


class _StubSession(workloads.Session):
    """Answers from the real package, except one op the stub falsifies."""

    def call(self, op):
        if op.get("stub") == "raise":
            raise RuntimeError("stubbed failure")
        output = list(super().call(op))
        if op.get("stub") == "wrong":
            output[-1] += 1
        return output


def test_wrong_and_raising_ops_count_in_error_rate():
    deck = [
        {"kind": "central", "method": "recurrence", "max_n": 30},
        {"kind": "row", "n": 6, "stub": "wrong"},
        {"kind": "diagonal", "method": "sum2", "lam": 2, "max_n": 20, "stub": "raise"},
        {"kind": "diagonal", "method": "series", "lam": 3, "max_n": 20},
    ]
    workload = _StubSession()
    workload.prepare([deck])
    phase = harness.run_phase(workload, [deck], seconds=1e-9)
    assert phase.attempted == 4
    assert dict(phase.failures) == {"wrong": 1, "raised": 1}
    assert phase.failed / phase.attempted == 0.5
    assert phase.values == 31 + 21


def _result(*args):
    done = subprocess.run([sys.executable, str(BENCH / "run.py"), *args], capture_output=True, text=True, cwd=ROOT)
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("trace,section", [("0", "end_to_end"), ("1", "per_layer")])
def test_printed_metrics_match_benchmark_json(trace, section):
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())[section]
    result = _result("--workload", "quadrature", "--seed", "3", "--seconds", "0.2", "--trace", trace)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] > 0
    assert [(m["name"], m["unit"]) for m in declared] == [
        (name, metric["unit"]) for name, metric in result["metrics"].items()
    ]
    units = harness.END_TO_END_UNITS if trace == "0" else harness.PER_LAYER_UNITS
    assert list(units) == [m["name"] for m in declared]


def test_without_the_package_it_exits_nonzero_and_prints_nothing(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / BENCH.name, ignore=shutil.ignore_patterns("__pycache__", "out"))
    done = subprocess.run(
        [sys.executable, f"{BENCH.name}/run.py", "--workload", "session", "--seed", "1", "--seconds", "1", "--trace", "0"],
        capture_output=True, text=True, cwd=tmp_path, timeout=60,
    )
    assert done.returncode != 0
    assert done.stdout == ""
