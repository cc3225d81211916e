"""Runs one workload: set-up timing, the timed closed loop, and its metrics.

One client runs ops back to back (closed loop, no threads).  A phase
runs whole decks and stops at the deck boundary nearest to its time
budget, so every run has the same mix whatever the machine speed.

On a shared machine the speed of one op can switch between a fast and a
slow level for seconds at a time.  A plain sample median then jumps
between the two levels from run to run.  So the latency metrics first
average each kind of op over its repeats in the run (the workload's
``template``), then take the percentile over the op mix.
"""

from __future__ import annotations

import math
import os
import platform
import resource
import statistics
import subprocess
import sys
from array import array
from collections import Counter
from dataclasses import dataclass, field
from time import perf_counter
from typing import Any

import coldcache
import workloads
from tracer import Tracer

SETUP_SAMPLES = 7
PROBE_STARTS = 3
SETUP_CODE = (
    "import trinomial, coldcache\n"
    "coldcache.reset_caches()\n"
    "print('ready', flush=True)\n"
)

END_TO_END_UNITS = {
    "setup_s": "s",
    "values_per_s": "1/s",
    "op_p50_s": "s",
    "op_tail_s": "s",
    "peak_rss_mb": "MB",
}

ROUTE_METRICS = [f"methods.{route}.{kind}" for route in workloads.inputs.ROUTES for kind in ("time_s", "values")]
PER_LAYER_UNITS = {
    "import.trinomial_s": "s",
    "import.numpy_s": "s",
    "cli.process_s": "s",
    "cli.exec_s": "s",
    "methods.self_s": "s",
    **{name: ("s" if name.endswith("_s") else "count") for name in ROUTE_METRICS},
    "series.self_s": "s",
    "series.mul_calls": "count",
    "series.div_calls": "count",
    "series.sqrt_calls": "count",
    "series.gf_cache_hit_ratio": "ratio",
    "binomial.self_s": "s",
    "binomial.char_calls": "count",
    "binomial.cache_hit_ratio": "ratio",
    "triangle.self_s": "s",
    "triangle.rows_built": "count",
    "diagonal_sums.self_s": "s",
    "differences.self_s": "s",
    "recurrences.self_s": "s",
    "quadrature.self_s": "s",
    "quadrature.calls": "count",
    "quadrature.panels_total": "count",
    "quadrature.errors": "count",
    "exact.checks": "count",
    "trace.overhead_ratio": "ratio",
}


@dataclass
class Phase:
    # latencies grouped by op template, as packed doubles so the
    # benchmark's own memory barely grows with the number of ops
    latencies: dict[Any, array] = field(default_factory=dict)
    attempted: int = 0
    op_time: float = 0.0
    values: int = 0
    failures: Counter = field(default_factory=Counter)
    errors: list[str] = field(default_factory=list)
    decks: int = 0

    def add(self, template: Any, latency: float) -> None:
        self.latencies.setdefault(template, array("d")).append(latency)
        self.attempted += 1
        self.op_time += latency

    def samples(self) -> list[float]:
        return [t for times in self.latencies.values() for t in times]

    @property
    def failed(self) -> int:
        return sum(self.failures.values())

    @property
    def values_per_s(self) -> float:
        """Verified values per second of op time."""
        return self.values / self.op_time


def percentile(samples: list[float], pct: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(samples)
    return ordered[max(0, math.ceil(pct / 100.0 * len(ordered)) - 1)]


def trimmed_mean(samples: list[float], cut: float = 0.1) -> float:
    """Mean without the lowest and highest ``cut`` share (a pause that hits
    one op should not move its template)."""
    ordered = sorted(samples)
    k = int(len(ordered) * cut)
    return statistics.fmean(ordered[k : len(ordered) - k])


def op_percentile(phase: Phase, pct: float) -> float:
    """Nearest-rank percentile over the op mix of each template's mean latency."""
    levels = sorted((trimmed_mean(times), len(times)) for times in phase.latencies.values())
    rank = max(1, math.ceil(pct / 100.0 * phase.attempted))
    seen = 0
    for mean, count in levels:
        seen += count
        if seen >= rank:
            return mean
    raise ValueError("no ops")


def run_phase(workload: Any, decks: list[list[dict]], seconds: float, tracer: Tracer | None = None) -> Phase:
    """Run whole decks for about ``seconds``; time each call, check each output."""
    coldcache.reset_caches()
    phase = Phase()
    start = perf_counter()
    while True:
        deck_start = perf_counter()
        for op in decks[phase.decks % len(decks)]:
            template = workload.template(op)
            if workload.cold_each_op:
                coldcache.reset_caches()
            began = perf_counter()
            try:
                output = workload.call(op)
            except Exception as exc:  # a failed op is counted, not fatal
                phase.add(template, perf_counter() - began)
                _record(phase, "raised", op, exc)
                continue
            phase.add(template, perf_counter() - began)
            if tracer is not None:
                if workload.cold_each_op:
                    tracer.absorb_cache_infos(coldcache.cache_infos())
                tracer.active = False
            try:
                phase.values += workload.check(op, output)
            except Exception as exc:  # wrong values, or output of the wrong shape
                _record(phase, "wrong", op, exc)
            finally:
                if tracer is not None:
                    tracer.active = True
        phase.decks += 1
        now = perf_counter()
        if now - start + (now - deck_start) / 2 >= seconds:
            break
    if tracer is not None and not workload.cold_each_op:
        tracer.absorb_cache_infos(coldcache.cache_infos())
    return phase


def _record(phase: Phase, kind: str, op: dict, exc: Exception) -> None:
    phase.failures[kind] += 1
    if len(phase.errors) < 5:
        phase.errors.append(f"{kind}: {op}: {type(exc).__name__}: {exc}"[:400])


def measure_setup(samples: int = SETUP_SAMPLES) -> list[float]:
    """Seconds from starting a fresh interpreter until it has imported
    trinomial and reset every cache, i.e. could run its first op."""
    times = []
    for _ in range(samples):
        start = perf_counter()
        proc = subprocess.Popen(
            [sys.executable, "-c", SETUP_CODE],
            stdout=subprocess.PIPE,
            cwd=workloads.ROOT,
            env=workloads.child_env(),
        )
        with proc:
            line = proc.stdout.readline()
            times.append(perf_counter() - start)
            proc.stdout.read()
        if proc.returncode != 0 or line.strip() != b"ready":
            raise RuntimeError(f"set-up child failed with exit code {proc.returncode}")
    return times


def end_to_end(workload: Any, phase: Phase, setup: list[float]) -> dict[str, float]:
    if workload.in_process:
        rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    else:
        rss_kb = workload.max_rss_kb
    return {
        "setup_s": statistics.median(setup),
        "values_per_s": phase.values_per_s,
        "op_p50_s": op_percentile(phase, 50.0),
        "op_tail_s": op_percentile(phase, workload.tail_percentile),
        "peak_rss_mb": rss_kb / 1024.0,
    }


def _ratio(hits: int, misses: int) -> float:
    return hits / (hits + misses) if hits + misses else 0.0


def per_layer(tracer: Tracer, decks: int, starts: list[dict[str, float]], overhead: float) -> dict[str, float]:
    """Layer times and counts per deck of the traced phase (so they do not
    grow with speed), cache hit ratios, and start-up medians."""

    def median_of(key: str) -> float:
        return statistics.median(sample[key] for sample in starts)

    def self_s(layer: str) -> float:
        return tracer.self_ns[layer] / 1e9 / decks

    gf = [name for name in tracer.cache_hits.keys() | tracer.cache_misses.keys() if ".series.gf_" in name]
    char = "trinomial.binomial._char_in_range"
    metrics = {
        "import.trinomial_s": median_of("trinomial_s"),
        "import.numpy_s": median_of("numpy_s"),
        "cli.process_s": median_of("process_s"),
        "cli.exec_s": median_of("exec_s"),
        "series.gf_cache_hit_ratio": _ratio(
            sum(tracer.cache_hits[n] for n in gf), sum(tracer.cache_misses[n] for n in gf)
        ),
        "binomial.cache_hit_ratio": _ratio(tracer.cache_hits[char], tracer.cache_misses[char]),
        "trace.overhead_ratio": overhead,
    }
    for name in PER_LAYER_UNITS:
        if name in metrics:
            continue
        if name.endswith(".time_s"):
            metrics[name] = tracer.route_ns[name[: -len(".time_s")]] / 1e9 / decks
        elif name.endswith(".self_s"):
            metrics[name] = self_s(name[: -len(".self_s")])
        else:
            metrics[name] = tracer.counts[name] / decks
    return {name: metrics[name] for name in PER_LAYER_UNITS}


def startup_probe(samples: int = PROBE_STARTS) -> list[dict[str, float]]:
    """Traced CLI children on a tiny command, for the import and cli layers."""
    argv = workloads.traced_cli_argv(["row", "--n", "4", "--format", "json"])
    starts = []
    for _ in range(samples):
        child = workloads.spawn(argv)
        if child.code != 0:
            raise RuntimeError(f"start-up probe failed: {child.err.strip()[-300:]}")
        starts.append(workloads.startup_sample(child))
    return starts


def metadata() -> dict[str, Any]:
    root = workloads.ROOT
    src_lines = sum(len(path.read_text().splitlines()) for path in sorted((root / "src").rglob("*.py")))
    numpy = sys.modules.get("numpy")
    return {
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count(),
        "numpy": getattr(numpy, "__version__", None),
        "git_commit": _git_commit(root),
        "src_lines": src_lines,
        "dependencies": _dependencies(root),
    }


def _git_commit(root) -> str | None:
    if not (root / ".git").exists():
        return None
    try:
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, capture_output=True, text=True, check=True)
    except (OSError, subprocess.CalledProcessError):
        return None
    return done.stdout.strip()


def _dependencies(root) -> list[str] | None:
    try:
        import tomllib
    except ImportError:  # Python 3.10
        return None
    try:
        with open(root / "pyproject.toml", "rb") as handle:
            return list(tomllib.load(handle)["project"].get("dependencies", []))
    except (OSError, KeyError, tomllib.TOMLDecodeError):
        return None
