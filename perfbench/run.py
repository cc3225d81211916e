"""The trinomial benchmark.

    python3 perfbench/run.py --workload crosscheck --seed 1 --seconds 45 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 45

Run from the repository root (any directory works; paths are resolved
from this file).  Prints one JSON report line, then the result line
{"correct", "attempted", "failed", "metrics"}.  ``--trace 0`` reports the
end-to-end metrics, ``--trace 1`` the per-layer ones.  ``--workload all``
runs every workload in its own process and prints a table.  See
README.md for what each workload and metric means.
"""

from __future__ import annotations

import argparse
import json
import math
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
OUT = HERE / "out"


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> tuple[dict, dict]:
    import coldcache
    import harness
    import inputs
    import workloads
    from tracer import Tracer

    decks = inputs.generate(name, seed)
    setup = harness.measure_setup()
    import trinomial  # noqa: F401  (every module loaded, so every cache is found)

    workload = workloads.WORKLOADS[name]()
    workload.prepare(decks)
    report: dict = {
        "workload": name,
        "seed": seed,
        "input_digest": inputs.digest(decks),
        "seconds": seconds,
        "trace": int(trace),
        "setup_samples_s": setup,
        "tail_percentile": workload.tail_percentile,
        "metadata": harness.metadata(),
    }
    if not trace:
        phases = [harness.run_phase(workload, decks, seconds)]
        metrics = harness.end_to_end(workload, phases[0], setup)
        units = harness.END_TO_END_UNITS
    else:
        plain = harness.run_phase(workload, decks, seconds / 2)
        tracer = Tracer()
        tracer.install()
        if name == "cli":
            workload.tracer = tracer
        try:
            traced = harness.run_phase(workload, decks, seconds / 2, tracer)
            coldcache.reset_caches()
            workloads.coverage_probe()
            tracer.absorb_cache_infos(coldcache.cache_infos())
        finally:
            tracer.uninstall()
        starts = workload.startups if name == "cli" else harness.startup_probe()
        phases = [plain, traced]
        metrics = harness.per_layer(tracer, traced.decks, starts, traced.values_per_s / plain.values_per_s)
        units = harness.PER_LAYER_UNITS
        OUT.mkdir(exist_ok=True)
        spans = OUT / f"spans-{name}-seed{seed}.json"
        tracer.write_spans(spans)
        report["spans_file"] = str(spans.relative_to(HERE.parent))
        report["spans"] = len(tracer.spans)
    if name in workloads.KNOWN_DEFECTS:
        report["known_defects"] = workloads.KNOWN_DEFECTS[name]()

    attempted = sum(p.attempted for p in phases)
    failed = sum(p.failed for p in phases)
    report.update(
        {
            "decks": [p.decks for p in phases],
            "ops": [p.attempted for p in phases],
            "values": [p.values for p in phases],
            "samples_beyond_tail": [p.attempted - math.ceil(workload.tail_percentile / 100 * p.attempted) for p in phases],
            "sample_p50_s": [harness.percentile(p.samples(), 50.0) for p in phases],
            "sample_tail_s": [harness.percentile(p.samples(), workload.tail_percentile) for p in phases],
            "failures": {kind: sum(p.failures[kind] for p in phases) for kind in ("raised", "wrong")},
            "error_rate": failed / attempted,
            "errors": [e for p in phases for e in p.errors][:5],
        }
    )
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {key: {"value": value, "unit": units[key]} for key, value in metrics.items()},
    }
    report["metrics"] = result["metrics"]
    return report, result


def run_all(seed: int, seconds: float, trace: bool) -> int:
    """Every workload in a fresh process; one table of metrics."""
    status = 0
    for name in ("crosscheck", "session", "cli", "quadrature"):
        done = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--workload", name, "--seed", str(seed),
             "--seconds", str(seconds), "--trace", str(int(trace))],
            capture_output=True, text=True,
        )
        lines = done.stdout.strip().splitlines()
        if done.returncode != 0 or len(lines) < 2:
            print(f"{name}: failed (exit {done.returncode})\n{done.stderr.strip()[-500:]}")
            status = 1
            continue
        report = json.loads(lines[-2])
        print(f"== {name} (seed {seed}, digest {report['input_digest'][:12]}, "
              f"tail = p{report['tail_percentile']:g})")
        for key, metric in report["metrics"].items():
            print(f"  {key:32} {metric['value']:>16.6g} {metric['unit']}")
        print(f"  {'error_rate':32} {report['error_rate']:>16.6g} ratio  "
              f"(ops {sum(report['ops'])}, raised {report['failures']['raised']}, "
              f"wrong {report['failures']['wrong']})")
        for defect in report.get("known_defects", []):
            print(f"  known defect: {defect['input']}: {defect['outcome']}")
    return status


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=("crosscheck", "session", "cli", "quadrature", "all"))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=45.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "trinomial" / "__init__.py").is_file():
        print(f"error: no trinomial package under {SRC}; run from a full checkout", file=sys.stderr)
        return 2
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    if args.workload == "all":
        return run_all(args.seed, args.seconds, bool(args.trace))
    sys.path.insert(0, str(SRC))
    report, result = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps(report))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
