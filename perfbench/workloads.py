"""The four workloads: how each op is called and how its output is checked.

A workload object has

* ``prepare(decks)``: computes the expected values (untimed);
* ``call(op)``: the timed call into the package;
* ``check(op, output)``: raises ``Wrong`` or returns how many values
  it verified;
* ``template(op)``: which ops count as repeats of one another for the
  latency percentiles;
* ``cold_each_op``, ``tail_percentile`` and ``in_process`` (whether
  peak RSS is the benchmark's own or its children's).

Expected values come from ``reference``, never from ``trinomial``.
"""

from __future__ import annotations

import functools
import json
import os
import selectors
import subprocess
import sys
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from time import perf_counter
from typing import Any

import inputs
from reference import TrinomialRows, gf_closed, z_comb

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
CHILD = HERE / "child.py"
STATS_MARK = "perfbench-stats "

Z_TOL = 1e-9  # z_by_integral error allowed, relative to 3^n (its documented scale)
GF_TOL = 1e-8  # gf_by_integral error allowed, relative to max(1, P(x))


class Wrong(Exception):
    """An op returned a value that differs from the reference."""


def _expect(got: Any, want: Any, what: str) -> None:
    if got != want:
        raise Wrong(f"{what}: got {str(got)[:80]}, expected {str(want)[:80]}")


def _expect_ints(got: list, want: list[int], what: str) -> int:
    _expect(len(got), len(want), f"{what} length")
    for index, (g, w) in enumerate(zip(got, want)):
        if g != w:
            raise Wrong(f"{what}[{index}]: got {g}, expected {w}")
    return len(want)


def _expect_z(value: float, n: int, lam: int, want: int) -> None:
    _expect(abs(value - want) <= Z_TOL * 3.0**n, True, f"z({n}, {lam}) by quadrature = {value}, exact {want}")


def _expect_gf(value: float, x: float) -> None:
    closed = gf_closed(x)
    _expect(abs(value - closed) <= GF_TOL * max(1.0, closed), True, f"P({x}) by quadrature = {value}, closed {closed}")


def _z_series(rows: TrinomialRows, lam: int, order: int) -> list[int]:
    # coefficient of x^k in Z[lam] is z(k - lam, lam); it is zero for k < lam
    return [rows.z(k - lam, lam) if k >= lam else 0 for k in range(order + 1)]


def child_env() -> dict[str, str]:
    return dict(os.environ, PYTHONPATH=os.pathsep.join([str(SRC), str(HERE)]))


@dataclass
class Child:
    code: int
    out: str
    err: str
    wall_s: float
    maxrss_kb: int


def spawn(argv: list[str]) -> Child:
    """Run one child to completion; report its own peak RSS via wait4."""
    start = perf_counter()
    proc = subprocess.Popen(argv, stdout=subprocess.PIPE, stderr=subprocess.PIPE, cwd=ROOT, env=child_env())
    chunks: dict[Any, list[bytes]] = {proc.stdout: [], proc.stderr: []}
    with selectors.DefaultSelector() as selector:
        for stream in chunks:
            selector.register(stream, selectors.EVENT_READ)
        while selector.get_map():
            for key, _ in selector.select():
                data = os.read(key.fd, 1 << 16)
                if data:
                    chunks[key.fileobj].append(data)
                else:
                    selector.unregister(key.fileobj)
                    key.fileobj.close()
    _, status, usage = os.wait4(proc.pid, 0)
    proc.returncode = os.waitstatus_to_exitcode(status)
    return Child(
        proc.returncode,
        b"".join(chunks[proc.stdout]).decode(),
        b"".join(chunks[proc.stderr]).decode(),
        perf_counter() - start,
        usage.ru_maxrss,
    )


def parse_importtime(stderr: str) -> dict[str, float]:
    """Cumulative seconds per top-level module name from ``-X importtime``."""
    found: dict[str, float] = {}
    for line in stderr.splitlines():
        if line.startswith("import time:") and "|" in line:
            _, cumulative, name = line[len("import time:"):].split("|")
            if cumulative.strip().isdigit():
                found.setdefault(name.strip(), int(cumulative) / 1e6)
    return found


def startup_sample(child: Child) -> dict[str, float]:
    imports = parse_importtime(child.err)
    imported = imports.get("trinomial", 0.0)
    return {
        "process_s": child.wall_s,
        "exec_s": child.wall_s - imported,
        "trinomial_s": imported,
        "numpy_s": imports.get("numpy", 0.0),
    }


def child_stats(child: Child) -> dict | None:
    for line in child.err.splitlines():
        if line.startswith(STATS_MARK):
            return json.loads(line[len(STATS_MARK):])
    return None


def traced_cli_argv(args: list[str]) -> list[str]:
    return [sys.executable, "-X", "importtime", str(CHILD), *args]


# ---------------------------------------------------------------------------


class Crosscheck:
    """first_mismatch(N) over all eight routes, every cache cold per op."""

    cold_each_op = True
    tail_percentile = 75.0
    in_process = True

    @staticmethod
    def template(op: dict) -> Any:
        return op["max_n"]  # the route order does not change the work

    def prepare(self, decks: list[list[dict]]) -> None:
        from trinomial import methods

        self._methods = methods
        top = max(op["max_n"] for deck in decks for op in deck)
        self.rows = TrinomialRows(top, top)
        for n, lam in ((top, 0), (top, top // 2)):  # the row engine against the comb sum
            _expect(self.rows.z(n, lam), z_comb(n, lam), "reference rows")

    def call(self, op: dict) -> Any:
        return self._methods.first_mismatch(op["max_n"], op["methods"])

    def check(self, op: dict, output: Any) -> int:
        # first_mismatch only says the routes agree with the oracle, so each
        # route's diagonals are fetched again (caches are still warm) and
        # compared with the reference.
        _expect(output, None, "first_mismatch")
        max_n = op["max_n"]
        for method in op["methods"]:
            for lam in range(max_n + 1):
                got = self._methods.diagonal_values(method, lam, max_n)
                _expect_ints(got, self.rows.diagonal(lam, max_n), f"{method} lam={lam}")
        return len(op["methods"]) * (max_n + 1) ** 2


class Session:
    """One warm library session: a seeded stream of repeated deep requests."""

    cold_each_op = False
    tail_percentile = 95.0
    in_process = True

    @staticmethod
    def template(op: dict) -> Any:
        return tuple(sorted(op.items()))

    def prepare(self, decks: list[list[dict]]) -> None:
        from trinomial import methods, series, triangle

        self._methods, self._series, self._triangle = methods, series, triangle
        ops = [op for deck in decks for op in deck]
        top = max(op.get("max_n", op.get("order", op.get("n", 0))) for op in ops)
        lams = max(op.get("lam", 0) for op in ops)
        rows = [op["n"] for op in ops if op["kind"] == "row"]
        self.rows = TrinomialRows(top, lams, rows)

    def call(self, op: dict) -> Any:
        kind = op["kind"]
        if kind == "central":
            return self._methods.central_values(op["method"], op["max_n"])
        if kind == "diagonal":
            return self._methods.diagonal_values(op["method"], op["lam"], op["max_n"])
        if kind == "gf_Z":
            return self._series.gf_Z(op["lam"], op["order"]).coeffs
        return self._triangle.build_triangle(op["n"]).row(op["n"])

    def check(self, op: dict, output: Any) -> int:
        kind = op["kind"]
        if kind == "central":
            return _expect_ints(output, self.rows.diagonal(0, op["max_n"]), "central")
        if kind == "diagonal":
            return _expect_ints(output, self.rows.diagonal(op["lam"], op["max_n"]), "diagonal")
        if kind == "gf_Z":
            want = _z_series(self.rows, op["lam"], op["order"])
            return _expect_ints(list(output), want, "gf_Z")
        return _expect_ints(list(output), self.rows.row(op["n"]), "row")


class Cli:
    """One fresh ``python -m trinomial.cli ... --format json`` child per op."""

    cold_each_op = False
    tail_percentile = 75.0
    in_process = False

    @staticmethod
    def template(op: dict) -> Any:
        # arguments change from deck to deck; start-up dominates each verb
        return (op["verb"], op["args"][1] if op["verb"] == "quad" else None)

    def __init__(self) -> None:
        self.max_rss_kb = 0
        self.tracer = None
        self.startups: list[dict[str, float]] = []

    def prepare(self, decks: list[list[dict]]) -> None:
        ops = [op for deck in decks for op in deck]
        top = max(int(op["args"][op["args"].index(flag) + 1]) for op in ops
                  for flag in ("--max-n", "--order", "--n") if flag in op["args"])
        rows = [int(op["args"][1]) for op in ops if op["verb"] == "row"]
        self.rows = TrinomialRows(top, 8, rows)

    def argv(self, op: dict) -> list[str]:
        args = [op["verb"], *op["args"]]
        if op["verb"] != "crosscheck":
            args += ["--format", "json"]
        if self.tracer is None:
            return [sys.executable, "-m", "trinomial.cli", *args]
        return traced_cli_argv(args)

    def call(self, op: dict) -> Child:
        child = spawn(self.argv(op))
        self.max_rss_kb = max(self.max_rss_kb, child.maxrss_kb)
        if self.tracer is not None:
            self.startups.append(startup_sample(child))
            stats = child_stats(child)
            if stats is not None:
                self.tracer.merge(stats)
        return child

    def check(self, op: dict, child: Child) -> int:
        verb, args = op["verb"], op["args"]
        _expect(child.code, 0, f"exit code ({child.err.strip()[-200:]})")
        if verb == "crosscheck":
            _expect(child.out.startswith("OK:"), True, "crosscheck verdict")
            return 1
        payload = json.loads(child.out)
        if verb == "central":
            return _expect_ints([int(v) for v in payload["values"]], self.rows.diagonal(0, int(args[1])), "central")
        if verb == "diag":
            lam, max_n = int(args[1]), int(args[3])
            return _expect_ints([int(v) for v in payload["values"]], self.rows.diagonal(lam, max_n), "diag")
        if verb == "row":
            return _expect_ints([int(v) for v in payload["coefficients"]], self.rows.row(int(args[1])), "row")
        if verb == "gf":
            order, lam = int(args[1]), int(args[3])
            got = [Fraction(int(c["numerator"]), int(c["denominator"])) for c in payload["coefficients"]]
            return _expect_ints(got, _z_series(self.rows, lam, order), "gf")
        if args[1] == "z":
            n, lam = int(args[3]), int(args[5])
            want = z_comb(n, lam)
            _expect(int(payload["exact"]), want, "quad exact")
            _expect_z(payload["value"], n, lam, want)
            return 1
        _expect_gf(payload["value"], float(Fraction(args[2].partition("=")[2])))
        return 1


class Quadrature:
    """In-process float checks over the documented domains."""

    cold_each_op = False
    tail_percentile = 99.0
    in_process = True

    @staticmethod
    def template(op: dict) -> Any:
        return tuple(sorted(op.items()))

    def prepare(self, decks: list[list[dict]]) -> None:
        from trinomial import quadrature

        self._quadrature = quadrature
        self.z = {(n, lam): z_comb(n, lam) for n in range(inputs.Z_MAX_N + 1) for lam in range(n + 1)}

    def call(self, op: dict) -> Any:
        q, kind = self._quadrature, op["kind"]
        if kind == "z":
            return q.z_by_integral(op["n"], op["lam"]).value
        if kind == "gf":
            return q.gf_by_integral(op["x"]).value
        if kind == "b_identity":
            return q.b_identity_check(op["b"], op["lam"])
        if kind == "b_chain":
            return q.b_reduction_chain_check(op["b"], op["max_lambda"])
        return q.fourier_decomposition_check(op["n"])

    def check(self, op: dict, output: Any) -> int:
        kind = op["kind"]
        if kind == "z":
            _expect_z(output, op["n"], op["lam"], self.z[(op["n"], op["lam"])])
        elif kind == "gf":
            _expect_gf(output, op["x"])
        else:
            # each of these identities holds exactly, so the check must pass
            _expect(output, True, f"{kind} {op}")
        return 1


WORKLOADS = {"crosscheck": Crosscheck, "session": Session, "cli": Cli, "quadrature": Quadrature}


# ---------------------------------------------------------------------------
# inputs where the package is known to fail; run untimed, reported, and
# never counted as ops (README.md lists them)


def quadrature_known_defects() -> list[dict]:
    from trinomial import quadrature as q

    cases = [(f"fourier_decomposition_check({n})", functools.partial(q.fourier_decomposition_check, n))
             for n in range(inputs.FOURIER_MAX_N + 1, 21)]
    for x, text in ((-1.0 + 1e-6, "-1 + 1e-6"), (1.0 / 3.0 - 1e-6, "1/3 - 1e-6")):
        cases.append((f"gf_by_integral({text})", functools.partial(q.gf_by_integral, x)))
    cases.append(("b_identity_check(0.9999, 0)", functools.partial(q.b_identity_check, 0.9999, 0)))
    cases.append(("b_reduction_chain_check(0.9999, 8)", functools.partial(q.b_reduction_chain_check, 0.9999, 8)))
    report = []
    for label, case in cases:
        try:
            result = case()
        except Exception as exc:  # the defect being recorded
            outcome = f"raised {type(exc).__name__}"
        else:
            outcome = "passed" if result is True or not isinstance(result, bool) else f"returned {result}"
        report.append({"input": label, "outcome": outcome})
    return report


def cli_known_defects() -> list[dict]:
    child = spawn([sys.executable, "-m", "trinomial.cli", "quad", "--kind", "gf", "--x", "-1/2", "--format", "json"])
    outcome = "passed" if child.code == 0 else f"exit {child.code}"
    return [{"input": "quad --kind gf --x -1/2", "outcome": outcome}]


KNOWN_DEFECTS = {"quadrature": quadrature_known_defects, "cli": cli_known_defects}


def coverage_probe() -> None:
    """One small call into every layer, so each per-layer metric of a
    traced run is measured even where the workload does not reach."""
    from trinomial import methods, quadrature, series, triangle

    for route in inputs.ROUTES:
        methods.diagonal_values(route, 2, 12)
    series.gf_Z(3, 16)
    triangle.build_triangle(12).row(12)
    quadrature.z_by_integral(10, 3)
    quadrature.gf_by_integral(0.1)
    quadrature.b_identity_check(0.5, 3)
    quadrature.b_reduction_chain_check(0.5, 4)
    quadrature.fourier_decomposition_check(6)
    quadrature_known_defects()
