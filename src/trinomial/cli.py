"""Command line front end.

Verbs:

    row         one full row of the coefficient triangle
    central     p(0..max_n) by a chosen method
    diag        z(0..max_n, lam) by a chosen method
    crosscheck  every method against the oracle over a triangular range
    gf          coefficients of P (lam = 0) or Z[lam]
    quad        one quadrature verification (z or gf form)
    identity    the b-substitution integral identities
    bench       rough per-value timings of each method

Exact integers are printed as decimal strings in every format, including
JSON, so nothing is ever squeezed through a double.  crosscheck and
identity exit nonzero on any disagreement, which makes them usable as CI
tripwires.
"""

from __future__ import annotations

import argparse
import csv
import json
import sys
import time
from typing import Iterable, Optional, Sequence

from . import methods, quadrature, series, triangle
from .exact import ExactnessError, parse_rational

_FORMATS = ("table", "csv", "json")


def _emit_rows(
    fmt: str,
    header: Sequence[str],
    rows: Iterable[Sequence[object]],
    json_payload: dict,
) -> None:
    if fmt == "table":
        for row in rows:
            print("  ".join(str(cell) for cell in row))
    elif fmt == "csv":
        writer = csv.writer(sys.stdout)
        writer.writerow(header)
        writer.writerows(rows)
    else:
        print(json.dumps(json_payload, indent=2))


def _cmd_row(args: argparse.Namespace) -> int:
    tri = triangle.build_triangle(args.n)
    row = tri.row(args.n)
    _emit_rows(
        args.format,
        ["k", "coefficient"],
        ([k, str(v)] for k, v in enumerate(row)),
        {"command": "row", "n": args.n, "coefficients": [str(v) for v in row]},
    )
    return 0


def _sequence_command(name: str, lam: int, args: argparse.Namespace) -> int:
    values = methods.diagonal_values(args.method, lam, args.max_n)
    _emit_rows(
        args.format,
        ["n", "value"],
        ([n, str(v)] for n, v in enumerate(values)),
        {
            "command": name,
            "method": args.method,
            "lambda": lam,
            "values": [str(v) for v in values],
        },
    )
    return 0


def _cmd_central(args: argparse.Namespace) -> int:
    return _sequence_command("central", 0, args)


def _cmd_diag(args: argparse.Namespace) -> int:
    return _sequence_command("diag", args.lam, args)


def _cmd_crosscheck(args: argparse.Namespace) -> int:
    chosen = args.methods.split(",") if args.methods else None
    mismatch = methods.first_mismatch(args.max_n, chosen)
    if mismatch is None:
        print(f"OK: all methods agree with the oracle for 0 <= lam <= n <= {args.max_n}")
        return 0
    name, lam, n, got, expected = mismatch
    print(
        f"MISMATCH: method {name} at lam={lam}, n={n}: got {got}, oracle says {expected}",
        file=sys.stderr,
    )
    return 1


def _cmd_gf(args: argparse.Namespace) -> int:
    ps = series.gf_Z(args.lam, args.order)
    label = "P" if args.lam == 0 else f"Z[{args.lam}]"
    if args.format == "table":
        print(f"{label} = {ps}")
        return 0
    _emit_rows(
        args.format,
        ["degree", "numerator", "denominator"],
        ps.csv_rows(),
        {
            "command": "gf",
            "lambda": args.lam,
            "order": args.order,
            "coefficients": [
                {"degree": k, "numerator": num, "denominator": den}
                for k, num, den in ps.csv_rows()
            ],
        },
    )
    return 0


def _print_quadrature(
    fmt: str, command: str, result: quadrature.QuadratureResult, extra: dict
) -> None:
    payload = {
        "command": command,
        "value": result.value,
        "abs_error_estimate": result.abs_error_estimate,
        "panels": result.panels,
        "converged": result.converged,
        **extra,
    }
    if fmt == "json":
        print(json.dumps(payload, indent=2))
    elif fmt == "csv":
        writer = csv.writer(sys.stdout)
        keys = list(payload)
        writer.writerow(keys)
        writer.writerow([payload[k] for k in keys])
    else:
        for key, value in payload.items():
            print(f"{key}: {value}")


def _cmd_quad(args: argparse.Namespace) -> int:
    if args.kind == "z":
        if args.n is None or args.lam is None:
            raise ValueError("quad --kind z needs --n and --lambda")
        result = quadrature.z_by_integral(args.n, args.lam, tol=args.tol)
        exact = triangle.build_triangle(args.n).coeff(args.n, args.n + args.lam)
        extra = {
            "n": args.n,
            "lambda": args.lam,
            "exact": str(exact),
            "deviation": result.value - exact,
        }
    else:
        if args.x is None:
            raise ValueError("quad --kind gf needs --x")
        x = float(parse_rational(args.x))
        result = quadrature.gf_by_integral(x, tol=args.tol)
        extra = {"x": args.x}
    _print_quadrature(args.format, "quad", result, extra)
    return 0


def _cmd_identity(args: argparse.Namespace) -> int:
    b = float(parse_rational(args.b))
    failures = 0
    for lam in range(args.lambda_max + 1):
        ok = quadrature.b_identity_check(b, lam, tol=args.tol)
        print(f"closed form, lam={lam}: {'ok' if ok else 'FAILED'}")
        failures += 0 if ok else 1
    chain_ok = quadrature.b_reduction_chain_check(b, max(args.lambda_max, 1), tol=args.tol)
    print(f"reduction chain to lam={max(args.lambda_max, 1)}: {'ok' if chain_ok else 'FAILED'}")
    failures += 0 if chain_ok else 1
    return 1 if failures else 0


def _cmd_bench(args: argparse.Namespace) -> int:
    chosen = args.methods.split(",") if args.methods else list(methods.METHOD_NAMES)
    rows = []
    for name in chosen:
        methods.clear_caches()
        start = time.perf_counter_ns()
        methods.central_values(name, args.max_n)
        elapsed = time.perf_counter_ns() - start
        rows.append([name, elapsed // (args.max_n + 1)])
    _emit_rows(
        args.format,
        ["method", "ns_per_value"],
        rows,
        {
            "command": "bench",
            "max_n": args.max_n,
            "timings": [{"method": m, "ns_per_value": t} for m, t in rows],
        },
    )
    return 0


def _add_format(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--format", choices=_FORMATS, default="table")


def _add_method(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--method", choices=methods.METHOD_NAMES, default="recurrence"
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="trinomial",
        description="Coefficients of (1+x+x^2)^n by several independent routes.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("row", help="one row of the coefficient triangle")
    p.add_argument("--n", type=int, required=True)
    _add_format(p)
    p.set_defaults(func=_cmd_row)

    p = sub.add_parser("central", help="central coefficients p(0..max_n)")
    p.add_argument("--max-n", type=int, required=True)
    _add_method(p)
    _add_format(p)
    p.set_defaults(func=_cmd_central)

    p = sub.add_parser("diag", help="diagonal z(0..max_n, lam)")
    p.add_argument("--lambda", dest="lam", type=int, required=True)
    p.add_argument("--max-n", type=int, required=True)
    _add_method(p)
    _add_format(p)
    p.set_defaults(func=_cmd_diag)

    p = sub.add_parser("crosscheck", help="compare all methods against the oracle")
    p.add_argument("--max-n", type=int, required=True)
    p.add_argument("--methods", help="comma-separated subset (default: all)")
    p.set_defaults(func=_cmd_crosscheck)

    p = sub.add_parser("gf", help="series coefficients of P or Z[lam]")
    p.add_argument("--order", type=int, required=True)
    p.add_argument("--lambda", dest="lam", type=int, default=0)
    _add_format(p)
    p.set_defaults(func=_cmd_gf)

    p = sub.add_parser("quad", help="quadrature verification")
    p.add_argument("--kind", choices=("z", "gf"), required=True)
    p.add_argument("--n", type=int)
    p.add_argument("--lambda", dest="lam", type=int)
    p.add_argument("--x", help="evaluation point as a rational such as 1/4")
    p.add_argument("--tol", type=float, default=1e-9)
    _add_format(p)
    p.set_defaults(func=_cmd_quad)

    p = sub.add_parser("identity", help="b-substitution integral identities")
    p.add_argument("--b", required=True, help="rational in (0,1) such as 3/10")
    p.add_argument("--lambda-max", type=int, default=8)
    p.add_argument("--tol", type=float, default=1e-9)
    p.set_defaults(func=_cmd_identity)

    p = sub.add_parser("bench", help="time each method")
    p.add_argument("--max-n", type=int, required=True)
    p.add_argument("--methods", help="comma-separated subset (default: all)")
    _add_format(p)
    p.set_defaults(func=_cmd_bench)

    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except ExactnessError as exc:  # a bug in the package, not bad input
        print(f"integrality error: {exc}", file=sys.stderr)
        return 4
    except (ValueError, IndexError, ZeroDivisionError, ArithmeticError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except quadrature.QuadratureError as exc:
        print(f"quadrature error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
