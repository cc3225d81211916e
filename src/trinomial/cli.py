"""Command line front end.

Verbs:

    row         one full row of the coefficient triangle
    central     p(0..max_n) by a chosen method (diag at lam = 0)
    diag        z(0..max_n, lam) by a chosen method
    crosscheck  every method against the oracle over a triangular range
    gf          coefficients of P (lam = 0) or Z[lam]
    quad        one quadrature verification (z or gf form)
    identity    the b-substitution integral identities

Each verb with --format builds one payload and hands it to _emit, which
prints it as json, as csv (a header and rows) or as a table, so the three
formats carry the same fields.  Exact integers are printed as decimal
strings in every format, including JSON, so nothing is ever squeezed
through a double.  crosscheck and identity exit nonzero on any
disagreement, which makes them usable as CI tripwires.
"""

from __future__ import annotations

import argparse
import csv
import json
import sys
from fractions import Fraction
from typing import Iterable, Optional, Sequence

from . import methods, quadrature, series, triangle
from .exact import DomainError, ExactnessError, index, parse_rational

_FORMATS = ("table", "csv", "json")


def _emit(
    fmt: str,
    payload: dict,
    header: Sequence[str],
    rows: Iterable[Sequence[object]],
    table: Optional[Iterable[str]] = None,
) -> None:
    """Print one result: json the payload, csv the header and rows, table
    the given lines or else each row joined by two spaces."""
    if fmt == "json":
        print(json.dumps(payload, indent=2))
    elif fmt == "csv":
        writer = csv.writer(sys.stdout)
        writer.writerow(header)
        writer.writerows(rows)
    else:
        for line in table if table is not None else ("  ".join(map(str, row)) for row in rows):
            print(line)


def _inside(text: str, name: str, lo: Fraction, hi: Fraction, bounds: str) -> float:
    # the literal is checked exactly, then as the double the checks receive
    try:
        value = parse_rational(text)
    except DomainError as exc:
        raise DomainError(f"--{name}: {exc}") from None
    if not lo < value < hi:
        raise DomainError(f"need {bounds}, got {text}")
    x = float(value)
    if not float(lo) < x < float(hi):
        raise DomainError(f"{name} = {text} rounds to {x}, outside {bounds}")
    return x


def _cmd_row(args: argparse.Namespace) -> int:
    coefficients = [str(v) for v in triangle.row(args.n)]
    payload = {"command": "row", "n": args.n, "coefficients": coefficients}
    _emit(args.format, payload, ["k", "coefficient"], enumerate(coefficients))
    return 0


def _cmd_sequence(args: argparse.Namespace) -> int:
    values = [str(v) for v in methods.diagonal_values(args.method, args.lam, args.max_n)]
    payload = {"command": args.command, "method": args.method, "lambda": args.lam, "values": values}
    _emit(args.format, payload, ["n", "value"], enumerate(values))
    return 0


def _cmd_crosscheck(args: argparse.Namespace) -> int:
    chosen = list(dict.fromkeys(args.methods.split(","))) if args.methods is not None else methods.METHOD_NAMES
    if "" in chosen:  # --methods "" or "sum1,,ratio": no name was typed, so name the option
        raise DomainError(f"--methods: unknown method ''; choose from {methods.METHOD_NAMES}")
    mismatch = methods.first_mismatch(args.max_n, chosen)
    if mismatch is None:
        pairs = (args.max_n + 1) * (args.max_n + 2) // 2
        print(
            f"OK: {len(chosen)} methods agree with the oracle on {pairs} (n, lam) pairs, "
            f"0 <= lam <= n <= {args.max_n}"
        )
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
    header = ["degree", "numerator", "denominator"]
    rows = [(k, str(c), "1") for k, c in enumerate(ps.coeffs)]
    payload = {
        "command": "gf",
        "lambda": args.lam,
        "order": args.order,
        "coefficients": [dict(zip(header, row)) for row in rows],
    }
    _emit(args.format, payload, header, rows, [f"{label} = {ps}"])
    return 0


def _cmd_quad(args: argparse.Namespace) -> int:
    if args.kind == "z":
        if args.n is None or args.lam is None:
            raise DomainError("quad --kind z needs --n and --lambda")
        result = quadrature.z_by_integral(args.n, args.lam)
        exact = triangle.row(args.n)[args.n + args.lam]
        extra = {
            "n": args.n,
            "lambda": args.lam,
            "exact": str(exact),
            "deviation": result.value - exact,
        }
    else:
        if args.x is None:
            raise DomainError("quad --kind gf needs --x")
        x = _inside(args.x, "x", Fraction(-1), Fraction(1, 3), "-1 < x < 1/3")
        result = quadrature.gf_by_integral(x)
        extra = {"x": args.x}
    payload = {
        "command": "quad",
        "value": result.value,
        "abs_error_estimate": result.abs_error_estimate,
        "panels": result.panels,
        **extra,
    }
    table = [f"{key}: {value}" for key, value in payload.items()]
    _emit(args.format, payload, list(payload), [list(payload.values())], table)
    return 0


def _cmd_identity(args: argparse.Namespace) -> int:
    b = _inside(args.b, "b", Fraction(0), Fraction(1), "0 < b < 1")
    index("--lambda-max", args.lambda_max)
    failures = 0
    for lam in range(args.lambda_max + 1):
        ok = quadrature.b_identity_check(b, lam)
        print(f"closed form, lam={lam}: {'ok' if ok else 'FAILED'}")
        failures += 0 if ok else 1
    chain_ok = quadrature.b_reduction_chain_check(b, max(args.lambda_max, 1))
    print(f"reduction chain to lam={max(args.lambda_max, 1)}: {'ok' if chain_ok else 'FAILED'}")
    failures += 0 if chain_ok else 1
    return 1 if failures else 0


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
    p.set_defaults(func=_cmd_sequence, lam=0)

    p = sub.add_parser("diag", help="diagonal z(0..max_n, lam)")
    p.add_argument("--lambda", dest="lam", type=int, required=True)
    p.add_argument("--max-n", type=int, required=True)
    _add_method(p)
    _add_format(p)
    p.set_defaults(func=_cmd_sequence)

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
    _add_format(p)
    p.set_defaults(func=_cmd_quad)

    p = sub.add_parser("identity", help="b-substitution integral identities")
    p.add_argument("--b", required=True, help="rational in (0,1) such as 3/10")
    p.add_argument("--lambda-max", type=int, default=8)
    p.set_defaults(func=_cmd_identity)

    return parser


def _attach_negative_values(argv: Sequence[str]) -> list[str]:
    """Write "--x -1/2" as "--x=-1/2".

    argparse only takes plain negative decimals such as -3 for values, so
    a negative rational or exponent after an option would be read as an
    unknown flag.
    """
    out: list[str] = []
    for arg in argv:
        prev = out[-1] if out else ""
        if prev.startswith("--") and "=" not in prev and arg[:1] == "-" and arg[1:2].isdigit():
            out[-1] = f"{prev}={arg}"
        else:
            out.append(arg)
    return out


def main(argv: Optional[Sequence[str]] = None) -> int:
    argv = _attach_negative_values(sys.argv[1:] if argv is None else argv)
    parser = build_parser()
    for arg in argv:
        if arg.startswith("--") and arg.endswith("=--"):  # argparse < 3.12 keeps no value for it
            parser.error(f"argument {arg[:-3]}: expected one argument")
    args = parser.parse_args(argv)
    limit = sys.get_int_max_str_digits() if hasattr(sys, "get_int_max_str_digits") else 0
    if limit:  # print exact integers whole, however long; restored for in-process callers
        sys.set_int_max_str_digits(0)
    try:
        return args.func(args)
    except ExactnessError as exc:  # a bug in the package, not bad input
        print(f"integrality error: {exc}", file=sys.stderr)
        return 4
    except DomainError as exc:  # bad input; any other error is a bug and raises
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except quadrature.QuadratureError as exc:
        print(f"quadrature error: {exc}", file=sys.stderr)
        return 3
    finally:
        if limit:
            sys.set_int_max_str_digits(limit)


if __name__ == "__main__":
    sys.exit(main())
