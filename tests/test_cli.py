from __future__ import annotations

import contextlib
import csv
import io
import json
import re
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from trinomial import cli, methods, quadrature, series, triangle
from trinomial.exact import ExactnessError
from trinomial.recurrences import general_sequence
from trinomial.triangle import build_triangle


def _run(capsys, *argv: str) -> tuple[int, str, str]:
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def _refused(capsys, *argv: str) -> tuple[object, str, str]:
    """(exit code, stdout, last stderr line), the last below argparse's usage lines."""
    try:
        code = cli.main(list(argv))
    except SystemExit as exc:  # argparse refuses the argv
        code = exc.code
    out, err = capsys.readouterr()
    return code, out, err.strip().splitlines()[-1]


def _json_of(*argv: str) -> dict:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert cli.main(list(argv)) == 0
    return json.loads(out.getvalue())


def test_row_table(capsys) -> None:
    code, out, _ = _run(capsys, "row", "--n", "2")
    assert code == 0
    lines = [line.split() for line in out.strip().splitlines()]
    assert lines == [["0", "1"], ["1", "2"], ["2", "3"], ["3", "2"], ["4", "1"]]


def test_row_json_integers_are_strings(capsys) -> None:
    code, out, _ = _run(capsys, "row", "--n", "5", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["coefficients"] == [
        "1", "5", "15", "30", "45", "51", "45", "30", "15", "5", "1",
    ]
    assert all(isinstance(v, str) for v in payload["coefficients"])


@settings(max_examples=25, deadline=None)
@given(n=st.integers(0, 120))
def test_row_json_parses_back_to_the_triangle_row(n: int) -> None:
    payload = _json_of("row", "--n", str(n), "--format", "json")
    assert tuple(int(v) for v in payload["coefficients"]) == build_triangle(n).row(n)


@settings(max_examples=25, deadline=None)
@given(n=st.integers(0, 120), method=st.sampled_from(methods.METHOD_NAMES))
def test_central_json_parses_back_to_the_recurrence_column(n: int, method: str) -> None:
    payload = _json_of("central", "--max-n", str(n), "--method", method, "--format", "json")
    assert tuple(int(v) for v in payload["values"]) == general_sequence(0, n)


# each case prints p(1400), or a neighbour, of 667 digits: past a str-digit limit of 640
_LONG_INTEGERS = {
    "central --max-n 1400": (
        lambda out: [line.split()[1] for line in out.splitlines()],
        lambda: general_sequence(0, 1400),
    ),
    "diag --lambda 1 --max-n 1400 --format json": (
        lambda out: json.loads(out)["values"],
        lambda: general_sequence(1, 1400),
    ),
    "row --n 1400 --format csv": (
        lambda out: [r[1] for r in csv.reader(io.StringIO(out))][1:],
        lambda: triangle.row(1400),
    ),
    "gf --order 1400 --format json": (
        lambda out: [c["numerator"] for c in json.loads(out)["coefficients"]],
        lambda: general_sequence(0, 1400),
    ),
}


@pytest.mark.skipif(not hasattr(sys, "set_int_max_str_digits"), reason="no str-digit limit")
@pytest.mark.parametrize("argv", list(_LONG_INTEGERS))
def test_an_integer_past_the_str_digit_limit_prints_whole(capsys, argv: str) -> None:
    read, expected = _LONG_INTEGERS[argv]
    old = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(640)
    try:
        code = cli.main(argv.split())
        limit = sys.get_int_max_str_digits()
    finally:
        sys.set_int_max_str_digits(old)
    out = capsys.readouterr().out
    assert (code, limit) == (0, 640)  # printed, and the caller's limit is back
    values = read(out)
    assert values == [str(v) for v in expected()]
    assert max(map(len, values)) > 640


def test_central_csv(capsys) -> None:
    code, out, _ = _run(capsys, "central", "--max-n", "6", "--format", "csv")
    assert code == 0
    rows = list(csv.reader(io.StringIO(out)))
    assert rows[0] == ["n", "value"]
    assert [r[1] for r in rows[1:]] == ["1", "1", "3", "7", "19", "51", "141"]


def test_methods_produce_identical_output(capsys) -> None:
    outputs = set()
    for method in ("oracle", "sum1", "sum2", "sum3", "ratio", "recurrence", "delta", "series"):
        code, out, _ = _run(capsys, "central", "--max-n", "12", "--method", method, "--format", "csv")
        assert code == 0
        outputs.add(out)
    assert len(outputs) == 1  # byte-identical numeric columns


def test_diag_json(capsys) -> None:
    code, out, _ = _run(
        capsys, "diag", "--lambda", "1", "--max-n", "6", "--format", "json",
        "--method", "series",
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["lambda"] == 1
    assert payload["values"] == ["0", "1", "2", "6", "16", "45", "126"]


def test_crosscheck_ok(capsys) -> None:
    code, out, _ = _run(capsys, "crosscheck", "--max-n", "40")
    assert code == 0
    assert out == "OK: 8 methods agree with the oracle on 861 (n, lam) pairs, 0 <= lam <= n <= 40\n"


def test_crosscheck_subset(capsys) -> None:
    code, out, _ = _run(capsys, "crosscheck", "--max-n", "8", "--methods", "sum1,series,sum1")
    assert code == 0
    assert out == "OK: 2 methods agree with the oracle on 45 (n, lam) pairs, 0 <= lam <= n <= 8\n"


def test_deep_series_diagonal_and_gf_take_no_root(capsys, root_orders) -> None:
    code, out, _ = _run(capsys, "diag", "--lambda", "1200", "--max-n", "5", "--method", "series")
    assert code == 0
    assert [line.split() for line in out.strip().splitlines()] == [[str(n), "0"] for n in range(6)]
    code, out, _ = _run(capsys, "gf", "--order", "1205", "--lambda", "1200")
    assert code == 0
    assert out.strip() == "Z[1200] = 0 + O(x^1206)"
    assert root_orders == []


def test_crosscheck_mismatch_exits_one_on_stderr(capsys, monkeypatch) -> None:
    ratio = methods._METHODS["ratio"]

    def one_wrong(lams: range, max_n: int) -> list[list[int]]:
        rows = ratio(lams, max_n)
        rows[3][5] += 1  # z(5, 3) = 15
        return rows

    monkeypatch.setitem(methods._METHODS, "ratio", one_wrong)
    code, out, err = _run(capsys, "crosscheck", "--max-n", "8")
    assert (code, out) == (1, "")
    assert err == "MISMATCH: method ratio at lam=3, n=5: got 16, oracle says 15\n"


def test_crosscheck_negative_max_n_exits_two(capsys) -> None:
    code, out, err = _run(capsys, "crosscheck", "--max-n", "-1")
    assert code == 2
    assert out == ""
    assert err == "error: max_n must be >= 0, got -1\n"


def test_crosscheck_unknown_method(capsys) -> None:
    code, _, err = _run(capsys, "crosscheck", "--max-n", "4", "--methods", "sorcery")
    assert code == 2
    assert "unknown method" in err


@pytest.mark.parametrize("names", ["", ","])
def test_crosscheck_empty_method_name_exits_two(capsys, names: str) -> None:
    code, out, err = _run(capsys, "crosscheck", "--max-n", "3", "--methods", names)
    assert (code, out) == (2, "")
    assert err.startswith("error: --methods: unknown method ''; choose from")


def test_gf_table(capsys) -> None:
    code, out, _ = _run(capsys, "gf", "--order", "4")
    assert code == 0
    assert out.strip() == "P = 1 + x + 3*x^2 + 7*x^3 + 19*x^4 + O(x^5)"


def test_gf_csv(capsys) -> None:
    code, out, _ = _run(capsys, "gf", "--order", "3", "--lambda", "1", "--format", "csv")
    assert code == 0
    rows = list(csv.reader(io.StringIO(out)))
    assert rows[0] == ["degree", "numerator", "denominator"]
    assert rows[1:] == [["0", "0", "1"], ["1", "0", "1"], ["2", "1", "1"], ["3", "2", "1"]]


def test_gf_json(capsys) -> None:
    code, out, _ = _run(capsys, "gf", "--order", "2", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["coefficients"][2] == {
        "degree": 2, "numerator": "3", "denominator": "1",
    }


def test_quad_z_json(capsys) -> None:
    code, out, _ = _run(
        capsys, "quad", "--kind", "z", "--n", "6", "--lambda", "0", "--format", "json"
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["exact"] == "141"
    assert "converged" not in payload
    assert payload["panels"] == 4  # degree 6 needs (6 + 0) // 2 + 1 panels
    assert abs(payload["value"] - 141.0) < 1e-6
    assert abs(payload["deviation"]) < 1e-6


def test_quad_gf_table(capsys) -> None:
    code, out, _ = _run(capsys, "quad", "--kind", "gf", "--x", "1/4")
    assert code == 0
    assert "value: 1.78885438" in out


def test_quad_gf_negative_x_as_separate_token(capsys) -> None:
    code, joined, _ = _run(capsys, "quad", "--kind", "gf", "--x=-9999/10000", "--format", "json")
    assert code == 0
    code, split, _ = _run(capsys, "quad", "--kind", "gf", "--x", "-9999/10000", "--format", "json")
    assert code == 0
    assert json.loads(split)["value"] == json.loads(joined)["value"]


def test_quad_missing_arguments(capsys) -> None:
    code, _, err = _run(capsys, "quad", "--kind", "z", "--n", "6")
    assert code == 2
    assert "error" in err
    assert _run(capsys, "quad", "--kind", "gf") == (2, "", "error: quad --kind gf needs --x\n")


def test_quad_domain_error_exit(capsys) -> None:
    code, _, err = _run(capsys, "quad", "--kind", "z", "--n", "40", "--lambda", "0")
    assert code == 2
    assert "30" in err


def test_identity_ok(capsys) -> None:
    code, out, _ = _run(capsys, "identity", "--b", "3/10", "--lambda-max", "4")
    assert code == 0
    assert out.count("ok") == 6  # five closed-form lines plus the chain


def test_identity_failure_exits_one(capsys, monkeypatch) -> None:
    # a wrong closed form for I(2) fails its line alone: the chain reads only I(0)'s
    closed_form = quadrature._closed_form
    monkeypatch.setattr(quadrature, "_closed_form", lambda b, lam: closed_form(b, lam) + (lam == 2))
    code, out, _ = _run(capsys, "identity", "--b", "3/10", "--lambda-max", "3")
    assert code == 1
    assert out.splitlines() == [
        "closed form, lam=0: ok",
        "closed form, lam=1: ok",
        "closed form, lam=2: FAILED",
        "closed form, lam=3: ok",
        "reduction chain to lam=3: ok",
    ]


def test_row_and_quad_z_build_only_one_row(capsys, monkeypatch) -> None:
    row50, z_30_7 = build_triangle(50).row(50), build_triangle(30).coeff(30, 37)

    def refuse(max_n: int) -> None:
        raise AssertionError("one row needs no whole triangle")

    monkeypatch.setattr(triangle, "build_triangle", refuse)
    code, out, _ = _run(capsys, "row", "--n", "50", "--format", "json")
    assert code == 0
    assert tuple(int(v) for v in json.loads(out)["coefficients"]) == row50
    code, out, _ = _run(
        capsys, "quad", "--kind", "z", "--n", "30", "--lambda", "7", "--format", "json"
    )
    assert code == 0
    assert json.loads(out)["exact"] == str(z_30_7)


def test_identity_rejects_a_negative_lambda_max(capsys) -> None:
    code, out, err = _run(capsys, "identity", "--b", "1/2", "--lambda-max", "-1")
    assert code == 2
    assert out == ""
    assert err == "error: --lambda-max must be >= 0, got -1\n"


@pytest.mark.parametrize("verb", [("quad", "--kind", "gf", "--x", "1/4"), ("identity", "--b", "1/2")])
def test_the_cli_has_no_tol_option(capsys, verb) -> None:
    # the CLI checks at the library's default 1e-9; a tighter check passes tol to the library
    code, out, err = _refused(capsys, *verb, "--tol", "1e-9")
    assert (code, out) == (2, "")
    assert err == "trinomial: error: unrecognized arguments: --tol 1e-9"


# --tol is no option of any verb: argparse refuses each spelling, named as typed
@pytest.mark.parametrize("tol", ["nan", "inf", "-Infinity", "NaN", "1e999", "tiny"])
@pytest.mark.parametrize("verb", [("quad", "--kind", "gf", "--x", "1/4"), ("identity", "--b", "1/2")])
def test_a_tolerance_that_is_no_finite_number_is_named_as_typed(capsys, verb, tol) -> None:
    code, out, err = _refused(capsys, *verb, f"--tol={tol}")
    assert (code, out) == (2, "")
    assert err == f"trinomial: error: unrecognized arguments: --tol={tol}"


@pytest.mark.parametrize("tol", ["0.00000000000001", "1E-14", "0", "-1e-5", "5e-324"])
@pytest.mark.parametrize("verb", [("quad", "--kind", "gf", "--x", "1/4"), ("identity", "--b", "1/2")])
def test_a_tolerance_below_the_minimum_is_named_as_typed(capsys, verb, tol) -> None:
    code, out, err = _refused(capsys, *verb, "--tol", tol)
    assert (code, out) == (2, "")
    typed = f"--tol={tol}" if tol.startswith("-") else f"--tol {tol}"  # main joins a negative value
    assert err == f"trinomial: error: unrecognized arguments: {typed}"


def test_a_literal_past_4300_digits_exits_two_naming_x(capsys) -> None:
    code, out, err = _run(capsys, "quad", "--kind", "gf", "--x", "1" * 5000 + "/7")
    assert (code, out) == (2, "")
    assert err == "error: --x: a numerator or denominator of 5000 digits, more than 4300\n"


@pytest.mark.parametrize(
    "argv,message",
    [
        (("row", "--n=--"), "argument --n: expected one argument"),
        (("crosscheck", "--max-n", "3", "--methods=--"), "argument --methods: expected one argument"),
        (("identity", "--b", ""), "error: --b: not a rational literal: ''"),
        (("quad", "--kind", "gf", "--x", "0.25"), "error: --x: not a rational literal: '0.25'"),
    ],
)
def test_a_value_that_cannot_be_read_is_named_with_its_option(capsys, argv, message) -> None:
    # "--n=--" reached the verb as an empty list on Python 3.11, and failed with a traceback
    code, out, err = _refused(capsys, *argv)
    assert (code, out) == (2, "")
    assert err.endswith(message)


def test_identity_past_the_panel_budget_exits_three(capsys) -> None:
    code, _, err = _run(capsys, "identity", "--b", "999999999999/1000000000000")
    assert code == 3
    assert "panels" in err


def test_row_negative_exits_nonzero(capsys) -> None:
    code, out, err = _run(capsys, "row", "--n", "-1")
    assert code == 2
    assert out == ""
    assert err == "error: n must be >= 0, got -1\n"
    assert "max_n" not in err


@pytest.mark.parametrize(
    "argv,message",
    [
        (("quad", "--kind", "gf", "--x", "1/3"), "need -1 < x < 1/3, got 1/3"),
        (("quad", "--kind", "gf", "--x", "-1"), "need -1 < x < 1/3, got -1"),
        (("quad", "--kind", "gf", "--x", "33333333333333333333/100000000000000000001"),
         "x = 33333333333333333333/100000000000000000001 rounds to 0.3333333333333333, "
         "outside -1 < x < 1/3"),
        (("identity", "--b", "1"), "need 0 < b < 1, got 1"),
        (("identity", "--b", "99999999999999999999/100000000000000000000"),
         "b = 99999999999999999999/100000000000000000000 rounds to 1.0, outside 0 < b < 1"),
    ],
)
def test_domain_errors_name_the_literal_checked_exactly(capsys, argv, message) -> None:
    code, out, err = _run(capsys, *argv)
    assert code == 2
    assert out == ""
    assert err == f"error: {message}\n"


def test_unknown_verb_exits_two(capsys) -> None:
    with pytest.raises(SystemExit) as excinfo:
        cli.main(["frobnicate"])
    assert excinfo.value.code == 2


def test_integrality_failure_exits_four(capsys, monkeypatch) -> None:
    def broken(lams, max_n):
        raise ExactnessError("7 is not divisible by 2")

    monkeypatch.setitem(methods._METHODS, "recurrence", broken)
    code, out, err = _run(capsys, "central", "--max-n", "5")
    assert code == 4
    assert out == ""
    assert "not divisible" in err


def test_a_zero_division_inside_the_package_is_a_bug_not_bad_input(monkeypatch) -> None:
    def broken(lams, max_n):
        raise ZeroDivisionError("exact division by zero")

    monkeypatch.setitem(methods._METHODS, "recurrence", broken)
    with pytest.raises(ZeroDivisionError):
        cli.main(["diag", "--lambda", "2", "--max-n", "5"])


def test_a_value_error_inside_the_package_is_a_bug_not_bad_input(monkeypatch) -> None:
    # only a DomainError, the package's own refusal, is reported as exit 2
    def broken(lams, max_n):
        raise ValueError("not enough values to unpack")

    monkeypatch.setitem(methods._METHODS, "recurrence", broken)
    with pytest.raises(ValueError, match="^not enough values to unpack$"):
        cli.main(["central", "--max-n", "5"])


def test_a_zero_denominator_is_bad_input_naming_its_option(capsys) -> None:
    code, out, err = _run(capsys, "quad", "--kind", "gf", "--x", "1/0")
    assert (code, out) == (2, "")
    assert err == "error: --x: zero denominator in '1/0'\n"


def _expected_rows(payload: dict) -> tuple[list[str], list[list[str]]]:
    """The csv header and rows that carry exactly the json payload's data."""
    if payload["command"] == "row":
        return ["k", "coefficient"], [[str(k), v] for k, v in enumerate(payload["coefficients"])]
    if payload["command"] in ("central", "diag"):
        return ["n", "value"], [[str(n), v] for n, v in enumerate(payload["values"])]
    if payload["command"] == "gf":
        header = ["degree", "numerator", "denominator"]
        return header, [[str(c[key]) for key in header] for c in payload["coefficients"]]
    return list(payload), [[str(v) for v in payload.values()]]


def _expected_table(payload: dict, header: list[str], rows: list[list[str]]) -> list[str]:
    if payload["command"] == "gf":
        coeffs = tuple(int(c["numerator"]) for c in payload["coefficients"])
        label = "P" if payload["lambda"] == 0 else f"Z[{payload['lambda']}]"
        return [f"{label} = {series.PowerSeries(coeffs)}"]
    if payload["command"] == "quad":
        return [f"{key}: {value}" for key, value in payload.items()]
    return ["  ".join(row) for row in rows]


@pytest.mark.parametrize(
    "argv",
    [
        ("row", "--n", "4"),
        ("central", "--max-n", "6", "--method", "sum2"),
        ("diag", "--lambda", "2", "--max-n", "7", "--method", "delta"),
        ("gf", "--order", "5", "--lambda", "1"),
        ("quad", "--kind", "z", "--n", "6", "--lambda", "2"),
        ("quad", "--kind", "gf", "--x", "1/4"),
    ],
    ids=lambda argv: " ".join(argv[:3]),
)
def test_every_format_carries_the_json_payload(capsys, argv) -> None:
    payload = _json_of(*argv, "--format", "json")
    assert payload["command"] == argv[0]
    if argv[0] == "central":
        assert payload["lambda"] == 0  # central is diag at lam 0
    header, rows = _expected_rows(payload)
    code, out, _ = _run(capsys, *argv, "--format", "csv")
    assert code == 0
    assert list(csv.reader(io.StringIO(out))) == [header, *rows]
    code, out, _ = _run(capsys, *argv, "--format", "table")
    assert code == 0
    assert out.splitlines() == _expected_table(payload, header, rows)


def _one_of(*values: str) -> st.SearchStrategy[str]:
    return st.sampled_from(values)


_JUNK = _one_of("", "x", "1.5", "1e3", "0x3", "1/0", "--")


def _ints(lo: int, hi: int) -> tuple[st.SearchStrategy[str], st.SearchStrategy[str]]:
    return st.integers(lo, hi).map(str), st.integers(-(10**20), lo - 1).map(str) | _JUNK


_FORMAT = (_one_of("table", "csv", "json"), _one_of("xml", ""))
_METHOD = (st.sampled_from(methods.METHOD_NAMES), _JUNK)
# option -> (valid values, invalid values), sizes kept small
_GRAMMAR: dict[str, dict[str, tuple[st.SearchStrategy[str], st.SearchStrategy[str]]]] = {
    "row": {"--n": _ints(0, 12), "--format": _FORMAT},
    "central": {"--max-n": _ints(0, 12), "--method": _METHOD, "--format": _FORMAT},
    "diag": {"--lambda": _ints(0, 14), "--max-n": _ints(0, 12), "--method": _METHOD, "--format": _FORMAT},
    "crosscheck": {
        "--max-n": _ints(0, 12),
        "--methods": (
            st.lists(st.sampled_from(methods.METHOD_NAMES), min_size=1, max_size=3).map(",".join),
            st.lists(st.sampled_from([*methods.METHOD_NAMES, "guess"]), max_size=3).map(",".join),
        ),
    },
    "gf": {"--order": _ints(0, 40), "--lambda": _ints(0, 12), "--format": _FORMAT},
    "quad": {
        "--kind": (_one_of("z", "gf"), _one_of("w", "")),
        "--n": _ints(0, 33),  # past 30 the quadrature refuses it
        "--lambda": _ints(0, 33),
        "--x": (
            _one_of("1/4", "-1/2", "0", "-999/1000", "333/1000", "-99999999999/100000000000"),
            _one_of("1/3", "-1", "2", "0.25") | _JUNK,
        ),
        "--format": _FORMAT,
    },
    "identity": {
        "--b": (
            _one_of("1/2", "3/10", "1/1000", "999/1000", "9999/10000", "999999/1000000"),  # cheap at the CLI's 1e-9
            _one_of("0", "1", "-1/2", "5/4", "99999999999999999999/100000000000000000000") | _JUNK,
        ),
        "--lambda-max": _ints(0, 4),
    },
    "bogus": {"--n": _ints(0, 3)},
}


@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_every_argv_exits_0_to_3_and_names_what_it_refuses(data: st.DataObject) -> None:
    # each option valid, invalid or left out, given as one token or two, in any order
    verb = data.draw(st.sampled_from(sorted(_GRAMMAR)), label="verb")
    grammar = _GRAMMAR[verb]
    argv, typed, present = [verb], [], {}
    for option, (valid, invalid) in grammar.items():
        state = data.draw(_one_of("valid", "valid", "valid", "invalid", "absent"), label=option)
        if state != "absent":
            present[option] = data.draw(valid if state == "valid" else invalid, label=option)
    for option in data.draw(st.permutations(sorted(present)), label="order"):
        value = present[option]
        argv += [f"{option}={value}"] if data.draw(st.booleans(), label="one token") else [option, value]
        typed += value.split(",")  # each method of --methods is a value of its own
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(argv)
        except SystemExit as exc:  # argparse refuses the argv
            code = exc.code
    assert code in (0, 1, 2, 3), (argv, err.getvalue())  # never 4, a bug in the package
    assert "Traceback" not in err.getvalue()
    if code == 2:
        message = err.getvalue().strip().splitlines()[-1]  # below argparse's usage lines
        names = [*grammar, *filter(None, typed), *([verb] if verb == "bogus" else [])]
        # a name counts as a whole word: "1" typed is not named by "1e-13"
        named = [name for name in names if re.search(rf"(?<![\w.+-]){re.escape(name)}(?![\w.+-])", message)]
        assert named, (argv, message)
