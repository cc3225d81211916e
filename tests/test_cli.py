from __future__ import annotations

import csv
import io
import json

import pytest

from trinomial import cli, methods
from trinomial.exact import ExactnessError


def _run(capsys, *argv: str) -> tuple[int, str, str]:
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


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
    code, out, _ = _run(capsys, "crosscheck", "--max-n", "10")
    assert code == 0
    assert out.startswith("OK")


def test_crosscheck_subset(capsys) -> None:
    code, out, _ = _run(capsys, "crosscheck", "--max-n", "8", "--methods", "sum1,series")
    assert code == 0
    assert out.startswith("OK")


def test_crosscheck_unknown_method(capsys) -> None:
    code, _, err = _run(capsys, "crosscheck", "--max-n", "4", "--methods", "sorcery")
    assert code == 2
    assert "unknown method" in err


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
    assert payload["converged"] is True
    assert abs(payload["value"] - 141.0) < 1e-6
    assert abs(payload["deviation"]) < 1e-6


def test_quad_gf_table(capsys) -> None:
    code, out, _ = _run(
        capsys, "quad", "--kind", "gf", "--x", "1/4", "--tol", "1e-10"
    )
    assert code == 0
    assert "value: 1.78885438" in out


def test_quad_missing_arguments(capsys) -> None:
    code, _, err = _run(capsys, "quad", "--kind", "z", "--n", "6")
    assert code == 2
    assert "error" in err


def test_quad_domain_error_exit(capsys) -> None:
    code, _, err = _run(capsys, "quad", "--kind", "z", "--n", "40", "--lambda", "0")
    assert code == 2
    assert "30" in err


def test_identity_ok(capsys) -> None:
    code, out, _ = _run(capsys, "identity", "--b", "3/10", "--lambda-max", "4")
    assert code == 0
    assert out.count("ok") == 6  # five closed-form lines plus the chain


def test_bench_runs(capsys) -> None:
    code, out, _ = _run(
        capsys, "bench", "--max-n", "12", "--methods", "recurrence,series", "--format", "csv"
    )
    assert code == 0
    rows = list(csv.reader(io.StringIO(out)))
    assert rows[0] == ["method", "ns_per_value"]
    assert len(rows) == 3


def test_row_negative_exits_nonzero(capsys) -> None:
    code, _, err = _run(capsys, "row", "--n", "-1")
    assert code == 2
    assert "error" in err


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
