"""List the lines of src/trinomial that no test in tests/ runs.

Runs ``pytest tests`` in this process under the standard library's
``trace`` module, then prints every line of the package that trace
counts as executable and that never ran.  A line on ALLOWED is printed
with its reason and does not fail the run; any other unreached line
exits 1, as does a failing test run.  Tests that start a child process
(the demos, ``python -O``) are not traced inside the child.

    python tools/unreached.py

It takes about a minute and a half, so it stays outside the tier-1 suite.
"""

from __future__ import annotations

import sys
import tempfile
import trace
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "trinomial"

# (module file, the line as written, stripped) -> why no test runs it
ALLOWED = {
    (
        "recurrences.py",
        'raise ExactnessError(f"recurrence used outside its region: n={n}, lam={lam}")',
    ): "m >= lam + 2 keeps denom positive; it is the check a moved loop bound would trip",
    (
        "series.py",
        'raise ExactnessError(f"radical identity failed at b={b}")',
    ): "the paper's exact identity at x = b/(b^2 + b + 1), which holds for every b",
    ("cli.py", "sys.exit(main())"): "runs only as python -m trinomial.cli, in a child process",
}


def unreached(coverdir: Path) -> list[tuple[str, int, str]]:
    """(module file, line number, line) for each >>>>>> line trace wrote for the package."""
    found = []
    # trace caches its ignore verdict by bare module name, so once an __init__ under
    # sys.prefix is ignored every __init__.py is; the package's holds only imports
    for path in sorted(set(PACKAGE.glob("*.py")) - {PACKAGE / "__init__.py"}):
        cover = coverdir / f"trinomial.{path.stem}.cover"
        if not cover.exists():  # trace writes no file for a module that never ran
            found.append((path.name, 0, "(never imported)"))
            continue
        for number, line in enumerate(cover.read_text(encoding="utf-8").splitlines(), 1):
            if line.startswith(">>>>>> "):
                found.append((path.name, number, line[len(">>>>>> "):].strip()))
    return found


def main() -> int:
    sys.path.insert(0, str(ROOT / "src"))
    tracer = trace.Trace(count=1, trace=0, ignoredirs=[sys.prefix, sys.exec_prefix])
    status = tracer.runfunc(pytest.main, ["-q", "-p", "no:cacheprovider", str(ROOT / "tests")])
    with tempfile.TemporaryDirectory() as tmp:
        tracer.results().write_results(show_missing=True, summary=False, coverdir=tmp)
        lines = unreached(Path(tmp))
    failing = 0
    for name, number, text in lines:
        reason = ALLOWED.get((name, text))
        print(f"src/trinomial/{name}:{number}: {text}" + (f"  [allowed: {reason}]" if reason else ""))
        failing += reason is None
    print(f"{len(lines)} unreached lines, {failing} not allowed; pytest exit status {int(status)}")
    return 1 if failing or status != 0 else 0


if __name__ == "__main__":
    sys.exit(main())
