from __future__ import annotations

import ast
import os
import re
import subprocess
import sys
from pathlib import Path

import trinomial

PACKAGE = Path(trinomial.__file__).resolve().parent


def test_package_has_no_assert_statements() -> None:
    """Checks must survive python -O, which strips assert statements."""
    found = [
        f"{path.name}:{node.lineno}"
        for path in sorted(PACKAGE.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, ast.Assert)
    ]
    assert len(list(PACKAGE.glob("*.py"))) > 5
    assert found == []


def test_import_loads_no_numpy_and_no_dependency_is_declared() -> None:
    """The package runs on the standard library alone."""
    env = dict(os.environ, PYTHONPATH=str(PACKAGE.parent))
    child = subprocess.run(
        [sys.executable, "-c", "import sys, trinomial; print('numpy' in sys.modules)"],
        capture_output=True, text=True, env=env, timeout=60, check=True,
    )
    assert child.stdout.strip() == "False"
    pyproject = (PACKAGE.parents[1] / "pyproject.toml").read_text(encoding="utf-8")
    assert re.findall(r"^dependencies\s*=\s*(.*)$", pyproject, re.MULTILINE) == ["[]"]
