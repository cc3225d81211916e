from __future__ import annotations

import ast
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
