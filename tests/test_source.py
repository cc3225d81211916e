from __future__ import annotations

import ast
import doctest
import importlib
import os
import re
import subprocess
import sys
from pathlib import Path
from typing import Iterator

import trinomial
import trinomial.cli  # noqa: F401  (every module loaded, so every cache is found)

PACKAGE = Path(trinomial.__file__).resolve().parent

# public statements of the paper's identities, checked by their own tests and
# called by nothing else
PAPER_IDENTITIES = (
    "stepwise_chain",
    "product_swap_check",
    "product_collapse_check",
    "central_p_factor_series",
    "cos_power_expansion",
)


def _loads(node: ast.AST, owners: tuple[str, ...] = ()) -> Iterator[tuple[str, tuple[str, ...]]]:
    # every name read below node, with the functions and classes it is read inside
    if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
        owners += (node.name,)
    if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
        yield node.id, owners
    elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
        yield node.attr, owners
    for child in ast.iter_child_nodes(node):
        yield from _loads(child, owners)


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


def test_import_loads_no_dataclasses() -> None:
    """dataclasses pulls in inspect, ast and dis: most of the package's import time."""
    env = dict(os.environ, PYTHONPATH=str(PACKAGE.parent))
    child = subprocess.run(
        [sys.executable, "-c", "import trinomial, sys; print('dataclasses' in sys.modules)"],
        capture_output=True, text=True, env=env, timeout=60, check=True,
    )
    assert child.stdout.strip() == "False"


def test_cli_has_one_output_path() -> None:
    """One json.dumps and one csv.writer: every --format verb goes through one emitter."""
    tree = ast.parse((PACKAGE / "cli.py").read_text(encoding="utf-8"))
    calls = [
        f"{node.func.value.id}.{node.func.attr}"
        for node in ast.walk(tree)
        if isinstance(node, ast.Call)
        and isinstance(node.func, ast.Attribute)
        and isinstance(node.func.value, ast.Name)
    ]
    assert calls.count("json.dumps") == 1
    assert calls.count("csv.writer") == 1


def test_differences_reads_no_binomials() -> None:
    """The Delta-expansion coefficients come from their own exact ratio, not from char."""
    tree = ast.parse((PACKAGE / "differences.py").read_text(encoding="utf-8"))
    imports = [node for node in ast.walk(tree) if isinstance(node, (ast.Import, ast.ImportFrom))]
    names = [getattr(node, "module", None) or "" for node in imports]
    names += [alias.name for node in imports for alias in node.names]
    assert "exact" in names
    assert not [name for name in names if "binomial" in name]


def test_the_package_keeps_four_bounded_caches(cold_caches) -> None:
    """Results are cached at the entry points that repeated requests call
    (diagonal_values, gf_Z), plus the sums' table shared inside one call and
    the binomials; every layer below keeps nothing once it returns."""
    assert sorted(cold_caches) == [
        "trinomial.binomial._char_in_range",
        "trinomial.diagonal_sums._char_table",
        "trinomial.methods._diagonal",
        "trinomial.series.gf_Z",
    ]
    assert all(cache.cache_info().maxsize is not None for cache in cold_caches.values())


def test_every_public_name_has_a_caller() -> None:
    """A public helper whose only caller is its own test is not kept: each name in
    the __all__ of trinomial and of each of its modules is read by the package
    outside its own definition and __init__.py, or by a demo, or is one of the
    paper's identities."""
    sources = [path for path in PACKAGE.glob("*.py") if path.name != "__init__.py"]
    sources += (PACKAGE.parents[1] / "demos").glob("*.py")
    used = {
        name
        for path in sources
        for name, owners in _loads(ast.parse(path.read_text(encoding="utf-8")))
        if name not in owners
    }
    modules = [trinomial] + [
        importlib.import_module(f"trinomial.{path.stem}")
        for path in sorted(PACKAGE.glob("*.py"))
        if path.name != "__init__.py"
    ]
    public = [(m.__name__, name) for m in modules for name in getattr(m, "__all__", ())]
    assert len(modules) > 5 and set(PAPER_IDENTITIES) <= set(trinomial.__all__)
    assert [pair for pair in public if pair[1] not in used | set(PAPER_IDENTITIES)] == []


def test_readme_python_blocks_run_as_doctests() -> None:
    """Each ```python block of README.md, run as a doctest, prints what it shows."""
    readme = (PACKAGE.parents[1] / "README.md").read_text(encoding="utf-8")
    blocks = re.findall(r"^```python\n(.*?)^```$", readme, re.MULTILINE | re.DOTALL)
    parser, runner = doctest.DocTestParser(), doctest.DocTestRunner()
    for index, block in enumerate(blocks):
        runner.run(parser.get_doctest(block, {}, f"README.md[{index}]", "README.md", 0))
    failed, attempted = runner.summarize(verbose=False)
    assert blocks and attempted > 0
    assert failed == 0
