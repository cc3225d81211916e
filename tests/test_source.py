from __future__ import annotations

import ast
import contextlib
import doctest
import importlib
import io
import os
import re
import runpy
import subprocess
import sys
from pathlib import Path
from typing import Iterator

import trinomial
import trinomial.cli  # noqa: F401  (every module loaded, so every cache is found)
from trinomial import methods, quadrature, triangle
from trinomial.series import PowerSeries

PACKAGE = Path(trinomial.__file__).resolve().parent
DEMOS = sorted((PACKAGE.parents[1] / "demos").glob("*.py"))

CLASSES = (PowerSeries, triangle.TrinomialTriangle, quadrature.QuadratureResult)

# PowerSeries dunders kept without a caller in the package or the demos, each for
# its reason
UNCOUNTED_OPERATORS = {
    "__hash__": "equal series hash alike, as a value type must",
    "__repr__": "the unambiguous form a failing test or a debugger shows",
    "__setattr__": "immutability guard",
    "__delattr__": "immutability guard",
    "__truediv__": "perfbench's tracer counts it by name as series.div_calls",
    "__rmul__": "perfbench's tracer counts it by name as series.mul_calls",
}


def _loads(node: ast.AST, owners: tuple[str, ...] = ()) -> Iterator[tuple[ast.AST, str, tuple[str, ...]]]:
    # every name and attribute read below node, with the functions and classes it is
    # read inside
    if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
        owners += (node.name,)
    if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
        yield node, node.id, owners
    elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
        yield node, node.attr, owners
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


def _raised_index_rules(path: Path) -> list[int]:
    # the lines of the raise statements in path whose message spells out the index rule
    return [
        raised.lineno
        for raised in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(raised, ast.Raise)
        and any(
            isinstance(node, ast.Constant) and isinstance(node.value, str)
            and ("must be >= " in node.value or "must be an int" in node.value)
            for node in ast.walk(raised)
        )
    ]


def test_the_index_rule_is_written_once() -> None:
    """The index rule's two messages are raised in exact.py alone: every other
    module calls exact.index, the CLI too, with the option as the name."""
    found = [
        f"{path.name}:{line}"
        for path in sorted(PACKAGE.glob("*.py"))
        if path.name != "exact.py"
        for line in _raised_index_rules(path)
    ]
    assert len(_raised_index_rules(PACKAGE / "exact.py")) == 2
    assert found == []


def test_the_package_refuses_bad_input_with_domain_error_only() -> None:
    """cli.main reports a DomainError as exit 2 and lets any other ValueError
    through as a bug, so the package raises no bare ValueError of its own."""
    found = [
        f"{path.name}:{node.lineno}"
        for path in sorted(PACKAGE.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, ast.Raise) and isinstance(node.exc, ast.Call)
        and isinstance(node.exc.func, ast.Name) and node.exc.func.id == "ValueError"
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


def test_the_registry_holds_the_route_functions_themselves() -> None:
    """Each _METHODS entry is the public function of its own module, so a route
    call passes through exact.route's guard and no wrapper of the registry's."""
    for name, route in methods._METHODS.items():
        module = sys.modules[route.__module__]
        assert route.__name__ in module.__all__, name
        assert getattr(module, route.__name__) is route, name


def _read_names(kinds: tuple[type, ...] = (ast.Name, ast.Attribute)) -> set[str]:
    # every name or attribute the package (outside __init__.py) or a demo reads,
    # each outside the function or class that defines it
    sources = [path for path in PACKAGE.glob("*.py") if path.name != "__init__.py"]
    sources += DEMOS
    return {
        name
        for path in sources
        for node, name, owners in _loads(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, kinds) and name not in owners
    }


def test_every_public_name_has_a_caller() -> None:
    """A public helper whose only caller is its own test is not kept: each name in
    the __all__ of trinomial and of each of its modules is read by the package
    outside its own definition and __init__.py, or by a demo.  A read in
    __init__.py counts for nothing, so a name the namespace re-exports passes only
    as the next test allows.  No name is exempt; the paper's side identities that
    only tests check live in tests/identities.py."""
    used = _read_names()
    modules = [trinomial] + [
        importlib.import_module(f"trinomial.{path.stem}")
        for path in sorted(PACKAGE.glob("*.py"))
        if path.name != "__init__.py"
    ]
    public = [(m.__name__, name) for m in modules for name in getattr(m, "__all__", ())]
    assert len(modules) > 5
    assert [pair for pair in public if pair[1] not in used] == []


def _readme_blocks() -> list[str]:
    # the body of each ```python block of README.md
    readme = (PACKAGE.parents[1] / "README.md").read_text(encoding="utf-8")
    return re.findall(r"^```python\n(.*?)^```$", readme, re.MULTILINE | re.DOTALL)


def test_the_namespace_holds_only_what_the_demos_and_the_readme_import() -> None:
    """trinomial re-exports a name only if a demo or a README python block imports
    it from trinomial; every other public name is imported from its own module."""
    parser = doctest.DocTestParser()
    sources = [path.read_text(encoding="utf-8") for path in DEMOS]
    examples = [parser.get_examples(block) for block in _readme_blocks()]
    sources += ["".join(example.source for example in block) for block in examples]
    imported = {
        alias.name
        for source in sources
        for node in ast.walk(ast.parse(source))
        if isinstance(node, ast.ImportFrom) and node.module == "trinomial"
        for alias in node.names
    }
    assert DEMOS and "first_mismatch" in imported
    assert sorted(set(trinomial.__all__) - imported) == []


def test_every_public_class_member_has_a_reader() -> None:
    """The named public members (methods, properties, fields) of the package's
    classes are read as attributes, found the way the module-level names are."""
    used = _read_names((ast.Attribute,))
    members = [
        (cls.__name__, name) for cls in CLASSES for name in vars(cls) if not name.startswith("_")
    ]
    assert ("PowerSeries", "sqrt") in members and ("TrinomialTriangle", "coeff") in members
    assert [pair for pair in members if pair[1] not in used] == []


def test_every_series_operator_runs_in_the_demos_or_the_series_route(monkeypatch) -> None:
    """An operator is a dunder method, read by no attribute load, so each one is
    counted while the demos and the series route run, and each must run."""
    members = vars(PowerSeries)
    assert set(UNCOUNTED_OPERATORS) <= set(members)
    calls = {
        name: 0
        for name, member in members.items()
        if name.startswith("__") and callable(member) and name not in UNCOUNTED_OPERATORS
    }
    for name in calls:

        def counting(*args: object, _name: str = name, _operator=members[name]) -> object:
            calls[_name] += 1
            return _operator(*args)

        monkeypatch.setattr(PowerSeries, name, counting)
    with contextlib.redirect_stdout(io.StringIO()):
        for demo in DEMOS:
            runpy.run_path(str(demo), run_name="__main__")
    for lams in (range(0, 9), range(3, 6)):
        methods._METHODS["series"](lams, 8)
    assert {"__sub__", "__mul__", "__str__"} <= set(calls)
    assert [name for name, count in calls.items() if not count] == []


def test_readme_python_blocks_run_as_doctests() -> None:
    """Each ```python block of README.md, run as a doctest, prints what it shows."""
    blocks = _readme_blocks()
    parser, runner = doctest.DocTestParser(), doctest.DocTestRunner()
    for index, block in enumerate(blocks):
        runner.run(parser.get_doctest(block, {}, f"README.md[{index}]", "README.md", 0))
    failed, attempted = runner.summarize(verbose=False)
    assert blocks and attempted > 0
    assert failed == 0
