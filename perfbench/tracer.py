"""Spans and counters around the public functions of every ``trinomial.*`` module.

``Tracer.install()`` wraps each public function (plus the ``PowerSeries``
operators) and rebinds the wrapper wherever the package holds the
original: module namespaces, dict-valued module attributes and closure
cells (the route registry in ``methods`` captures the sum forms in
closures).  ``uninstall()`` puts every original back.

* A span is (name, start_ns, end_ns, parent index); spans stay in memory
  until ``write_spans``.
* A layer is the module a function lives in; its self time is span time
  minus the time of the spans and timed leaves nested in it.
* ``methods.diagonal_values`` spans are keyed by their ``method``
  argument, and their inclusive time and output length are summed per
  route.
* ``char`` is too hot for spans: it gets a counter and a time that is
  charged to the binomial layer.  ``div_exact`` and ``as_integer`` only
  add to the ``exact.checks`` counter.
"""

from __future__ import annotations

import functools
import inspect
import json
from collections import Counter
from time import perf_counter_ns
from typing import Any, Callable

import coldcache

ROUTE_FUNCTION = "trinomial.methods.diagonal_values"
TIMED_LEAVES = {"trinomial.binomial.char": "binomial.char_calls"}
COUNTED_LEAVES = {"trinomial.exact.div_exact", "trinomial.exact.as_integer"}
SERIES_OPERATORS = {
    "__mul__": "series.mul_calls",
    "__rmul__": "series.mul_calls",
    "__truediv__": "series.div_calls",
    "sqrt": "series.sqrt_calls",
}
UNTRACED_MODULES = {"trinomial", "trinomial.cli"}


def _layer(module_name: str) -> str:
    return module_name.rpartition(".")[2]


class Tracer:
    def __init__(self) -> None:
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.spans: list[tuple[int, int, int, int]] = []
        self._stack: list[list[Any]] = []  # [span index, nested ns, layer]
        self.self_ns: Counter[str] = Counter()
        self.route_ns: Counter[str] = Counter()
        self.counts: Counter[str] = Counter()
        self.cache_hits: Counter[str] = Counter()
        self.cache_misses: Counter[str] = Counter()
        self._restore: list[Callable[[], None]] = []
        self.active = True  # False: wrappers pass calls straight through

    # -- recording -------------------------------------------------------

    def _name_id(self, name: str) -> int:
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    def _call(self, name: str, layer: str, route: str | None, fn: Callable, args, kwargs):
        if not self.active:
            return fn(*args, **kwargs)
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else None
        frame = [index, 0, layer]
        self._stack.append(frame)
        self.spans.append((0, 0, 0, 0))
        start = perf_counter_ns()
        try:
            return fn(*args, **kwargs)
        except Exception as exc:
            top_level = parent is None or parent[2] != layer
            if layer == "quadrature" and top_level and type(exc).__name__ == "QuadratureError":
                self.counts["quadrature.errors"] += 1
            raise
        finally:
            end = perf_counter_ns()
            self._stack.pop()
            took = end - start
            self.spans[index] = (self._name_id(name), start, end, -1 if parent is None else parent[0])
            self.self_ns[layer] += took - frame[1]
            if parent is not None:
                parent[1] += took
            if route is not None:
                self.route_ns[route] += took

    def _leaf(self, layer: str, counter: str, fn: Callable, args, kwargs):
        if not self.active:
            return fn(*args, **kwargs)
        start = perf_counter_ns()
        try:
            return fn(*args, **kwargs)
        finally:
            took = perf_counter_ns() - start
            self.self_ns[layer] += took
            if self._stack:
                self._stack[-1][1] += took
            self.counts[counter] += 1

    def absorb_cache_infos(self, infos: dict[str, Any]) -> None:
        for name, info in infos.items():
            self.cache_hits[name] += info.hits
            self.cache_misses[name] += info.misses

    # -- wrappers ----------------------------------------------------------

    def _wrap(self, qualified: str, fn: Callable) -> Callable:
        layer = _layer(qualified.rpartition(".")[0])
        tracer = self
        if qualified in COUNTED_LEAVES:
            counts = self.counts

            def wrapper(*args, **kwargs):
                if tracer.active:
                    counts["exact.checks"] += 1
                return fn(*args, **kwargs)

        elif qualified in TIMED_LEAVES:
            counter = TIMED_LEAVES[qualified]

            def wrapper(*args, **kwargs):
                return tracer._leaf(layer, counter, fn, args, kwargs)

        elif qualified == ROUTE_FUNCTION:

            def wrapper(method, *args, **kwargs):
                route = f"methods.{method}"
                result = tracer._call(f"{qualified}[{method}]", layer, route, fn, (method, *args), kwargs)
                if tracer.active:
                    tracer.counts[f"{route}.values"] += len(result)
                return result

        else:
            hook = _RESULT_HOOKS.get(qualified)

            def wrapper(*args, **kwargs):
                result = tracer._call(qualified, layer, None, fn, args, kwargs)
                if hook is not None and tracer.active:
                    hook(tracer.counts, result)
                return result

        return functools.wraps(fn)(wrapper)

    def install(self) -> None:
        """Wrap every public function of the loaded trinomial modules."""
        modules = coldcache.package_modules()
        replacements: dict[int, Callable] = {}
        for module in modules:
            if module.__name__ in UNTRACED_MODULES:
                continue
            for attr in getattr(module, "__all__", ()):
                obj = getattr(module, attr)
                if inspect.isclass(obj) or not callable(obj):
                    continue
                if getattr(obj, "__module__", None) != module.__name__:
                    continue
                replacements[id(obj)] = self._wrap(f"{module.__name__}.{attr}", obj)
        for module in modules:
            self._rebind_in(module, replacements)
        series = next((m for m in modules if m.__name__ == "trinomial.series"), None)
        if series is not None:
            self._wrap_series_operators(series.PowerSeries)

    def _rebind_in(self, module: Any, replacements: dict[int, Callable]) -> None:
        namespace = vars(module)
        for attr, value in list(namespace.items()):
            if id(value) in replacements:
                self._set(namespace, attr, replacements[id(value)])
            elif isinstance(value, dict):
                for key, item in list(value.items()):
                    if id(item) in replacements:
                        self._set(value, key, replacements[id(item)])
                    self._rebind_cells(item, replacements)
            else:
                self._rebind_cells(value, replacements)

    def _rebind_cells(self, fn: Any, replacements: dict[int, Callable]) -> None:
        for cell in getattr(fn, "__closure__", None) or ():
            try:
                value = cell.cell_contents
            except ValueError:  # empty cell
                continue
            if id(value) in replacements:
                cell.cell_contents = replacements[id(value)]
                self._restore.append(lambda cell=cell, value=value: setattr(cell, "cell_contents", value))

    def _set(self, mapping: dict, key: Any, value: Any) -> None:
        original = mapping[key]
        mapping[key] = value
        self._restore.append(lambda: mapping.__setitem__(key, original))

    def _wrap_series_operators(self, cls: type) -> None:
        for attr, counter in SERIES_OPERATORS.items():
            original = cls.__dict__[attr]
            name = f"trinomial.series.PowerSeries.{attr.strip('_')}"
            tracer = self

            def wrapper(*args, _fn=original, _name=name, _counter=counter, **kwargs):
                if tracer.active:
                    tracer.counts[_counter] += 1
                return tracer._call(_name, "series", None, _fn, args, kwargs)

            setattr(cls, attr, functools.wraps(original)(wrapper))
            self._restore.append(lambda attr=attr, original=original: setattr(cls, attr, original))

    def uninstall(self) -> None:
        while self._restore:
            self._restore.pop()()

    # -- output ------------------------------------------------------------

    def stats(self) -> dict[str, dict[str, int]]:
        """Aggregates that can be summed across processes."""
        return {
            "self_ns": dict(self.self_ns),
            "route_ns": dict(self.route_ns),
            "counts": dict(self.counts),
            "cache_hits": dict(self.cache_hits),
            "cache_misses": dict(self.cache_misses),
        }

    def merge(self, stats: dict[str, dict[str, int]]) -> None:
        for field in ("self_ns", "route_ns", "counts", "cache_hits", "cache_misses"):
            getattr(self, field).update(stats.get(field, {}))

    def write_spans(self, path) -> None:
        with open(path, "w", encoding="utf-8") as out:
            json.dump({"fields": ["name", "start_ns", "end_ns", "parent"], "names": self.names, "spans": self.spans}, out)


def _count_rows(counts: Counter, triangle: Any) -> None:
    counts["triangle.rows_built"] += len(triangle.rows)


def _count_panels(counts: Counter, result: Any) -> None:
    counts["quadrature.calls"] += 1
    counts["quadrature.panels_total"] += result.panels


_RESULT_HOOKS = {
    "trinomial.triangle.build_triangle": _count_rows,
    "trinomial.quadrature.integrate_0_pi": _count_panels,
}
