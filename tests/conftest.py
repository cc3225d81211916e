from __future__ import annotations

import sys
from typing import Any

import pytest

from trinomial import series


def package_caches() -> dict[str, Any]:
    """{module.qualname: cache} for every functools cache in the loaded trinomial modules.

    Caches are found, not listed: any module attribute with cache_clear and
    cache_info counts, looking through __wrapped__, so a new cache needs no
    test edits.
    """
    found: dict[str, Any] = {}
    for name, module in sorted(sys.modules.items()):
        if module is None or not (name == "trinomial" or name.startswith("trinomial.")):
            continue
        for obj in list(vars(module).values()):
            while obj is not None:
                if hasattr(obj, "cache_clear") and hasattr(obj, "cache_info"):
                    found[f"{obj.__module__}.{obj.__qualname__}"] = obj
                    break
                obj = getattr(obj, "__wrapped__", None)
    return found


@pytest.fixture(autouse=True)
def cold_caches() -> dict[str, Any]:
    """Every cache in the package, emptied: each test starts cold."""
    caches = package_caches()
    for cache in caches.values():
        cache.cache_clear()
    return caches


@pytest.fixture
def root_orders(monkeypatch, cold_caches) -> list[int]:
    """The order of every PowerSeries.sqrt call from here on, every cache cold."""
    orders: list[int] = []
    sqrt = series.PowerSeries.sqrt

    def counting(self: series.PowerSeries) -> series.PowerSeries:
        orders.append(self.order)
        return sqrt(self)

    monkeypatch.setattr(series.PowerSeries, "sqrt", counting)
    return orders
