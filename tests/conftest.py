from __future__ import annotations

import pytest

from trinomial import series


@pytest.fixture
def root_orders(monkeypatch) -> list[int]:
    """The order of every PowerSeries.sqrt call from here on, series caches cold."""
    orders: list[int] = []
    sqrt = series.PowerSeries.sqrt

    def counting(self: series.PowerSeries) -> series.PowerSeries:
        orders.append(self.order)
        return sqrt(self)

    monkeypatch.setattr(series.PowerSeries, "sqrt", counting)
    for cached in (series._root, series.gf_P, series.gf_nu, series.gf_Z):
        cached.cache_clear()
    return orders
