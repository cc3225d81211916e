"""Empty every functools cache in the loaded ``trinomial.*`` modules.

Caches are found, not listed: any module attribute with ``cache_clear``
and ``cache_info`` counts, looking through ``__wrapped__`` so a function
the tracer has wrapped still exposes its cache.  A new cache in the
package is therefore reset without touching this file.
"""

from __future__ import annotations

import sys
from typing import Any


def package_modules() -> list[Any]:
    return [
        module
        for name, module in sorted(sys.modules.items())
        if module is not None and (name == "trinomial" or name.startswith("trinomial."))
    ]


def find_caches() -> dict[str, Any]:
    """{module.qualname: cache} for every distinct cache in the package."""
    found: dict[str, Any] = {}
    seen: set[int] = set()
    for module in package_modules():
        for obj in list(vars(module).values()):
            while obj is not None:
                if hasattr(obj, "cache_clear") and hasattr(obj, "cache_info"):
                    if id(obj) not in seen:
                        seen.add(id(obj))
                        found[f"{obj.__module__}.{obj.__qualname__}"] = obj
                    break
                obj = getattr(obj, "__wrapped__", None)
    return found


def cache_infos() -> dict[str, Any]:
    return {name: cache.cache_info() for name, cache in find_caches().items()}


def reset_caches() -> dict[str, Any]:
    """Clear every cache; return each one's cache_info() from before.

    Raises RuntimeError if any cache is still non-empty afterwards.
    """
    caches = find_caches()
    before = {name: cache.cache_info() for name, cache in caches.items()}
    for cache in caches.values():
        cache.cache_clear()
    left = {name: c.cache_info().currsize for name, c in caches.items() if c.cache_info().currsize}
    if left:
        raise RuntimeError(f"caches not empty after reset: {left}")
    return before
