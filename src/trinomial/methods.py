"""Uniform access to every route that computes a diagonal.

Each route is one public function of its own module, and all of them keep
one contract, enforced by the one guard exact.route they wear: a route takes
(lams, max_n) and returns z(0..max_n, lam) for each lam in lams, in one pass.
max_n keeps the index rule of exact.index; lams must be a range(lo, hi) of
step 1 with lo >= 0, else DomainError "need range(lo >= 0, hi) of step 1,
got range(0, 5, 2)".  The body behind a route computes z(lam..max_n, lam) for
lam <= max_n only; the guard checks each edge, z(lam, lam) = 1 and
z(lam + 1, lam) = lam + 1, and adds every zero.

Having one registry keeps the cross-checking honest: the CLI, the
benchmark, and the consistency tests all draw from the same table, so no
route can quietly drop out of the comparison.  No route takes another
route's output.

Only diagonal_values keeps results between calls, in one bounded cache;
first_mismatch bypasses it, so each comparison is a cold run of each route.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Optional

from . import diagonal_sums, differences, recurrences, series, triangle
from .exact import DomainError, Route, index

__all__ = [
    "METHOD_NAMES",
    "diagonal_values",
    "central_values",
    "first_mismatch",
]


_METHODS: dict[str, Route] = {
    "oracle": triangle.z_oracle_diagonals,
    "sum1": diagonal_sums.z_sum_form1,
    "sum2": diagonal_sums.z_sum_form2,
    "sum3": diagonal_sums.z_sum_form3,
    "ratio": diagonal_sums.z_ratio_diagonals,
    "recurrence": recurrences.z_recurrence_diagonals,
    "delta": differences.z_delta_diagonals,
    "series": series.z_series_diagonals,
}

METHOD_NAMES: tuple[str, ...] = tuple(_METHODS)


def _check_methods(names: list[str]) -> None:
    for name in names:
        if not isinstance(name, str):
            raise TypeError(f"method must be a str, got {name!r}")
        if name not in _METHODS:
            raise DomainError(f"unknown method {name!r}; choose from {METHOD_NAMES}")


@lru_cache(maxsize=16)
def _diagonal(method: str, lam: int, max_n: int) -> tuple[int, ...]:
    return tuple(_METHODS[method](range(lam, lam + 1), max_n)[0])


def diagonal_values(method: str, lam: int, max_n: int) -> list[int]:
    """z(0..max_n, lam) computed by the named method, as a new list."""
    _check_methods([method])
    index("lam", lam)
    index("max_n", max_n)
    return list(_diagonal(method, lam, max_n))


def central_values(method: str, max_n: int) -> list[int]:
    """p(0..max_n) computed by the named method."""
    return diagonal_values(method, 0, max_n)


def first_mismatch(
    max_n: int, methods: Optional[list[str]] = None
) -> Optional[tuple[str, int, int, int, int]]:
    """Compare every method against the oracle for all 0 <= lam <= n <= max_n.

    Each chosen method runs once over the whole range.  Returns None if
    everything agrees, otherwise (method, lam, n, got, expected) for the
    first disagreement, scanning lam by lam and, within one lam, the
    methods in the order given.  max_n keeps the index rule of exact.index, and
    methods, if given, is a nonempty list of names: a bare string is refused.
    """
    if methods is not None and (isinstance(methods, str) or not methods):
        raise DomainError(f"methods must be a nonempty list of method names, got {methods!r}")
    chosen = list(methods if methods is not None else METHOD_NAMES)
    _check_methods(chosen)  # before dict.fromkeys hashes the names
    index("max_n", max_n)
    lams = range(max_n + 1)
    # the oracle directly, so that only the chosen routes run through _METHODS
    reference = triangle.z_oracle_diagonals(lams, max_n)
    first = None
    for name in dict.fromkeys(chosen):
        if name == "oracle":
            continue
        for lam, (got, want) in enumerate(zip(_METHODS[name](lams, max_n), reference)):
            if got != want:
                # methods run in the given order, so an earlier method keeps a tie
                if first is None or lam < first[1]:
                    n = next(n for n in range(max_n + 1) if got[n] != want[n])
                    first = (name, lam, n, got[n], want[n])
                break
    return first

