"""Uniform access to every route that computes a diagonal.

Each route is one public function of its own module, and all of them keep
one contract, enforced by the one guard exact.route they wear: a route takes
(lams, max_n) and returns z(0..max_n, lam) for each lam in lams, in one pass.
max_n must be an int >= 0, else TypeError, or ValueError "max_n must be >= 0,
got -1"; lams must be a range(lo, hi) of step 1 with lo >= 0, else ValueError
"need range(lo >= 0, hi) of step 1, got range(0, 5, 2)".  A diagonal past
max_n is all zeros, and its route body never sees it.

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
from .exact import Route

__all__ = [
    "METHOD_NAMES",
    "diagonal_values",
    "central_values",
    "first_mismatch",
]


def _by_form(form: Route) -> Route:
    # a closure over a public route function, not the function itself: perfbench's
    # tracer and its tests reach the function through this cell
    def values(lams: range, max_n: int) -> list[list[int]]:
        return form(lams, max_n)

    return values


_METHODS: dict[str, Route] = {
    "oracle": _by_form(triangle.z_oracle_diagonals),
    "sum1": _by_form(diagonal_sums.z_sum_form1),
    "sum2": _by_form(diagonal_sums.z_sum_form2),
    "sum3": _by_form(diagonal_sums.z_sum_form3),
    "ratio": _by_form(diagonal_sums.z_ratio_diagonals),
    "recurrence": _by_form(recurrences.z_recurrence_diagonals),
    "delta": _by_form(differences.z_delta_diagonals),
    "series": _by_form(series.z_series_diagonals),
}

METHOD_NAMES: tuple[str, ...] = tuple(_METHODS)


def _check_methods(names: list[str]) -> None:
    for name in names:
        if name not in _METHODS:
            raise ValueError(f"unknown method {name!r}; choose from {METHOD_NAMES}")


@lru_cache(maxsize=16, typed=True)  # typed: 3.0 reaches the route's refusal even after 3
def _diagonal(method: str, lam: int, max_n: int) -> tuple[int, ...]:
    return tuple(_METHODS[method](range(lam, lam + 1), max_n)[0])


def diagonal_values(method: str, lam: int, max_n: int) -> list[int]:
    """z(0..max_n, lam) computed by the named method, as a new list."""
    _check_methods([method])
    if lam < 0:
        raise ValueError(f"lam must be >= 0, got {lam}")
    if max_n < 0:
        raise ValueError(f"max_n must be >= 0, got {max_n}")
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
    methods in the order given.  A negative max_n raises ValueError.
    """
    chosen = list(dict.fromkeys(methods if methods is not None else METHOD_NAMES))
    _check_methods(chosen)
    lams = range(max_n + 1)
    # the oracle directly, so that only the chosen routes run through _METHODS
    reference = triangle.z_oracle_diagonals(lams, max_n)
    first = None
    for name in chosen:
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

