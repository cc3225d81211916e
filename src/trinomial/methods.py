"""Uniform access to every route that computes a diagonal.

Each route takes (lams, max_n) and returns z(0..max_n, lam) for every lam
in the range lams, in one pass over the range.  Having one registry keeps
the cross-checking honest: the CLI, the benchmark, and the consistency
tests all draw from the same table, so no route can quietly drop out of
the comparison.  No route takes another route's output.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Callable, Optional

from . import binomial, diagonal_sums, differences, recurrences, series, triangle

__all__ = [
    "METHOD_NAMES",
    "diagonal_values",
    "central_values",
    "first_mismatch",
    "clear_caches",
]

Route = Callable[[range, int], list[list[int]]]


@lru_cache(maxsize=4)
def _shared_triangle(max_n: int) -> triangle.TrinomialTriangle:
    return triangle.build_triangle(max_n)


@lru_cache(maxsize=4)
def _central_base(max_n: int) -> tuple[int, ...]:
    return recurrences.central_sequence(max_n).values


def _by_oracle(lams: range, max_n: int) -> list[list[int]]:
    tri = _shared_triangle(max_n)
    return [[tri.coeff(n, n + lam) for n in range(max_n + 1)] for lam in lams]


def _by_sum(form: Callable[[int, int], int]) -> Route:
    def values(lams: range, max_n: int) -> list[list[int]]:
        return [[form(n, lam) for n in range(max_n + 1)] for lam in lams]

    return values


def _by_ratio(lams: range, max_n: int) -> list[list[int]]:
    return [[diagonal_sums.z_term_ratio(n, lam)[0] for n in range(max_n + 1)] for lam in lams]


def _by_recurrence(lams: range, max_n: int) -> list[list[int]]:
    return [list(recurrences.general_sequence(lam, max_n).values) for lam in lams]


def _by_delta(lams: range, max_n: int) -> list[list[int]]:
    # The difference formulas express diagonal lam through the central
    # column, so lam = 0 is the central column itself.
    base = _central_base(max_n + lams[-1])
    table = differences.build_difference_table(base, lams[-1])
    return [
        differences.z_from_differences(table, lam, max_n) if lam else list(base[: max_n + 1])
        for lam in lams
    ]


def _by_series(lams: range, max_n: int) -> list[list[int]]:
    # Z[lam] starts at x^(2 lam), so entries with n < lam come out zero
    # without special-casing.  One order serves the whole range; each
    # further diagonal is one more factor of nu.
    order = max_n + lams[-1]
    z = series.gf_Z(lams[0], order)
    rows = []
    for lam in lams:
        if lam > lams[0]:
            z = z * series.gf_nu(order)
        rows.append(list(z.coeffs[lam : lam + max_n + 1]))
    return rows


_METHODS: dict[str, Route] = {
    "oracle": _by_oracle,
    "sum1": _by_sum(diagonal_sums.z_sum_form1),
    "sum2": _by_sum(diagonal_sums.z_sum_form2),
    "sum3": _by_sum(diagonal_sums.z_sum_form3),
    "ratio": _by_ratio,
    "recurrence": _by_recurrence,
    "delta": _by_delta,
    "series": _by_series,
}

METHOD_NAMES: tuple[str, ...] = tuple(_METHODS)


def _check_methods(names: list[str]) -> None:
    for name in names:
        if name not in _METHODS:
            raise ValueError(f"unknown method {name!r}; choose from {METHOD_NAMES}")


def diagonal_values(method: str, lam: int, max_n: int) -> list[int]:
    """z(0..max_n, lam) computed by the named method."""
    _check_methods([method])
    if lam < 0:
        raise ValueError(f"lam must be >= 0, got {lam}")
    if max_n < 0:
        raise ValueError(f"max_n must be >= 0, got {max_n}")
    return _METHODS[method](range(lam, lam + 1), max_n)[0]


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
    methods in the order given.
    """
    chosen = list(dict.fromkeys(methods if methods is not None else METHOD_NAMES))
    _check_methods(chosen)
    if max_n < 0:
        return None
    lams = range(max_n + 1)
    reference = _by_oracle(lams, max_n)
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


def clear_caches() -> None:
    """Drop memoized binomials, triangles, central columns, and generating
    functions.

    The benchmark calls this so timings measure work, not cache hits.
    """
    binomial._char_in_range.cache_clear()
    _shared_triangle.cache_clear()
    _central_base.cache_clear()
    series.gf_P.cache_clear()
    series.gf_nu.cache_clear()
    series.gf_Z.cache_clear()
