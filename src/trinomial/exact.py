"""Exact integer and rational arithmetic helpers.

Python ints already give arbitrary-precision integers, and every route in
the package stays in them, so this module only adds the pieces the rest of
the package leans on: division that fails loudly when a remainder would be
discarded, strict parsing of rational literals, two argument rules, and
DomainError, which every refusal of bad input raises.
``index`` is the one index rule of every public entry point: an index that
is no int raises TypeError "n must be an int, got 4.0", and one below its
bound, 0 unless stated, raises DomainError "n must be >= 0, got -1".  ``route``
is the one guard of the (lams, max_n) contract every registered route wears.
``fractions.Fraction`` appears only for inputs that really are rational, such
as a quadrature point given as "1/4".  No floats are produced here.
"""

from __future__ import annotations

import re
import sys
from fractions import Fraction
from functools import wraps
from itertools import repeat
from operator import floordiv, mod
from typing import Callable, Optional, Sequence

__all__ = ["DomainError", "ExactnessError", "div_exact", "div_exact_each", "parse_rational", "index", "route"]

_RATIONAL_RE = re.compile(r"([+-]?[0-9]+)(?:/([+-]?[0-9]+))?\Z")
_MAX_DIGITS = 4300  # CPython's default int(str) limit, kept where a caller lifts it


class DomainError(ValueError):
    """Bad input: an argument outside the domain the package documents for it.
    The CLI reports it, and no other ValueError, as exit 2."""


class ExactnessError(ArithmeticError):
    """An exact identity the code relies on failed, typically a division
    that must stay in the integers produced a remainder.

    This always signals a bug in the caller (a formula whose divisibility
    guarantee was violated), never bad user input.
    """


def div_exact(a: int, b: int) -> int:
    """Return a // b, raising unless b divides a exactly.

    Raises ZeroDivisionError for b == 0 and ExactnessError when the
    division would leave a remainder.
    """
    q, r = divmod(a, b)
    if r != 0:
        raise ExactnessError(f"{a} is not divisible by {b}")
    return q


def div_exact_each(values: Sequence[int], divisor: int) -> list[int]:
    """[a // divisor for each a], raising unless divisor divides every a.

    One pass for a batch of exact steps, such as one ratio step over
    every n, every value still checked.  Raises ZeroDivisionError for a
    zero divisor and ExactnessError naming the first value that leaves a
    remainder.
    """
    if any(map(mod, values, repeat(divisor))):
        a = next(a for a in values if a % divisor)
        raise ExactnessError(f"{a} is not divisible by {divisor}")
    return list(map(floordiv, values, repeat(divisor)))


def parse_rational(text: str) -> Fraction:
    """Parse "22/7" or "-123" into a normalized Fraction; "1/0" is a DomainError too, and
    so is a numerator or denominator past 4300 digits or a lower int(str) digit limit."""
    m = _RATIONAL_RE.match(text)
    if not m:
        raise DomainError(f"not a rational literal: {text!r}")
    digits = max(len(part.lstrip("+-")) for part in m.groups(""))
    limit = sys.get_int_max_str_digits() if hasattr(sys, "get_int_max_str_digits") else 0  # 0: none
    cap = min(_MAX_DIGITS, limit or _MAX_DIGITS)
    if digits > cap:
        raise DomainError(f"a numerator or denominator of {digits} digits, more than {cap}")
    den = int(m.group(2) or 1)
    if den == 0:
        raise DomainError(f"zero denominator in {text!r}")
    return Fraction(int(m.group(1)), den)


def index(name: str, value: int, lo: Optional[int] = 0) -> int:
    """value, if it keeps the index rule: an int (a bool is one) >= lo, or any
    int for lo None; else the rule's TypeError or DomainError, naming name."""
    if not isinstance(value, int):
        raise TypeError(f"{name} must be an int, got {value!r}")
    if lo is not None and value < lo:
        raise DomainError(f"{name} must be >= {lo}, got {value}")
    return value


Route = Callable[[range, int], list[list[int]]]


def route(body: Route) -> Route:
    """body(lams, max_n) behind the one contract of the registered routes (see
    methods): refuse a max_n that breaks the index rule and lams that is no
    range(lo >= 0, hi) of step 1, run body on the live lams <= max_n only, check
    that it returns z(lam..max_n, lam) for each, with z(lam, lam) = 1 and, below
    max_n, z(lam + 1, lam) = lam + 1, else ExactnessError, and add every zero."""

    @wraps(body)
    def guarded(lams: range, max_n: int) -> list[list[int]]:
        index("max_n", max_n)
        if type(lams) is not range or lams.start < 0 or lams.step != 1:
            raise DomainError(f"need range(lo >= 0, hi) of step 1, got {lams!r}")
        live = range(lams.start, min(lams.stop, max_n + 1))
        rows = body(live, max_n) if live else []
        if [len(row) for row in rows] != [max_n + 1 - lam for lam in live]:
            raise ExactnessError(f"{body.__name__} did not return z(lam..{max_n}, lam) for lam in {live}")
        for lam, row in zip(live, rows):
            if row[0] != 1:
                raise ExactnessError(f"{body.__name__}: z({lam}, {lam}) = {row[0]}, not 1")
            if lam < max_n and row[1] != lam + 1:
                raise ExactnessError(f"{body.__name__}: z({lam + 1}, {lam}) = {row[1]}, not {lam + 1}")
        padded = [[0] * lam + row for lam, row in zip(live, rows)]
        return padded + [[0] * (max_n + 1) for _ in lams[len(live) :]]

    return guarded
