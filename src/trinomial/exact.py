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
    """Parse "22/7" or "-123" into a normalized Fraction; "1/0" is a DomainError too,
    and so is a numerator or denominator of more than 4300 digits."""
    m = _RATIONAL_RE.match(text)
    if not m:
        raise DomainError(f"not a rational literal: {text!r}")
    digits = max(len(part.lstrip("+-")) for part in m.groups(""))
    if digits > _MAX_DIGITS:
        raise DomainError(f"a numerator or denominator of {digits} digits, more than {_MAX_DIGITS}")
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
    range(lo >= 0, hi) of step 1, run body on the live diagonals
    range(lo, min(hi, max_n + 1)) only, if any, and append the all-zero
    diagonals past max_n."""

    @wraps(body)
    def guarded(lams: range, max_n: int) -> list[list[int]]:
        index("max_n", max_n)
        if type(lams) is not range or lams.start < 0 or lams.step != 1:
            raise DomainError(f"need range(lo >= 0, hi) of step 1, got {lams!r}")
        live = range(lams.start, min(lams.stop, max_n + 1))
        rows = body(live, max_n) if live else []
        return rows + [[0] * (max_n + 1) for _ in range(len(lams) - len(live))]

    return guarded
