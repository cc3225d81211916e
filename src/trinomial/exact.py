"""Exact integer and rational arithmetic helpers.

Python ints already give arbitrary-precision integers, and every route in
the package stays in them, so this module only adds the pieces the rest of
the package leans on: division that fails loudly when a remainder would be
discarded, strict parsing of rational literals, and ``route``, the one guard
of the (lams, max_n) contract every registered route wears.  ``fractions.Fraction``
appears only for inputs that really are rational, such as a quadrature
point given as "1/4".  No floats are produced here.
"""

from __future__ import annotations

import re
from fractions import Fraction
from functools import wraps
from itertools import repeat
from operator import floordiv, mod
from typing import Callable, Sequence

__all__ = ["ExactnessError", "div_exact", "div_exact_each", "parse_rational", "route"]

_RATIONAL_RE = re.compile(r"([+-]?[0-9]+)(?:/([+-]?[0-9]+))?\Z")


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
    if b == 0:
        raise ZeroDivisionError("exact division by zero")
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
    """Parse "22/7" or "-123" into a normalized Fraction; "1/0" is a ValueError too."""
    m = _RATIONAL_RE.match(text)
    if not m:
        raise ValueError(f"not a rational literal: {text!r}")
    num = int(m.group(1))
    den_text = m.group(2)
    if den_text is None:
        return Fraction(num)
    den = int(den_text)
    if den == 0:
        raise ValueError(f"zero denominator in {text!r}")
    return Fraction(num, den)


Route = Callable[[range, int], list[list[int]]]


def route(body: Route) -> Route:
    """body(lams, max_n) behind the one contract of the registered routes (see
    methods): refuse a max_n that is no int >= 0 and lams that is no
    range(lo >= 0, hi) of step 1, run body on the live diagonals
    range(lo, min(hi, max_n + 1)) only, if any, and append the all-zero
    diagonals past max_n."""

    @wraps(body)
    def guarded(lams: range, max_n: int) -> list[list[int]]:
        if not isinstance(max_n, int):
            raise TypeError(f"max_n must be an int, got {max_n!r}")
        if max_n < 0:
            raise ValueError(f"max_n must be >= 0, got {max_n}")
        if type(lams) is not range or lams.start < 0 or lams.step != 1:
            raise ValueError(f"need range(lo >= 0, hi) of step 1, got {lams!r}")
        live = range(lams.start, min(lams.stop, max_n + 1))
        rows = body(live, max_n) if live else []
        return rows + [[0] * (max_n + 1) for _ in range(len(lams) - len(live))]

    return guarded
