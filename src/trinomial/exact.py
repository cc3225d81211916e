"""Exact integer and rational arithmetic helpers.

Python ints already give arbitrary-precision integers, and every route in
the package stays in them, so this module only adds the pieces the rest of
the package leans on: division that fails loudly when a remainder would be
discarded, and strict parsing of rational literals.  ``fractions.Fraction``
appears only for inputs that really are rational, such as a quadrature
point given as "1/4".  No floats are produced here.
"""

from __future__ import annotations

import re
from fractions import Fraction
from itertools import repeat
from operator import floordiv, mod
from typing import Sequence

__all__ = ["ExactnessError", "div_exact", "div_exact_each", "parse_rational"]

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
    """Parse "22/7" or "-123" into a normalized Fraction."""
    m = _RATIONAL_RE.match(text)
    if not m:
        raise ValueError(f"not a rational literal: {text!r}")
    num = int(m.group(1))
    den_text = m.group(2)
    if den_text is None:
        return Fraction(num)
    den = int(den_text)
    if den == 0:
        raise ZeroDivisionError(f"zero denominator in {text!r}")
    return Fraction(num, den)

