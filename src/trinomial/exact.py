"""Exact integer and rational arithmetic helpers.

Python ints already give arbitrary-precision integers, and every route in
the package stays in them, so this module only adds the pieces the rest of
the package leans on: division that fails loudly when a remainder would be
discarded, and strict decimal parsing/printing.  ``fractions.Fraction``
appears only for inputs that really are rational, such as a quadrature
point given as "1/4".  No floats are produced here.
"""

from __future__ import annotations

import re
from fractions import Fraction

__all__ = [
    "ExactnessError",
    "div_exact",
    "parse_integer",
    "parse_rational",
    "format_rational",
    "decimal_string",
]

_INTEGER_RE = re.compile(r"[+-]?[0-9]+\Z")
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


def parse_integer(text: str) -> int:
    """Parse a plain decimal integer like "-123".

    Stricter than int(): no whitespace, no underscores, no base prefixes.
    """
    if not _INTEGER_RE.match(text):
        raise ValueError(f"not a decimal integer: {text!r}")
    return int(text)


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


def format_rational(q: Fraction) -> str:
    """Render a Fraction as "n/d", or plain "n" when the value is integral."""
    if q.denominator == 1:
        return str(q.numerator)
    return f"{q.numerator}/{q.denominator}"


def decimal_string(q: Fraction, digits: int) -> str:
    """Render q rounded to `digits` decimal places (ties to even, exactly).

    The rounding happens in integer arithmetic, so the result is correct
    for any magnitude.
    """
    if digits < 0:
        raise ValueError("digits must be >= 0")
    scaled = round(q * 10**digits)  # round() on Fraction is exact, half-to-even
    sign = "-" if scaled < 0 else ""
    body = str(abs(scaled)).rjust(digits + 1, "0")
    if digits == 0:
        return sign + body
    return f"{sign}{body[:-digits]}.{body[-digits:]}"
