from __future__ import annotations

import random
from fractions import Fraction

import pytest

from trinomial.exact import (
    ExactnessError,
    decimal_string,
    div_exact,
    format_rational,
    parse_integer,
    parse_rational,
)


def test_div_exact_golden() -> None:
    # the arithmetic that carries one term of the ratio route into the next
    assert div_exact(18480 * (6 * 5), 4 * 4) == 34650


def test_div_exact_identity() -> None:
    for a in (-7, 0, 1, 123456789):
        assert div_exact(a, 1) == a


def test_div_exact_rejects_remainder() -> None:
    with pytest.raises(ExactnessError):
        div_exact(30, 4)


def test_div_exact_rejects_zero_divisor() -> None:
    with pytest.raises(ZeroDivisionError):
        div_exact(30, 0)


def test_div_exact_negative_operands() -> None:
    assert div_exact(-30, 5) == -6
    assert div_exact(30, -5) == -6
    assert div_exact(-30, -5) == 6


def test_integer_ops_closed_on_random_256_bit_operands() -> None:
    """+ and * on Python ints are the integer ring operations; check the
    ring laws hold at sizes far beyond machine words."""
    rng = random.Random(20260819)
    for _ in range(200):
        a, b, c = (rng.getrandbits(256) - (1 << 255) for _ in range(3))
        assert (a + b) + c == a + (b + c)
        assert (a * b) * c == a * (b * c)
        assert a * (b + c) == a * b + a * c
        assert a * 1 == a
        if c != 0:
            assert div_exact(a * c, c) == a


def test_fraction_normalization() -> None:
    q = Fraction(4, -8)
    assert (q.numerator, q.denominator) == (-1, 2)
    assert Fraction(2 * 6 * 10, 1 * 2 * 3) == Fraction(20, 1)


def test_rational_round_trip() -> None:
    rng = random.Random(7)
    for _ in range(100):
        p = Fraction(rng.randint(-999, 999), rng.randint(1, 999))
        r = Fraction(rng.randint(-999, 999), rng.randint(1, 999))
        assert (p + r) - r == p
        if r != 0:
            assert (p / r) * r == p


@pytest.mark.parametrize("text,value", [("0", 0), ("-123", -123), ("+7", 7)])
def test_parse_integer(text: str, value: int) -> None:
    assert parse_integer(text) == value


@pytest.mark.parametrize("bad", ["", "1.5", "1_0", " 3", "3 ", "0x10", "1/2"])
def test_parse_integer_rejects(bad: str) -> None:
    with pytest.raises(ValueError):
        parse_integer(bad)


def test_parse_rational() -> None:
    assert parse_rational("22/7") == Fraction(22, 7)
    assert parse_rational("-123") == Fraction(-123)
    assert parse_rational("4/-8") == Fraction(-1, 2)
    with pytest.raises(ZeroDivisionError):
        parse_rational("1/0")
    with pytest.raises(ValueError):
        parse_rational("1//2")


def test_format_rational() -> None:
    assert format_rational(Fraction(22, 7)) == "22/7"
    assert format_rational(Fraction(-123)) == "-123"
    assert format_rational(Fraction(4, -8)) == "-1/2"


def test_parse_format_round_trip() -> None:
    rng = random.Random(11)
    for _ in range(100):
        q = Fraction(rng.randint(-10**9, 10**9), rng.randint(1, 10**9))
        assert parse_rational(format_rational(q)) == q


def test_decimal_string() -> None:
    assert decimal_string(Fraction(22, 7), 6) == "3.142857"
    assert decimal_string(Fraction(-1, 2), 3) == "-0.500"
    assert decimal_string(Fraction(5), 0) == "5"
    assert decimal_string(Fraction(1, 8), 2) == "0.12"  # ties to even
    with pytest.raises(ValueError):
        decimal_string(Fraction(1), -1)
