from __future__ import annotations

import os
import random
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

import trinomial
from trinomial.exact import ExactnessError, div_exact, div_exact_each, parse_rational


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


def test_div_exact_each_matches_div_exact() -> None:
    quotients = [34650, -6, 0, -1, 10**40]
    for divisor in (16, 5, 9, -7, 3):
        values = [q * divisor for q in quotients]
        assert div_exact_each(values, divisor) == [div_exact(a, divisor) for a in values]
    assert div_exact_each([], 4) == []


@pytest.mark.parametrize("bad", [0, 3, 6])
def test_div_exact_each_rejects_one_remainder_anywhere(bad: int) -> None:
    # first, middle and last position of a row of seven
    values = [k * 6 for k in range(1, 8)]
    values[bad] += 1
    with pytest.raises(ExactnessError, match=f"^{values[bad]} is not divisible by 6$"):
        div_exact_each(values, 6)


def test_div_exact_each_rejects_zero_divisor() -> None:
    with pytest.raises(ZeroDivisionError):
        div_exact_each([4, 30, 8], 0)


def test_div_exact_each_raises_under_python_O() -> None:
    """The check is no assert: python -O, which strips asserts, still raises."""
    src = str(Path(trinomial.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=src)
    code = (
        "from trinomial.exact import ExactnessError, div_exact_each\n"
        "try:\n"
        "    div_exact_each([6, 7, 8], 2)\n"
        "except ExactnessError as exc:\n"
        "    print('raised', exc)\n"
    )
    child = subprocess.run(
        [sys.executable, "-O", "-c", code], capture_output=True, text=True, env=env, timeout=60, check=True
    )
    assert child.stdout == "raised 7 is not divisible by 2\n"


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
def test_parse_rational_integer_literals(text: str, value: int) -> None:
    assert parse_rational(text) == value


@pytest.mark.parametrize("bad", ["", "1.5", "1_0", " 3", "3 ", "0x10"])
def test_parse_rational_rejects(bad: str) -> None:
    # stricter than int() and Fraction(): no whitespace, underscores or prefixes
    with pytest.raises(ValueError):
        parse_rational(bad)


def test_parse_rational() -> None:
    assert parse_rational("22/7") == Fraction(22, 7)
    assert parse_rational("-123") == Fraction(-123)
    assert parse_rational("4/-8") == Fraction(-1, 2)
    with pytest.raises(ValueError, match="zero denominator in '1/0'"):  # bad input, like any literal
        parse_rational("1/0")
    with pytest.raises(ValueError):
        parse_rational("1//2")


def test_parse_format_round_trip() -> None:
    rng = random.Random(11)
    for _ in range(100):
        q = Fraction(rng.randint(-10**9, 10**9), rng.randint(1, 10**9))
        assert parse_rational(str(q)) == q
