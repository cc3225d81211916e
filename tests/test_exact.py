from __future__ import annotations

import math
import os
import random
import re
import subprocess
import sys
from fractions import Fraction
from pathlib import Path
from typing import Callable, Optional

import pytest

import trinomial
from trinomial import binomial, diagonal_sums, differences, methods, quadrature, recurrences, series, triangle
from trinomial.exact import ExactnessError, div_exact, div_exact_each, index, parse_rational


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


def test_index_passes_an_int_at_or_above_its_bound_through() -> None:
    assert index("n", 0) == 0
    assert index("lam", 1, 1) == 1
    assert index("lam", -5, None) == -5
    assert index("max_n", True) is True  # a bool is an int


@pytest.mark.parametrize("value", [2.0, "2", Fraction(2), None])
def test_index_refuses_what_is_no_int_naming_it(value: object) -> None:
    with pytest.raises(TypeError, match=f"^n must be an int, got {re.escape(repr(value))}$"):
        index("n", value)


# Every public entry point with an integer argument, called with valid arguments,
# then with one of them broken: (function, valid arguments, position of the
# broken one, its name, its bound, or None where any int passes the rule: char's
# lam, or an index whose domain is a compound check of its own)
_INDEXED: list[tuple[Callable, tuple, int, str, Optional[int]]] = [
    (triangle.z_oracle_diagonals, (range(2), 3), 1, "max_n", 0),  # exact.route
    (methods.diagonal_values, ("delta", 1, 3), 1, "lam", 0),
    (methods.diagonal_values, ("delta", 1, 3), 2, "max_n", 0),
    (methods.central_values, ("sum1", 2), 1, "max_n", 0),
    (methods.first_mismatch, (2,), 0, "max_n", 0),
    (binomial.char, (4, 2), 0, "n", 0),
    (binomial.char, (4, 2), 1, "lam", None),
    (triangle.build_triangle, (3,), 0, "max_n", 0),  # triangle._rows
    (triangle.row, (3,), 0, "n", 0),
    (triangle.build_triangle(3).row, (2,), 0, "n", None),  # IndexError outside 0..max_n
    (triangle.build_triangle(3).coeff, (2, 1), 0, "n", None),
    (triangle.build_triangle(3).coeff, (2, 1), 1, "k", None),  # 0 outside 0..2n
    (triangle.leading_term_check, (triangle.build_triangle(3), 2), 1, "n", None),
    (recurrences.general_sequence, (1, 5), 0, "lam", 0),
    (recurrences.general_sequence, (1, 5), 1, "max_n", 0),
    (diagonal_sums.z_term_ratio, (4, 2), 0, "n", 0),
    (diagonal_sums.z_term_ratio, (4, 2), 1, "lam", 0),
    (differences.delta_expansion_coefficients, (3,), 0, "lam", 1),
    (series.polynomial, ([1], 2), 1, "order", 0),
    (series.gf_Z, (1, 3), 0, "lam", 0),
    (series.gf_Z, (1, 3), 1, "order", 0),
    (series.gf_P, (3,), 0, "order", 0),
    (series.gf_nu, (3,), 0, "order", 0),
    (quadrature.integrate_0_pi, (math.cos, 4), 1, "panels", 1),
    (quadrature.z_by_integral, (4, 2), 0, "n", None),
    (quadrature.z_by_integral, (4, 2), 1, "lam", None),
    (quadrature.fourier_decomposition_check, (4,), 0, "n", None),
    (quadrature.b_identity_check, (0.5, 2), 1, "lam", 0),
    (quadrature.b_reduction_chain_check, (0.5, 2), 1, "max_lambda", 1),
]


def _with(args: tuple, position: int, value: object) -> tuple:
    return args[:position] + (value,) + args[position + 1 :]


@pytest.mark.parametrize(
    "function,args,position,name,lo", _INDEXED, ids=[f"{row[0].__qualname__}-{row[3]}" for row in _INDEXED]
)
def test_every_entry_point_keeps_the_index_rule(
    function: Callable, args: tuple, position: int, name: str, lo: Optional[int]
) -> None:
    """A float index is refused naming it, where char(4.0, 2) once answered 6.0
    and a sum for p(n) gave 19.0 at n = 4.0, and first_mismatch(2.0) raised a
    TypeError that named nothing; an int below the bound gets the common ValueError."""
    function(*args)
    float_value = float(args[position])
    with pytest.raises(TypeError, match=f"^{name} must be an int, got {float_value!r}$"):
        function(*_with(args, position, float_value))
    if lo is not None:
        with pytest.raises(ValueError, match=f"^{name} must be >= {lo}, got {lo - 1}$"):
            function(*_with(args, position, lo - 1))


def test_a_warm_cache_does_not_let_a_float_index_through() -> None:
    assert series.gf_Z(1, 3).coeffs == (0, 0, 1, 2)
    with pytest.raises(TypeError, match="^order must be an int, got 3.0$"):
        series.gf_Z(1, 3.0)
    with pytest.raises(TypeError, match="^lam must be an int, got 1.0$"):
        series.gf_Z(1.0, 3)
