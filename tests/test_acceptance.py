"""Acceptance sweep.

One test per acceptance criterion.  Each prints a single PASS/FAIL line
(visible with -s, or in the captured output on failure) and asserts, so
`pytest -v tests/test_acceptance.py` reads as the acceptance report.
"""

from __future__ import annotations

import math
import time
from typing import Optional

import trinomial as t
from identities import product_collapse_check, product_swap_check
from trinomial.exact import ExactnessError

P_KNOWN = [1, 1, 3, 7, 19, 51, 141, 393, 1107, 3139, 8953, 25653, 73789]

ROWS_0_TO_5 = [
    (1,),
    (1, 1, 1),
    (1, 2, 3, 2, 1),
    (1, 3, 6, 7, 6, 3, 1),
    (1, 4, 10, 16, 19, 16, 10, 4, 1),
    (1, 5, 15, 30, 45, 51, 45, 30, 15, 5, 1),
]


def _verdict(num: int, description: str, ok: bool, elapsed: Optional[float] = None) -> None:
    status = "PASS" if ok else "FAIL"
    timing = f" [{elapsed:.2f}s]" if elapsed is not None else ""
    print(f"{status} criterion {num}: {description}{timing}")
    assert ok, f"criterion {num} failed: {description}"


def test_criterion_01_expansion_rows() -> None:
    tri = t.build_triangle(5)
    ok = all(tri.row(n) == ROWS_0_TO_5[n] for n in range(6))
    _verdict(1, "rows 0..5 of the triangle match the reference table exactly", ok)


def test_criterion_02_central_values_every_method() -> None:
    start = time.perf_counter()
    ok = all(t.central_values(m, 12) == P_KNOWN for m in t.METHOD_NAMES)
    elapsed = time.perf_counter() - start
    _verdict(
        2,
        "p(0..12) exact by oracle, three sums, ratio, recurrence, delta, series in under 1 s",
        ok and elapsed < 1.0,
        elapsed,
    )


def test_criterion_03_term_ratio_tables() -> None:
    ok = t.z_term_ratio(6, 0) == (141, [1, 30, 90, 20]) and t.z_term_ratio(12, 0) == (
        73789,
        [1, 132, 2970, 18480, 34650, 16632, 924],
    )
    _verdict(3, "term-ratio tables for n=6 and n=12 match, terms and totals", ok)


def test_criterion_04_offset_one_recurrence() -> None:
    ok = t.recurrences.general_sequence(1, 6) == (0, 1, 2, 6, 16, 45, 126)
    _verdict(4, "first off-center diagonal 0,1,2,6,16,45,126 from its recurrence", ok)


def test_criterion_05_cross_method_consistency() -> None:
    start = time.perf_counter()
    ok = t.first_mismatch(200) is None
    tri = t.build_triangle(200)
    for lam in range(9):
        rec = t.recurrences.general_sequence(lam, 200)
        ser = t.gf_Z(lam, 200 + lam).coeffs
        for n in range(201):
            if not (rec[n] == ser[n + lam] == tri.coeff(n, n + lam)):
                ok = False
                break
    elapsed = time.perf_counter() - start
    _verdict(
        5,
        "all methods equal the oracle for lam <= n <= 200; recurrence and "
        "series extend to n = 200 for lam <= 8, in under 30 s",
        ok and elapsed < 30.0,
        elapsed,
    )


def test_criterion_06_generating_functions() -> None:
    ok = t.gf_P(60).coeffs == t.recurrences.general_sequence(0, 60)
    tri = t.build_triangle(60)
    for lam in range(9):
        ints = t.gf_Z(lam, 60).coeffs
        if any(ints[n + lam] != tri.coeff(n, n + lam) for n in range(61 - lam)):
            ok = False
    one_minus_x = t.polynomial([1, -1], 60)
    x2 = t.polynomial([0, 0, 1], 60)
    for lam in range(1, 9):
        if t.gf_Z(lam + 1, 60) != t.gf_Z(lam, 60) * one_minus_x - t.gf_Z(lam - 1, 60) * x2:
            ok = False
    _verdict(
        6,
        "P and Z[lam] reproduce the diagonals to order 60 and satisfy the "
        "scale relation Z[lam+1] = Z[lam](1-x) - Z[lam-1] x^2, exactly",
        ok,
    )


def test_criterion_07_shift_factor_equation() -> None:
    nu = t.gf_nu(60)
    ok = nu * t.polynomial([1, -1], 60) - t.polynomial([0, 0, 1], 60) == nu * nu
    _verdict(7, "nu(1-x) - x^2 = nu^2 holds exactly through order 60", ok)


def test_criterion_08_integral_representations() -> None:
    start = time.perf_counter()
    ok = True
    tri = t.build_triangle(15)
    for n in range(16):
        for lam in range(n + 1):
            exact = tri.coeff(n, n + lam)
            if abs(t.z_by_integral(n, lam).value - exact) > 1e-9 * exact:
                ok = False
    gf = t.gf_by_integral(0.25, tol=1e-10)
    if abs(gf.value - 4.0 / math.sqrt(5.0)) > 1e-10:
        ok = False
    for tenths in range(1, 10):
        for lam in range(9):
            if not t.b_identity_check(tenths / 10.0, lam, tol=1e-9):
                ok = False
    elapsed = time.perf_counter() - start
    _verdict(
        8,
        "z by quadrature to rel 1e-9 for lam <= n <= 15; P(1/4) = 4/sqrt(5) "
        "to 1e-10; closed Poisson-kernel forms for b = 0.1..0.9, lam <= 8; "
        "under 60 s",
        ok and elapsed < 60.0,
        elapsed,
    )


def test_criterion_09_fourier_identity() -> None:
    ok = all(t.fourier_decomposition_check(n) for n in range(13))
    _verdict(
        9,
        "(1+2cos phi)^n equals its diagonal cosine expansion at 64 angles, "
        "n <= 12, tol 1e-9",
        ok,
    )


def test_criterion_10_property_battery() -> None:
    tri = t.build_triangle(64)
    palindromic = all(tri.row(n) == tri.row(n)[::-1] for n in range(65))
    row_sums = all(sum(tri.row(n)) == 3**n for n in range(65))
    pascal = all(
        t.binomial.char(n, k) == t.binomial.char(n - 1, k - 1) + t.binomial.char(n - 1, k)
        for n in range(1, 65)
        for k in range(n + 1)
    )
    products = all(
        product_swap_check(n, a, b) and product_collapse_check(n, a, b)
        for n in range(25)
        for a in range(n + 1)
        for b in range(n + 1)
    )
    leading = all(t.leading_term_check(tri, n) for n in range(65))
    integrality = True
    try:
        for lam in range(13):
            t.diagonal_values("ratio", lam, 24)
            t.diagonal_values("recurrence", lam, 24)
            t.diagonal_values("delta", lam, 24)
            t.diagonal_values("series", lam, 24)
        t.diagonal_values("sum3", 0, 40)
    except ExactnessError:
        integrality = False
    ok = palindromic and row_sums and pascal and products and leading and integrality
    _verdict(
        10,
        "palindromes, 3^n row sums, Pascal rule, product identities to n=24, "
        "leading-term closed forms to n=64, and no integrality assertion fired",
        ok,
    )
