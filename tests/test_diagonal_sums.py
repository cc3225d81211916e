from __future__ import annotations

import math

import pytest

from trinomial import diagonal_sums
from trinomial.binomial import char
from trinomial.diagonal_sums import (
    z_sum_form1,
    z_sum_form2,
    z_sum_form3,
    z_ratio_diagonals,
    z_term_ratio,
)
from trinomial.exact import ExactnessError, div_exact, div_exact_each
from trinomial.triangle import build_triangle

P_KNOWN = [1, 1, 3, 7, 19, 51, 141, 393, 1107, 3139, 8953, 25653, 73789]

_TRI = build_triangle(300)


def _z(n: int, lam: int) -> int:
    return _TRI.coeff(n, n + lam)


@pytest.mark.parametrize("form", [z_sum_form1, z_sum_form2, z_sum_form3])
def test_sum_forms_match_oracle_exhaustive(form) -> None:
    # every table size, and every diagonal of it, for n < 25
    for max_n in range(25):
        rows = form(range(max_n + 1), max_n)
        assert len(rows) == max_n + 1
        for lam, row in enumerate(rows):
            assert row == [_z(n, lam) for n in range(max_n + 1)], (form.__name__, max_n, lam)


@pytest.mark.parametrize("form", [z_sum_form1, z_sum_form2, z_sum_form3])
def test_sum_forms_central_golden(form) -> None:
    assert form(range(1), 12) == [P_KNOWN]


@pytest.mark.parametrize("form", [z_sum_form1, z_sum_form2, z_sum_form3])
def test_sum_forms_above_diagonal_are_zero(form) -> None:
    # lam up to n + 3: inside the table (the stop-at-zero rules) and past it
    for max_n in range(8):
        rows = form(range(max_n + 4), max_n)
        for n in range(max_n + 1):
            for lam in range(n + 1, n + 4):
                assert rows[lam][n] == 0, (max_n, n, lam)
    assert form(range(1200, 1202), 5) == [[0] * 6, [0] * 6]


@pytest.mark.parametrize("form", [z_sum_form1, z_sum_form2, z_sum_form3, z_term_ratio])
def test_negative_indices_rejected(form) -> None:
    # z_term_ratio takes one (n, lam); the sum forms take (lams, max_n)
    bad_n, bad_lam = ((-1, 0), (3, -1)) if form is z_term_ratio else ((range(1), -1), (range(-1, 2), 3))
    with pytest.raises(ValueError):
        form(*bad_n)
    with pytest.raises(ValueError):
        form(*bad_lam)


@pytest.fixture
def char_calls(monkeypatch) -> list[tuple[int, int]]:
    """Every char call the sum forms make from here on, every cache cold."""
    calls: list[tuple[int, int]] = []

    def counting(n: int, lam: int) -> int:
        calls.append((n, lam))
        return char(n, lam)

    monkeypatch.setattr(diagonal_sums, "char", counting)
    return calls


@pytest.mark.parametrize("form", [z_sum_form1, z_sum_form2, z_sum_form3])
def test_one_cold_sum_route_calls_char_once_per_table_entry(form, char_calls) -> None:
    form(range(41), 40)
    assert len(char_calls) <= 41 * 42 // 2
    assert len(set(char_calls)) == len(char_calls)


@pytest.mark.parametrize("form", [z_sum_form1, z_sum_form2, z_sum_form3])
def test_deep_diagonal_asks_char_only_for_what_it_reads(form, char_calls) -> None:
    # the table has 45451 entries; diagonal 290 reads a few per n
    rows = form(range(290, 291), 300)
    assert rows == [[_z(n, 290) for n in range(301)]]
    assert len(char_calls) <= 2 * 301


def _z_comb(n: int, lam: int) -> int:
    # form 1's double sum in math.comb, independent of the package's binomials
    return sum(math.comb(n, a) * math.comb(n - a, lam + a) for a in range(n + 1))


def _entries(max_n: int) -> int:
    return sum(map(len, diagonal_sums._char_table(max_n)))


@pytest.fixture
def exact_steps(monkeypatch) -> list[tuple[int, int]]:
    """Every value diagonal_sums divides exactly from here on, one by one
    through div_exact or a batch at a time through div_exact_each."""
    calls: list[tuple[int, int]] = []

    def counting(a: int, b: int) -> int:
        calls.append((a, b))
        return div_exact(a, b)

    def counting_each(values: list[int], divisor: int) -> list[int]:
        calls.extend((a, divisor) for a in values)
        return div_exact_each(values, divisor)

    monkeypatch.setattr(diagonal_sums, "div_exact", counting)
    monkeypatch.setattr(diagonal_sums, "div_exact_each", counting_each)
    return calls


@pytest.mark.parametrize("form", [z_sum_form1, z_sum_form2, z_sum_form3])
def test_cold_full_table_takes_one_exact_step_per_entry_past_each_seed(
    form, char_calls, exact_steps
) -> None:
    form(range(41), 40)
    entries = _entries(40)
    assert entries == 41 * 42 // 2
    assert len(char_calls) == len(diagonal_sums._char_table(40))  # one seed per column run
    assert len(exact_steps) == entries - len(char_calls)


@pytest.mark.parametrize("form", [z_sum_form1, z_sum_form2, z_sum_form3])
@pytest.mark.parametrize("lam,max_n", [(290, 300), (40, 40), (39, 40), (20, 40), (0, 40)])
def test_one_diagonal_builds_at_most_its_square(form, char_calls, exact_steps, lam, max_n) -> None:
    rows = form(range(lam, lam + 1), max_n)
    assert rows == [[_z_comb(n, lam) for n in range(max_n + 1)]]
    # every entry it builds is a char seed or one exact step: (max_n - lam + 1)^2 at
    # most, except that lam = max_n still reads two binomials
    assert len(char_calls) + len(exact_steps) <= max((max_n - lam + 1) ** 2, 2)
    assert diagonal_sums._char_table.cache_info().currsize == 0


@pytest.mark.parametrize("form", [z_sum_form1, z_sum_form2])
def test_central_diagonal_builds_each_column_once(form, char_calls, exact_steps) -> None:
    # at lam = 0 both factors read column a: one run C(a..40, a) per a = 0..20,
    # not C(a..40 - a, a) and C(2a..40, a), which took 840 steps and 42 seeds
    assert form(range(1), 40) == [[_z_comb(n, 0) for n in range(41)]]
    assert len(char_calls) == 21
    assert len(exact_steps) == sum(40 - a for a in range(21)) == 630


def test_single_diagonals_in_any_order_keep_no_table() -> None:
    for lam in (30, 0, 20):
        for form in (z_sum_form1, z_sum_form2, z_sum_form3, z_ratio_diagonals):
            assert form(range(lam, lam + 1), 40) == [[_z_comb(n, lam) for n in range(41)]]
    assert diagonal_sums._char_table.cache_info().currsize == 0


def test_range_calls_build_each_column_as_one_run(char_calls, exact_steps, monkeypatch) -> None:
    runs = []
    run = diagonal_sums._run

    def recording(c: int, lo: int, hi: int) -> list[int]:
        runs.append((c, lo, hi))
        return run(c, lo, hi)

    monkeypatch.setattr(diagonal_sums, "_run", recording)
    want = [[_z_comb(n, lam) for n in range(41)] for lam in range(41)]
    for form in (z_sum_form1, z_sum_form2, z_sum_form3, z_ratio_diagonals):
        assert form(range(41), 40) == want, form.__name__
    assert runs == [(c, c, 40) for c in range(41)]  # the table, once; the kernels slice it
    assert char_calls == [(c, c) for c in range(41)]  # each column seeded at its diagonal
    table = diagonal_sums._char_table(40)
    assert table == [[math.comb(m, c) for m in range(c, 41)] for c in range(41)]
    # the table's 820 steps, then one per later ratio term
    assert len(exact_steps) == 820 + sum((n - lam) // 2 for lam in range(41) for n in range(lam, 41))


def _corrupting(monkeypatch, call: int, position: int) -> None:
    # numerator `position` of the call-th batch diagonal_sums divides comes in one too high
    calls = []

    def corrupted(values: list[int], divisor: int) -> list[int]:
        calls.append(None)
        if len(calls) == call:
            values = list(values)
            values[position] += 1
        return div_exact_each(values, divisor)

    monkeypatch.setattr(diagonal_sums, "div_exact_each", corrupted)


@pytest.mark.parametrize("form", [z_sum_form1, z_sum_form2, z_sum_form3, z_ratio_diagonals])
@pytest.mark.parametrize("row,position", [(2, 0), (9, 4), (20, 18)])
def test_a_corrupted_table_row_raises(monkeypatch, form, row, position) -> None:
    # C(row, position) is the step C(row - 1, position) row / (row - position) up column
    # `position`; its numerator comes in one too high, and every divisor here is 2 or more
    step = (math.comb(row - 1, position) * row, row - position)
    corrupted = []

    def corrupting(a: int, b: int) -> int:
        if (a, b) == step and not corrupted:
            corrupted.append(step)
            a += 1
        return div_exact(a, b)

    monkeypatch.setattr(diagonal_sums, "div_exact", corrupting)
    with pytest.raises(ExactnessError):
        form(range(21), 20)
    assert corrupted == [step]


@pytest.mark.parametrize("step,position", [(1, 0), (5, 3), (8, 2)])
def test_a_corrupted_ratio_step_raises(monkeypatch, step, position) -> None:
    # div_exact_each serves the ratio steps only; each of lam >= 1 divides by 2 or more
    _corrupting(monkeypatch, step, position)
    with pytest.raises(ExactnessError):
        z_ratio_diagonals(range(1, 21), 20)


@pytest.mark.parametrize("lam,max_n", [(0, 40), (3, 40), (40, 40), (41, 40)])
def test_cold_ratio_diagonal_takes_one_exact_step_per_column_step_and_term(
    char_calls, exact_steps, lam, max_n
) -> None:
    assert z_ratio_diagonals(range(lam, lam + 1), max_n) == [
        [_z_comb(n, lam) for n in range(max_n + 1)]
    ]
    column_steps = max(max_n - lam, 0)
    later_terms = sum((n - lam) // 2 for n in range(lam, max_n + 1))
    assert len(exact_steps) == column_steps + later_terms
    assert len(char_calls) == (1 if lam <= max_n else 0)


def test_term_ratio_table_n6() -> None:
    total, terms = z_term_ratio(6, 0)
    assert terms == [1, 30, 90, 20]
    assert total == 141


def test_term_ratio_table_n12() -> None:
    total, terms = z_term_ratio(12, 0)
    assert terms == [1, 132, 2970, 18480, 34650, 16632, 924]
    assert total == 73789


def test_term_ratio_matches_oracle_exhaustive() -> None:
    for n in range(25):
        for lam in range(n + 1):
            total, terms = z_term_ratio(n, lam)
            assert total == _z(n, lam)
            assert sum(terms) == total
            assert all(t > 0 for t in terms)


def test_term_ratio_first_term_is_binomial() -> None:
    for n in range(20):
        for lam in range(n + 1):
            _, terms = z_term_ratio(n, lam)
            assert terms[0] == math.comb(n, lam)


def test_term_ratio_edge_cases() -> None:
    assert z_term_ratio(0, 0) == (1, [1])
    assert z_term_ratio(1, 0) == (1, [1])
    assert z_term_ratio(7, 7) == (1, [1])
    assert z_term_ratio(3, 5) == (0, [])


def test_term_ratio_terms_match_form1_summands() -> None:
    # the ratio route walks exactly the summands of form 1
    for n in (6, 11, 12):
        for lam in (0, 1, 3):
            _, terms = z_term_ratio(n, lam)
            direct = []
            a = 0
            while True:
                t = math.comb(n, a) * (math.comb(n - a, lam + a) if a <= n else 0)
                if t == 0:
                    break
                direct.append(t)
                a += 1
            assert terms == direct
