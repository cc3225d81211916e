from __future__ import annotations

import math

import pytest

from identities import product_collapse_check, product_swap_check
from trinomial.binomial import _char_in_range, char


def test_char_matches_stdlib_comb_exhaustive() -> None:
    for n in range(65):
        for lam in range(n + 1):
            assert char(n, lam) == math.comb(n, lam)


def test_char_zero_conventions() -> None:
    for n in range(20):
        assert char(n, -1) == 0
        assert char(n, n + 1) == 0
        assert char(n, 0) == 1
        assert char(n, n) == 1


def test_char_rejects_negative_n() -> None:
    with pytest.raises(ValueError):
        char(-1, 0)


def test_char_symmetry() -> None:
    for n in range(40):
        for lam in range(n + 1):
            assert char(n, lam) == char(n, n - lam)


def test_char_pascal_rule() -> None:
    for n in range(1, 65):
        for lam in range(n + 1):
            assert char(n, lam) == char(n - 1, lam - 1) + char(n - 1, lam)


def test_product_swap_exhaustive() -> None:
    for n in range(25):
        for alpha in range(n + 1):
            for beta in range(n + 1):
                assert product_swap_check(n, alpha, beta)


def test_product_collapse_exhaustive() -> None:
    for n in range(25):
        for alpha in range(n + 1):
            for beta in range(n + 1):
                assert product_collapse_check(n, alpha, beta)


def test_product_checks_out_of_range_indices() -> None:
    # one factor dead, the other side must agree it is zero
    assert product_swap_check(7, 4, 4)
    assert product_collapse_check(2, 2, 2)
    with pytest.raises(ValueError):
        product_swap_check(3, -1, 0)
    with pytest.raises(ValueError):
        product_collapse_check(3, 0, -1)


def test_a_dead_first_factor_never_reads_a_negative_upper_index() -> None:
    # alpha > n: char(n, alpha) = 0, and char(n - alpha, .) would raise on its own
    with pytest.raises(ValueError):
        char(-2, 0)
    assert product_swap_check(3, 5, 0)
    assert product_collapse_check(3, 5, 1)


def test_char_cache_is_bounded_and_holds_one_max_n_300_table() -> None:
    maxsize = _char_in_range.cache_info().maxsize
    # one entry per (m, min(k, m - k)) with 0 <= k <= m <= 300
    assert maxsize >= sum(m // 2 + 1 for m in range(301))
    for n in range(maxsize + 100):
        char(n, 1)
    assert _char_in_range.cache_info().currsize == maxsize
    _char_in_range.cache_clear()
