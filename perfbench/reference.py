"""Expected values computed without the trinomial package.

Nothing here imports from ``trinomial``: the benchmark checks the package
against these, so they must not share code with any route.

* ``z_comb`` sums products of ``math.comb`` directly.
* ``TrinomialRows`` multiplies out (1 + x + x^2) one factor at a time.
* ``gf_closed`` is the closed form of the central generating function.
"""

from __future__ import annotations

import math
from typing import Iterable


def z_comb(n: int, lam: int) -> int:
    """z(n, lam) = sum over a of C(n, a) * C(n - a, lam + a)."""
    if lam > n:
        return 0
    return sum(math.comb(n, a) * math.comb(n - a, lam + a) for a in range((n - lam) // 2 + 1))


def gf_closed(x: float) -> float:
    """P(x) = 1 / sqrt(1 - 2x - 3x^2), valid for -1 < x < 1/3."""
    return 1.0 / math.sqrt(1.0 - 2.0 * x - 3.0 * x * x)


class TrinomialRows:
    """Diagonals z(n, lam) for lam <= max_lam and whole rows, up to max_n.

    Row n + 1 is row n times (1 + x + x^2).  Only T(n, k) for
    k <= n + max_lam is kept; the rest of a row follows from the symmetry
    T(n, k) = T(n, 2n - k), so memory stays at one half row plus the
    requested diagonals and rows.
    """

    def __init__(self, max_n: int, max_lam: int, full_rows: Iterable[int] = ()) -> None:
        wanted = set(full_rows)
        self.diagonals: list[list[int]] = [[] for _ in range(max_lam + 1)]
        self.rows: dict[int, list[int]] = {}
        half = [1]  # T(0, 0)
        for n in range(max_n + 1):
            for lam, column in enumerate(self.diagonals):
                column.append(half[n + lam] if n + lam < len(half) else 0)
            if n in wanted:
                self.rows[n] = half[: n + 1] + half[:n][::-1]
            if n == max_n:
                break
            limit = min(2 * n + 2, n + 1 + max_lam)
            ext = half + [half[2 * n - k] for k in range(len(half), min(limit, 2 * n) + 1)]
            padded = ext + [0, 0]
            half = [
                a + b + c
                for a, b, c in zip(padded, [0] + padded, [0, 0] + padded)
            ][: limit + 1]

    def z(self, n: int, lam: int) -> int:
        return self.diagonals[lam][n]

    def diagonal(self, lam: int, max_n: int) -> list[int]:
        return self.diagonals[lam][: max_n + 1]

    def row(self, n: int) -> list[int]:
        return self.rows[n]
