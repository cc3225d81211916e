"""Three-term recurrences for the diagonals of (1 + x + x^2)^n.

The central coefficients satisfy

    (n + 2) p(n+2) = (2n + 3) p(n+1) + 3 (n + 1) p(n)

and the diagonal lam places off center satisfies the same shape with the
leading factor deformed:

    z(n+2) = (n + 2) / ((n + 2)^2 - lam^2) * ((2n + 3) z(n+1) + 3 (n + 1) z(n)).

At lam = 0 this is the central step, so general_sequence(0, N) is the
central column p(0..N), which the delta route reads.  Every step divides
by (n + 2)^2 - lam^2, which is positive for all steps taken here; that
and the integrality of every produced value are checked rather than
trusted (each division is a div_exact), since a wrong recurrence
usually announces itself as a remainder long before it produces a
plausible-looking wrong integer.
"""

from __future__ import annotations

from .exact import ExactnessError, div_exact, index, route

__all__ = ["general_sequence", "z_recurrence_diagonals"]


def general_sequence(lam: int, max_n: int) -> tuple[int, ...]:
    """Diagonal z(0..max_n, lam) from the deformed three-term recurrence.

    Seeds: z(n) = 0 for n < lam, z(lam) = 1, z(lam + 1) = lam + 1.  The
    second seed is consistent with running the recurrence one step early,
    but it is pinned explicitly so the recurrence is only ever exercised
    on the region it is claimed for.
    """
    index("lam", lam)
    index("max_n", max_n)
    values = ([0] * min(lam, max_n + 1) + [1, lam + 1])[: max_n + 1]
    for m in range(lam + 2, max_n + 1):
        n = m - 2
        denom = (n + 2) ** 2 - lam * lam
        if denom <= 0:
            raise ExactnessError(f"recurrence used outside its region: n={n}, lam={lam}")
        total = (2 * n + 3) * values[m - 1] + 3 * (n + 1) * values[m - 2]
        values.append(div_exact((n + 2) * total, denom))
    return tuple(values)


@route
def z_recurrence_diagonals(lams: range, max_n: int) -> list[list[int]]:
    """z(lam..max_n, lam) for each lam in lams, one general_sequence each."""
    return [list(general_sequence(lam, max_n)[lam:]) for lam in lams]
