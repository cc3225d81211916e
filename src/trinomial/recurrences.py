"""Three-term recurrences for the diagonals of (1 + x + x^2)^n.

The central coefficients satisfy

    (n + 2) p(n+2) = (2n + 3) p(n+1) + 3 (n + 1) p(n)

and the diagonal lam places off center satisfies the same shape with the
leading factor deformed:

    z(n+2) = (n + 2) / ((n + 2)^2 - lam^2) * ((2n + 3) z(n+1) + 3 (n + 1) z(n)).

Every step divides by (n + 2)^2 - lam^2, which is positive for all steps
taken here; that and the integrality of every produced value are checked
rather than trusted (each division is a div_exact), since a wrong
recurrence usually announces itself as a remainder long before it
produces a plausible-looking wrong integer.
"""

from __future__ import annotations

from .exact import ExactnessError, div_exact, route

__all__ = ["central_sequence", "general_sequence", "z_recurrence_diagonals"]


def central_sequence(max_n: int) -> tuple[int, ...]:
    """Central coefficients p(0..max_n) from the three-term recurrence."""
    if max_n < 0:
        raise ValueError(f"max_n must be >= 0, got {max_n}")
    values = [1, 1][: max_n + 1]
    for m in range(2, max_n + 1):
        n = m - 2
        step = div_exact((n + 1) * (values[m - 1] + 3 * values[m - 2]), n + 2)
        values.append(values[m - 1] + step)
    return tuple(values)


def general_sequence(lam: int, max_n: int) -> tuple[int, ...]:
    """Diagonal z(0..max_n, lam) from the deformed three-term recurrence.

    Seeds: z(n) = 0 for n < lam, z(lam) = 1, z(lam + 1) = lam + 1.  The
    second seed is consistent with running the recurrence one step early,
    but it is pinned explicitly so the recurrence is only ever exercised
    on the region it is claimed for.
    """
    if lam < 0:
        raise ValueError(f"lam must be >= 0, got {lam}")
    if max_n < 0:
        raise ValueError(f"max_n must be >= 0, got {max_n}")
    values = [0] * min(lam, max_n + 1)
    if lam <= max_n:
        values.append(1)
    if lam + 1 <= max_n:
        values.append(lam + 1)
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
    """z(0..max_n, lam) for each lam in lams, one general_sequence each."""
    return [list(general_sequence(lam, max_n)) for lam in lams]
