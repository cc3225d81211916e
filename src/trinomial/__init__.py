"""Coefficients of (1 + x + x^2)^n, computed several independent ways.

The triangle of coefficients is exposed directly (`build_triangle`), and
its diagonals z(n, lam) = [x^(n+lam)] (1 + x + x^2)^n are recomputed by
binomial sums, a term-ratio product, three-term recurrences, forward
differences of the central column, and exact generating functions; a
small quadrature layer verifies the matching integral representations in
floating point.  The `methods` registry gives all routes one signature so
they can be cross-checked mechanically.  This namespace re-exports only
the names the demos and the README import; every other public name is
imported from its module, as in `from trinomial.exact import DomainError`.
"""

from .diagonal_sums import z_term_ratio
from .methods import METHOD_NAMES, central_values, diagonal_values, first_mismatch
from .quadrature import (
    b_identity_check,
    b_reduction_chain_check,
    fourier_decomposition_check,
    gf_by_integral,
    z_by_integral,
)
from .series import b_substitution_check, gf_P, gf_Z, gf_nu, polynomial
from .triangle import build_triangle, leading_term_check

__all__ = [
    "build_triangle",
    "leading_term_check",
    "z_term_ratio",
    "polynomial",
    "gf_P",
    "gf_nu",
    "gf_Z",
    "b_substitution_check",
    "z_by_integral",
    "fourier_decomposition_check",
    "gf_by_integral",
    "b_identity_check",
    "b_reduction_chain_check",
    "METHOD_NAMES",
    "diagonal_values",
    "central_values",
    "first_mismatch",
]
