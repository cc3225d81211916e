"""Coefficients of (1 + x + x^2)^n, computed several independent ways.

The triangle of coefficients is exposed directly (`build_triangle`), and
its diagonals z(n, lam) = [x^(n+lam)] (1 + x + x^2)^n are recomputed by
binomial sums, a term-ratio product, three-term recurrences, forward
differences of the central column, and exact generating functions; a
small quadrature layer verifies the matching integral representations in
floating point.  The `methods` registry gives all routes one signature so
they can be cross-checked mechanically.
"""

from .binomial import char, product_collapse_check, product_swap_check
from .diagonal_sums import (
    central_p_factor_series,
    z_sum_form1,
    z_sum_form2,
    z_sum_form3,
    z_term_ratio,
)
from .differences import delta_expansion_coefficients, stepwise_chain
from .exact import ExactnessError, div_exact
from .methods import METHOD_NAMES, central_values, diagonal_values, first_mismatch
from .quadrature import (
    QuadratureError,
    QuadratureResult,
    b_identity_check,
    b_reduction_chain_check,
    cos_power_expansion,
    fourier_decomposition_check,
    gf_by_integral,
    integrate_0_pi,
    z_by_integral,
)
from .recurrences import central_sequence, general_sequence
from .series import PowerSeries, b_substitution_check, gf_P, gf_Z, gf_nu, polynomial
from .triangle import TrinomialTriangle, build_triangle, leading_term_check

__all__ = [
    "ExactnessError",
    "div_exact",
    "char",
    "product_swap_check",
    "product_collapse_check",
    "TrinomialTriangle",
    "build_triangle",
    "leading_term_check",
    "z_sum_form1",
    "z_sum_form2",
    "z_sum_form3",
    "z_term_ratio",
    "central_p_factor_series",
    "central_sequence",
    "general_sequence",
    "delta_expansion_coefficients",
    "stepwise_chain",
    "PowerSeries",
    "polynomial",
    "gf_P",
    "gf_nu",
    "gf_Z",
    "b_substitution_check",
    "QuadratureResult",
    "QuadratureError",
    "integrate_0_pi",
    "z_by_integral",
    "fourier_decomposition_check",
    "cos_power_expansion",
    "gf_by_integral",
    "b_identity_check",
    "b_reduction_chain_check",
    "METHOD_NAMES",
    "diagonal_values",
    "central_values",
    "first_mismatch",
]
