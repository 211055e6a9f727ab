"""cornerflow: a desk-scale laboratory for degenerate free-boundary points
of axisymmetric compressible gravity flow.

Subpackages: eos (equation of state and Bernoulli inversion), legendre
and profiles (blow-up profiles and exact constants), fields/quadrature
(discrete fields and ball/arc integration), functionals (monotonicity
and frequency formulas), solver (energy descent + first-variation
validator), classify (trichotomy classifier), cli (batch driver).
"""

from .eos import (
    BernoulliState,
    EosModel,
    GammaLawMedium,
    IncompressibleMedium,
    critical_density,
    enthalpy,
    invert_density,
    lambda_of,
    lambda_prime,
    pressure,
    pressure_derivative,
)
from .fields import AnalyticField, GridField
from .legendre import (
    LegendreConstants,
    find_theta_star,
    legendre_P,
    legendre_P_prime,
)
from .profiles import (
    ProfileSpec,
    axis_parabola,
    eval_profile,
    eval_profile_gradient,
    flat_origin,
    garabedian_bubble,
    profile_field,
    profile_pde_residual,
    stokes_corner,
    zero_profile,
)

__version__ = "0.1.0"

# the Bernoulli inversion has one implementation, the numpy kernel eos.invert_many
KERNEL_BACKEND = "python"

__all__ = [
    "AnalyticField",
    "BernoulliState",
    "EosModel",
    "GammaLawMedium",
    "GridField",
    "IncompressibleMedium",
    "KERNEL_BACKEND",
    "LegendreConstants",
    "ProfileSpec",
    "axis_parabola",
    "critical_density",
    "enthalpy",
    "eval_profile",
    "eval_profile_gradient",
    "find_theta_star",
    "flat_origin",
    "garabedian_bubble",
    "invert_density",
    "lambda_of",
    "lambda_prime",
    "legendre_P",
    "legendre_P_prime",
    "pressure",
    "pressure_derivative",
    "profile_field",
    "profile_pde_residual",
    "stokes_corner",
    "zero_profile",
]
