"""cornerflow: a desk-scale laboratory for degenerate free-boundary points
of axisymmetric compressible gravity flow.

Subpackages: eos (equation of state and Bernoulli inversion), legendre
and profiles (blow-up profiles and exact constants), fields/quadrature
(discrete fields and ball/arc integration), functionals (monotonicity
and frequency formulas, first-variation validator), solver (multigrid
minimizer), classify (trichotomy classifier), cli (batch driver).
"""

__version__ = "0.1.0"

# the Bernoulli inversion has one implementation, the numpy kernel eos.invert_many
KERNEL_BACKEND = "python"
