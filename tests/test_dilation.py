"""The blow-up dilation is exact: the incompressible pipeline commutes with x -> x/4, u -> u/32.

For the incompressible medium the problem is homogeneous about the origin:
the weight is x1, lambda = x2/rho0 and F = t/rho0 with t = |grad u|^2/x1^2,
and the free-boundary condition |grad u|^2 = x1^2 x2 makes u a length^(5/2).
So the dilation by s = 4 of box, step, center and radii, with the values
divided by 4^(5/2) = 32, maps every discrete quantity by a fixed power of 4.
Each factor is a power of 2, so the map is exact in floating point: each
``radial_sweep`` column must be 4^p times the dilated one, bit for bit, with p
read off the column's dimension below (not fitted).
"""

import numpy as np
import pytest

from cornerflow.classify import classify
from cornerflow.eos import IncompressibleMedium
from cornerflow.fields import GridField
from cornerflow.functionals import default_radii, radial_sweep
from cornerflow.profiles import axis_parabola, garabedian_bubble, profile_field, stokes_corner

S = 4.0  # the dilation; 4^(5/2) = 32 is the values' factor
H = 1 / 128
INC = IncompressibleMedium(1.0)

# (center, box without h, unit profile with its apex at the center)
CASES = {
    "stagnation": ((1.0, 0.0), (0.75, 1.25, -0.25, 0.25), lambda: stokes_corner(x1_circ=1.0)),
    "axis": ((0.0, 0.5), (0.0, 0.25, 0.25, 0.75), lambda: axis_parabola(1.0)),
    "origin": ((0.0, 0.0), (0.0, 0.5, -0.5, 0.5), garabedian_bubble),
}
# the scaling power kappa of each kind's blow-up u(x0 + r x) / r^kappa, and the power a of its
# energies' normalization r^-a: a ball's area is L^2, and its weights are x1 off the stagnation
# points and x2+ off the axis
KAPPA = {"stagnation": 1.5, "axis": 2.0, "origin": 2.5}
A = {"stagnation": 3, "axis": 3, "origin": 4}


def powers(kind):
    """Each column's power of length.

    u is L^(5/2), grad u L^(3/2), and t, F and lambda are L.  A ball
    integrand w x1 (F + lambda chi) is L^2 L L = L^4, an arc one
    w u^2 / x1 is L L^5 L^-1 = L^5; the medium's boundary terms k4, k5
    vanish (H = rho0), so any power holds for them.
    """
    a = A[kind]
    p = {"r": 1, "E_F": 4, "E_H": 4, "I": 4, "dirichlet": 4, "arc_uun": 4, "E_F_arc": 3, "arc_un_sq": 3,
         "J": 5, "M": 4 - a, "square": 3 - a, "k_scale": -(a + 1), "dM_fd": 3 - a, "dM_rhs": 3 - a,
         "K_sum": 4, "pohozaev_residual": 4, "energy_identity_residual": 4}
    p.update({f"k{i}": 4 for i in range(1, 7)})
    if kind == "origin":
        # e = r K1 + r^5 int (K1 + Ko) / r^5 dr and Pi = int S_void / r^4 dr; the frequency
        # block's ratios D, V, N are dimensionless
        p.update({"S_void": 4, "e": 5, "Pi": 1, "D": 0, "V_plus": 0, "V_tilde": 0, "V": 0, "N": 0,
                  "J_scaled": 0})
    return p


def noisy_grid(kind):
    """The kind's profile on its box at h = 1/128, each cell times 1 + 5% seeded noise, clipped at 0.

    The noisy field solves nothing: the dilation holds for any field.
    """
    center, box, spec = CASES[kind]
    grid = profile_field(spec(), offset=center).resample(*box, H)
    noise = np.random.default_rng(17).standard_normal(grid.values.shape)
    return GridField(*box, H, np.maximum(grid.values * (1.0 + 0.05 * noise), 0.0))


def dilate(grid: GridField):
    """``grid`` on box/4 with step h/4 and values/32."""
    box = (grid.x1_min / S, grid.x1_max / S, grid.x2_min / S, grid.x2_max / S, grid.h / S)
    return GridField(*box, grid.values / S**2.5)


@pytest.fixture(scope="module", params=list(CASES))
def pair(request):
    kind = request.param
    center = CASES[kind][0]
    grid = noisy_grid(kind)
    return kind, center, grid, dilate(grid), (center[0] / S, center[1] / S)


def test_every_sweep_column_scales_by_its_power_bitwise(pair):
    kind, center, grid, small, small_center = pair
    radii = default_radii(grid, center)
    cols = radial_sweep(grid, INC, center, radii).columns
    small_cols = radial_sweep(small, INC, small_center, radii / S).columns
    p = powers(kind)
    assert sorted(cols) == sorted(p) == sorted(small_cols)
    for name, power in p.items():
        np.testing.assert_array_equal(cols[name], S**power * small_cols[name], err_msg=name)


def test_classify_scales(pair):
    # the blow-up u(x0 + r x) / r^kappa of the dilated field is 4^(kappa - 5/2) times the original's
    kind, center, grid, small, small_center = pair
    res, small_res = classify(grid, center), classify(small, small_center)
    assert res.label == small_res.label
    assert abs(res.density - small_res.density) <= 1e-14  # the r-fit's least squares: 1.0e-15 measured
    if kind != "stagnation":  # a fitted label on the noisy field; the noisy Stokes corner is Ambiguous
        assert res.fit_param is not None
    if res.fit_param is not None:
        assert res.fit_param == S ** (2.5 - KAPPA[kind]) * small_res.fit_param
