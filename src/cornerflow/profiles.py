"""Closed-form blow-up profiles and their exact constants.

All profiles are evaluated in local coordinates with the degenerate
point at the origin; the polar angle theta = atan2(x1, x2) is measured
from the +x2 axis, matching the cone descriptions.

Note on the pointed-bubble profile: the quarter-power radial factor
sometimes quoted for it is not 5/2-homogeneous and cannot match the
r^{5/2} rescaling at the origin.  The implementation uses the
Gegenbauer stream-function form

    u = beta0 * x1^2 * rho^{1/2} * P'_{3/2}(-x2/rho),

which is 5/2-homogeneous, vanishes on the cone edge theta = pi - theta*
and satisfies div((1/x1) grad u) = 0 (checked by the finite-difference
residual below).  beta0 normalizes the weighted boundary norm on the
unit half-circle to 1.
"""

import functools
import math

import numpy as np

from .errors import DomainError, StencilError
from .legendre import (
    LegendreConstants,
    find_theta_star,
    gauss_legendre,
    legendre_P_prime,
    legendre_P_second,
)

SQRT2_OVER_3 = math.sqrt(2.0) / 3.0

@functools.lru_cache(maxsize=None)
def theta_star_constants() -> LegendreConstants:
    return find_theta_star()


def garabedian_norm_integral() -> float:
    """integral over the bubble cone of sin^3(theta) P'_{3/2}(-cos theta)^2, one 64-point Gauss-Legendre panel."""
    a, b = math.pi - theta_star_constants().theta_star_rad, math.pi
    x, w = gauss_legendre(64)
    half = 0.5 * (b - a)
    th = half * x + 0.5 * (a + b)
    return float(half * np.dot(w, np.sin(th) ** 3 * legendre_P_prime(1.5, -np.cos(th)) ** 2))


def garabedian_beta0() -> float:
    """Unit weighted boundary norm for the pointed-bubble profile."""
    return 1.0 / math.sqrt(garabedian_norm_integral())


class ProfileSpec:
    """A closed-form blow-up profile with its homogeneity degree."""

    def __init__(self, kind, degree, params):
        self.kind, self.degree = kind, degree
        self.params = params


def stokes_corner(coeff=None, x1_circ=None, rho_bar0=1.0) -> ProfileSpec:
    """Stokes 120-degree corner; normalized coefficient sqrt(2)/3 by default.

    Passing ``x1_circ`` selects the physical-frame coefficient
    sqrt(2)*x1_circ*rho_bar0/3 instead.
    """
    if coeff is None:
        coeff = SQRT2_OVER_3 if x1_circ is None else SQRT2_OVER_3 * x1_circ * rho_bar0
    return ProfileSpec(kind="StokesCorner", degree=1.5, params={"coeff": float(coeff)})


def axis_parabola(alpha=1.0) -> ProfileSpec:
    if alpha <= 0:
        raise DomainError("alpha must be positive")
    return ProfileSpec(kind="AxisParabola", degree=2.0, params={"alpha": float(alpha)})


def garabedian_bubble(beta0=None) -> ProfileSpec:
    if beta0 is None:
        beta0 = garabedian_beta0()
    if beta0 <= 0:
        raise DomainError("beta0 must be positive")
    return ProfileSpec(kind="GarabedianBubble", degree=2.5, params={"beta0": float(beta0)})


def flat_origin(beta=None) -> ProfileSpec:
    """beta * x1^2 * x2^+; with the default beta the weighted boundary norm is 1.

    The positivity set fills {x2 > 0}; the function itself is cubic, so
    its homogeneity degree is 3 (it is the frequency-normalized limit
    shape, not an r^{5/2}-rescaling limit).
    """
    if beta is None:
        beta = math.sqrt(7.5)
    if beta <= 0:
        raise DomainError("beta must be positive")
    return ProfileSpec(kind="FlatOrigin", degree=3.0, params={"beta": float(beta)})


def zero_profile() -> ProfileSpec:
    return ProfileSpec(kind="Zero", degree=0.0, params={})


def _polar(x1, x2):
    rho = np.hypot(x1, x2)
    theta = np.arctan2(x1, x2)  # measured from the +x2 axis
    return rho, theta


def evaluate_profile(spec: ProfileSpec, x1, x2, grad=True):
    """Value and closed-form gradient (u, g1, g2) at local coordinates (vectorized).

    The gradient is the one-sided (interior) limit on the cone edges.
    Shared factors, P'_{3/2} among them, are formed once per node.  With
    ``grad`` false the gradient may be returned as None.
    """
    x1 = np.asarray(x1, dtype=float)
    x2 = np.asarray(x2, dtype=float)
    shape = np.broadcast(x1, x2).shape
    if spec.kind == "Zero":
        return np.zeros(shape), np.zeros(shape), np.zeros(shape)
    if spec.kind == "AxisParabola":
        a = spec.params["alpha"]
        return a * x1 * x1, 2.0 * a * (x1 + np.zeros(shape)), np.zeros(shape)
    if spec.kind == "FlatOrigin":
        b = spec.params["beta"]
        pos = x2 > 0
        g1 = np.where(pos, 2.0 * b * x1 * x2, 0.0) + np.zeros(shape)
        g2 = np.where(pos, b * x1 * x1, 0.0) + np.zeros(shape)
        return b * x1 * x1 * np.maximum(x2, 0.0), g1, g2
    rho, theta = _polar(x1, x2)
    safe_rho = np.where(rho > 0, rho, 1.0)
    sin_t = np.where(rho > 0, x1 / safe_rho, 0.0)
    cos_t = np.where(rho > 0, x2 / safe_rho, 1.0)
    if spec.kind == "StokesCorner":
        c = spec.params["coeff"]
        inside = np.abs(theta) <= np.pi / 3.0
        cos15 = np.cos(1.5 * theta)
        u = np.where(rho > 0, np.where(inside, c * rho ** 1.5 * cos15, 0.0), 0.0)
        if not grad:
            return u, None, None
        du_drho = 1.5 * c * np.sqrt(safe_rho) * cos15
        du_dtheta_over_rho = -1.5 * c * np.sqrt(safe_rho) * np.sin(1.5 * theta)
        inside &= rho > 0
    else:
        b0 = spec.params["beta0"]
        inside = (theta >= np.pi - theta_star_constants().theta_star_rad) & (x1 >= 0.0) & (rho > 0)
        # the series argument stays in [s*, 1] inside the cone only
        s = np.where(inside, np.clip(-cos_t, -1.0, 1.0), 1.0)
        pp = legendre_P_prime(1.5, s)
        u = np.where(inside, b0 * x1 * x1 * np.sqrt(rho) * pp, 0.0)
        if not grad:
            return u, None, None
        # u = b0 rho^{5/2} sin^2 t P'(s), s = -cos t
        du_drho = 2.5 * b0 * safe_rho ** 1.5 * sin_t ** 2 * pp
        du_dtheta_over_rho = b0 * safe_rho ** 1.5 * (
            2.0 * sin_t * cos_t * pp + sin_t ** 3 * legendre_P_second(1.5, s)
        )
    # e_rho = (sin t, cos t), e_theta = (cos t, -sin t)
    g1 = du_drho * sin_t + du_dtheta_over_rho * cos_t
    g2 = du_drho * cos_t - du_dtheta_over_rho * sin_t
    return u, np.where(inside, g1, 0.0), np.where(inside, g2, 0.0)


def eval_profile(spec: ProfileSpec, x1, x2):
    """Profile value at local coordinates (vectorized)."""
    return evaluate_profile(spec, x1, x2, grad=False)[0]


def eval_profile_gradient(spec: ProfileSpec, x1, x2):
    """Closed-form gradient; one-sided (interior) limit on the cone edges."""
    return evaluate_profile(spec, x1, x2)[1:]


def profile_rays_phi(spec: ProfileSpec):
    """Kink rays in the standard polar angle (from +x1) about the apex."""
    if spec.kind == "StokesCorner":
        return (np.pi / 6.0, 5.0 * np.pi / 6.0)
    if spec.kind == "GarabedianBubble":
        c = theta_star_constants()
        return (c.theta_star_rad - 0.5 * np.pi, -0.5 * np.pi)
    if spec.kind == "FlatOrigin":
        return (0.0, np.pi)
    return ()


def profile_field(spec: ProfileSpec, offset=(0.0, 0.0)):
    """AnalyticField evaluating the profile with its apex at ``offset``."""
    from .fields import AnalyticField

    o1, o2 = float(offset[0]), float(offset[1])
    return AnalyticField(lambda x1, x2, grad: evaluate_profile(spec, x1 - o1, x2 - o2, grad),
                         (o1, o2), profile_rays_phi(spec), spec.degree)


def _edge_margin(spec: ProfileSpec, x1, x2):
    """Distance of a point to the profile's free boundary (rough lower bound)."""
    rho, theta = _polar(np.asarray(x1, float), np.asarray(x2, float))
    if spec.kind == "StokesCorner":
        return rho * (np.pi / 3.0 - np.abs(theta))
    if spec.kind == "GarabedianBubble":
        c = theta_star_constants()
        return rho * (theta - (np.pi - c.theta_star_rad))
    if spec.kind == "FlatOrigin":
        return np.asarray(x2, float)
    return np.full(np.broadcast(x1, x2).shape, np.inf)


_D1_4TH = np.array([1.0, -8.0, 0.0, 8.0, -1.0]) / 12.0
_D2_4TH = np.array([-1.0, 16.0, -30.0, 16.0, -1.0]) / 12.0
_OFFS = np.array([-2.0, -1.0, 0.0, 1.0, 2.0])


def profile_pde_residual(spec: ProfileSpec, x, h_fd=1e-3):
    """Interior PDE residual by 4th-order finite differences.

    StokesCorner is checked against the Laplacian; the axisymmetric
    kinds against div((1/x1) grad u).  Raises StencilError within three
    stencil widths of the free boundary (or the axis for the weighted
    operator).
    """
    x1, x2 = float(x[0]), float(x[1])
    margin = float(_edge_margin(spec, x1, x2))
    if margin < 3.0 * (2.0 * h_fd):
        raise StencilError(f"point {x} within 3 stencil widths of the free boundary")
    if spec.kind != "StokesCorner" and x1 - 2.0 * h_fd <= 0.0:
        raise StencilError(f"point {x} too close to the symmetry axis")
    ux = eval_profile(spec, x1 + _OFFS * h_fd, np.full(5, x2))
    uy = eval_profile(spec, np.full(5, x1), x2 + _OFFS * h_fd)
    u11 = float(np.dot(_D2_4TH, ux)) / h_fd**2
    u22 = float(np.dot(_D2_4TH, uy)) / h_fd**2
    lap = u11 + u22
    if spec.kind == "StokesCorner":
        return lap
    u1 = float(np.dot(_D1_4TH, ux)) / h_fd
    return lap / x1 - u1 / (x1 * x1)
