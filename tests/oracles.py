"""Test-only oracles: independent or earlier forms of what the library computes.

Each oracle is one of two kinds.  An *independent* oracle reaches its value
another way: a quadrature, mpmath or scipy, or a closed form derived apart
from the library's.  A *split* evaluates the library's own formula in another
order or grouping; it checks a refactoring bit for bit, but an error in the
formula is in both sides and shows in neither.

* Independent, quadrature oracles for the EOS layer: ``F_quadrature`` and
  ``lambda_alt`` integrate the defining expressions of F(t;s), dF2 and
  lambda(x2), where the library uses closed forms (docs/decisions.md).  They
  share the library's Bernoulli inversion (``invert_many``), not its F.
* Independent, the EOS in the paper's own terms: ``pressure_derivative``
  p'(rho) and ``enthalpy`` h(rho) state the sonic condition apart from
  ``eos.critical_density``.
* Independent, closed forms: the degree-1 Legendre Q function and its two
  derivatives (``legendre_Q1``, ``legendre_Q1_prime``, ``legendre_Q1_second``).
* Split, ``F_of``: the scalar F from ``eos._F_closed``, the function the
  ``eos-table`` column uses, which that column must match byte for byte.
* Split, the separate value and gradient evaluations that one evaluation
  replaced: ``profile_value_separate`` and ``profile_gradient_separate`` for
  ``profiles.evaluate_profile``, ``grid_value_separate`` and
  ``grid_gradient_separate`` for ``GridField.evaluate``, and
  ``record_two_sets`` (with ``_evaluate_two_sets``) for the
  one-evaluation-per-radius ``monotonicity_record``.
* Split, ``grid_ball_one_box``: the grid ball built from its own bounding
  box, which the selection from a larger ball's cells replaced.
* Split, the blow-up fits as ``classify`` and ``frequency_blowup`` each wrote
  them out before they shared one least-squares helper:
  ``fit_shape_reference`` and ``frequency_fit_reference``.
* Split, ``record_per_kind`` and ``pohozaev_per_kind``: the monotonicity
  record and Pohozaev residual with M, the square term, k_scale and the error
  terms written out for each point kind, as they were before one formula
  served all three.
* Neither, helpers that only the tests use: the adaptive Gauss-Legendre rule
  under the quadrature oracles, the EOS model's text round trip
  (``eos_to_text``, ``eos_from_text``) and ``measure_corner_slopes``, which
  reads the ray slopes of a Stokes-corner blow-up for a test to compare with
  the closed form +-1/sqrt(3).
"""

import math

import numpy as np

from cornerflow import functionals
from cornerflow.eos import EosModel, _F_closed, invert_admissible, invert_many
from cornerflow.errors import DomainError, StateError
from cornerflow.fields import GridField
from cornerflow.legendre import _check_open_interval, legendre_P_prime, legendre_P_second
from cornerflow.profiles import (
    _polar,
    eval_profile,
    flat_origin,
    garabedian_bubble,
    stokes_corner,
    theta_star_constants,
)
from cornerflow.quadrature import (
    BallNodes,
    _cell_fractions,
    arc_nodes,
    polar_ball_nodes,
)

_GL_NODES, _GL_WEIGHTS = np.polynomial.legendre.leggauss(15)


def _gl_panel(f, a, b):
    x = 0.5 * (b - a) * _GL_NODES + 0.5 * (a + b)
    return 0.5 * (b - a) * (f(x) @ _GL_WEIGHTS)


def adaptive_gauss_legendre(f, a, b, tol=1e-11, max_depth=30):
    """Recursive-bisection 15-point Gauss-Legendre quadrature."""

    def rec(a, b, whole, depth):
        m = 0.5 * (a + b)
        left = _gl_panel(f, a, m)
        right = _gl_panel(f, m, b)
        if abs(left + right - whole) <= tol or depth >= max_depth:
            return left + right
        return rec(a, m, left, depth + 1) + rec(m, b, right, depth + 1)

    if a == b:
        return 0.0
    return rec(a, b, _gl_panel(f, a, b), 0)


def _inverted(model, tau, s):
    rho, d1, d2, flag = invert_many(model, tau, s)
    if np.any(flag):
        raise StateError(f"inversion failed inside a quadrature oracle at s={s}")
    return rho, d1, d2


def F_quadrature(model, t, s, tol=1e-11):
    """(F, dF2) at one state: F = int_0^t 1/H and dF2 = int_0^t d/ds (1/H)."""

    def inv_h(tau):
        rho, _, _ = _inverted(model, tau, s)
        return 1.0 / rho

    def dinv_h(tau):
        rho, _, d2 = _inverted(model, tau, s)
        return -d2 / (rho * rho)

    return (
        adaptive_gauss_legendre(inv_h, 0.0, t, tol=tol),
        adaptive_gauss_legendre(dinv_h, 0.0, t, tol=tol),
    )


def lambda_alt(model, x2, tol=1e-11):
    """Alternate expression x2/rho0 + int_0^{x2} d/dtau(1/H) * tau dtau."""

    def f(tau):
        rho, d1, _ = _inverted(model, tau, x2)
        return (-d1 / (rho * rho)) * tau

    return x2 / model.rho_bar0 + adaptive_gauss_legendre(f, 0.0, x2, tol=tol)


def pressure_derivative(model, rho):
    """p'(rho) of the gamma-law pressure p = A rho^gamma."""
    rho = np.asarray(rho, dtype=float)
    if np.any(rho < 0):
        raise DomainError("density must be nonnegative")
    return model.A * model.gamma * rho ** (model.gamma - 1.0)


def enthalpy(model, rho):
    """h(rho) = integral of p'(w)/w from rho_bar0 to rho; h(rho_bar0) = 0."""
    rho = np.asarray(rho, dtype=float)
    if np.any(rho <= 0):
        raise DomainError("density must be positive")
    gm1 = model.gamma - 1.0
    return model.A * model.gamma / gm1 * (rho ** gm1 - model.rho_bar0 ** gm1)


def F_of(model, t, s):
    """(F, dF1, dF2) at one admissible state, dF1 = 1/H(t;s).

    It works on one-element arrays: numpy's scalar ``**`` can round
    differently from its array ``power``, and the arrays keep F bitwise
    equal to the vectorized ``eos-table`` column.
    """
    t, s = np.full(1, t, dtype=float), np.full(1, s, dtype=float)
    rho = invert_admissible(model, t, s)[0]
    F, dF2 = _F_closed(model, t, rho, s)
    return float(F[0]), 1.0 / float(rho[0]), float(dF2[0])


# ---------------------------------------------------------------------------
# helpers only the tests use
# ---------------------------------------------------------------------------

def legendre_Q1(s):
    """Second Legendre solution at degree 1: (s/2) log((1+s)/(1-s)) - 1."""
    s = _check_open_interval(s)
    return 0.5 * s * np.log((1.0 + s) / (1.0 - s)) - 1.0


def legendre_Q1_prime(s):
    s = _check_open_interval(s)
    return 0.5 * np.log((1.0 + s) / (1.0 - s)) + s / (1.0 - s * s)


def legendre_Q1_second(s):
    s = _check_open_interval(s)
    return 1.0 / (1.0 - s * s) + (1.0 + s * s) / (1.0 - s * s) ** 2


def eos_to_text(model):
    keys = ["gamma", "A", "rho_bar0", "g", "eps0"]
    return "\n".join(f"{k} = {format(getattr(model, k), '.17g')}" for k in keys) + "\n"


def eos_from_text(text):
    vals = {}
    for ln, raw in enumerate(text.splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise DomainError(f"line {ln}: expected key = value, got {raw!r}")
        k, v = (p.strip() for p in line.split("=", 1))
        vals[k] = float(v)
    return EosModel(**vals)


def measure_corner_slopes(blow: GridField, band=(0.15, 0.9)):
    """Free-boundary ray slopes x2/x1 of a Stokes-corner blow-up."""
    X1, X2 = np.meshgrid(blow.cell_x1, blow.cell_x2, indexing="ij")
    chi = blow.chi(blow.values)
    edge = chi & (
        ~np.roll(chi, 1, axis=0)
        | ~np.roll(chi, -1, axis=0)
        | ~np.roll(chi, 1, axis=1)
        | ~np.roll(chi, -1, axis=1)
    )
    edge[[0, -1], :] = False
    edge[:, [0, -1]] = False
    rr = np.hypot(X1, X2)
    sel = edge & (rr > band[0]) & (rr < band[1]) & (X2 > 0)
    slopes = []
    for side in (X1[sel] > 0, X1[sel] < 0):
        x1s = X1[sel][side]
        x2s = X2[sel][side]
        if x1s.size >= 3:
            slopes.append(float(np.sum(x2s * x1s) / np.sum(x1s * x1s)))
    return sorted(slopes)  # sigma2/sigma1 per ray; +-1/sqrt(3) for the corner


# ---------------------------------------------------------------------------
# separate value and gradient evaluations
# ---------------------------------------------------------------------------

def profile_value_separate(spec, x1, x2):
    """Profile value, computed apart from the gradient."""
    x1 = np.asarray(x1, dtype=float)
    x2 = np.asarray(x2, dtype=float)
    if spec.kind == "Zero":
        return np.zeros(np.broadcast(x1, x2).shape)
    if spec.kind == "AxisParabola":
        return spec.params["alpha"] * x1 * x1
    if spec.kind == "FlatOrigin":
        return spec.params["beta"] * x1 * x1 * np.maximum(x2, 0.0)
    rho, theta = _polar(x1, x2)
    if spec.kind == "StokesCorner":
        inside = np.abs(theta) <= np.pi / 3.0
        u = np.where(inside, spec.params["coeff"] * rho ** 1.5 * np.cos(1.5 * theta), 0.0)
        return np.where(rho > 0, u, 0.0)
    c = theta_star_constants()
    inside = (theta >= np.pi - c.theta_star_rad) & (x1 >= 0.0) & (rho > 0)
    s = np.where(inside, np.clip(-x2 / np.where(rho > 0, rho, 1.0), -1.0, 1.0), 1.0)
    pp = legendre_P_prime(1.5, s)
    u = spec.params["beta0"] * x1 * x1 * np.sqrt(rho) * pp
    return np.where(inside, u, 0.0)


def profile_gradient_separate(spec, x1, x2):
    """Closed-form profile gradient, computed apart from the value."""
    x1 = np.asarray(x1, dtype=float)
    x2 = np.asarray(x2, dtype=float)
    shape = np.broadcast(x1, x2).shape
    if spec.kind == "Zero":
        return np.zeros(shape), np.zeros(shape)
    if spec.kind == "AxisParabola":
        return 2.0 * spec.params["alpha"] * (x1 + np.zeros(shape)), np.zeros(shape)
    if spec.kind == "FlatOrigin":
        b = spec.params["beta"]
        pos = x2 > 0
        g1 = np.where(pos, 2.0 * b * x1 * x2, 0.0)
        g2 = np.where(pos, b * x1 * x1, 0.0)
        return g1 + np.zeros(shape), g2 + np.zeros(shape)
    rho, theta = _polar(x1, x2)
    safe_rho = np.where(rho > 0, rho, 1.0)
    sin_t = np.where(rho > 0, x1 / safe_rho, 0.0)
    cos_t = np.where(rho > 0, x2 / safe_rho, 1.0)
    if spec.kind == "StokesCorner":
        inside = (np.abs(theta) <= np.pi / 3.0) & (rho > 0)
        c = spec.params["coeff"]
        du_drho = 1.5 * c * np.sqrt(safe_rho) * np.cos(1.5 * theta)
        du_dtheta_over_rho = -1.5 * c * np.sqrt(safe_rho) * np.sin(1.5 * theta)
    else:
        inside = (theta >= np.pi - theta_star_constants().theta_star_rad) & (x1 >= 0.0) & (rho > 0)
        b0 = spec.params["beta0"]
        s = np.where(inside, np.clip(-cos_t, -1.0, 1.0), 1.0)
        pp = legendre_P_prime(1.5, s)
        pps = legendre_P_second(1.5, s)
        du_drho = 2.5 * b0 * safe_rho ** 1.5 * sin_t ** 2 * pp
        du_dtheta_over_rho = b0 * safe_rho ** 1.5 * (2.0 * sin_t * cos_t * pp + sin_t ** 3 * pps)
    g1 = du_drho * sin_t + du_dtheta_over_rho * cos_t
    g2 = du_drho * cos_t - du_dtheta_over_rho * sin_t
    return np.where(inside, g1, 0.0), np.where(inside, g2, 0.0)


def _interp_one(fld, padded, x1, x2):
    """Bilinear interpolation of one padded array, as a four-term sum."""
    fx = (np.asarray(x1, float) - fld.x1_min) / fld.h + 0.5
    fy = (np.asarray(x2, float) - fld.x2_min) / fld.h + 0.5
    fx = np.clip(fx, 0.0, float(fld.n1 + 1) - 1e-12)
    fy = np.clip(fy, 0.0, float(fld.n2 + 1) - 1e-12)
    i0 = np.floor(fx).astype(int)
    j0 = np.floor(fy).astype(int)
    ax = fx - i0
    ay = fy - j0
    v00 = padded[i0, j0]
    v10 = padded[i0 + 1, j0]
    v01 = padded[i0, j0 + 1]
    v11 = padded[i0 + 1, j0 + 1]
    return (1 - ax) * (1 - ay) * v00 + ax * (1 - ay) * v10 + (1 - ax) * ay * v01 + ax * ay * v11


def grid_gradient_separate(fld, x1, x2):
    """Grid-field gradient, each component interpolated from its own array, padded as the library pads."""
    g1 = np.gradient(fld.values, fld.h, axis=0, edge_order=2)
    g2 = np.gradient(fld.values, fld.h, axis=1, edge_order=2)
    if fld.on_axis:
        g1[0, :] = (fld.values[1, :] + fld.values[0, :]) / (2.0 * fld.h)
    return _interp_one(fld, fld._pad(g1), x1, x2), _interp_one(fld, fld._pad(g2), x1, x2)


def grid_value_separate(fld, x1, x2):
    return _interp_one(fld, fld._pad(fld.values), x1, x2)


def grid_ball_one_box(fld, center, r, half=False):
    """Grid ball nodes of radius ``r`` built from the bounding box of that radius alone: the cells
    within ``r + 0.7072 h`` of the center, nearest first (ties in i-major order), band cells that the
    disk misses at weight 0."""
    assert fld.contains_ball(center, r, half=half)
    h = fld.h
    i_lo = max(0, int(np.floor((center[0] - r - fld.x1_min) / h)) - 1)
    i_hi = min(fld.n1, int(np.ceil((center[0] + r - fld.x1_min) / h)) + 1)
    j_lo = max(0, int(np.floor((center[1] - r - fld.x2_min) / h)) - 1)
    j_hi = min(fld.n2, int(np.ceil((center[1] + r - fld.x2_min) / h)) + 1)
    X1, X2 = np.meshgrid(fld.cell_x1[i_lo:i_hi], fld.cell_x2[j_lo:j_hi], indexing="ij")
    x1, x2 = X1.ravel(), X2.ravel()
    d2 = (x1 - center[0]) ** 2 + (x2 - center[1]) ** 2
    rin = r - 0.7072 * h
    frac = np.zeros_like(x1)
    full = d2 <= rin * rin if rin > 0 else np.zeros_like(d2, bool)
    frac[full] = 1.0
    cut = (~full) & (d2 <= (r + 0.7072 * h) ** 2)
    if np.any(cut):
        frac[cut] = _cell_fractions(x1[cut], x2[cut], h, center, r)
    near = d2 <= (r + 0.7072 * h) ** 2
    x1, x2, frac, d2 = x1[near], x2[near], frac[near], d2[near]
    order = sorted(range(d2.size), key=lambda k: d2[k])  # sorted() is stable
    x1, x2, frac = x1[order], x2[order], frac[order]
    x1l, x1r = x1 - 0.5 * h, x1 + 0.5 * h
    safe = x1l > 1e-3 * h
    inv_mean = np.empty_like(x1)
    inv_mean[safe] = np.log(x1r[safe] / x1l[safe]) / h
    inv_mean[~safe] = 1.0 / x1[~safe]
    return BallNodes(x1=x1, x2=x2, w=frac * h * h, w_inv=frac * h * h * inv_mean)


def _evaluate_two_sets(field_, medium, x1, x2, n_ball):
    """Ball nodes and arc nodes evaluated apart, each with separate value and gradient calls;
    either set may be empty."""
    parts = []
    for sl in (slice(0, n_ball), slice(n_ball, None)):
        a1, a2 = x1[sl], x2[sl]
        if not a1.size:
            continue
        if isinstance(field_, GridField):
            u = grid_value_separate(field_, a1, a2)
            g1, g2 = grid_gradient_separate(field_, a1, a2)
        else:
            u = field_.value(a1, a2)
            g1, g2 = field_.evaluate(a1, a2)[1:]
        parts.append(functionals._with_thermo(field_, medium, a1, a2, u, g1, g2))
    return functionals._NodeEval(*(np.concatenate(p) for p in zip(*parts)))


def record_two_sets(field_, medium, center, r, kind):
    """``monotonicity_record`` with its ball and arc nodes evaluated as two node sets.

    Each ``_evaluate`` call is split where the record's arc nodes begin, if it
    ends with them: a call of the ball and the arc together becomes two sets,
    and a call of a grid's cells or of the arc alone stays one.
    """
    arc = arc_nodes(field_, center, r, half=kind != "stagnation")

    def split_per_call(f, m, x1, x2):
        n = x1.size - arc.x1.size
        ends_with_arc = n >= 0 and np.array_equal(x1[n:], arc.x1) and np.array_equal(x2[n:], arc.x2)
        return _evaluate_two_sets(f, m, x1, x2, n if ends_with_arc else x1.size)

    one_set = functionals._evaluate
    functionals._evaluate = split_per_call
    try:
        return functionals.monotonicity_record(field_, medium, center, r)
    finally:
        functionals._evaluate = one_set


# ---------------------------------------------------------------------------
# blow-up fits as written out before the shared least-squares helper
# ---------------------------------------------------------------------------

def fit_shape_reference(blow: GridField, kind, label):
    """Coefficient and relative residual of ``blow`` against the unit shape of ``label``."""
    X1, X2 = np.meshgrid(blow.cell_x1, blow.cell_x2, indexing="ij")
    inside = X1**2 + X2**2 <= 1.0
    if kind == "stagnation":
        w = np.where(inside, 1.0, 0.0)
    else:
        w = np.where(inside & (X1 > 0), 1.0 / np.maximum(X1, 1e-12), 0.0)
    u = blow.values
    if label == "StokesCorner":
        shape = eval_profile(stokes_corner(coeff=1.0), X1, X2)
    elif label == "AxisParabola":
        shape = X1 * X1
    else:
        shape = eval_profile(garabedian_bubble(beta0=1.0), X1, X2)
    num = float(np.sum(w * u * shape))
    den = float(np.sum(w * shape * shape))
    coeff = num / den if den > 0 else 0.0
    resid = u - coeff * shape
    rel = math.sqrt(float(np.sum(w * resid**2)) / max(float(np.sum(w * u**2)), 1e-300))
    return coeff, rel


def frequency_fit_reference(field_, medium, radii):
    """Per radius, the normalized blow-up's (coefficient, relative residual) against the flat profile."""
    radii = np.asarray(sorted(radii), dtype=float)
    J = functionals.frequency_quantities(field_, medium, radii).columns["J"]
    splits = tuple(getattr(field_, "rays_phi", ())) + (0.0,)
    pn = polar_ball_nodes((0.0, 0.0), 1.0, splits=splits, half=True)
    shape = eval_profile(flat_origin(), pn.x1, pn.x2)
    wgt = pn.w / np.maximum(pn.x1, 1e-12)
    out = []
    for i, r in enumerate(radii):
        vr = field_.evaluate(r * pn.x1, r * pn.x2)[0] / math.sqrt(medium.rho0 * J[i])
        num = float(np.sum(wgt * vr * shape))
        den = float(np.sum(wgt * shape * shape))
        coeff = num / den
        rel = math.sqrt(
            float(np.sum(wgt * (vr - coeff * shape) ** 2))
            / max(float(np.sum(wgt * vr**2)), 1e-300)
        )
        out.append((coeff, rel))
    return out


# ---------------------------------------------------------------------------
# the monotonicity record as written out per kind before the one formula
# ---------------------------------------------------------------------------

def record_per_kind(field_, medium, center, r, nodes=None):
    """``monotonicity_record`` with M, the square term, k_scale and the error terms
    written out for each kind; the nodes come from ``functionals._sweep_nodes`` as the library's do."""
    f = functionals
    kind = f.point_kind(center)
    rho0 = medium.rho0
    bn, bv, an, av = (nodes or f._sweep_nodes(field_, medium, center, r))(r)

    E_F = float(np.sum(bn.w * bn.x1 * (bv.F + bv.lam * bv.chi)))
    x2p = np.maximum(bn.x2, 0.0)
    dirichlet = float(np.sum(bn.w_inv * (bv.g1**2 + bv.g2**2) / bv.H))
    E_H = float(dirichlet + np.sum(bn.w * bn.x1 * (bn.x2 / rho0) * bv.chi))

    u_arc = av.u
    un = av.g1 * an.n1 + av.g2 * an.n2
    j_int = u_arc * u_arc / an.x1
    J = float(np.sum(an.w * j_int)) / rho0
    E_F_arc = float(np.sum(an.w * an.x1 * (av.F + av.lam * av.chi)))

    inv_wH = 1.0 / (an.x1 * av.H)
    dw = inv_wH - 1.0 / (an.x1 * rho0)
    uun = u_arc * un
    u_sq = u_arc * u_arc
    arc_un_sq = float(np.sum(an.w * inv_wH * un * un))
    arc_uun = float(np.sum(an.w * inv_wH * uun))

    kappa = f.SCALING_POWER[kind]
    square_kernel = inv_wH * (un - kappa * u_arc / r) ** 2
    square_base = float(np.sum(an.w * square_kernel))

    K1_x2 = E_H - E_F
    vol_dF2 = bn.w * bn.x1 * bn.x2 * (bv.dF2 + (bv.lam_p - 1.0 / rho0) * bv.chi)
    K_x1x2 = float(np.sum(vol_dF2))

    rec = {"r": r, "E_F": E_F, "E_H": E_H, "E_F_arc": E_F_arc, "dirichlet": dirichlet, "J": J,
           "arc_un_sq": arc_un_sq, "arc_uun": arc_uun, "I": E_F,
           "k1": 0.0, "k2": 0.0, "k3": 0.0, "k4": 0.0, "k5": 0.0, "k6": 0.0}
    if kind == "stagnation":
        rec["M"] = r**-3 * E_F - 1.5 * r**-4 * J
        rec["square"] = 2.0 * r**-3 * square_base
        rec["k1"] = K1_x2
        rec["k2"] = K_x1x2
        rec["k3"] = float(np.sum(bn.w * (bn.x1 - center[0]) * (bv.F - 2.0 * bv.t / bv.H + bv.lam * bv.chi)))
        rec["k4"] = 3.0 * float(np.sum(an.w * dw * uun))
        rec["k5"] = 4.5 / r * float(np.sum(an.w * (-dw) * u_sq))
        k6_kernel = (an.x1 - center[0]) / an.x1 ** 2
        rec["k6"] = 1.5 / r * float(np.sum(an.w * k6_kernel * u_sq)) / rho0
        rec["k_scale"] = r**-4
    elif kind == "axis":
        rec["M"] = r**-3 * E_F - 2.0 * r**-4 * J
        rec["square"] = 2.0 * r**-3 * square_base
        rec["k1"] = float(np.sum(bn.w * bn.x1 * (bn.x2 - center[1]) * (bv.dF2 + bv.lam_p * bv.chi)))
        rec["k2"] = 4.0 * float(np.sum(an.w * dw * uun))
        rec["k3"] = 8.0 / r * float(np.sum(an.w * (-dw) * u_sq))
        rec["k_scale"] = r**-4
    else:
        rec["M"] = r**-4 * E_F - 2.5 * r**-5 * J
        rec["square"] = 2.0 * r**-4 * square_base
        rec["k1"] = K1_x2
        rec["k2"] = K_x1x2
        rec["k3"] = 5.0 * float(np.sum(an.w * dw * uun))
        rec["k4"] = 12.5 / r * float(np.sum(an.w * (-dw) * u_sq))
        rec["k_scale"] = r**-5
        rec["S_void"] = float(np.sum(bn.w * bn.x1 * x2p * (1.0 - bv.chi)))
    rec["K_sum"] = rec["k1"] + rec["k2"] + rec["k3"] + rec["k4"] + rec["k5"] + rec["k6"]
    return rec


def pohozaev_per_kind(rec, kind):
    """``pohozaev_residual`` with its coefficients and volume sum written out for each kind."""
    r = rec["r"]
    lhs_coeff = {"stagnation": 3.0, "axis": 3.0, "origin": 4.0}[kind]
    dir_coeff = {"stagnation": 3.0, "axis": 4.0, "origin": 5.0}[kind]
    lhs = lhs_coeff * rec["E_F"] - r * rec["E_F_arc"]
    if kind == "stagnation":
        ksum = rec["k1"] + rec["k2"] + rec["k3"]
    elif kind == "axis":
        ksum = rec["k1"]
    else:
        ksum = rec["k1"] + rec["k2"]
    rhs = dir_coeff * rec["dirichlet"] - 2.0 * r * rec["arc_un_sq"] - ksum
    scale = abs(lhs) + abs(dir_coeff * rec["dirichlet"]) + abs(2.0 * r * rec["arc_un_sq"]) + abs(ksum)
    return {"lhs": lhs, "rhs": rhs, "residual": lhs - rhs, "scale": max(scale, 1e-300)}
