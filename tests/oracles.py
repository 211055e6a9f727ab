"""Test-only oracles: independent or earlier forms of what the library computes.

* Quadrature oracles for the EOS layer.  The library evaluates F(t;s) and
  lambda(x2) in closed form (docs/decisions.md); these routines integrate
  the defining expressions numerically instead, so they check the closed
  form independently of its derivation.
* The separate value and gradient evaluations that ``GridField.evaluate``,
  ``profiles.evaluate_profile`` and the one-evaluation-per-radius
  ``monotonicity_record`` replaced, and the one-box grid ball that the
  selection from a larger ball's cells replaced; the new paths must match
  them bit for bit.
* The blow-up fits as ``classify`` and ``frequency_blowup`` each wrote
  them out before they shared one least-squares helper; the shared fit
  must match them bit for bit.
* The monotonicity record and Pohozaev residual with M, the square term,
  k_scale and the error terms written out for each point kind, as they were
  before one formula served all three; the formula must match them bit for bit.
* Helpers that only the tests use: the degree-1 Legendre Q function, the
  EOS model's text round trip and the ray slopes of a Stokes-corner blow-up.
"""

import math

import numpy as np

from cornerflow import functionals
from cornerflow.eos import EosModel, invert_many
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
    ball_nodes,
    grid_ball_select,
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
    """Grid-field gradient, each component interpolated from its own padded array."""
    g1 = np.gradient(fld.values, fld.h, axis=0, edge_order=2)
    g2 = np.gradient(fld.values, fld.h, axis=1, edge_order=2)
    if fld.on_axis:
        g1[0, :] = (fld.values[1, :] + fld.values[0, :]) / (2.0 * fld.h)
    return (_interp_one(fld, fld._pad(g1, odd_axis=False), x1, x2),
            _interp_one(fld, fld._pad(g2, odd_axis=True), x1, x2))


def grid_value_separate(fld, x1, x2):
    return _interp_one(fld, fld._pad(fld.values, odd_axis=True), x1, x2)


def grid_ball_one_box(fld, center, r, half=False):
    """Grid ball nodes of radius ``r`` built from the bounding box of that radius alone."""
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
    keep = frac > 0.0
    x1, x2, frac = x1[keep], x2[keep], frac[keep]
    x1l, x1r = x1 - 0.5 * h, x1 + 0.5 * h
    safe = x1l > 1e-3 * h
    inv_mean = np.empty_like(x1)
    inv_mean[safe] = np.log(x1r[safe] / x1l[safe]) / h
    inv_mean[~safe] = 1.0 / x1[~safe]
    return BallNodes(x1=x1, x2=x2, w=frac * h * h, w_inv=frac * h * h * inv_mean)


def _evaluate_two_sets(field_, medium, x1, x2, n_ball):
    """Ball nodes and arc nodes evaluated apart, each with separate value and gradient calls."""
    parts = []
    for sl in (slice(0, n_ball), slice(n_ball, None)):
        a1, a2 = x1[sl], x2[sl]
        if isinstance(field_, GridField):
            u = grid_value_separate(field_, a1, a2)
            g1, g2 = grid_gradient_separate(field_, a1, a2)
        else:
            u = field_.value(a1, a2)
            g1, g2 = field_.gradient(a1, a2)
        chi = field_.chi(u)
        parts.append((a1, a2, u, g1, g2, chi, *functionals._thermo(medium, a1, a2, g1, g2, chi)))
    return functionals._NodeEval(*(np.concatenate(p) for p in zip(*parts)))


def record_two_sets(field_, medium, center, r, kind, n_arc=4096):
    """``monotonicity_record`` with its ball and arc nodes evaluated as two node sets."""
    n_ball = ball_nodes(field_, center, r, half=kind != "stagnation").x1.size
    one_set = functionals._evaluate
    functionals._evaluate = lambda f, m, x1, x2: _evaluate_two_sets(f, m, x1, x2, n_ball)
    try:
        return functionals.monotonicity_record(field_, medium, center, r, kind, n_arc=n_arc)
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
    J = functionals.frequency_quantities(field_, medium, (0.0, 0.0), radii).columns["J"]
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

def record_per_kind(field_, medium, center, r, kind, n_arc=4096, cells=None):
    """``monotonicity_record`` with M, the square term, k_scale and the error terms
    written out for each kind; the nodes are evaluated as the library does."""
    f = functionals
    half = kind in ("axis", "origin")
    rho0 = medium.rho0
    if cells is not None:
        index, bn = grid_ball_select(field_, cells[0], center, r)
        bv = f._Subset(cells[1], index)
        an = arc_nodes(field_, center, r, half=half, n_arc=n_arc)
        av = f._evaluate(field_, medium, an.x1, an.x2)
    else:
        bn, an, x1, x2 = f._nodes(field_, center, r, half, n_arc)
        if getattr(field_, "degree", None) is not None and tuple(center) == field_.apex:
            vals = field_.evaluate_scaled(r, half, lambda: f._nodes(field_, center, 1.0, half, n_arc)[2:])
            ev = f._with_thermo(field_, medium, x1, x2, *vals)
        else:
            ev = f._evaluate(field_, medium, x1, x2)
        n = bn.x1.size
        bv, av = f._Subset(ev, slice(None, n)), f._Subset(ev, slice(n, None))

    E_F = float(np.sum(bn.w * bv.x1 * (bv.F + bv.lam * bv.chi)))
    x2p = np.maximum(bv.x2, 0.0)
    dirichlet = float(np.sum(bn.w_inv * (bv.g1**2 + bv.g2**2) / bv.H))
    E_H = float(dirichlet + np.sum(bn.w * bv.x1 * (bv.x2 / rho0) * bv.chi))

    u_arc = f._mask_axis(av.u, av.x1)
    un = av.g1 * an.n1 + av.g2 * an.n2
    j_int = f._mask_axis(u_arc * u_arc / np.maximum(av.x1, 1e-300), av.x1)
    J = float(np.sum(an.w * j_int)) / rho0
    E_F_arc = float(np.sum(an.w * av.x1 * (av.F + av.lam * av.chi)))

    inv_wH = f._mask_axis(1.0 / (np.maximum(av.x1, 1e-300) * av.H), av.x1)
    dw = inv_wH - f._mask_axis(1.0 / (np.maximum(av.x1, 1e-300) * rho0), av.x1)
    uun = u_arc * un
    u_sq = u_arc * u_arc
    arc_un_sq = float(np.sum(an.w * inv_wH * un * un))
    arc_uun = float(np.sum(an.w * inv_wH * uun))

    kappa = f.SCALING_POWER[kind]
    square_kernel = inv_wH * (un - kappa * u_arc / r) ** 2
    square_base = float(np.sum(an.w * square_kernel))

    K1_x2 = E_H - E_F
    vol_dF2 = bn.w * bv.x1 * bv.x2 * (bv.dF2 + (bv.lam_p - 1.0 / rho0) * bv.chi)
    K_x1x2 = float(np.sum(vol_dF2))

    rec = {"r": r, "E_F": E_F, "E_H": E_H, "E_F_arc": E_F_arc, "dirichlet": dirichlet, "J": J,
           "arc_un_sq": arc_un_sq, "arc_uun": arc_uun, "I": E_F,
           "k1": 0.0, "k2": 0.0, "k3": 0.0, "k4": 0.0, "k5": 0.0, "k6": 0.0}
    if kind == "stagnation":
        rec["M"] = r**-3 * E_F - 1.5 * r**-4 * J
        rec["square"] = 2.0 * r**-3 * square_base
        rec["k1"] = K1_x2
        rec["k2"] = K_x1x2
        rec["k3"] = float(np.sum(bn.w * (bv.x1 - center[0]) * (bv.F - 2.0 * bv.t / bv.H + bv.lam * bv.chi)))
        rec["k4"] = 3.0 * float(np.sum(an.w * dw * uun))
        rec["k5"] = 4.5 / r * float(np.sum(an.w * (-dw) * u_sq))
        k6_kernel = f._mask_axis((av.x1 - center[0]) / np.maximum(av.x1, 1e-300) ** 2, av.x1)
        rec["k6"] = 1.5 / r * float(np.sum(an.w * k6_kernel * u_sq)) / rho0
        rec["k_scale"] = r**-4
    elif kind == "axis":
        rec["M"] = r**-3 * E_F - 2.0 * r**-4 * J
        rec["square"] = 2.0 * r**-3 * square_base
        rec["k1"] = float(np.sum(bn.w * bv.x1 * (bv.x2 - center[1]) * (bv.dF2 + bv.lam_p * bv.chi)))
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
        rec["S_void"] = float(np.sum(bn.w * bv.x1 * x2p * (1.0 - bv.chi)))
        rec["S_pos"] = float(np.sum(bn.w * bv.x1 * x2p * bv.chi))
        rec["script_J"] = float(np.sum(an.w * dw * u_sq))
        rec["grad_w_norm"] = float(np.sum(bn.w_inv * (bv.g1**2 + bv.g2**2)))
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
