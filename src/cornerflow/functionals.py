"""Discrete energies, monotonicity functionals and frequency quantities.

A "medium" (GammaLawMedium or IncompressibleMedium) supplies the
pointwise thermodynamics; fields supply u and grad u at quadrature
nodes.  The three point kinds are

* ``stagnation``: center (x1 > 0, 0), full balls, scaling power 3/2;
* ``axis``: center (0, x2 > 0), half balls, scaling power 2;
* ``origin``: center (0, 0), half balls, scaling power 5/2.

Per-radius records carry I, J, M, the kind's error terms K_i, the
boundary square term of the monotonicity derivative, and for the
origin kind the frequency quantities D, V, N with their cumulative
corrections.  The first-variation validator sets a field's domain-variation
integrals beside the derivative of its energy along a flow.
"""

from typing import NamedTuple

import numpy as np

from .errors import DomainError, FrequencyUndefinedError, GeometryError
from .fields import GridField
from .quadrature import arc_nodes, ball_nodes, grid_balls

KINDS = ("stagnation", "axis", "origin")
SCALING_POWER = {"stagnation": 1.5, "axis": 2.0, "origin": 2.5}
VOLUME_TERMS = {"stagnation": 3, "axis": 1, "origin": 2}  # k1.. are volume terms, the rest boundary ones

_T_ACTIVE = 1e-300


def point_kind(center):
    """The kind of the degenerate point at ``center``: which of its coordinates vanish."""
    c1, c2 = center
    if c1 == 0 and c2 == 0:
        return "origin"
    if c1 > 0 and c2 == 0:
        return "stagnation"
    if c1 == 0 and c2 > 0:
        return "axis"
    raise DomainError(f"degenerate points have x1, x2 >= 0 and x1*x2 = 0, not {tuple(center)}")


def check_radius(field_, center, r):
    """DomainError unless ``r`` lies below the admissible delta at ``center``."""
    delta = delta_radius(field_, center)
    if delta <= 0.0:
        raise DomainError(f"center {tuple(center)} lies outside the grid or on its edge")
    if np.isfinite(delta) and r >= delta * (1.0 + 1e-12):
        raise DomainError(f"radius {r} at or beyond the admissible delta {delta}")


def delta_radius(field_, center):
    """Largest admissible sweep radius: min(|x1|, dist)/2 off the axis, dist/2 on it."""
    kind = point_kind(center)
    d = field_.boundary_distance(center)
    if kind == "stagnation":
        return 0.5 * min(center[0], d)
    return 0.5 * d


def energy_power(kind):
    """a in M = r^-a E_F - kappa r^-(a+1) J: 2 kappa, less 1 on half balls, where the weight x1 scales like r."""
    return 2.0 * SCALING_POWER[kind] - (kind != "stagnation")


def log_radii(r_min, r_max, n=0):
    """``n`` log-spaced radii from r_min to r_max; n = 0 takes 24 per decade, at least 5."""
    if n == 0:
        n = max(5, int(np.ceil(24 * np.log10(r_max / r_min))))
    return np.geomspace(r_min, r_max, n)


def radius_window(field_, center):
    """The default radii's bounds (4h, 0.9*delta), h = delta/256 off a grid; GeometryError unless
    4h < 0.9*delta < inf (a profile's delta is inf at an axis or origin point)."""
    delta = delta_radius(field_, center)
    r_min = 4.0 * (field_.h if isinstance(field_, GridField) else delta / 256.0)
    r_max = 0.9 * delta
    if not r_min < r_max < np.inf:
        raise GeometryError("no admissible radius window for this center")
    return r_min, r_max


def default_radii(field_, center):
    """Log-spaced radii over ``radius_window``."""
    return log_radii(*radius_window(field_, center))


class _NodeEval(NamedTuple):
    u: np.ndarray
    g1: np.ndarray
    g2: np.ndarray
    chi: np.ndarray
    t: np.ndarray
    H: np.ndarray
    F: np.ndarray
    dF2: np.ndarray
    lam: np.ndarray
    lam_p: np.ndarray


def _with_thermo(field_, medium, x1, x2, u, g1, g2):
    """Positivity, speed t and (H, F, dF2, lambda, lambda') at nodes with field values u and (g1, g2)."""
    chi = field_.chi(u)
    t = (g1 * g1 + g2 * g2) / (x1 * x1)
    H = np.full_like(t, medium.rho0)
    F = np.zeros_like(t)
    dF2 = np.zeros_like(t)
    lam = np.zeros_like(t)
    lam_p = np.zeros_like(t)
    # thermodynamics only where it matters: H and F on nodes with speed or
    # positivity, lambda only on the positivity set (lambda multiplies chi,
    # and is undefined below the free-surface height for compressible media)
    active = (t > _T_ACTIVE) | chi
    if np.any(active):
        H[active], _, _, F[active], dF2[active] = medium.thermo(t[active], x2[active])
    if np.any(chi):
        lam[chi], lam_p[chi] = medium.lam_pair(x2[chi])
    return _NodeEval(u, g1, g2, chi, t, H, F, dF2, lam, lam_p)


def _evaluate(field_, medium, x1, x2):
    """Field, speed and thermodynamics at nodes: one field, thermo and lambda call each."""
    return _with_thermo(field_, medium, x1, x2, *field_.evaluate(x1, x2))


def _nodes(field_, center, r):
    """Ball and arc nodes of radius ``r``, and the ball's then the arc's as one point set (x1, x2)."""
    bn = ball_nodes(field_, center, r)
    an = arc_nodes(field_, center, r)
    return bn, an, np.concatenate((bn.x1, an.x1)), np.concatenate((bn.x2, an.x2))


def _sweep_nodes(field_, medium, center, radii):
    """``at(r)``: the ball nodes, ball values, arc nodes and arc values of one radius r of ``radii``.

    What the radii share is evaluated once, here: a grid's cells of the largest
    ball, nearest first, of which each ball is a prefix, with every radius's cut
    cells measured in one call, or about a homogeneous field's apex the
    unit-radius nodes, whose values scale to every radius.  Elsewhere each radius
    evaluates its ball and arc nodes as one set.  A ball's values are views of
    that one evaluation; each call builds its radius's other arrays afresh, so no
    radius keeps another's alive.
    """
    if isinstance(field_, GridField):
        x1, x2, ball = grid_balls(field_, center, radii)
        ev = _evaluate(field_, medium, x1, x2)

        def at(r):
            n, bn = ball(r)
            # a grid arc keeps only the nodes whose stencil touches the flow: at the
            # others u and grad u are 0, so every arc integrand of the record is 0
            # there (J, E_F_arc, arc_un_sq, arc_uun and the square term, and k4-k6,
            # whose dw is 0 because H = rho0 off the active set)
            an = arc_nodes(field_, center, r)
            keep, (u, g1, g2) = field_.evaluate_support(an.x1, an.x2)
            an = an._make(a[keep] for a in an)
            return bn, ev._make(a[:n] for a in ev), an, _with_thermo(field_, medium, an.x1, an.x2, u, g1, g2)
        return at

    # about a homogeneous field's apex the (polar) nodes are apex + r p for one
    # unit pattern p at every radius: u scales as r^k and grad u as r^(k-1)
    apex = field_.degree is not None and tuple(center) == field_.apex
    unit = field_.evaluate(*_nodes(field_, center, 1.0)[2:]) if apex else None

    def at(r):
        # one evaluation of the ball and arc nodes together, split back after
        bn, an, x1, x2 = _nodes(field_, center, r)
        if apex:
            u, g1, g2 = unit
            s = r ** (field_.degree - 1.0)
            ev = _with_thermo(field_, medium, x1, x2, u * (r * s), g1 * s, g2 * s)
        else:
            ev = _evaluate(field_, medium, x1, x2)
        n = bn.x1.size
        return bn, ev._make(a[:n] for a in ev), an, ev._make(a[n:] for a in ev)
    return at


def _volume_terms(kind, center, bn, bv, E_H, E_F, rho0):
    """The kind's volume error terms, in the slots k1 onward."""
    if kind == "axis":
        return [float(np.sum(bn.w * bn.x1 * (bn.x2 - center[1]) * (bv.dF2 + bv.lam_p * bv.chi)))]
    terms = [E_H - E_F]  # definition of the first error term
    terms.append(float(np.sum(bn.w * bn.x1 * bn.x2 * (bv.dF2 + (bv.lam_p - 1.0 / rho0) * bv.chi))))
    if kind == "stagnation":
        terms.append(float(np.sum(bn.w * (bn.x1 - center[0]) * (bv.F - 2.0 * bv.t / bv.H + bv.lam * bv.chi))))
    return terms


# ---------------------------------------------------------------------------
# per-radius record
# ---------------------------------------------------------------------------

def monotonicity_record(field_, medium, center, r, nodes=None):
    """All monotonicity/frequency ingredients at one radius.

    Returns a dict; keys k1..k6 are the kind's error terms (unused ones
    are zero).  ``square`` is the boundary square term of the
    monotonicity-formula derivative at this radius.  ``nodes``, if given, is
    a sweep's ``_sweep_nodes`` of radii that hold r, which the sweep checked; by
    default r's own, after checking r.
    """
    kind = point_kind(center)
    if nodes is None:
        check_radius(field_, center, r)
        nodes = _sweep_nodes(field_, medium, center, [r])
    rho0 = medium.rho0
    bn, bv, an, av = nodes(r)

    E_F = float(np.sum(bn.w * bn.x1 * (bv.F + bv.lam * bv.chi)))
    x2p = np.maximum(bn.x2, 0.0)
    dirichlet = float(np.sum(bn.w_inv * (bv.g1**2 + bv.g2**2) / bv.H))  # weighted by 1/(x1 H)
    E_H = float(dirichlet + np.sum(bn.w * bn.x1 * (bn.x2 / rho0) * bv.chi))

    # the grid's gradient vanishes on the axis, so every arc integrand goes to 0 there
    u_arc = av.u
    un = av.g1 * an.n1 + av.g2 * an.n2
    uun = u_arc * un
    u_sq = u_arc * u_arc
    J = float(np.sum(an.w * (u_sq / an.x1))) / rho0
    E_F_arc = float(np.sum(an.w * an.x1 * (av.F + av.lam * av.chi)))

    # boundary kernels
    inv_wH = 1.0 / (an.x1 * av.H)
    dw = inv_wH - 1.0 / (an.x1 * rho0)
    arc_un_sq = float(np.sum(an.w * inv_wH * un * un))
    arc_uun = float(np.sum(an.w * inv_wH * uun))

    kappa, a = SCALING_POWER[kind], energy_power(kind)
    square_kernel = inv_wH * (un - kappa * u_arc / r) ** 2
    square_base = float(np.sum(an.w * square_kernel))

    # the kind's volume error terms come first, then the boundary ones every kind shares
    ks = _volume_terms(kind, center, bn, bv, E_H, E_F, rho0)
    ks.append(2.0 * kappa * float(np.sum(an.w * dw * uun)))
    ks.append(2.0 * kappa * kappa / r * float(np.sum(an.w * (-dw) * u_sq)))
    if kind == "stagnation":
        k6_kernel = (an.x1 - center[0]) / an.x1 ** 2
        ks.append(kappa / r * float(np.sum(an.w * k6_kernel * u_sq)) / rho0)
    ks += [0.0] * (6 - len(ks))  # unused slots are zero

    rec = {
        "r": r,
        "E_F": E_F,
        "E_H": E_H,
        "E_F_arc": E_F_arc,
        "dirichlet": dirichlet,
        "J": J,
        "arc_un_sq": arc_un_sq,
        "arc_uun": arc_uun,
        "I": E_F,
        **{f"k{i}": k for i, k in enumerate(ks, 1)},
        "M": r**-a * E_F - kappa * r**-(a + 1) * J,
        "square": 2.0 * r**-a * square_base,
        "k_scale": r**-(a + 1),
    }
    if kind == "origin":
        # frequency ingredients
        rec["S_void"] = float(np.sum(bn.w * bn.x1 * x2p * (1.0 - bv.chi)))
    rec["K_sum"] = rec["k1"] + rec["k2"] + rec["k3"] + rec["k4"] + rec["k5"] + rec["k6"]
    return rec


# ---------------------------------------------------------------------------
# identities
# ---------------------------------------------------------------------------

def pohozaev_residual(rec, kind):
    """Left minus right side of the kind's Pohozaev identity for one record, with scale."""
    r = rec["r"]
    dir_coeff = 2.0 * SCALING_POWER[kind]
    lhs = energy_power(kind) * rec["E_F"] - r * rec["E_F_arc"]
    # the volume slots summed from k1 on (a start of 0 would turn a -0.0 sum into +0.0)
    ksum = sum((rec[f"k{i}"] for i in range(2, VOLUME_TERMS[kind] + 1)), rec["k1"])
    rhs = dir_coeff * rec["dirichlet"] - 2.0 * r * rec["arc_un_sq"] - ksum
    scale = abs(lhs) + abs(dir_coeff * rec["dirichlet"]) + abs(2.0 * r * rec["arc_un_sq"]) + abs(ksum)
    return {"lhs": lhs, "rhs": rhs, "residual": lhs - rhs, "scale": max(scale, 1e-300)}


def energy_identity_residual(rec):
    """Bulk weighted Dirichlet energy minus boundary flux for one record, with scale."""
    resid = rec["dirichlet"] - rec["arc_uun"]
    scale = abs(rec["dirichlet"]) + abs(rec["arc_uun"])
    return {"residual": resid, "scale": max(scale, 1e-300)}


# ---------------------------------------------------------------------------
# radial sweeps
# ---------------------------------------------------------------------------

class RadialSweep(NamedTuple):
    """The radii of one sweep and, per name, the column of its records' values."""
    radii: np.ndarray
    columns: dict


def radial_sweep(field_, medium, center, radii):
    """Monotonicity + frequency sweep over strictly increasing radii.

    One record per radius; every column, the Pohozaev and energy-identity
    residuals included, is read from it.
    """
    kind = point_kind(center)
    radii = np.asarray(radii, dtype=float)
    if radii.ndim != 1 or radii.size < 2 or np.any(np.diff(radii) <= 0):
        raise DomainError("radii must be strictly increasing (need at least 2)")

    # each radius's own error comes first, then one node source serves every radius
    for r in radii:
        check_radius(field_, center, float(r))
    nodes = _sweep_nodes(field_, medium, center, radii)
    recs = [monotonicity_record(field_, medium, center, float(r), nodes=nodes)
            for r in radii]
    cols = {k: np.array([rec[k] for rec in recs]) for k in recs[0]}  # every record has the kind's keys
    cols["pohozaev_residual"] = np.array([pohozaev_residual(rec, kind)["residual"] for rec in recs])
    cols["energy_identity_residual"] = np.array(
        [energy_identity_residual(rec)["residual"] for rec in recs]
    )
    sweep = RadialSweep(radii, cols)

    # centered finite-difference derivative of M on the (log-spaced) radii
    M = cols["M"]
    dM = np.full_like(M, np.nan)
    dM[1:-1] = (M[2:] - M[:-2]) / (radii[2:] - radii[:-2])
    cols["dM_fd"] = dM
    rhs = cols["square"] + cols["k_scale"] * cols["K_sum"]
    cols["dM_rhs"] = rhs

    if kind == "origin":
        _attach_frequency(sweep, medium)
    return sweep


def _cumtrapz0(radii, f):
    """Cumulative trapezoid from r = 0, the integrand extended there by the line through its first two
    values: exact for a homogeneous blow-up's constant integrand, second order in the smallest radius otherwise."""
    r = np.concatenate(([0.0], radii))
    f0 = f[0] - radii[0] * (f[1] - f[0]) / (radii[1] - radii[0])
    g = np.concatenate(([f0], f))
    return np.cumsum(0.5 * (g[1:] + g[:-1]) * np.diff(r))


def _attach_frequency(sweep: RadialSweep, medium):
    r = sweep.radii
    c = sweep.columns
    J = c["J"]
    K1 = c["k1"]
    Ko = c["k2"] + c["k3"] + c["k4"]
    e = r * K1 + r**5 * _cumtrapz0(r, (K1 + Ko) / r**5)
    Pi = _cumtrapz0(r, c["S_void"] / r**4)
    with np.errstate(divide="ignore", invalid="ignore"):
        D = np.where(J > 0, r * c["dirichlet"] / J, np.nan)
        Vplus = np.where(J > 0, r * c["S_void"] / (medium.rho0 * J), np.nan)
        Vtilde = np.where(J > 0, e / J, np.nan)
    V = Vplus + Vtilde
    c["D"] = D
    c["V_plus"] = Vplus
    c["V_tilde"] = Vtilde
    c["V"] = V
    c["N"] = D - V
    c["e"] = e
    c["Pi"] = Pi
    c["J_scaled"] = J / r**5


def frequency_quantities(field_, medium, radii):
    """Frequency sweep D, V, N, e, V+, Vtilde, Pi at the origin.

    Raises FrequencyUndefinedError if J vanishes at any radius.
    """
    sweep = radial_sweep(field_, medium, (0.0, 0.0), radii)
    if np.any(sweep.columns["J"] <= 0.0):
        bad = sweep.radii[np.argmax(sweep.columns["J"] <= 0.0)]
        raise FrequencyUndefinedError(f"J(r) = 0 at r = {bad}")
    return sweep


def monotonicity_derivative_check(field_, medium, center, radii):
    """Max |finite-difference M' - (square + scaled K sum)| over the radii."""
    radii = np.asarray(radii, dtype=float)
    if radii.size < 5:
        raise DomainError("need at least 5 radii for the derivative check")
    sweep = radial_sweep(field_, medium, center, radii)
    resid = sweep.columns["dM_fd"] - sweep.columns["dM_rhs"]
    inner = resid[1:-1]
    return {
        "sweep": sweep,
        "residuals": resid,
        "max_residual": float(np.max(np.abs(inner))),
    }


# ---------------------------------------------------------------------------
# first-variation validator
# ---------------------------------------------------------------------------

def first_variation_terms(field_, medium, phi, dphi, box):
    """The four domain-variation integrals on the cell centers of ``box``.

    ``box`` is ``(x1_min, x1_max, x2_min, x2_max, h)``, a ``GridField.lattice``
    box that h divides.  ``phi(x1, x2) -> (phi1, phi2)`` must vanish near the
    box's edge and on the axis; ``dphi`` returns the Jacobian entries (d1p1,
    d2p1, d1p2, d2p2).  Returns the total (zero at exact solutions).
    """
    x1, x2 = (a.ravel() for a in GridField.lattice(*box))
    ev = _evaluate(field_, medium, x1, x2)
    g1, g2, t, chi, H = ev.g1, ev.g2, ev.t, ev.chi, ev.H
    p1, p2 = phi(x1, x2)
    d1p1, d2p1, d1p2, d2p2 = dphi(x1, x2)
    divp = d1p1 + d2p2

    w = box[4] * box[4]
    gDg = g1 * (d1p1 * g1 + d2p1 * g2) + g2 * (d1p2 * g1 + d2p2 * g2)
    T1 = np.sum(x1 * (ev.F + ev.lam * chi) * divp) * w
    T2 = -2.0 * np.sum(gDg / (x1 * H)) * w
    T3 = np.sum((ev.F - 2.0 * t / H + ev.lam * chi) * p1) * w
    T4 = np.sum(x1 * (ev.dF2 + ev.lam_p * chi) * p2) * w
    return {"T1": float(T1), "T2": float(T2), "T3": float(T3), "T4": float(T4),
            "total": float(T1 + T2 + T3 + T4)}


def flow_energy(field_, medium, phi, eps, dphi, box):
    """E_F of the resampled field u(x + eps*phi(x)) on the cell centers of ``box``; ``dphi`` is phi's Jacobian."""
    x1, x2 = (a.ravel() for a in GridField.lattice(*box))
    p1, p2 = phi(x1, x2)
    y1 = x1 + eps * p1
    y2 = x2 + eps * p2
    try:
        u, g1, g2 = field_.evaluate(y1, y2)
    except GeometryError:
        raise GeometryError("phi transports lattice points outside the field")
    # gradient of x -> u(x + eps*phi): (I + eps*Dphi)^T grad u(y)
    d1p1, d2p1, d1p2, d2p2 = dphi(x1, x2)
    G1 = (1.0 + eps * d1p1) * g1 + eps * d1p2 * g2
    G2 = eps * d2p1 * g1 + (1.0 + eps * d2p2) * g2
    ev = _with_thermo(field_, medium, x1, x2, u, G1, G2)
    return float(np.sum(x1 * (ev.F + ev.lam * ev.chi)) * box[4] * box[4])


def domain_variation_residual(field_, medium, phi, dphi, box, eps=1e-4):
    """Analytic first-variation total next to the flow finite difference, both on ``box``.

    The two must satisfy ``analytic_total ~ -(E(eps) - E(-eps))/(2 eps)``
    up to O(eps^2) plus the discretization error of the shared lattice.
    """
    terms = first_variation_terms(field_, medium, phi, dphi, box)
    Ep = flow_energy(field_, medium, phi, +eps, dphi, box)
    Em = flow_energy(field_, medium, phi, -eps, dphi, box)
    flow_fd = (Ep - Em) / (2.0 * eps)
    return {
        "analytic_total": terms["total"],
        "flow_fd": flow_fd,
        "mismatch": terms["total"] + flow_fd,
        "terms": terms,
    }
