"""Blow-up rescaling, weighted densities, and the trichotomy classifier.

The classifier works in the normalized density frame (sqrt(3)/3, 2/3,
1/8, m0, 0); physical factors such as x1/rho0 are applied only when
reporting.  At axis points the density 2/3 is shared by the parabola
profile and the trivial full-positivity case, so the blow-up norm
breaks the tie (the trivial case is flagged as such).
"""

import math

import numpy as np

from .errors import DomainError, GeometryError, InsufficientDataError
from .fields import GridField
from .functionals import SCALING_POWER, energy_power, frequency_quantities, point_kind, radius_window
from .profiles import eval_profile, flat_origin, garabedian_bubble, stokes_corner, theta_star_constants
from .quadrature import ball_nodes, polar_arc_nodes, polar_ball_nodes

NORM_THRESHOLD = 0.05  # blow-up norm below this fraction of the unit shape => trivial
DEFICIT_R_MIN = 0.5  # frequency_blowup's homogeneity deficit integrates over 1/2 <= |x| <= 1
BLOWUP_H = 2.0 / 128  # the blow-up lattice's step: 128 cells across the unit box


def candidate_densities(kind):
    """Admissible normalized densities with their labels, per kind."""
    if kind == "stagnation":
        return [
            ("StokesCorner", math.sqrt(3.0) / 3.0),
            ("HorizontalFlat", 2.0 / 3.0),
            ("Cusp", 0.0),
        ]
    if kind == "axis":
        return [("AxisParabola", 2.0 / 3.0), ("Cusp", 0.0)]
    if kind == "origin":
        c = theta_star_constants()
        return [
            ("GarabedianBubble", c.m0),
            ("HorizontalFlat", 0.125),
            ("Cusp", 0.0),
        ]
    raise DomainError(f"unknown kind {kind!r}")


# ---------------------------------------------------------------------------
# blow-up rescaling
# ---------------------------------------------------------------------------

def blowup(field_, center, r):
    """Resampled rescaled field u(x0 + r x)/r^d on a unit-box grid."""
    kind = point_kind(center)
    if isinstance(field_, GridField):
        if r < 4.0 * field_.h:
            raise GeometryError("blow-up radius below 4h")
        field_.check_holds(center, r * math.sqrt(2.0), kind != "stagnation", "blow-up box")
    box = (-1.0 if kind == "stagnation" else 0.0, 1.0, -1.0, 1.0, BLOWUP_H)
    X1, X2 = GridField.lattice(*box)
    vals = field_.value(center[0] + r * X1, center[1] + r * X2) / r**SCALING_POWER[kind]
    return GridField(*box, vals)


# ---------------------------------------------------------------------------
# weighted density
# ---------------------------------------------------------------------------

def _density(kind, nodes, chi, r):
    """Positivity density of one ball over r^a: weight x1 on half balls, x2+ unless at an axis point."""
    weight = nodes.w
    if kind != "stagnation":
        weight = weight * nodes.x1
    if kind != "axis":
        weight = weight * np.maximum(nodes.x2, 0.0)
    return float(np.sum(weight * chi) / r**energy_power(kind))


def weighted_density(field_, center, radii):
    """Per-radius densities and an affine-in-r extrapolation to r = 0.

    The fit uses the smallest decade of the supplied radii; the
    reported uncertainty combines the fit spread with the extrapolation
    distance.  Needs at least 3 usable radii.
    """
    radii = np.asarray(radii, dtype=float)
    if radii.size < 3:
        raise InsufficientDataError("need at least 3 radii for extrapolation")
    radii = np.sort(radii)
    kind = point_kind(center)
    half = kind != "stagnation"
    balls = ((b, field_.chi(field_.value(b.x1, b.x2)))
             for b in (ball_nodes(field_, center, r, half=half) for r in radii))
    dens = np.array([_density(kind, nodes, pos, r) for r, (nodes, pos) in zip(radii, balls)])
    use = radii <= radii[0] * 10.0
    ru, du = radii[use], dens[use]
    if ru.size >= 3:
        A = np.vstack([np.ones_like(ru), ru]).T
        coef, *_ = np.linalg.lstsq(A, du, rcond=None)
        a, b = coef
        spread = float(np.max(np.abs(du - (a + b * ru))))
        unc = 3.0 * spread + abs(b) * ru[0]
    else:
        a = du[0]
        unc = float(np.max(np.abs(du - a)))
    return {
        "radii": radii,
        "densities": dens,
        "value": float(a),
        "uncertainty": float(max(unc, 1e-12)),
    }


# ---------------------------------------------------------------------------
# profile fitting
# ---------------------------------------------------------------------------

def _weighted_fit(w, u, shape):
    """Weighted least-squares coefficient of ``shape`` to ``u`` and the relative residual."""
    num = float(np.sum(w * u * shape))
    den = float(np.sum(w * shape * shape))
    coeff = num / den if den > 0 else 0.0
    resid = u - coeff * shape
    rel = math.sqrt(float(np.sum(w * resid**2)) / max(float(np.sum(w * u**2)), 1e-300))
    return coeff, rel


def _unit_disk(blow: GridField, kind):
    """The blow-up's cells (X1, X2) and their weight on the unit disk.

    Stagnation fits use plain L^2 on the blow-up box; axis/origin use
    the 1/x1-weighted norm natural to the half-plane.
    """
    X1, X2 = np.meshgrid(blow.cell_x1, blow.cell_x2, indexing="ij")
    inside = X1**2 + X2**2 <= 1.0
    if kind == "stagnation":
        return X1, X2, np.where(inside, 1.0, 0.0)
    return X1, X2, np.where(inside, 1.0 / X1, 0.0)


def _fit_shape(blow: GridField, kind, label):
    """``_weighted_fit`` of the blow-up to the unit shape of ``label`` on the unit disk."""
    X1, X2, w = _unit_disk(blow, kind)
    if label == "StokesCorner":
        shape = eval_profile(stokes_corner(coeff=1.0), X1, X2)
    elif label == "AxisParabola":
        shape = X1 * X1
    else:
        shape = eval_profile(garabedian_bubble(beta0=1.0), X1, X2)
    return _weighted_fit(w, blow.values, shape)


def blowup_norm_ratio(blow: GridField):
    """Blow-up L^2 size relative to the unit quadratic shape (axis tie-break)."""
    X1, _, w = _unit_disk(blow, "axis")
    nu = math.sqrt(float(np.sum(w * blow.values**2)))
    ns = math.sqrt(float(np.sum(w * (X1 * X1) ** 2)))
    return nu / max(ns, 1e-300)


def default_radii(field_, center):
    """10 log-spaced radii to the top of ``radius_window``, from its bottom or top/8 if larger."""
    r_min, r_hi = radius_window(field_, center)
    return np.geomspace(max(r_min, r_hi / 8.0), r_hi, 10)


class Classification:
    """The classifier's verdict; its attributes are what ``classification.json`` holds."""

    def __init__(self, kind, density, uncertainty, label, nearest_density, gap,
                 fit_param=None, fit_residual=None, candidates=None, notes=""):
        self.kind, self.density, self.uncertainty, self.label = kind, density, uncertainty, label
        self.nearest_density, self.gap = nearest_density, gap
        self.fit_param, self.fit_residual = fit_param, fit_residual
        self.candidates = [] if candidates is None else candidates
        self.notes = notes


def _check_near_positive_cell(grid: GridField, center):
    """GeometryError, with the distance, if ``grid`` has positive cells but none within 2h of ``center``.

    About a point in the zero phase the fit in r extrapolates the densities'
    rise to a value below 0; with no positive cell every density is 0, a cusp's.
    """
    d2 = np.add.outer((grid.cell_x1 - center[0]) ** 2, (grid.cell_x2 - center[1]) ** 2)
    dist = math.sqrt(np.min(d2, where=grid.chi(grid.values), initial=np.inf))
    if 2.0 * grid.h < dist < math.inf:
        raise GeometryError(f"center {tuple(center)} is no free-boundary point: the nearest positive "
                            f"cell lies {dist:.6g} away, beyond 2h = {2.0 * grid.h:.6g}")


def classify(field_, center, radii=None):
    """Trichotomy classification by nearest weighted density.

    An ambiguous match is labelled "Ambiguous" with the candidate table
    attached (never a forced label).  A center is no free-boundary point,
    a GeometryError, if on a grid no positive cell lies within 2h of it, or
    off a grid the density is 0 at the smallest radius but not at a larger.
    """
    kind = point_kind(center)
    if isinstance(field_, GridField):
        _check_near_positive_cell(field_, center)
    if radii is None:
        radii = default_radii(field_, center)
    meas = weighted_density(field_, center, radii)
    d, unc, dens = meas["value"], meas["uncertainty"], meas["densities"]
    if dens[0] == 0.0 < np.max(dens) and not isinstance(field_, GridField):
        raise GeometryError(f"center {tuple(center)} is no free-boundary point: the density is 0 at the "
                            f"smallest radius {meas['radii'][0]:.6g} but positive at a larger one")
    cands = sorted(candidate_densities(kind), key=lambda kv: abs(kv[1] - d))
    label, dstar = cands[0]
    gap = abs(d - dstar)
    second_gap = abs(d - cands[1][1]) if len(cands) > 1 else np.inf
    notes = ""
    if second_gap - gap < 2.0 * unc:
        label = "Ambiguous"
        notes = "two theoretical densities within twice the uncertainty"

    fit_param = None
    fit_resid = None
    r_lo, r_fit = float(meas["radii"][0]), float(meas["radii"][-1])  # weighted_density sorts them
    if label == "AxisParabola":
        # density 2/3 is shared with the trivial (u_0 = 0) axis case; the
        # blow-up norm separates them: it is r-independent for the
        # parabola and decays for a trivial point
        blow_hi = blowup(field_, center, r_fit)
        ratio_lo = blowup_norm_ratio(blowup(field_, center, r_lo))
        ratio_hi = blowup_norm_ratio(blow_hi)
        decaying = ratio_hi > 0 and ratio_lo / max(ratio_hi, 1e-300) < 0.6
        if ratio_lo < NORM_THRESHOLD or decaying:
            label = "HorizontalFlat"
            notes = (
                "density 2/3 with vanishing blow-up norm: trivial axis point "
                "(the trivial 2/3 case is not excluded by the theory)"
            )
        else:
            fit_param, fit_resid = _fit_shape(blow_hi, kind, "AxisParabola")
    elif label in ("StokesCorner", "GarabedianBubble"):
        fit_param, fit_resid = _fit_shape(blowup(field_, center, r_fit), kind, label)
    return Classification(
        kind=kind,
        density=d,
        uncertainty=unc,
        label=label,
        nearest_density=dstar,
        gap=gap,
        fit_param=fit_param,
        fit_residual=fit_resid,
        candidates=[[c, v] for c, v in cands],
        notes=notes,
    )


# ---------------------------------------------------------------------------
# frequency blow-ups
# ---------------------------------------------------------------------------

def frequency_blowup(field_, medium, radii):
    """Normalized blow-ups v_r = u(r x)/||u||_w with fit and homogeneity checks.

    Returns per-radius records with the boundary-norm check, the fit
    coefficient/residual against the flat profile on the unit half-ball,
    the measured N(r), and the homogeneity deficit on the half-annulus
    DEFICIT_R_MIN <= |x| <= 1 (the weighted square of grad v . x - N v,
    which decays when the limit is homogeneous).
    """
    radii = np.asarray(sorted(radii), dtype=float)
    sweep = frequency_quantities(field_, medium, radii)
    J = sweep.columns["J"]
    N = sweep.columns["N"]
    N0 = float(N[0])
    flat = flat_origin()
    splits = tuple(getattr(field_, "rays_phi", ())) + (0.0,)
    arc = polar_arc_nodes((0.0, 0.0), 1.0, splits=splits, half=True)
    pn = polar_ball_nodes((0.0, 0.0), 1.0, splits=splits, half=True)
    shape = eval_profile(flat, pn.x1, pn.x2)
    wgt = pn.w_inv
    ann = (pn.x1**2 + pn.x2**2) >= DEFICIT_R_MIN**2
    out = []
    for i, r in enumerate(radii):
        c = math.sqrt(medium.rho0 * J[i])
        # boundary-norm check: the normalization makes it 1 by construction
        vr_arc = field_.value(r * arc.x1, r * arc.x2) / c
        norm = math.sqrt(float(np.sum(arc.w * vr_arc**2 / arc.x1)))
        # blow-up values/gradient on the unit half-ball
        vr, g1, g2 = field_.evaluate(r * pn.x1, r * pn.x2)
        vr = vr / c
        g1 = r * g1 / c
        g2 = r * g2 / c
        coeff, rel = _weighted_fit(wgt, vr, shape)
        rad = g1 * pn.x1 + g2 * pn.x2
        rr = np.hypot(pn.x1, pn.x2)
        # homogeneity deficit with the local frequency N(r) standing in for
        # its limit (the limit is unknown at finite radius)
        kern = np.where(ann, (rad - float(N[i]) * vr) ** 2 / pn.x1 / rr**6, 0.0)
        deficit = float(np.sum(pn.w * kern))
        out.append(
            {
                "r": float(r),
                "boundary_norm": norm,
                "fit_coeff": coeff,
                "fit_residual": rel,
                "N": float(N[i]),
                "deficit": deficit,
            }
        )
    return {"records": out, "sweep": sweep, "N0": N0}
