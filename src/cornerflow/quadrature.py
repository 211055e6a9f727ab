"""Quadrature node generators for balls and arcs in the half-plane.

Two backends share one node layout convention:

* grid fields: cell-wise midpoint with the exact area of each cell cut
  by the circle (``_cell_fractions``), trapezoid rule on arcs with
  bilinear interpolation;
* analytic fields: polar Gauss-Legendre panels split at the field's
  kink rays, so cone indicators and |grad u| kinks never cross a panel.

Volume node sets carry two weight vectors: ``w`` for plain area
integrals and ``w_inv`` for integrands with a 1/x1 factor, where the
per-cell integral of 1/x1 is taken exactly across the cell width.
"""

from functools import lru_cache
from typing import NamedTuple

import numpy as np

from .fields import AnalyticField, GridField, half_ball
from .legendre import gauss_legendre

N_ARC = 4096  # trapezoid intervals of every grid arc, on the circle or the half circle
_BAND = 0.7072  # a cell's half-diagonal over h, rounded up: a disk's edge cuts cells within _BAND h of it


class BallNodes(NamedTuple):
    x1: np.ndarray
    x2: np.ndarray
    w: np.ndarray
    w_inv: np.ndarray


class ArcNodes(NamedTuple):
    x1: np.ndarray
    x2: np.ndarray
    w: np.ndarray
    n1: np.ndarray
    n2: np.ndarray


# ---------------------------------------------------------------------------
# polar backend (analytic fields)
# ---------------------------------------------------------------------------

def _angle_panels(splits, half):
    lo, hi = (-0.5 * np.pi, 0.5 * np.pi) if half else (-np.pi, np.pi)
    cuts = {lo, hi}
    for a in splits:
        a = (a + np.pi) % (2.0 * np.pi) - np.pi
        if lo + 1e-14 < a < hi - 1e-14:  # the seam at +-pi is a panel edge already
            cuts.add(a)
    edges = np.array(sorted(cuts))
    return [(edges[i], edges[i + 1]) for i in range(len(edges) - 1)]


def _frozen(*parts):
    """Each list of arrays in ``parts`` joined into one read-only array: a cached pattern is shared."""
    out = tuple(np.concatenate(p) for p in parts)
    for a in out:
        a.flags.writeable = False
    return out


@lru_cache(maxsize=64)
def _ball_pattern(splits, half):
    """Unit-disk nodes (p1, p2, w) about the origin: 48 radial x 32 angular per panel."""
    xr, wr = gauss_legendre(48)
    rho = 0.5 * (xr + 1.0)
    xt, wt = gauss_legendre(32)
    ps1, ps2, ws = [], [], []
    for a, b in _angle_panels(splits, half):
        phi = 0.5 * (b - a) * xt + 0.5 * (a + b)
        R, P = np.meshgrid(rho, phi, indexing="ij")
        ps1.append((R * np.cos(P)).ravel())
        ps2.append((R * np.sin(P)).ravel())
        ws.append(np.outer(0.5 * wr * rho, 0.5 * (b - a) * wt).ravel())
    return _frozen(ps1, ps2, ws)


@lru_cache(maxsize=64)
def _arc_pattern(splits, half):
    """Unit-circle nodes (p1, p2, w) about the origin: 48 per panel; (p1, p2) is the normal."""
    xt, wt = gauss_legendre(48)
    panels = _angle_panels(splits, half)
    phi = np.concatenate([0.5 * (b - a) * xt + 0.5 * (a + b) for a, b in panels])
    return _frozen([np.cos(phi)], [np.sin(phi)], [0.5 * (b - a) * wt for a, b in panels])


def polar_ball_nodes(center, r, splits=()):
    """Nodes ``center + r p`` and weights ``r^2 w`` of the cached unit pattern (p, w)."""
    p1, p2, w = _ball_pattern(tuple(splits), half_ball(center))
    x1 = center[0] + r * p1
    w = r * r * w
    return BallNodes(x1=x1, x2=center[1] + r * p2, w=w, w_inv=w / x1)


def polar_arc_nodes(center, r, splits=()):
    """Nodes ``center + r p``, weights ``r w`` and normals ``p`` of the cached unit pattern."""
    p1, p2, w = _arc_pattern(tuple(splits), half_ball(center))
    return ArcNodes(x1=center[0] + r * p1, x2=center[1] + r * p2, w=r * w, n1=p1, n2=p2)


# ---------------------------------------------------------------------------
# grid backend
# ---------------------------------------------------------------------------

def _corner_area(x, y, r):
    """Area of disk(0, r) intersected with {X <= x, Y <= y} (vectorized; r broadcasts against x and y)."""
    x = np.clip(x, -r, r)
    y = np.clip(y, -r, r)

    def F(X):
        X = np.clip(X, -r, r)
        return 0.5 * (X * np.sqrt(np.maximum(r * r - X * X, 0.0))
                      + r * r * np.arcsin(np.clip(X / r, -1.0, 1.0)))

    def W(a, b):
        b = np.maximum(a, b)
        return F(b) - F(a)

    xc = np.sqrt(np.maximum(r * r - y * y, 0.0))
    base = W(-r, x)
    # integral of clamp(y, -w, w): y on |X| < xc, +-w outside
    mid_lo = np.maximum(-xc, -r)
    mid_hi = np.minimum(x, xc)
    mid = y * np.maximum(mid_hi - mid_lo, 0.0)
    outer = W(-r, np.minimum(x, -xc)) + W(xc, x)
    return base + mid + np.sign(y) * outer


def _cell_fractions(cx, cy, h, center, r):
    """Exact covered-area fraction of each cell by the disk of radius r (one per cell, or one for all).

    Inclusion-exclusion of the corner areas keeps the cut-cell weights
    exact, so the midpoint rule retains its O(h^2) order (sub-sampled
    fractions would cap the boundary accuracy at O(h)).
    """
    x_lo = cx - 0.5 * h - center[0]
    x_hi = cx + 0.5 * h - center[0]
    y_lo = cy - 0.5 * h - center[1]
    y_hi = cy + 0.5 * h - center[1]
    # one corner at a time: a sweep's cut cells of every radius come in one call, and a (4, N) stack raises its peak
    a = [_corner_area(x, y, r) for x, y in ((x_hi, y_hi), (x_lo, y_hi), (x_hi, y_lo), (x_lo, y_lo))]
    area = a[0] - a[1] - a[2] + a[3]
    return np.clip(area / (h * h), 0.0, 1.0)


def grid_balls(field: GridField, center, radii):
    """The centers (x1, x2) of the cells near the largest ball of ``radii``, nearest first (a stable sort
    of the i-major box, so ties keep their i-major order), and ``at(r)`` for each r of ``radii``: the
    count n of cells that r covers or cuts and the BallNodes of the first n cells, bitwise those of r's
    own ball; a band cell that r misses weighs 0.  Each radius is checked in the order given, and one
    ``_cell_fractions`` call measures every radius's band."""
    radii = list(map(float, radii))
    for r in radii:
        field.check_holds(center, r, "ball")
    r = max(radii)  # every ball is a prefix of the largest one's cells
    h = field.h
    i_lo = max(0, int(np.floor((center[0] - r - field.x1_min) / h)) - 1)
    i_hi = min(field.n1, int(np.ceil((center[0] + r - field.x1_min) / h)) + 1)
    j_lo = max(0, int(np.floor((center[1] - r - field.x2_min) / h)) - 1)
    j_hi = min(field.n2, int(np.ceil((center[1] + r - field.x2_min) / h)) + 1)
    X1, X2 = np.meshgrid(field.cell_x1[i_lo:i_hi], field.cell_x2[j_lo:j_hi], indexing="ij")
    x1, x2 = X1.ravel(), X2.ravel()
    d2 = (x1 - center[0]) ** 2 + (x2 - center[1]) ** 2
    near = np.flatnonzero(d2 <= (r + _BAND * h) ** 2)  # the cells that any radius up to r can cover or cut
    order = near[np.argsort(d2[near], kind="stable")]
    x1, x2, d2 = x1[order], x2[order], d2[order]
    counts = {}  # per radius: the cells it covers (n_full) and those it covers or cuts (n)
    for r in radii:
        rin = r - _BAND * h
        n_full = int(np.searchsorted(d2, rin * rin, "right")) if rin > 0 else 0
        n = int(np.searchsorted(d2, (r + _BAND * h) ** 2, "right"))
        counts[r] = (n_full, n)
    bands = [slice(n_full, n) for n_full, n in counts.values()]
    sizes = [b.stop - b.start for b in bands]
    band_r = np.repeat(list(counts), sizes)
    fracs = _cell_fractions(np.concatenate([x1[b] for b in bands]), np.concatenate([x2[b] for b in bands]),
                            h, center, band_r)
    starts = dict(zip(counts, np.cumsum([0] + sizes)))
    # exact cross-cell integral of 1/x1 (midpoint fallback at the axis cell), once for the largest ball
    x1l = x1 - 0.5 * h
    x1r = x1 + 0.5 * h
    safe = x1l > 1e-3 * h
    inv_mean = np.empty_like(x1)
    inv_mean[safe] = np.log(x1r[safe] / x1l[safe]) / h
    inv_mean[~safe] = 1.0 / x1[~safe]

    def at(r):
        n_full, n = counts[r]
        frac = np.ones(n)
        frac[n_full:] = fracs[starts[r]:starts[r] + n - n_full]
        w = frac * h * h
        return n, BallNodes(x1=x1[:n], x2=x2[:n], w=w, w_inv=w * inv_mean[:n])
    return x1, x2, at


@lru_cache(maxsize=2)
def _unit_circle(half):
    """cos and sin of the trapezoid angles: N_ARC + 1 on the closed half circle, N_ARC on the circle."""
    phi = (np.linspace(-0.5 * np.pi, 0.5 * np.pi, N_ARC + 1) if half
           else np.linspace(-np.pi, np.pi, N_ARC + 1)[:-1])
    return _frozen([np.cos(phi)], [np.sin(phi)])


def grid_arc_nodes(field: GridField, center, r):
    field.check_holds(center, r, "arc")
    half = half_ball(center)
    cos, sin = _unit_circle(half)
    w = np.full(cos.shape, 2.0 * np.pi * r / N_ARC if not half else np.pi * r / N_ARC)
    if half:
        w[0] *= 0.5
        w[-1] *= 0.5
    return ArcNodes(x1=center[0] + r * cos, x2=center[1] + r * sin, w=w, n1=cos, n2=sin)


def ball_nodes(field, center, r):
    if isinstance(field, AnalyticField):
        splits = _apex_splits(field, center)
        return polar_ball_nodes(center, r, splits=splits)
    return grid_balls(field, center, [r])[2](r)[1]


def arc_nodes(field, center, r):
    if isinstance(field, AnalyticField):
        splits = _apex_splits(field, center)
        return polar_arc_nodes(center, r, splits=splits)
    return grid_arc_nodes(field, center, r)


def _apex_splits(field: AnalyticField, center):
    """Kink rays apply when the sweep is centered at the profile apex."""
    dx = abs(center[0] - field.apex[0]) + abs(center[1] - field.apex[1])
    base = (0.0, np.pi)  # x2-weight kinks at the horizontal through the center
    if dx < 1e-12:
        return tuple(field.rays_phi) + base
    return base
