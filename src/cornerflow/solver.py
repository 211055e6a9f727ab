"""Energy minimization for approximate variational solutions.

The minimizer runs truncated monotone multigrid on the energy with the
positivity indicator smoothed over a width eps_chi (sub-grid by
default, so invisible at the quadrature order used).  The gradient of
the compressible term needs no lagging: dF/dt = 1/H(t; x2) is available
in closed form at the current iterate.
"""

from functools import cache
from typing import NamedTuple

import numpy as np

from .errors import DomainError, StateError
from .eos import IncompressibleMedium
from .fields import GridField

# energies are sums of positive cell terms: two within this relative distance
# are equal up to rounding, so a step that moves E by less is not uphill
ROUNDING = 32 * np.finfo(float).eps
HALVINGS = 30  # damped trials per step before it counts as no descent
COARSEST = 64  # cells of the coarsest multigrid level, which is solved exactly
# flexible CG on the coarse system: at most this many V-cycles, stopped once the
# residual is this fraction of the first
FCG_CYCLES, FCG_REDUCTION = 3, 0.3


class MinimizeConfig:
    """The lattice box, ``boundary(x1, x2)`` (the Dirichlet data, also the initial guess)
    and the medium; ``eps_chi`` defaults to 2h, ``max_iter`` counts multigrid cycles, and
    ``tol`` bounds the certificate max|PGS(v) - v| / max|boundary data|."""

    def __init__(self, x1_min, x1_max, x2_min, x2_max, h, boundary, medium=None, eps_chi=None,
                 max_iter=50_000, tol=1e-10):
        if eps_chi is None:
            eps_chi = 2.0 * h
        if eps_chi <= 0 or tol <= 0:
            raise DomainError("eps_chi and tol must be positive")
        if x1_min < 0:
            raise DomainError(f"the lattice lies in the half-plane x1 >= 0, got x1_min = {x1_min}")
        self.x1_min, self.x1_max, self.x2_min, self.x2_max, self.h = x1_min, x1_max, x2_min, x2_max, h
        self.boundary = boundary
        self.medium = IncompressibleMedium() if medium is None else medium
        self.eps_chi, self.max_iter, self.tol = eps_chi, max_iter, tol


class ConvergenceLog:
    """The cycles of one run, each (cycle, energy, coarse step, certificate), and how it ended."""

    def __init__(self):
        self.iterations = []
        self.converged, self.stagnated, self.message = False, False, ""


def _smoothed_chi(v, eps):
    return np.clip(v / eps, 0.0, 1.0)


class _Discretization:
    """Forward-difference energy on the (n1-1) x (n2-1) sub-lattice.

    With H frozen, the energy depends on one cell's value w through the
    quadratic A w^2 - 2 B w (``_coefficients``, ``_neighbour_sum``) plus the
    indicator term, whose slope on 0 < w < eps_chi is ``m``.
    """

    def __init__(self, cfg: MinimizeConfig):
        self.cfg = cfg
        self.X1, self.X2 = GridField.lattice(cfg.x1_min, cfg.x1_max, cfg.x2_min, cfg.x2_max, cfg.h)
        n1, n2 = self.n1, self.n2 = self.X1.shape
        if min(n1, n2) < 3:
            raise DomainError(f"the gradient stencil needs 3 cells per axis, got {n1} x {n2}")
        # lambda on the cells of the energy sum only; an error keeps lambda's reason (the
        # message up to its colon) and names the cell, as state's does
        try:
            self.lam = np.maximum(cfg.medium.lam(np.maximum(self.X2[:-1, :-1], 0.0)), 0.0)
        except StateError as exc:
            raise StateError(f"{str(exc).partition(':')[0]} at {self.cell(exc.index)}") from None
        # indicator weight x1*lam*h^2 over eps_chi; zero past the last
        # difference, where no cell of the energy sum lies
        self.m = np.zeros((n1, n2))
        self.m[:-1, :-1] = self.X1[:-1, :-1] * self.lam * cfg.h * cfg.h / cfg.eps_chi
        self.interior = np.zeros((n1, n2), dtype=bool)
        self.interior[1:-1, 1:-1] = True
        self.colors = tuple(self.interior & c for c in _colors((n1, n2)))

    def cell(self, index):
        """The cell of flat ``index`` on the (n1-1) x (n2-1) sub-lattice, for an error message."""
        i, j = np.unravel_index(index, (self.n1 - 1, self.n2 - 1))
        return f"cell ({i}, {j}), x = ({self.X1[i, j]:.6g}, {self.X2[i, j]:.6g})"

    def state(self, v):
        """Energy of v, and the density H its gradient and the PGS sweep need.

        One thermo evaluation per call; raises StateError where a cell has
        no subsonic density.
        """
        cfg = self.cfg
        h = cfg.h
        d1 = (v[1:, :-1] - v[:-1, :-1]) / h
        d2 = (v[:-1, 1:] - v[:-1, :-1]) / h
        X1 = self.X1[:-1, :-1]
        t = (d1 * d1 + d2 * d2) / (X1 * X1)
        H, _, _, F, _ = cfg.medium.thermo(t, self.X2[:-1, :-1])
        s = _smoothed_chi(v[:-1, :-1], cfg.eps_chi)
        dens = X1 * (F + self.lam * s)
        return float(np.sum(dens) * h * h), H

    def gradient(self, v, coef):
        """Exact gradient of the smoothed discrete energy at v: 2(A v - B),
        plus m where 0 < v < eps_chi; ``coef = _coefficients(self, H)``."""
        band = (v > 0.0) & (v < self.cfg.eps_chi)
        return 2.0 * _apply(v, *coef) + np.where(band, self.m, 0.0)


def minimize_EF(cfg: MinimizeConfig):
    """Truncated monotone multigrid on the smoothed energy, to a certificate.

    Each cycle makes two projected Gauss-Seidel sweeps, a coarse correction
    on the cells off the constraint and the indicator's kink, and two more
    sweeps.  The run is converged when the last sweep moved no cell by more
    than ``tol`` times the largest boundary value: v is then a fixed point of
    PGS, a cellwise minimizer.  No step that raises the energy beyond
    rounding is accepted (docs/decisions.md).

    Returns (GridField, ConvergenceLog).  Dirichlet data is pinned on
    the outermost cell ring; iterates are projected onto v >= 0.
    Raises StateError if the subsonic inversion fails at any cell of the
    initial guess; a trial that fails it is damped like an uphill one.
    """
    disc = _Discretization(cfg)
    v = np.asarray(cfg.boundary(disc.X1, disc.X2), dtype=float).copy()
    ring = v[~disc.interior]
    if np.any(ring < 0):
        raise DomainError("boundary data must be nonnegative")
    v = np.maximum(v, 0.0)
    scale = float(np.max(ring)) or 1.0

    try:
        E, H = disc.state(v)
    except StateError as exc:
        raise StateError(f"subsonicity violated at {disc.cell(exc.index)}") from None

    log = ConvergenceLog()
    for it in range(cfg.max_iter):
        v, E, H, cert = _smooth(disc, v, E, H)
        step = 0.0
        if cert is not None:
            v, E, H, step = _coarse_step(disc, v, E, H)
            v, E, H, cert = _smooth(disc, v, E, H)
        if cert is None:
            log.stagnated = True
            log.message = f"no PGS sweep lowers the energy in cycle {it}"
            break
        log.iterations.append((it, E, step, cert / scale))
        if cert <= cfg.tol * scale:
            log.converged = True
            log.message = f"certified after {it + 1} cycles"
            break
    else:
        log.message = "max iterations reached"

    out = GridField(cfg.x1_min, cfg.x1_max, cfg.x2_min, cfg.x2_max, cfg.h, v)
    return out, log


def _descend(disc, v, E, H, d):
    """The first of v + d, v + d/2, ... (projected onto v >= 0) that is
    subsonic and not above E beyond rounding: (v, E, H, factor), or None."""
    theta = 1.0
    for _ in range(HALVINGS):
        trial = np.maximum(v + theta * d, 0.0)
        if np.array_equal(trial, v):  # nothing moves: no evaluation
            return v, E, H, theta
        try:
            E_t, H_t = disc.state(trial)
        except StateError:
            pass
        else:
            if E_t <= E + ROUNDING * abs(E):
                return trial, E_t, H_t, theta
        theta *= 0.5
    return None


def _smooth(disc, v, E, H):
    """Two PGS sweeps, each damped until the true energy does not
    rise: (v, E, H, max|PGS(v) - v| of the last); the certificate is None
    when a sweep finds no descent."""
    cert = None
    for _ in range(2):
        d = _pgs_sweep(disc, v, H) - v
        out = _descend(disc, v, E, H, d)
        if out is None:
            return v, E, H, None
        v, E, H, _ = out
        cert = float(np.max(np.abs(d)))
    return v, E, H, cert


def _coarse_step(disc, v, E, H):
    """Truncated coarse correction: (v, E, H, step), step 0 if rejected.

    On the inactive cells (interior, v > 0, v != eps_chi) the frozen
    quadratic's Newton system L c = -g/2 is solved approximately by flexible
    CG over V-cycles on 2x2 aggregates of those cells; c is scaled by the
    exact minimizing step of the quadratic model along it, and halved until
    the true energy does not rise.
    """
    coef = _coefficients(disc, H)
    free = disc.interior & (v > 0.0) & (v != disc.cfg.eps_chi)
    g = disc.gradient(v, coef)
    c = _fcg(_hierarchy(coef, free), np.where(free, -0.5 * g, 0.0))
    curv = float(np.sum(c * _apply(c, *coef)))
    slope = float(np.sum(g * c))
    if not (curv > 0.0 and slope < 0.0):
        return v, E, H, 0.0
    alpha = -slope / (2.0 * curv)
    out = _descend(disc, v, E, H, alpha * c)
    if out is None:
        return v, E, H, 0.0
    v, E, H, theta = out
    return v, E, H, alpha * theta


def _coefficients(disc: _Discretization, H):
    """The frozen quadratic's stencil (wE, wN, A) on the cell lattice: east
    and north edge weights a = 1/(x1 H), zero past the last difference, and
    A = 2a_c + a_w + a_s; H is from ``disc.state(v)``."""
    a = np.zeros((disc.n1, disc.n2))
    a[:-1, :-1] = 1.0 / (disc.X1[:-1, :-1] * H)
    A = 2.0 * a
    A[1:] += a[:-1]
    A[:, 1:] += a[:, :-1]
    return a, a, A


def _neighbour_sum(v, wE, wN):
    """B = wE vE + wN vN + wW vW + wS vS, the linear coefficient of each cell
    of a 5-point stencil; wW and wS are the east and north weights of the
    west and south neighbours, and the last row of wE and column of wN are 0."""
    B = np.zeros_like(v)
    B[:-1] = wE[:-1] * v[1:]
    B[1:] += wE[:-1] * v[:-1]
    B[:, :-1] += wN[:, :-1] * v[:, 1:]
    B[:, 1:] += wN[:, :-1] * v[:, :-1]
    return B


def _apply(c, wE, wN, A):
    """L c = A c - B(c), half the gradient of the quadratic part at c."""
    return A * c - _neighbour_sum(c, wE, wN)


@cache
def _colors(shape):
    """The red and black cells of a lattice of ``shape``, read-only and built once."""
    parity = np.add.outer(np.arange(shape[0]), np.arange(shape[1])) % 2
    colors = parity == 0, parity == 1
    for c in colors:
        c.flags.writeable = False
    return colors


def _pgs_sweep(disc: _Discretization, v, H):
    """One red-black projected Gauss-Seidel sweep of the smoothed energy.

    Each cell of a color takes the minimizer over w >= 0 of its frozen
    quadratic plus indicator, q(w) = A w^2 - 2B w + m min(w, eps_chi).  q is
    a convex quadratic on [0, eps] and on [eps, inf), so the minimizer is the
    lower-q of the two pieces' minimizers; H is from ``disc.state(v)``.
    """
    eps, m = disc.cfg.eps_chi, disc.m
    wE, wN, A = _coefficients(disc, H)
    for color in disc.colors:
        B = _neighbour_sum(v, wE, wN)
        # A = 0 only at the last corner cell, which is in no color
        with np.errstate(divide="ignore", invalid="ignore"):
            lo = np.clip((B - 0.5 * m) / A, 0.0, eps)
            hi = np.maximum(B / A, eps)
        q_lo = (A * lo - 2.0 * B) * lo + m * lo
        q_hi = (A * hi - 2.0 * B) * hi + m * eps
        v = np.where(color, np.where(q_lo <= q_hi, lo, hi), v)
    return v


# ---------------------------------------------------------------------------
# the coarse levels: Galerkin aggregation of a 5-point stencil
# ---------------------------------------------------------------------------

class _Level(NamedTuple):
    """A 5-point stencil on the free cells (A > 0) of one lattice."""

    wE: np.ndarray
    wN: np.ndarray
    A: np.ndarray
    inv: np.ndarray  # 1/A on the free cells, 0 elsewhere
    colors: tuple  # the free cells of each red/black color
    dense: tuple = None  # the coarsest level's (free cells, L on them), from ``_dense_operator``

    @classmethod
    def of(cls, wE, wN, A):
        free = A > 0.0
        inv = np.divide(1.0, A, out=np.zeros_like(A), where=free)
        return cls(wE, wN, A, inv, tuple(free & c for c in _colors(A.shape)))


def _hierarchy(coef, free):
    """The stencil ``coef`` restricted to the ``free`` cells (the others held
    at 0: edges to a held cell drop out of the coupling but stay in A), and
    its aggregates down to the first level of at most ``COARSEST`` cells,
    which carries its dense operator: every V-cycle on the hierarchy reads it."""
    wE, wN, A = coef
    fE = np.zeros_like(free)
    fE[:-1] = free[:-1] & free[1:]
    fN = np.zeros_like(free)
    fN[:, :-1] = free[:, :-1] & free[:, 1:]
    levels = [_Level.of(np.where(fE, wE, 0.0), np.where(fN, wN, 0.0), np.where(free, A, 0.0))]
    while levels[-1].A.size > COARSEST:
        levels.append(_coarsen(levels[-1]))
    levels[-1] = levels[-1]._replace(dense=_dense_operator(levels[-1]))
    return levels


def _coarsen(level):
    """P^T L P for P the piecewise-constant prolongation from 2x2 aggregates.

    Edges inside an aggregate cancel (twice, from A), edges between two
    aggregates add up, so the coarse operator is again a 5-point stencil.
    """
    wE, wN, A = (_even(x) for x in level[:3])
    Ac = (A[0::2, 0::2] + A[1::2, 0::2] + A[0::2, 1::2] + A[1::2, 1::2]
          - 2.0 * (wE[0::2, 0::2] + wE[0::2, 1::2] + wN[0::2, 0::2] + wN[1::2, 0::2]))
    return _Level.of(wE[1::2, 0::2] + wE[1::2, 1::2], wN[0::2, 1::2] + wN[1::2, 1::2],
                     np.maximum(Ac, 0.0))


def _even(x):
    """x padded with zeros to even dimensions (an odd lattice's last aggregates
    hold one or two cells)."""
    n1, n2 = x.shape
    if n1 % 2 == 0 and n2 % 2 == 0:
        return x
    out = np.zeros((n1 + n1 % 2, n2 + n2 % 2))
    out[:n1, :n2] = x
    return out


def _restrict(r):
    r = _even(r)
    return r[0::2, 0::2] + r[1::2, 0::2] + r[0::2, 1::2] + r[1::2, 1::2]


def _prolong(c, shape):
    return np.repeat(np.repeat(c, 2, axis=0), 2, axis=1)[:shape[0], :shape[1]]


def _fcg(levels, b):
    """Flexible CG for L_0 c = b from c = 0, one V-cycle per iteration.

    The V-cycle's level scaling makes it a nonlinear preconditioner, so each
    direction is made L-orthogonal to the last one explicitly (Notay, SIAM J.
    Sci. Comput. 22, 2000).
    """
    c, r, p = np.zeros_like(b), b, None
    stop = FCG_REDUCTION * np.linalg.norm(b)
    for _ in range(FCG_CYCLES):
        z = _vcycle(levels, 0, r)
        if p is not None:
            z = z - (float(np.sum(z * q)) / pq) * p
        p, q = z, _apply(z, *levels[0][:3])
        pq = float(np.sum(p * q))
        if not pq > 0.0:
            break
        alpha = float(np.sum(p * r)) / pq
        c, r = c + alpha * p, r - alpha * q
        if np.linalg.norm(r) <= stop:
            break
    return c


def _vcycle(levels, k, r):
    """One V-cycle for L_k c = r from c = 0, exact on the coarsest level.

    A red/black Gauss-Seidel sweep before and after the coarse correction,
    which is scaled to minimize the energy norm of the error: piecewise-
    constant transfer alone corrects smooth errors by about half.
    """
    lv = levels[k]
    if k == len(levels) - 1:
        return _dense_solve(lv, r)
    c = _gs(lv, np.zeros_like(r), r)
    res = r - _apply(c, *lv[:3])
    e = np.where(lv.A > 0.0, _prolong(_vcycle(levels, k + 1, _restrict(res)), r.shape), 0.0)
    curv = float(np.sum(e * _apply(e, *lv[:3])))
    if curv > 0.0:
        c = c + (float(np.sum(e * res)) / curv) * e
    return _gs(lv, c, r)


def _dense_operator(lv):
    """The free cells of a small level, flat, and L restricted to them as a dense matrix."""
    n = lv.A.size
    free = (lv.A > 0.0).ravel()
    L = _apply(np.eye(n).reshape(*lv.A.shape, n), *(x[..., None] for x in lv[:3]))
    return free, L.reshape(n, n)[np.ix_(free, free)]


def _dense_solve(lv, r):
    """L c = r solved exactly on the free cells of the coarsest level, c = 0 on the others."""
    free, L = lv.dense
    c = np.zeros(r.size)
    c[free] = np.linalg.solve(L, r.ravel()[free])
    return c.reshape(r.shape)


def _gs(lv, c, r):
    for color in lv.colors:
        c = np.where(color, (r + _neighbour_sum(c, lv.wE, lv.wN)) * lv.inv, c)
    return c


def axis_compatibility_residual(field_: GridField):
    """Max |(1/x1) d2 u| along the axis-adjacent cell column.

    The descent does not enforce the axis compatibility condition (the
    vertical velocity component must vanish on the axis); this residual
    is reported so runs can judge it.
    """
    if not getattr(field_, "on_axis", False):
        raise DomainError("field does not touch the symmetry axis")
    x1 = field_.cell_x1[0]
    x2 = field_.cell_x2[1:-1]
    _, g2 = field_.gradient(np.full_like(x2, x1), x2)
    return float(np.max(np.abs(g2 / x1))) if x2.size else 0.0
