"""Energy descent for approximate variational solutions, and the
domain-variation (first variation) validator.

The minimizer runs Jacobi-scaled projected descent on the energy with the
positivity indicator smoothed over a width eps_chi (sub-grid by
default, so invisible at the quadrature order used).  The gradient of
the compressible term needs no lagging: dF/dt = 1/H(t; x2) is available
in closed form at the current iterate.
"""

from dataclasses import dataclass, field

import numpy as np

from .errors import DomainError, GeometryError, StateError
from .eos import IncompressibleMedium
from .fields import GridField
from .functionals import _evaluate, _thermo

ARMIJO_C = 1e-4
TOL_WINDOW = 10  # stop when the relative drops of this many accepted iterations sum below tol


@dataclass
class MinimizeConfig:
    x1_min: float
    x1_max: float
    x2_min: float
    x2_max: float
    h: float
    boundary: callable  # (x1, x2) -> Dirichlet data, also the initial guess
    medium: object = field(default_factory=IncompressibleMedium)
    eps_chi: float = None  # default 2h
    step0: float = 1.0  # the initial and largest step (1 = one Jacobi sweep)
    max_iter: int = 50_000
    tol: float = 1e-10
    # post-descent projected Gauss-Seidel sweeps: the energy-based stopping
    # rule certifies the energy, not the iterate; the polish drives cellwise
    # stationarity of the same discrete functional when sweeps > 0
    pgs_sweeps: int = 0

    def __post_init__(self):
        if self.eps_chi is None:
            self.eps_chi = 2.0 * self.h
        if self.eps_chi <= 0 or self.tol <= 0:
            raise DomainError("eps_chi and tol must be positive")


@dataclass
class ConvergenceLog:
    iterations: list = field(default_factory=list)  # (it, energy, step, gmax)
    converged: bool = False
    stagnated: bool = False
    message: str = ""


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
        n1 = int(round((cfg.x1_max - cfg.x1_min) / cfg.h))
        n2 = int(round((cfg.x2_max - cfg.x2_min) / cfg.h))
        self.n1, self.n2 = n1, n2
        self.x1 = cfg.x1_min + (np.arange(n1) + 0.5) * cfg.h
        self.x2 = cfg.x2_min + (np.arange(n2) + 0.5) * cfg.h
        self.X1, self.X2 = np.meshgrid(self.x1, self.x2, indexing="ij")
        med = cfg.medium
        self.lam = np.maximum(med.lam(np.maximum(self.X2, 0.0)), 0.0)
        self.on_axis = abs(cfg.x1_min) < 1e-12
        # indicator weight x1*lam*h^2 over eps_chi; zero past the last
        # difference, where no cell of the energy sum lies
        self.m = np.zeros((n1, n2))
        self.m[:-1, :-1] = self.X1[:-1, :-1] * self.lam[:-1, :-1] * cfg.h * cfg.h / cfg.eps_chi
        self.interior = np.zeros((n1, n2), dtype=bool)
        self.interior[1:-1, 1:-1] = True
        parity = np.add.outer(np.arange(n1), np.arange(n2)) % 2
        self.colors = (self.interior & (parity == 0), self.interior & (parity == 1))

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
        dens = X1 * (F + self.lam[:-1, :-1] * s)
        return float(np.sum(dens) * h * h), H

    def energy(self, v):
        return self.state(v)[0]

    def gradient(self, v, coef):
        """Exact gradient of the smoothed discrete energy at v: 2(A v - B),
        plus m where 0 < v < eps_chi; ``coef = _coefficients(self, H)``."""
        a_c, a_w, a_s, A = coef
        band = (v > 0.0) & (v < self.cfg.eps_chi)
        return 2.0 * (A * v - _neighbour_sum(v, a_c, a_w, a_s)) + np.where(band, self.m, 0.0)


def minimize_EF(cfg: MinimizeConfig):
    """Jacobi-scaled projected descent on the smoothed energy.

    Returns (GridField, ConvergenceLog).  Dirichlet data is pinned on
    the outermost cell ring; iterates are projected onto v >= 0.
    Raises StateError if the subsonic inversion fails at any cell of the
    initial guess; a trial that fails it is rejected like an uphill one.
    """
    disc = _Discretization(cfg)
    v = np.asarray(cfg.boundary(disc.X1, disc.X2), dtype=float).copy()
    if np.any(v[0, :] < 0) or np.any(v[-1, :] < 0) or np.any(v[:, 0] < 0) or np.any(v[:, -1] < 0):
        raise DomainError("boundary data must be nonnegative")
    v = np.maximum(v, 0.0)
    interior = disc.interior

    try:
        E, H = disc.state(v)
    except StateError as exc:
        i, j = np.unravel_index(exc.index, (disc.n1 - 1, disc.n2 - 1))
        raise StateError(
            f"subsonicity violated at cell ({i}, {j}), "
            f"x = ({disc.x1[i]:.6g}, {disc.x2[j]:.6g})"
        ) from None

    log = ConvergenceLog()
    step = cfg.step0
    recent = []
    for it in range(cfg.max_iter):
        # the accepted trial's H gives the frozen quadratic: no second inversion
        coef = _coefficients(disc, H)
        g = disc.gradient(v, coef)
        g_eff = np.where(interior & ((v > 0) | (g < 0)), g, 0.0)
        gmax = float(np.max(np.abs(g_eff))) if g_eff.size else 0.0
        # Jacobi scaling by the energy's diagonal 2A: step 1 minimizes each
        # cell's frozen quadratic exactly
        p = np.divide(g, 2.0 * coef[3], out=np.zeros_like(g), where=interior)
        step_in = step
        accepted = False
        while step >= 1e-14:
            trial = v - step * p
            trial = np.where(interior, np.maximum(trial, 0.0), v)
            decrease = float(np.sum(g_eff * (v - trial)))
            try:
                E_trial, H_trial = disc.state(trial)
            except StateError:
                # the trial overshot into supersonic states: reject it
                step *= 0.5
                continue
            if E_trial <= E - ARMIJO_C * decrease:
                accepted = True
                break
            step *= 0.5
        if not accepted:
            log.stagnated = True
            log.message = f"backtracking exhausted at iteration {it}"
            break
        rel_drop = (E - E_trial) / max(abs(E), 1e-300)
        v, E, H = trial, E_trial, H_trial
        log.iterations.append((it, E, step, gmax))
        if step == step_in:  # no doubling right after a halving
            step = min(step * 2.0, cfg.step0)
        recent.append(rel_drop)
        if len(recent) > TOL_WINDOW:
            recent.pop(0)
            if sum(recent) < cfg.tol:
                log.converged = True
                log.message = f"energy stationary after {it + 1} iterations"
                break
    else:
        log.message = "max iterations reached"

    for _ in range(cfg.pgs_sweeps):
        v = _pgs_sweep(disc, v, H)
        E, H = disc.state(v)
    if cfg.pgs_sweeps:
        log.iterations.append((cfg.max_iter, E, 0.0, 0.0))

    out = GridField(cfg.x1_min, cfg.x1_max, cfg.x2_min, cfg.x2_max, cfg.h, v)
    return out, log


def _coefficients(disc: _Discretization, H):
    """Edge weights a = 1/(x1 H) on the cell lattice (zero past the last
    difference), their west and south neighbours, and A = 2a_c + a_w + a_s,
    the quadratic coefficient of each cell; H is from ``disc.state(v)``."""
    a_c = np.zeros((disc.n1, disc.n2))
    a_c[:-1, :-1] = 1.0 / (disc.X1[:-1, :-1] * H)
    a_w = np.roll(a_c, 1, axis=0)
    a_s = np.roll(a_c, 1, axis=1)
    return a_c, a_w, a_s, 2.0 * a_c + a_w + a_s


def _neighbour_sum(v, a_c, a_w, a_s):
    """B = a_c (vE + vN) + a_w vW + a_s vS, the linear coefficient of each
    cell; the zero last row and column of a_c cancel np.roll's wrap-around."""
    vE = np.roll(v, -1, axis=0)
    vN = np.roll(v, -1, axis=1)
    return a_c * (vE + vN) + a_w * np.roll(v, 1, axis=0) + a_s * np.roll(v, 1, axis=1)


def _pgs_sweep(disc: _Discretization, v, H):
    """One red-black projected Gauss-Seidel sweep of the smoothed energy.

    Each cell of a color takes the minimizer over w >= 0 of its frozen
    quadratic plus indicator, q(w) = A w^2 - 2B w + m min(w, eps_chi).  q is
    a convex quadratic on [0, eps] and on [eps, inf), so the minimizer is the
    lower-q of the two pieces' minimizers; H is from ``disc.state(v)``.
    """
    eps, m = disc.cfg.eps_chi, disc.m
    a_c, a_w, a_s, A = _coefficients(disc, H)
    for color in disc.colors:
        B = _neighbour_sum(v, a_c, a_w, a_s)
        # A = 0 only at the last corner cell, which is in no color
        with np.errstate(divide="ignore", invalid="ignore"):
            lo = np.clip((B - 0.5 * m) / A, 0.0, eps)
            hi = np.maximum(B / A, eps)
        q_lo = (A * lo - 2.0 * B) * lo + m * lo
        q_hi = (A * hi - 2.0 * B) * hi + m * eps
        v = np.where(color, np.where(q_lo <= q_hi, lo, hi), v)
    return v


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


# ---------------------------------------------------------------------------
# first-variation validator
# ---------------------------------------------------------------------------

def _lattice(field_, h):
    x1 = np.arange(field_.x1_min + 0.5 * h, field_.x1_max, h)
    x2 = np.arange(field_.x2_min + 0.5 * h, field_.x2_max, h)
    return np.meshgrid(x1, x2, indexing="ij")


def first_variation_terms(field_, medium, phi, dphi, h=None):
    """The four domain-variation integrals, evaluated on a lattice.

    ``phi(x1, x2) -> (phi1, phi2)`` must vanish near the lattice hull and
    on the axis; ``dphi`` returns the Jacobian entries (d1p1, d2p1,
    d1p2, d2p2).  Returns the total (zero at exact solutions).
    """
    if h is None:
        h = getattr(field_, "h", 1.0 / 256.0)
    X1, X2 = _lattice(field_, h)
    ev = _evaluate(field_, medium, X1.ravel(), X2.ravel())
    x1, x2, g1, g2, t, chi, H = ev.x1, ev.x2, ev.g1, ev.g2, ev.t, ev.chi, ev.H
    p1, p2 = phi(x1, x2)
    d1p1, d2p1, d1p2, d2p2 = dphi(x1, x2)
    divp = d1p1 + d2p2
    safe = np.maximum(x1, 1e-300)

    w = h * h
    gDg = g1 * (d1p1 * g1 + d2p1 * g2) + g2 * (d1p2 * g1 + d2p2 * g2)
    T1 = np.sum(x1 * (ev.F + ev.lam * chi) * divp) * w
    T2 = -2.0 * np.sum(gDg / (safe * H)) * w
    T3 = np.sum((ev.F - 2.0 * t / H + ev.lam * chi) * p1) * w
    T4 = np.sum(x1 * (ev.dF2 + ev.lam_p * chi) * p2) * w
    return {"T1": float(T1), "T2": float(T2), "T3": float(T3), "T4": float(T4),
            "total": float(T1 + T2 + T3 + T4)}


def flow_energy(field_, medium, phi, eps, h=None, dphi=None):
    """E_F of the resampled field u(x + eps*phi(x)) on the lattice."""
    if h is None:
        h = getattr(field_, "h", 1.0 / 256.0)
    X1, X2 = _lattice(field_, h)
    x1 = X1.ravel()
    x2 = X2.ravel()
    p1, p2 = phi(x1, x2)
    y1 = x1 + eps * p1
    y2 = x2 + eps * p2
    try:
        u = field_.value(y1, y2)
        g1, g2 = field_.gradient(y1, y2)
    except GeometryError:
        raise GeometryError("phi transports lattice points outside the field")
    # gradient of x -> u(x + eps*phi): (I + eps*Dphi)^T grad u(y)
    if eps:
        d1p1, d2p1, d1p2, d2p2 = (
            dphi(x1, x2) if dphi is not None else _numeric_dphi(phi, x1, x2)
        )
        G1 = (1.0 + eps * d1p1) * g1 + eps * d1p2 * g2
        G2 = eps * d2p1 * g1 + (1.0 + eps * d2p2) * g2
    else:
        G1, G2 = g1, g2
    chi = field_.chi(u)
    _, _, F, _, lam, _ = _thermo(medium, x1, x2, G1, G2, chi)
    return float(np.sum(x1 * (F + lam * chi)) * h * h)


def _numeric_dphi(phi, x1, x2, d=1e-6):
    p1p, p2p = phi(x1 + d, x2)
    p1m, p2m = phi(x1 - d, x2)
    d1p1 = (p1p - p1m) / (2 * d)
    d1p2 = (p2p - p2m) / (2 * d)
    p1p, p2p = phi(x1, x2 + d)
    p1m, p2m = phi(x1, x2 - d)
    d2p1 = (p1p - p1m) / (2 * d)
    d2p2 = (p2p - p2m) / (2 * d)
    return d1p1, d2p1, d1p2, d2p2


def domain_variation_residual(field_, medium, phi, dphi, eps=1e-4, h=None):
    """Analytic first-variation total next to the flow finite difference.

    The two must satisfy ``analytic_total ~ -(E(eps) - E(-eps))/(2 eps)``
    up to O(eps^2) plus the discretization error of the shared lattice.
    """
    terms = first_variation_terms(field_, medium, phi, dphi, h=h)
    Ep = flow_energy(field_, medium, phi, +eps, h=h, dphi=dphi)
    Em = flow_energy(field_, medium, phi, -eps, h=h, dphi=dphi)
    flow_fd = (Ep - Em) / (2.0 * eps)
    return {
        "analytic_total": terms["total"],
        "flow_fd": flow_fd,
        "mismatch": terms["total"] + flow_fd,
        "terms": terms,
    }
