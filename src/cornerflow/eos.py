"""Gamma-law equation of state, Bernoulli density inversion and derived scalars.

Coordinates: ``t`` is the scaled squared speed |grad u|^2/x1^2 and ``s`` is
the rescaled height (distance below the stagnation level).  In this frame
the inverted density H(t; s) decreases in t and increases in s; the
physical-frame derivative of the density with respect to height is
``-dH/ds`` and is negative on the subsonic branch.
"""

from typing import NamedTuple

import numpy as np

from .errors import DomainError, StateError, SubsonicityError

NEWTON_TOL = 1e-13  # absolute Bernoulli residual at which invert_many stops a node


class EosModel:
    """Gamma-law gas p = A*rho^gamma with gravity g and surface density rho_bar0."""

    def __init__(self, gamma, A=1.0, rho_bar0=1.0, g=1.0, eps0=None):
        if not gamma > 1.0:
            raise DomainError("gamma must exceed 1")
        if A <= 0 or rho_bar0 <= 0 or g <= 0:
            raise DomainError("A, rho_bar0 and g must be positive")
        if eps0 is None:
            eps0 = 1e-3 * rho_bar0
        if eps0 <= 0:
            raise DomainError("eps0 must be positive")
        self.gamma, self.A, self.rho_bar0, self.g, self.eps0 = gamma, A, rho_bar0, g, eps0

    @property
    def x2_st(self) -> float:
        """Stagnation height p'(rho_bar0)/(2g)."""
        return self.A * self.gamma * self.rho_bar0 ** (self.gamma - 1.0) / (2.0 * self.g)


def critical_density(model: EosModel, x2):
    """Local critical density at physical heights x2 in [0, x2_st], vectorized.

    The sonic condition p'(rho)/2 + h(rho) + g*x2 = p'(rho_bar0)/2 is linear
    in rho^(gamma-1):

        rho_cr^(gamma-1) = rho_bar0^(gamma-1) - 2 (gamma-1) g x2 / (A gamma (gamma+1)),

    which falls from rho_bar0^(gamma-1) at x2 = 0 (returned exactly as
    rho_bar0) to 2 rho_bar0^(gamma-1)/(gamma+1) > 0 at x2_st.
    """
    x2 = np.asarray(x2, dtype=float)
    out = ~((0.0 <= x2) & (x2 <= model.x2_st * (1.0 + 1e-12)))
    if np.any(out):
        raise DomainError(f"height {float(x2[out][0])} outside [0, {model.x2_st}]")
    gamma, gm1 = model.gamma, model.gamma - 1.0
    base = model.rho_bar0 ** gm1 - 2.0 * gm1 * model.g * x2 / (model.A * gamma * (gamma + 1.0))
    return np.where(x2 == 0.0, model.rho_bar0, base ** (1.0 / gm1))[()]


class BernoulliState(NamedTuple):
    """Inverted density at a rescaled state (t, s) with both H-derivatives.

    d1H = dH/dt and d2H = dH/ds in the rescaled frame; d1H < 0 and
    d2H > 0 on the subsonic branch.  ``d_rho_d_height`` is the
    physical-frame density derivative -d2H (negative while subsonic).
    """

    t: float
    s: float
    rho: float
    d1H: float
    d2H: float

    @property
    def d_rho_d_height(self) -> float:
        return -self.d2H


def _rest_density(model: EosModel, s):
    """H(0;s): the density with h(rho) = g*s, NaN where no positive one exists."""
    gm1 = model.gamma - 1.0
    base = model.rho_bar0 ** gm1 + gm1 * model.g * np.asarray(s, dtype=float) / (model.A * model.gamma)
    with np.errstate(invalid="ignore"):
        return np.where(base > 0.0, base, np.nan) ** (1.0 / gm1)


def invert_many(model: EosModel, t, s, max_iter=120, rest=None):
    """Solve g*rho0^2*t/rho^2 + h(rho) = g*s on the subsonic branch.

    h is the gamma-law enthalpy relative to the surface density rho0.
    Vectorized over ``t`` and ``s`` (broadcast together).  Returns
    ``(rho, d1H, d2H, flag)`` where d1H = dH/dt < 0, d2H = dH/ds > 0 on
    the subsonic branch and ``flag`` is 1 where no subsonic root exists
    and 2 where a node is still unconverged after ``max_iter`` passes
    (outputs are NaN at flagged nodes).  ``rest`` is ``_rest_density(model, s)``
    where the caller has it already.

    In w = rho^-2 the residual f(w) = k t w + c0 (w^(-(gamma-1)/2) - e0) - g s
    is convex for every gamma > 1, decreasing on the subsonic branch (w below
    its sonic value) and nonnegative at the rest density H(0; s).  Newton's
    method in w from there therefore rises monotonically to the root: every
    tangent meets zero at or below it, so no iterate passes the root or
    reaches the sonic point, and no bracket is needed.  A node stops once
    the absolute residual is at most ``NEWTON_TOL``, or at most 16 ulps of
    the sum of its terms' sizes where that rounding floor is larger (stiff
    gases, large c0), and then takes one last plain Newton step in rho, kept
    only inside (sonic density, H(0; s)).
    """
    gamma, A, rho0, g = model.gamma, model.A, model.rho_bar0, model.g
    t, s = np.asarray(t, dtype=float), np.asarray(s, dtype=float)
    if t.shape != s.shape:
        t, s = np.broadcast_arrays(t, s)
    shape = t.shape
    t = t.ravel()
    s = s.ravel()

    gm1 = gamma - 1.0
    c0 = A * gamma / gm1
    e0 = rho0 ** gm1
    k = g * rho0 * rho0

    hi = _rest_density(model, s) if rest is None else np.broadcast_to(rest, shape).ravel()
    with np.errstate(divide="ignore", invalid="ignore"):
        # sonic density: rho^2 p'(rho) = 2 g rho0^2 t (NaN where t < 0); a
        # subsonic root exists at rest (t = 0) or where the residual is
        # negative at the sonic point and that lies below H(0; s)
        lo = (2.0 * k * t / (A * gamma)) ** (1.0 / (gamma + 1.0))
        sub = (k * t / (lo * lo) + c0 * (lo ** gm1 - e0) - g * s < 0.0) & (lo < hi)
    ok = (hi > 0.0) & np.isfinite(hi) & ((lo == 0.0) | sub)
    flag = (~ok).astype(np.int32)
    rho = np.where(ok, hi, np.nan)

    idx = np.flatnonzero(ok & (t > 0.0))
    start = idx
    kt, gs = k * t[idx], g * s[idx]
    # at the root the residual's terms sum to 2 (g s + c0 e0); 16 ulps of
    # that is its rounding floor, which tops NEWTON_TOL for stiff gases (large c0)
    tol_n = np.maximum(NEWTON_TOL, 32.0 * np.finfo(float).eps * (gs + c0 * e0))
    w = hi[idx] ** -2.0
    w_end = np.full(t.size, np.nan)  # w and residual where each node stopped
    f_end = np.zeros(t.size)
    for _ in range(max_iter):
        if idx.size == 0:
            break
        p = w ** (-0.5 * gm1)  # rho^(gamma-1)
        f = kt * w + c0 * (p - e0) - gs
        done = np.abs(f) <= tol_n
        step = f / (kt - 0.5 * c0 * gm1 * p / w)
        if np.count_nonzero(done):
            w_end[idx[done]] = w[done]
            f_end[idx[done]] = f[done]
            keep = ~done
            idx, kt, gs, tol_n, w, step = (a[keep] for a in (idx, kt, gs, tol_n, w, step))
        w = w - step
    flag[idx] = 2

    # the last step in rho; unconverged nodes carry NaN through it
    x = w_end[start] ** -0.5
    xn = x - f_end[start] / (A * gamma * x ** (gamma - 2.0) - 2.0 * k * t[start] / (x ** 3))
    rho[start] = np.where((lo[start] < xn) & (xn < hi[start]), xn, x)

    fp = A * gamma * rho ** (gamma - 2.0) - 2.0 * k * t / (rho ** 3)
    d1H = -(k / (rho * rho)) / fp
    d2H = g / fp
    return rho.reshape(shape), d1H.reshape(shape), d2H.reshape(shape), flag.reshape(shape)


def _checked_inversion(model: EosModel, t, s, rest=None):
    """invert_many that raises StateError at the first node without a subsonic root."""
    rho, d1, d2, flag = invert_many(model, t, s, rest=rest)
    if np.any(flag):
        i = np.nonzero(np.ravel(flag))[0][0]
        t_i, s_i = (float(np.ravel(np.broadcast_to(a, np.shape(flag)))[i]) for a in (t, s))
        raise StateError(f"subsonic inversion failed at node index {i} (t={t_i!r}, s={s_i!r})", i)
    return rho, d1, d2


def invert_admissible(model: EosModel, t, s):
    """``GammaLawMedium(model).thermo``'s (H, d1H, d2H, F, dF2) at states (t, s) that the paper admits.

    Raises DomainError at a negative t or s, StateError where no subsonic
    root exists and SubsonicityError where the root sits within eps0 of the
    critical density at the physical height x2_st - s (where that height is
    nonnegative).  Each error names the first failing (t, s).
    """
    t, s = np.broadcast_arrays(np.asarray(t, dtype=float), np.asarray(s, dtype=float))
    neg = (t < 0) | (s < 0)
    if np.any(neg):
        i = np.flatnonzero(neg)[0]
        raise DomainError(f"t and s must be nonnegative, got (t={t.flat[i]}, s={s.flat[i]})")
    rho, d1, d2, F, dF2 = GammaLawMedium(model).thermo(t, s)
    x2 = model.x2_st - s
    high = x2 >= 0.0
    rcr = np.full(rho.shape, -np.inf)
    rcr[high] = critical_density(model, x2[high])
    close = rho - rcr < model.eps0
    if np.any(close):
        i = np.flatnonzero(close)[0]
        raise SubsonicityError(
            f"margin violated at (t={t.flat[i]}, s={s.flat[i]}): "
            f"rho={rho.flat[i]:.12g}, rho_cr={rcr.flat[i]:.12g}"
        )
    return rho, d1, d2, F, dF2


def invert_density(model: EosModel, t: float, s: float) -> BernoulliState:
    """Invert the Bernoulli law at one admissible state; raises like ``invert_admissible``."""
    rho, d1, d2 = invert_admissible(model, t, s)[:3]
    return BernoulliState(t=t, s=s, rho=float(rho), d1H=float(d1), d2H=float(d2))


def _F_closed(model: EosModel, t, H, s, H0=None):
    """F(t;s) and dF2(t;s) from the inverted density H = H(t;s).

    Along the subsonic branch t(rho) = rho^2 (g s - c0 (rho^(gamma-1) - e0)) / (g rho0^2),
    so F = int_H0^H (1/rho) dt/drho drho, integrated by parts to
    t/H - c0 H0^gamma/(gamma g rho0^2) ((1+u)^gamma - 1 - gamma u) with
    u = H/H0 - 1, which keeps full relative accuracy when H sits near H0
    (stiff gas, small t).  d/ds (1/H) = (dH/dt)/rho0^2 gives
    dF2 = (H - H0)/rho0^2, with H0 = ``_rest_density(model, s)`` unless given.
    Derivation in docs/decisions.md.
    """
    gamma = model.gamma
    if H0 is None:
        H0 = _rest_density(model, s)
    u = H / H0 - 1.0
    c0 = model.A * gamma / (gamma - 1.0)
    rest = c0 * H0 ** gamma / (gamma * model.g * model.rho_bar0 ** 2)
    F = t / H - rest * (np.expm1(gamma * np.log1p(u)) - gamma * u)
    return F, (H - H0) / model.rho_bar0 ** 2


def lambda_pair(model: EosModel, s):
    """lambda = 2 s/rho_bar0 - F(s;s) and lambda' = 1/rho_bar0 - dF2(s;s) from H(s;s) = rho_bar0.

    That holds on 0 <= s < x2_st (docs/decisions.md); a StateError names the first node outside.
    """
    s = np.asarray(s, dtype=float)
    out = np.flatnonzero(~((s >= 0.0) & (s < model.x2_st)))
    if out.size:
        i, s_i = int(out[0]), float(s.flat[out[0]])
        why = "is undefined below the free-surface height" if s_i < 0.0 else "needs a subsonic free-surface state"
        raise StateError(f"lambda {why}: node index {i} at height {s_i!r} (x2_st {model.x2_st!r})", i)
    F, dF2 = _F_closed(model, s, model.rho_bar0, s)
    return 2.0 * s / model.rho_bar0 - F, 1.0 / model.rho_bar0 - dF2


def lambda_admissible(model: EosModel, x2):
    """``lambda_pair`` at heights x2 >= 0 whose states (x2, x2) ``invert_admissible`` accepts."""
    if np.any(x2 < 0):
        raise DomainError("x2 must be nonnegative")
    invert_admissible(model, x2, x2)
    return lambda_pair(model, x2)


def lambda_of(model: EosModel, x2: float) -> float:
    """Free-boundary weight lambda(x2) = 2*x2/rho_bar0 - F(x2; x2)."""
    return float(lambda_admissible(model, np.full(1, x2, dtype=float))[0][0])


def lambda_prime(model: EosModel, x2: float) -> float:
    """lambda'(x2) = 1/rho_bar0 - dF2(x2; x2)."""
    return float(lambda_admissible(model, np.full(1, x2, dtype=float))[1][0])


class GammaLawMedium:
    """Vectorized EOS evaluations used by the discrete functionals."""

    def __init__(self, model: EosModel):
        self.model = model
        self.rho0 = model.rho_bar0

    def thermo(self, t, s):
        """H, d1H, d2H, F and dF2 at the states (t, s) from one inversion."""
        H0 = _rest_density(self.model, s)
        H, d1, d2 = _checked_inversion(self.model, t, s, H0)
        return (H, d1, d2, *_F_closed(self.model, np.asarray(t, dtype=float), H, s, H0))

    def H_d1_d2(self, t, s):
        return _checked_inversion(self.model, t, s)

    def F_dF2(self, t, s):
        return self.thermo(t, s)[3:]

    def lam_pair(self, s):
        return lambda_pair(self.model, s)

    def lam(self, s):
        return lambda_pair(self.model, s)[0]

    def lam_prime(self, s):
        return lambda_pair(self.model, s)[1]


class IncompressibleMedium:
    """Exact incompressible limit: H == rho_bar0, F = t/rho0, lambda = s/rho0."""

    def __init__(self, rho_bar0: float = 1.0):
        if rho_bar0 <= 0:
            raise DomainError("rho_bar0 must be positive")
        self.rho0 = rho_bar0

    def thermo(self, t, s):
        t = np.asarray(t, dtype=float)
        z = np.zeros_like(t)
        return np.full_like(t, self.rho0), z, z, t / self.rho0, z

    def H_d1_d2(self, t, s):
        return self.thermo(t, s)[:3]

    def F_dF2(self, t, s):
        return self.thermo(t, s)[3:]

    def lam(self, s):
        return np.asarray(s, dtype=float) / self.rho0

    def lam_prime(self, s):
        s = np.asarray(s, dtype=float)
        return np.full_like(s, 1.0 / self.rho0)

    def lam_pair(self, s):
        return self.lam(s), self.lam_prime(s)
