"""Fractional-degree Legendre functions and the cone-angle constants.

P_nu is 2F1(-nu, nu+1; 1; (1-s)/2); derivatives use the shifted series,
regular at s = 1.  Each series is summed by Horner's rule over cached
coefficients, with a term count fixed per band of z = (1-s)/2, so a node's
value never depends on its array; near s = -1 (z > 0.97) the count is capped
and checked (docs/decisions.md).  The root hunted below sits at s ~ -0.42.
"""

import math
from functools import cache, lru_cache
from typing import NamedTuple

import numpy as np

from .errors import DomainError, NumericalError

_TAIL = 1e-17  # absolute tail bound; every series starts with the term 1
_MAX_TERMS = 2000  # coefficients kept per series; _BANDS: (upper z edge, term cap)
_BANDS = ((0.75, _MAX_TERMS), (0.9, _MAX_TERMS), (0.97, _MAX_TERMS), (1.0, 200))


@lru_cache(maxsize=16)
def _series(a, b, c):
    """Coefficients of 2F1(a, b; c; z) and the term count of each z-band."""
    coef = [1.0]
    while len(coef) < _MAX_TERMS and coef[-1] != 0.0:  # an exact 0 ends the series
        k = len(coef) - 1
        coef.append(coef[-1] * ((a + k) * (b + k)) / ((c + k) * (k + 1.0)))
    # past `turn` the ratio c_{k+1}/c_k is monotone in k (docs/decisions.md)
    turn = 1.0 + abs(a) + abs(b) + abs(c) + abs(a * b - c) * (abs(c) + 3.0)
    counts = []
    for edge, cap in _BANDS:
        n = 1
        while n < min(cap, len(coef)) and coef[n] != 0.0:
            # tail from term n <= |c_n| z^n / (1 - q), q = z max(1, c_{n+1}/c_n)
            q = edge * max(1.0, (a + n) * (b + n) / ((c + n) * (n + 1.0)))
            if n > turn and q < 1.0 and abs(coef[n]) * edge**n <= _TAIL * (1.0 - q):
                break
            n += 1
        counts.append(n)
    return tuple(coef), tuple(counts)


def _hyp2f1(a, b, c, s):
    """2F1(a, b; c; (1-s)/2) for s in (-1, 1], by bands of z."""
    s = np.asarray(s, dtype=float)
    if np.any(s <= -1.0) or np.any(s > 1.0):
        raise DomainError("argument must lie in (-1, 1]")
    z = 0.5 * (1.0 - s.reshape(-1))
    out = np.empty_like(z)
    coef, counts = _series(a, b, c)
    band = np.searchsorted([edge for edge, _ in _BANDS[:-1]], z)
    for i in np.flatnonzero(np.bincount(band)):
        n, zb = counts[i], z[band == i]
        tot = np.full_like(zb, coef[n - 1])
        for ck in reversed(coef[:n - 1]):
            tot *= zb
            tot += ck
        last = abs(coef[n - 1]) * zb ** (n - 1) if n == _BANDS[i][1] else 0.0
        if not np.all(last <= 1e-12 * np.maximum(1.0, np.abs(tot))):
            raise NumericalError("hypergeometric series not converged near s = -1",
                                 residual=float(np.max(last)))
        out[band == i] = tot
    return out.reshape(s.shape)


@cache
def gauss_legendre(n):
    """The n-point Gauss-Legendre nodes and weights on [-1, 1], read-only, made on first use."""
    from numpy.polynomial.legendre import leggauss

    x, w = leggauss(n)
    x.flags.writeable = w.flags.writeable = False
    return x, w


def _check_open_interval(s):
    s = np.asarray(s, dtype=float)
    if np.any(s <= -1.0) or np.any(s >= 1.0):
        raise DomainError("argument must lie in (-1, 1)")
    return s


def legendre_P(nu: float, s):
    """Legendre function of the first kind, degree nu, on (-1, 1]."""
    return _hyp2f1(-nu, nu + 1.0, 1.0, s)


def legendre_P_prime(nu: float, s):
    """d/ds P_nu(s); regular at s = 1 with value nu(nu+1)/2."""
    return 0.5 * nu * (nu + 1.0) * _hyp2f1(1.0 - nu, nu + 2.0, 2.0, s)


def legendre_P_second(nu: float, s):
    """d^2/ds^2 P_nu(s) through the twice-shifted series."""
    coeff = -nu * (nu + 1.0) * (1.0 - nu) * (nu + 2.0) / 8.0
    return coeff * _hyp2f1(2.0 - nu, nu + 3.0, 3.0, s)


def legendre_ode_residual(nu: float, s):
    """(1-s^2) P'' - 2 s P' + nu(nu+1) P; zero for exact values."""
    s = _check_open_interval(s)
    P = legendre_P(nu, s)
    Pp = legendre_P_prime(nu, s)
    Ppp = legendre_P_second(nu, s)
    return (1.0 - s * s) * Ppp - 2.0 * s * Pp + nu * (nu + 1.0) * P


class LegendreConstants(NamedTuple):
    """Cone constants of the degree-3/2 Legendre derivative root."""

    s_star: float
    theta_star_rad: float
    theta_star_deg: float
    m0: float


def find_theta_star() -> LegendreConstants:
    """Locate the root of P'_{3/2} near s = -0.42 and derived constants.

    P'_{3/2} is a fixed function, so plain Newton from s = -0.42 stops when
    a step no longer moves the iterate, which must leave |P'| <= 1e-13.  The
    cone half-angle is arccos of the root; m0 = s*^2/8 is the weighted cone volume.
    """
    nu = 1.5
    x = -0.42
    for _ in range(20):
        xn = x - float(legendre_P_prime(nu, x)) / float(legendre_P_second(nu, x))
        if xn == x:
            break
        x = xn
    residual = float(legendre_P_prime(nu, x))
    if abs(residual) > 1e-13:
        raise NumericalError("theta* refinement stalled", residual=residual)
    theta = math.acos(x)
    return LegendreConstants(
        s_star=x,
        theta_star_rad=theta,
        theta_star_deg=math.degrees(theta),
        m0=x * x / 8.0,
    )
