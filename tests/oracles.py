"""Test-only quadrature oracles for the EOS layer.

The library evaluates F(t;s) and lambda(x2) in closed form
(docs/decisions.md).  These routines integrate the defining expressions
numerically instead, so they check the closed form independently of its
derivation.
"""

import numpy as np

from cornerflow.eos import invert_many
from cornerflow.errors import StateError

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
