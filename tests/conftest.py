import math

import numpy as np
import pytest

from cornerflow.eos import EosModel, GammaLawMedium, IncompressibleMedium
from cornerflow.fields import AnalyticField
from cornerflow.legendre import legendre_P_prime


@pytest.fixture(scope="session")
def model_g2():
    return EosModel(gamma=2.0, A=1.0, rho_bar0=1.0, g=1.0)


@pytest.fixture(scope="session")
def model_g14():
    return EosModel(gamma=1.4, A=2.0, rho_bar0=1.0, g=1.0)


@pytest.fixture(scope="session")
def incompressible():
    return IncompressibleMedium(1.0)


@pytest.fixture(scope="session")
def gamma_medium(model_g14):
    return GammaLawMedium(model_g14)


@pytest.fixture(scope="session")
def gamma2_medium(model_g2):
    return GammaLawMedium(model_g2)


def bump_phi(c1, c2, w, a1=0.1, a2=0.6):
    """Smooth compactly supported vector field with analytic Jacobian."""

    def window(x, c):
        z = np.clip((x - c) / w, -1.0, 1.0)
        return np.where(np.abs(z) < 1.0, (1.0 - z * z) ** 3, 0.0)

    def dwindow(x, c):
        z = np.clip((x - c) / w, -1.0, 1.0)
        return np.where(np.abs(z) < 1.0, -6.0 * z * (1.0 - z * z) ** 2 / w, 0.0)

    def phi(x1, x2):
        W = window(x1, c1) * window(x2, c2)
        return a1 * W, a2 * W

    def dphi(x1, x2):
        W1 = window(x1, c1)
        W2 = window(x2, c2)
        d1 = dwindow(x1, c1) * W2
        d2 = W1 * dwindow(x2, c2)
        return a1 * d1, a1 * d2, a2 * d1, a2 * d2

    return phi, dphi


def gaussian_field(rng, box, n_bumps=3, base=0.5, amp=(0.02, 0.08)):
    """Strictly positive analytic field with exact gradients on ``box``."""
    cs = rng.uniform(box[0] + 0.2, box[1] - 0.2, n_bumps)
    ds = rng.uniform(box[2] + 0.2, box[3] - 0.2, n_bumps)
    amps = rng.uniform(amp[0], amp[1], n_bumps)
    ws = rng.uniform(0.3, 0.5, n_bumps)

    def fn(x1, x2):
        v = np.full_like(np.asarray(x1, float), base)
        for c, d, a, w in zip(cs, ds, amps, ws):
            v = v + a * np.exp(-((x1 - c) ** 2 + (x2 - d) ** 2) / (w * w))
        return v

    def grad(x1, x2):
        g1 = np.zeros_like(np.asarray(x1, float))
        g2 = np.zeros_like(g1)
        for c, d, a, w in zip(cs, ds, amps, ws):
            e = a * np.exp(-((x1 - c) ** 2 + (x2 - d) ** 2) / (w * w))
            g1 += e * (-2.0 * (x1 - c) / (w * w))
            g2 += e * (-2.0 * (x2 - d) / (w * w))
        return g1, g2

    f = AnalyticField(fn, grad, apex=(box[0], 0.0))
    f.x1_min, f.x1_max, f.x2_min, f.x2_max = box
    f.h = 1.0 / 256.0
    return f


def perturbed_flat_field(eps=0.3, nu=2.5):
    """Flat profile plus a degree-(nu+1) weighted-harmonic mode in x2 > 0."""
    beta = math.sqrt(7.5)

    def fn(x1, x2):
        x1 = np.asarray(x1, float)
        x2 = np.asarray(x2, float)
        rho = np.hypot(x1, x2)
        pos = (x2 > 0) & (rho > 0)
        ct = np.where(pos, x2 / np.where(rho > 0, rho, 1.0), 1.0)
        mode = x1 * x1 * rho ** (nu - 1.0) * legendre_P_prime(nu, np.clip(ct, 0.0, 1.0))
        return np.where(pos, beta * x1 * x1 * x2 + eps * mode, 0.0)

    def grad(x1, x2, d=1e-7):
        return (
            (fn(x1 + d, x2) - fn(x1 - d, x2)) / (2 * d),
            (fn(x1, x2 + d) - fn(x1, x2 - d)) / (2 * d),
        )

    return AnalyticField(fn, grad, apex=(0.0, 0.0), rays_phi=(0.0, np.pi))
