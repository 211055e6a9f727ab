import math

import mpmath as mp
import numpy as np
import pytest

from cornerflow import legendre
from cornerflow.errors import DomainError, NumericalError
from cornerflow.legendre import (
    find_theta_star,
    legendre_ode_residual,
    legendre_P,
    legendre_P_prime,
    legendre_P_second,
)
from cornerflow.profiles import flat_origin

from oracles import legendre_Q1, legendre_Q1_prime, legendre_Q1_second


def test_degree_one_is_identity():
    s = np.linspace(-0.95, 0.95, 41)
    assert np.max(np.abs(legendre_P(1.0, s) - s)) < 1e-14


def test_normalization_at_one():
    assert float(legendre_P(1.5, 1.0)) == 1.0
    assert float(legendre_P_prime(1.5, 1.0)) == pytest.approx(1.875, abs=1e-15)


def test_half_integer_values_vs_high_precision_oracle():
    # frozen mpmath (40-digit) values; the series meet them within 2.2e-16
    assert float(legendre_P(1.5, 0.5)) == pytest.approx(0.1724386030742277798, abs=3e-16)
    assert float(legendre_P_prime(1.5, 0.5)) == pytest.approx(1.4180592132978199347, abs=3e-16)
    assert float(legendre_P(0.5, 0.3)) == pytest.approx(0.70093853096965508, abs=3e-16)


@pytest.mark.parametrize("nu", [0.5, 1.5, 2.5])
def test_matches_mpmath_oracle(nu):
    # 40-digit Ferrers functions and their derivatives by mpmath's own
    # differentiation; at s = 1 the closed values P = 1, P' = nu(nu+1)/2,
    # P'' = (nu-1) nu (nu+1) (nu+2)/8 from the ODE
    s = np.append(np.linspace(-0.9, 0.99, 28), [-0.5, find_theta_star().s_star])
    for order, fn in enumerate((legendre_P, legendre_P_prime, legendre_P_second)):
        with mp.workdps(40):
            ref = [float(mp.diff(lambda x: mp.legenp(nu, 0, x, type=2), mp.mpf(float(x)), order))
                   for x in s]
        ref.append((1.0, nu * (nu + 1) / 2, (nu - 1) * nu * (nu + 1) * (nu + 2) / 8)[order])
        got = fn(nu, np.append(s, 1.0))
        assert np.max(np.abs(got - ref) / np.maximum(1.0, np.abs(ref))) < 1e-13


def test_terminating_series_near_minus_one():
    # integer degrees end the series: no cap, no convergence error at z > 0.97
    s = np.array([-0.999, -0.97, -0.95])
    assert np.max(np.abs(legendre_P(2.0, s) - (3 * s * s - 1) / 2)) < 1e-14
    assert np.max(np.abs(legendre_P_prime(2.0, s) - 3 * s)) < 1e-14
    # one-term series (c_1 = 0), in every band and at s = 1
    s = np.array([-0.99, -0.95, -0.85, -0.6, 0.3, 1.0])
    for nu in (0.0, -1.0):
        assert np.array_equal(legendre_P(nu, s), np.ones_like(s))
    assert np.array_equal(legendre_P_prime(1.0, s), np.ones_like(s))
    assert np.array_equal(legendre_P_second(2.0, s), np.full_like(s, 3.0))
    assert np.max(np.abs(legendre_P(1.0, s) - s)) < 1e-15


def test_array_value_independent_of_other_nodes():
    # the term count is fixed per z-band, so a node gives the same bits in an
    # array as alone; z = (1-s)/2 in [0, 0.97] spans every uncapped band, and
    # the nodes around the root of P'_{3/2} are where the bubble's cone edge sits
    s_star = find_theta_star().s_star
    s = np.append(np.linspace(-0.94, 1.0, 97), s_star + np.linspace(-1e-12, 1e-12, 9))
    for fn in (legendre_P, legendre_P_prime, legendre_P_second):
        for nu in (0.5, 1.5):
            arr = fn(nu, s)
            assert np.array_equal(arr, [float(fn(nu, x)) for x in s])
            assert np.array_equal(fn(nu, s[::-1])[::-1], arr)


def test_slow_series_near_minus_one_raises():
    with pytest.raises(NumericalError):
        legendre_P_prime(1.5, -0.99)
    with pytest.raises(NumericalError):
        legendre_P_prime(1.5, np.array([0.5, -0.2, -0.995]))


def test_ode_residual():
    s = np.linspace(-0.9, 0.95, 50)
    for nu in (0.5, 1.5, 2.5):
        assert np.max(np.abs(legendre_ode_residual(nu, s))) < 1e-12


def test_domain_errors():
    with pytest.raises(DomainError):
        legendre_P(1.5, -1.0)
    with pytest.raises(DomainError):
        legendre_P(1.5, 1.5)
    with pytest.raises(DomainError):
        legendre_Q1(1.0)
    with pytest.raises(DomainError):
        legendre_Q1(-1.0)


class TestQ1:
    def test_center(self):
        assert float(legendre_Q1(0.0)) == -1.0

    def test_near_edge(self):
        assert float(legendre_Q1(0.9)) == pytest.approx(0.45 * math.log(19.0) - 1.0, rel=1e-14)

    def test_odd_symmetry_structure(self):
        s = np.linspace(0.05, 0.9, 20)
        # Q1(-s) = -s/2 log((1-s)/(1+s)) - 1 = s/2 log((1+s)/(1-s)) - 1... check parity of Q1 + 1
        assert np.max(np.abs((legendre_Q1(-s) + 1.0) - (legendre_Q1(s) + 1.0))) < 1e-14

    def test_ode_residual(self):
        s = np.linspace(-0.85, 0.85, 50)
        res = (
            (1 - s * s) * legendre_Q1_second(s)
            - 2 * s * legendre_Q1_prime(s)
            + 2 * legendre_Q1(s)
        )
        assert np.max(np.abs(res)) < 1e-10
        # cross-check the closed-form second derivative against differences
        h = 1e-5
        fd = (legendre_Q1_prime(s + h) - legendre_Q1_prime(s - h)) / (2 * h)
        assert np.max(np.abs(fd - legendre_Q1_second(s))) < 1e-5


class TestThetaStar:
    def test_root_property(self):
        c = find_theta_star()
        assert abs(float(legendre_P_prime(1.5, c.s_star))) < 1e-12

    def test_angle(self):
        c = find_theta_star()
        assert 90.0 < c.theta_star_deg < 180.0
        assert c.theta_star_deg == pytest.approx(114.799, abs=0.01)
        assert c.s_star == pytest.approx(math.cos(math.radians(114.799)), abs=2e-4)

    def test_m0_closed_form_vs_polar_quadrature(self):
        c = find_theta_star()
        # oracle: 2-D polar quadrature of x1*x2+ over the bubble cone
        th_lo = math.pi - c.theta_star_rad
        x, w = np.polynomial.legendre.leggauss(80)
        th = 0.5 * (math.pi / 2 - th_lo) * x + 0.5 * (math.pi / 2 + th_lo)
        ang = 0.5 * (math.pi / 2 - th_lo) * np.dot(w, np.sin(th) * np.cos(th))
        oracle = ang / 4.0
        assert c.m0 == pytest.approx(oracle, abs=1e-8)
        assert c.m0 == pytest.approx(c.s_star**2 / 8.0, abs=1e-15)

    def test_beta(self):
        # sqrt(15/2) is the flat profile's normalization, stated once by flat_origin
        assert flat_origin().params["beta"] ** 2 == pytest.approx(7.5, rel=1e-14)

    def test_root_is_the_correctly_rounded_one(self):
        # the 40-digit mpmath root of P'_{3/2}, rounded to a float
        assert find_theta_star().s_star == -0.41944305104209506
        with mp.workdps(40):
            root = mp.findroot(lambda x: mp.diff(lambda y: mp.legenp(1.5, 0, y, type=2), x), -0.42)
        assert float(root) == -0.41944305104209506

    def test_stalled_newton_raises(self, monkeypatch):
        # a wrong derivative shrinks every step 1e6-fold: Newton stops short of the root
        second = legendre.legendre_P_second
        monkeypatch.setattr(legendre, "legendre_P_second", lambda nu, s: 1e6 * second(nu, s))
        with pytest.raises(NumericalError, match="theta\\* refinement stalled"):
            find_theta_star()
