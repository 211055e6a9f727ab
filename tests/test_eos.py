import math

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad

import cornerflow
from cornerflow import eos
from cornerflow.eos import (
    EosModel,
    GammaLawMedium,
    IncompressibleMedium,
    critical_density,
    invert_density,
    invert_many,
    lambda_of,
    lambda_prime,
)
from cornerflow.errors import DomainError, StateError, SubsonicityError
from cornerflow.profiles import flat_origin, profile_field

from oracles import F_of, F_quadrature, enthalpy, eos_from_text, eos_to_text, lambda_alt, pressure_derivative


def random_states(rng, n):
    """Subsonic (t, s) pairs over the range the functionals visit."""
    s = rng.uniform(0.0, 0.8, n)
    t = rng.uniform(0.0, 0.25, n) * np.maximum(s, 0.05)
    return t, s


def mp_bernoulli(model, s, q):
    """State at rho = q * rho_sonic(s) on the branch through fixed s, at 50 digits.

    rho_sonic(s) = H(0;s) (2/(gamma+1))^(1/(gamma-1)) is where t(rho; s)
    peaks.  Returns the double ``t`` of that state and the 50-digit root
    (rho, d1H, d2H) of the Bernoulli law at that rounded ``t``, plus the
    peak speed t_max.
    """
    with mpmath.workdps(50):
        gamma, A, rho0, g = (mpmath.mpf(v) for v in (model.gamma, model.A, model.rho_bar0, model.g))
        s = mpmath.mpf(s)
        gm1 = gamma - 1
        c0 = A * gamma / gm1
        e0 = rho0**gm1
        H0 = (e0 + g * s / c0) ** (1 / gm1)
        r_sonic = H0 * (2 / (gamma + 1)) ** (1 / gm1)

        def t_of(r):
            return r * r * (g * s - c0 * (r**gm1 - e0)) / (g * rho0 * rho0)

        r = mpmath.mpf(float(q)) * r_sonic
        t = float(t_of(r))
        G = lambda x: g * rho0 * rho0 * t / (x * x) + c0 * (x**gm1 - e0) - g * s  # noqa: E731
        x = mpmath.findroot(G, r)
        fp = A * gamma * x ** (gamma - 2) - 2 * g * rho0 * rho0 * t / x**3
        return t, (x, -(g * rho0 * rho0 / (x * x)) / fp, g / fp), float(t_of(r_sonic))


class TestPressure:
    """The oracles' p'(rho), which TestCriticalDensity's sonic condition reads."""

    def test_power_law(self, model_g2):
        assert pressure_derivative(model_g2, 3.0) == 6.0

    def test_negative_density_rejected(self, model_g2):
        with pytest.raises(DomainError):
            pressure_derivative(model_g2, -0.5)


class TestEnthalpy:
    def test_surface_value(self, model_g2):
        assert enthalpy(model_g2, 1.0) == 0.0

    def test_closed_form_vs_quadrature(self, model_g2):
        # oracle: adaptive quadrature of p'(w)/w
        oracle, _ = quad(lambda w: pressure_derivative(model_g2, w) / w, 1.0, 2.0)
        assert enthalpy(model_g2, 2.0) == pytest.approx(2.0, abs=1e-13)
        assert enthalpy(model_g2, 2.0) == pytest.approx(oracle, abs=1e-12)

    def test_rarefied_vs_quadrature(self):
        model = EosModel(gamma=1.4, A=1.0, rho_bar0=1.0, g=1.0)
        oracle, _ = quad(lambda w: pressure_derivative(model, w) / w, 1.0, 0.5)
        val = enthalpy(model, 0.5)
        assert val < 0
        assert val == pytest.approx(oracle, abs=1e-12)
        assert val == pytest.approx(-0.84749600860680336, abs=1e-12)

    def test_nonpositive_density_rejected(self, model_g2):
        with pytest.raises(DomainError):
            enthalpy(model_g2, 0.0)


class TestCriticalDensity:
    def test_surface(self, model_g2):
        assert critical_density(model_g2, 0.0) == model_g2.rho_bar0

    def test_strictly_decreasing(self, model_g2):
        xs = np.linspace(0.0, model_g2.x2_st, 9)
        vals = [critical_density(model_g2, float(x)) for x in xs]
        assert all(a > b for a, b in zip(vals, vals[1:]))

    @pytest.mark.parametrize("A", [1.0, 1e3])
    @pytest.mark.parametrize("gamma", [1.1, 1.4, 5 / 3, 2.0, 3.0])
    def test_residual_and_bisection_oracle(self, gamma, A):
        model = EosModel(gamma=gamma, A=A, rho_bar0=1.3, g=2.5)
        x2 = model.x2_st * np.array([0.1, 0.5, 0.9, 1.0])
        rho = critical_density(model, x2)

        def f(r, x2):
            # the sonic condition p'(rho)/2 + h(rho) + g x2 = p'(rho_bar0)/2
            return (
                0.5 * pressure_derivative(model, r)
                + enthalpy(model, r)
                + model.g * x2
                - 0.5 * pressure_derivative(model, model.rho_bar0)
            )

        scale = 0.5 * pressure_derivative(model, model.rho_bar0)
        assert np.max(np.abs(f(rho, x2))) < 1e-14 * scale
        # bisection oracle: f increases in rho, and its root lies below rho_bar0
        lo, hi = np.full(x2.size, 1e-6), np.full(x2.size, model.rho_bar0)
        for _ in range(80):
            mid = 0.5 * (lo + hi)
            up = f(mid, x2) > 0
            hi = np.where(up, mid, hi)
            lo = np.where(up, lo, mid)
        assert np.max(np.abs(rho - 0.5 * (lo + hi)) / rho) < 1e-12

    def test_domain(self, model_g2):
        with pytest.raises(DomainError):
            critical_density(model_g2, -0.1)
        with pytest.raises(DomainError):
            critical_density(model_g2, model_g2.x2_st * 1.5)


class TestInversion:
    def test_rest_state(self, model_g2):
        assert invert_density(model_g2, 0.0, 0.0).rho == pytest.approx(1.0, abs=1e-14)

    def test_surface_identity(self, model_g2):
        # H(t; t) equals the surface density along the diagonal
        for t in np.linspace(0.0, 0.9 * model_g2.x2_st, 100):
            st = invert_density(model_g2, float(t), float(t))
            assert abs(st.rho - 1.0) < 1e-10

    def test_example_state(self, model_g2):
        st = invert_density(model_g2, 0.01, 0.05)
        res = model_g2.g * st.rho**-2 * 0.01 + enthalpy(model_g2, st.rho) - model_g2.g * 0.05
        assert abs(res) < 1e-12
        assert st.d1H < 0
        assert st.d2H > 0  # rescaled-height derivative
        assert st.d_rho_d_height < 0  # physical-frame monotonicity

    @pytest.mark.parametrize("t,s", [(0.01, 0.05), (0.2, 0.4), (0.0, 0.3), (0.05, 0.6)])
    def test_derivatives_match_finite_differences(self, model_g2, t, s):
        st = invert_density(model_g2, t, s)
        eps = 1e-6
        d1_fd = (
            invert_density(model_g2, t + eps, s).rho
            - invert_density(model_g2, max(t - eps, 0.0), s).rho
        ) / (eps + min(t, eps))
        d2_fd = (
            invert_density(model_g2, t, s + eps).rho - invert_density(model_g2, t, s - eps).rho
        ) / (2 * eps)
        assert st.d1H == pytest.approx(d1_fd, rel=1e-6)
        assert st.d2H == pytest.approx(d2_fd, rel=1e-6)
        # physical-frame check through the chain rule in the height
        phys_fd = (
            invert_density(model_g2, t, s - eps).rho - invert_density(model_g2, t, s + eps).rho
        ) / (2 * eps)
        assert st.d_rho_d_height == pytest.approx(phys_fd, rel=1e-6)

    def test_monotone_in_height_at_rest(self, model_g2):
        vals = [invert_density(model_g2, 0.0, float(s)).rho for s in np.linspace(0.0, 0.8, 9)]
        assert all(b > a for a, b in zip(vals, vals[1:]))

    def test_supersonic_data_rejected(self, model_g2):
        with pytest.raises(StateError):
            invert_density(model_g2, 5.0, 0.01)

    def test_margin_violation(self):
        model = EosModel(gamma=2.0, A=1.0, rho_bar0=1.0, g=1.0, eps0=0.5)
        with pytest.raises(SubsonicityError):
            invert_density(model, 0.0, 0.01)

    def test_domain(self, model_g2):
        with pytest.raises(DomainError):
            invert_density(model_g2, -0.1, 0.1)

    @pytest.mark.parametrize("gamma", [1.4, 2.0, 3.0])
    def test_newton_converges_within_eight_passes(self, gamma):
        # a converged node leaves the iteration instead of bisecting its
        # bracket down to roundoff, so 8 passes give the default's roots
        model = EosModel(gamma=gamma)
        t, s = random_states(np.random.default_rng(11), 10**4)
        full = invert_many(model, t, s)
        short = invert_many(model, t, s, max_iter=8)
        assert not np.any(full[3]) and not np.any(short[3])
        assert np.max(np.abs(short[0] - full[0]) / full[0]) <= 1e-15

    @pytest.mark.parametrize("A", [1e3, 1e8])
    def test_stiff_gas_converges_within_eight_passes(self, A):
        # the residual's rounding floor grows like c0 = A gamma/(gamma-1):
        # an absolute stopping test alone keeps these nodes iterating
        model = EosModel(gamma=2.0, A=A)
        t, s = random_states(np.random.default_rng(11), 10**4)
        full = invert_many(model, t, s)
        short = invert_many(model, t, s, max_iter=8)
        assert not np.any(full[3]) and not np.any(short[3])
        assert np.max(np.abs(short[0] - full[0]) / full[0]) <= 1e-15

    def test_unconverged_node_flagged(self, model_g2):
        t = np.array([0.0, 0.01, 0.05])
        rho, d1, _, flag = invert_many(model_g2, t, 0.3, max_iter=1)
        assert list(flag) == [0, 2, 2]
        assert rho[0] > 0 and np.all(np.isnan(rho[1:])) and np.all(np.isnan(d1[1:]))

    @pytest.mark.parametrize("t, s", [(0.01, math.inf), (0.01, -math.inf), (0.0, math.inf),
                                      (math.inf, 0.1), (math.nan, 0.1), (0.01, math.nan)])
    def test_non_finite_state_has_no_root(self, model_g2, t, s):
        # an infinite rest density H(0; s) used to pass the no-root test: Newton
        # then started at w = 0 and ran out its passes (flag 2), or at t = 0
        # returned rho = inf with flag 0; any warning on the way fails the test
        rho, d1, d2, flag = invert_many(model_g2, np.array([t]), np.array([s]))
        assert list(flag) == [1]
        assert np.all(np.isnan(np.stack((rho, d1, d2))))

    def test_matches_mpmath_oracle(self):
        rng = np.random.default_rng(5)
        for gamma in (1.4, 2.0, 3.0):
            model = EosModel(gamma=gamma)
            q_rest = ((gamma + 1.0) / 2.0) ** (1.0 / (gamma - 1.0))  # H(0;s)/rho_sonic
            for s in (0.05, 0.3, 0.8):
                bands = (
                    (np.append(rng.uniform(1.1, q_rest, 15), 1.1), 1e-13, 1e-13),
                    (np.append(1.0 + 10.0 ** rng.uniform(-3.0, -1.0, 15), 1.001), 1e-12, 1e-9),
                )
                for qs, rho_tol, d_tol in bands:
                    states = [mp_bernoulli(model, s, q) for q in qs]
                    t = np.array([st[0] for st in states])
                    got = invert_many(model, t, s)
                    assert not np.any(got[3])
                    for k, tol in ((0, rho_tol), (1, d_tol), (2, d_tol)):
                        want = np.array([float(st[1][k]) for st in states])
                        assert np.max(np.abs(got[k] - want) / np.abs(want)) <= tol, (gamma, s, k)
                t_max = states[0][2]
                sup = invert_many(model, np.array([t_max * (1.0 + 1e-9), 2.0 * t_max]), s)
                assert np.all(sup[3] == 1)
                assert np.all(np.isnan(np.stack(sup[:3])))

    def test_frozen_state_and_backend(self, model_g2):
        assert cornerflow.KERNEL_BACKEND == "python"
        rho = invert_density(model_g2, 0.01, 0.05).rho
        assert rho == pytest.approx(1.0201960025372609, rel=1e-12)

    def test_incompressible_stiffening(self):
        # as A grows, the density pins to the surface value monotonically
        t = np.linspace(0.0, 0.05, 11)
        s = np.linspace(0.0, 0.2, 11)
        sups = []
        for A in (1.0, 10.0, 100.0, 1000.0):
            model = EosModel(gamma=2.0, A=A, rho_bar0=1.0, g=1.0)
            rho, _, _, flag = invert_many(model, t[None, :], s[:, None])
            assert not np.any(flag)
            sups.append(float(np.max(np.abs(rho - 1.0))))
        assert all(b < a for a, b in zip(sups, sups[1:]))


def peak_speed(model, s):
    """t_max(s) = t(rho_sonic(s); s), the largest speed with a subsonic root at height s."""
    gm1 = model.gamma - 1.0
    c0 = model.A * model.gamma / gm1
    base = model.rho_bar0**gm1 + model.g * s / c0  # H(0;s)^(gamma-1)
    r = (2.0 * base / (model.gamma + 1.0)) ** (1.0 / gm1)
    return r * r * (model.g * s + c0 * model.rho_bar0**gm1) * gm1 / ((model.gamma + 1.0) * model.g * model.rho_bar0**2)


def bernoulli_residual(model, t, s, rho):
    gm1 = model.gamma - 1.0
    c0 = model.A * model.gamma / gm1
    k = model.g * model.rho_bar0**2
    return k * t / (rho * rho) + c0 * (rho**gm1 - model.rho_bar0**gm1) - model.g * s


KERNEL = settings(max_examples=60, derandomize=True, deadline=None)
GAMMAS = st.floats(1.05, 4.0)
STIFFNESS = st.floats(-1.0, 4.0).map(lambda e: 10.0**e)
HEIGHTS = st.floats(0.0, 2.0)


class TestKernelProperties:
    """invert_many over generated gamma, A, t and s (rho_bar0 = g = 1)."""

    @KERNEL
    @given(gamma=GAMMAS, A=STIFFNESS, s=HEIGHTS, q=st.floats(0.0, 0.9),
           dq=st.floats(0.01, 0.09), ds=st.floats(0.01, 1.0))
    def test_H_decreases_in_t_and_increases_in_s(self, gamma, A, s, q, dq, ds):
        model = EosModel(gamma=gamma, A=A)
        t = np.array([q, q + dq, q]) * peak_speed(model, s)
        rho, d1, d2, flag = invert_many(model, t, np.array([s, s, s + ds]))
        assert not np.any(flag)
        assert rho[1] < rho[0] < rho[2]
        assert np.all(d1 < 0) and np.all(d2 > 0)

    @KERNEL
    @given(gamma=GAMMAS, A=STIFFNESS, s=HEIGHTS, q=st.lists(st.floats(0.0, 0.9999), min_size=1, max_size=8))
    def test_residual_meets_the_stopping_bound(self, gamma, A, s, q):
        model = EosModel(gamma=gamma, A=A)
        t = np.array(q) * peak_speed(model, s)
        rho, _, _, flag = invert_many(model, t, s)
        assert not np.any(flag)
        # invert_many's tol_n: tol, or 16 ulps of the residual terms' sum at the root
        c0 = model.A * model.gamma / (model.gamma - 1.0)
        tol_n = max(1e-13, 32.0 * np.finfo(float).eps * (model.g * s + c0 * model.rho_bar0 ** (model.gamma - 1.0)))
        assert np.max(np.abs(bernoulli_residual(model, t, s, rho))) <= tol_n

    @KERNEL
    @given(gamma=GAMMAS, A=STIFFNESS, s=HEIGHTS, q=st.lists(st.floats(0.0, 2.0, allow_subnormal=False), min_size=1, max_size=8))
    def test_flag_exactly_where_the_sonic_residual_is_nonnegative(self, gamma, A, s, q):
        model = EosModel(gamma=gamma, A=A)
        q = np.array(q)
        t = q * peak_speed(model, s)
        rho, _, _, flag = invert_many(model, t, s)
        # the sonic density solves rho^2 p'(rho) = 2 g rho_bar0^2 t (no
        # subnormal q: the sonic density would round to 0); at t = 0 the root
        # is the rest density H(0; s), which exists for every s >= 0
        sonic = (2.0 * model.g * model.rho_bar0**2 * t / (model.A * model.gamma)) ** (1.0 / (model.gamma + 1.0))
        with np.errstate(divide="ignore", invalid="ignore"):
            no_root = (t > 0) & (bernoulli_residual(model, t, s, sonic) >= 0)
        assert np.array_equal(flag == 1, no_root) and not np.any(flag == 2)
        assert np.all(np.isnan(rho[no_root])) and np.all(rho[~no_root] > 0)
        # away from the peak speed, the flag agrees with t > t_max(s)
        far = np.abs(q - 1.0) > 1e-6
        assert np.array_equal(no_root[far], q[far] > 1.0)

    @KERNEL
    @given(gamma=GAMMAS, A=STIFFNESS, s=HEIGHTS, gap=st.lists(st.floats(3.0, 9.0), min_size=1, max_size=8))
    def test_near_the_peak_speed_newton_stays_between_sonic_and_rest(self, gamma, A, s, gap):
        # q in [1 - 1e-3, 1 - 1e-9]: the root nears the sonic density, where
        # the residual's slope vanishes; monotone Newton from rest never passes it
        model = EosModel(gamma=gamma, A=A)
        t = (1.0 - 10.0 ** -np.array(gap)) * peak_speed(model, s)
        rho, _, _, flag = invert_many(model, t, s)
        assert not np.any(flag)
        gm1 = model.gamma - 1.0
        c0 = model.A * model.gamma / gm1
        tol_n = max(1e-13, 32.0 * np.finfo(float).eps * (model.g * s + c0 * model.rho_bar0**gm1))
        assert np.max(np.abs(bernoulli_residual(model, t, s, rho))) <= tol_n
        sonic = (2.0 * model.g * model.rho_bar0**2 * t / (model.A * model.gamma)) ** (1.0 / (model.gamma + 1.0))
        rest = (model.rho_bar0**gm1 + model.g * s / c0) ** (1.0 / gm1)
        assert np.all(sonic < rho) and np.all(rho <= rest)


def separate_calls(model, t, s):
    """H, d1H, d2H from an inversion and F, dF2 from the closed form, each forming its own H(0; s)."""
    H, d1, d2 = eos._checked_inversion(model, t, s)
    return (H, d1, d2, *eos._F_closed(model, np.asarray(t, dtype=float), H, s))


class TestThermo:
    def test_matches_separate_calls(self, model_g2):
        med = GammaLawMedium(model_g2)
        t, s = random_states(np.random.default_rng(5), 500)
        got = med.thermo(t, s)
        want = separate_calls(model_g2, t, s)
        assert len(got) == 5
        assert all(np.array_equal(a, b) for a, b in zip(got, want))
        assert all(np.array_equal(a, b) for a, b in zip((*med.H_d1_d2(t, s), *med.F_dF2(t, s)), want))

    def test_rest_density_formed_once(self, model_g2, monkeypatch):
        # minimize-gamma2's 7 x 7 state: one H(0; s) per call, shared by the
        # inversion's bracket and the closed-form F, with every output
        # bitwise equal to the two separate evaluations
        flat = profile_field(flat_origin(beta=0.3))
        x = (np.arange(7) + 0.5) / 32
        X1, X2 = np.meshgrid(x, x, indexing="ij")
        g1, g2 = flat.evaluate(X1, X2)[1:]
        t, s = (g1 * g1 + g2 * g2) / (X1 * X1), X2
        med = GammaLawMedium(model_g2)
        want = separate_calls(model_g2, t, s)
        calls = []
        rest = eos._rest_density
        monkeypatch.setattr(eos, "_rest_density", lambda *a: calls.append(1) or rest(*a))
        got = med.thermo(t, s)
        assert len(calls) == 1
        assert all(a.shape == (7, 7) and np.array_equal(a, b) for a, b in zip(got, want))

    def test_incompressible_closed_forms(self):
        t, s = random_states(np.random.default_rng(5), 500)
        H, d1, d2, F, dF2 = IncompressibleMedium(1.3).thermo(t, s)
        assert np.all(H == 1.3) and not np.any(d1) and not np.any(d2) and not np.any(dF2)
        assert np.array_equal(F, t / 1.3)

    def test_eps0_margin_left_to_scalar_path(self, model_g2):
        # docs/decisions.md: eps0 is enforced by invert_density only; a
        # state within eps0 of the critical density is evaluated by thermo
        s = 0.3
        rho = critical_density(model_g2, model_g2.x2_st - s) + 0.5 * model_g2.eps0
        t = rho * rho * (s - 2.0 * (rho - 1.0))  # Bernoulli at gamma = 2, A = g = rho0 = 1
        with pytest.raises(SubsonicityError):
            invert_density(model_g2, t, s)
        H, d1, d2, F, dF2 = GammaLawMedium(model_g2).thermo(np.array([t]), np.array([s]))
        assert H[0] == pytest.approx(rho, rel=1e-12)
        assert np.all(np.isfinite(np.concatenate([d1, d2, F, dF2])))


class TestF:
    def test_empty_integral(self, model_g2):
        F, dF1, dF2 = F_of(model_g2, 0.0, 0.3)
        assert F == 0.0 and dF2 == 0.0
        assert dF1 == pytest.approx(1.0 / invert_density(model_g2, 0.0, 0.3).rho, rel=1e-13)

    def test_incompressible_limit(self):
        model = EosModel(gamma=2.0, A=1e8, rho_bar0=1.0, g=1.0)
        F, _, _ = F_of(model, 0.04, 0.05)
        assert abs(F - 0.04) < 1e-6

    def test_against_dense_midpoint_oracle(self, model_g2):
        t, s = 0.04, 0.05
        n = 10**6
        tau = (np.arange(n) + 0.5) * (t / n)
        rho, _, _, flag = invert_many(model_g2, tau, s)
        assert not np.any(flag)
        oracle = float(np.sum(1.0 / rho)) * (t / n)
        F, _, _ = F_of(model_g2, t, s)
        assert F == pytest.approx(oracle, abs=1e-9)
        # frozen high-precision value for the same state
        assert F == pytest.approx(0.039401036047264968, abs=1e-12)

    @pytest.mark.parametrize("gamma", [1.4, 2.0, 3.0])
    def test_closed_form_matches_quadrature_oracle(self, gamma):
        model = EosModel(gamma=gamma)
        t, s = random_states(np.random.default_rng(7), 200)
        F, dF2 = GammaLawMedium(model).F_dF2(t, s)
        for i in range(t.size):
            F_q, dF2_q = F_quadrature(model, t[i], s[i], tol=1e-15)
            assert abs(F[i] - F_q) <= 1e-15
            assert abs(dF2[i] - dF2_q) <= 1e-13

    @pytest.mark.parametrize("gamma, A, rho_bar0, g", [(2.0, 1.0, 2.0, 1.0), (5 / 3, 2.0, 2.0, 9.81),
                                                        (1.4, 0.7, 0.5, 0.3)])
    def test_closed_form_matches_quadrature_oracle_off_unit_density(self, gamma, A, rho_bar0, g):
        # at rho_bar0 = 1 the closed form's rho_bar0 ** 2 factors are invisible;
        # these states lie inside each model's subsonic range
        model = EosModel(gamma=gamma, A=A, rho_bar0=rho_bar0, g=g)
        t, s = (a.ravel() for a in np.meshgrid([0.003, 0.01], [0.05 * model.x2_st, 0.1 * model.x2_st]))
        F, dF2 = GammaLawMedium(model).F_dF2(t, s)
        for i in range(t.size):
            F_q, dF2_q = F_quadrature(model, t[i], s[i], tol=1e-15)
            assert abs(F[i] - F_q) <= 1e-15
            assert abs(dF2[i] - dF2_q) <= 1e-13

    @pytest.mark.parametrize("A", [1e3, 1e8])
    def test_closed_form_accurate_for_stiff_gas(self, A):
        # H barely moves from H(0;s) here, so F must not be formed as a
        # difference of two O(c0) antiderivative values
        model = EosModel(gamma=2.0, A=A)
        t = np.array([1e-4, 0.01, 0.04, 0.2])
        s = np.array([0.05, 0.05, 0.3, 0.6])
        F, _ = GammaLawMedium(model).F_dF2(t, s)
        for i in range(t.size):
            F_q, _ = F_quadrature(model, t[i], s[i], tol=1e-15)
            assert F[i] == pytest.approx(F_q, rel=1e-14)

    def test_vectorized_matches_scalar(self, model_g2):
        t = np.array([0.01, 0.04, 0.1])
        s = np.array([0.05, 0.05, 0.3])
        Fv, dF2v = GammaLawMedium(model_g2).F_dF2(t, s)
        for i in range(3):
            F, _, dF2 = F_of(model_g2, float(t[i]), float(s[i]))
            assert Fv[i] == pytest.approx(F, abs=1e-11)
            assert dF2v[i] == pytest.approx(dF2, abs=1e-11)


class TestLambda:
    def test_zero(self, model_g2):
        assert lambda_of(model_g2, 0.0) == 0.0

    def test_incompressible_limit(self):
        model = EosModel(gamma=2.0, A=1e8, rho_bar0=1.0, g=1.0)
        assert abs(lambda_of(model, 0.3) - 0.3) < 1e-6

    def test_two_expressions_agree(self, model_g2):
        for x2 in np.linspace(0.0, 0.9 * model_g2.x2_st, 100):
            a = lambda_of(model_g2, float(x2))
            b = lambda_alt(model_g2, float(x2))
            assert abs(a - b) < 1e-9

    def test_prime_vs_finite_difference(self, model_g2):
        eps = 1e-5
        for x2 in (0.1, 0.3, 0.6):
            fd = (lambda_of(model_g2, x2 + eps) - lambda_of(model_g2, x2 - eps)) / (2 * eps)
            assert lambda_prime(model_g2, x2) == pytest.approx(fd, rel=1e-6)

    def test_prime_at_least_inverse_density(self, model_g2):
        # lambda' >= 1/rho_bar0 because the height derivative of 1/H is <= 0
        for x2 in (0.05, 0.2, 0.5):
            assert lambda_prime(model_g2, x2) >= 1.0 / model_g2.rho_bar0 - 1e-12


class TestLambdaClosedForm:
    """lambda and lambda' at the free-surface state (s, s), where H = rho_bar0 (docs/decisions.md)."""

    GAMMAS = (1.1, 1.4, 5 / 3, 2.0, 3.0)

    @settings(max_examples=200, derandomize=True, deadline=None)
    @given(gamma=st.sampled_from(GAMMAS), A=st.sampled_from((1.0, 1e3)),
           rho_bar0=st.sampled_from((1.0, 2.5)), q=st.floats(0.0, 0.99))
    def test_free_surface_state_inverts_to_rho_bar0(self, gamma, A, rho_bar0, q):
        # the identity behind the closed form: h(rho_bar0) = 0 makes rho_bar0
        # the root at t = s, and it lies above the sonic density while s < x2_st
        model = EosModel(gamma=gamma, A=A, rho_bar0=rho_bar0)
        s = q * model.x2_st
        rho, _, _, flag = invert_many(model, s, s)
        assert flag == 0
        assert abs(rho - rho_bar0) <= 1e-12 * rho_bar0

    @pytest.mark.parametrize("gamma, A", [(g, 1.0) for g in GAMMAS] + [(2.0, 1e3)])
    def test_lambda_matches_the_quadrature_oracle(self, gamma, A):
        model = EosModel(gamma=gamma, A=A)
        s = np.linspace(0.05, 0.95, 5) * model.x2_st
        lam, _ = GammaLawMedium(model).lam_pair(s)
        for i in range(s.size):
            ref = lambda_alt(model, float(s[i]), tol=1e-15)
            assert abs(lam[i] - ref) <= 1e-13 * abs(ref)

    @pytest.mark.parametrize("gamma", GAMMAS)
    @pytest.mark.parametrize("A, rho_bar0", [(1.0, 1.0), (1e3, 2.5)])
    def test_lambda_prime_is_rest_density_over_rho_bar0_squared(self, gamma, A, rho_bar0):
        model = EosModel(gamma=gamma, A=A, rho_bar0=rho_bar0, g=9.81)
        s = np.linspace(0.0, 0.99, 12) * model.x2_st
        _, lam_p = GammaLawMedium(model).lam_pair(s)
        with mpmath.workdps(40):
            gm1, rho0 = mpmath.mpf(gamma) - 1, mpmath.mpf(rho_bar0)
            c = gm1 * mpmath.mpf(model.g) / (mpmath.mpf(A) * mpmath.mpf(gamma))
            for i in range(s.size):
                ref = float((rho0**gm1 + c * mpmath.mpf(float(s[i]))) ** (1 / gm1) / rho0**2)
                assert abs(lam_p[i] - ref) <= 1e-14 * ref

    def test_no_inversion(self, gamma2_medium, monkeypatch):
        calls = []
        invert = eos.invert_many
        monkeypatch.setattr(eos, "invert_many", lambda *a, **k: calls.append(1) or invert(*a, **k))
        s = np.linspace(0.0, 0.9, 50)
        gamma2_medium.lam_pair(s)
        gamma2_medium.lam(s)
        gamma2_medium.lam_prime(s)
        assert calls == []

    def test_scalar_api_is_the_same_closed_form(self, model_g14):
        s = np.linspace(0.0, 0.9, 7) * model_g14.x2_st
        lam, lam_p = GammaLawMedium(model_g14).lam_pair(s)
        assert [lambda_of(model_g14, float(x)) for x in s] == list(lam)
        assert [lambda_prime(model_g14, float(x)) for x in s] == list(lam_p)

    @pytest.mark.parametrize("bad, why", [
        (-3.7e-18, "lambda is undefined below the free-surface height"),
        (1.0, "lambda needs a subsonic free-surface state"),
        (1.25, "lambda needs a subsonic free-surface state"),
        (math.nan, "lambda needs a subsonic free-surface state"),
    ], ids=["below-zero", "at-x2_st", "above-x2_st", "nan"])
    def test_height_outside_the_domain_is_named(self, gamma2_medium, bad, why):
        # model_g2 has x2_st = 1 exactly; the index counts into the heights passed
        s = np.array([0.0, 0.3, bad, -0.5])
        for method in (gamma2_medium.lam_pair, gamma2_medium.lam, gamma2_medium.lam_prime):
            with pytest.raises(StateError) as exc:
                method(s)
            assert str(exc.value) == f"{why}: node index 2 at height {bad!r} (x2_st 1.0)"
            assert exc.value.index == 2

    @pytest.mark.parametrize("fn", [lambda_of, lambda_prime])
    def test_scalar_api_above_x2_st_is_a_state_error(self, model_g2, fn):
        # above x2_st the state (x2, x2) still has a subsonic root, but it is
        # not rho_bar0: the free surface itself would be supersonic there
        with pytest.raises(StateError, match="lambda needs a subsonic free-surface state: node index 0 at height 1.2"):
            fn(model_g2, 1.2)
        # at x2_st and just below it the admissibility check keeps its own errors
        with pytest.raises(StateError, match="subsonic inversion failed at node index 0"):
            fn(model_g2, 1.0)
        with pytest.raises(SubsonicityError):
            fn(model_g2, 0.999)
        with pytest.raises(DomainError, match="x2 must be nonnegative"):
            fn(model_g2, -0.1)


class TestModel:
    def test_x2_st(self, model_g2):
        assert model_g2.x2_st == pytest.approx(1.0, abs=1e-15)
        m = EosModel(gamma=1.4, A=2.0, rho_bar0=1.5, g=2.0)
        assert m.x2_st == pytest.approx(2.0 * 1.4 * 1.5**0.4 / 4.0, rel=1e-14)

    def test_text_round_trip(self, model_g14):
        m2 = eos_from_text(eos_to_text(model_g14))
        assert type(m2) is EosModel and vars(m2) == vars(model_g14)

    def test_validation(self):
        with pytest.raises(DomainError):
            EosModel(gamma=1.0)
        with pytest.raises(DomainError):
            EosModel(gamma=2.0, A=-1.0)
        with pytest.raises(DomainError):
            EosModel(gamma=2.0, eps0=0.0)
