import math

import mpmath
import numpy as np
import pytest

from cornerflow.errors import DomainError, StencilError
from cornerflow.legendre import find_theta_star
from cornerflow.profiles import (
    axis_parabola,
    cone_density_constants,
    eval_profile,
    eval_profile_gradient,
    evaluate_profile,
    flat_origin,
    garabedian_beta0,
    garabedian_bubble,
    profile_field,
    profile_pde_residual,
    profile_rays_phi,
    stokes_corner,
    theta_star_constants,
    zero_profile,
)

from oracles import profile_gradient_separate, profile_value_separate

ALL_SPECS = [
    stokes_corner(),
    axis_parabola(1.3),
    garabedian_bubble(),
    flat_origin(),
]


def interior_point(spec, rng):
    rho = 0.3 + 0.6 * rng.random()
    if spec.kind == "StokesCorner":
        th = (rng.random() - 0.5) * 0.8 * (2 * math.pi / 3)
    elif spec.kind == "GarabedianBubble":
        c = theta_star_constants()
        th = math.pi - c.theta_star_rad * (0.15 + 0.7 * rng.random())
    elif spec.kind == "FlatOrigin":
        th = 0.2 + 0.6 * rng.random()
    else:
        th = 0.3 + 0.9 * rng.random()
    return rho * math.sin(th), rho * math.cos(th)


class TestValues:
    def test_stokes_vanishes_on_rays(self):
        sc = stokes_corner()
        for rho in (0.3, 1.0, 2.5):
            for sgn in (1.0, -1.0):
                x1 = rho * math.sin(sgn * math.pi / 3)
                x2 = rho * math.cos(sgn * math.pi / 3)
                assert abs(float(eval_profile(sc, x1, x2))) < 1e-15

    def test_parabola_value(self):
        assert float(eval_profile(axis_parabola(1.0), 2.0, 7.0)) == 4.0

    def test_zero_profile(self):
        z = zero_profile()
        assert np.all(eval_profile(z, np.linspace(0, 1, 5), np.linspace(-1, 1, 5)) == 0)

    def test_stokes_free_boundary_identity(self):
        # on the ray the squared gradient equals the height coordinate
        sc = stokes_corner()
        for rho in (0.25, 1.0, 4.0):
            x1 = rho * math.sin(math.pi / 3)
            x2 = rho * math.cos(math.pi / 3)
            g1, g2 = eval_profile_gradient(sc, x1, x2)
            assert abs(float(g1 * g1 + g2 * g2) - x2) < 1e-12
            assert math.hypot(float(g1), float(g2)) == pytest.approx(
                math.sqrt(2.0) / 2.0 * math.sqrt(rho), rel=1e-13
            )

    def test_physical_frame_coefficient(self):
        sc = stokes_corner(x1_circ=2.0, rho_bar0=1.5)
        assert sc.params["coeff"] == pytest.approx(math.sqrt(2.0) * 2.0 * 1.5 / 3.0, rel=1e-15)

    def test_outside_cone_is_zero(self):
        sc = stokes_corner()
        assert float(eval_profile(sc, 0.9, -0.5)) == 0.0
        gb = garabedian_bubble()
        assert float(eval_profile(gb, 0.3, 0.9)) == 0.0
        fo = flat_origin()
        assert float(eval_profile(fo, 0.5, -0.2)) == 0.0


class TestGradients:
    @pytest.mark.parametrize("spec", ALL_SPECS, ids=lambda s: s.kind)
    def test_gradient_matches_finite_differences(self, spec):
        rng = np.random.default_rng(11)
        for _ in range(12):
            x1, x2 = interior_point(spec, rng)
            d = 1e-6 * math.hypot(x1, x2)
            g1, g2 = eval_profile_gradient(spec, x1, x2)
            f1 = (float(eval_profile(spec, x1 + d, x2)) - float(eval_profile(spec, x1 - d, x2))) / (2 * d)
            f2 = (float(eval_profile(spec, x1, x2 + d)) - float(eval_profile(spec, x1, x2 - d))) / (2 * d)
            assert float(g1) == pytest.approx(f1, rel=1e-6, abs=1e-10)
            assert float(g2) == pytest.approx(f2, rel=1e-6, abs=1e-10)


class TestJointEvaluation:
    @pytest.mark.parametrize("spec", ALL_SPECS + [zero_profile()], ids=lambda s: s.kind)
    def test_bitwise_equal_to_separate_value_and_gradient(self, spec):
        # value and gradient from one pass equal the separate computations bit
        # for bit, in and out of the cones, on their edges and at the apex
        rng = np.random.default_rng(5)
        rho = np.concatenate(([0.0, 0.5, 1.0], rng.random(400)))
        th = np.concatenate(([0.0, np.pi / 3, np.pi - theta_star_constants().theta_star_rad],
                             np.pi * rng.random(400)))
        x1, x2 = rho * np.sin(th), rho * np.cos(th)
        u0 = profile_value_separate(spec, x1, x2)
        g0 = profile_gradient_separate(spec, x1, x2)
        u, g1, g2 = evaluate_profile(spec, x1, x2)
        assert u.tobytes() == u0.tobytes() == eval_profile(spec, x1, x2).tobytes()
        assert g1.tobytes() == g0[0].tobytes() and g2.tobytes() == g0[1].tobytes()
        assert all(a.tobytes() == b.tobytes() for a, b in zip(eval_profile_gradient(spec, x1, x2), g0))
        # through the field wrapper, with the apex moved off the origin
        p1, p2 = x1 + 0.5, x2 - 0.25
        u, g1, g2 = profile_field(spec, offset=(0.5, -0.25)).evaluate(p1, p2)
        assert u.tobytes() == profile_value_separate(spec, p1 - 0.5, p2 + 0.25).tobytes()
        e1, e2 = profile_gradient_separate(spec, p1 - 0.5, p2 + 0.25)
        assert g1.tobytes() == e1.tobytes() and g2.tobytes() == e2.tobytes()

    def test_pointed_bubble_sums_each_series_once(self, monkeypatch):
        from cornerflow import profiles

        field = profile_field(garabedian_bubble())
        calls = []
        for name in ("legendre_P_prime", "legendre_P_second"):
            fn = getattr(profiles, name)
            monkeypatch.setattr(profiles, name, lambda nu, s, fn=fn, name=name: calls.append(name) or fn(nu, s))
        x1, x2 = np.array([0.1, 0.2]), np.array([-0.3, -0.2])
        field.evaluate(x1, x2)
        assert calls == ["legendre_P_prime", "legendre_P_second"]


class TestHomogeneity:
    @pytest.mark.parametrize("spec", ALL_SPECS, ids=lambda s: s.kind)
    def test_scaling(self, spec):
        rng = np.random.default_rng(5)
        for _ in range(100):
            x1 = rng.uniform(-0.5, 1.0)
            x2 = rng.uniform(-1.0, 1.0)
            lam = 10.0 ** rng.uniform(-1.0, 1.0)
            u0 = float(eval_profile(spec, x1, x2))
            u1 = float(eval_profile(spec, lam * x1, lam * x2))
            assert u1 == pytest.approx(lam**spec.degree * u0, rel=1e-12, abs=1e-300)

    @pytest.mark.parametrize("spec", ALL_SPECS + [zero_profile()], ids=lambda s: s.kind)
    def test_value_and_gradient_scale_with_the_declared_degree(self, spec):
        # u(r x) = r^k u(x) and grad u(r x) = r^(k-1) grad u(x) for unit x: the
        # apex sweeps scale one unit-radius evaluation by the declared degree k.
        # Relative to the largest value over the directions, because a value
        # near a free boundary is ill-conditioned in its own size
        rng = np.random.default_rng(13)
        phi = rng.uniform(-np.pi, np.pi, 400)
        r = np.exp(rng.uniform(math.log(1e-3), math.log(10.0), 400))
        x1, x2 = np.cos(phi), np.sin(phi)
        unit = evaluate_profile(spec, x1, x2)
        scaled = evaluate_profile(spec, r * x1, r * x2)
        for got, want, k in zip(scaled, unit, (spec.degree, spec.degree - 1, spec.degree - 1)):
            assert np.all(np.abs(got - r**k * want) <= 1e-13 * r**k * np.max(np.abs(want)))


class TestPdeResiduals:
    def test_parabola_exact(self):
        # exact at the continuum; the bound is the FD roundoff floor
        for x in ((0.5, 0.6), (0.3, -0.5), (1.2, 0.1)):
            assert abs(profile_pde_residual(axis_parabola(2.0), x)) < 5e-9

    def test_flat_exact(self):
        for x in ((0.5, 0.6), (0.8, 0.3)):
            assert abs(profile_pde_residual(flat_origin(), x)) < 1e-9

    def test_stokes_harmonic(self):
        for x in ((0.3, 0.7), (0.1, 0.9)):
            assert abs(profile_pde_residual(stokes_corner(), x)) < 1e-8

    def test_garabedian_weighted_harmonic_and_order(self):
        gb = garabedian_bubble()
        x = (0.35, -0.55)
        scale = abs(float(eval_profile(gb, *x)))
        assert abs(profile_pde_residual(gb, x)) < 1e-6 * max(scale, 1.0)
        # observed 4th-order convergence of the residual stencil
        r_coarse = abs(profile_pde_residual(gb, x, h_fd=0.04))
        r_fine = abs(profile_pde_residual(gb, x, h_fd=0.02))
        assert r_coarse / max(r_fine, 1e-300) > 8.0

    def test_stencil_guard(self):
        with pytest.raises(StencilError):
            profile_pde_residual(stokes_corner(), (0.86, 0.5), h_fd=1e-2)  # on the ray
        with pytest.raises(StencilError):
            profile_pde_residual(flat_origin(), (0.5, 0.001))
        # the weighted operator's stencil reaches x1 = 0 within 2 h_fd of the axis
        with pytest.raises(StencilError, match="too close to the symmetry axis"):
            profile_pde_residual(garabedian_bubble(), (0.0015, -0.55))


class TestConstants:
    def test_density_constants_by_polar_quadrature(self):
        c = find_theta_star()
        vals = cone_density_constants()
        assert vals["stokes_cone_x2"] == pytest.approx(math.sqrt(3.0) / 3.0, abs=1e-8)
        assert vals["full_disk_x2"] == pytest.approx(2.0 / 3.0, abs=1e-8)
        assert vals["half_disk_x1"] == pytest.approx(2.0 / 3.0, abs=1e-8)
        assert vals["quarter_disk_x1x2"] == pytest.approx(0.125, abs=1e-8)
        assert vals["garabedian_cone_x1x2"] == pytest.approx(c.m0, abs=1e-8)

    def test_flat_profile_normalization(self):
        # closed-form arc integral of x1^3 (x2+)^2 over the unit half circle
        x, w = np.polynomial.legendre.leggauss(64)
        th = 0.25 * math.pi * (x + 1.0)  # quarter where x2 > 0, theta from +x2 axis
        arc = 0.25 * math.pi * np.dot(w, np.sin(th) ** 3 * np.cos(th) ** 2)
        assert arc == pytest.approx(2.0 / 15.0, abs=1e-12)
        beta = flat_origin().params["beta"]
        assert beta**2 == pytest.approx(7.5, rel=1e-14)
        assert beta**2 * arc == pytest.approx(1.0, abs=1e-10)

    def test_garabedian_normalization(self):
        # beta0 from the Legendre ODE, apart from the library's angular quadrature of
        # P'^2: its boundary terms vanish at s = 1 and at the root s* of P',
        # so int (1 - s^2) P'^2 ds = nu (nu + 1) int P^2 ds over [s*, 1]
        with mpmath.workdps(30):
            P = lambda s: mpmath.legenp(1.5, 0, s)
            s_star = mpmath.findroot(lambda s: mpmath.diff(P, s), -0.42)
            b0 = 1 / mpmath.sqrt(1.5 * 2.5 * mpmath.quad(lambda s: P(s) ** 2, [s_star, 1]))
        assert abs(garabedian_beta0() / float(b0) - 1.0) <= 1e-14  # measured 6.7e-16
        # weighted boundary norm of the actual profile equals 1
        gb = garabedian_bubble()
        x, w = np.polynomial.legendre.leggauss(96)
        c = theta_star_constants()
        a, b = math.pi - c.theta_star_rad, math.pi
        th = 0.5 * (b - a) * x + 0.5 * (a + b)
        x1 = np.sin(th)
        x2 = np.cos(th)
        u = eval_profile(gb, x1, x2)
        norm_sq = 0.5 * (b - a) * np.dot(w, u * u / x1)
        assert norm_sq == pytest.approx(1.0, abs=1e-10)


class TestFieldWrapper:
    def test_offset_and_rays(self):
        fld = profile_field(stokes_corner(), offset=(1.0, 0.0))
        assert fld.apex == (1.0, 0.0)
        assert len(fld.rays_phi) == 2
        assert float(fld.value(1.0, 0.5)) == pytest.approx(
            float(eval_profile(stokes_corner(), 0.0, 0.5)), rel=1e-14
        )

    def test_ray_angles(self):
        assert profile_rays_phi(stokes_corner()) == (np.pi / 6.0, 5.0 * np.pi / 6.0)
        assert profile_rays_phi(axis_parabola(1.0)) == ()

    def test_validation(self):
        with pytest.raises(DomainError):
            axis_parabola(-1.0)
        with pytest.raises(DomainError):
            flat_origin(beta=0.0)
