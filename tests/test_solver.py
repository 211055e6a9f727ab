import json
import math
import os
import subprocess
import sys
from collections import Counter

import numpy as np
import pytest

from cornerflow import eos, functionals, solver
from cornerflow.eos import GammaLawMedium, IncompressibleMedium
from cornerflow.errors import DomainError, GeometryError, StateError
from cornerflow.fields import GridField
from cornerflow.functionals import domain_variation_residual, first_variation_terms
from cornerflow.profiles import flat_origin, profile_field, stokes_corner
from cornerflow.solver import (
    MinimizeConfig,
    _Discretization,
    axis_compatibility_residual,
    minimize_EF,
)

from conftest import analytic_field, bump_phi, gaussian_field


def _zero_boundary(X1, X2):
    return np.zeros_like(X1)


class TestMinimize:
    def test_zero_data_gives_zero(self, incompressible):
        cfg = MinimizeConfig(0.75, 1.25, -0.25, 0.25, 1 / 32, _zero_boundary,
                             medium=incompressible, max_iter=50)
        fld, log = minimize_EF(cfg)
        assert log.converged
        assert np.max(np.abs(fld.values)) == 0.0
        assert _Discretization(cfg).state(fld.values)[0] == 0.0

    def test_stokes_trace_recovers_profile(self, incompressible):
        stokes = profile_field(stokes_corner(x1_circ=1.0), offset=(1.0, 0.0))
        h = 1 / 128
        cfg = MinimizeConfig(0.75, 1.25, -0.25, 0.25, h, stokes.value,
                             medium=incompressible, max_iter=20000)
        fld, log = minimize_EF(cfg)
        assert log.converged
        disc = _Discretization(cfg)
        e_min = disc.state(fld.values)[0]
        e_prof = disc.state(np.asarray(stokes.value(disc.X1, disc.X2)))[0]
        # the discrete minimizer cannot lie above the sampled profile
        assert e_min <= e_prof + 1e-12
        l2 = math.sqrt(float(np.mean((fld.values - stokes.value(disc.X1, disc.X2)) ** 2)))
        assert l2 < 2.0 * (h + cfg.eps_chi)
        # energy decreased monotonically along accepted iterates
        energies = [E for (_, E, _, _) in log.iterations]
        assert all(b <= a + 1e-15 for a, b in zip(energies, energies[1:]))
        # projection-enforced constraints hold exactly
        assert np.min(fld.values) >= 0.0

    def test_flat_trace_fills_upper_half(self, incompressible):
        flat = profile_field(flat_origin())
        h = 1 / 64
        cfg = MinimizeConfig(0.0, 0.5, -0.25, 0.25, h, flat.value,
                             medium=incompressible, max_iter=20000)
        fld, log = minimize_EF(cfg)
        X1, X2 = np.meshgrid(fld.cell_x1, fld.cell_x2, indexing="ij")
        chi = fld.chi(fld.values)
        above = X2 > 2 * h
        interior = (X1 > 2 * h) & (X1 < 0.5 - 2 * h) & (np.abs(X2) < 0.25 - 2 * h)
        assert np.all(chi[above & interior])
        # energy-comparison oracle: the discrete minimizer beats the profile
        disc = _Discretization(cfg)
        assert disc.state(fld.values)[0] <= disc.state(
            np.asarray(flat.value(disc.X1, disc.X2))
        )[0] + 1e-12

    def test_axis_compatibility_reported(self, incompressible):
        # the flat profile satisfies the axis condition ((1/x1) d2 u -> 0)
        flat = profile_field(flat_origin())
        grid = flat.resample(0.0, 0.5, 0.0, 0.5, 1 / 64)
        assert axis_compatibility_residual(grid) < 0.1
        off = flat.resample(0.25, 0.5, 0.0, 0.5, 1 / 64)
        with pytest.raises(DomainError):
            axis_compatibility_residual(off)

    def test_compressible_run(self, model_g2):
        med = GammaLawMedium(model_g2)
        flat = profile_field(flat_origin(beta=0.3))
        cfg = MinimizeConfig(0.0, 0.25, 0.0, 0.25, 1 / 64, flat.value,
                             medium=med, max_iter=5000)
        fld, log = minimize_EF(cfg)
        assert log.converged and log.iterations[-1][3] <= cfg.tol
        assert np.min(fld.values) >= 0.0

    def test_one_inversion_per_trial_energy(self, model_g2, monkeypatch):
        # test_compressible_run's box at h = 1/64 and 1/128 (26 + 36 energy
        # evaluations over 5 + 7 cycles): each energy evaluation inverts its
        # state once, and the gradient reuses the accepted trial's state
        states = []  # (node-set bytes, any flag) of every lattice inversion
        in_gradient = [False]
        inverted_in_gradient = []
        energies = []
        invert, gradient, chi = eos.invert_many, _Discretization.gradient, solver._smoothed_chi

        def counting_invert(model, t, s, *args, **kwargs):
            out = invert(model, t, s, *args, **kwargs)
            if np.ndim(t) == 2:
                states.append((np.asarray(t).tobytes(), bool(np.any(out[3]))))
            if in_gradient[0]:
                inverted_in_gradient.append(np.size(t))
            return out

        def flagged_gradient(self, *args, **kwargs):
            in_gradient[0] = True
            try:
                return gradient(self, *args, **kwargs)
            finally:
                in_gradient[0] = False

        def counting_chi(v, eps):
            energies.append(1)  # once per energy evaluation that reaches the sum
            return chi(v, eps)

        monkeypatch.setattr(eos, "invert_many", counting_invert)
        # a solver-side check through a direct import is counted too
        monkeypatch.setattr(solver, "invert_many", counting_invert, raising=False)
        monkeypatch.setattr(_Discretization, "gradient", flagged_gradient)
        monkeypatch.setattr(solver, "_smoothed_chi", counting_chi)
        flat = profile_field(flat_origin(beta=0.3))
        logs = [minimize_EF(MinimizeConfig(0.0, 0.25, 0.0, 0.25, h, flat.value,
                                           medium=GammaLawMedium(model_g2), max_iter=5000))[1]
                for h in (1 / 64, 1 / 128)]
        assert all(log.converged for log in logs) and len(energies) >= 40
        assert inverted_in_gradient == []
        assert sum(not flagged for _, flagged in states) == len(energies)
        assert len({key for key, _ in states}) == len(states)  # no state inverted twice

    def test_subsonicity_abort(self, model_g2):
        med = GammaLawMedium(model_g2)

        def wild(X1, X2):
            return 5.0 * X1  # |grad u|^2/x1^2 = 25, far beyond sonic

        cfg = MinimizeConfig(0.5, 1.0, 0.0, 0.5, 1 / 32, wild, medium=med, max_iter=10)
        with pytest.raises(StateError, match=r"^subsonicity violated at cell \(0, 0\), "
                                             r"x = \(0\.515625, 0\.015625\)$"):
            minimize_EF(cfg)

    def test_supersonic_trials_are_damped_until_the_run_stagnates(self, monkeypatch):
        # states turn supersonic after the first 3: the initial state and the two
        # sweeps of cycle 0 pass, every damped trial of the coarse step fails, so
        # the step is rejected, and so do those of the next sweep, which stagnates
        class TurnsSupersonic(IncompressibleMedium):
            calls = 0

            def thermo(self, t, s):
                self.calls += 1
                if self.calls > 3:
                    raise StateError("no subsonic density", index=0)
                return super().thermo(t, s)

        steps = []
        coarse_step = solver._coarse_step

        def recorded(*args):
            out = coarse_step(*args)
            steps.append(out[3])
            return out

        monkeypatch.setattr(solver, "_coarse_step", recorded)
        medium = TurnsSupersonic(1.0)
        flat = profile_field(flat_origin())
        cfg = MinimizeConfig(0.0, 0.25, 0.0, 0.25, 1 / 32, flat.value, medium=medium, max_iter=10)
        fld, log = minimize_EF(cfg)
        assert steps == [0.0]
        assert medium.calls == 3 + 2 * solver.HALVINGS  # the coarse step's trials, then the sweep's
        assert log.stagnated and not log.converged and log.iterations == []
        assert log.message == "no PGS sweep lowers the energy in cycle 0"
        assert np.min(fld.values) >= 0.0

    def test_negative_boundary_rejected(self, incompressible):
        cfg = MinimizeConfig(0.5, 1.0, 0.0, 0.5, 1 / 32,
                             lambda X1, X2: X2 - 0.25, medium=incompressible)
        with pytest.raises(DomainError):
            minimize_EF(cfg)

    def test_box_left_of_the_axis_rejected(self, incompressible):
        # the lattice lies in x1 >= 0: one across the axis used to be solved as if it did
        with pytest.raises(DomainError, match=r"x1 >= 0, got x1_min = -0.25$"):
            MinimizeConfig(-0.25, 0.25, 0.0, 0.25, 1 / 32, _zero_boundary, medium=incompressible)

    def test_smoothing_width_validation(self, incompressible):
        with pytest.raises(DomainError):
            MinimizeConfig(0.5, 1.0, 0.0, 0.5, 1 / 32, _zero_boundary,
                           medium=incompressible, eps_chi=-1.0)

    def test_smoothed_energy_below_sharp(self, incompressible):
        # on a fixed field, halving eps_chi moves the smoothed energy up
        # towards the sharp functional value from below
        stokes = profile_field(stokes_corner(x1_circ=1.0), offset=(1.0, 0.0))
        h = 1 / 64
        vals = []
        for k in (4.0, 2.0, 1.0):
            cfg = MinimizeConfig(0.75, 1.25, -0.25, 0.25, h, stokes.value,
                                 medium=incompressible, eps_chi=k * h)
            disc = _Discretization(cfg)
            vals.append(disc.state(np.asarray(stokes.value(disc.X1, disc.X2)))[0])
        cfg_sharp = MinimizeConfig(0.75, 1.25, -0.25, 0.25, h, stokes.value,
                                   medium=incompressible, eps_chi=1e-14)
        disc_sharp = _Discretization(cfg_sharp)
        sharp = disc_sharp.state(np.asarray(stokes.value(disc_sharp.X1, disc_sharp.X2)))[0]
        assert vals[0] <= vals[1] <= vals[2] <= sharp + 1e-12


class TestJacobiDescent:
    """Guards set by the Jacobi-scaled descent, now held by multigrid cycles."""

    @staticmethod
    def _flat_g2(model, h, **kwargs):
        flat = profile_field(flat_origin(beta=0.3))
        return MinimizeConfig(0.0, 0.25, 0.0, 0.25, h, flat.value,
                              medium=GammaLawMedium(model), **kwargs)

    def test_minimize_gamma2_iterations_and_energy(self, model_g2):
        # minimize-gamma2's config: 197 plain gradient iterations, 81 Jacobi
        # iterations, 4 multigrid cycles
        _, log = minimize_EF(self._flat_g2(model_g2, 1 / 32))
        assert log.converged and len(log.iterations) <= 90
        assert abs(log.iterations[-1][1] - 5.628654813553062e-05) <= 1e-8 * 5.628654813553062e-05

    def test_fine_grid_iterations(self, model_g2):
        # h = 1/64: 1,676 plain gradient iterations, 335 Jacobi iterations,
        # 8 multigrid cycles
        _, log = minimize_EF(self._flat_g2(model_g2, 1 / 64, max_iter=5000))
        assert log.converged and len(log.iterations) <= 400

    @pytest.mark.parametrize("eps_scale", [1.0, 0.25])
    def test_steps_capped_and_energy_monotone(self, model_g2, eps_scale):
        # eps_chi at its default 2h and at h/2: the cycles stay under the
        # h = 1/32 cap, every coarse correction is accepted (a rejected one
        # logs step 0) and no cycle raises the energy
        h = 1 / 32
        cfg = self._flat_g2(model_g2, h, eps_chi=eps_scale * 2 * h)
        _, log = minimize_EF(cfg)
        assert log.converged and len(log.iterations) <= 90
        assert all(0.0 < step < math.inf for (_, _, step, _) in log.iterations)
        energies = [E for (_, E, _, _) in log.iterations]
        assert all(b <= a for a, b in zip(energies, energies[1:]))

    def test_lab_minimize_energy_not_above_gradient_descent(self, incompressible):
        # the lab's minimize step: plain gradient descent stopped at
        # 0.019340606887, Jacobi descent at 0.019334581436; the PGS fixed
        # point is 0.0193239015083915
        stokes = profile_field(stokes_corner(x1_circ=1.0), offset=(1.0, 0.0))
        cfg = MinimizeConfig(0.75, 1.25, -0.25, 0.25, 1 / 128, stokes.value,
                             medium=incompressible)
        _, log = minimize_EF(cfg)
        assert log.converged and log.iterations[-1][3] <= cfg.tol
        assert log.iterations[-1][1] <= 0.0193239015083916


class TestFrozenQuadratic:
    """Oracles for the frozen-coefficient quadratic behind the gradient and PGS."""

    @staticmethod
    def _trace(setup, model, eps_chi=None):
        """The lattice and the boundary data sampled on it (h = 1/32)."""
        if setup == "stokes":
            fld = profile_field(stokes_corner(x1_circ=1.0), offset=(1.0, 0.0))
            cfg = MinimizeConfig(0.75, 1.25, -0.25, 0.25, 1 / 32, fld.value,
                                 medium=IncompressibleMedium(1.0), eps_chi=eps_chi)
        else:
            fld = profile_field(flat_origin(beta=0.3))
            cfg = MinimizeConfig(0.0, 0.25, 0.0, 0.25, 1 / 32, fld.value,
                                 medium=GammaLawMedium(model))
        disc = _Discretization(cfg)
        return disc, np.maximum(np.asarray(fld.value(disc.X1, disc.X2), dtype=float), 0.0)

    @pytest.mark.parametrize("setup", ["stokes", "flat_gamma2"])
    def test_gradient_matches_central_differences(self, model_g2, setup):
        disc, v = self._trace(setup, model_g2)
        _, H = disc.state(v)
        g = disc.gradient(v, solver._coefficients(disc, H))
        d, eps = 1e-7, disc.cfg.eps_chi
        # interior cells off the indicator's kinks at 0 and eps_chi
        cells = np.zeros_like(v, dtype=bool)
        cells[1:-1, 1:-1] = True
        cells &= (v > 2 * d) & (np.abs(v - eps) > 2 * d)
        assert np.count_nonzero(cells) >= 30
        err = 0.0
        for i, j in zip(*np.nonzero(cells)):
            up, down = v.copy(), v.copy()
            up[i, j] += d
            down[i, j] -= d
            fd = (disc.state(up)[0] - disc.state(down)[0]) / (2 * d)
            err = max(err, abs(fd - g[i, j]))
        assert err <= 1e-6 * np.max(np.abs(g[cells]))

    # the default band holds every cell; criterion 7's eps_chi = 2h^2 puts
    # cells above it and at zero too
    @pytest.mark.parametrize("eps_chi", [None, 2 / 32**2])
    def test_pgs_descends_to_cellwise_minima(self, eps_chi):
        disc, v = self._trace("stokes", None, eps_chi)
        E, H = disc.state(v)
        for _ in range(20):
            v = solver._pgs_sweep(disc, v, H)
            E_next, H = disc.state(v)
            assert E_next <= E + 1e-15
            E = E_next
        v = solver._pgs_sweep(disc, v, H)
        E = disc.state(v)[0]
        # the sweep's second color (odd i + j) is updated last, so each of
        # its interior cells minimizes the energy with all others fixed
        I, J = np.meshgrid(np.arange(disc.n1), np.arange(disc.n2), indexing="ij")
        second = ((I + J) % 2 == 1) & (I > 0) & (I < disc.n1 - 1) & (J > 0) & (J < disc.n2 - 1)
        for i, j in zip(*np.nonzero(second)):
            for d in (1e-6, -1e-6):
                w = v.copy()
                w[i, j] = max(v[i, j] + d, 0.0)
                assert disc.state(w)[0] >= E


class TestMultigrid:
    """Oracles for the coarse levels and the accepted steps of the cycles."""

    @staticmethod
    def _dense(wE, wN, A):
        """The 5-point stencil (wE, wN, A) as a dense symmetric matrix."""
        n1, n2 = A.shape
        L = np.diag(A.ravel())
        idx = np.arange(n1 * n2).reshape(n1, n2)
        for w, p, q in ((wE[:-1], idx[:-1], idx[1:]), (wN[:, :-1], idx[:, :-1], idx[:, 1:])):
            L[p.ravel(), q.ravel()] -= w.ravel()
            L[q.ravel(), p.ravel()] -= w.ravel()
        return L

    @pytest.mark.parametrize("shape", [(8, 8), (7, 5)])
    def test_coarse_operator_is_galerkin_product(self, shape):
        rng = np.random.default_rng(3)
        n1, n2 = shape
        wE, wN = rng.uniform(0.5, 2.0, shape), rng.uniform(0.5, 2.0, shape)
        wE[-1], wN[:, -1] = 0.0, 0.0
        A = wE + wN + rng.uniform(0.0, 1.0, shape)
        A[1:] += wE[:-1]
        A[:, 1:] += wN[:, :-1]
        free = rng.random(shape) < 0.7
        coarse = solver._coarsen(solver._hierarchy((wE, wN, A), free)[0])
        # P: each free cell takes its 2x2 aggregate's value, a held cell 0
        agg = (np.arange(n1)[:, None] // 2) * ((n2 + 1) // 2) + np.arange(n2)[None, :] // 2
        P = np.zeros((n1 * n2, coarse[2].size))
        P[np.arange(n1 * n2), agg.ravel()] = free.ravel()
        L = self._dense(wE, wN, A)
        L[~free.ravel()] = 0.0
        L[:, ~free.ravel()] = 0.0
        np.testing.assert_allclose(self._dense(*coarse[:3]), P.T @ L @ P, rtol=1e-14, atol=1e-14)

    def test_vcycle_solves_the_truncated_system(self, incompressible):
        stokes = profile_field(stokes_corner(x1_circ=1.0), offset=(1.0, 0.0))
        cfg = MinimizeConfig(0.75, 1.25, -0.25, 0.25, 1 / 64, stokes.value, medium=incompressible)
        disc = _Discretization(cfg)
        v = np.maximum(np.asarray(stokes.value(disc.X1, disc.X2)), 0.0)
        coef = solver._coefficients(disc, disc.state(v)[1])
        free = disc.interior & (v > 0.0)
        levels = solver._hierarchy(coef, free)
        r = np.where(free, np.random.default_rng(5).standard_normal(v.shape), 0.0)
        L = self._dense(*levels[0][:3])[np.ix_(free.ravel(), free.ravel())]
        exact = np.linalg.solve(L, r[free])
        c = np.zeros_like(r)
        errors = []
        for _ in range(30):
            c = c + solver._vcycle(levels, 0, r - solver._apply(c, *levels[0][:3]))
            errors.append(np.max(np.abs(c[free] - exact)))
        assert np.all(c[~free] == 0.0)
        assert errors[-1] <= 1e-10 * np.max(np.abs(exact))
        assert errors[5] <= 0.1 * errors[0]  # one cycle contracts the error

    def test_damped_step_never_uphill_or_supersonic(self, model_g2):
        flat = profile_field(flat_origin(beta=0.3))
        cfg = MinimizeConfig(0.0, 0.25, 0.0, 0.25, 1 / 32, flat.value, medium=GammaLawMedium(model_g2))
        disc = _Discretization(cfg)
        v = np.maximum(np.asarray(flat.value(disc.X1, disc.X2)), 0.0)
        E, H = disc.state(v)
        d = 32.0 * (solver._pgs_sweep(disc, v, H) - v)
        with pytest.raises(StateError):
            disc.state(v + d)  # the full step leaves the subsonic set
        assert disc.state(v + d / 2)[0] > E  # and half of it goes uphill
        w, E_w, H_w, factor = solver._descend(disc, v, E, H, d)
        assert factor < 0.5 and E_w < E
        np.testing.assert_array_equal(w, np.maximum(v + factor * d, 0.0))
        E_ref, H_ref = disc.state(w)
        assert (E_w, H_w.tobytes()) == (E_ref, H_ref.tobytes())

    @pytest.mark.parametrize("n", [64, 128])
    def test_criterion_7_runs_certified(self, incompressible, n):
        # criterion 7's solver runs (eps_chi = 2h^2) end on the certificate
        # with energies that never rise
        stokes = profile_field(stokes_corner(x1_circ=1.0), offset=(1.0, 0.0))
        h = 0.5 / n
        cfg = MinimizeConfig(0.75, 1.25, -0.25, 0.25, h, stokes.value, medium=incompressible,
                             max_iter=1500, tol=1e-12, eps_chi=2 * h * h)
        _, log = minimize_EF(cfg)
        assert log.converged and log.iterations[-1][3] <= cfg.tol
        energies = [E for (_, E, _, _) in log.iterations]
        assert all(b <= a + 1e-15 for a, b in zip(energies, energies[1:]))


class TestCoarseSolve:
    """The coarse system's solve: exact on the coarsest level, flexible CG over V-cycles."""

    @staticmethod
    def _stencil(shape, seed=3):
        """A random 5-point stencil with positive weights and a random free set."""
        rng = np.random.default_rng(seed)
        wE, wN = rng.uniform(0.5, 2.0, shape), rng.uniform(0.5, 2.0, shape)
        wE[-1], wN[:, -1] = 0.0, 0.0
        A = wE + wN + rng.uniform(0.0, 1.0, shape)
        A[1:] += wE[:-1]
        A[:, 1:] += wN[:, :-1]
        return (wE, wN, A), rng.random(shape) < 0.7

    @pytest.mark.parametrize("shape, sizes", [((8, 8), [64]), ((9, 8), [72, 20]),
                                              ((33, 17), [561, 153, 45]),
                                              ((64, 64), [4096, 1024, 256, 64])])
    def test_hierarchy_stops_at_the_first_small_level(self, shape, sizes):
        coef, free = self._stencil(shape)
        levels = solver._hierarchy(coef, free)
        assert [lv.A.size for lv in levels] == sizes

    @pytest.mark.parametrize("shape", [(8, 8), (7, 5)])
    def test_coarsest_level_solved_exactly(self, shape):
        coef, free = self._stencil(shape)
        levels = solver._hierarchy(coef, free)
        assert len(levels) == 1
        r = np.where(free, np.random.default_rng(5).standard_normal(shape), 0.0)
        c = solver._vcycle(levels, 0, r)
        L = TestMultigrid._dense(*levels[0][:3])[np.ix_(free.ravel(), free.ravel())]
        np.testing.assert_allclose(c[free], np.linalg.solve(L, r[free]), rtol=1e-12, atol=0.0)
        assert np.all(c[~free] == 0.0)
        assert solver._vcycle(levels, 0, r).tobytes() == c.tobytes()  # a rerun repeats it

    def test_coarsest_operator_built_once_per_hierarchy(self, incompressible, monkeypatch):
        # every V-cycle of one coarse step reads the dense operator its hierarchy built
        calls = Counter()
        for name in ("_hierarchy", "_dense_operator", "_dense_solve"):
            fn = getattr(solver, name)
            monkeypatch.setattr(solver, name, lambda *a, fn=fn, name=name: calls.update([name]) or fn(*a))
        stokes = profile_field(stokes_corner(x1_circ=1.0), offset=(1.0, 0.0))
        minimize_EF(MinimizeConfig(0.75, 1.25, -0.25, 0.25, 1 / 128, stokes.value, medium=incompressible))
        assert 0 < calls["_dense_operator"] == calls["_hierarchy"] < calls["_dense_solve"]

    def test_cycles_on_minimize_gamma2(self, model_g2):
        # one level on its 8 x 8 lattice: the coarse step is the frozen
        # quadratic's exact Newton step (4 cycles with a 1 x 1 coarsest level)
        _, log = minimize_EF(TestJacobiDescent._flat_g2(model_g2, 1 / 32))
        assert log.converged and len(log.iterations) <= 3

    def test_cycles_on_the_lab_box(self, incompressible):
        # 12 cycles at 64^2 (25 with a 1 x 1 coarsest level and one V-cycle)
        stokes = profile_field(stokes_corner(x1_circ=1.0), offset=(1.0, 0.0))
        cfg = MinimizeConfig(0.75, 1.25, -0.25, 0.25, 1 / 128, stokes.value, medium=incompressible)
        _, log = minimize_EF(cfg)
        assert log.converged and len(log.iterations) <= 14

    @pytest.mark.parametrize("h", [1 / 64, 1 / 128])
    def test_cycles_on_the_flat_gamma2_box(self, model_g2, h):
        # 5 and 7 cycles (8 and 14 with a 1 x 1 coarsest level and one V-cycle)
        _, log = minimize_EF(TestJacobiDescent._flat_g2(model_g2, h, max_iter=5000))
        assert log.converged and len(log.iterations) <= 8


# the validator's box about the Stokes profile's apex (1, 0)
STOKES_BOX = (0.5, 1.5, -0.5, 0.5)


class TestFirstVariation:
    def test_zero_vector_field(self, incompressible):
        stokes = profile_field(stokes_corner(x1_circ=1.0), offset=(1.0, 0.0))
        zero_phi = lambda a, b: (np.zeros_like(a), np.zeros_like(a))
        zero_dphi = lambda a, b: (np.zeros_like(a),) * 4
        t = first_variation_terms(stokes, incompressible, zero_phi, zero_dphi, (*STOKES_BOX, 1 / 64))
        assert t["total"] == 0.0

    def test_lattice_step_must_divide_the_box(self, incompressible):
        # the lattice is GridField.lattice's: cell centers of a box that h divides
        stokes = profile_field(stokes_corner(x1_circ=1.0), offset=(1.0, 0.0))
        phi, dphi = bump_phi(1.0, 0.05, 0.25)
        with pytest.raises(DomainError, match="integer multiples of h"):
            first_variation_terms(stokes, incompressible, phi, dphi, (*STOKES_BOX, 0.3))
        with pytest.raises(DomainError, match="integer multiples of h"):
            functionals.flow_energy(stokes, incompressible, phi, 1e-4, dphi, (*STOKES_BOX, 0.3))

    def test_phi_leaving_the_field_is_a_geometry_error(self, incompressible):
        box = (0.5, 1.5, -0.5, 0.5, 1 / 16)
        fld = GridField.from_function(lambda X1, X2: X1 * X1, *box)
        shift = lambda a, b: (np.ones_like(a), np.zeros_like(a))
        zero_dphi = lambda a, b: (np.zeros_like(a),) * 4
        with pytest.raises(GeometryError, match=r"^phi transports lattice points outside the field$"):
            functionals.flow_energy(fld, incompressible, shift, 1.0, zero_dphi, box)

    def test_agreement_on_random_fields(self, incompressible, gamma_medium):
        rng = np.random.default_rng(7)
        box = (0.8, 1.8, 0.2, 1.2)
        for i in range(3):
            fld = gaussian_field(rng, box)
            phi, dphi = bump_phi(1.3 + 0.03 * i, 0.7, 0.3, a1=0.1 + 0.02 * i, a2=0.5)
            med = gamma_medium if i == 1 else incompressible
            out = domain_variation_residual(fld, med, phi, dphi, (*box, 1 / 256), eps=1e-4)
            assert abs(out["mismatch"]) < 1e-4
            assert abs(out["analytic_total"]) > 1e-5  # a nontrivial variation

    def test_exact_profile_residual_order(self, incompressible):
        stokes = profile_field(stokes_corner(x1_circ=1.0), offset=(1.0, 0.0))
        phi, dphi = bump_phi(1.0, 0.05, 0.25)
        res = {}
        for h in (1 / 128, 1 / 256):
            res[h] = abs(first_variation_terms(stokes, incompressible, phi, dphi, (*STOKES_BOX, h))["total"])
        assert res[1 / 256] < res[1 / 128]
        assert res[1 / 256] < 1e-4  # reported C = residual/h stays near 0.013

    @pytest.fixture(scope="class")
    def lab_minimizers(self, incompressible):
        """Criterion 7's certified minimizers: Stokes data on the lab box, eps_chi = 2h^2, tol 1e-12."""
        stokes = profile_field(stokes_corner(x1_circ=1.0), offset=(1.0, 0.0))
        out = {}
        for h in (1 / 128, 1 / 256):
            cfg = MinimizeConfig(0.75, 1.25, -0.25, 0.25, h, stokes.value, medium=incompressible,
                                 tol=1e-12, eps_chi=2 * h * h)
            out[h], log = minimize_EF(cfg)
            assert log.converged
        return out

    @pytest.mark.parametrize("bump", [(1.0, 0.05, 0.1), (1.0, 0.0, 0.15)])
    def test_minimizer_total_falls_with_h(self, incompressible, lab_minimizers, bump):
        # at each lattice's own h the total falls by 2.81 and 2.73 from h = 1/128 to 1/256,
        # about h^1.5; a bump at (1.05, 0.12) of width 0.1 stalls at 1.32, cause unknown
        phi, dphi = bump_phi(*bump)
        total = {h: abs(first_variation_terms(fld, incompressible, phi, dphi,
                                              (0.75, 1.25, -0.25, 0.25, h))["total"])
                 for h, fld in lab_minimizers.items()}
        assert total[1 / 128] / total[1 / 256] > 2.4

    def test_non_minimizer_agrees_but_not_small(self, incompressible):
        # profile plus an interior bump: the variation formula must match
        # the flow derivative while being far from zero
        stokes = profile_field(stokes_corner(x1_circ=1.0), offset=(1.0, 0.0))

        def fn(x1, x2):
            z1 = np.clip((x1 - 1.0) / 0.1, -1, 1)
            z2 = np.clip((x2 - 0.12) / 0.06, -1, 1)
            lump = np.where((np.abs(z1) < 1) & (np.abs(z2) < 1),
                            (1 - z1 * z1) ** 3 * (1 - z2 * z2) ** 3, 0.0)
            return stokes.value(x1, x2) + 0.02 * lump

        def grad(x1, x2, d=2e-7):
            return ((fn(x1 + d, x2) - fn(x1 - d, x2)) / (2 * d),
                    (fn(x1, x2 + d) - fn(x1, x2 - d)) / (2 * d))

        pert = analytic_field(fn, grad, apex=(1.0, 0.0))
        phi, dphi = bump_phi(1.0, 0.12, 0.06, a1=0.05, a2=0.3)
        out = domain_variation_residual(pert, incompressible, phi, dphi, (*STOKES_BOX, 1 / 256), eps=1e-4)
        assert abs(out["analytic_total"]) > 1e-4
        assert abs(out["mismatch"]) < 1e-4 * max(1.0, abs(out["analytic_total"]))


def test_import_loads_neither_functionals_nor_quadrature():
    # the minimizer stands alone: the first-variation validator lives in functionals
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    code = ("import json, sys, cornerflow.solver\n"
            "print(json.dumps(sorted({'cornerflow.functionals', 'cornerflow.quadrature'} & set(sys.modules))))")
    out = subprocess.run([sys.executable, "-c", code], env=dict(os.environ, PYTHONPATH=src),
                         capture_output=True, text=True, check=True)
    assert json.loads(out.stdout) == []
