import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cornerflow.errors import DomainError, FrequencyUndefinedError, GeometryError
from cornerflow.fields import AnalyticField, GridField, half_ball
from cornerflow.functionals import (
    default_radii,
    delta_radius,
    energy_identity_residual,
    frequency_quantities,
    monotonicity_derivative_check,
    monotonicity_record,
    point_kind,
    pohozaev_residual,
    radial_sweep,
)
from cornerflow.profiles import (
    axis_parabola,
    flat_origin,
    garabedian_bubble,
    profile_field,
    stokes_corner,
    theta_star_constants,
)
from cornerflow.quadrature import N_ARC, arc_nodes, grid_balls

import oracles
from conftest import analytic_field, perturbed_flat_field
from oracles import pohozaev_per_kind, record_per_kind, record_two_sets

SQRT3_3 = math.sqrt(3.0) / 3.0


@pytest.fixture(scope="module")
def stokes_field():
    return profile_field(stokes_corner(x1_circ=1.0), offset=(1.0, 0.0))


@pytest.fixture(scope="module")
def parabola_field():
    return profile_field(axis_parabola(0.7))


@pytest.fixture(scope="module")
def garabedian_field():
    return profile_field(garabedian_bubble())


@pytest.fixture(scope="module")
def flat_field():
    return profile_field(flat_origin())


def _bits(d):
    """The items of a dict of floats, each value as its 8 bytes."""
    return [(key, np.float64(val).tobytes()) for key, val in d.items()]


class TestEnergies:
    def test_zero_field_has_zero_energy(self, incompressible):
        f = GridField.from_function(lambda X1, X2: 0.0 * X1, 0.0, 1.0, -0.5, 0.5, 1 / 64)
        # r = 0.2: the record admits radii below delta = 0.25 at this center
        assert monotonicity_record(f, incompressible, (0.5, 0.0), 0.2)["E_F"] == 0.0

    def test_incompressible_EF_equals_EH(self, stokes_field, incompressible):
        rec = monotonicity_record(stokes_field, incompressible, (1.0, 0.0), 0.2)
        assert rec["E_F"] == pytest.approx(rec["E_H"], rel=1e-12)

    def test_EH_minus_EF_is_K1_same_nodes(self, stokes_field, gamma_medium):
        # algebraic identity on shared quadrature nodes (compressible)
        rec = monotonicity_record(stokes_field, gamma_medium, (1.0, 0.0), 0.1)
        assert rec["k1"] == pytest.approx(rec["E_H"] - rec["E_F"], abs=1e-15)
        scale = abs(rec["E_H"]) + abs(rec["E_F"])
        assert abs((rec["E_H"] - rec["E_F"]) - rec["k1"]) <= 1e-12 * max(scale, 1.0)


    def test_record_inverts_each_node_set_once(self, stokes_field, gamma_medium, monkeypatch):
        # the ball and arc nodes are evaluated together: H, F and dF2 come
        # from one inversion, and lambda on the positivity set from none
        from cornerflow import eos

        node_sets = []
        invert = eos.invert_many

        def counting_invert(model, t, s, *args, **kwargs):
            node_sets.append((np.asarray(t, float).tobytes(), np.asarray(s, float).tobytes()))
            return invert(model, t, s, *args, **kwargs)

        monkeypatch.setattr(eos, "invert_many", counting_invert)
        monotonicity_record(stokes_field, gamma_medium, (1.0, 0.0), 0.1)
        assert len(node_sets) == 1


class TestOneEvaluationPerRadius:
    # (profile, apex, center, radius, kind, grid box or None for the analytic field)
    CASES = [
        (stokes_corner(x1_circ=1.0), (1.0, 0.0), (1.0, 0.0), 0.1, "stagnation", (0.75, 1.25, -0.25, 0.25)),
        (stokes_corner(x1_circ=1.0), (1.0, 0.0), (1.0, 0.0), 0.1, "stagnation", None),
        (axis_parabola(0.7), (0.0, 0.0), (0.0, 0.5), 0.2, "axis", (0.0, 0.5, 0.0, 1.0)),
        (axis_parabola(0.7), (0.0, 0.0), (0.0, 0.5), 0.2, "axis", None),
        (garabedian_bubble(), (0.0, 0.0), (0.0, 0.0), 0.2, "origin", (0.0, 0.5, -0.5, 0.5)),
        (garabedian_bubble(), (0.0, 0.0), (0.0, 0.0), 0.2, "origin", None),
    ]

    @pytest.mark.parametrize("spec, apex, center, r, kind, box", CASES,
                             ids=[f"{c[4]}-{'grid' if c[5] else 'analytic'}" for c in CASES])
    def test_record_bitwise_equals_two_set_evaluation(self, spec, apex, center, r, kind, box,
                                                        incompressible, gamma_medium, monkeypatch):
        # every entry of the record is bit for bit as the ball and arc nodes
        # evaluated apart give it, whether the record evaluates them as one set
        # (analytic fields) or its grid cells and arc apart
        fld = profile_field(spec, offset=apex)
        if box is not None:
            fld = fld.resample(*box, 1 / 64)
        else:
            # at the apex a field with a degree scales its unit-radius values and
            # evaluates nothing for the oracle to split
            fld = AnalyticField(fld.evaluate_fn, fld.apex, fld.rays_phi, None)
        two_sets, calls = oracles._evaluate_two_sets, []
        monkeypatch.setattr(oracles, "_evaluate_two_sets", lambda *a: calls.append(a) or two_sets(*a))
        media = [incompressible] + [gamma_medium] * (kind == "stagnation")
        for medium in media:
            rec = monotonicity_record(fld, medium, center, r)
            calls.clear()
            assert rec == record_two_sets(fld, medium, center, r)
            assert calls, "the oracle evaluated nothing: the record was compared with itself"
            assert rec["J"] > 0 and rec["E_F"] != 0


class TestHomogeneousApex:
    # (profile, apex and center, kind, medium fixture, radii)
    CASES = [
        (stokes_corner(x1_circ=1.0), (1.0, 0.0), "stagnation", "incompressible", np.geomspace(0.005, 0.3, 6)),
        (stokes_corner(x1_circ=1.0), (1.0, 0.0), "stagnation", "gamma2_medium", np.geomspace(0.005, 0.3, 6)),
        (garabedian_bubble(), (0.0, 0.0), "origin", "incompressible", np.geomspace(0.02, 0.2, 6)),
    ]

    @pytest.mark.parametrize("spec, apex, kind, medium, radii", CASES,
                             ids=[f"{c[2]}-{c[3]}" for c in CASES])
    def test_records_scaled_from_one_evaluation_equal_direct_ones(self, spec, apex, kind, medium, radii,
                                                                  request, monkeypatch):
        # at the apex a sweep's radii reuse one evaluation of the unit-radius nodes;
        # the same profile without a degree evaluates each radius directly
        from cornerflow import functionals

        medium = request.getfixturevalue(medium)
        fld = profile_field(spec, offset=apex)
        evaluate, calls = fld.evaluate_fn, []
        fld.evaluate_fn = lambda x1, x2, grad: calls.append(x1.size) or evaluate(x1, x2, grad)
        direct = AnalyticField(evaluate, fld.apex, fld.rays_phi, None)
        record, recs = functionals.monotonicity_record, []
        monkeypatch.setattr(functionals, "monotonicity_record",
                            lambda *args, **kwargs: recs.append(record(*args, **kwargs)) or recs[-1])
        radial_sweep(fld, medium, apex, radii)
        radial_sweep(direct, medium, apex, radii)
        assert len(recs) == 2 * radii.size
        for r, got, want in zip(radii, recs[:radii.size], recs[radii.size:]):
            assert got.keys() == want.keys()
            # the error terms vanish on an exact profile: they are compared on the
            # scale of the Pohozaev identity they enter, the square on that of M'
            k_scale = pohozaev_residual(want, kind)["scale"]
            for key, val in want.items():
                ref = abs(val)
                if key in ("k1", "k2", "k3", "k4", "k5", "k6", "K_sum"):
                    ref = k_scale
                elif key == "square":
                    ref = abs(want["M"]) / r
                assert abs(got[key] - val) <= 1e-12 * ref, key
        assert len(calls) == 1


class TestOneFormula:
    # per kind: (profile, its apex, the center, an apex that misses the center, grid box)
    KINDS = {
        "stagnation": (stokes_corner(x1_circ=1.0), (1.0, 0.0), (0.95, 0.0), (0.75, 1.25, -0.25, 0.25)),
        "axis": (axis_parabola(0.2), (0.0, 0.5), (0.0, 0.0), (0.0, 0.5, 0.0, 1.0)),
        "origin": (flat_origin(beta=0.3), (0.0, 0.0), (0.0, 0.05), (0.0, 0.5, -0.5, 0.5)),
    }
    # the gamma-law media run on every field but the origin grid: the resampled flat
    # profile is positive just below x2 = 0 there, where lambda is undefined (a
    # StateError at height -0.0077); the axis grid runs, its gradient vanishing on x1 = 0
    CASES = [(kind, source, medium) for kind in KINDS for source in ("grid", "apex", "off-apex")
             for medium in ("incompressible", "gamma2_medium", "gamma_medium")
             if source != "grid" or kind != "origin" or medium == "incompressible"]

    @pytest.mark.parametrize("kind, source, medium", CASES, ids=["-".join(c) for c in CASES])
    def test_records_and_residuals_equal_the_per_kind_formulas(self, kind, source, medium, request,
                                                                monkeypatch):
        # every record entry, in order, and both residuals are bitwise those of
        # the formulas written out per kind
        from cornerflow import functionals

        spec, center, off_apex, box = self.KINDS[kind]
        fld = profile_field(spec, offset=off_apex if source == "off-apex" else center)
        if source == "grid":
            fld = fld.resample(*box, 1 / 64)
        medium = request.getfixturevalue(medium)
        record, pairs = functionals.monotonicity_record, []

        def both(*args, **kwargs):
            pairs.append((record(*args, **kwargs), record_per_kind(*args, **kwargs)))
            return pairs[-1][0]

        monkeypatch.setattr(functionals, "monotonicity_record", both)
        sweep = radial_sweep(fld, medium, center, np.geomspace(0.03, 0.1, 9))
        assert len(pairs) == 9
        for got, want in pairs:
            assert _bits(got) == _bits(want)
            assert _bits(pohozaev_residual(got, kind)) == _bits(pohozaev_per_kind(want, kind))
            assert _bits(energy_identity_residual(got)) == _bits(energy_identity_residual(want))
        assert sweep.columns["pohozaev_residual"].tobytes() == np.array(
            [pohozaev_per_kind(want, kind)["residual"] for _, want in pairs]).tobytes()
        assert any(rec[f"k{i}"] != 0.0 for rec, _ in pairs for i in range(1, 7))

    @pytest.mark.parametrize("kind", list(KINDS))
    def test_pohozaev_keeps_the_sign_of_zero(self, kind):
        # the volume slots are summed from k1 on, as the written-out sums were: from a
        # start of 0 a -0.0 sum would turn +0.0 and flip the sign of a zero rhs
        rec = dict.fromkeys(("E_F", "E_F_arc", "dirichlet", "k1", "k2", "k3", "k4", "k5", "k6"), -0.0)
        rec.update(r=1.0, arc_un_sq=0.0)
        assert _bits(pohozaev_residual(rec, kind)) == _bits(pohozaev_per_kind(rec, kind))


class TestNestedGridBalls:
    # (profile, apex, center, kind, grid box at h = 1/64, radii below delta); the
    # axis and origin boxes start at the axis, so the largest ball's cell box is
    # clamped at i = 0 there
    CASES = [
        (stokes_corner(x1_circ=1.0), (1.0, 0.0), (1.0, 0.0), "stagnation", (0.75, 1.25, -0.25, 0.25),
         np.geomspace(0.03, 0.12, 5)),
        (axis_parabola(0.7), (0.0, 0.0), (0.0, 0.5), "axis", (0.0, 0.5, 0.0, 1.0), np.geomspace(0.05, 0.24, 5)),
        (garabedian_bubble(), (0.0, 0.0), (0.0, 0.0), "origin", (0.0, 0.5, -0.5, 0.5),
         np.geomspace(0.05, 0.24, 5)),
    ]

    @pytest.mark.parametrize("spec, apex, center, kind, box, radii", CASES, ids=[c[3] for c in CASES])
    def test_sweep_columns_bitwise_equal_per_radius_records(self, spec, apex, center, kind, box, radii,
                                                             incompressible, gamma2_medium, monkeypatch):
        # the sweep evaluates the cells of its largest ball once and selects every
        # ball from them; a lone record does the same with its own radius's cells
        from cornerflow import functionals

        fld = profile_field(spec, offset=apex).resample(*box, 1 / 64)
        with_thermo, sizes = functionals._with_thermo, []
        monkeypatch.setattr(functionals, "_with_thermo",
                            lambda f, m, x1, *a: sizes.append(x1.size) or with_thermo(f, m, x1, *a))
        for medium in [incompressible] + [gamma2_medium] * (kind == "stagnation"):
            sizes.clear()
            sweep = radial_sweep(fld, medium, center, radii)
            # the cells once, then each arc's nodes that touch the flow (all of them
            # on the axis parabola, which is positive off the axis)
            arc_size = N_ARC + (kind != "stagnation")
            assert len(sizes) == radii.size + 1 and all(0 < n <= arc_size for n in sizes[1:])
            recs = [monotonicity_record(fld, medium, center, float(r)) for r in radii]
            for key in recs[0]:
                assert sweep.columns[key].tobytes() == np.array([rec[key] for rec in recs]).tobytes(), key
            assert np.all(sweep.columns["J"] > 0) and np.all(sweep.columns["E_F"] != 0)

    @pytest.mark.parametrize("spec, apex, center, kind, box, radii", CASES, ids=[c[3] for c in CASES])
    def test_sweep_records_equal_full_arc_records(self, spec, apex, center, kind, box, radii,
                                                  incompressible, gamma2_medium):
        # a sweep's arc skips the nodes whose stencil touches no flow, where every arc
        # integrand is 0; summed over the whole arc every column moves at roundoff only
        # (measured: at most 3.8e-15 of the column's size, the origin's M)
        fld = profile_field(spec, offset=apex).resample(*box, 1 / 64)
        an = arc_nodes(fld, center, float(radii[-1]))
        dropped = an.x1.size - fld.evaluate_support(an.x1, an.x2)[0].size
        assert dropped > 0 or kind == "axis"  # the axis parabola is positive off the axis
        for medium in [incompressible] + [gamma2_medium] * (kind == "stagnation"):
            sweep = radial_sweep(fld, medium, center, radii)
            full = [oracles.record_full_arc(fld, medium, center, float(r)) for r in radii]
            for key in full[0]:
                want = np.array([rec[key] for rec in full])
                assert np.max(np.abs(sweep.columns[key] - want)) <= 4e-14 * np.max(np.abs(want)), key

    def test_sweep_checks_each_radius_once(self, incompressible, monkeypatch):
        # the sweep checks every radius before it builds its nodes; a record given
        # those nodes checks nothing again (it used to: 14 checks for 7 radii)
        from cornerflow import functionals

        fld = profile_field(stokes_corner(x1_circ=1.0), offset=(1.0, 0.0)).resample(0.75, 1.25, -0.25, 0.25, 1 / 64)
        check, radii = functionals.check_radius, []
        monkeypatch.setattr(functionals, "check_radius", lambda f, c, r: radii.append(r) or check(f, c, r))
        radial_sweep(fld, incompressible, (1.0, 0.0), np.geomspace(0.03, 0.12, 7))
        assert radii == list(np.geomspace(0.03, 0.12, 7))
        radii.clear()
        monotonicity_record(fld, incompressible, (1.0, 0.0), 0.1)
        assert radii == [0.1]

    def test_sweep_keeps_one_radius_next_to_the_cells(self, incompressible):
        # sweep-gamma2's field and radii: the traced peak of the sweep is the shared
        # cells' evaluation plus one radius's ball, arc and record, 2.95 times one
        # evaluation of the r = 0.1 cells; a node source that kept the previous
        # radius's arrays alive (a generator) read 4.25
        from cornerflow import functionals

        stokes = profile_field(stokes_corner(x1_circ=1.0), offset=(1.0, 0.0))
        fld = stokes.resample(0.75, 1.25, -0.25, 0.25, 1 / 256)
        fld._gradient_arrays()
        center, radii = (1.0, 0.0), np.geomspace(0.02, 0.1, 8)
        x1, x2, _ = grid_balls(fld, center, [0.1])

        def peak(fn, *args):
            tracemalloc.start()
            try:
                fn(*args)
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        one = peak(functionals._evaluate, fld, incompressible, x1, x2)
        assert peak(radial_sweep, fld, incompressible, center, radii) / one < 3.5


class TestGridBallPrefixes:
    @pytest.mark.parametrize("center, kind, box", [
        ((1.0, 0.0), "stagnation", (0.75, 1.25, -0.25, 0.25)),
        ((0.0, 0.0), "origin", (0.0, 0.5, -0.25, 0.25)),
    ], ids=["stagnation", "origin"])
    def test_each_ball_is_a_prefix_of_the_shared_evaluation(self, center, kind, box, incompressible,
                                                           monkeypatch):
        # the shared cells come nearest first, so every ball of a grid sweep is their
        # first n cells and its values are views of the one evaluation, not copies
        from cornerflow import functionals

        fld = profile_field(stokes_corner(x1_circ=1.0), offset=(1.0, 0.0)).resample(*box, 1 / 64)
        evaluate, calls = functionals._evaluate, []
        monkeypatch.setattr(functionals, "_evaluate",
                            lambda f, m, x1, x2: calls.append((x1, x2, evaluate(f, m, x1, x2))) or calls[-1][2])
        radii = np.geomspace(0.02, 0.1, 6)
        at = functionals._sweep_nodes(fld, incompressible, center, radii)
        x1, x2, shared = calls[0]
        d2 = (x1 - center[0]) ** 2 + (x2 - center[1]) ** 2
        assert np.all(np.diff(d2) >= 0.0)
        sizes = []
        for r in radii:
            bn, bv, _, _ = at(float(r))
            n = bn.x1.size
            sizes.append(n)
            assert bn.x1.tobytes() == x1[:n].tobytes() and bn.x2.tobytes() == x2[:n].tobytes()
            for name, a in zip(bv._fields, bv):
                assert a.size == n and np.shares_memory(a, getattr(shared, name)), name
        assert sizes == sorted(sizes) and sizes[-1] == x1.size


class TestStagnation:
    def test_M_constant_and_value(self, stokes_field, incompressible):
        radii = np.geomspace(0.008, 0.08, 9)
        sw = radial_sweep(stokes_field, incompressible, (1.0, 0.0), radii)
        M = sw.columns["M"]
        assert np.max(np.abs(M - SQRT3_3)) < 5e-3
        assert np.max(M) - np.min(M) < 5e-4

    def test_error_terms_small_on_exact_profile(self, stokes_field, incompressible):
        rec = monotonicity_record(stokes_field, incompressible, (1.0, 0.0), 0.08)
        for k in ("k1", "k2", "k3", "k4", "k5", "k6"):
            assert abs(rec[k]) < 1e-6
        # at small radii the surviving terms shrink like r^5
        rec_small = monotonicity_record(stokes_field, incompressible, (1.0, 0.0), 0.02)
        for k in ("k1", "k2", "k3", "k4", "k5", "k6"):
            assert abs(rec_small[k]) < 1e-8

    def test_derivative_matches_rhs(self, stokes_field, incompressible):
        radii = np.geomspace(0.01, 0.08, 24)
        out = monotonicity_derivative_check(
            stokes_field, incompressible, (1.0, 0.0), radii
        )
        assert out["max_residual"] < 5e-5

    def test_zero_field(self, incompressible):
        f = GridField.from_function(lambda X1, X2: 0.0 * X1, 0.0, 2.0, -1.0, 1.0, 1 / 64)
        for r in (0.1, 0.3):
            rec = monotonicity_record(f, incompressible, (1.0, 0.0), r)
            assert rec["M"] == 0.0 and rec["J"] == 0.0


class TestAxis:
    def test_M_exactly_constant(self, parabola_field, incompressible):
        radii = np.geomspace(0.02, 0.2, 9)
        sw = radial_sweep(parabola_field, incompressible, (0.0, 0.5), radii)
        M = sw.columns["M"]
        target = 2.0 * 0.5 / 3.0
        assert np.max(np.abs(M - target)) < 1e-10

    def test_derivative_matches_rhs(self, parabola_field, incompressible):
        radii = np.geomspace(0.02, 0.2, 12)
        out = monotonicity_derivative_check(
            parabola_field, incompressible, (0.0, 0.5), radii
        )
        assert out["max_residual"] < 1e-10

    def test_perturbed_profile_sign(self, incompressible):
        # a higher-degree perturbation keeps M' nonnegative (square term wins)
        def fn(x1, x2):
            return 0.7 * x1**2 * (1.0 + 0.2 * np.hypot(x1, x2) ** 0.2)

        def grad(x1, x2, d=1e-7):
            return (
                (fn(x1 + d, x2) - fn(x1 - d, x2)) / (2 * d),
                (fn(x1, x2 + d) - fn(x1, x2 - d)) / (2 * d),
            )

        f = analytic_field(fn, grad, apex=(0.0, 0.5))
        radii = np.geomspace(0.02, 0.2, 10)
        sw = radial_sweep(f, incompressible, (0.0, 0.5), radii)
        dM = sw.columns["dM_fd"][1:-1]
        assert np.all(dM > -1e-9)
        assert np.max(np.abs(dM)) > 1e-6  # genuinely non-constant

    def test_grid_across_the_axis_is_a_geometry_error(self, incompressible):
        # a half ball needs a grid that starts at the axis: on one that crosses
        # it the sweep used to divide by zero
        fld = profile_field(axis_parabola(0.2)).resample(-0.5, 0.5, 0.0, 1.0, 1 / 64)
        with pytest.raises(GeometryError, match="needs a grid that starts at x1 = 0, not at x1 = -0.5"):
            radial_sweep(fld, incompressible, (0.0, 0.5), np.geomspace(0.05, 0.2, 5))


class TestOrigin:
    def test_M_constant_garabedian(self, garabedian_field, incompressible):
        c = theta_star_constants()
        target = -(1.0 - c.s_star**2) / 8.0
        radii = np.geomspace(0.02, 0.2, 9)
        sw = radial_sweep(garabedian_field, incompressible, (0.0, 0.0), radii)
        assert np.max(np.abs(sw.columns["M"] - target)) < 1e-10

    def test_derivative_matches_rhs(self, garabedian_field, incompressible):
        radii = np.geomspace(0.02, 0.2, 12)
        out = monotonicity_derivative_check(
            garabedian_field, incompressible, (0.0, 0.0), radii
        )
        assert out["max_residual"] < 1e-10


class TestPohozaevAndEnergyIdentity:
    def test_exact_profiles(self, stokes_field, parabola_field, garabedian_field, incompressible):
        cases = [
            (stokes_field, (1.0, 0.0), "stagnation", 0.02, 1e-5),
            (parabola_field, (0.0, 0.5), "axis", 0.2, 1e-12),
            (garabedian_field, (0.0, 0.0), "origin", 0.2, 1e-12),
        ]
        for fld, center, kind, r, tol in cases:
            rec = monotonicity_record(fld, incompressible, center, r)
            poh = pohozaev_residual(rec, kind)
            assert abs(poh["residual"]) < tol * poh["scale"]
            eni = energy_identity_residual(rec)
            assert abs(eni["residual"]) < tol * eni["scale"]

    def test_stokes_small_radius_tight(self, stokes_field, incompressible):
        # the identity defect of the frozen-weight profile decays like r^2
        rec = monotonicity_record(stokes_field, incompressible, (1.0, 0.0), 0.005)
        poh = pohozaev_residual(rec, "stagnation")
        assert abs(poh["residual"]) < 1e-6 * poh["scale"]

    def test_sweep_columns_are_record_residuals(self, garabedian_field, incompressible):
        radii = np.geomspace(0.05, 0.2, 3)
        sw = radial_sweep(garabedian_field, incompressible, (0.0, 0.0), radii)
        for i, r in enumerate(radii):
            rec = monotonicity_record(garabedian_field, incompressible, (0.0, 0.0), r)
            assert sw.columns["pohozaev_residual"][i] == pohozaev_residual(rec, "origin")["residual"]
            assert sw.columns["energy_identity_residual"][i] == energy_identity_residual(rec)["residual"]

    def test_zero_field(self, incompressible):
        f = GridField.from_function(lambda X1, X2: 0.0 * X1, 0.0, 2.0, -1.0, 1.0, 1 / 64)
        poh = pohozaev_residual(
            monotonicity_record(f, incompressible, (1.0, 0.0), 0.3), "stagnation"
        )
        assert poh["lhs"] == 0.0 and poh["rhs"] == 0.0


class TestFrequency:
    def test_flat_profile_values(self, flat_field, incompressible):
        # D equals the homogeneity degree (= 3 for the cubic flat profile)
        radii = np.geomspace(0.05, 0.5, 12)
        sw = frequency_quantities(flat_field, incompressible, radii)
        assert np.max(np.abs(sw.columns["D"] - 3.0)) < 1e-3
        assert np.max(np.abs(sw.columns["N"] - 3.0)) < 1e-3
        assert np.all(sw.columns["N"] >= 2.5 - 1e-3)  # the theoretical lower bound
        assert np.max(np.abs(sw.columns["V_plus"])) == 0.0
        assert np.all(np.diff(sw.columns["J_scaled"]) > 0)
        # beta normalization makes r^-5 J(r) = r exactly
        assert np.max(np.abs(sw.columns["J_scaled"] / radii - 1.0)) < 1e-12

    def test_positivity_gap_makes_V_plus_positive(self, garabedian_field, incompressible):
        radii = np.geomspace(0.05, 0.3, 6)
        sw = frequency_quantities(garabedian_field, incompressible, radii)
        assert np.all(sw.columns["V_plus"] > 0)

    def test_zero_field_undefined(self, incompressible):
        f = GridField.from_function(lambda X1, X2: 0.0 * X1, 0.0, 1.0, -1.0, 1.0, 1 / 64)
        with pytest.raises(FrequencyUndefinedError):
            frequency_quantities(f, incompressible, np.geomspace(0.05, 0.3, 5))

    def test_compressible_error_terms_bounded(self, gamma_medium):
        # K * r^-5 stays bounded on a growth-respecting (subsonic) field
        fld = profile_field(flat_origin(beta=0.5))
        radii = np.geomspace(0.02, 0.3, 10)
        sw = radial_sweep(fld, gamma_medium, (0.0, 0.0), radii)
        scaled = np.abs(sw.columns["K_sum"]) * sw.columns["k_scale"]
        assert np.all(np.isfinite(scaled))
        assert np.max(scaled) < 10.0 * max(np.median(scaled), 1e-12)
        assert np.max(np.abs(sw.columns["k1"])) > 0  # compressibility active

    def test_Pi_from_zero_on_the_bubble(self, garabedian_field, incompressible):
        # S_void / r^4 is the constant (1 - s*^2)/8 on the 5/2-homogeneous bubble, so
        # Pi(r) = r (1 - s*^2)/8 exactly: the integral from r = 0 misses nothing below
        # the smallest radius (the lab's origin sweep)
        radii = np.geomspace(0.02, 0.2, 40)
        Pi = frequency_quantities(garabedian_field, incompressible, radii).columns["Pi"]
        s = theta_star_constants().s_star
        assert np.max(np.abs(Pi / (radii * (1.0 - s * s) / 8.0) - 1.0)) < 4e-14

    def test_e_integral_from_zero_matches_oracle(self, gamma2_medium):
        # (e - r K1) / r^5 is the integral over [0, r] of (K1 + K2 + K3 + K4) / rho^5,
        # which tends to about 1/60 as rho -> 0 on beta x1^2 x2+ (gamma = 2); the
        # oracle integrates the records' own integrand with one 15-point Gauss-Legendre
        # panel per interval (equal to the adaptive rule at tol 1e-10 to 2.5e-14)
        fld = profile_field(flat_origin(beta=0.3))
        radii = np.geomspace(0.01, 0.1, 40)
        c = radial_sweep(fld, gamma2_medium, (0.0, 0.0), radii).columns
        part = (c["e"] - radii * c["k1"]) / radii**5

        def integrand(rho):
            recs = [monotonicity_record(fld, gamma2_medium, (0.0, 0.0), float(x)) for x in rho]
            return np.array([(rec["k1"] + rec["k2"] + rec["k3"] + rec["k4"]) / rec["r"] ** 5 for rec in recs])

        edges = np.concatenate(([0.0], radii))
        want = np.cumsum([oracles.gauss_legendre_panel(integrand, a, b)
                          for a, b in zip(edges[:-1], edges[1:])])
        # measured: 2.9e-5 at r = 0.01 and 1.7e-6 at r = 0.1 with the integrand
        # extended below the smallest radius by the line through its first two
        # values (5.6e-3 and 5.9e-4 by its first value, 0.50 and 5.3e-2 by 0)
        assert np.max(np.abs(part / want - 1.0)) < 5e-2
        assert np.max(np.abs(part / want - 1.0)) < 3e-4

    def test_perturbed_deficit_decreases(self, incompressible):
        fld = perturbed_flat_field(eps=0.3)
        from cornerflow.classify import frequency_blowup

        out = frequency_blowup(fld, incompressible, np.geomspace(0.05, 0.8, 8))
        df = [rec["deficit"] for rec in out["records"]]
        assert all(a < b for a, b in zip(df, df[1:]))

    def test_frequency_bound_on_solver_output(self, incompressible):
        # minimizer with a flat-origin trace, extended by zero below the
        # surface level (the class the frequency bound speaks about):
        # N(r) respects the 5/2 lower bound
        from cornerflow.solver import MinimizeConfig, minimize_EF

        flat = profile_field(flat_origin())
        h = 1 / 128
        cfg = MinimizeConfig(0.0, 0.5, 0.0, 0.25, h, flat.value,
                             medium=incompressible, max_iter=3000, tol=1e-12)
        fld, _ = minimize_EF(cfg)
        n1, n2 = fld.values.shape
        ext = np.zeros((n1, 2 * n2))
        ext[:, n2:] = fld.values
        full = GridField(0.0, 0.5, -0.25, 0.25, h, ext)
        radii = np.geomspace(8 * h, 0.11, 6)  # below delta = dist/2
        sw = frequency_quantities(full, incompressible, radii)
        assert np.all(sw.columns["N"] >= 2.5 - 1e-2)


class TestBallArcConsistency:
    def test_dI_dr_equals_boundary_energy(self, gamma_medium):
        # d/dr of the ball energy is the arc energy for any field; this
        # couples the two quadrature backends through the compressible path
        fld = profile_field(flat_origin(beta=0.5))
        r0, dr = 0.2, 5e-4

        def EF(r):
            return monotonicity_record(fld, gamma_medium, (0.0, 0.0), r)["E_F"]

        fd = (-EF(r0 + 2 * dr) + 8 * EF(r0 + dr) - 8 * EF(r0 - dr) + EF(r0 - 2 * dr)) / (12 * dr)
        mid = monotonicity_record(fld, gamma_medium, (0.0, 0.0), r0)
        assert fd == pytest.approx(mid["E_F_arc"], rel=1e-6)

    def test_stiffening_limit_matches_incompressible(self, incompressible):
        from cornerflow.eos import EosModel, GammaLawMedium

        stiff = GammaLawMedium(EosModel(gamma=2.0, A=1e8, rho_bar0=1.0, g=1.0))
        fld = profile_field(flat_origin(beta=0.5))
        a = monotonicity_record(fld, stiff, (0.0, 0.0), 0.2)
        b = monotonicity_record(fld, incompressible, (0.0, 0.0), 0.2)
        assert a["M"] == pytest.approx(b["M"], abs=1e-6)
        assert a["E_F"] == pytest.approx(b["E_F"], rel=1e-6)
        assert abs(a["k1"]) < 1e-6  # compressible error terms fade away


class TestHomogeneousInvariance:
    @pytest.mark.parametrize(
        "maker,center,kind",
        [
            (lambda: profile_field(stokes_corner(x1_circ=1.0), offset=(1.0, 0.0)), (1.0, 0.0), "stagnation"),
            (lambda: profile_field(axis_parabola(1.0)), (0.0, 0.5), "axis"),
            (lambda: profile_field(flat_origin()), (0.0, 0.0), "origin"),
        ],
    )
    def test_scaled_boundary_mass_r_independent(self, maker, center, kind, incompressible):
        # J(r) scales like r^(2d+1) at off-axis centers (the 1/x1 weight is
        # asymptotically constant there) and exactly like r^(2d) at centers
        # on the axis, matching the powers in the three M-functionals
        fld = maker()
        d = {"stagnation": 1.5, "axis": 2.0, "origin": 3.0}[kind]
        radii = np.geomspace(0.02, 0.2, 6)
        sw = radial_sweep(fld, incompressible, center, radii)
        power = 2 * d + 1 if kind == "stagnation" else 2 * d
        vals = sw.columns["J"] / radii**power
        if kind == "stagnation":
            assert np.max(np.abs(vals / vals[0] - 1.0)) < 0.05
        else:
            assert np.max(np.abs(vals / vals[0] - 1.0)) < 1e-12


class TestGeometryHelpers:
    def test_delta_radius(self, incompressible):
        f = GridField.from_function(lambda X1, X2: X1, 0.0, 2.0, -1.0, 1.0, 1 / 32)
        assert delta_radius(f, (0.5, 0.0)) == pytest.approx(0.25)
        assert delta_radius(f, (0.0, 0.5)) == pytest.approx(0.25)

    def test_stagnation_delta_off_a_grid_is_half_the_axis_distance(self, stokes_field, incompressible):
        # a grid with x1_min >= 0 lies nearer than the axis to a stagnation point, so
        # only a field without edges shows the axis bound: delta = x1/2, not inf
        assert delta_radius(stokes_field, (1.0, 0.0)) == 0.5
        with pytest.raises(DomainError, match=r"^radius 0.6 at or beyond the admissible delta 0.5$"):
            monotonicity_record(stokes_field, incompressible, (1.0, 0.0), 0.6)

    def test_default_radii(self):
        f = GridField.from_function(lambda X1, X2: X1, 0.0, 2.0, -1.0, 1.0, 1 / 128)
        radii = default_radii(f, (1.0, 0.0))
        assert radii[0] == pytest.approx(4.0 / 128.0)
        assert radii[-1] == pytest.approx(0.45)

    def test_kind_center_validation(self, incompressible, flat_field):
        with pytest.raises(DomainError):
            monotonicity_record(flat_field, incompressible, (0.5, 0.5), 0.1)
        with pytest.raises(DomainError):
            radial_sweep(flat_field, incompressible, (0.0, 0.0), [0.2, 0.1])

    def test_point_kind(self):
        # the kind is which coordinates of the center vanish
        assert point_kind((1.0, 0.0)) == "stagnation"
        assert point_kind((0.0, 0.5)) == "axis"
        assert point_kind((0.0, 0.0)) == "origin"

    @settings(max_examples=100, derandomize=True, deadline=None)
    @given(zero=st.sampled_from([0.0, -0.0]), x=st.floats(0.0, 1e6), axis=st.booleans())
    def test_a_ball_is_half_unless_about_a_stagnation_point(self, zero, x, axis):
        # on every degenerate center the half-ball rule and the point's kind agree
        center = (zero, x) if axis else (x, zero)
        assert half_ball(center) == (point_kind(center) != "stagnation")

    @pytest.mark.parametrize("center", [(0.5, 0.5), (-1.0, 0.0), (0.0, -1.0)])
    def test_point_kind_off_the_degenerate_set(self, center):
        with pytest.raises(DomainError, match="degenerate points have"):
            point_kind(center)
