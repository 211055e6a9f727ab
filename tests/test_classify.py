import math

import numpy as np
import pytest

from cornerflow.classify import (
    blowup,
    classify,
    default_radii,
    frequency_blowup,
    weighted_density,
)
from cornerflow.errors import DomainError, GeometryError, InsufficientDataError
from cornerflow.fields import AnalyticField, GridField
from cornerflow.functionals import point_kind, radius_window
from cornerflow.profiles import (
    axis_parabola,
    flat_origin,
    garabedian_bubble,
    profile_field,
    stokes_corner,
    theta_star_constants,
)
from cornerflow.quadrature import ball_nodes, polar_arc_nodes, polar_ball_nodes

from conftest import analytic_field
from oracles import fit_shape_reference, frequency_fit_reference, measure_corner_slopes

SQRT3_3 = math.sqrt(3.0) / 3.0
H = 1 / 256


@pytest.fixture(scope="module")
def stokes_grid():
    fld = profile_field(stokes_corner(x1_circ=1.0), offset=(1.0, 0.0))
    return fld.resample(0.25, 1.75, -0.75, 0.75, H)


@pytest.fixture(scope="module")
def parabola_grid():
    return profile_field(axis_parabola(0.8)).resample(0.0, 1.0, 0.0, 1.0, H)


@pytest.fixture(scope="module")
def garabedian_grid():
    return profile_field(garabedian_bubble()).resample(0.0, 1.0, -1.0, 1.0, H)


@pytest.fixture(scope="module")
def flat_grid():
    return profile_field(flat_origin()).resample(0.0, 1.0, -1.0, 1.0, H)


class TestPointKind:
    # the center alone states the point: its kind sets the blow-up box and power
    @pytest.mark.parametrize("center, x1_min, power", [
        ((1.0, 0.0), -1.0, 1.5), ((0.0, 0.5), 0.0, 2.0), ((0.0, 0.0), 0.0, 2.5),
    ], ids=["stagnation", "axis", "origin"])
    def test_blowup_box_and_scaling_power(self, center, x1_min, power):
        # u = 1 rescales to 1/r^power: 4^power at r = 1/4, exact in binary
        one = analytic_field(lambda x1, x2: np.ones_like(x1), lambda x1, x2: (0.0 * x1, 0.0 * x2))
        b = blowup(one, center, 0.25)
        assert (b.x1_min, b.x1_max, b.x2_min, b.x2_max, b.h) == (x1_min, 1.0, -1.0, 1.0, 2.0 / 128)
        assert np.all(b.values == 4.0**power)

    def test_invalid(self, stokes_grid):
        not_degenerate = r"degenerate points have x1, x2 >= 0 and x1\*x2 = 0, not \(0\.5, 0\.5\)"
        with pytest.raises(DomainError, match=not_degenerate):
            classify(stokes_grid, (0.5, 0.5))
        with pytest.raises(DomainError, match=not_degenerate):
            blowup(stokes_grid, (0.5, 0.5), 0.1)


class TestBlowup:
    def test_homogeneous_field_blowup_invariant(self):
        fld = profile_field(stokes_corner(x1_circ=1.0), offset=(1.0, 0.0))
        grid = fld.resample(0.25, 1.75, -0.75, 0.75, 1 / 512)
        b1 = blowup(grid, (1.0, 0.0), 0.1)
        b2 = blowup(grid, (1.0, 0.0), 0.05)
        l2 = math.sqrt(float(np.mean((b1.values - b2.values) ** 2)))
        assert l2 < 1e-3

    def test_zero_field(self):
        z = GridField.from_function(lambda X1, X2: 0.0 * X1, 0.0, 1.0, -1.0, 1.0, 1 / 64)
        b = blowup(z, (0.0, 0.0), 0.25)
        assert np.all(b.values == 0.0)

    def test_radius_guard(self, stokes_grid):
        with pytest.raises(GeometryError):
            blowup(stokes_grid, (1.0, 0.0), 2.0 * stokes_grid.h)

    def test_grid_across_the_axis_is_a_geometry_error(self):
        # an axis point's half balls need a grid that starts at the axis: this
        # one used to be labelled Cusp with density 3e-16
        fld = profile_field(axis_parabola(0.2)).resample(-0.5, 0.5, 0.0, 1.0, 1 / 64)
        with pytest.raises(GeometryError, match="needs a grid that starts at x1 = 0, not at x1 = -0.5"):
            classify(fld, (0.0, 0.5))

    def test_axis_blowup_off_the_axis_names_the_axis(self):
        # the blow-up checks its box as balls and arcs do: this one used to say
        # only that the box left the grid
        fld = profile_field(axis_parabola(0.2)).resample(0.25, 1.0, 0.0, 1.0, 1 / 64)
        with pytest.raises(GeometryError, match="needs a grid that starts at x1 = 0, not at x1 = 0.25"):
            blowup(fld, (0.0, 0.5), 0.1)


class TestWeightedDensity:
    def test_stokes(self, stokes_grid):
        out = weighted_density(stokes_grid, (1.0, 0.0), np.geomspace(0.05, 0.3, 8))
        assert out["value"] == pytest.approx(SQRT3_3, abs=5e-3)

    def test_full_positivity_at_stagnation(self):
        f = GridField.from_function(lambda X1, X2: np.maximum(X2, 0.0) ** 1.5, 0.25, 1.75, -0.75, 0.75, H)
        out = weighted_density(f, (1.0, 0.0), np.geomspace(0.05, 0.3, 8))
        assert out["value"] == pytest.approx(2.0 / 3.0, abs=5e-3)

    def test_garabedian(self, garabedian_grid):
        c = theta_star_constants()
        out = weighted_density(garabedian_grid, (0.0, 0.0), np.geomspace(0.05, 0.3, 8))
        assert out["value"] == pytest.approx(c.m0, abs=2e-3)

    @pytest.mark.parametrize("grid, center", [
        ("stokes_grid", (1.0, 0.0)),
        ("parabola_grid", (0.0, 0.5)),
        ("garabedian_grid", (0.0, 0.0)),
    ], ids=["stagnation", "axis", "origin"])
    def test_grid_densities_equal_per_ball_evaluation(self, grid, center, request):
        # each density equals the one from its own ball's nodes and values, bit
        # for bit, whatever the order of the radii given
        from cornerflow import classify as classify_mod

        fld = request.getfixturevalue(grid)
        radii = np.geomspace(0.05, 0.3, 8)
        want = []
        for r in radii:
            nodes = ball_nodes(fld, center, r)
            want.append(classify_mod._density(point_kind(center), nodes, fld.chi(fld.value(nodes.x1, nodes.x2)), r))
        got = weighted_density(fld, center, radii[::-1])["densities"]
        assert got.tobytes() == np.array(want).tobytes()

    def test_insufficient_radii(self, stokes_grid):
        with pytest.raises(InsufficientDataError):
            weighted_density(stokes_grid, (1.0, 0.0), [0.1, 0.2])

    @pytest.mark.parametrize("radii", [[0.01, 0.15, 0.3], [0.01, 0.05, 0.3]],
                             ids=["one-in-first-decade", "two-in-first-decade"])
    def test_fewer_than_three_radii_in_the_first_decade(self, stokes_grid, radii):
        # no affine fit: the value is the smallest radius's density, and the
        # uncertainty the spread of the first decade's densities about it
        out = weighted_density(stokes_grid, (1.0, 0.0), radii)
        d = out["densities"][out["radii"] <= 10.0 * radii[0]]
        assert d.size < 3
        assert out["value"] == out["densities"][0]
        assert out["uncertainty"] == max(float(np.max(np.abs(d - d[0]))), 1e-12)

    def test_exactly_r_independent_on_cone(self):
        # polar densities of a homogeneous positivity set do not drift in r
        fld = profile_field(stokes_corner(x1_circ=1.0), offset=(1.0, 0.0))
        out = weighted_density(fld, (1.0, 0.0), np.geomspace(0.02, 0.2, 6))
        drift = np.max(np.abs(out["densities"] - out["densities"][0]))
        assert drift < 1e-12

    def test_cone_quarter_identity(self):
        # a homogeneous cone field's weighted ball mass is a quarter of its
        # weighted boundary mass (polar factorization with rho^3)
        c = theta_star_constants()
        splits = (0.0, c.theta_star_rad - 0.5 * np.pi)
        pb = polar_ball_nodes((0.0, 0.0), 1.0, splits=splits)
        pa = polar_arc_nodes((0.0, 0.0), 1.0, splits=splits)

        def chi_cone(x1, x2):
            th = 0.5 * np.pi - np.arctan2(x2, x1)
            return (th >= np.pi - c.theta_star_rad).astype(float)

        ball = float(np.sum(pb.w * pb.x1 * np.maximum(pb.x2, 0) * chi_cone(pb.x1, pb.x2)))
        arc = float(np.sum(pa.w * pa.x1 * np.maximum(pa.x2, 0) * chi_cone(pa.x1, pa.x2)))
        assert ball == pytest.approx(arc / 4.0, abs=1e-10)


class TestClassify:
    def test_stokes_self_classification(self, stokes_grid):
        res = classify(stokes_grid, (1.0, 0.0))
        assert res.label == "StokesCorner"
        assert res.fit_residual < 1e-2
        # the fitted coefficient recovers sqrt(2)/3 * x1 * rho0
        assert res.fit_param == pytest.approx(math.sqrt(2.0) / 3.0, rel=0.01)

    def test_parabola_recovers_alpha(self, parabola_grid):
        res = classify(parabola_grid, (0.0, 0.5))
        assert res.label == "AxisParabola"
        assert res.fit_param == pytest.approx(0.8, rel=0.01)
        assert res.fit_residual < 1e-2

    def test_garabedian_recovers_beta0(self, garabedian_grid):
        from cornerflow.profiles import garabedian_beta0

        res = classify(garabedian_grid, (0.0, 0.0))
        assert res.label == "GarabedianBubble"
        assert res.fit_param == pytest.approx(garabedian_beta0(), rel=0.01)
        assert res.fit_residual < 1e-2

    def test_flat_origin(self, flat_grid):
        res = classify(flat_grid, (0.0, 0.0))
        assert res.label == "HorizontalFlat"

    def test_zero_is_cusp(self):
        z = GridField.from_function(lambda X1, X2: 0.0 * X1, 0.0, 1.0, -1.0, 1.0, 1 / 128)
        res = classify(z, (0.0, 0.0))
        assert res.label == "Cusp"
        assert res.density == 0.0

    @pytest.mark.parametrize("lift, raises", [(0.1, True), (1 / 128, False)])
    def test_center_off_the_free_boundary_is_refused(self, lift, raises):
        # u = (x2 - lift)+: the nearest positive cell centers sit h/2 left and right
        # of x1 = 1, at x2 = 13.5h (lift 0.1) or 1.5h (lift h); beyond 2h the
        # point is refused, within it classified
        fld = GridField.from_function(lambda X1, X2: np.maximum(X2 - lift, 0.0) + 0.0 * X1,
                                      0.5, 1.5, -0.5, 0.5, 1 / 128)
        center, radii = (1.0, 0.0), np.geomspace(0.04, 0.2, 6)
        if raises:
            with pytest.raises(GeometryError, match=r"^center \(1\.0, 0\.0\) is no free-boundary point: "
                               r"the nearest positive cell lies 0\.105541 away, beyond 2h = 0\.015625$"):
                classify(fld, center, radii=radii)
        else:
            assert classify(fld, center, radii=radii).density >= 0.0

    def test_trivial_axis_norm_tiebreak(self):
        cub = GridField.from_function(lambda X1, X2: X1**3, 0.0, 1.0, 0.0, 1.0, H)
        res = classify(cub, (0.0, 0.5))
        assert res.label == "HorizontalFlat"
        assert "trivial" in res.notes

    def test_radii_in_any_order_give_one_verdict(self):
        # the tie-break's blow-ups are taken at the smallest and largest radius,
        # not at the caller's first and last: reversed, this trivial axis point
        # was labelled AxisParabola
        fld = GridField.from_function(lambda X1, X2: X1**3, 0, 1, 0, 1, 1 / 64)
        center = (0.0, 0.5)
        radii = default_radii(fld, center)
        want = classify(fld, center, radii=radii)
        assert want.label == "HorizontalFlat"
        assert vars(classify(fld, center, radii=radii[::-1])) == vars(want)

    def test_scale_robustness(self, parabola_grid):
        for c in (0.1, 10.0):
            scaled = GridField(
                parabola_grid.x1_min,
                parabola_grid.x1_max,
                parabola_grid.x2_min,
                parabola_grid.x2_max,
                parabola_grid.h,
                c * parabola_grid.values,
            )
            res = classify(scaled, (0.0, 0.5))
            assert res.label == "AxisParabola"
            assert res.fit_param == pytest.approx(0.8 * c, rel=0.01)
        z = GridField.from_function(lambda X1, X2: 0.0 * X1, 0.0, 1.0, -1.0, 1.0, 1 / 128)
        assert classify(z, (0.0, 0.0)).label == "Cusp"

    def test_ambiguous_density(self):
        # cone whose density sits midway between the two admissible values
        theta_c = math.asin(0.5 * (math.sqrt(3.0) / 2.0 + 1.0))

        def fn(x1, x2):
            rho = np.hypot(x1, x2)
            th = np.arctan2(x1, x2)
            return np.where(np.abs(th) < theta_c, rho**1.5 * np.cos(np.abs(th) * 0.5 * np.pi / theta_c), 0.0)

        fld2 = GridField.from_function(lambda X1, X2: fn(X1 - 1.0, X2), 0.25, 1.75, -0.75, 0.75, 1 / 128)
        res = classify(fld2, (1.0, 0.0))
        assert res.label == "Ambiguous"
        assert res.candidates
        assert res.fit_param is None and res.fit_residual is None
        assert res.notes == "two theoretical densities within twice the uncertainty"

    @pytest.mark.parametrize("grid, center", [
        ("stokes_grid", (1.0, 0.0)),
        ("parabola_grid", (0.0, 0.5)),
        ("garabedian_grid", (0.0, 0.0)),
    ], ids=["stagnation", "axis", "origin"])
    def test_default_radii(self, grid, center, request, monkeypatch):
        from cornerflow import classify as classify_mod

        fld = request.getfixturevalue(grid)
        seen = []

        class Stop(Exception):
            pass

        def capture(field_, center_, radii):
            seen.append(radii)
            raise Stop

        monkeypatch.setattr(classify_mod, "weighted_density", capture)
        with pytest.raises(Stop):
            classify(fld, center)
        # the old formula: 0.45 of the boundary distance, capped by x1 at a stagnation point
        delta = fld.boundary_distance(center)
        if point_kind(center) == "stagnation":
            delta = min(delta, center[0])
        r_hi = 0.45 * delta
        want = np.geomspace(max(4 * fld.h, r_hi / 8.0), r_hi, 10)
        assert np.array_equal(seen[0], want)

    @pytest.mark.parametrize("grid, center, label", [
        ("stokes_grid", (1.0, 0.0), "StokesCorner"),
        ("parabola_grid", (0.0, 0.5), "AxisParabola"),
        ("garabedian_grid", (0.0, 0.0), "GarabedianBubble"),
    ], ids=["stagnation", "axis", "origin"])
    def test_fit_matches_the_written_out_formula(self, grid, center, label, request):
        # the shared least-squares fit keeps the order of every sum: bit for bit
        fld = request.getfixturevalue(grid)
        res = classify(fld, center)
        blow = blowup(fld, center, radius_window(fld, center)[1])
        assert res.label == label
        assert (res.fit_param, res.fit_residual) == fit_shape_reference(blow, point_kind(center), label)


class TestCornerSlopes:
    def test_slopes(self, stokes_grid):
        blow = blowup(stokes_grid, (1.0, 0.0), 0.25)
        slopes = measure_corner_slopes(blow)
        assert len(slopes) == 2
        hb = blow.h
        assert slopes[1] == pytest.approx(1.0 / math.sqrt(3.0), abs=2.5 * hb)
        assert slopes[0] == pytest.approx(-1.0 / math.sqrt(3.0), abs=2.5 * hb)


class TestFrequencyBlowup:
    def test_flat_profile_fixed_point(self, incompressible):
        fld = profile_field(flat_origin())
        out = frequency_blowup(fld, incompressible, np.geomspace(0.1, 0.5, 4))
        for rec in out["records"]:
            assert rec["boundary_norm"] == pytest.approx(1.0, abs=1e-10)
            assert rec["fit_residual"] < 1e-6
            assert rec["fit_coeff"] == pytest.approx(1.0, abs=1e-10)

    def test_perturbation_decays(self, incompressible):
        from conftest import perturbed_flat_field

        fld = perturbed_flat_field(eps=0.3)
        out = frequency_blowup(fld, incompressible, np.geomspace(0.05, 0.8, 8))
        fr = [rec["fit_residual"] for rec in out["records"]]
        assert all(a < b for a, b in zip(fr, fr[1:]))

    @pytest.mark.parametrize("source", ["flat", "perturbed", "flat-split-at-pi-4"])
    def test_fit_matches_the_written_out_formula(self, incompressible, source):
        from conftest import perturbed_flat_field

        fld = perturbed_flat_field(eps=0.3) if source == "perturbed" else profile_field(flat_origin())
        if source == "flat-split-at-pi-4":
            # one more panel split (no kink there): on these nodes sum(w s s) and
            # sum(w (s s)) round apart, so a reassociated denominator shows
            fld = AnalyticField(fld.evaluate_fn, fld.apex, fld.rays_phi + (np.pi / 4,), fld.degree)
        radii = np.geomspace(0.05, 0.8, 8)
        got = [(rec["fit_coeff"], rec["fit_residual"])
               for rec in frequency_blowup(fld, incompressible, radii)["records"]]
        assert got == frequency_fit_reference(fld, incompressible, radii)
