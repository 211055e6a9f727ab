import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from scipy.integrate import quad

from cornerflow.errors import DomainError, GeometryError
from cornerflow.fields import GridField, format_values
from cornerflow.profiles import flat_origin, profile_field
from cornerflow.quadrature import (
    N_ARC,
    arc_nodes,
    ball_nodes,
    grid_arc_nodes,
    grid_balls,
    polar_arc_nodes,
    polar_ball_nodes,
)

from oracles import grid_ball_one_box, grid_gradient_separate, grid_value_separate


def _u_sq_over_x1(fld, nodes):
    """Sum of weights times u^2 / x1, skipping nodes on the axis."""
    u = fld.value(nodes.x1, nodes.x2)
    safe = nodes.x1 > 1e-12
    return float(np.sum(nodes.w[safe] * u[safe] ** 2 / nodes.x1[safe]))


class TestGridField:
    def test_file_round_trip(self, tmp_path):
        rng = np.random.default_rng(3)
        f = GridField(0.0, 0.5, -0.25, 0.25, 1 / 32, rng.random((16, 16)))
        p = tmp_path / "field.txt"
        f.write(p)
        g = GridField.read(p)
        assert g.x1_min == f.x1_min and g.h == f.h
        assert np.array_equal(g.values, f.values)

    def test_bilinear_exact_on_bilinear_data(self):
        f = GridField.from_function(lambda X1, X2: 2.0 + 3.0 * X1 - X2 + 0.5 * X1 * X2, 0.0, 1.0, 0.0, 1.0, 1 / 16)
        pts1 = np.array([0.13, 0.5, 0.77])
        pts2 = np.array([0.21, 0.5, 0.9])
        exact = 2.0 + 3.0 * pts1 - pts2 + 0.5 * pts1 * pts2
        assert np.max(np.abs(f.value(pts1, pts2) - exact)) < 1e-13

    def test_gradient_accuracy(self):
        f = GridField.from_function(lambda X1, X2: np.sin(X1) * np.cos(X2), 0.0, 1.0, -0.5, 0.5, 1 / 128)
        x1 = np.array([0.3, 0.6])
        x2 = np.array([-0.1, 0.2])
        g1, g2 = f.gradient(x1, x2)
        assert np.max(np.abs(g1 - np.cos(x1) * np.cos(x2))) < 1e-3
        assert np.max(np.abs(g2 + np.sin(x1) * np.sin(x2))) < 1e-3

    def test_axis_ghost_odd_extension(self):
        # u ~ x1^2 near the axis: interpolation at x1 -> 0 tends to 0
        f = GridField.from_function(lambda X1, X2: X1**2, 0.0, 0.5, 0.0, 0.5, 1 / 64)
        v = f.value(np.array([1e-9]), np.array([0.25])).item()
        assert abs(v) < 1e-4

    def test_geometry_checks(self):
        f = GridField.from_function(lambda X1, X2: X1, 0.0, 1.0, 0.0, 1.0, 1 / 16)
        f.check_holds((0.5, 0.5), 0.4, "ball")
        with pytest.raises(GeometryError, match="leaves the grid"):
            f.check_holds((0.5, 0.5), 0.6, "ball")
        f.check_holds((0.0, 0.5), 0.4, "ball")
        with pytest.raises(GeometryError):
            f.value(np.array([2.5]), np.array([0.5]))
        # a half ball about the axis needs the grid to start there, not to cross it
        crossing = GridField.from_function(lambda X1, X2: X1**2, -1.0, 1.0, 0.0, 1.0, 1 / 16)
        with pytest.raises(GeometryError, match="needs a grid that starts at x1 = 0"):
            crossing.check_holds((0.0, 0.5), 0.4, "ball")

    def test_gradient_vanishes_on_the_axis(self):
        # u = O(x1^2): u, du/dx1 and du/dx2 are exactly 0 on x1 = 0, so the speed
        # |grad u|^2 / x1^2 stays bounded at a half arc's end nodes (x1 ~ 6e-17 r)
        f = GridField.from_function(lambda X1, X2: 0.2 * X1**2, 0.0, 0.5, 0.0, 1.0, 1 / 64)
        x2 = np.linspace(0.1, 0.9, 9)
        assert all(np.all(a == 0.0) for a in f.evaluate(np.zeros_like(x2), x2))
        an = grid_arc_nodes(f, (0.0, 0.5), 0.2)
        assert 0.0 < an.x1[0] < 1e-16 and 0.0 < an.x1[-1] < 1e-16
        _, g1, g2 = f.evaluate(an.x1, an.x2)
        t = (g1 * g1 + g2 * g2) / (an.x1 * an.x1)
        assert np.max(t) < 0.3  # (0.4 x1)^2 / x1^2 = 0.16, and up to 0.25 within h/2 of the axis

    def test_shape_validation(self):
        with pytest.raises(DomainError):
            GridField(0.0, 1.0, 0.0, 1.0, 1 / 16, np.zeros((4, 4)))

    @pytest.mark.parametrize("x1_min", [0.0, 0.25], ids=["on-axis", "off-axis"])
    def test_evaluate_bitwise_equals_separate_interpolation(self, x1_min):
        # one stencil for u, g1 and g2 reproduces three separate interpolations
        # bit for bit, the odd ghost column included (points with x1 < h/2), and
        # so do the clip limits one cell outside the box on each side
        f = GridField.from_function(lambda X1, X2: np.cos(3 * X1) * np.exp(X2) + X1 * X2,
                                    x1_min, x1_min + 0.5, -0.25, 0.25, 1 / 32)
        rng = np.random.default_rng(7)
        x1_lim = [x1_min - 1 / 32, x1_min + 0.5 + 1 / 32, x1_min, x1_min]
        x2_lim = [0.0, 0.0, -0.25 - 1 / 32, 0.25 + 1 / 32]
        x1 = np.concatenate(([x1_min, x1_min + 1e-3, x1_min + 0.5], x1_lim, x1_min + 0.5 * rng.random(493)))
        x2 = np.concatenate(([-0.25, 0.0, 0.25], x2_lim, -0.25 + 0.5 * rng.random(493)))
        u, g1, g2 = f.evaluate(x1, x2)
        e1, e2 = grid_gradient_separate(f, x1, x2)
        assert u.tobytes() == grid_value_separate(f, x1, x2).tobytes() == f.value(x1, x2).tobytes()
        assert g1.tobytes() == e1.tobytes() and g2.tobytes() == e2.tobytes()
        X1, X2 = x1.reshape(20, -1), x2.reshape(20, -1)  # any shape, evaluated pointwise
        assert all(a.shape == X1.shape for a in f.evaluate(X1, X2))
        assert f.evaluate(X1, X2)[1].tobytes() == g1.tobytes()

    @pytest.mark.parametrize("n1, n2", [(2, 8), (8, 2), (2, 2)])
    def test_gradient_needs_three_cells_per_axis(self, n1, n2):
        f = GridField(0.0, n1 / 8, 0.0, n2 / 8, 1 / 8, np.ones((n1, n2)))
        assert f.value(np.array([0.1]), np.array([0.1])).item() == 1.0
        with pytest.raises(DomainError, match="3 cells per axis"):
            f.evaluate(np.array([0.1]), np.array([0.1]))


@settings(max_examples=100, derandomize=True, deadline=None)
@given(n1=st.integers(3, 9), n2=st.integers(3, 9), x1_min=st.sampled_from([0.0, 0.25]),
       fill=st.sampled_from([0.2, 0.5, 1.0]), seed=st.integers(0, 2**32 - 1))
def test_evaluate_support_drops_only_points_where_the_field_is_zero(n1, n2, x1_min, fill, seed):
    # a grid sweep's arcs skip the air: ``keep`` lists the points whose stencil touches
    # a nonzero u, du/dx1 or du/dx2, a dropped point's three values are exactly 0 and a
    # kept one's are evaluate's bit for bit.  The grids have random zero cells (none at
    # fill = 1), and an on-axis grid's odd ghost column holds -0.0 beside a zero cell.
    # The points are every stencil's midpoint and random ones up to h outside the box
    rng = np.random.default_rng(seed)
    h = 1 / 16
    values = (0.1 + rng.random((n1, n2))) * (rng.random((n1, n2)) < fill)
    f = GridField(x1_min, x1_min + n1 * h, 0.0, n2 * h, h, values)
    I, J = np.meshgrid(np.arange(n1 + 1), np.arange(n2 + 1), indexing="ij")
    x1 = np.concatenate((x1_min + h * I.ravel(), x1_min - h + (n1 + 2) * h * rng.random(200)))
    x2 = np.concatenate((h * J.ravel(), -h + (n2 + 2) * h * rng.random(200)))
    keep, kept = f.evaluate_support(x1, x2)
    grad = f._gradient_arrays()
    i0 = np.floor(np.clip((x1 - x1_min) / h + 0.5, 0.0, n1 + 1 - 1e-12)).astype(int)
    j0 = np.floor(np.clip(x2 / h + 0.5, 0.0, n2 + 1 - 1e-12)).astype(int)
    touches = [np.any(grad[:, i:i + 2, j:j + 2] != 0.0) for i, j in zip(i0, j0)]
    assert keep.tolist() == np.flatnonzero(touches).tolist()
    dropped = np.setdiff1d(np.arange(x1.size), keep)
    for a, b in zip(kept, f.evaluate(x1, x2)):
        assert a.tobytes() == b[keep].tobytes()
        assert np.all(b[dropped] == 0.0)
    if fill == 1.0:
        assert dropped.size == 0


# finite doubles, with the zeros and the subnormals drawn often
FINITE = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False),
    st.floats(min_value=-2.2250738585072014e-308, max_value=2.2250738585072014e-308),
    st.sampled_from([0.0, -0.0, 5e-324, -5e-324]),
)


@settings(max_examples=200, derandomize=True, deadline=None)
@given(st.lists(FINITE, max_size=40))
def test_format_values_writes_percent_17g(values):
    # exact +0.0 skips the formatting; every string is still '%.17g' of its value
    assert format_values(np.array(values, dtype=float)) == ["%.17g" % v for v in values]


class TestBallQuadrature:
    def test_full_disk_area_exact(self):
        f = GridField.from_function(lambda X1, X2: np.ones_like(X1), 0.0, 2.0, -1.0, 1.0, 1 / 64)
        val = float(np.sum(ball_nodes(f, (1.0, 0.0), 0.5).w))
        assert val == pytest.approx(math.pi * 0.25, abs=1e-12)

    def test_second_order_on_smooth_weights(self):
        errs = []
        for h in (1 / 64, 1 / 128, 1 / 256):
            f = GridField.from_function(lambda X1, X2: np.ones_like(X1), 0.0, 2.0, -1.0, 1.0, h)
            nodes = ball_nodes(f, (1.0, 0.0), 1.0)
            errs.append(abs(float(np.sum(nodes.w * np.maximum(nodes.x2, 0.0))) - 2.0 / 3.0))
        assert errs[0] / errs[1] > 3.0
        assert errs[1] / errs[2] > 3.0

    def test_half_ball_quarter_weight(self):
        f = GridField.from_function(lambda X1, X2: np.ones_like(X1), 0.0, 1.25, -1.25, 1.25, 1 / 256)
        nodes = ball_nodes(f, (0.0, 0.0), 1.0)
        val = float(np.sum(nodes.w * nodes.x1 * np.maximum(nodes.x2, 0.0)))
        assert val == pytest.approx(0.125, abs=5e-6)

    def test_inverse_weight_integral(self):
        # closed form: integral of 1/x1 over B_r((c,0)) = 2 pi (c - sqrt(c^2 - r^2))
        exact = 2 * math.pi * (1.0 - math.sqrt(0.75))
        errs = []
        for h in (1 / 64, 1 / 128, 1 / 256):
            f = GridField.from_function(lambda X1, X2: np.ones_like(X1), 0.0, 2.0, -1.0, 1.0, h)
            nodes = ball_nodes(f, (1.0, 0.0), 0.5)
            errs.append(abs(float(np.sum(nodes.w_inv)) - exact))
        assert errs[-1] < 5e-6 * exact
        assert errs[0] / errs[-1] > 8.0  # second order across two halvings

    def test_inverse_weight_exact_across_a_cell_near_the_axis(self):
        # a lattice whose first column spans [0.3 h, 1.3 h]: the cut cells of that column
        # take the exact mean of 1/x1 across their width, not 1/x1 at their center
        h = 1 / 32
        x1_min = 0.3 * h
        f = GridField.from_function(lambda X1, X2: np.ones_like(X1), x1_min, x1_min + 1.0, -0.5, 0.5, h)
        nodes = ball_nodes(f, (x1_min + 0.25 + 0.1 * h, 0.0), 0.25)
        first = (nodes.x1 == f.cell_x1[0]) & (nodes.w > 0.0)
        assert np.count_nonzero(first) >= 3
        mean = [quad(lambda x: 1.0 / x, a - 0.5 * h, a + 0.5 * h, epsabs=0.0, epsrel=1e-13)[0] / h
                for a in nodes.x1]
        np.testing.assert_allclose(nodes.w_inv, nodes.w * np.array(mean), rtol=1e-12, atol=0.0)

    def test_geometry_error(self):
        f = GridField.from_function(lambda X1, X2: np.ones_like(X1), 0.0, 1.0, 0.0, 1.0, 1 / 16)
        with pytest.raises(GeometryError):
            ball_nodes(f, (0.5, 0.5), 0.75)


@settings(max_examples=150, derandomize=True, deadline=None)
@given(h=st.sampled_from([1 / 16, 1 / 24, 1 / 64]), c1=st.just(0.0) | st.floats(0.0, 1.0),
       c2=st.floats(-0.5, 0.5), big=st.floats(0.0, 1.0), small=st.floats(0.0, 1.0, exclude_max=True))
def test_ball_selected_from_a_larger_balls_cells_is_its_own(h, c1, c2, big, small):
    # a radial sweep selects each ball from the cells of its largest one, with
    # every radius's cut cells measured in one call: the nodes, their order and
    # weights are those of the ball's own bounding box, also where the larger box
    # is clamped at the axis (half balls at x1 < R)
    m = round(1 / h)
    f = GridField(0.0, 1.0, -0.5, 0.5, h, np.zeros((m, m)))
    half = c1 == 0
    R = big * min(1.0 - c1, c2 + 0.5, 0.5 - c2, 1.0 if half else c1)
    r = small * R
    assume(r > 0.0)
    x1, x2, at = grid_balls(f, (c1, c2), [r, 0.5 * (r + R), R])
    n, got = at(r)
    want = grid_ball_one_box(f, (c1, c2), r)
    own = ball_nodes(f, (c1, c2), r)
    for key in ("x1", "x2", "w", "w_inv"):
        assert getattr(got, key).tobytes() == getattr(want, key).tobytes() == getattr(own, key).tobytes()
    assert x1[:n].tobytes() == got.x1.tobytes() and x2[:n].tobytes() == got.x2.tobytes()


@pytest.mark.parametrize("box, center, radii, message", [
    ((0.0, 1.0, -0.5, 0.5), (0.5, 0.0), [0.1, 0.55, 0.7, 0.2],
     "ball (center=(0.5, 0.0), r=0.55) leaves the grid"),
    ((-0.5, 0.5, -0.5, 0.5), (0.0, 0.0), [0.2, 0.3, 0.1],
     "half ball (center=(0.0, 0.0), r=0.2) needs a grid that starts at x1 = 0, not at x1 = -0.5"),
], ids=["middle-radius-leaves-the-box", "half-ball-across-the-axis"])
def test_grid_balls_name_the_first_radius_the_grid_cannot_hold(box, center, radii, message):
    # every radius is checked in the order given, before any cell is taken: a sweep
    # and a classification over the same radii name the same one
    f = GridField.from_function(lambda X1, X2: np.ones_like(X1), *box, 1 / 16)
    with pytest.raises(GeometryError) as err:
        grid_balls(f, center, radii)
    assert str(err.value) == message


class TestArcQuadrature:
    @pytest.mark.parametrize("half", [False, True])
    def test_unit_circle_cached_and_read_only(self, half):
        # every arc shares one cos/sin pair per half; x = c + r cos(phi) as before.
        # An arc about an axis center is a half circle
        f = GridField.from_function(lambda X1, X2: np.ones_like(X1), 0.0, 1.0, -0.5, 0.5, 1 / 16)
        c1 = 0.0 if half else 0.5
        a = grid_arc_nodes(f, (c1, 0.0), 0.25)
        b = grid_arc_nodes(f, (0.5 * c1, 0.1), 0.125)
        assert a.n1 is b.n1 and a.n2 is b.n2
        assert not (a.n1.flags.writeable or a.n2.flags.writeable)
        phi = (np.linspace(-0.5 * np.pi, 0.5 * np.pi, N_ARC + 1) if half
               else np.linspace(-np.pi, np.pi, N_ARC + 1)[:-1])
        assert a.n1.tobytes() == np.cos(phi).tobytes() and a.n2.tobytes() == np.sin(phi).tobytes()
        assert a.x1.tobytes() == (c1 + 0.25 * np.cos(phi)).tobytes()

    def test_half_circumference(self):
        f = GridField.from_function(lambda X1, X2: np.ones_like(X1), 0.0, 1.5, -1.5, 1.5, 1 / 64)
        val = float(np.sum(arc_nodes(f, (0.0, 0.0), 1.0).w))
        assert val == pytest.approx(math.pi, rel=1e-10)

    def test_flat_profile_weighted_arc(self):
        # u = x1^2 x2+ gives u^2/x1 = x1^3 (x2+)^2 with arc integral 2/15
        f = GridField.from_function(
            lambda X1, X2: X1**2 * np.maximum(X2, 0.0), 0.0, 1.5, -1.5, 1.5, 1 / 512
        )
        val = _u_sq_over_x1(f, arc_nodes(f, (0.0, 0.0), 1.0))
        assert val == pytest.approx(2.0 / 15.0, abs=1e-6)

    def test_normalized_flat_profile_unit_norm(self):
        # analytic path: exact profile evaluation through the polar panels
        fld = profile_field(flat_origin())
        val = _u_sq_over_x1(fld, arc_nodes(fld, (0.0, 0.0), 1.0))
        assert val == pytest.approx(1.0, abs=1e-10)
        # grid-interpolation path carries the documented O(h^2) floor
        beta = math.sqrt(7.5)
        f = GridField.from_function(
            lambda X1, X2: beta * X1**2 * np.maximum(X2, 0.0), 0.0, 1.5, -1.5, 1.5, 1 / 512
        )
        val = _u_sq_over_x1(f, arc_nodes(f, (0.0, 0.0), 1.0))
        assert val == pytest.approx(1.0, abs=1e-5)


class TestPolarQuadrature:
    def test_cone_split_density(self):
        # panels split at the Stokes rays integrate the cone indicator exactly; the
        # ball is a full one about a center off the axis
        nodes = polar_ball_nodes((2.0, 0.0), 1.0, splits=(np.pi / 6, 5 * np.pi / 6))
        theta = 0.5 * np.pi - np.arctan2(nodes.x2, nodes.x1 - 2.0)
        chi = np.abs(theta) <= np.pi / 3.0
        val = float(np.sum(nodes.w * np.maximum(nodes.x2, 0.0) * chi))
        assert val == pytest.approx(math.sqrt(3.0) / 3.0, abs=1e-12)

    def test_arc_weights_sum(self):
        nodes = polar_arc_nodes((0.0, 0.0), 2.0)
        assert float(np.sum(nodes.w)) == pytest.approx(2.0 * math.pi, rel=1e-13)

    def test_analytic_field_dispatch(self):
        fld = profile_field(flat_origin())
        nodes = ball_nodes(fld, (0.0, 0.0), 1.0)
        chi = fld.chi(fld.value(nodes.x1, nodes.x2))
        val = float(np.sum(nodes.w * nodes.x1 * np.maximum(nodes.x2, 0.0) * chi))
        assert val == pytest.approx(0.125, abs=1e-10)
