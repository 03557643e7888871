import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from igtop.driver import BUILTIN_PROBLEMS
from igtop.errors import ConfigError
from igtop.mesh import structured_grid
from igtop.rbf import (_SUPPORT_SLACK, LevelsetField, RbfGrid, build_theta,
                       fit_design, hole_lattice_levelset, wendland)


class TestWendland:
    def test_frozen_values(self):
        assert wendland(0.0) == 1.0
        assert wendland(0.5) == pytest.approx(0.1875, abs=1e-15)
        assert wendland(0.25) == pytest.approx(0.6328125, abs=1e-15)
        assert wendland(1.0) == 0.0
        assert wendland(2.0) == 0.0

    def test_array_input(self):
        out = wendland(np.array([0.0, 0.5, 1.0, 3.0]))
        np.testing.assert_allclose(out, [1.0, 0.1875, 0.0, 0.0])

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            wendland(-0.1)
        with pytest.raises(ValueError):
            wendland(np.array([0.2, -1e-9]))

    @settings(max_examples=50, deadline=None)
    @given(st.floats(min_value=0.0, max_value=1.0),
           st.floats(min_value=0.0, max_value=1.0))
    def test_monotone_nonincreasing(self, r1, r2):
        # near r = 0 the true decrease ~10 r^2 drops below one ulp of 1.0,
        # so rounding may invert the order by ~2e-16
        lo, hi = min(r1, r2), max(r1, r2)
        assert wendland(lo) >= wendland(hi) - 1e-15


class TestRbfGrid:
    def test_structured_layout(self):
        g = RbfGrid.structured(2.0, 1.0, 21, 11)
        assert g.n_centers == 231
        np.testing.assert_allclose(np.diff(g.centers[:21, 0]),
                                   2.0 / (21 - 1))
        assert g.support_radius == pytest.approx(0.1 * np.sqrt(2.0))
        np.testing.assert_allclose(g.centers[0], [0.0, 0.0])
        np.testing.assert_allclose(g.centers[-1], [2.0, 1.0])

    @pytest.mark.parametrize("name", sorted(BUILTIN_PROBLEMS))
    def test_builtin_grids_pinned(self, name):
        # centers are the mesh nodes of the kernel grid, and the radius is
        # sqrt(2) times the x-spacing, rounded in that order, byte for byte
        p = BUILTIN_PROBLEMS[name]()
        g = p.build_rbf()
        nodes = structured_grid(p.width, p.height, p.rbf_nx, p.rbf_ny).nodes
        assert g.centers.shape == nodes.shape
        assert g.centers.tobytes() == nodes.tobytes()
        radius = np.sqrt(2.0) * (p.width / (p.rbf_nx - 1))
        assert np.float64(g.support_radius).tobytes() == radius.tobytes()

    def test_invalid_parameters(self):
        with pytest.raises(ConfigError):
            RbfGrid.structured(2.0, 1.0, 1, 11)
        with pytest.raises(ConfigError):
            RbfGrid.structured(-2.0, 1.0, 21, 11)

    @pytest.mark.parametrize("centers, radius", [
        (None, np.inf), (None, 0.0), (None, np.nan), (None, True),
        (None, "0.5"), ("nan", 0.7), (np.zeros((3, 3)), 0.7),
        (np.zeros((0, 2)), 0.7),
        (np.array([[0.0, 0.0], [1.5e-200, 0.0]]), 1e-200),
        (np.array([[0.0, 0.0], [0.5e160, 0.0]]), 1e160),
    ], ids=["inf", "zero", "nan", "bool", "string", "nan-center",
            "three-coordinates", "no-centers", "underflowing-radius",
            "overflowing-radius"])
    def test_refuses_what_the_kernel_matrix_cannot_serve(self, centers,
                                                          radius):
        # an infinite radius would build a kernel matrix of all ones, a zero
        # or NaN radius an empty one; a center the cell list cannot bin, or
        # no center at all, has no kernel matrix either. Below a radius of
        # 1e-150 squared distances underflow (centers 1.5 radii apart would
        # get a kernel value of 1), above 1e150 they overflow (centers half
        # a radius apart would get 0)
        base = RbfGrid.structured(2.0, 1.0, 5, 3).centers
        if centers is None:
            centers = base
        elif isinstance(centers, str):
            centers = base.copy()
            centers[4, 1] = np.nan
        with pytest.raises(ConfigError):
            RbfGrid(centers=centers, support_radius=radius)

    def test_reports_every_problem_at_once(self):
        with pytest.raises(ConfigError) as err:
            RbfGrid(centers=np.zeros((3, 3)), support_radius=-1.0)
        assert len(err.value.problems) == 2
        assert "shape (n, 2)" in err.value.problems[0]
        assert "support radius" in err.value.problems[1]


@pytest.fixture(scope="module")
def coincident():
    mesh = structured_grid(2.0, 1.0, 21, 11)
    grid = RbfGrid.structured(2.0, 1.0, 21, 11)
    return grid, mesh, build_theta(grid, mesh.nodes)


@pytest.fixture(scope="module")
def design():
    design = np.random.default_rng(7).uniform(-1, 1, 21 * 11)
    design.setflags(write=False)
    return design


@pytest.fixture
def field(design):
    # a fresh field per test: the tests move its design
    mesh = structured_grid(2.0, 1.0, 21, 11)
    grid = RbfGrid.structured(2.0, 1.0, 21, 11)
    return LevelsetField(grid, mesh.nodes, design)


class TestTheta:
    def test_shape_and_diagonal(self, coincident):
        _, _, theta = coincident
        assert theta.shape == (231, 231)
        np.testing.assert_allclose(theta.diagonal(), 1.0)

    def test_interior_row_pattern(self, coincident):
        grid, mesh, theta = coincident
        j = mesh.nearest_node((1.0, 0.5))  # interior node on the center grid
        row = theta.getrow(j)
        # self + 4 cardinal neighbours + 4 diagonal neighbours on the support
        # boundary (stored zeros)
        assert row.nnz == 9
        dists = np.linalg.norm(grid.centers[row.indices] - mesh.nodes[j], axis=1)
        on_boundary = np.isclose(dists, grid.support_radius)
        assert on_boundary.sum() == 4
        np.testing.assert_array_equal(row.data[on_boundary], 0.0)
        cardinal = np.isclose(dists, 2.0 / (21 - 1))
        expected = (1.0 - 1.0 / np.sqrt(2.0)) ** 4 * (4.0 / np.sqrt(2.0) + 1.0)
        np.testing.assert_allclose(row.data[cardinal], expected, rtol=1e-13)

    def test_corner_row_pattern(self, coincident):
        _, _, theta = coincident
        assert theta.getrow(0).nnz == 4

    def test_structural_zero_beyond_support(self, coincident):
        grid, mesh, theta = coincident
        j = mesh.nearest_node((1.0, 0.5))
        two_cells_away = mesh.nearest_node((1.2, 0.5))
        # strictly outside the support radius: no stored entry at all
        assert np.linalg.norm(grid.centers[two_cells_away] - mesh.nodes[j]) \
            > grid.support_radius
        assert two_cells_away not in theta.getrow(j).indices


@settings(max_examples=100, deadline=None)
@given(nx=st.integers(min_value=2, max_value=8),
       ny=st.integers(min_value=2, max_value=8),
       width=st.floats(min_value=0.1, max_value=10.0),
       aspect=st.one_of(st.just(None),
                        st.floats(min_value=0.2, max_value=5.0)),
       picks=st.lists(st.tuples(st.integers(min_value=0, max_value=63),
                                st.sampled_from(["on", "right", "up", "free"]),
                                st.floats(min_value=-0.2, max_value=1.2),
                                st.floats(min_value=-0.2, max_value=1.2)),
                      min_size=1, max_size=12))
def test_theta_equals_the_dense_kernel_matrix(nx, ny, width, aspect, picks):
    # points on centers (distance 0, and on square cells the diagonal
    # neighbours one radius away), one radius right of or above a center,
    # or anywhere around the domain
    height = width * (ny - 1) / (nx - 1) if aspect is None else width * aspect
    grid = RbfGrid.structured(width, height, nx, ny)
    r = grid.support_radius
    shift = {"on": (0.0, 0.0), "right": (r, 0.0), "up": (0.0, r)}
    points = np.array([
        grid.centers[i % grid.n_centers] + shift[kind] if kind in shift
        else (u * width, v * height) for i, kind, u, v in picks])
    dist = np.linalg.norm(points[:, None, :] - grid.centers[None, :, :],
                          axis=2)
    keep = dist <= r * _SUPPORT_SLACK
    rnorm = dist[keep] / r
    rnorm[rnorm >= 1.0 - 1e-12] = 1.0
    theta = build_theta(grid, points)
    assert theta.shape == (len(points), grid.n_centers)
    assert theta.has_sorted_indices
    np.testing.assert_array_equal(
        theta.indptr, np.concatenate([[0], np.cumsum(keep.sum(axis=1))]))
    np.testing.assert_array_equal(theta.indices, np.nonzero(keep)[1])
    assert theta.data.tobytes() == wendland(rnorm).tobytes()


@pytest.mark.parametrize("points", [
    [[0.5, 0.5], [np.nan, 0.5]], [[0.5, np.inf]], np.zeros((2, 3)),
    np.zeros(2), np.zeros((0, 2)),
], ids=["nan", "inf", "three-coordinates", "one-dimensional", "no-points"])
def test_build_theta_refuses_points_it_cannot_place(points):
    # a point that is not finite or not planar has no cell; no points give
    # an empty kernel matrix, which the heat sink's load cover relies on
    grid = RbfGrid.structured(2.0, 1.0, 5, 3)
    if len(np.shape(points)) == 2 and np.shape(points)[0] == 0:
        theta = build_theta(grid, points)
        assert theta.shape == (0, grid.n_centers) and theta.nnz == 0
    else:
        with pytest.raises(ValueError):
            build_theta(grid, points)


def test_theta_for_a_radius_far_below_the_center_spread():
    # cells one radius wide would number 1e100 per axis here, beyond int64
    grid = RbfGrid(centers=np.array([[0.0, 0.0], [1.0, 1.0]]),
                   support_radius=1e-100)
    theta = build_theta(grid, np.array([[5e-101, 0.0], [1.0, 1.0],
                                        [0.5, 0.5]]))
    assert theta.toarray().tolist() == [[0.1875, 0.0], [0.0, 1.0], [0.0, 0.0]]


@st.composite
def center_sets(draw):
    """Finite centers drawn anywhere in a box: a single one, some
    duplicated, or all on one horizontal or vertical line."""
    coord = st.floats(min_value=-5.0, max_value=5.0)
    centers = np.array(draw(st.lists(st.tuples(coord, coord), min_size=1,
                                     max_size=30)))
    layout = draw(st.sampled_from(["free", "duplicates", "row", "column"]))
    if layout == "duplicates":
        picks = draw(st.lists(st.integers(0, len(centers) - 1), min_size=1,
                              max_size=5))
        centers = np.concatenate([centers, centers[picks]])
    elif layout != "free":
        centers[:, int(layout == "column")] = centers[0, int(layout ==
                                                             "column")]
    return centers


@settings(max_examples=150, deadline=None)
@given(centers=center_sets(),
       scale=st.floats(min_value=0.05, max_value=3.0),
       picks=st.lists(st.tuples(st.integers(min_value=0, max_value=63),
                                st.sampled_from(["on", "right", "up", "around",
                                                 "free", "far"]),
                                st.floats(min_value=0.0, max_value=1.0),
                                st.floats(min_value=0.0, max_value=1.0)),
                      min_size=1, max_size=12))
def test_theta_equals_the_dense_kernel_matrix_for_any_centers(centers, scale,
                                                              picks):
    # the radius is 0.05 to 3 mean spacings, the square root of the centers'
    # bounding-box area per center (their extent per center on a line, 1
    # for a single point); points lie on a center, one radius from one
    # (along an axis, or at an angle), anywhere around the centers, or far
    # outside them. Below a radius of 1e-150 squared distances could
    # underflow, so such a grid is refused
    lo, span = centers.min(axis=0), np.ptp(centers, axis=0)
    n = len(centers)
    spacing = (np.sqrt(span[0] / n) * np.sqrt(span[1]) if span.min() > 0.0
               else span.max() / n if span.max() > 0.0 else 1.0)
    if scale * spacing < 1e-150:
        with pytest.raises(ConfigError):
            RbfGrid(centers=centers, support_radius=scale * spacing)
        return
    grid = RbfGrid(centers=centers, support_radius=scale * spacing)
    r = grid.support_radius
    box = span + 2.0 * r

    def point(i, kind, u, v):
        c, uv = centers[i % n], np.array([u, v])
        angle = 2.0 * np.pi * u
        return {"on": c, "right": c + (r, 0.0), "up": c + (0.0, r),
                "around": c + r * np.array([np.cos(angle), np.sin(angle)]),
                "free": lo - r + uv * box,
                "far": lo + (uv - 0.5) * 1e3 * box}[kind]

    points = np.array([point(*pick) for pick in picks])
    dist = np.linalg.norm(points[:, None, :] - centers[None, :, :], axis=2)
    keep = dist <= r * _SUPPORT_SLACK
    rnorm = dist[keep] / r
    rnorm[rnorm >= 1.0 - 1e-12] = 1.0
    theta = build_theta(grid, points)
    assert theta.shape == (len(points), n)
    assert theta.has_sorted_indices
    np.testing.assert_array_equal(
        theta.indptr, np.concatenate([[0], np.cumsum(keep.sum(axis=1))]))
    np.testing.assert_array_equal(theta.indices, np.nonzero(keep)[1])
    assert theta.data.tobytes() == wendland(rnorm).tobytes()


class TestLevelsetField:
    def test_nodal_values_match_matrix_product(self, field, design):
        expected = field.theta.toarray() @ design
        np.testing.assert_allclose(field.nodal_values, expected, atol=1e-14)

    def test_nodal_cache_identity_until_update(self, field, design):
        first = field.nodal_values
        assert field.nodal_values is first
        field.update_design(design * 0.5)
        assert field.nodal_values is not first

    def test_theta_is_kept_across_updates(self, field, design):
        theta = field.theta
        field.update_design(design * 0.5)
        assert field.theta is theta

    def test_dphi_ds_matches_finite_differences(self, field, design):
        # theta is the design derivative of the nodal values
        h = 1e-6
        rng = np.random.default_rng(3)
        m = field.theta.toarray()
        for i in rng.choice(field.grid.n_centers, size=5, replace=False):
            up, down = design.copy(), design.copy()
            up[i] += h
            down[i] -= h
            field.update_design(up)
            phi_up = field.nodal_values.copy()
            field.update_design(down)
            fd = (phi_up - field.nodal_values) / (2 * h)
            np.testing.assert_allclose(m[:, i], fd, atol=1e-9)

    def test_field_keeps_no_view_of_the_design(self, field, design):
        # the caller may reuse its array: the field keeps theta @ d alone
        d = design.copy()
        field.update_design(d)
        before = field.nodal_values.copy()
        d[:] = 0.0
        np.testing.assert_array_equal(field.nodal_values, before)

    def test_design_shape_validated(self, field):
        with pytest.raises(ValueError):
            field.update_design(np.zeros(3))

    def test_non_finite_design_rejected(self, field, design):
        before = field.nodal_values
        design = design.copy()
        design[1] = np.nan
        with pytest.raises(ValueError, match="non-finite"):
            field.update_design(design)
        assert field.nodal_values is before

    def test_uncovered_points_rejected(self):
        mesh = structured_grid(2.0, 1.0, 21, 11)
        coarse = RbfGrid.structured(2.0, 1.0, 3, 2)
        spacing = 2.0 / (3 - 1)
        grid = RbfGrid(centers=coarse.centers, support_radius=0.3 * spacing)
        with pytest.raises(ConfigError, match="outside every kernel support"):
            LevelsetField(grid, mesh.nodes, np.zeros(grid.n_centers))


class TestFit:
    def test_collocation_interpolates_at_centers(self):
        grid = RbfGrid.structured(1.0, 1.0, 11, 11)
        target = 0.3 * np.sin(grid.centers[:, 0] * 3) * \
            np.cos(grid.centers[:, 1] * 2)
        s = fit_design(grid, target)
        recovered = build_theta(grid, grid.centers) @ s
        np.testing.assert_allclose(recovered, target, atol=1e-10)

    def test_duplicate_centers_rejected(self):
        base = RbfGrid.structured(1.0, 1.0, 3, 3)
        centers = base.centers.copy()
        centers[4] = centers[0]
        bad = RbfGrid(centers=centers, support_radius=base.support_radius)
        with pytest.raises(ConfigError, match="singular"):
            fit_design(bad, np.ones(centers.shape[0]))

    def test_circle_contour_within_one_spacing(self):
        grid = RbfGrid.structured(1.0, 1.0, 21, 21)
        phi0 = lambda p: np.linalg.norm(
            np.atleast_2d(p) - [0.5, 0.5], axis=1) - 0.25
        s = fit_design(grid, phi0(grid.centers))

        def phi(points):
            return build_theta(grid, np.atleast_2d(points)) @ s

        for ang in np.linspace(0.0, 2 * np.pi, 16, endpoint=False):
            d = np.array([np.cos(ang), np.sin(ang)])
            lo, hi = 0.05, 0.45
            assert phi([0.5, 0.5] + lo * d)[0] < 0 < phi([0.5, 0.5] + hi * d)[0]
            for _ in range(50):
                mid = 0.5 * (lo + hi)
                if phi([0.5, 0.5] + mid * d)[0] < 0:
                    lo = mid
                else:
                    hi = mid
            assert abs(0.5 * (lo + hi) - 0.25) <= 1.0 / (21 - 1)


class TestInitialLevelsets:
    def test_hole_lattice_values(self):
        phi0 = hole_lattice_levelset(2.0, 1.0)
        # center hole sits at the domain center, radius 0.1
        assert phi0([[1.0, 0.5]])[0] == pytest.approx(-0.1)
        # corner: nearest hole center is (0, 0.25) at distance 0.25
        assert phi0([[0.0, 0.0]])[0] == pytest.approx(0.15)

    def test_hole_lattice_mixed_signs(self):
        phi0 = hole_lattice_levelset(2.0, 1.0)
        mesh = structured_grid(2.0, 1.0, 41, 21)
        vals = phi0(mesh.nodes)
        assert np.any(vals < 0) and np.any(vals > 0)
        # holes occupy well under half of the domain
        assert np.mean(vals < 0) < 0.35
