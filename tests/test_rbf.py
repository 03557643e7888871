import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from igtop.errors import ConfigError
from igtop.mesh import structured_grid
from igtop.rbf import (LevelsetField, RbfGrid, build_theta, fit_design,
                       fit_initial_design, hole_lattice_levelset,
                       uniform_levelset, wendland)


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
        assert g.spacing == pytest.approx(0.1)
        assert g.support_radius == pytest.approx(0.1 * np.sqrt(2.0))
        np.testing.assert_allclose(g.centers[0], [0.0, 0.0])
        np.testing.assert_allclose(g.centers[-1], [2.0, 1.0])

    def test_invalid_parameters(self):
        with pytest.raises(ConfigError):
            RbfGrid.structured(2.0, 1.0, 1, 11)
        with pytest.raises(ConfigError):
            RbfGrid.structured(-2.0, 1.0, 21, 11)
        with pytest.raises(ConfigError):
            RbfGrid.structured(2.0, 1.0, 21, 11, support_factor=0.0)


@pytest.fixture(scope="module")
def coincident():
    mesh = structured_grid(2.0, 1.0, 21, 11)
    grid = RbfGrid.structured(2.0, 1.0, 21, 11)
    return grid, mesh, build_theta(grid, mesh.nodes)


@pytest.fixture(scope="module")
def field():
    mesh = structured_grid(2.0, 1.0, 21, 11)
    grid = RbfGrid.structured(2.0, 1.0, 21, 11)
    rng = np.random.default_rng(7)
    return LevelsetField(grid, mesh.nodes, rng.uniform(-1, 1, grid.n_centers))


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
        cardinal = np.isclose(dists, grid.spacing)
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


class TestLevelsetField:
    def test_nodal_values_match_matrix_product(self, field):
        expected = field.theta.toarray() @ field.design
        np.testing.assert_allclose(field.nodal_values, expected, atol=1e-14)

    def test_nodal_cache_identity_until_update(self, field):
        first = field.nodal_values
        assert field.nodal_values is first
        field.update_design(field.design * 0.5)
        assert field.nodal_values is not first

    def test_dphi_ds_is_aliased(self, field):
        assert field.dphi_ds() is field.theta
        assert field.dphi_ds() is field.dphi_ds()

    def test_dphi_ds_matches_finite_differences(self, field):
        h = 1e-6
        rng = np.random.default_rng(3)
        m = field.dphi_ds().toarray()
        base = field.design.copy()
        for i in rng.choice(field.grid.n_centers, size=5, replace=False):
            up, down = base.copy(), base.copy()
            up[i] += h
            down[i] -= h
            field.update_design(up)
            phi_up = field.nodal_values.copy()
            field.update_design(down)
            fd = (phi_up - field.nodal_values) / (2 * h)
            np.testing.assert_allclose(m[:, i], fd, atol=1e-9)
        field.update_design(base)

    def test_design_shape_validated(self, field):
        with pytest.raises(ValueError):
            field.update_design(np.zeros(3))

    def test_non_finite_design_rejected(self, field):
        before = field.nodal_values
        design = field.design.copy()
        design[1] = np.nan
        with pytest.raises(ValueError, match="non-finite"):
            field.update_design(design)
        assert field.nodal_values is before

    def test_uncovered_points_rejected(self):
        mesh = structured_grid(2.0, 1.0, 21, 11)
        grid = RbfGrid.structured(2.0, 1.0, 3, 2, support_factor=0.3)
        with pytest.raises(ConfigError, match="outside every kernel support"):
            LevelsetField(grid, mesh.nodes)


class TestFit:
    def test_collocation_interpolates_at_centers(self):
        grid = RbfGrid.structured(1.0, 1.0, 11, 11)
        target = 0.3 * np.sin(grid.centers[:, 0] * 3) * \
            np.cos(grid.centers[:, 1] * 2)
        s = fit_design(grid, target)
        recovered = build_theta(grid, grid.centers) @ s
        np.testing.assert_allclose(recovered, target, atol=1e-10)

    def test_clamped_to_bounds(self):
        grid = RbfGrid.structured(1.0, 1.0, 5, 5)
        s = fit_design(grid, np.full(grid.n_centers, 100.0))
        assert np.all(s <= 1.0) and np.all(s >= -1.0)
        assert np.max(s) == 1.0

    def test_duplicate_centers_rejected(self):
        base = RbfGrid.structured(1.0, 1.0, 3, 3)
        centers = base.centers.copy()
        centers[4] = centers[0]
        bad = RbfGrid(centers=centers, spacing=base.spacing,
                      support_radius=base.support_radius)
        with pytest.raises(ConfigError, match="singular"):
            fit_design(bad, np.ones(centers.shape[0]))

    def test_circle_contour_within_one_spacing(self):
        grid = RbfGrid.structured(1.0, 1.0, 21, 21)
        phi0 = lambda p: np.linalg.norm(
            np.atleast_2d(p) - [0.5, 0.5], axis=1) - 0.25
        s = fit_initial_design(grid, phi0)

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
            assert abs(0.5 * (lo + hi) - 0.25) <= grid.spacing


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

    def test_uniform(self):
        phi0 = uniform_levelset(0.7)
        np.testing.assert_allclose(phi0(np.zeros((4, 2))), 0.7)
