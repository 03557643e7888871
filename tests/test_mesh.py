import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from igtop.errors import ConfigError
from igtop.mesh import Mesh, structured_grid


@pytest.fixture(scope="module")
def grid_21x11():
    return structured_grid(2.0, 1.0, 21, 11)


def test_node_and_element_counts(grid_21x11):
    assert grid_21x11.n_nodes == 21 * 11 == 231
    assert grid_21x11.n_elements == 2 * 20 * 10 == 400


def test_row_major_numbering(grid_21x11):
    # node (i, j) sits at index j*nx + i
    for i, j in [(0, 0), (20, 0), (0, 10), (7, 3)]:
        idx = j * 21 + i
        np.testing.assert_allclose(grid_21x11.nodes[idx], [0.1 * i, 0.1 * j],
                                   atol=1e-14)


def test_cell_split_diagonal(grid_21x11):
    # first cell: lower triangle (n00, n10, n11), upper (n00, n11, n01)
    np.testing.assert_array_equal(grid_21x11.elements[0], [0, 1, 22])
    np.testing.assert_array_equal(grid_21x11.elements[1], [0, 22, 21])


def test_areas_positive_and_uniform(grid_21x11):
    areas = grid_21x11.areas
    assert np.all(areas > 0)
    np.testing.assert_allclose(areas, 0.005, rtol=1e-12)
    np.testing.assert_allclose(areas.sum(), 2.0, rtol=1e-12)


def test_boundary_sets(grid_21x11):
    b = grid_21x11.boundary
    assert len(b["left"]) == len(b["right"]) == 11
    assert len(b["bottom"]) == len(b["top"]) == 21
    assert np.all(grid_21x11.nodes[b["left"], 0] == 0.0)
    np.testing.assert_allclose(grid_21x11.nodes[b["right"], 0], 2.0)
    assert np.all(grid_21x11.nodes[b["bottom"], 1] == 0.0)
    np.testing.assert_allclose(grid_21x11.nodes[b["top"], 1], 1.0)
    # ordered along each side
    assert np.all(np.diff(grid_21x11.nodes[b["bottom"], 0]) > 0)
    assert np.all(np.diff(grid_21x11.nodes[b["left"], 1]) > 0)


def test_nearest_node_exact_and_tie(grid_21x11):
    assert grid_21x11.nearest_node((0.3, 0.2)) == 2 * 21 + 3
    # midpoint of the first bottom edge: tie between nodes 0 and 1 -> lowest
    assert grid_21x11.nearest_node((0.05, 0.0)) == 0


def test_hat_gradients_unit_triangle():
    nodes = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
    elems = np.array([[0, 1, 2]])
    m = Mesh(nodes=nodes, elements=elems)
    np.testing.assert_allclose(m.hat_gradients[0],
                               [[-1.0, -1.0], [1.0, 0.0], [0.0, 1.0]],
                               atol=1e-14)


def test_hat_gradients_sum_to_zero(grid_21x11):
    g = grid_21x11.hat_gradients
    np.testing.assert_allclose(g.sum(axis=1), 0.0, atol=1e-12)


def test_acceptance_scale_mesh():
    m = structured_grid(3.0, 1.0, 151, 51)
    assert m.n_nodes == 7701
    assert m.n_elements == 15000
    np.testing.assert_allclose(m.areas.sum(), 3.0, rtol=1e-12)


def test_invalid_parameters_aggregate_errors():
    with pytest.raises(ConfigError, match="at least 2"):
        structured_grid(1.0, 1.0, 1, 5)
    with pytest.raises(ConfigError, match="positive"):
        structured_grid(0.0, 1.0, 3, 3)
    with pytest.raises(ConfigError) as err:
        structured_grid(-1.0, 1.0, 1, 1)
    assert "positive" in str(err.value) and "at least 2" in str(err.value)
    assert len(err.value.problems) == 2  # one message per fault


@pytest.mark.parametrize("args", [
    (float("inf"), 1.0, 3, 3), ("a", 1.0, 3, 3), (True, 1.0, 3, 3),
    (1.0, 1.0, 2.5, 3), (1.0, 1.0, 3, "3"), (1.0, 1.0, 3, 3.0)],
    ids=["width-inf", "width-string", "width-bool", "nx-fraction",
         "ny-string", "ny-float"])
def test_parameters_follow_the_number_rule(args):
    # an infinite extent used to give NaN nodes, a string or a fractional
    # count a bare TypeError
    with pytest.raises(ConfigError):
        structured_grid(*args)


@settings(max_examples=25, deadline=None)
@given(
    nx=st.integers(min_value=2, max_value=12),
    ny=st.integers(min_value=2, max_value=12),
    width=st.floats(min_value=0.1, max_value=10.0),
    height=st.floats(min_value=0.1, max_value=10.0),
)
def test_area_tiling_property(nx, ny, width, height):
    m = structured_grid(width, height, nx, ny)
    assert np.all(m.areas > 0)
    np.testing.assert_allclose(m.areas.sum(), width * height, rtol=1e-10)
