from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import oracles
from igtop.driver import _Workspace, cantilever, heat_sink, mbb
from igtop.enrich import (CUT, MATERIAL, VOID, build_enriched_model,
                          intersect_edge, snap_nodal_levelset)
from igtop.mesh import Mesh, structured_grid

DATA = Path(__file__).resolve().parent / "data"


def single_triangle():
    nodes = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
    return Mesh(nodes=nodes, elements=np.array([[0, 1, 2]]))


class TestSnap:
    def test_zeros_become_small_positive(self):
        phi = np.array([0.0, 1.0, -2.0])
        out = snap_nodal_levelset(phi)
        assert out[0] == 2e-10
        assert out[1] == 1.0 and out[2] == -2.0

    def test_tiny_values_pushed_to_positive_eps(self):
        phi = np.array([1e-25, -1e-25, 4.0])
        out = snap_nodal_levelset(phi)
        assert out[0] == out[1] == 4e-10

    def test_all_zero_vector(self):
        out = snap_nodal_levelset(np.zeros(5))
        assert np.all(out > 0)

    def test_idempotent(self):
        rng = np.random.default_rng(0)
        phi = rng.normal(size=50)
        phi[::7] = 0.0
        once = snap_nodal_levelset(phi)
        np.testing.assert_array_equal(snap_nodal_levelset(once), once)

    @pytest.mark.parametrize("value", [np.inf, -np.inf, np.nan])
    def test_non_finite_entry_rejected(self, value):
        # an infinite scale used to snap every entry to +inf
        phi = np.r_[-np.ones(3), value, -np.ones(11)]
        with pytest.raises(ValueError, match="not finite at node 3$"):
            snap_nodal_levelset(phi)

    @settings(max_examples=50, deadline=None)
    @given(st.lists(st.floats(min_value=-1e6, max_value=1e6), min_size=1,
                    max_size=30))
    def test_no_entry_below_eps(self, values):
        phi = np.array(values)
        out = snap_nodal_levelset(phi)
        eps = 1e-10 * max(np.max(np.abs(phi)), 1e-30)
        assert np.all(np.abs(out) >= eps)
        keep = np.abs(phi) >= eps
        np.testing.assert_array_equal(out[keep], phi[keep])


class TestIntersectEdge:
    def test_frozen_quarter_point(self):
        point = intersect_edge([0.0, 0.0], [1.0, 0.0], -1.0, 3.0)
        np.testing.assert_allclose(point, [0.25, 0.0])

    def test_orientation_swap_gives_same_point(self):
        p1 = intersect_edge([0.2, 0.1], [0.9, 0.8], -0.7, 0.3)
        p2 = intersect_edge([0.9, 0.8], [0.2, 0.1], 0.3, -0.7)
        np.testing.assert_allclose(p1, p2, atol=1e-15)
        np.testing.assert_allclose(p1, [0.69, 0.59], rtol=1e-14)

    def test_broadcasts_over_edges(self):
        rng = np.random.default_rng(5)
        xj, xk = rng.uniform(-1.0, 1.0, (2, 6, 2))
        pj, pk = -rng.uniform(0.1, 2.0, 6), rng.uniform(0.1, 2.0, 6)
        points = intersect_edge(xj, xk, pj, pk)
        for i in range(6):
            point = intersect_edge(xj[i], xk[i], pj[i], pk[i])
            np.testing.assert_array_equal(points[i], point)

    def test_uncut_edge_rejected(self):
        with pytest.raises(ValueError, match="opposite signs"):
            intersect_edge([0, 0], [1, 0], 1.0, 2.0)
        with pytest.raises(ValueError, match="opposite signs"):
            intersect_edge([0, 0], [1, 0], 0.0, 2.0)


class TestClassification:
    def test_all_material(self):
        mesh = structured_grid(1.0, 1.0, 4, 4)
        model = build_enriched_model(mesh, np.ones(mesh.n_nodes))
        assert model.n_enriched == 0
        assert model.n_cut == 0
        assert not model.integration
        assert np.all(model.element_state == MATERIAL)
        assert model.material_volume() == pytest.approx(1.0)

    def test_all_void(self):
        mesh = structured_grid(1.0, 1.0, 4, 4)
        model = build_enriched_model(mesh, -np.ones(mesh.n_nodes))
        assert np.all(model.element_state == VOID)
        assert model.material_volume() == 0.0

    def test_exact_zero_rejected(self):
        mesh = structured_grid(1.0, 1.0, 4, 4)
        phi = np.ones(mesh.n_nodes)
        phi[5] = 0.0
        with pytest.raises(ValueError, match="snap"):
            build_enriched_model(mesh, phi)

    @pytest.mark.parametrize("shape", [(15,), (17,), (16, 1)])
    def test_levelset_of_the_wrong_shape_rejected(self, shape):
        mesh = structured_grid(1.0, 1.0, 4, 4)
        with pytest.raises(ValueError, match=r"levelset has shape .*, "
                           r"expected \(16,\)$"):
            build_enriched_model(mesh, np.ones(shape))

    @pytest.mark.parametrize("value", [np.inf, -np.inf, np.nan])
    def test_non_finite_entry_rejected(self, value):
        # it used to fail the orientation assertion, or pass silently wrong
        # without assertions
        mesh = structured_grid(2.0, 1.0, 5, 3)
        phi = mesh.nodes[:, 0] - 0.7
        phi[6] = value
        with pytest.raises(ValueError, match="not finite at node 6$"):
            build_enriched_model(mesh, phi)


class TestSingleCutTriangle:
    """Unit right triangle with phi = (-1, 1, 1): a fully worked example."""

    @pytest.fixture(scope="class")
    @staticmethod
    def model():
        return build_enriched_model(single_triangle(),
                                    np.array([-1.0, 1.0, 1.0]))

    def test_two_enriched_nodes_on_cut_edges(self, model):
        assert model.n_enriched == 2
        np.testing.assert_array_equal(model.enr_edges, [[0, 1], [0, 2]])
        np.testing.assert_allclose(model.enr_coords, [[0.5, 0.0], [0.0, 0.5]])

    def test_three_integration_elements_tile_parent(self, model):
        assert len(model.integration) == 3
        total = sum(ie.area for ie in model.integration)
        assert total == pytest.approx(0.5, abs=1e-15)
        assert all(ie.area > 0 for ie in model.integration)

    def test_frozen_tiling_layout(self, model):
        # lone negative vertex 0: void corner triangle (v0, e0, e1), then the
        # quad splits along its diagonal through node 1 (tie -> lower index)
        ids = [ie.vertex_ids for ie in model.integration]
        assert ids == [(0, 3, 4), (3, 1, 4), (1, 2, 4)]
        mats = [ie.material for ie in model.integration]
        assert mats == [False, True, True]
        np.testing.assert_allclose(model.integration[0].area, 0.125)
        np.testing.assert_allclose(model.integration[1].area, 0.125)
        np.testing.assert_allclose(model.integration[2].area, 0.25)

    def test_material_volume(self, model):
        assert model.material_volume() == pytest.approx(0.375)

    def test_enrichment_values(self, model):
        corner, quad1, quad2 = model.integration
        # at an enriched node its own enrichment is 1, the other 0
        np.testing.assert_allclose(
            oracles.enrichment_values(quad1, [1, 0, 0]), [1.0, 0.0])
        # at original nodes every enrichment vanishes
        np.testing.assert_allclose(
            oracles.enrichment_values(quad1, [0, 1, 0]), [0.0, 0.0])
        np.testing.assert_allclose(
            oracles.enrichment_values(corner, [1, 0, 0]), [0.0, 0.0])
        # centroid of an element with both enriched vertices
        np.testing.assert_allclose(
            oracles.enrichment_values(quad1, [1 / 3, 1 / 3, 1 / 3]),
            [1 / 3, 1 / 3])
        # element containing only the second enriched node
        np.testing.assert_allclose(
            oracles.enrichment_values(quad2, [1 / 3, 1 / 3, 1 / 3]),
            [0.0, 1 / 3])

    def test_centroid_shape(self, model):
        # tile centroids (1/6, 1/6), (1/2, 1/6) and (1/3, 1/2): the parent
        # hats there, then a third at each enriched vertex of the tile
        np.testing.assert_allclose(model.centroid_shape, [
            [2 / 3, 1 / 6, 1 / 6, 1 / 3, 1 / 3],
            [1 / 3, 1 / 2, 1 / 6, 1 / 3, 1 / 3],
            [1 / 6, 1 / 3, 1 / 2, 0.0, 1 / 3]], rtol=0.0, atol=1e-15)

    def test_parent_hats_partition_of_unity(self, model):
        rng = np.random.default_rng(1)
        for ie in model.integration:
            w = rng.dirichlet(np.ones(3))
            hats = oracles.parent_hats(model, ie, w)
            assert hats.sum() == pytest.approx(1.0, abs=1e-12)
            assert np.all(hats >= -1e-12)
        # at original vertex 1 of the first quad piece: parent hat of node 1
        np.testing.assert_allclose(
            oracles.parent_hats(model, model.integration[1], [0, 1, 0]),
            [0.0, 1.0, 0.0], atol=1e-14)


class TestStructuredInterface:
    """Vertical interface x = 0.35 on a 2 x 1 grid."""

    @pytest.fixture(scope="class")
    @staticmethod
    def model():
        mesh = structured_grid(2.0, 1.0, 21, 11)
        phi = snap_nodal_levelset(mesh.nodes[:, 0] - 0.35)
        return build_enriched_model(mesh, phi), mesh

    def test_cut_band(self, model):
        m, mesh = model
        centroids = mesh.nodes[mesh.elements].mean(axis=1)
        cut = m.element_state == CUT
        assert np.all(cut == ((centroids[:, 0] > 0.3) & (centroids[:, 0] < 0.4)))
        assert m.n_cut == 20  # two triangles per cell, ten cells tall

    def test_enriched_nodes_sit_on_interface(self, model):
        m, _ = model
        np.testing.assert_allclose(m.enr_coords[:, 0], 0.35, atol=1e-14)

    def test_shared_edge_shares_enriched_node(self, model):
        m, mesh = model
        # 40 parent slots; 10 diagonals and 9 interior horizontal edges are
        # each shared by two parents; the two boundary horizontals are not
        assert m.parent_slots.shape == (20, 2)
        counts = np.bincount(m.parent_slots.ravel(), minlength=m.n_enriched)
        assert m.n_enriched == 21
        assert np.sum(counts == 2) == 19
        assert np.sum(counts == 1) == 2

    def test_per_parent_tiling(self, model):
        m, mesh = model
        sums = {}
        for ie in m.integration:
            sums[ie.parent] = sums.get(ie.parent, 0.0) + ie.area
        for parent, total in sums.items():
            assert total == pytest.approx(mesh.areas[parent], abs=1e-14)

    def test_material_volume_matches_geometry(self, model):
        m, _ = model
        assert m.material_volume() == pytest.approx((2.0 - 0.35) * 1.0,
                                                    abs=1e-12)

    def test_deterministic_rebuild(self, model):
        m, mesh = model
        again = build_enriched_model(mesh, m.phi)
        np.testing.assert_array_equal(again.enr_coords, m.enr_coords)
        np.testing.assert_array_equal(again.cut_parents, m.cut_parents)
        np.testing.assert_array_equal(again.parent_slots, m.parent_slots)
        assert len(again.integration) == len(m.integration)
        for a, b in zip(again.integration, m.integration):
            assert a.vertex_ids == b.vertex_ids
            assert a.enr_slots == b.enr_slots
            np.testing.assert_array_equal(a.coords, b.coords)
            assert a.area == b.area and a.material == b.material


@settings(max_examples=100, deadline=None)
@given(st.tuples(
    st.floats(min_value=0.01, max_value=5.0),
    st.floats(min_value=0.01, max_value=5.0),
    st.floats(min_value=0.01, max_value=5.0)),
    st.integers(min_value=0, max_value=2),
    st.booleans())
def test_single_element_tiling_property(mags, lone_vertex, lone_negative):
    phi = np.array(mags) * (-1.0 if lone_negative else 1.0)
    phi[lone_vertex] *= -1.0
    model = build_enriched_model(single_triangle(), phi)
    assert model.n_cut == 1
    assert len(model.integration) == 3
    areas = np.array([ie.area for ie in model.integration])
    assert np.all(areas > 0)
    assert areas.sum() == pytest.approx(0.5, rel=1e-12)
    mats = [ie.material for ie in model.integration]
    # the lone-sign corner yields one piece, the quad two
    lone_mat = phi[lone_vertex] > 0
    assert mats.count(lone_mat) == 1 and mats.count(not lone_mat) == 2
    expected_vol = sum(ie.area for ie in model.integration if ie.material)
    assert model.material_volume() == pytest.approx(expected_vol)


TILE_FIELDS = ("parent", "vertex_ids", "enr_slots", "coords", "material",
               "area")
MODEL_FIELDS = ("phi", "element_state", "enr_edges", "enr_coords",
                "cut_parents", "parent_slots")


def assert_matches_oracle(mesh, phi):
    """The package's model equals the oracle's in every field's dtype,
    shape and bytes."""
    new = build_enriched_model(mesh, phi)
    ref = oracles.build_enriched_model(mesh, phi)
    pairs = [(f, getattr(new, f), getattr(ref, f)) for f in MODEL_FIELDS]
    pairs += [("tiles." + f, getattr(new.tiles, f), getattr(ref.tiles, f))
              for f in TILE_FIELDS]
    for name, a, b in pairs:
        assert (a.dtype, a.shape) == (b.dtype, b.shape), name
        assert a.tobytes() == b.tobytes(), name
    return new


def benchmark_levelset(problem, design=None):
    ws = _Workspace(problem, design)
    return ws.mesh, snap_nodal_levelset(ws.field.nodal_values)


class TestMatchesOracle:
    """The table-driven construction against the earlier one in
    ``tests/oracles.py``."""

    @pytest.mark.parametrize("problem, design", [
        (cantilever, None), (mbb, None), (heat_sink, None),
        (cantilever, "cantilever_iter80.txt"),
        (cantilever, "cantilever_clamp_crossing.txt"),
        (heat_sink, "heat_sink_iter40.txt")])
    def test_benchmark_designs(self, problem, design):
        designs = [None] if design is None \
            else np.atleast_2d(np.loadtxt(DATA / design))
        for s in designs:
            model = assert_matches_oracle(*benchmark_levelset(problem(), s))
            assert model.n_cut > 0

    @pytest.mark.parametrize("mags", [(1.0, 1.0, 1.0), (0.3, 2.0, 0.7)])
    @pytest.mark.parametrize("code", range(1, 7))
    def test_every_cut_sign_code(self, code, mags):
        # code p0 + 2 p1 + 4 p2 with p_l = (phi > 0) at local vertex l;
        # equal magnitudes make the quad's diagonals tie
        signs = np.where((code >> np.arange(3)) & 1, 1.0, -1.0)
        model = assert_matches_oracle(single_triangle(), signs * mags)
        assert model.n_cut == 1


@settings(max_examples=60, deadline=None)
@given(st.lists(st.sampled_from([-2.0, -1.0, -0.5, 0.5, 1.0, 2.0])
                | st.floats(min_value=0.01, max_value=3.0)
                | st.floats(min_value=-3.0, max_value=-0.01),
                min_size=20, max_size=20))
@example([1.0] * 20)
@example([-0.5] * 20)
def test_matches_oracle_on_small_grids(values):
    # repeated magnitudes put enriched nodes at equal fractions along their
    # edges, so the quads' diagonals tie exactly
    assert_matches_oracle(structured_grid(1.5, 1.0, 5, 4), np.array(values))
