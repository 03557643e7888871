import dataclasses
import gc
import tracemalloc
import weakref
from pathlib import Path

import numpy as np
import pytest
from scipy import sparse
from scipy.sparse.csgraph import reverse_cuthill_mckee
from scipy.sparse.linalg import splu

from igtop.driver import _Workspace, cantilever, heat_sink, mbb, run
from igtop.enrich import build_enriched_model, snap_nodal_levelset
from igtop.errors import ConfigError, SolverError
import igtop.fem
from igtop.fem import (_BLOCK_ROWS, CUT, MATERIAL, Assembler, BandBuffer,
                       Conduction,
                       LoadCase, MaterialPair, PlaneStressElastic, _product,
                       build_b,
                       compliance, cut_parent_dofs,
                       integration_element_stiffness, node_dofs, solve_system)
from igtop.mesh import (DL, Mesh, adj2, cofactor_hat_gradients,
                        structured_grid, tri_jacobian)
import oracles
from oracles import edge_traction_loads, enrichment_values, parent_hats

DATA = Path(__file__).resolve().parent / "data"
UNIT_TRI = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])


class TestElementKernels:
    def test_unit_triangle_jacobian(self):
        np.testing.assert_allclose(tri_jacobian(UNIT_TRI), np.eye(2))
        np.testing.assert_allclose(cofactor_hat_gradients(UNIT_TRI),
                                   [[-1, -1], [1, 0], [0, 1]])

    def test_conduction_stiffness_unit_triangle(self):
        # hand-integrated: k = A * kappa * G G^T on the unit right triangle
        mesh = Mesh(nodes=UNIT_TRI, elements=np.array([[0, 1, 2]]))
        pair = MaterialPair(Conduction(), 1.0, 0.5)
        model = build_enriched_model(mesh, np.ones(3))
        k, _ = Assembler(model.mesh, pair, LoadCase()).assemble(model)
        expected = np.array([[1.0, -0.5, -0.5],
                             [-0.5, 0.5, 0.0],
                             [-0.5, 0.0, 0.5]])
        np.testing.assert_allclose(k.toarray(), expected, atol=1e-14)

    def test_elastic_stiffness_rigid_modes(self):
        mesh = Mesh(nodes=UNIT_TRI, elements=np.array([[0, 1, 2]]))
        pair = MaterialPair(PlaneStressElastic(0.3), 1.0, 1e-6)
        model = build_enriched_model(mesh, np.ones(3))
        k, _ = Assembler(model.mesh, pair, LoadCase()).assemble(model)
        k = k.toarray()
        np.testing.assert_allclose(k, k.T, atol=1e-14)
        for mode in ([1, 0, 1, 0, 1, 0],
                     [0, 1, 0, 1, 0, 1],
                     [0, 0, 0, 1, -1, 0]):  # rotation (-y, x) at the vertices
            np.testing.assert_allclose(k @ np.array(mode, dtype=float), 0.0,
                                       atol=1e-14)

    def test_build_b_shapes(self):
        grads = np.arange(10.0).reshape(5, 2)
        assert build_b(grads, 1).shape == (2, 5)
        b = build_b(grads, 2)
        assert b.shape == (3, 10)
        # first slot: dN/dx = 0, dN/dy = 1
        np.testing.assert_allclose(b[:, 0], [0.0, 0.0, 1.0])
        np.testing.assert_allclose(b[:, 1], [0.0, 1.0, 0.0])

    def test_node_dofs(self):
        np.testing.assert_array_equal(node_dofs([2, 5], 2), [4, 5, 10, 11])
        np.testing.assert_array_equal(node_dofs([2, 5], 2, component=1), [5, 11])
        np.testing.assert_array_equal(node_dofs([2, 5], 1), [2, 5])


class TestMaterialPair:
    def test_orderings_enforced(self):
        with pytest.raises(ConfigError, match="modulus"):
            MaterialPair(Conduction(), 0.01, 1.0)
        with pytest.raises(ConfigError, match="modulus"):
            MaterialPair(Conduction(), 1.0, -1.0)

    def test_out_of_range_values(self):
        # the void phase is a modulus of the material's physics, so a
        # physics type or Poisson ratio can no longer differ between phases
        for make, fragment in [
                (lambda: MaterialPair("elastic", 1.0, 1e-6), "physics must"),
                (lambda: MaterialPair(Conduction(), np.inf, 0.01), "modulus"),
                (lambda: MaterialPair(Conduction(), 1.0, np.nan), "modulus"),
                (lambda: MaterialPair(Conduction(), "1.0", 0.01), "modulus"),
                (lambda: MaterialPair(Conduction(), True, 0.5), "modulus"),
                (lambda: PlaneStressElastic(1.0), "Poisson"),
                (lambda: PlaneStressElastic(-1.5), "Poisson"),
                (lambda: PlaneStressElastic(-1.0), "Poisson"),
                (lambda: PlaneStressElastic(np.nan), "Poisson"),
                (lambda: PlaneStressElastic("0.3"), "Poisson")]:
            with pytest.raises(ConfigError, match=fragment):
                make()

    def test_range_ends_are_valid(self):
        assert PlaneStressElastic(0.5).d_unit()[2, 2] == pytest.approx(1 / 3)
        assert MaterialPair(PlaneStressElastic(-0.99), 2, 2).field_dim == 2


def heat_bar(nx=5, ny=5, interface=None):
    """Unit-square conduction bar: u=0 on the left, unit flux on the right."""
    mesh = structured_grid(1.0, 1.0, nx, ny)
    if interface is None:
        phi = np.ones(mesh.n_nodes)
    else:
        phi = snap_nodal_levelset(mesh.nodes[:, 0] - interface)
    pair = MaterialPair(Conduction(), 1.0, 0.01)
    loads = LoadCase(point_loads=edge_traction_loads(mesh, "right", [1.0]))
    model = build_enriched_model(mesh, phi)
    fixed = node_dofs(mesh.boundary["left"], 1)
    return mesh, model, pair, loads, fixed


class TestUniformBar:
    def test_linear_temperature_field(self):
        mesh, model, pair, loads, fixed = heat_bar()
        k, f = Assembler(model.mesh, pair, loads).assemble(model)
        res = solve_system(k, f, fixed)
        np.testing.assert_allclose(res.u, mesh.nodes[:, 0], atol=1e-12)
        assert res.residual <= 1e-10
        assert compliance(res.u, f) == pytest.approx(1.0, rel=1e-12)


class TestBiMaterialBar:
    """Interface at x = 0.4; the exact solution is piecewise linear and lies
    in the enriched space, so nodal values are exact to solver precision."""

    def exact_heat(self, x):
        return np.where(x <= 0.4, x / 0.01, 40.0 + (x - 0.4))

    def test_heat_nodal_exactness(self):
        mesh, model, pair, loads, fixed = heat_bar(interface=0.4)
        assert model.n_enriched > 0
        k, f = Assembler(model.mesh, pair, loads).assemble(model)
        res = solve_system(k, f, fixed)
        exact = self.exact_heat(mesh.nodes[:, 0])
        scale = np.max(np.abs(exact))
        err = np.max(np.abs(res.u[:mesh.n_nodes] - exact)) / scale
        assert err <= 1e-9
        # the reproduced field at every interface node equals the exact value
        for m, (j, kk) in enumerate(model.enr_edges):
            t = model.phi[j] / (model.phi[j] - model.phi[kk])
            standard = (1 - t) * res.u[j] + t * res.u[kk]
            alpha = res.u[mesh.n_nodes + m]
            assert standard + alpha == pytest.approx(40.0, rel=1e-9)
        assert compliance(res.u, f) == pytest.approx(40.6, rel=1e-9)

    def test_elastic_nodal_exactness(self):
        # the 1e6 modulus contrast saturates double precision near 1e-9, so
        # the exactness study assembles in extended precision
        mesh = structured_grid(1.0, 1.0, 5, 5)
        phi = snap_nodal_levelset(mesh.nodes[:, 0] - 0.4)
        model = build_enriched_model(mesh, phi)
        pair = MaterialPair(PlaneStressElastic(0.0), 1.0, 1e-6)
        loads = LoadCase(point_loads=edge_traction_loads(
            mesh, "right", [1.0, 0.0], dtype=np.longdouble))
        fixed = node_dofs(mesh.boundary["left"], 2)
        k, f = Assembler(model.mesh, pair, loads,
                         dtype=np.longdouble).assemble(model)
        res = solve_system(k, f, fixed)
        x = mesh.nodes[:, 0]
        exact_ux = np.where(x <= 0.4, 1e6 * x, 4e5 + (x - 0.4))
        ux = res.u[0:2 * mesh.n_nodes:2]
        uy = res.u[1:2 * mesh.n_nodes:2]
        scale = np.max(np.abs(exact_ux))
        assert np.max(np.abs(ux - exact_ux)) / scale <= 1e-9
        assert np.max(np.abs(uy)) / scale <= 1e-9


class TestAssembler:
    def test_reuse_matches_one_shot(self):
        mesh, model, pair, loads, _ = heat_bar(interface=0.37)
        asm = Assembler(mesh, pair, loads)
        k1, f1 = asm.assemble(model)
        k2, f2 = Assembler(model.mesh, pair, loads).assemble(model)
        assert (k1 - k2).nnz == 0 or np.max(np.abs((k1 - k2).data)) < 1e-15
        np.testing.assert_array_equal(f1, f2)
        # rebuild with a different interface: same assembler still valid
        phi = snap_nodal_levelset(mesh.nodes[:, 0] - 0.61)
        model2 = build_enriched_model(mesh, phi)
        k3, _ = asm.assemble(model2)
        assert k3.shape[0] == mesh.n_nodes + model2.n_enriched

    def test_stiffness_symmetric_on_cut_model(self):
        _, model, pair, loads, _ = heat_bar(interface=0.4)
        k, _ = Assembler(model.mesh, pair, loads).assemble(model)
        asym = np.abs((k - k.T).data)
        assert asym.size == 0 or asym.max() <= 1e-12

    def test_point_load_lands_on_dof(self):
        mesh = structured_grid(1.0, 1.0, 3, 3)
        pair = MaterialPair(PlaneStressElastic(0.3), 1.0, 1e-6)
        loads = LoadCase(point_loads=[(4, 1, -2.5)])
        model = build_enriched_model(mesh, np.ones(mesh.n_nodes))
        _, f = Assembler(model.mesh, pair, loads).assemble(model)
        assert f[9] == -2.5
        assert np.count_nonzero(f) == 1

    @pytest.mark.parametrize("dtype", [int, complex, np.float16, np.float32])
    def test_refuses_a_dtype_it_cannot_serve(self, dtype):
        ws = _Workspace(cantilever(9, 5))
        with pytest.raises(ValueError, match="float64 or longdouble"):
            Assembler(ws.mesh, ws.problem.pair, ws.loads, dtype=dtype)

    def test_body_load_total_matches_domain(self):
        mesh, model, pair, _, _ = heat_bar(interface=0.4)
        loads = LoadCase(body=[1.0])
        _, f = Assembler(model.mesh, pair, loads).assemble(model)
        # standard entries integrate the source exactly; enrichment rows add
        # only interface detail
        assert f[:mesh.n_nodes].sum() == pytest.approx(1.0, rel=1e-12)


class TestSolve:
    def test_unconstrained_system_reports_rigid_mode(self):
        _, model, pair, loads, _ = heat_bar()
        k, f = Assembler(model.mesh, pair, loads).assemble(model)
        with pytest.raises(SolverError, match="rigid|singular|factorization"):
            solve_system(k, f, fixed_dofs=[])

    def test_fixed_dofs_honoured(self):
        mesh, model, pair, loads, fixed = heat_bar(interface=0.4)
        k, f = Assembler(model.mesh, pair, loads).assemble(model)
        res = solve_system(k, f, fixed)
        np.testing.assert_array_equal(res.u[fixed], 0.0)

    def test_out_of_range_fixed_dof(self):
        _, model, pair, loads, _ = heat_bar()
        k, f = Assembler(model.mesh, pair, loads).assemble(model)
        with pytest.raises(ValueError):
            solve_system(k, f, fixed_dofs=[10_000])

    @pytest.mark.parametrize("key", ["short", "long", "2-D"])
    def test_key_of_the_wrong_shape(self, key):
        _, model, pair, loads, fixed = heat_bar()
        k, f = Assembler(model.mesh, pair, loads).assemble(model)
        n = f.size
        key = {"short": np.arange(n - 1.0),
               "long": np.arange(n + 1.0),
               "2-D": np.arange(float(n)).reshape(1, n)}[key]
        with pytest.raises(ValueError, match="key has shape"):
            solve_system(k, f, fixed, key)

    def test_non_canonical_k_is_left_as_it_was(self):
        # row 0 holds entry (0, 0) twice, which the band fill sums; the
        # caller's arrays stay as they were
        data = np.array([1.0, 1.0, -1.0, -1.0, 2.0, -1.0, -1.0, 2.0])
        indices = np.array([0, 0, 1, 0, 1, 2, 1, 2], dtype=np.int32)
        indptr = np.array([0, 3, 6, 8], dtype=np.int32)
        k = sparse.csr_matrix((data.copy(), indices.copy(), indptr.copy()),
                              shape=(3, 3))
        summed = self.chain(2.0)
        f = np.array([1.0, 0.0, 0.0])
        for key in (None, np.arange(3.0)):
            u = solve_system(summed, f, [], key).u
            np.testing.assert_allclose(u, [0.75, 0.5, 0.25], rtol=1e-14)
            np.testing.assert_allclose(solve_system(k, f, [], key).u, u,
                                       rtol=1e-14)
            # a K that is not CSR is converted, and its duplicates summed
            for other in (summed.tocoo(), summed.tocsc(), k.tocoo()):
                np.testing.assert_array_equal(
                    solve_system(other, f, [], key).u, u)
            np.testing.assert_allclose(solve_system(k.tocsc(), f, [], key).u,
                                       u, rtol=1e-14)
        for got, was in ((k.data, data), (k.indices, indices),
                         (k.indptr, indptr)):
            np.testing.assert_array_equal(got, was)

    @staticmethod
    def chain(middle):
        """The three-dof chain [[2, -1, 0], [-1, middle, -1], [0, -1, 2]];
        ``middle`` None stores no entry at (1, 1)."""
        entries = [(0, 0, 2.0), (0, 1, -1.0), (1, 0, -1.0), (1, 2, -1.0),
                   (2, 1, -1.0), (2, 2, 2.0)]
        if middle is not None:
            entries.append((1, 1, middle))
        i, j, v = zip(*entries)
        return sparse.coo_matrix((v, (i, j)), shape=(3, 3)).tocsr()

    @pytest.mark.parametrize("middle", [0.0, None, -1.0],
                             ids=["stored-zero", "unstored", "negative"])
    def test_nonpositive_diagonal_at_a_free_dof(self, middle):
        k = self.chain(middle)
        assert k.has_canonical_format and k.nnz == 6 + (middle is not None)
        for key in (None, np.arange(3.0)):
            with pytest.raises(SolverError, match="nonpositive stiffness "
                               "diagonal at dof 1;"):
                solve_system(k, np.ones(3), [], key)
        # the scale reads the diagonal at the free dofs alone
        res = solve_system(k, np.ones(3), [1])
        np.testing.assert_array_equal(res.u, [0.5, 0.0, 0.5])

    @pytest.mark.parametrize("fixed", [
        [True], np.array([False, True, False]), [1.7], [1.0], ["1"]],
        ids=["bool", "bool-mask", "fraction", "float", "string"])
    def test_fixed_dofs_that_are_not_integers(self, fixed):
        # each was cast to integers and fixed dof 1 (the mask dofs 0 and 1)
        # without a word
        with pytest.raises(ValueError, match="fixed dofs must be integers"):
            solve_system(self.chain(2.0), np.ones(3), fixed)

    def test_every_dof_fixed(self):
        res = solve_system(self.chain(2.0), np.ones(3), [2, 0, 1, 1])
        assert res.u.dtype == np.float64
        np.testing.assert_array_equal(res.u, np.zeros(3))
        assert res.residual == 0.0

    @pytest.mark.parametrize("load", ["nan-at-free-dof", "short", "long"])
    def test_malformed_load(self, load):
        # each used to fail far from its cause: as a singular system, or
        # with numpy's broadcast or index error
        k, f, fixed, _ = initial_system(cantilever())
        n = f.size
        dof = np.setdiff1d(np.arange(n), fixed)[7]
        f, match = {
            "nan-at-free-dof": (np.where(np.arange(n) == dof, np.nan, f),
                                f"f is not finite at free dof {dof}$"),
            "short": (f[:-2], rf"f has shape \({n - 2},\), not \({n},\)"),
            "long": (np.append(f, [1.0, 1.0]),
                     rf"f has shape \({n + 2},\), not \({n},\)")}[load]
        with pytest.raises(ValueError, match=match):
            solve_system(k, f, fixed)


def initial_analysis(problem):
    """Workspace, model, stiffness and load of a problem's initial design."""
    ws = _Workspace(problem)
    model = build_enriched_model(
        ws.mesh, snap_nodal_levelset(ws.field.nodal_values))
    return (ws, model) + ws.assembler.assemble(model)


def initial_system(problem):
    """Stiffness, load, fixed dofs and mesh of a problem's initial design."""
    ws, _, k, f = initial_analysis(problem)
    return k, f, ws.fixed, ws.mesh


def superlu_reference(k, f, fixed):
    """The same Jacobi-scaled reduced system and extended-precision
    refinement as solve_system, factored by SuperLU instead."""
    free = np.setdiff1d(np.arange(f.size), fixed)
    kff = k[free][:, free].tocsc()
    scale = 1.0 / np.sqrt(kff.diagonal())
    dmat = sparse.diags(scale)
    kss = (dmat @ kff @ dmat).tocsc()
    lu = splu(kss)
    fs = f[free] * scale
    kld, fld = kss.astype(np.longdouble), fs.astype(np.longdouble)
    y = lu.solve(fs).astype(np.longdouble)
    for _ in range(3):
        r = fld - kld @ y
        if float(np.linalg.norm(r.astype(np.float64))) \
                <= 1e-16 * np.linalg.norm(fs):
            break
        y = y + lu.solve(r.astype(np.float64))
    u = np.zeros(f.size)
    u[free] = (y * scale).astype(np.float64)
    return u


# the initial designs and two stored mid-run ones
DESIGNS = [(cantilever, None), (mbb, None), (heat_sink, None),
           (cantilever, "cantilever_iter80.txt"),
           (heat_sink, "heat_sink_iter40.txt")]


class TestBandedCholesky:
    @pytest.mark.parametrize("problem", [cantilever, mbb, heat_sink])
    def test_matches_superlu_on_initial_designs(self, problem):
        k, f, fixed, _ = initial_system(problem())
        res = solve_system(k, f, fixed)
        ref = superlu_reference(k, f, fixed)
        assert np.max(np.abs(res.u - ref)) <= 1e-10 * np.max(np.abs(ref))
        assert res.residual <= 1e-10

    @pytest.mark.parametrize("problem, design", DESIGNS)
    def test_workspace_order_matches_reverse_cuthill_mckee(self, problem,
                                                           design):
        ws = _Workspace(problem(), None if design is None
                        else np.loadtxt(DATA / design))
        model = ws.model(ws.initial)
        k, f = ws.assembler.assemble(model)
        ref = solve_system(k, f, ws.fixed).u
        res = solve_system(k, f, ws.fixed, ws.assembler.band_key(model))
        assert np.max(np.abs(res.u - ref)) <= 1e-10 * np.max(np.abs(ref))
        assert res.residual <= 1e-10

    @pytest.mark.parametrize("problem, design", DESIGNS)
    def test_close_to_the_longdouble_refined_solve(self, problem, design):
        # the refinement's first correction takes u on the elastic designs
        # from about 1e-10 of the longdouble-refined solve to 7e-14 or less:
        # the stop rule must never skip it
        ws = _Workspace(problem(), None if design is None
                        else np.loadtxt(DATA / design))
        model = ws.model(ws.initial)
        k, f = ws.assembler.assemble(model)
        key = ws.assembler.band_key(model)
        ref = solve_system(k.astype(np.longdouble), f, ws.fixed, key).u
        u = solve_system(k, f, ws.fixed, key).u
        assert np.max(np.abs(u - ref)) <= 1e-12 * np.max(np.abs(ref))

    @pytest.mark.parametrize("support", ["none", "ux-left", "one-node"])
    def test_under_constrained_elastic_system(self, support):
        k, f, _, mesh = initial_system(cantilever())
        fixed = {"none": [],
                 "ux-left": node_dofs(mesh.boundary["left"], 2, 0),
                 "one-node": node_dofs([0], 2)}[support]
        with pytest.raises(SolverError, match="rigid|singular"):
            solve_system(k, f, fixed)

    def test_non_finite_entry_in_a_fixed_column_fails_the_solve(self):
        # the reduced system never reads fixed columns; the residual over K
        # does, so a NaN there cannot pass as a converged solve
        k, f, fixed, _ = initial_system(cantilever())
        k = k.copy()
        rows = np.repeat(np.arange(k.shape[0]), np.diff(k.indptr))
        hit = np.flatnonzero(np.isin(k.indices, fixed)
                             & ~np.isin(rows, fixed))[0]
        k.data[hit] = np.nan
        with pytest.raises(SolverError, match="residual"):
            solve_system(k, f, fixed)

    def test_factor_is_freed_without_the_cycle_collector(self):
        # a factor held in a reference cycle outlives the solve until the
        # cyclic collector runs, which optimization loops seldom trigger
        k, f, fixed, _ = initial_system(cantilever())
        gc.collect()
        gc.disable()
        try:
            solve_system(k, f, fixed)
            assert gc.collect() == 0
        finally:
            gc.enable()


class TestTileGeometry:
    """The float64 tile arrays cached per model are, bit for bit, what
    fresh calls of the element helpers compute."""

    @pytest.fixture(scope="class")
    @staticmethod
    def model():
        mesh = structured_grid(1.5, 1.0, 9, 7)
        r = np.hypot(mesh.nodes[:, 0] - 0.7, mesh.nodes[:, 1] - 0.45)
        return build_enriched_model(mesh, snap_nodal_levelset(r - 0.3))

    def test_equals_fresh_helpers(self, model):
        mesh, tiles = model.mesh, model.tiles
        eq = np.testing.assert_array_equal
        eq(model.ddet, DL @ adj2(tri_jacobian(tiles.coords)))
        eq(model.hats, cofactor_hat_gradients(tiles.coords))
        eq(model.grads, np.concatenate([
            cofactor_hat_gradients(mesh.nodes[mesh.elements[tiles.parent]]),
            tiles.slot_matrix @ cofactor_hat_gradients(tiles.coords)],
            axis=-2))
        for name in ("ddet", "hats", "grads"):
            assert getattr(model, name) is getattr(model, name), name
            assert getattr(model, name).dtype == np.float64, name
        shape = model.centroid_shape
        assert model.centroid_shape is shape
        centroid = [1 / 3, 1 / 3, 1 / 3]
        eq(shape, np.concatenate(
            [parent_hats(model, tiles, centroid),
             enrichment_values(tiles, centroid)], axis=-1))
        # one-element models compute their own and agree with the stack
        eq(model.grads, np.stack([
            dataclasses.replace(model, tiles=ie).grads
            for ie in model.integration]))


def coo_reference(asm, model, absolute=False):
    """K as the sum of the same element blocks through scipy's COO path:
    the unit stiffness of every element times its phase modulus (zero for
    cut parents) and the stiffness of every integration element; with
    ``absolute``, the sum of their absolute values."""
    mesh, pair, dtype = asm.mesh, asm.pair, asm.dtype
    d = pair.field_dim
    b = build_b(cofactor_hat_gradients(
        mesh.nodes[mesh.elements].astype(dtype)), d)
    k_unit = np.einsum("eia,ij,ejb->eab", b,
                       pair.physics.d_unit().astype(dtype), b) \
        * mesh.areas.astype(dtype)[:, None, None]
    factor = np.where(model.element_state == CUT, 0.0, pair.modulus_of(
        model.element_state == MATERIAL)).astype(dtype)
    k_cut = integration_element_stiffness(model, pair, dtype)
    dofs = node_dofs(mesh.elements.ravel(), d).reshape(mesh.n_elements, -1)
    cut_dofs = cut_parent_dofs(model, d).repeat(3, axis=0)
    blocks = [k_unit * factor[:, None, None], k_cut]
    if absolute:
        blocks = [np.abs(x) for x in blocks]
    ndof = d * (mesh.n_nodes + model.n_enriched)
    return sparse.coo_matrix(
        (np.concatenate([x.ravel() for x in blocks]),
         (np.concatenate([np.broadcast_to(i[:, :, None], x.shape).ravel()
                          for i, x in zip((dofs, cut_dofs), blocks)]),
          np.concatenate([np.broadcast_to(i[:, None, :], x.shape).ravel()
                          for i, x in zip((dofs, cut_dofs), blocks)]))),
        shape=(ndof, ndof)).tocsr()


class TestCachedPattern:
    @pytest.mark.parametrize("dtype", [np.float64, np.longdouble])
    @pytest.mark.parametrize("problem", [cantilever, mbb, heat_sink])
    def test_matches_the_coo_sum_of_the_element_blocks(self, problem, dtype):
        ws = _Workspace(problem())
        model = build_enriched_model(
            ws.mesh, snap_nodal_levelset(ws.field.nodal_values))
        asm = Assembler(ws.mesh, ws.problem.pair, ws.loads, dtype=dtype)
        k, _ = asm.assemble(model)
        assert k.dtype == dtype and k.has_canonical_format
        assert np.count_nonzero(k.data) == k.nnz
        ref = coo_reference(asm, model)
        ref.eliminate_zeros()
        # the same entries, each to rounding of the sum of its terms
        assert k.nnz == ref.nnz
        err = abs(k - ref).tocoo()
        size = coo_reference(asm, model, absolute=True)
        assert np.all(err.data <= 1e-15 * np.asarray(
            size[err.row, err.col]).ravel())


def jittered_mesh(seed):
    """A structured mesh with half its interior nodes moved by up to 20% of
    the spacing, so that some elements keep the zeros of a right triangle's
    stiffness and others have none, and its element rows shuffled."""
    rng = np.random.default_rng(seed)
    mesh = structured_grid(2.0, 1.0, 9, 6)
    interior = np.setdiff1d(np.arange(mesh.n_nodes),
                            np.concatenate(list(mesh.boundary.values())))
    moved = interior[rng.random(interior.size) < 0.5]
    nodes = mesh.nodes.copy()
    nodes[moved] += rng.uniform(-0.2, 0.2, (moved.size, 2)) * (0.25, 0.2)
    return Mesh(nodes=nodes,
                elements=mesh.elements[rng.permutation(mesh.n_elements)],
                boundary=mesh.boundary)


def same_bits(x, y):
    """Equal dtype, values and signs: the bits of every number. A longdouble
    array's storage also holds padding bytes that no computation defines,
    so its bytes are not compared."""
    return x.dtype == y.dtype and np.array_equal(x, y) \
        and np.array_equal(np.signbit(x), np.signbit(y))


class TestElementMap:
    @pytest.mark.parametrize("dtype", [np.float64, np.longdouble])
    @pytest.mark.parametrize("physics", [Conduction(), PlaneStressElastic(0.3)],
                             ids=["conduction", "elastic"])
    def test_equals_the_sum_of_the_scaled_element_blocks(self, physics,
                                                         dtype):
        mesh = jittered_mesh(3)
        pair = MaterialPair(physics, 1.0, 1e-3)
        asm = Assembler(mesh, pair, LoadCase(), dtype=dtype)
        d, ne = pair.field_dim, mesh.n_elements
        ndof = d * mesh.n_nodes
        # the pattern: the canonical CSR of all element dof pairs
        dofs = node_dofs(mesh.elements.ravel(), d).reshape(ne, 3 * d)
        rows = np.repeat(dofs, 3 * d, axis=1).ravel()
        cols = np.tile(dofs, 3 * d).ravel()
        pattern = sparse.coo_matrix((np.ones(rows.size), (rows, cols)),
                                    shape=(ndof, ndof)).tocsr()
        pattern.sum_duplicates()
        np.testing.assert_array_equal(asm._indices, pattern.indices)
        np.testing.assert_array_equal(asm._indptr, pattern.indptr)
        # the element stiffness as the assembler computes it, each block
        # summed in ascending element order at its pattern position
        b = build_b(mesh.hat_gradients.astype(dtype), d)
        k_unit = np.einsum("eia,ij,ejb->eab", b,
                           physics.d_unit().astype(dtype), b, optimize=True) \
            * mesh.areas.astype(dtype)[:, None, None]
        keys = np.repeat(np.arange(ndof), np.diff(pattern.indptr)) * ndof \
            + pattern.indices
        at = np.searchsorted(keys, rows * ndof + cols)
        factor = np.random.default_rng(5).uniform(1e-3, 1.0, ne).astype(dtype)
        expected = np.zeros(pattern.nnz, dtype=dtype)
        np.add.at(expected, at, (k_unit * factor[:, None, None]).ravel())
        assert same_bits(asm._map @ factor, expected)
        assert np.count_nonzero(asm._map.data) == asm._map.nnz
        # both kinds of element: with and without stiffness zeros
        assert 0 < np.count_nonzero(k_unit == 0.0) < k_unit.size / 10

    @pytest.mark.parametrize("dtype", [np.float64, np.longdouble])
    def test_set_up_peaks_at_most_three_times_what_it_keeps(self, dtype):
        problem = mbb(61, 21, rbf_nx=25, rbf_ny=9)
        mesh = problem.build_mesh()
        loads = problem.build_loads(mesh)
        mesh.areas, mesh.hat_gradients  # the mesh's, not the assembler's
        tracemalloc.start()
        try:
            asm = Assembler(mesh, problem.pair, loads, dtype=dtype)
            kept, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert asm._map.nnz > 0
        assert peak <= 3 * kept


def reference_band_order(mesh, model, field_dim):
    """The dofs of a model in band order, built apart from the package: the
    mesh nodes ranked by reverse Cuthill-McKee of the element node graph,
    each enriched node at the mean rank of its edge's ends plus 0.5 (ties
    keep node order), the components of each node together."""
    el, n = mesh.elements, mesh.n_nodes
    graph = sparse.csr_matrix(
        (np.ones(3 * el.size), (np.repeat(el, 3, axis=1).ravel(),
                                np.tile(el, 3).ravel())), shape=(n, n))
    rank = np.empty(n)
    rank[reverse_cuthill_mckee(graph, symmetric_mode=True)] = np.arange(n)
    nodes = np.argsort(np.concatenate(
        [rank, rank[model.enr_edges].mean(axis=1) + 0.5]), kind="stable")
    return (field_dim * nodes[:, None] + np.arange(field_dim)).ravel()


class TestScaledBand:
    @pytest.mark.parametrize("problem", [cantilever, mbb, heat_sink])
    def test_equals_the_band_of_the_sliced_and_scaled_block(
            self, monkeypatch, problem):
        # what the solve factors is, bit for bit, the Jacobi-scaled free-dof
        # block as sparse slicing and products compute it, permuted by
        # reverse Cuthill-McKee of that block when the solve is given no
        # key, and else by the band order of the nodes
        bands = []
        factor = igtop.fem.cholesky_banded

        def factorization(band, **kw):
            bands.append(band.copy(order="A"))
            return factor(band, **kw)

        ws, model, k, f = initial_analysis(problem())
        monkeypatch.setattr(igtop.fem, "cholesky_banded", factorization)
        free = np.setdiff1d(np.arange(k.shape[0]), ws.fixed)
        ref_ff = k[free][:, free]
        dmat = sparse.diags(1.0 / np.sqrt(ref_ff.diagonal()))
        ref_ss = (dmat @ ref_ff.tocsc() @ dmat).tocsr()
        order = reference_band_order(ws.mesh, model,
                                     ws.problem.pair.field_dim)
        rank = np.empty(order.size, dtype=np.int64)
        rank[order] = np.arange(order.size)
        solve_system(k, f, ws.fixed)
        solve_system(k, f, ws.fixed, ws.assembler.band_key(model))
        assert len(bands) == 2
        for band, perm in zip(bands, (
                reverse_cuthill_mckee(ref_ss, symmetric_mode=True),
                np.argsort(rank[free]))):
            assert band.flags.f_contiguous
            ordered = ref_ss[perm][:, perm].tocoo()
            offset = ordered.row - ordered.col
            lower = offset >= 0
            expected = np.zeros((offset.max() + 1, free.size))
            expected[offset[lower], ordered.col[lower]] = ordered.data[lower]
            np.testing.assert_array_equal(band, expected)

    @pytest.mark.parametrize("dtype", [np.float64, np.longdouble])
    @pytest.mark.parametrize("problem", [
        cantilever(), heat_sink(), mbb(76, 26), mbb()],
        ids=["cantilever", "heat_sink", "mbb-76x26", "mbb-151x51"])
    def test_fill_equals_the_scatter_reference(self, monkeypatch, problem,
                                               dtype):
        # the band and scale of the initial design's solve, bit for bit
        # those of one scatter of the scaled lower entries (tests/oracles.py)
        ws = _Workspace(problem)
        model = ws.model(ws.initial)
        k, f = Assembler(ws.mesh, problem.pair, ws.loads,
                         dtype=dtype).assemble(model)
        calls = []
        fill = igtop.fem._scaled_band
        monkeypatch.setattr(igtop.fem, "_scaled_band",
                            lambda *args, **kwargs: calls.append(args)
                            or fill(*args, **kwargs))
        solve_system(k, f, ws.assembler.fixed_dofs(model, ws.fixed),
                     ws.assembler.band_key(model))
        (args,) = calls
        (band, scale), (ref_band, ref_scale) = fill(*args), \
            oracles.scaled_band(*args)
        assert band.flags.f_contiguous and band.shape == ref_band.shape
        assert band.tobytes(order="F") == ref_band.tobytes(order="F")
        # the scale has K's dtype: longdouble padding bytes vary
        assert scale.dtype == ref_scale.dtype
        np.testing.assert_array_equal(scale, ref_scale)

    @pytest.mark.parametrize("problem, blocks", [(heat_sink(), 1), (mbb(), 5)],
                             ids=["heat_sink", "mbb-151x51"])
    def test_blocked_product_equals_the_whole_product(self, problem, blocks):
        # a longdouble x, as in the refinement; compared by value and sign,
        # since longdouble padding bytes vary
        _, _, k, _ = initial_analysis(problem)
        assert -(-k.shape[0] // _BLOCK_ROWS) == blocks
        x = np.random.default_rng(0).standard_normal(k.shape[0]).astype(
            np.longdouble) / 3
        got, want = _product(k, x), k @ x
        assert got.dtype == want.dtype == np.longdouble
        np.testing.assert_array_equal(got, want)
        assert np.array_equal(np.signbit(got), np.signbit(want))

    @pytest.mark.parametrize("dtype, solves", [(np.float64, 2),
                                               (np.longdouble, 2)])
    def test_refinement_stops_after_one_correction(
            self, monkeypatch, dtype, solves):
        # on the initial MBB design the first correction is 2.2e-10 (float64)
        # or 1.2e-10 (longdouble) of the first solve in the max-norm, so the
        # next one, predicted from that contraction, would be some 1e-4 of an
        # ulp: the first solve and one correction, in either precision
        ws = _Workspace(mbb())
        model = build_enriched_model(
            ws.mesh, snap_nodal_levelset(ws.field.nodal_values))
        k, f = Assembler(ws.mesh, ws.problem.pair, ws.loads,
                         dtype=dtype).assemble(model)
        calls = []
        solve = igtop.fem.cho_solve_banded
        monkeypatch.setattr(igtop.fem, "cho_solve_banded",
                            lambda *a, **kw: calls.append(1) or solve(*a, **kw))
        assert solve_system(k, f, ws.fixed).residual <= 1e-10
        assert len(calls) == solves

    def test_refinement_stops_once_the_residual_no_longer_halves(
            self, monkeypatch):
        # a back-solve that returns 0.4 of its solution leaves 0.6 of each
        # residual, so the second residual has not halved: the first solve
        # and one correction, after which the residual check refuses u at
        # 0.6^2 of f. Without the stop all six corrections run, to 0.6^7
        k, f, fixed, _ = initial_system(cantilever())
        calls = []
        solve = igtop.fem.cho_solve_banded
        monkeypatch.setattr(
            igtop.fem, "cho_solve_banded",
            lambda *a, **kw: calls.append(1) or 0.4 * solve(*a, **kw))
        with pytest.raises(SolverError, match=r"residual 3\.600e-01"):
            solve_system(k, f, fixed)
        assert len(calls) == 2


def traced_rise(step):
    """The traced peak while ``step`` runs less the traced bytes before it,
    with tracing already on."""
    gc.collect()
    before = tracemalloc.get_traced_memory()[0]
    tracemalloc.reset_peak()
    step()
    return tracemalloc.get_traced_memory()[1] - before


class TestBandBuffer:
    def test_a_second_analysis_reuses_the_band(self):
        # at the same design the band fits the buffer the first analysis
        # left, so the second raises the traced peak by the rest of the
        # analysis alone (7.8 MB against a 17.4 MB band; 24.0 MB when each
        # solve takes a fresh band)
        ws = _Workspace(mbb())
        tracemalloc.start()
        try:
            ws.analyze(ws.initial)
            buffer = ws.band.data
            rise = traced_rise(lambda: ws.analyze(ws.initial))
        finally:
            tracemalloc.stop()
        assert ws.band.data is buffer
        assert rise < buffer.nbytes

    def test_a_band_that_does_not_fit_replaces_the_buffer(self):
        # the MBB 76x26 band, then the 151x51 one: its solve peaks at what a
        # fresh buffer's would less the small band, which it frees first
        small, large = (initial_system(mbb(*size))[:3]
                        for size in ((76, 26), (151, 51)))
        buffer = BandBuffer()
        tracemalloc.start()
        try:
            solve_system(*small, buffer=buffer)
            small_bytes = buffer.data.nbytes
            kept = traced_rise(lambda: solve_system(*large, buffer=buffer))
            fresh = traced_rise(lambda: solve_system(*large))
        finally:
            tracemalloc.stop()
        assert buffer.data.nbytes > small_bytes > 0
        assert kept < fresh - small_bytes / 2

    @pytest.mark.parametrize("problem", [mbb(76, 26), heat_sink()],
                             ids=["mbb-76x26", "heat_sink"])
    def test_a_smaller_band_ignores_what_the_buffer_held(self, monkeypatch,
                                                         problem):
        # a buffer that held the MBB 151x51 band fills a smaller band with
        # the bits of the scatter reference, and solves as a fresh band does
        k, f, fixed, _ = initial_system(problem)
        buffer = BandBuffer()
        solve_system(*initial_system(mbb())[:3], buffer=buffer)
        held = buffer.data.size
        fills = []
        fill = igtop.fem._scaled_band

        def recorded(*args, **kwargs):
            band, scale = fill(*args, **kwargs)
            fills.append((args, band.copy(order="F")))
            return band, scale

        monkeypatch.setattr(igtop.fem, "_scaled_band", recorded)
        u = solve_system(k, f, fixed, buffer=buffer).u
        assert buffer.data.size == held
        (args, band), = fills
        assert band.size < held
        ref_band, _ = oracles.scaled_band(*args)
        assert band.tobytes(order="F") == ref_band.tobytes(order="F")
        assert solve_system(k, f, fixed).u.tobytes() == u.tobytes()

    def test_a_finished_run_keeps_no_band(self, monkeypatch):
        # MBB in its two stages: each stage's buffer goes with its
        # workspace, so the result refers to none of them
        buffers = []
        fill = igtop.fem._scaled_band

        def recorded(*args, **kwargs):
            band, scale = fill(*args, **kwargs)
            assert band.base.flags.owndata
            buffers.append(weakref.ref(band.base))
            return band, scale

        monkeypatch.setattr(igtop.fem, "_scaled_band", recorded)
        result = run(mbb(31, 11, rbf_nx=16, rbf_ny=6), budget=6)
        gc.collect()
        assert {record.mesh for record in result.history} == {"16x6",
                                                              "31x11"}
        # the analyses' bands and the initial design fit's
        assert len(buffers) == len(result.history) + 1
        assert all(buffer() is None for buffer in buffers)
