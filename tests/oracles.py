"""Independent references for the tests.

The package computes the compliance gradient in one closed form
(:func:`igtop.sensitivity.nodal_compliance_gradient`). The operators here
build the same derivatives one vertex direction at a time, from the chain
rule through the Jacobian inverse, and serve the tests as its independent
reference. They take a model and integration elements ``ie``, one or a
stack, and evaluate on the model whose tiles are ``ie``.

:func:`tri_jacobian`, :func:`adj2` and ``DL`` build J and its adjugate;
``DL adj(J)`` is d(det J)/d(x), which the package reads as the cofactor
rows of :func:`igtop.mesh.cofactor_rows`, and :func:`cofactor_hat_gradients`
is those rows over det J.

:func:`parent_hats` and :func:`enrichment_values` evaluate a cut parent's
shape functions at any barycentric point of its integration elements; the
package evaluates them at the centroid alone
(:meth:`igtop.enrich.EnrichedModel.centroid_shape`).

:func:`build_enriched_model` is the cut band's earlier construction, with a
three-way ``where`` for the lone vertex, ``take_along_axis`` for its
rotation and ``np.unique`` for the cut edges; the package's table-driven
construction must give the same model bit for bit.

:func:`edge_traction_loads` writes a uniform traction on a boundary side as
the point loads it is consistent with. :func:`conforming_system` and
:func:`conforming_map` are standard finite elements on the matching mesh
of a model, the reference of the paper's claim that IGFEM is as accurate
as a conforming mesh without remeshing.

:func:`whole_mesh_volume_check` is the volume gradient check as it was
before its probes tiled only the elements their kernel moves: every probe
tiles the whole mesh, and the flags compare whole-mesh cut topologies.

:func:`scaled_band` is the solve's band fill as one scatter of the scaled
lower entries of K, with every index array alive beside the band; the
package's fill, which frees them first and sums into the band, must give
the same band bit for bit.

:func:`flip_lone_nodes` is the lone-node rule as it is stated, node by node
over each node's edge neighbours (:func:`edge_neighbours`) as Python sets;
the package's rule, which reads the corners of the elements at the
candidate nodes, must give the same levelset bit for bit.
"""

import dataclasses

import numpy as np
from scipy import sparse

from igtop.driver import GradientCheckRow, _Workspace
from igtop.enrich import (CUT, MATERIAL, VOID, EnrichedModel,
                          IntegrationElement, intersect_edge)
from igtop import sensitivity
from igtop.fem import build_b, node_dofs
from igtop.mesh import cofactor_rows, cross2

_DIAG_TIE_REL = 1e-12
_TILES = np.array([[[0, 3, 4], [3, 1, 4], [1, 2, 4]],
                   [[0, 3, 4], [3, 1, 2], [3, 2, 4]]])

# gradients of the master-triangle hat functions (L1, L2, L3)
DL = np.array([[-1.0, -1.0], [1.0, 0.0], [0.0, 1.0]])


def adj2(m: np.ndarray) -> np.ndarray:
    """Adjugates of 2x2 matrices: adj(m) @ m = det(m) I."""
    out = np.empty_like(m)
    out[..., 0, 0] = m[..., 1, 1]
    out[..., 0, 1] = -m[..., 0, 1]
    out[..., 1, 0] = -m[..., 1, 0]
    out[..., 1, 1] = m[..., 0, 0]
    return out


def tri_jacobian(coords: np.ndarray) -> np.ndarray:
    """Jacobians of the master-to-physical maps of triangles with vertex
    coordinates (..., 3, 2); columns are edge vectors."""
    return np.swapaxes(coords, -1, -2) @ DL.astype(coords.dtype)


def cofactor_hat_gradients(coords: np.ndarray) -> np.ndarray:
    """Physical hat-function gradients of triangles with vertex coordinates
    (..., 3, 2), in their dtype: the cofactor rows over det J, the cross
    product of the edges from vertex 0."""
    return cofactor_rows(coords) / cross2(
        coords[..., 1, :] - coords[..., 0, :],
        coords[..., 2, :] - coords[..., 0, :])[..., None, None]


def jacobian_derivative(vertex: int, component: int) -> np.ndarray:
    """d(J)/d(x_vertex[component]) for J = coords^T DL: one nonzero row."""
    dj = np.zeros((2, 2))
    dj[component] = DL[vertex]
    return dj


def jacobian_inverse(ie) -> np.ndarray:
    """Inverses of the Jacobians of integration elements ``ie``, shape
    (..., 2, 2): adj(J) over det J, which is twice the area."""
    return adj2(tri_jacobian(ie.coords)) \
        / (2 * np.asarray(ie.area))[..., None, None]


def inv_derivative(jinv: np.ndarray, djac: np.ndarray) -> np.ndarray:
    """Directional derivative of J^{-1} from ``jinv`` = J^{-1}:
    -J^{-1} dJ J^{-1}."""
    # dJ J^{-1} first: for the one-row dJ of a moving vertex this is the
    # rank-one update -J^{-1}[:, c] (DL[l] J^{-1}) to the last bit
    return -(jinv @ (djac @ jinv))


def parent_hats(model, ie, bary) -> np.ndarray:
    """Original (parent) hat functions evaluated at one barycentric point
    of integration elements ``ie``, shape (..., 3). Always sums to 1."""
    x = np.asarray(bary, dtype=float) @ ie.coords
    x0 = model.mesh.nodes[model.mesh.elements[ie.parent, 0]]
    n = np.einsum("...ic,...c->...i", model.mesh.hat_gradients[ie.parent],
                  x - x0)
    n[..., 0] += 1.0
    return n


def enrichment_values(ie, bary) -> np.ndarray:
    """Enrichment functions of the parent's two enriched slots at a
    barycentric point of integration elements ``ie``, shape (..., 2). Each
    is the integration-element hat of its enriched node, zero if that node
    is not a vertex of the element."""
    return np.einsum("...sl,...l->...s", ie.slot_matrix,
                     np.asarray(bary, dtype=float))


def integration_element_stiffness_derivative(model, ie, pair, vertex: int,
                                             component: int) -> np.ndarray:
    """Derivative of integration-element stiffnesses with respect to moving
    local ``vertex`` along ``component``, shape (..., 5 d, 5 d).

    Only the determinant and the enrichment-gradient rows respond; the parent
    hat gradients are unaffected by interface motion.
    """
    model = dataclasses.replace(model, tiles=ie)
    d = pair.physics.d_unit() * pair.modulus_of(ie.material)[..., None, None]
    b = build_b(model.grads, pair.field_dim)
    djdet = model.ddet[..., vertex, component]
    dge = DL @ inv_derivative(jacobian_inverse(ie),
                              jacobian_derivative(vertex, component))
    db = build_b(np.concatenate([np.zeros_like(dge), ie.slot_matrix @ dge],
                                axis=-2), pair.field_dim)
    cross = np.swapaxes(db, -1, -2) @ d @ b
    return 0.5 * djdet[..., None, None] * (np.swapaxes(b, -1, -2) @ d @ b) \
        + np.asarray(ie.area)[..., None, None] \
        * (cross + np.swapaxes(cross, -1, -2))


def integration_element_force_derivative(model, ie, body, vertex: int,
                                         component: int) -> np.ndarray:
    """Derivative of integration elements' body-load vectors with respect
    to moving local ``vertex`` along ``component``, shape (..., 5 field_dim).

    The first term scales the load with the area change; the second moves the
    centroid through the parent hat functions. The enrichment block of the
    second term is identically zero: enrichment values at the centroid are
    fixed barycentric weights. ``body`` is one source for all elements, as
    in :func:`igtop.fem.integration_element_force`.
    """
    bvec = np.atleast_1d(np.asarray(body, dtype=float))
    model = dataclasses.replace(model, tiles=ie)
    djdet = model.ddet[..., vertex, component]
    dhat = model.grads[..., :3, component] / 3.0  # parent hat gradients
    dshape = np.concatenate([dhat, np.zeros_like(dhat[..., :2])], axis=-1)
    rate = 0.5 * djdet[..., None] * model.centroid_shape \
        + np.asarray(ie.area)[..., None] * dshape
    load = rate[..., :, None] * bvec[..., None, :]
    return load.reshape(load.shape[:-2] + (5 * load.shape[-1],))


def build_enriched_model(mesh, phi: np.ndarray) -> EnrichedModel:
    """Classify elements against a snapped nodal levelset and tile cut ones,
    as the package did before its sign-code tables."""
    phi = np.asarray(phi, dtype=float)
    if phi.shape != (mesh.n_nodes,):
        raise ValueError(f"levelset has shape {phi.shape}, "
                         f"expected ({mesh.n_nodes},)")
    if np.any(phi == 0.0):
        raise ValueError("nodal levelset contains exact zeros; "
                         "apply snap_nodal_levelset first")

    pos = phi > 0.0
    elem_pos = pos[mesh.elements]
    n_pos = elem_pos.sum(axis=1)
    state = np.full(mesh.n_elements, CUT, dtype=np.int8)
    state[n_pos == 3] = MATERIAL
    state[n_pos == 0] = VOID
    cut_ids = np.flatnonzero(state == CUT)
    n_cut = cut_ids.size

    # vertex with the lone sign; its two incident edges are the cut ones
    lpos = elem_pos[cut_ids]
    lone = np.where(lpos[:, 0] == lpos[:, 1], 2,
                    np.where(lpos[:, 0] == lpos[:, 2], 1, 0))
    abc = np.take_along_axis(mesh.elements[cut_ids],
                             (lone[:, None] + np.arange(3)) % 3, axis=1)

    # unique cut edges in lexicographic order become the enriched nodes
    # (the keys j * n_nodes + k of edges j < k sort like the pairs)
    pairs = np.sort(abc[:, [[0, 1], [0, 2]]], axis=2)  # edges ab, ac
    pair_keys = pairs[..., 0] * mesh.n_nodes + pairs[..., 1]
    keys = np.unique(pair_keys)
    edges = np.stack(np.divmod(keys, mesh.n_nodes), axis=1)
    ej, ek = edges[:, 0], edges[:, 1]
    enr_coords = intersect_edge(mesh.nodes[ej], mesh.nodes[ek],
                                phi[ej], phi[ek])
    enr = np.searchsorted(keys, pair_keys)

    # canonical edge order puts ab first only when a is local vertex 0
    flip = lone != 0
    parent_slots = np.where(flip[:, None], enr[:, ::-1], enr)
    ids = np.concatenate([abc, mesh.n_nodes + enr], axis=1)
    slots = np.concatenate([np.full((n_cut, 3), -1),
                            np.stack([flip, ~flip], axis=1)], axis=1)
    points = np.concatenate([mesh.nodes[abc], enr_coords[enr]], axis=1)

    # split the quad along its shorter diagonal; ties go to the diagonal
    # touching the lower node index
    d1 = np.hypot(*(points[:, 2] - points[:, 3]).T)
    d2 = np.hypot(*(points[:, 4] - points[:, 1]).T)
    tie = np.abs(d1 - d2) <= _DIAG_TIE_REL * np.maximum(d1, d2)
    use_d1 = np.where(tie, abc[:, 2] < abc[:, 1], d1 < d2)
    local = _TILES[use_d1.astype(np.int64)]
    rows = np.arange(n_cut)[:, None, None]
    coords = points[rows, local].reshape(-1, 3, 2)
    area = 0.5 * cross2(coords[:, 1] - coords[:, 0], coords[:, 2] - coords[:, 0])
    assert np.all(area > 0.0), \
        "integration element lost counterclockwise orientation"
    mat_a = lpos[np.arange(n_cut), lone]
    tiles = IntegrationElement(
        parent=np.repeat(cut_ids, 3), vertex_ids=ids[rows, local].reshape(-1, 3),
        enr_slots=slots[rows, local].reshape(-1, 3), coords=coords,
        material=np.stack([mat_a, ~mat_a, ~mat_a], axis=1).ravel(), area=area)

    return EnrichedModel(mesh=mesh, phi=phi, element_state=state,
                         enr_edges=edges, enr_coords=enr_coords,
                         cut_parents=cut_ids, parent_slots=parent_slots,
                         tiles=tiles)


def edge_traction_loads(mesh, side: str, traction, dtype=np.float64) -> list:
    """Point loads ``(node, component, value)`` of a uniform traction per
    unit length on the boundary ``side``: each segment (na, nb) of
    ``mesh.boundary[side]`` puts 0.5 * length * traction[c] on na, then on
    nb, computed in ``dtype``. On an uncut edge these are the traction's
    consistent nodal loads, as the enrichment vanishes there."""
    t = np.atleast_1d(np.asarray(traction)).astype(dtype)
    ids = mesh.boundary[side].tolist()
    loads = []
    for na, nb in zip(ids[:-1], ids[1:]):
        length = np.sqrt(np.sum(
            (mesh.nodes[nb] - mesh.nodes[na]).astype(dtype) ** 2))
        loads += [(node, c, 0.5 * length * tc)
                  for node in (na, nb) for c, tc in enumerate(t)]
    return loads


def conforming_system(model, pair, loads):
    """Stiffness and load vector of standard linear finite elements on the
    matching mesh of ``model``: its uncut elements and all its integration
    elements, with node ``n_nodes + m`` at enriched node m. Built from the
    mesh primitives and one COO sum, sharing no code with ``Assembler``;
    the dofs are numbered as the enriched system's."""
    mesh, d = model.mesh, pair.field_dim
    tiles = model.tiles
    uncut = np.flatnonzero(model.element_state != CUT)
    ids = np.concatenate([mesh.elements[uncut], tiles.vertex_ids])
    coords = np.concatenate([mesh.nodes, model.enr_coords])[ids]
    material = np.concatenate([model.element_state[uncut] == MATERIAL,
                               tiles.material])
    area = 0.5 * cross2(coords[:, 1] - coords[:, 0],
                        coords[:, 2] - coords[:, 0])
    modulus = np.where(material, pair.material, pair.void)
    b = build_b(cofactor_hat_gradients(coords), d)
    ke = (area * modulus)[:, None, None] \
        * (np.swapaxes(b, -1, -2) @ pair.physics.d_unit() @ b)
    dofs = node_dofs(ids.ravel(), d).reshape(-1, 3 * d)
    ndof = d * (mesh.n_nodes + model.n_enriched)
    k = sparse.coo_matrix(
        (ke.ravel(), (np.repeat(dofs, 3 * d, axis=1).ravel(),
                      np.tile(dofs, 3 * d).ravel())),
        shape=(ndof, ndof)).tocsr()

    f = np.zeros(ndof)
    for node, comp, value in loads.point_loads:
        f[d * node + comp] += value
    if loads.body is not None:
        np.add.at(f, dofs.ravel(),
                  np.tile((area / 3.0)[:, None] * loads.body, 3).ravel())
    return k, f


def conforming_map(model, field_dim: int) -> sparse.csr_matrix:
    """T from the enriched system's dofs to the nodal values of the matching
    mesh: the identity at the original nodes, and (1 - t) u_j + t u_k + u_e
    at enriched node e on edge (j, k) at fractional position t."""
    n, m = model.mesh.n_nodes, model.n_enriched
    e = n + np.arange(m)
    j, k = model.enr_edges.T
    t = model.phi[j] / (model.phi[j] - model.phi[k])
    rows = np.concatenate([np.arange(n), e, e, e])
    cols = np.concatenate([np.arange(n), j, k, e])
    vals = np.concatenate([np.ones(n), 1.0 - t, t, np.ones(m)])
    nodal = sparse.csr_matrix((vals, (rows, cols)), shape=(n + m, n + m))
    return sparse.kron(nodal, sparse.identity(field_dim), format="csr")


def whole_mesh_volume_check(problem, design=None, n_sample=50, h=1e-6,
                            seed=0) -> list:
    """The rows of ``check_gradients(problem, quantity="volume")`` from
    whole-mesh probes: each quotient is the difference of the two whole
    material volumes, and a row is a topology event when the cut edges or
    any tile (its parent, vertices or phase) differ from the base model's."""
    def topology(model):
        t = model.tiles
        return (model.enr_edges.tobytes(), t.parent.tobytes(),
                t.vertex_ids.tobytes(), t.material.tobytes())

    ws = _Workspace(problem, design)
    s0 = ws.initial
    model0 = ws.model(s0)
    grad = sensitivity.volume_gradient(model0, ws.field)
    ref = model0.material_volume()
    rng = np.random.default_rng(seed)
    n = ws.grid.n_centers
    rows = []
    for i in sorted(int(i) for i in rng.choice(n, size=min(n_sample, n),
                                               replace=False)):
        sp, sm = s0.copy(), s0.copy()
        sp[i] += h
        sm[i] -= h
        model_p, model_m = ws.model(sp), ws.model(sm)
        fd = (model_p.material_volume() - model_m.material_volume()) / (2 * h)
        topo = topology(model_p) != topology(model0) \
            or topology(model_m) != topology(model0)
        scale = max(abs(grad[i]), abs(fd), 1e-6 * abs(ref))
        rows.append(GradientCheckRow(i, float(grad[i]), float(fd),
                                     float(abs(grad[i] - fd) / scale), topo))
    return rows


def scaled_band(k, pos, at):
    """(band, scale) of :func:`igtop.fem._scaled_band` for a K with a
    positive diagonal at ``at``, by one scatter into a zeroed band."""
    scale = 1.0 / np.sqrt(k.diagonal()[at])
    i, j = np.repeat(pos, np.diff(k.indptr)), pos.take(k.indices)
    lower = np.flatnonzero((j >= 0) & (i >= j))
    row, col, data = i[lower], j[lower], k.data[lower]
    offset = row - col
    rows = int(offset.max()) + 1
    band = np.zeros(rows * at.size)
    band[offset + rows * col] = scale[row] * data * scale[col]
    return band.reshape((rows, at.size), order="F"), scale


def edge_neighbours(mesh) -> list:
    """The set of nodes joined to each node by an element edge."""
    around = [set() for _ in range(mesh.n_nodes)]
    for element in mesh.elements.tolist():
        for a, node in enumerate(element):
            around[node].update(element[:a] + element[a + 1:])
    return around


def flip_lone_nodes(phi, mesh):
    """``phi`` with each node flipped whose |phi| lies in [1e-10, 1e-5) of
    max|phi|, whose sign differs from that of every edge neighbour, and
    whose |phi| is below 1e-5 of the smallest |phi| among them; a copy."""
    values = np.asarray(phi, dtype=float).tolist()
    top = max(abs(v) for v in values)
    out = np.array(values)
    for node, around in enumerate(edge_neighbours(mesh)):
        v = values[node]
        if (1e-10 * top <= abs(v) < 1e-5 * top
                and all((values[o] > 0.0) != (v > 0.0) for o in around)
                and abs(v) < 1e-5 * min(abs(values[o]) for o in around)):
            out[node] = -v
    return out
