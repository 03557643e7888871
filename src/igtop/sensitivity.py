"""Analytic design sensitivities of compliance and material volume.

The chain runs design -> nodal levelset -> enriched-node positions ->
integration-element geometry -> stiffness/load -> compliance. Nodal levelset
values move only the interface nodes (element classification is fixed between
topology events), so all terms reduce to closed-form derivatives of each
integration element with respect to its enriched-vertex coordinates,
transported to nodal levelset values by the design velocity of the edge
intersection, and finally to the design vector through the kernel matrix.

Compliance is self-adjoint: dC = -u^T (dK) u + 2 u^T (dF).
"""

from __future__ import annotations

import numpy as np

from .enrich import EnrichedModel, IntegrationElement
from .fem import (DL, LoadCase, MaterialPair, adj2, build_b, cut_parent_dofs,
                  integration_element_gradients, inv2, tri_jacobian)

_CENTROID = np.array([1 / 3, 1 / 3, 1 / 3])


def design_velocity(xj, xk, phij, phik) -> np.ndarray:
    """Derivative of edge-intersection points with respect to ``phij``.

    For x_n = x_j + t (x_k - x_j) with t = phij / (phij - phik):
    d(x_n)/d(phij) = -phik / (phij - phik)^2 * (x_k - x_j).
    Raising the value at j pulls the intersection toward j when the far end
    is material, which fixes the sign. Swap the argument pairs to get the
    derivative with respect to ``phik``. Broadcasts over leading axes:
    points (..., 2), levelset values (...).
    """
    phij = np.asarray(phij, dtype=float)
    phik = np.asarray(phik, dtype=float)
    if np.any((phij == 0.0) | (phik == 0.0) | ((phij > 0.0) == (phik > 0.0))):
        raise ValueError("edge is not cut: levelset values must have "
                         "strictly opposite signs")
    xj = np.asarray(xj, dtype=float)
    xk = np.asarray(xk, dtype=float)
    return (-phik / np.float_power(phij - phik, 2))[..., None] * (xk - xj)


def jacobian_derivative(vertex: int, component: int) -> np.ndarray:
    """d(J)/d(x_vertex[component]) for J = coords^T DL: one nonzero row."""
    dj = np.zeros((2, 2))
    dj[component] = DL[vertex]
    return dj


def det_derivative(jac: np.ndarray, djac: np.ndarray) -> np.ndarray:
    """Directional derivative of det(J): trace(adj(J) dJ), shape (...)."""
    return np.einsum("...ij,...ji->...", adj2(jac), djac)


def inv_derivative(jac: np.ndarray, djac: np.ndarray) -> np.ndarray:
    """Directional derivative of J^{-1}: -J^{-1} dJ J^{-1}."""
    jinv = inv2(jac)
    # dJ J^{-1} first: for the one-row dJ of a moving vertex this is the
    # rank-one update -J^{-1}[:, c] (DL[l] J^{-1}) to the last bit
    return -(jinv @ (djac @ jinv))


def _enrichment_gradient_derivative(ie: IntegrationElement, jac, vertex: int,
                                    component: int) -> np.ndarray:
    """Five-slot gradient perturbation of moving local ``vertex`` along
    ``component``, shape (..., 5, 2): only the enriched rows respond."""
    dge = DL @ inv_derivative(jac, jacobian_derivative(vertex, component))
    rows = ie.slot_matrix @ dge
    return np.concatenate([np.zeros_like(dge), rows], axis=-2)


def integration_element_stiffness_derivative(
        model: EnrichedModel, ie: IntegrationElement, pair: MaterialPair,
        vertex: int, component: int) -> np.ndarray:
    """Derivative of integration-element stiffnesses with respect to moving
    local ``vertex`` along ``component``, shape (..., 5 d, 5 d).

    Only the determinant and the enrichment-gradient rows respond; the parent
    hat gradients are unaffected by interface motion.
    """
    d = pair.material.d_unit() * pair.modulus_of(ie.material)[..., None, None]
    b = build_b(integration_element_gradients(model, ie), pair.field_dim)
    jac = tri_jacobian(ie.coords)
    djdet = det_derivative(jac, jacobian_derivative(vertex, component))
    db = build_b(_enrichment_gradient_derivative(ie, jac, vertex, component),
                 pair.field_dim)
    cross = np.swapaxes(db, -1, -2) @ d @ b
    return 0.5 * djdet[..., None, None] * (np.swapaxes(b, -1, -2) @ d @ b) \
        + np.asarray(ie.area)[..., None, None] \
        * (cross + np.swapaxes(cross, -1, -2))


def integration_element_force_derivative(
        model: EnrichedModel, ie: IntegrationElement, body, field_dim: int,
        vertex: int, component: int) -> np.ndarray:
    """Derivative of integration elements' body-load vectors with respect
    to moving local ``vertex`` along ``component``, shape (..., 5 field_dim).

    The first term scales the load with the area change; the second moves the
    centroid through the parent hat functions. The enrichment block of the
    second term is identically zero: enrichment values at the centroid are
    fixed barycentric weights. ``body`` is one source for all elements or
    one per element, as in :func:`igtop.fem.integration_element_force`.
    """
    bvec = np.atleast_1d(np.asarray(body, dtype=float))
    jac = tri_jacobian(ie.coords)
    djdet = det_derivative(jac, jacobian_derivative(vertex, component))
    shape = np.concatenate([model.parent_hats(ie, _CENTROID),
                            model.enrichment_values(ie, _CENTROID)], axis=-1)
    dhat = model.mesh.hat_gradients[ie.parent][..., component] / 3.0
    dshape = np.concatenate([dhat, np.zeros_like(dhat[..., :2])], axis=-1)
    rate = 0.5 * djdet[..., None] * shape \
        + np.asarray(ie.area)[..., None] * dshape
    load = rate[..., :, None] * bvec[..., None, :]
    return load.reshape(load.shape[:-2] + (5 * field_dim,))


def _dot(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Dot products of stacked vectors (..., n), shape (...)."""
    return (a[..., None, :] @ b[..., :, None])[..., 0, 0]


def _to_nodes(model: EnrichedModel, dx: np.ndarray) -> np.ndarray:
    """Carry derivatives with respect to the vertex coordinates of
    ``model.tiles``, shape (3 n_cut, 3, 2), through the enriched-node
    positions to the nodal levelset values; original vertices do not move.
    """
    per_tile = (model.tiles.slot_matrix @ dx).reshape(-1, 3, 2, 2)
    per_slot = per_tile[:, 0] + per_tile[:, 1] + per_tile[:, 2]
    edges = model.enr_edges[model.parent_slots]  # (n_cut, slot, end)
    j, k = edges[..., 0], edges[..., 1]
    xj, xk = model.mesh.nodes[j], model.mesh.nodes[k]
    pj, pk = model.phi[j], model.phi[k]
    wj = _dot(per_slot, design_velocity(xj, xk, pj, pk))
    wk = _dot(per_slot, design_velocity(xk, xj, pk, pj))
    out = np.zeros(model.mesh.n_nodes)
    np.add.at(out, edges.ravel(), np.stack([wj, wk], axis=-1).ravel())
    return out


def nodal_compliance_gradient(model: EnrichedModel, pair: MaterialPair,
                              loads: LoadCase, u: np.ndarray) -> np.ndarray:
    """d(compliance)/d(phi_j) for every mesh node.

    Nonzero only at endpoints of cut edges. ``u`` is the equilibrium solution
    for the same model, materials, and loads. Per integration-element vertex
    motion, -u^T dK u is contracted from the factors of
    :func:`integration_element_stiffness_derivative` without forming dK.
    """
    tiles = model.tiles
    d = pair.field_dim
    ue = u[cut_parent_dofs(model, np.arange(3 * model.n_cut) // 3, d)]
    dmat = pair.material.d_unit() \
        * pair.modulus_of(tiles.material)[:, None, None]
    strain = (build_b(integration_element_gradients(model, tiles), d)
              @ ue[..., None])[..., 0]
    stress = (dmat @ strain[..., None])[..., 0]
    energy = _dot(strain, stress)
    jac = tri_jacobian(tiles.coords)
    body = loads.body_of(tiles.material, d)
    dx = np.zeros((3 * model.n_cut, 3, 2))
    for l in range(3):
        for c in range(2):
            djdet = det_derivative(jac, jacobian_derivative(l, c))
            db = build_b(_enrichment_gradient_derivative(tiles, jac, l, c), d)
            dstrain = (db @ ue[..., None])[..., 0]
            dx[:, l, c] = -(0.5 * djdet * energy
                            + 2.0 * tiles.area * _dot(dstrain, stress))
            if body is not None:
                df = integration_element_force_derivative(
                    model, tiles, body, d, l, c)
                dx[:, l, c] += 2.0 * _dot(ue, df)
    return _to_nodes(model, dx)


def nodal_volume_gradient(model: EnrichedModel,
                          which: str = "material") -> np.ndarray:
    """d(phase volume)/d(phi_j) for every mesh node.

    The material and void gradients sum to zero entrywise: parent areas are
    fixed, interface motion only trades one phase for the other.
    """
    if which not in ("material", "void"):
        raise ValueError(f"which must be 'material' or 'void', got {which!r}")
    tiles = model.tiles
    # d(area)/d(x_l[c]) = det_derivative / 2 = (DL adj(J))[l, c] / 2
    darea = 0.5 * (DL @ adj2(tri_jacobian(tiles.coords)))
    phase = tiles.material == (which == "material")
    return _to_nodes(model, np.where(phase[:, None, None], darea, 0.0))


def compliance_gradient(model: EnrichedModel, levelset, pair: MaterialPair,
                        loads: LoadCase, u: np.ndarray) -> np.ndarray:
    """d(compliance)/d(s_i) through the kernel matrix."""
    nodal = nodal_compliance_gradient(model, pair, loads, u)
    return np.asarray(levelset.dphi_ds().T @ nodal).ravel()


def volume_gradient(model: EnrichedModel, levelset,
                    which: str = "material") -> np.ndarray:
    """d(phase volume)/d(s_i) through the kernel matrix."""
    nodal = nodal_volume_gradient(model, which)
    return np.asarray(levelset.dphi_ds().T @ nodal).ravel()
