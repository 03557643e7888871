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

from .enrich import EnrichedModel, cut_values
from .fem import LoadCase, MaterialPair, build_b, cut_parent_dofs


def design_velocity(xj, xk, phij, phik) -> np.ndarray:
    """Derivative of edge-intersection points with respect to ``phij``.

    For x_n = x_j + t (x_k - x_j) with t = phij / (phij - phik):
    d(x_n)/d(phij) = -phik / (phij - phik)^2 * (x_k - x_j).
    Raising the value at j pulls the intersection toward j when the far end
    is material, which fixes the sign. Swap the argument pairs to get the
    derivative with respect to ``phik``. Broadcasts over leading axes:
    points (..., 2), levelset values (...).
    """
    phij, phik = cut_values(phij, phik)
    xj = np.asarray(xj, dtype=float)
    xk = np.asarray(xk, dtype=float)
    return (-phik / np.float_power(phij - phik, 2))[..., None] * (xk - xj)


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
    # (n_cut, slot, end)
    edges = model.enr_edges.take(model.parent_slots, axis=0)
    j, k = edges[..., 0], edges[..., 1]
    xj, xk = (model.mesh.nodes.take(e, axis=0) for e in (j, k))
    pj, pk = model.phi[j], model.phi[k]
    wj = _dot(per_slot, design_velocity(xj, xk, pj, pk))
    wk = _dot(per_slot, design_velocity(xk, xj, pk, pj))
    w = np.stack([wj, wk], axis=-1)
    # float even without a cut edge, where bincount gives integer zeros
    return np.bincount(edges.ravel(), weights=w.ravel(),
                       minlength=model.mesh.n_nodes).astype(float, copy=False)


def nodal_compliance_gradient(model: EnrichedModel, pair: MaterialPair,
                              loads: LoadCase, u: np.ndarray) -> np.ndarray:
    """d(compliance)/d(phi_j) for every mesh node.

    Nonzero only at endpoints of cut edges. ``u`` is the equilibrium solution
    for the same model, materials, and loads. Moving tile vertex l along c
    changes det J by ``ddet[l, c]`` and enrichment gradient s by the rank one
    -ge[s, c] g[l] (g = ``hats``, ge = ``grads[3:]``), so all six entries
    -u^T dK u + 2 u^T dF take one closed form and no dB is built:
    -ddet (eps . sig) / 2 + 2 A g[l] T H[:, c] + ddet (N . w)
    + (2 A / 3) w[:3] . grads[:3, c], with strain eps, stress sig and its
    2 x d tensor T, H = U_enr^T ge, centroid shape values N and w = U b.
    The per-direction operators in ``tests/oracles.py`` are its reference.
    """
    tiles = model.tiles
    d = pair.field_dim
    ue = u[cut_parent_dofs(model, d)].repeat(3, axis=0)
    dmat = pair.physics.d_unit() \
        * pair.modulus_of(tiles.material)[:, None, None]
    strain = (build_b(model.grads, d) @ ue[..., None])[..., 0]
    stress = (dmat @ strain[..., None])[..., 0]
    ue = ue.reshape(-1, 5, d)
    # the stress as the 2 x d tensor that pairs with the displacement gradient
    sigma = stress[:, [[0], [1]] if d == 1 else [[0, 2], [2, 1]]]
    h_enr = np.swapaxes(ue[:, 3:], -1, -2) @ model.grads[:, 3:]
    area2 = (2.0 * tiles.area)[:, None, None]
    dx = -(0.5 * _dot(strain, stress)[:, None, None] * model.ddet
           - area2 * (model.hats @ sigma @ h_enr))
    if loads.body is not None:
        w = (ue @ loads.body[:, None])[..., 0]
        dx += _dot(model.centroid_shape, w)[:, None, None] * model.ddet \
            + area2 / 3.0 * (w[:, None, :3] @ model.grads[:, :3])
    return _to_nodes(model, dx)


def nodal_volume_gradient(model: EnrichedModel) -> np.ndarray:
    """d(material volume)/d(phi_j) for every mesh node."""
    darea = 0.5 * model.ddet
    return _to_nodes(model, np.where(model.tiles.material[:, None, None],
                                     darea, 0.0))


def compliance_gradient(model: EnrichedModel, levelset, pair: MaterialPair,
                        loads: LoadCase, u: np.ndarray) -> np.ndarray:
    """d(compliance)/d(s_i) through the kernel matrix."""
    nodal = nodal_compliance_gradient(model, pair, loads, u)
    return np.asarray(levelset.theta.T @ nodal).ravel()


def volume_gradient(model: EnrichedModel, levelset) -> np.ndarray:
    """d(material volume)/d(s_i) through the kernel matrix."""
    nodal = nodal_volume_gradient(model)
    return np.asarray(levelset.theta.T @ nodal).ravel()
