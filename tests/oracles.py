"""Per-direction derivatives of the integration-element operators.

The package computes the compliance gradient in one closed form
(:func:`igtop.sensitivity.nodal_compliance_gradient`). The operators here
build the same derivatives one vertex direction at a time, from the chain
rule through the Jacobian inverse, and serve the tests as its independent
reference.
"""

import numpy as np

from igtop.fem import build_b
from igtop.mesh import DL, adj2, tri_jacobian


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


def integration_element_stiffness_derivative(model, ie, pair, vertex: int,
                                             component: int) -> np.ndarray:
    """Derivative of integration-element stiffnesses with respect to moving
    local ``vertex`` along ``component``, shape (..., 5 d, 5 d).

    Only the determinant and the enrichment-gradient rows respond; the parent
    hat gradients are unaffected by interface motion.
    """
    geom = model.geometry(ie)
    d = pair.material.d_unit() * pair.modulus_of(ie.material)[..., None, None]
    b = build_b(geom.grads, pair.field_dim)
    djdet = geom.ddet[..., vertex, component]
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
    fixed barycentric weights. ``body`` is one source for all elements or
    one per element, as in :func:`igtop.fem.integration_element_force`.
    """
    bvec = np.atleast_1d(np.asarray(body, dtype=float))
    geom = model.geometry(ie)
    djdet = geom.ddet[..., vertex, component]
    dhat = geom.grads[..., :3, component] / 3.0  # parent hat gradients
    dshape = np.concatenate([dhat, np.zeros_like(dhat[..., :2])], axis=-1)
    rate = 0.5 * djdet[..., None] * model.centroid_shape(ie) \
        + np.asarray(ie.area)[..., None] * dshape
    load = rate[..., :, None] * bvec[..., None, :]
    return load.reshape(load.shape[:-2] + (5 * load.shape[-1],))
