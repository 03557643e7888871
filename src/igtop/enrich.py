"""Interface geometry: cut detection, enriched nodes, integration elements.

A nodal levelset classifies each element as material (all nodes positive),
void (all negative), or cut. Each cut element gains one enriched node per
sign-change edge (exactly two) and is tiled by three integration elements
whose union reproduces the parent exactly. Enrichment functions are the hat
functions of the integration elements attached to the enriched nodes; they
vanish at all original mesh nodes, so essential boundary conditions stay on
original degrees of freedom.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .mesh import Mesh, cofactor_rows, cross2

VOID, MATERIAL, CUT = 0, 1, 2

_DIAG_TIE_REL = 1e-12
_SNAP_REL = 1e-10
_LONE_REL = 1e-5

# A cut parent's five local points are the lone-sign vertex a, the vertices
# b and c that follow it counterclockwise, and the enriched nodes on ab and
# ac. Its corner triangle (a, e_ab, e_ac) comes first; the quad
# (e_ab, b, c, e_ac) splits along the diagonal e_ac-b (table 0) or e_ab-c
# (table 1).
_TILES = np.array([[[0, 3, 4], [3, 1, 4], [1, 2, 4]],
                   [[0, 3, 4], [3, 1, 2], [3, 2, 4]]])

# Tables by sign code p0 + 2 p1 + 4 p2 (p_l: phi > 0 at local vertex l):
# the state and, for a cut element, a b c, its (ac, ab) edge-order flip and
# its tiles' phases; _SLOTS gives the tiles' enriched slots by flip, diagonal.
_STATE = np.array([VOID, CUT, CUT, CUT, CUT, CUT, CUT, MATERIAL], dtype=np.int8)
_LONE = np.array([0, 0, 1, 2, 2, 1, 0, 0])
_ABC = (_LONE[:, None] + np.arange(3)) % 3
_FLIP = (_LONE != 0).astype(np.intp)
_MATERIAL = ((np.arange(8) >> _LONE) & 1 == 1)[:, None] != [False, True, True]
_SLOTS = np.array([[-1, -1, -1, 0, 1], [-1, -1, -1, 1, 0]])[:, _TILES]

_CENTROID = np.array([1 / 3, 1 / 3, 1 / 3])


def _check_finite(phi: np.ndarray) -> None:
    if not np.isfinite(phi).all():
        raise ValueError(f"nodal levelset is not finite at node "
                         f"{np.flatnonzero(~np.isfinite(phi))[0]}")


def snap_nodal_levelset(phi: np.ndarray) -> np.ndarray:
    """Copy of ``phi`` with entries near zero replaced by a small positive value.

    Guarantees no entry satisfies ``|phi| < eps`` with
    ``eps = 1e-10 * max(|phi|)`` (scale floored for the all-zero vector), so
    every element classifies cleanly as material, void, or cut and edge
    intersections stay strictly inside their edges. Raises ValueError if an
    entry is not finite.
    """
    phi = np.asarray(phi, dtype=float)
    _check_finite(phi)
    scale = max(float(np.max(np.abs(phi))) if phi.size else 0.0, 1e-30)
    eps = _SNAP_REL * scale
    out = phi.copy()
    out[np.abs(out) < eps] = eps
    return out


def flip_lone_nodes(phi: np.ndarray, mesh: Mesh) -> np.ndarray:
    """``phi`` with each lone node flipped (phi -> -phi): a node whose sign
    differs from that of every mesh neighbour and whose |phi| is below
    ``1e-5`` of the smallest |phi| among them. Every edge around such a node
    is cut close to it, into slivers whose enrichments nearly sum to the
    node's own hat function, which the solve's pivot check refuses. Only a
    node below 1e-5 of max|phi| can be lone, and one below the snap's 1e-10
    of max|phi| is left as it is, since the snap gives it the same value
    whichever its sign. A node's neighbours are the other two corners of
    each element at it; ``phi`` itself is returned when no node flips.
    """
    phi = np.asarray(phi, dtype=float)
    magnitude = np.abs(phi)
    top = magnitude.max()
    near = (magnitude < _LONE_REL * top) & (magnitude >= _SNAP_REL * top)
    if not near.any():
        return phi
    # each element corner at a candidate, by flat position, and the next two
    at = np.flatnonzero(near.take(mesh.elements))[:, None]
    node = np.repeat(mesh.elements.take(at), 2)
    around = mesh.elements.take(at - at % 3 + (at + [1, 2]) % 3).ravel()
    same = np.bincount(node[(phi[around] > 0.0) == (phi[node] > 0.0)],
                       minlength=phi.size)
    smallest = np.full(phi.size, np.inf)
    np.minimum.at(smallest, node, magnitude[around])
    lone = near & (same == 0) & (magnitude < _LONE_REL * smallest)
    if not lone.any():
        return phi
    out = phi.copy()
    out[lone] *= -1.0
    return out


def cut_values(phij, phik):
    """Levelset values at the ends of cut edges as float arrays; raises
    ValueError unless each pair has strictly opposite nonzero signs."""
    phij = np.asarray(phij, dtype=float)
    phik = np.asarray(phik, dtype=float)
    if np.any((phij == 0.0) | (phik == 0.0) | ((phij > 0.0) == (phik > 0.0))):
        raise ValueError("edge is not cut: levelset values must have "
                         "strictly opposite signs")
    return phij, phik


def intersect_edge(xj, xk, phij, phik):
    """Zero-contour crossings of the segments from ``xj`` to ``xk``.

    Returns the points ``xj + t (xk - xj)`` with ``t = phij / (phij -
    phik)``. Requires strictly opposite nonzero signs. Broadcasts over
    leading axes: points (..., 2), levelset values (...).
    """
    phij, phik = cut_values(phij, phik)
    t = phij / (phij - phik)
    xj = np.asarray(xj, dtype=float)
    xk = np.asarray(xk, dtype=float)
    return xj + t[..., None] * (xk - xj)


@dataclass(frozen=True, eq=False)
class IntegrationElement:
    """One triangle of a cut parent's exact tiling, or a stack of them in
    which every field gains the same leading axes.

    ``vertex_ids`` are global: original node index, or ``n_nodes + m`` for
    enriched node m. ``enr_slots[l]`` is the parent-local enriched slot (0 or
    1) of vertex l, or -1 for original vertices.
    """

    parent: int
    vertex_ids: tuple[int, int, int]
    enr_slots: tuple[int, int, int]
    coords: np.ndarray
    material: bool
    area: float

    @cached_property
    def slot_matrix(self) -> np.ndarray:
        """0/1 map from the vertices to the parent's two enriched slots,
        shape (..., 2, 3), kept read-only: entry (s, l) is 1 where vertex l
        holds slot s."""
        slots = np.asarray(self.enr_slots)[..., None, :]
        matrix = (slots == np.arange(2)[:, None]).astype(float)
        matrix.flags.writeable = False
        return matrix


@dataclass(eq=False, repr=False)
class EnrichedModel:
    """Cut classification plus interface tiling for one levelset snapshot.

    Attributes
    ----------
    mesh : Mesh
    phi : ndarray
        Snapped nodal levelset the model was built from.
    element_state : ndarray of int8
        Per element: 0 void, 1 material, 2 cut.
    enr_edges : ndarray, shape (n_enriched, 2)
        Cut edge (j, k), j < k, of each enriched node, in lexicographic
        order.
    enr_coords : ndarray, shape (n_enriched, 2)
    cut_parents : ndarray
        Cut element indices, ascending. Cut parent row r owns integration
        elements 3r to 3r+2 and enriched slots ``parent_slots[r]``.
    parent_slots : ndarray, shape (n_cut, 2)
        Enriched-node indices per cut parent, in canonical edge order.
    tiles : IntegrationElement
        All integration elements stacked along a leading axis of 3 n_cut.

    Cached float64 arrays of ``tiles``, each computed when first read:
    ``ddet``, ``hats`` and ``grads`` (an assembly's) and
    ``centroid_shape`` (only a body load's).
    """

    mesh: Mesh
    phi: np.ndarray
    element_state: np.ndarray
    enr_edges: np.ndarray
    enr_coords: np.ndarray
    cut_parents: np.ndarray
    parent_slots: np.ndarray
    tiles: IntegrationElement

    @property
    def n_enriched(self) -> int:
        return self.enr_edges.shape[0]

    @property
    def n_cut(self) -> int:
        return len(self.cut_parents)

    @cached_property
    def integration(self) -> list:
        """Per-element view of ``tiles``, built on first use: entry i is
        row i as one :class:`IntegrationElement`."""
        t = self.tiles
        return [IntegrationElement(parent=p, vertex_ids=tuple(v),
                                   enr_slots=tuple(s), coords=x, material=m,
                                   area=a)
                for p, v, s, x, m, a in zip(
                    t.parent.tolist(), t.vertex_ids.tolist(),
                    t.enr_slots.tolist(), t.coords, t.material.tolist(),
                    t.area.tolist())]

    @cached_property
    def ddet(self) -> np.ndarray:
        """The cofactor rows of ``tiles``, shape (..., 3, 2): entry (l, c)
        is d(det J)/d(x_l[c]), twice the rate of change of the area as
        vertex l moves along axis c."""
        return cofactor_rows(self.tiles.coords)

    @cached_property
    def hats(self) -> np.ndarray:
        """The hat gradients of ``tiles`` themselves, ``ddet`` over det J,
        shape (..., 3, 2)."""
        return self.ddet / (2 * np.asarray(self.tiles.area))[..., None, None]

    @cached_property
    def grads(self) -> np.ndarray:
        """Five-slot shape gradients of ``tiles``, shape (..., 5, 2): the
        parent's three hat gradients, then the gradients of its two
        enrichment functions, :attr:`IntegrationElement.slot_matrix` times
        ``hats`` (the tile's hat gradients at the slots' vertices)."""
        t = self.tiles
        return np.concatenate([self.mesh.hat_gradients.take(t.parent, axis=0),
                               t.slot_matrix @ self.hats], axis=-2)

    @cached_property
    def centroid_shape(self) -> np.ndarray:
        """The parent hats, which sum to 1, and the two enrichment values at
        the centroids of ``tiles``, shape (..., 5): the weights of a body
        load, computed only when one needs them and kept. An enrichment
        value is the tile's hat of its enriched node, zero if that node is
        not a vertex."""
        mesh, t = self.mesh, self.tiles
        x0 = mesh.nodes[mesh.elements[t.parent, 0]]
        hats = np.einsum("...ic,...c->...i", mesh.hat_gradients[t.parent],
                         _CENTROID @ t.coords - x0)
        hats[..., 0] += 1.0
        enr = np.einsum("...sl,...l->...s", t.slot_matrix, _CENTROID)
        return np.concatenate([hats, enr], axis=-1)

    def material_volume(self) -> float:
        """Total area of the material phase (uncut material elements plus
        material integration elements)."""
        vol = float(self.mesh.areas[self.element_state == MATERIAL].sum())
        # a running sum fixes the order in which the pieces are added
        pieces = np.cumsum(self.tiles.area[self.tiles.material])
        return vol + (float(pieces[-1]) if pieces.size else 0.0)


def build_enriched_model(mesh: Mesh, phi: np.ndarray) -> EnrichedModel:
    """Classify elements against a snapped nodal levelset and tile cut ones.

    ``phi`` must be finite and contain no exact zeros (run
    :func:`snap_nodal_levelset` first). The construction is deterministic:
    identical inputs produce bitwise-identical models.
    """
    phi = np.asarray(phi, dtype=float)
    if phi.shape != (mesh.n_nodes,):
        raise ValueError(f"levelset has shape {phi.shape}, "
                         f"expected ({mesh.n_nodes},)")
    _check_finite(phi)
    if (phi == 0.0).any():
        raise ValueError("nodal levelset contains exact zeros; "
                         "apply snap_nodal_levelset first")

    n = mesh.n_nodes
    pos = (phi > 0.0).view(np.uint8).take(mesh.elements.T)
    code = pos[0] + 2 * pos[1] + 4 * pos[2]
    state = _STATE[code]
    cut_ids = np.flatnonzero(state == CUT)
    code = code[cut_ids]

    # a, b, c as global nodes; ab and ac are the cut edges
    abc = mesh.elements.take(3 * cut_ids[:, None] + _ABC[code])
    ends = abc[:, 1:]
    pair_keys = np.minimum(abc[:, :1], ends) * n + np.maximum(abc[:, :1], ends)

    # unique cut edges in lexicographic order become the enriched nodes; the
    # keys j * n + k of edges j < k sort like the pairs, one kept per run
    keys = np.sort(pair_keys, axis=None)
    keys = keys[keys != np.append(keys[1:], -1)]
    enr = np.searchsorted(keys, pair_keys)
    edges = np.stack(np.divmod(keys, n), axis=1)
    enr_coords = intersect_edge(*mesh.nodes.take(edges.T, axis=0),
                                *phi[edges.T])

    # canonical edge order puts ab first only when a is local vertex 0
    flip = _FLIP[code]
    parent_slots = np.where(flip[:, None], enr[:, ::-1], enr)
    ids = np.concatenate([abc, n + enr], axis=1)
    points = np.concatenate([mesh.nodes, enr_coords]).take(ids, axis=0)

    # split the quad along its shorter diagonal; ties go to the diagonal
    # touching the lower node index
    d1 = np.hypot(*(points[:, 2] - points[:, 3]).T)
    d2 = np.hypot(*(points[:, 4] - points[:, 1]).T)
    tie = np.abs(d1 - d2) <= _DIAG_TIE_REL * np.maximum(d1, d2)
    diag = np.where(tie, abc[:, 2] < abc[:, 1], d1 < d2).astype(np.intp)
    at = (5 * np.arange(code.size)[:, None, None]
          + _TILES[diag]).reshape(-1, 3)
    coords = points.reshape(-1, 2).take(at, axis=0)
    edge = coords[:, 1:] - coords[:, :1]
    area = 0.5 * cross2(edge[:, 0], edge[:, 1])
    assert np.all(area > 0.0), \
        "integration element lost counterclockwise orientation"
    tiles = IntegrationElement(
        parent=np.repeat(cut_ids, 3), vertex_ids=ids.take(at),
        enr_slots=_SLOTS[flip, diag].reshape(-1, 3), coords=coords,
        material=_MATERIAL[code].ravel(), area=area)

    return EnrichedModel(mesh=mesh, phi=phi, element_state=state,
                         enr_edges=edges, enr_coords=enr_coords,
                         cut_parents=cut_ids, parent_slots=parent_slots,
                         tiles=tiles)
