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

from .mesh import Mesh, cross2

VOID, MATERIAL, CUT = 0, 1, 2

_DIAG_TIE_REL = 1e-12

# A cut parent's five local points are the lone-sign vertex a, the vertices
# b and c that follow it counterclockwise, and the enriched nodes on ab and
# ac. Its corner triangle (a, e_ab, e_ac) comes first; the quad
# (e_ab, b, c, e_ac) splits along the diagonal e_ac-b (table 0) or e_ab-c
# (table 1).
_TILES = np.array([[[0, 3, 4], [3, 1, 4], [1, 2, 4]],
                   [[0, 3, 4], [3, 1, 2], [3, 2, 4]]])


def snap_nodal_levelset(phi: np.ndarray, relative_eps: float = 1e-10) -> np.ndarray:
    """Copy of ``phi`` with entries near zero replaced by a small positive value.

    Guarantees no entry satisfies ``|phi| < eps`` with
    ``eps = relative_eps * max(|phi|)`` (scale floored for the all-zero
    vector), so every element classifies cleanly as material, void, or cut
    and edge intersections stay strictly inside their edges.
    """
    phi = np.asarray(phi, dtype=float)
    scale = max(float(np.max(np.abs(phi))) if phi.size else 0.0, 1e-30)
    eps = relative_eps * scale
    out = phi.copy()
    out[np.abs(out) < eps] = eps
    return out


def intersect_edge(xj, xk, phij: float, phik: float):
    """Zero-contour crossing of the segment from ``xj`` to ``xk``.

    Returns ``(point, t)`` with ``point = xj + t (xk - xj)`` and
    ``t = phij / (phij - phik)``. Requires strictly opposite nonzero signs.
    """
    if phij == 0.0 or phik == 0.0 or (phij > 0.0) == (phik > 0.0):
        raise ValueError(
            f"edge is not cut: levelset values {phij} and {phik} "
            f"must have strictly opposite signs")
    t = phij / (phij - phik)
    xj = np.asarray(xj, dtype=float)
    xk = np.asarray(xk, dtype=float)
    return xj + t * (xk - xj), t


@dataclass(frozen=True, eq=False)
class EnrichedNode:
    """Interface node on a cut edge.

    ``edge`` holds the original node pair (j, k) with j < k; ``t`` is the
    fractional position from j toward k.
    """

    index: int
    edge: tuple[int, int]
    t: float
    coords: np.ndarray


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

    @property
    def slot_matrix(self) -> np.ndarray:
        """0/1 map from the vertices to the parent's two enriched slots,
        shape (..., 2, 3): entry (s, l) is 1 where vertex l holds slot s."""
        slots = np.asarray(self.enr_slots)[..., None, :]
        return (slots == np.arange(2)[:, None]).astype(float)


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
    enr_t : ndarray, shape (n_enriched,)
        Fractional position of each enriched node from j toward k.
    enr_coords : ndarray, shape (n_enriched, 2)
    cut_parents : ndarray
        Cut element indices, ascending. Cut parent row r owns integration
        elements 3r to 3r+2 and enriched slots ``parent_slots[r]``.
    parent_slots : ndarray, shape (n_cut, 2)
        Enriched-node indices per cut parent, in canonical edge order.
    tiles : IntegrationElement
        All integration elements stacked along a leading axis of 3 n_cut.
    """

    mesh: Mesh
    phi: np.ndarray
    element_state: np.ndarray
    enr_edges: np.ndarray
    enr_t: np.ndarray
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
    def enriched_nodes(self) -> list:
        """Per-node view of the enriched nodes, built on first use."""
        return [EnrichedNode(index=m, edge=(j, k), t=t, coords=x)
                for m, ((j, k), t, x) in enumerate(zip(
                    self.enr_edges.tolist(), self.enr_t.tolist(),
                    self.enr_coords))]

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

    def parent_hats(self, ie: IntegrationElement, bary) -> np.ndarray:
        """Original (parent) hat functions evaluated at one barycentric
        point of integration elements, shape (..., 3). Always sums to 1."""
        x = np.asarray(bary, dtype=float) @ ie.coords
        x0 = self.mesh.nodes[self.mesh.elements[ie.parent, 0]]
        n = (self.mesh.hat_gradients[ie.parent]
             @ (x - x0)[..., None])[..., 0]
        n[..., 0] += 1.0
        return n

    def enrichment_values(self, ie: IntegrationElement, bary) -> np.ndarray:
        """Enrichment functions of the parent's two enriched slots at a
        barycentric point of integration elements, shape (..., 2). Each is
        the integration-element hat of its enriched node, zero if that node
        is not a vertex of the element."""
        return np.einsum("...sl,...l->...s", ie.slot_matrix,
                         np.asarray(bary, dtype=float))

    def material_volume(self) -> float:
        """Total area of the material phase (uncut material elements plus
        material integration elements)."""
        vol = float(self.mesh.areas[self.element_state == MATERIAL].sum())
        # a running sum fixes the order in which the pieces are added
        pieces = np.cumsum(self.tiles.area[self.tiles.material])
        return vol + (float(pieces[-1]) if pieces.size else 0.0)


def build_enriched_model(mesh: Mesh, phi: np.ndarray) -> EnrichedModel:
    """Classify elements against a snapped nodal levelset and tile cut ones.

    ``phi`` must contain no exact zeros (run :func:`snap_nodal_levelset`
    first). The construction is deterministic: identical inputs produce
    bitwise-identical models.
    """
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
    pairs = np.sort(abc[:, [[0, 1], [0, 2]]], axis=2)  # edges ab, ac
    edges = np.unique(pairs.reshape(-1, 2), axis=0)
    ej, ek = edges[:, 0], edges[:, 1]
    t = phi[ej] / (phi[ej] - phi[ek])
    enr_coords = mesh.nodes[ej] + t[:, None] * (mesh.nodes[ek] - mesh.nodes[ej])
    keys = ej * mesh.n_nodes + ek
    enr = np.searchsorted(keys, pairs[..., 0] * mesh.n_nodes + pairs[..., 1])

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
                         enr_edges=edges, enr_t=t, enr_coords=enr_coords,
                         cut_parents=cut_ids, parent_slots=parent_slots,
                         tiles=tiles)
