"""Structured triangular meshes on axis-aligned rectangular domains."""

from __future__ import annotations

import numbers
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .errors import ConfigError, finite_number


# gradients of the master-triangle hat functions (L1, L2, L3)
DL = np.array([[-1.0, -1.0], [1.0, 0.0], [0.0, 1.0]])


def cross2(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """z-component of the cross product of stacked 2-D vectors."""
    return a[..., 0] * b[..., 1] - a[..., 1] * b[..., 0]


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
    (..., 3, 2), in their dtype: row i is the rotated opposite edge
    (y_j - y_k, x_k - x_j) over twice the area, with (i, j, k) cyclic.
    Mesh elements, cut parents and integration elements all take their hat
    gradients from here.
    """
    g = np.empty_like(coords)
    for i in range(3):
        j, k = (i + 1) % 3, (i + 2) % 3
        g[..., i, 0] = coords[..., j, 1] - coords[..., k, 1]
        g[..., i, 1] = coords[..., k, 0] - coords[..., j, 0]
    g /= cross2(coords[..., 1, :] - coords[..., 0, :],
                coords[..., 2, :] - coords[..., 0, :])[..., None, None]
    return g


@dataclass(frozen=True)
class Mesh:
    """Conforming linear-triangle mesh of a rectangle.

    Attributes
    ----------
    nodes : ndarray, shape (n_nodes, 2)
        Node coordinates, float64.
    elements : ndarray, shape (n_elements, 3)
        Node indices per triangle, counterclockwise.
    boundary : dict of str to ndarray
        Node indices on each side (``SIDES``),
        ordered along the side. Corner nodes appear in both incident sides.
    """

    nodes: np.ndarray
    elements: np.ndarray
    boundary: dict[str, np.ndarray] = field(default_factory=dict)

    @property
    def n_nodes(self) -> int:
        return self.nodes.shape[0]

    @property
    def n_elements(self) -> int:
        return self.elements.shape[0]

    @cached_property
    def areas(self) -> np.ndarray:
        """Element areas, shape (n_elements,). All positive for CCW elements."""
        x = self.nodes.take(self.elements, axis=0)
        d = cross2(x[:, 1] - x[:, 0], x[:, 2] - x[:, 0])
        return 0.5 * d

    @cached_property
    def hat_gradients(self) -> np.ndarray:
        """Physical gradients of the three nodal hat functions per element.

        Returns shape (n_elements, 3, 2); row i holds grad(N_i), constant on
        the element.
        """
        return cofactor_hat_gradients(self.nodes.take(self.elements, axis=0))

    def nearest_node(self, point) -> int:
        """Index of the node closest to ``point``; ties go to the lowest index."""
        p = np.asarray(point, dtype=float)
        d2 = np.sum((self.nodes - p) ** 2, axis=1)
        return int(np.argmin(d2))


# the sides of a rectangle, the keys of ``Mesh.boundary``
SIDES = ("left", "right", "bottom", "top")


def structured_grid(width: float, height: float, nx: int, ny: int) -> Mesh:
    """Build a structured right-triangle mesh of ``[0, width] x [0, height]``.

    Nodes are numbered row-major from the bottom-left corner: node (i, j) has
    index ``j*nx + i``. Each grid cell is split along its lower-left to
    upper-right diagonal into two counterclockwise triangles,
    ``(n00, n10, n11)`` and ``(n00, n11, n01)``.

    Parameters
    ----------
    width, height : float
        Domain extents, strictly positive.
    nx, ny : int
        Node counts per direction, at least 2 each.

    Raises
    ------
    ConfigError
        If extents are not finite and positive or node counts are not
        integers of at least 2.
    """
    problems = []
    if not all(finite_number(numbers.Real, w) and w > 0.0
               for w in (width, height)):
        problems.append(f"domain extents must be finite and positive, got "
                        f"{width!r} x {height!r}")
    if not all(finite_number(numbers.Integral, n) and n >= 2
               for n in (nx, ny)):
        problems.append(f"need an integer of at least 2 nodes per "
                        f"direction, got {nx!r} x {ny!r}")
    if problems:
        raise ConfigError(problems)

    xs = np.linspace(0.0, width, nx)
    ys = np.linspace(0.0, height, ny)
    gx, gy = np.meshgrid(xs, ys)  # shape (ny, nx), row-major matches j*nx + i
    nodes = np.column_stack([gx.ravel(), gy.ravel()])

    i = np.arange(nx - 1)
    j = np.arange(ny - 1)
    ii, jj = np.meshgrid(i, j)
    n00 = (jj * nx + ii).ravel()
    n10 = n00 + 1
    n01 = n00 + nx
    n11 = n01 + 1
    lower = np.column_stack([n00, n10, n11])
    upper = np.column_stack([n00, n11, n01])
    elements = np.empty((2 * lower.shape[0], 3), dtype=np.int64)
    elements[0::2] = lower
    elements[1::2] = upper

    boundary = dict(zip(SIDES, (np.arange(ny) * nx,
                                np.arange(ny) * nx + (nx - 1),
                                np.arange(nx),
                                (ny - 1) * nx + np.arange(nx))))
    return Mesh(nodes=nodes, elements=elements, boundary=boundary)
