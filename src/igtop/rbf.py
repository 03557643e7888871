"""Compactly supported radial-basis-function parametrization of the levelset.

The design field is phi(x) = sum_i theta_i(x) s_i with Wendland C2 kernels
theta_i centered on a coarse grid; s is the design vector. Evaluation at the
analysis-mesh nodes reduces to one sparse matrix that is built once per
mesh/grid pairing and reused for both field values and design derivatives.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy import sparse
from scipy.sparse.linalg import splu
from scipy.spatial import cKDTree

from .errors import ConfigError

DEFAULT_SUPPORT_FACTOR = float(np.sqrt(2.0))

# Stored-entry cutoff sits a hair above the support radius so centers exactly
# on the support boundary keep an explicit (zero) entry in the sparse pattern.
_SUPPORT_SLACK = 1.0 + 1e-12


def wendland(r):
    """Wendland C2 kernel (1 - r)^4 (4 r + 1) on normalized radius r >= 0.

    Zero for r >= 1. Accepts scalars or arrays; raises ValueError on
    negative input.
    """
    arr = np.asarray(r, dtype=float)
    if np.any(arr < 0.0):
        raise ValueError("normalized radius must be nonnegative")
    rr = np.minimum(arr, 1.0)
    out = (1.0 - rr) ** 4 * (4.0 * rr + 1.0)
    return out if out.ndim else float(out)


@dataclass(frozen=True)
class RbfGrid:
    """Kernel centers with their common spacing and support radius.

    Attributes
    ----------
    centers : ndarray, shape (n_centers, 2)
    spacing : float
        Center spacing used to size kernel supports (x-spacing for
        structured grids).
    support_radius : float
        Kernels vanish at and beyond this distance from their center.
    """

    centers: np.ndarray
    spacing: float
    support_radius: float

    @property
    def n_centers(self) -> int:
        return self.centers.shape[0]

    @classmethod
    def structured(cls, width: float, height: float, nx: int, ny: int,
                   support_factor: float = DEFAULT_SUPPORT_FACTOR) -> "RbfGrid":
        """Regular nx-by-ny center grid over [0, width] x [0, height].

        The support radius is ``support_factor`` times the x-spacing.
        """
        problems = []
        if not (width > 0.0 and height > 0.0):
            problems.append(f"extents must be positive, got {width} x {height}")
        if nx < 2 or ny < 2:
            problems.append(f"need at least 2 centers per direction, got {nx} x {ny}")
        if not support_factor > 0.0:
            problems.append(f"support factor must be positive, got {support_factor}")
        if problems:
            raise ConfigError("; ".join(problems))
        xs = np.linspace(0.0, width, nx)
        ys = np.linspace(0.0, height, ny)
        gx, gy = np.meshgrid(xs, ys)
        centers = np.column_stack([gx.ravel(), gy.ravel()])
        spacing = width / (nx - 1)
        return cls(centers=centers, spacing=spacing,
                   support_radius=support_factor * spacing)


def build_theta(grid: RbfGrid, points: np.ndarray) -> sparse.csr_matrix:
    """Kernel matrix with entry (j, i) = theta_i(points[j]).

    Shape (n_points, n_centers). Centers beyond the support radius of a point
    contribute structural zeros; centers exactly on the boundary keep a stored
    zero entry.
    """
    points = np.asarray(points, dtype=float)
    tree = cKDTree(grid.centers)
    hits = tree.query_ball_point(points, r=grid.support_radius * _SUPPORT_SLACK)
    counts = np.fromiter((len(h) for h in hits), dtype=np.int64,
                         count=len(hits))
    indptr = np.concatenate([[0], np.cumsum(counts)])
    indices = np.concatenate([np.sort(h) for h in hits]) if counts.sum() else \
        np.empty(0, dtype=np.int64)
    indices = indices.astype(np.int64)
    dists = np.linalg.norm(points[np.repeat(np.arange(len(points)), counts)]
                           - grid.centers[indices], axis=1)
    rnorm = dists / grid.support_radius
    rnorm[rnorm >= 1.0 - 1e-12] = 1.0  # boundary-of-support entries store 0.0
    data = wendland(rnorm)
    return sparse.csr_matrix((data, indices, indptr),
                             shape=(points.shape[0], grid.n_centers))


class LevelsetField:
    """Design-controlled levelset sampled at a fixed point set.

    Holds the kernel matrix for the points (usually mesh nodes), the current
    design vector, and the cached nodal field phi = theta @ s. The cache is
    refreshed only by :meth:`update_design`.
    """

    def __init__(self, grid: RbfGrid, points: np.ndarray,
                 design: np.ndarray | None = None):
        self.grid = grid
        self.points = np.asarray(points, dtype=float)
        self.theta = build_theta(grid, self.points)
        covered = np.asarray(self.theta.max(axis=1).todense()).ravel() > 0.0
        if not np.all(covered):
            bad = np.flatnonzero(~covered)
            raise ConfigError(
                f"{bad.size} of {self.points.shape[0]} points lie outside every "
                f"kernel support (first few: {bad[:5].tolist()}); refine the "
                f"center grid or enlarge the support radius")
        if design is None:
            design = np.zeros(grid.n_centers)
        self._design = None
        self._nodal = None
        self.update_design(design)

    @property
    def design(self) -> np.ndarray:
        return self._design

    @property
    def nodal_values(self) -> np.ndarray:
        """Levelset at the field's points for the current design (cached)."""
        return self._nodal

    def update_design(self, design: np.ndarray) -> None:
        design = np.asarray(design, dtype=float)
        if design.shape != (self.grid.n_centers,):
            raise ValueError(
                f"design vector has shape {design.shape}, "
                f"expected ({self.grid.n_centers},)")
        if not np.all(np.isfinite(design)):
            raise ValueError("design vector has non-finite entries")
        self._design = design.copy()
        self._design.setflags(write=False)
        self._nodal = self.theta @ self._design
        self._nodal.setflags(write=False)

    def dphi_ds(self) -> sparse.csr_matrix:
        """Derivative of nodal values w.r.t. the design: entry (j, i) is
        d(phi_j)/d(s_i). Aliases the stored kernel matrix; never recomputed."""
        return self.theta


def fit_design(grid: RbfGrid, target_at_centers: np.ndarray,
               s_min: float = -1.0, s_max: float = 1.0) -> np.ndarray:
    """Design vector whose field interpolates ``target_at_centers`` at the
    kernel centers, clamped to [s_min, s_max] afterwards.

    Raises
    ------
    ConfigError
        If the center collocation matrix is singular (e.g. duplicated
        centers).
    """
    a = build_theta(grid, grid.centers).tocsc()
    try:
        s = splu(a).solve(np.asarray(target_at_centers, dtype=float))
    except RuntimeError as err:
        raise ConfigError(f"center collocation system is singular: {err}") from err
    if not np.all(np.isfinite(s)):
        raise ConfigError("center collocation produced non-finite design values")
    return np.clip(s, s_min, s_max)


def fit_initial_design(grid: RbfGrid, initial_phi,
                       s_min: float = -1.0, s_max: float = 1.0) -> np.ndarray:
    """Collocation fit of a callable initial levelset ``initial_phi(points)``."""
    return fit_design(grid, np.asarray(initial_phi(grid.centers), dtype=float),
                      s_min=s_min, s_max=s_max)


# Relative hole positions of the classic 15-hole seed layout: two columns of
# three holes, four columns of two holes between them, one center hole.
_HOLE_PATTERN = np.array([
    (1 / 6, 0.0), (5 / 6, 0.0),
    (0.0, 1 / 4), (1 / 3, 1 / 4), (2 / 3, 1 / 4), (1.0, 1 / 4),
    (1 / 6, 1 / 2), (1 / 2, 1 / 2), (5 / 6, 1 / 2),
    (0.0, 3 / 4), (1 / 3, 3 / 4), (2 / 3, 3 / 4), (1.0, 3 / 4),
    (1 / 6, 1.0), (5 / 6, 1.0),
])


def hole_lattice_levelset(width: float, height: float,
                          radius_factor: float = 0.1):
    """Initial levelset with a lattice of 15 circular holes.

    Returns a callable mapping points (n, 2) to signed values: negative inside
    a hole (void), positive outside (material). Hole radius is
    ``radius_factor * height``.
    """
    centers = _HOLE_PATTERN * np.array([width, height])
    radius = radius_factor * height

    def phi0(points):
        points = np.atleast_2d(np.asarray(points, dtype=float))
        d = np.linalg.norm(points[:, None, :] - centers[None, :, :], axis=2)
        return d.min(axis=1) - radius

    return phi0


def uniform_levelset(value: float):
    """Constant initial levelset (positive = solid everywhere)."""

    def phi0(points):
        points = np.atleast_2d(np.asarray(points, dtype=float))
        return np.full(points.shape[0], float(value))

    return phi0
