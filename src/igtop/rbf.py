"""Compactly supported radial-basis-function parametrization of the levelset.

The design field is phi(x) = sum_i theta_i(x) s_i with Wendland C2 kernels
theta_i centered on a coarse grid; s is the design vector. Evaluation at the
analysis-mesh nodes reduces to one sparse matrix that is built once per
mesh/grid pairing and reused for both field values and design derivatives.
"""

from __future__ import annotations

import numbers
from dataclasses import dataclass

import numpy as np
from scipy import sparse

from .errors import ConfigError, SolverError, finite_number
from .fem import solve_system
from .mesh import structured_grid

_SUPPORT_FACTOR = float(np.sqrt(2.0))  # support radius / center spacing

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
    """Kernel centers with their common support radius.

    Attributes
    ----------
    centers : ndarray, shape (n_centers, 2)
    support_radius : float
        Kernels vanish at and beyond this distance from their center.
    """

    centers: np.ndarray
    support_radius: float

    def __post_init__(self):
        problems = []
        c = self.centers
        if not (isinstance(c, np.ndarray) and c.dtype.kind in "iuf"
                and c.ndim == 2 and c.shape[0] >= 1 and c.shape[1] == 2
                and np.all(np.isfinite(c))):
            problems.append(
                f"centers must be a finite real array of shape (n, 2) with "
                f"n >= 1, got {getattr(c, 'shape', type(c).__name__)}")
        # squared distances within a few radii stay normal floats
        if not (finite_number(numbers.Real, self.support_radius)
                and 1e-150 <= self.support_radius <= 1e150):
            problems.append(f"support radius must be a finite number in "
                            f"[1e-150, 1e150], got {self.support_radius!r}")
        if problems:
            raise ConfigError(problems)

    @property
    def n_centers(self) -> int:
        return self.centers.shape[0]

    @classmethod
    def structured(cls, width: float, height: float, nx: int,
                   ny: int) -> "RbfGrid":
        """Regular nx-by-ny center grid over [0, width] x [0, height].

        The centers are the nodes of ``structured_grid(width, height, nx,
        ny)``; the support radius is sqrt(2) times the x-spacing.
        """
        return cls(centers=structured_grid(width, height, nx, ny).nodes,
                   support_radius=_SUPPORT_FACTOR * (width / (nx - 1)))


def build_theta(grid: RbfGrid, points: np.ndarray) -> sparse.csr_matrix:
    """Kernel matrix with entry (j, i) = theta_i(points[j]).

    Shape (n_points, n_centers). The pairs within reach (the support radius
    with its slack) come from a cell list: the centers sorted by square
    cell, x-major, so that a point's candidates are three runs of them (the
    cell column through its own cell and the two beside it, three rows
    each). Two empty cells pad the grid on every side and each point's cell
    is clipped into it, so a point far outside meets only centers that the
    distance test drops. The COO-to-CSR conversion keeps a point on a
    center (distance 0) and sorts rows. Centers beyond the support radius
    of a point contribute structural zeros; centers exactly on the boundary
    keep a stored zero entry.

    Raises
    ------
    ValueError
        If ``points`` is not a finite array of shape (m, 2).
    """
    points = np.asarray(points, dtype=float)
    if points.ndim != 2 or points.shape[1] != 2:
        raise ValueError(f"points must have shape (m, 2), got {points.shape}")
    if not np.all(np.isfinite(points)):
        raise ValueError("points must be finite")
    centers, reach = grid.centers, grid.support_radius * _SUPPORT_SLACK
    lo = centers.min(axis=0)
    # wider cells only if 2^20 cannot span the centers: keys fit int64
    side = max(reach, float(np.ptp(centers, axis=0).max()) / 2.0 ** 20)
    cells = np.floor((centers - lo) / side).astype(np.int64) + 2
    shape = cells.max(axis=0) + 5
    keys = cells[:, 0] * shape[1] + cells[:, 1]
    order = np.argsort(keys, kind="stable")
    keys = keys[order]
    own = np.clip(np.floor((points - lo) / side) + 2, 1,
                  shape - 2).astype(np.int64)
    first = ((own[:, :1] + np.arange(-1, 2)) * shape[1]
             + own[:, 1:] - 1).ravel()
    begin = np.searchsorted(keys, first)
    count = np.searchsorted(keys, first + 3) - begin
    cols = order[np.arange(count.sum())
                 + np.repeat(begin - np.cumsum(count) + count, count)]
    rows = np.repeat(np.arange(len(points)), count.reshape(-1, 3).sum(axis=1))
    d = points.take(rows, axis=0) - centers.take(cols, axis=0)
    dist = np.sqrt(d[:, 0] * d[:, 0] + d[:, 1] * d[:, 1])
    near = dist <= reach
    theta = sparse.coo_matrix((dist[near], (rows[near], cols[near])),
                              shape=(len(points), grid.n_centers)).tocsr()
    rnorm = theta.data / grid.support_radius
    rnorm[rnorm >= 1.0 - 1e-12] = 1.0  # boundary-of-support entries store 0.0
    theta.data = wendland(rnorm)
    return theta


class LevelsetField:
    """Design-controlled levelset sampled at a fixed point set.

    Holds the kernel matrix for the points (usually mesh nodes) and the
    nodal field phi = theta @ s of the current design s, kept read-only and
    replaced only by :meth:`update_design`; the design itself is not kept.
    ``theta`` is also the design derivative: entry (j, i) is
    d(phi_j)/d(s_i).
    """

    def __init__(self, grid: RbfGrid, points: np.ndarray, design: np.ndarray):
        self.grid = grid
        self.theta = build_theta(grid, points)
        covered = np.asarray(self.theta.max(axis=1).todense()).ravel() > 0.0
        if not np.all(covered):
            bad = np.flatnonzero(~covered)
            raise ConfigError(
                f"{bad.size} of {covered.size} points lie outside every "
                f"kernel support (first few: {bad[:5].tolist()}); refine the "
                f"center grid or enlarge the support radius")
        self.update_design(design)

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
        self._nodal = self.theta @ design
        self._nodal.setflags(write=False)


def fit_design(grid: RbfGrid, target_at_centers: np.ndarray) -> np.ndarray:
    """Design vector whose field interpolates ``target_at_centers`` at the
    kernel centers. The Wendland collocation matrix is symmetric positive
    definite, so the state solve's banded Cholesky factors it.

    Raises
    ------
    ConfigError
        If the center collocation matrix is singular (e.g. duplicated
        centers).
    """
    try:
        return solve_system(build_theta(grid, grid.centers),
                            np.asarray(target_at_centers, dtype=float), []).u
    except SolverError as err:
        raise ConfigError("center collocation system is singular "
                          "(duplicated centers?)") from err


# Relative hole positions of the classic 15-hole seed layout: two columns of
# three holes, four columns of two holes between them, one center hole.
_HOLE_PATTERN = np.array([
    (1 / 6, 0.0), (5 / 6, 0.0),
    (0.0, 1 / 4), (1 / 3, 1 / 4), (2 / 3, 1 / 4), (1.0, 1 / 4),
    (1 / 6, 1 / 2), (1 / 2, 1 / 2), (5 / 6, 1 / 2),
    (0.0, 3 / 4), (1 / 3, 3 / 4), (2 / 3, 3 / 4), (1.0, 3 / 4),
    (1 / 6, 1.0), (5 / 6, 1.0),
])
_HOLE_RADIUS = 0.1  # relative to the domain height


def hole_lattice_levelset(width: float, height: float):
    """Initial levelset with a lattice of 15 circular holes.

    Returns a callable mapping points (n, 2) to signed values: negative inside
    a hole (void), positive outside (material). Hole radius is a tenth of
    the height.
    """
    centers = _HOLE_PATTERN * np.array([width, height])
    radius = _HOLE_RADIUS * height

    def phi0(points):
        points = np.atleast_2d(np.asarray(points, dtype=float))
        d = np.linalg.norm(points[:, None, :] - centers[None, :, :], axis=2)
        return d.min(axis=1) - radius

    return phi0
