"""Assembly and solution of the enriched finite element system.

Supports 2-D heat conduction (one field component) and plane-stress
elastostatics (two components) on linear triangles with a single centroid
quadrature point, which integrates the constant-strain stiffness and linear
load integrands exactly. Cut parents contribute through their integration
elements with a five-slot local block: three original nodes plus the parent's
two enriched nodes. Degrees of freedom of enriched node m follow all original
ones: dof = field_dim * (n_nodes + m) + component.
"""

from __future__ import annotations

import numbers
from dataclasses import dataclass, field
from typing import ClassVar

import numpy as np
from scipy import sparse
from scipy.linalg import LinAlgError, cho_solve_banded, cholesky_banded
from scipy.sparse.csgraph import reverse_cuthill_mckee

from .enrich import CUT, MATERIAL, EnrichedModel
from .errors import ConfigError, SolverError, finite_number


@dataclass(frozen=True)
class Conduction:
    """Isotropic heat conduction."""

    field_dim: ClassVar[int] = 1

    @staticmethod
    def d_unit() -> np.ndarray:
        return np.eye(2)


@dataclass(frozen=True)
class PlaneStressElastic:
    """Isotropic linear elasticity, plane stress."""

    poisson: float
    field_dim: ClassVar[int] = 2

    def __post_init__(self):
        if not (finite_number(numbers.Real, self.poisson)
                and -1.0 < self.poisson <= 0.5):
            raise ConfigError(f"Poisson ratio must be a finite number in "
                              f"(-1, 0.5], got {self.poisson!r}")

    def d_unit(self) -> np.ndarray:
        nu = self.poisson
        return np.array([[1.0, nu, 0.0],
                         [nu, 1.0, 0.0],
                         [0.0, 0.0, (1.0 - nu) / 2.0]]) / (1.0 - nu * nu)


@dataclass(frozen=True)
class MaterialPair:
    """One physics for both phases and the modulus of each: the void is the
    material's law with an ersatz modulus. The material phase is at least
    as stiff (equal moduli make a homogeneous patch, useful for testing)."""

    physics: Conduction | PlaneStressElastic
    material: float
    void: float

    def __post_init__(self):
        problems = []
        if not isinstance(self.physics, (Conduction, PlaneStressElastic)):
            problems.append(f"physics must be Conduction or "
                            f"PlaneStressElastic, got {self.physics!r}")
        if not (finite_number(numbers.Real, self.material)
                and finite_number(numbers.Real, self.void)
                and self.material >= self.void > 0.0):
            problems.append(f"need finite material modulus >= void modulus "
                            f"> 0, got {self.material!r} and {self.void!r}")
        if problems:
            raise ConfigError(problems)

    @property
    def field_dim(self) -> int:
        return self.physics.field_dim

    def modulus_of(self, material_phase):
        """Modulus of each phase flag (bool or array of bools)."""
        return np.where(material_phase, self.material, self.void)


@dataclass
class LoadCase:
    """External loading.

    point_loads : list of (node, component, value)
        Concentrated loads on original mesh nodes.
    body : array or None
        Uniform body source over both phases, one entry per field component.
    """

    point_loads: list = field(default_factory=list)
    body: np.ndarray | None = None

    def __post_init__(self):
        if self.body is not None:
            self.body = np.atleast_1d(np.asarray(self.body, dtype=float))


def node_dofs(node_ids, field_dim: int, component: int | None = None) -> np.ndarray:
    """Global dof indices of original (or enriched-offset) node ids."""
    node_ids = np.atleast_1d(np.asarray(node_ids, dtype=np.int64))
    if component is None:
        return (field_dim * node_ids[:, None]
                + np.arange(field_dim)[None, :]).ravel()
    return field_dim * node_ids + component


def build_b(grads: np.ndarray, field_dim: int) -> np.ndarray:
    """Strain-displacement matrices from per-slot shape gradients (..., n, 2).

    Heat: rows are the gradient operator, shape (..., 2, n). Elasticity:
    Voigt (eps_xx, eps_yy, gamma_xy), shape (..., 3, 2 n).
    """
    if field_dim == 1:
        return np.swapaxes(grads, -1, -2)
    n = grads.shape[-2]
    b = np.zeros(grads.shape[:-2] + (3, 2 * n), dtype=grads.dtype)
    b[..., 0, 0::2] = grads[..., 0]
    b[..., 1, 1::2] = grads[..., 1]
    b[..., 2, 0::2] = grads[..., 1]
    b[..., 2, 1::2] = grads[..., 0]
    return b


def cut_parent_dofs(model: EnrichedModel, field_dim: int) -> np.ndarray:
    """Global dofs of the five slots (3 nodes + 2 enriched) of every cut
    parent, shape (n_cut, 5 field_dim)."""
    slots = np.concatenate([model.mesh.elements[model.cut_parents],
                            model.mesh.n_nodes + model.parent_slots], axis=1)
    return node_dofs(slots.ravel(), field_dim).reshape(model.n_cut,
                                                       5 * field_dim)


def integration_element_stiffness(model: EnrichedModel, pair: MaterialPair,
                                  dtype=np.float64) -> np.ndarray:
    """Local stiffness of the integration elements ``model.tiles`` over the
    five parent slots, shape (..., 5 field_dim, 5 field_dim)."""
    b = build_b(model.grads.astype(dtype, copy=False), pair.field_dim)
    scale = np.asarray(model.tiles.area, dtype=dtype) \
        * pair.modulus_of(model.tiles.material).astype(dtype)
    k = np.swapaxes(b, -1, -2) @ (pair.physics.d_unit().astype(dtype) @ b)
    k *= scale[..., None, None]
    return k


def integration_element_force(model: EnrichedModel, body: np.ndarray,
                              dtype=np.float64) -> np.ndarray:
    """Consistent body-load vectors of the integration elements
    ``model.tiles`` over the five slots, shape (..., 5 field_dim). ``body``
    is one source for all elements, shape (field_dim,)."""
    load = model.centroid_shape[..., :, None] \
        * np.atleast_1d(body).astype(dtype)[..., None, :]
    return np.asarray(model.tiles.area, dtype=dtype)[..., None] \
        * load.reshape(load.shape[:-2] + (5 * load.shape[-1],))


class Assembler:
    """Reusable assembly context for one mesh / materials / loading triple.

    The pattern of the original dofs comes once from the mesh's node pairs,
    filled by one fixed linear map of the per-element modulus (summed in
    ``dtype``); each model adds the rows and columns of its enriched dofs.
    K is CSR without stored zeros.

    ``dtype`` (float64, or longdouble for interface-exactness studies below
    the material-contrast conditioning floor) is the precision of the
    element products and sums; the ``model.grads`` they read are float64.
    """

    def __init__(self, mesh, pair: MaterialPair, loads: LoadCase,
                 dtype=np.float64):
        if np.dtype(dtype) not in (np.float64, np.longdouble):
            raise ValueError(f"dtype must be float64 or longdouble, got "
                             f"{dtype!r}")
        self.mesh = mesh
        self.pair = pair
        self.loads = loads
        self.dtype = dtype
        d = pair.field_dim
        n, ne = mesh.n_nodes, mesh.n_elements
        b_all = build_b(mesh.hat_gradients.astype(dtype, copy=False), d)
        k_unit = np.einsum("eia,ij,ejb->eab", b_all,
                           pair.physics.d_unit().astype(dtype), b_all,
                           optimize=True)
        del b_all
        k_unit *= mesh.areas.astype(dtype)[:, None, None]

        # the node pairs of all elements as a block matrix of d x d blocks;
        # datum (q, c1, c2) is numbered d^2 q + d c1 + c2 + 1, so its CSR
        # form tells where each datum went
        el = mesh.elements
        pairs, pair_of = np.unique(el[:, :, None] * n + el[:, None, :],
                                   return_inverse=True)
        a, b = np.divmod(pairs, n)
        start = np.searchsorted(a, np.arange(n + 1))
        pattern = sparse.bsr_matrix(
            (np.arange(1.0, d * d * pairs.size + 1).reshape(-1, d, d), b,
             start), shape=(d * n, d * n)).tocsr()
        # the mesh, and so a banded order of its nodes, stays for the whole
        # run: rank the nodes once by reverse Cuthill-McKee of the node pairs
        self._node_rank = np.empty(n)
        self._node_rank[reverse_cuthill_mckee(sparse.csr_matrix(
            (np.ones(b.size, dtype=bool), b, start), shape=(n, n)),
            symmetric_mode=True)] = np.arange(n)
        where = np.empty(pattern.nnz, dtype=np.int32)
        where[pattern.data.astype(np.int64) - 1] = np.arange(pattern.nnz)
        self._indices, self._indptr = pattern.indices, pattern.indptr
        del pattern
        # column e of the map takes the modulus of element e to the pattern:
        # entry (d i + c1, d j + c2) of its block goes to datum (q, c1, c2)
        # of its node pair q = pair_of (e, i, j)
        keep = k_unit.reshape(-1) != 0.0
        data = k_unit.reshape(-1)[keep]
        del k_unit
        at = where.reshape(-1, d, d).take(pair_of.reshape(ne, 3, 3), axis=0) \
            .transpose(0, 1, 3, 2, 4).reshape(-1)[keep]
        self._map = sparse.csc_matrix(
            (data, at, np.concatenate([[0], np.cumsum(
                keep.reshape(ne, -1).sum(axis=1, dtype=np.int64))])),
            shape=(where.size, ne))

        self._f_base = np.zeros(d * n, dtype=dtype)
        for node, comp, value in loads.point_loads:
            self._f_base[node_dofs(node, d, comp)[0]] += value

    def fixed_dofs(self, model: EnrichedModel, fixed) -> np.ndarray:
        """The original dofs ``fixed`` and the enriched dofs they hold: an
        enriched node is fixed in a component when both ends of its edge
        are, since its enrichment interpolates there, so the whole edge is
        held."""
        d, n = self.pair.field_dim, self.mesh.n_nodes
        mask = np.zeros(d * n, dtype=bool)
        mask[fixed] = True
        held = mask.reshape(n, d)[model.enr_edges].all(axis=1)
        return np.concatenate([fixed, d * n + np.flatnonzero(held)])

    def band_key(self, model: EnrichedModel) -> np.ndarray:
        """The band key of every dof of a model for ``solve_system``: the
        rank of its node, and for an enriched node the mean rank of its
        edge's ends plus 0.5; the components of a node share its key."""
        rank = self._node_rank
        return np.repeat(np.concatenate(
            [rank, rank[model.enr_edges].mean(axis=1) + 0.5]),
            self.pair.field_dim)

    def assemble(self, model: EnrichedModel):
        """Stiffness matrix and load vector for one enriched model."""
        mesh, pair, loads = self.mesh, self.pair, self.loads
        d = pair.field_dim
        dtype = self.dtype
        ndof = d * (mesh.n_nodes + model.n_enriched)

        material = model.element_state == MATERIAL
        tiles = model.tiles
        # a cut parent's block over its own nodes is its unit stiffness times
        # the area-weighted modulus of its tiles: the parent's hat gradients
        # are constant over it
        factor = pair.modulus_of(material).astype(dtype)
        weighted = np.asarray(tiles.area, dtype=dtype) \
            * pair.modulus_of(tiles.material).astype(dtype)
        factor[model.cut_parents] = weighted.reshape(-1, 3).sum(axis=1) \
            / mesh.areas[model.cut_parents].astype(dtype)
        k = sparse.csr_matrix(
            (self._map @ factor, self._indices, np.pad(
                self._indptr, (0, ndof + 1 - self._indptr.size), mode="edge")),
            shape=(ndof, ndof))
        # the rows and columns of the enriched dofs, summed over the tiles
        # and the parents, each parent's entries in row-major order, the
        # order in which the conversion sums duplicates; the sum also drops
        # the zeros of the pattern
        w = integration_element_stiffness(model, pair, dtype)
        w = w[0::3] + w[1::3] + w[2::3]
        rows, cols = np.nonzero((np.arange(5 * d)[:, None] >= 3 * d)
                                | (np.arange(5 * d) >= 3 * d))
        slots = cut_parent_dofs(model, d).astype(self._indices.dtype)
        k = k + sparse.coo_matrix(
            (w[:, rows, cols].ravel(),
             (slots[:, rows].ravel(), slots[:, cols].ravel())),
            shape=(ndof, ndof)).tocsr()

        f = np.zeros(ndof, dtype=dtype)
        f[:self._f_base.size] = self._f_base
        if loads.body is not None:
            uncut = model.element_state != CUT
            fe = (mesh.areas[uncut].astype(dtype) / 3.0)[:, None] \
                * np.tile(loads.body.astype(dtype), 3)
            np.add.at(f, node_dofs(mesh.elements[uncut].ravel(), d),
                      fe.ravel())
            np.add.at(f, np.repeat(slots, 3, axis=0).ravel(),
                      integration_element_force(model, loads.body,
                                                dtype).ravel())
        return k, f


# the rows of K that the refinement's residual multiplies at a time
_BLOCK_ROWS = 4096


@dataclass(frozen=True)
class SolveResult:
    u: np.ndarray
    residual: float


class BandBuffer:
    """Float64 storage that successive solves fill their bands in: a band
    is a view of its first entries, and one that does not fit replaces it,
    the old array dropped first, instead of being placed beside it."""

    def __init__(self):
        self.data = np.empty(0)

    def take(self, size: int) -> np.ndarray:
        if self.data.size < size:
            self.data = None
            self.data = np.empty(size)
        return self.data[:size]


def _scaled_band(k: sparse.csr_matrix, pos: np.ndarray, at: np.ndarray,
                 buffer=None) -> tuple[np.ndarray, np.ndarray]:
    """The float64 lower band of diag(scale) K diag(scale) over the dofs
    ``at`` at band positions ``pos`` (-1 when fixed), filled from K in one
    pass into a zeroed view of the BandBuffer ``buffer`` (a fresh one when
    None), in Fortran order so that LAPACK factors it in place, and
    ``scale``: the inverse square roots of K's diagonal at ``at``, where an
    unstored entry reads 0 and is refused like any nonpositive one."""
    diag = k.diagonal()[at]
    if np.any(diag <= 0.0):
        raise SolverError(
            f"nonpositive stiffness diagonal at dof {at[np.argmin(diag)]}; "
            f"the system has an unconstrained or degenerate mode")
    scale = 1.0 / np.sqrt(diag)
    # the band is the largest array of a solve: free the nnz-sized arrays
    # before it is taken, so that a band that must grow alone adds to the peak
    i, j = np.repeat(pos, np.diff(k.indptr)), pos.take(k.indices)
    lower = np.flatnonzero((j >= 0) & (i >= j))
    row, col = i[lower], j[lower]
    del i, j
    data = k.data[lower]
    del lower
    data *= scale[row]
    data *= scale[col]
    # the flat band position of each entry, (row - col) + rows col
    row -= col
    rows = int(row.max()) + 1
    col *= rows
    row += col
    del col
    # the sum adds the entries that share a position in stored order, each
    # after rounding a longdouble product to float64 as a store does
    band = (BandBuffer() if buffer is None else buffer).take(rows * at.size)
    band.fill(0.0)
    np.add.at(band, row, data.astype(np.float64, copy=False))
    return band.reshape((rows, at.size), order="F"), scale


def _product(k: sparse.csr_matrix, x: np.ndarray) -> np.ndarray:
    """K @ x, formed _BLOCK_ROWS rows at a time when K has more, each block
    a view of K's arrays: scipy copies a float64 K to a longdouble x's type,
    and so copies one block instead of all of K. Each row sums its entries
    in stored order, so the blocks give the bits of the whole product."""
    n = k.shape[0]
    if n <= _BLOCK_ROWS:
        return k @ x
    out = np.empty(n, dtype=np.result_type(k.dtype, x.dtype))
    for start in range(0, n, _BLOCK_ROWS):
        stop = min(start + _BLOCK_ROWS, n)
        lo, hi = k.indptr[start], k.indptr[stop]
        out[start:stop] = sparse.csr_matrix(
            (k.data[lo:hi], k.indices[lo:hi], k.indptr[start:stop + 1] - lo),
            shape=(stop - start, k.shape[1])) @ x
    return out


def solve_system(k: sparse.csr_matrix, f: np.ndarray, fixed_dofs,
                 key=None, buffer: BandBuffer | None = None) -> SolveResult:
    """Direct solve with homogeneous essential conditions on the integer
    dof indices ``fixed_dofs``.

    The reduced system is symmetrically Jacobi-scaled and factored by banded
    Cholesky, in ``buffer`` (kept by a caller that solves system after
    system) or a fresh BandBuffer when None. The free dofs take their band
    positions in ascending ``key``, one value per dof, ties by dof index;
    without a key they are ordered by reverse Cuthill-McKee of the free
    block. Raises ValueError on malformed input, SolverError on singular or
    indefinite systems (typically an unconstrained rigid mode) or when the
    relative residual exceeds 1e-6.
    """
    ndof = k.shape[0]
    if np.shape(f) != (ndof,):
        raise ValueError(f"f has shape {np.shape(f)}, not ({ndof},)")
    fixed = np.asarray(fixed_dofs).ravel()
    # an empty list reads as float; a bool or a float is no dof index
    if fixed.size and fixed.dtype.kind not in "iu":
        raise ValueError(f"fixed dofs must be integers, got {fixed.dtype}")
    fixed = fixed.astype(np.int64)
    if fixed.size and (fixed.min() < 0 or fixed.max() >= ndof):
        raise ValueError("fixed dof index out of range")
    if key is not None and np.shape(key) != (ndof,):
        raise ValueError(f"key has shape {np.shape(key)}, not ({ndof},)")
    free = np.flatnonzero(np.bincount(fixed, minlength=ndof) == 0)
    bad = free[~np.isfinite(f[free])]
    if bad.size:
        raise ValueError(f"f is not finite at free dof {bad[0]}")
    if free.size == 0:
        return SolveResult(u=np.zeros(ndof), residual=0.0)

    if not isinstance(k, sparse.csr_matrix):
        k = sparse.csr_matrix(k)
    if key is None:
        at = free[reverse_cuthill_mckee(k[free][:, free], symmetric_mode=True)]
    else:
        at = free[np.argsort(np.asarray(key)[free], kind="stable")]
    # the band position of each free dof, -1 at the fixed ones
    pos = np.full(ndof, -1, dtype=k.indices.dtype)
    pos[at] = np.arange(free.size, dtype=pos.dtype)
    band, s = _scaled_band(k, pos, at, buffer=buffer)
    try:
        factor = cholesky_banded(band, lower=True, overwrite_ab=True,
                                 check_finite=False)
    except LinAlgError as err:
        raise SolverError(
            f"stiffness factorization failed ({err}); check boundary "
            f"conditions for a free rigid mode") from err
    pivots = factor[0] ** 2
    if pivots.min() < 1e-12 * pivots.max():
        raise SolverError(
            "stiffness matrix is numerically singular; check boundary "
            "conditions for a free rigid mode")

    # a plain closure: a factor held in a reference cycle would outlive the
    # solve until the seldom-run cyclic collector frees it
    def solve(b):
        return cho_solve_banded((factor, True), b.astype(np.float64),
                                check_finite=False)

    # refinement with extended-precision residuals f - K u recovers the
    # accuracy lost to the material-contrast conditioning; with longdouble
    # assembly the refinement target itself carries the extra digits. The
    # residual reads only the free block, as x is exactly zero at the fixed
    # dofs. The loop stops when its Jacobi-scaled norm falls by less than
    # half, or when the next correction, predicted from the last two as
    # |dy|^2 / |dy_prev| (max-norm), is below an ulp of the scaled solution
    # y; a zero residual gives a zero correction, so the latter. K @ x runs in
    # longdouble: scipy promotes a float64 K to x's dtype in a copy, one
    # block of rows at a time (_product)
    fb = f[at]
    x = np.zeros(ndof, dtype=np.longdouble)
    dy = y = solve(fb * s)
    x[at] = s * y
    last = np.inf
    for _ in range(6):
        rs = s * (fb - _product(k, x)[at])
        rnorm = float(np.linalg.norm(rs.astype(np.float64)))
        if rnorm > 0.5 * last:
            break
        prev, dy = np.abs(dy).max(), solve(rs)
        x[at] += s * dy
        y = y + dy
        last = rnorm
        if np.abs(dy).max() ** 2 \
                <= np.finfo(np.float64).eps * prev * np.abs(y).max():
            break
    u = x.astype(np.float64)
    # a non-finite u fails the residual, and so does a non-finite entry in a
    # fixed column: the residual over K reads those columns, at exact zeros
    fnorm = float(np.linalg.norm(f[free].astype(np.float64)))
    residual = float(np.linalg.norm((k @ u - f)[free].astype(np.float64))) \
        / (fnorm if fnorm else 1.0)
    if not residual <= 1e-6:
        raise SolverError(f"relative solve residual {residual:.3e} exceeds "
                          f"1e-6; check boundary conditions")
    return SolveResult(u=u, residual=residual)


def compliance(u: np.ndarray, f: np.ndarray) -> float:
    """External work f . u; equals u^T K u at equilibrium."""
    return float(u @ f)
