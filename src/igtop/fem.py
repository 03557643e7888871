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

from dataclasses import dataclass, field
from typing import ClassVar

import numpy as np
from scipy import sparse
from scipy.sparse.linalg import splu

from .enrich import CUT, MATERIAL, VOID, EnrichedModel, IntegrationElement
from .errors import ConfigError, SolverError
from .mesh import cofactor_hat_gradients

# gradients of the master-triangle hat functions (L1, L2, L3)
DL = np.array([[-1.0, -1.0], [1.0, 0.0], [0.0, 1.0]])

_CENTROID = np.array([1 / 3, 1 / 3, 1 / 3])

# Element operators act on one IntegrationElement or on a stack of them
# (``model.tiles``): every array argument and result gains the stack's
# leading axes, and each stacked result equals the stack of per-element
# results bit for bit.


def det2(m: np.ndarray) -> np.ndarray:
    """Determinants of 2x2 matrices, shape (...)."""
    return m[..., 0, 0] * m[..., 1, 1] - m[..., 0, 1] * m[..., 1, 0]


def adj2(m: np.ndarray) -> np.ndarray:
    """Adjugates of 2x2 matrices: adj(m) @ m = det(m) I."""
    out = np.empty_like(m)
    out[..., 0, 0] = m[..., 1, 1]
    out[..., 0, 1] = -m[..., 0, 1]
    out[..., 1, 0] = -m[..., 1, 0]
    out[..., 1, 1] = m[..., 0, 0]
    return out


def inv2(m: np.ndarray) -> np.ndarray:
    """Inverses of 2x2 matrices, preserving the input dtype."""
    return adj2(m) / det2(m)[..., None, None]


@dataclass(frozen=True)
class Conduction:
    """Isotropic heat conduction."""

    conductivity: float
    field_dim: ClassVar[int] = 1

    @property
    def modulus(self) -> float:
        return self.conductivity

    @staticmethod
    def d_unit() -> np.ndarray:
        return np.eye(2)


@dataclass(frozen=True)
class PlaneStressElastic:
    """Isotropic linear elasticity, plane stress."""

    youngs: float
    poisson: float
    field_dim: ClassVar[int] = 2

    @property
    def modulus(self) -> float:
        return self.youngs

    def d_unit(self) -> np.ndarray:
        nu = self.poisson
        return np.array([[1.0, nu, 0.0],
                         [nu, 1.0, 0.0],
                         [0.0, 0.0, (1.0 - nu) / 2.0]]) / (1.0 - nu * nu)


@dataclass(frozen=True)
class MaterialPair:
    """Material and void-phase properties; the material phase is at least
    as stiff (equal moduli make a homogeneous patch, useful for testing)."""

    material: object
    void: object

    def __post_init__(self):
        if type(self.material) is not type(self.void):
            raise ConfigError("material and void phases must share a physics type")
        if not self.material.modulus >= self.void.modulus > 0.0:
            raise ConfigError(
                f"need material modulus >= void modulus > 0, got "
                f"{self.material.modulus} and {self.void.modulus}")
        if isinstance(self.material, PlaneStressElastic) and \
                self.material.poisson != self.void.poisson:
            raise ConfigError("phases must share the Poisson ratio")

    @property
    def field_dim(self) -> int:
        return self.material.field_dim

    def modulus_of(self, material_phase):
        """Modulus of each phase flag (bool or array of bools)."""
        return np.where(material_phase, self.material.modulus,
                        self.void.modulus)


@dataclass
class LoadCase:
    """External loading.

    point_loads : list of (node, component, value)
        Concentrated loads on original mesh nodes.
    edge_loads : list of (node_a, node_b, traction)
        Uniform traction per unit length on an uncut boundary edge;
        ``traction`` has one entry per field component.
    body_material, body_void : array or None
        Uniform body source per phase, one entry per field component.
    """

    point_loads: list = field(default_factory=list)
    edge_loads: list = field(default_factory=list)
    body_material: np.ndarray | None = None
    body_void: np.ndarray | None = None

    def body_of(self, material, field_dim: int):
        """Body source of elements with the given phase flags, shape
        (..., field_dim); zero for a phase without one, and None when
        neither phase carries a body load."""
        if self.body_material is None and self.body_void is None:
            return None
        bm, bv = (np.zeros(field_dim) if b is None
                  else np.atleast_1d(np.asarray(b, dtype=float))
                  for b in (self.body_material, self.body_void))
        return np.where(np.asarray(material)[..., None], bm, bv)


def node_dofs(node_ids, field_dim: int, component: int | None = None) -> np.ndarray:
    """Global dof indices of original (or enriched-offset) node ids."""
    node_ids = np.atleast_1d(np.asarray(node_ids, dtype=np.int64))
    if component is None:
        return (field_dim * node_ids[:, None]
                + np.arange(field_dim)[None, :]).ravel()
    return field_dim * node_ids + component


def tri_jacobian(coords: np.ndarray) -> np.ndarray:
    """Jacobians of the master-to-physical maps of triangles with vertex
    coordinates (..., 3, 2); columns are edge vectors."""
    return np.swapaxes(coords, -1, -2) @ DL.astype(coords.dtype)


def tri_hat_gradients(coords: np.ndarray) -> np.ndarray:
    """Physical hat-function gradients DL J^{-1} of triangles with vertex
    coordinates (..., 3, 2), in their dtype, shape (..., 3, 2).

    Integration elements use this form, mesh elements the cofactor form of
    :func:`igtop.mesh.cofactor_hat_gradients`. The two agree up to
    rounding, but optimization histories amplify rounding differences, so
    replacing either form would move every optimization result.
    """
    return DL.astype(coords.dtype) @ inv2(tri_jacobian(coords))


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


def cut_parent_dofs(model: EnrichedModel, rows, field_dim: int) -> np.ndarray:
    """Global dofs of the five slots (3 nodes + 2 enriched) of one cut parent
    row or an array of rows, shape (..., 5 field_dim)."""
    slots = np.concatenate([model.mesh.elements[model.cut_parents[rows]],
                            model.mesh.n_nodes + model.parent_slots[rows]],
                           axis=-1)
    return node_dofs(slots.ravel(), field_dim).reshape(
        slots.shape[:-1] + (5 * field_dim,))


def integration_element_gradients(model: EnrichedModel, ie: IntegrationElement,
                                  dtype=np.float64) -> np.ndarray:
    """Five-slot shape gradients on integration elements, shape (..., 5, 2).

    Rows 0-2: the parent hat gradients (constant over the parent). Rows 3-4:
    gradients of the parent's two enrichment functions on the integration
    element; zero for an enriched node that is not a vertex there.
    """
    mesh = model.mesh
    parent = cofactor_hat_gradients(
        mesh.nodes[mesh.elements[ie.parent]].astype(dtype))
    enriched = ie.slot_matrix.astype(dtype) \
        @ tri_hat_gradients(ie.coords.astype(dtype))
    return np.concatenate([parent, enriched], axis=-2)


def integration_element_stiffness(model: EnrichedModel, ie: IntegrationElement,
                                  pair: MaterialPair,
                                  dtype=np.float64) -> np.ndarray:
    """Local stiffness of integration elements over the five parent slots,
    shape (..., 5 field_dim, 5 field_dim)."""
    d = pair.material.d_unit().astype(dtype) \
        * pair.modulus_of(ie.material).astype(dtype)[..., None, None]
    b = build_b(integration_element_gradients(model, ie, dtype),
                pair.field_dim)
    return np.asarray(ie.area, dtype=dtype)[..., None, None] \
        * (np.swapaxes(b, -1, -2) @ d @ b)


def integration_element_force(model: EnrichedModel, ie: IntegrationElement,
                              body: np.ndarray, field_dim: int,
                              dtype=np.float64) -> np.ndarray:
    """Consistent body-load vectors of integration elements over the five
    slots, shape (..., 5 field_dim). ``body`` is one source for all
    elements, shape (field_dim,), or one per element."""
    shape = np.concatenate([model.parent_hats(ie, _CENTROID),
                            model.enrichment_values(ie, _CENTROID)],
                           axis=-1).astype(dtype)
    load = shape[..., :, None] * np.atleast_1d(body).astype(dtype)[..., None, :]
    return np.asarray(ie.area, dtype=dtype)[..., None] \
        * load.reshape(load.shape[:-2] + (5 * field_dim,))


class Assembler:
    """Reusable assembly context for one mesh / materials / loading triple.

    Unit-modulus element stiffness blocks and their scatter indices are
    precomputed once; per-design assembly only rescales them by the phase
    modulus (zero for cut parents) and adds the integration-element
    contributions of the current enriched model.

    ``dtype`` selects the working precision; the default double suits
    optimization runs, while longdouble pushes interface-exactness studies
    below the material-contrast conditioning floor.
    """

    def __init__(self, mesh, pair: MaterialPair, loads: LoadCase,
                 dtype=np.float64):
        self.mesh = mesh
        self.pair = pair
        self.loads = loads
        self.dtype = dtype
        d = pair.field_dim
        b_all = build_b(cofactor_hat_gradients(
            mesh.nodes[mesh.elements].astype(dtype, copy=False)), d)
        d1 = pair.material.d_unit().astype(dtype)
        self._k_unit = np.einsum("eia,ij,ejb->eab", b_all, d1, b_all,
                                 optimize=True) \
            * mesh.areas.astype(dtype)[:, None, None]
        dofs = node_dofs(mesh.elements.ravel(), d).reshape(mesh.n_elements, 3 * d)
        self._rows = np.broadcast_to(dofs[:, :, None],
                                     self._k_unit.shape).ravel()
        self._cols = np.broadcast_to(dofs[:, None, :],
                                     self._k_unit.shape).ravel()
        self._elem_dofs = dofs

        self._f_base = np.zeros(d * mesh.n_nodes, dtype=dtype)
        for node, comp, value in loads.point_loads:
            self._f_base[node_dofs(node, d, comp)[0]] += value
        for na, nb, traction in loads.edge_loads:
            length = np.sqrt(np.sum(
                (mesh.nodes[nb] - mesh.nodes[na]).astype(dtype) ** 2))
            t = np.atleast_1d(np.asarray(traction)).astype(dtype)
            for node in (na, nb):
                self._f_base[node_dofs(node, d)] += 0.5 * length * t

    def assemble(self, model: EnrichedModel):
        """Stiffness matrix and load vector for one enriched model."""
        mesh, pair, loads = self.mesh, self.pair, self.loads
        d = pair.field_dim
        dtype = self.dtype
        ndof = d * (mesh.n_nodes + model.n_enriched)

        for na, nb, _ in loads.edge_loads:
            if (model.phi[na] > 0.0) != (model.phi[nb] > 0.0):
                raise ConfigError(
                    f"edge load on cut edge ({na}, {nb}) is not supported")

        factor = np.zeros(mesh.n_elements, dtype=dtype)
        factor[model.element_state == MATERIAL] = pair.material.modulus
        factor[model.element_state == VOID] = pair.void.modulus
        tiles = model.tiles
        dofs = cut_parent_dofs(model, np.arange(3 * model.n_cut) // 3, d)
        k_cut = integration_element_stiffness(model, tiles, pair, dtype)
        k = sparse.coo_matrix(
            (np.concatenate([(self._k_unit * factor[:, None, None]).ravel(),
                             k_cut.ravel()]),
             (np.concatenate([self._rows, np.broadcast_to(
                 dofs[:, :, None], k_cut.shape).ravel()]),
              np.concatenate([self._cols, np.broadcast_to(
                  dofs[:, None, :], k_cut.shape).ravel()]))),
            shape=(ndof, ndof)).tocsr()

        f = np.zeros(ndof, dtype=dtype)
        f[:self._f_base.size] = self._f_base
        for b, state in ((loads.body_material, MATERIAL),
                         (loads.body_void, VOID)):
            sel = model.element_state == state
            if b is None or not np.any(sel):
                continue
            fe = np.outer(mesh.areas[sel].astype(dtype) / 3.0,
                          np.tile(np.atleast_1d(b).astype(dtype), 3)).ravel()
            np.add.at(f, self._elem_dofs[sel].ravel(), fe)
        body = loads.body_of(tiles.material, d)
        if body is not None:
            np.add.at(f, dofs.ravel(), integration_element_force(
                model, tiles, body, d, dtype).ravel())
        return k, f


def assemble_system(model: EnrichedModel, pair: MaterialPair, loads: LoadCase,
                    dtype=np.float64):
    """One-shot assembly; builds a throwaway :class:`Assembler`."""
    return Assembler(model.mesh, pair, loads, dtype=dtype).assemble(model)


@dataclass(frozen=True)
class SolveResult:
    u: np.ndarray
    residual: float


def solve_system(k: sparse.csr_matrix, f: np.ndarray,
                 fixed_dofs) -> SolveResult:
    """Direct solve with homogeneous essential conditions on ``fixed_dofs``.

    The reduced system is symmetrically Jacobi-scaled before factorization.
    Raises SolverError on singular systems (typically an unconstrained rigid
    mode) or when the relative residual exceeds 1e-6.
    """
    ndof = f.size
    fixed = np.unique(np.asarray(fixed_dofs, dtype=np.int64))
    if fixed.size and (fixed.min() < 0 or fixed.max() >= ndof):
        raise ValueError("fixed dof index out of range")
    free = np.setdiff1d(np.arange(ndof), fixed, assume_unique=True)
    if free.size == 0:
        return SolveResult(u=np.zeros(ndof), residual=0.0)

    kff = k[free][:, free].tocsc()
    ff = f[free]
    work_ld = kff.dtype == np.longdouble
    diag = kff.diagonal()
    if np.any(diag <= 0.0):
        bad = free[int(np.argmin(diag))]
        raise SolverError(
            f"nonpositive stiffness diagonal at dof {bad}; "
            f"the system has an unconstrained or degenerate mode")
    scale = 1.0 / np.sqrt(diag)
    dmat = sparse.diags(scale)
    kss = (dmat @ kff @ dmat).tocsc()
    try:
        lu = splu(kss.astype(np.float64) if work_ld else kss)
    except RuntimeError as err:
        raise SolverError(
            f"stiffness factorization failed ({err}); check boundary "
            f"conditions for a free rigid mode") from err
    upiv = np.abs(lu.U.diagonal())
    if upiv.min() < 1e-12 * upiv.max():
        raise SolverError(
            "stiffness matrix is numerically singular; check boundary "
            "conditions for a free rigid mode")
    fs = ff * scale
    # refinement with extended-precision residuals recovers the accuracy
    # lost to the material-contrast conditioning; with longdouble assembly
    # the refinement target itself carries the extra digits
    fsnorm = float(np.linalg.norm(fs.astype(np.float64)))
    kld = kss if work_ld else kss.astype(np.longdouble)
    fld = fs.astype(np.longdouble)
    y = lu.solve(fs.astype(np.float64)).astype(np.longdouble)
    for _ in range(6 if work_ld else 3):
        r = fld - kld @ y
        if float(np.linalg.norm(r.astype(np.float64))) <= 1e-16 * fsnorm:
            break
        y = y + lu.solve(r.astype(np.float64))
    if not np.all(np.isfinite(y.astype(np.float64))):
        raise SolverError("solver produced non-finite values; the system is "
                          "singular (free rigid mode?)")
    uf = (y * scale).astype(np.float64)
    fnorm = float(np.linalg.norm(ff.astype(np.float64)))
    residual = float(np.linalg.norm((kff @ uf - ff).astype(np.float64))) \
        / (fnorm if fnorm else 1.0)
    if residual > 1e-6:
        raise SolverError(f"relative solve residual {residual:.3e} exceeds "
                          f"1e-6; check boundary conditions")
    u = np.zeros(ndof)
    u[free] = uf
    return SolveResult(u=u, residual=residual)


def compliance(u: np.ndarray, f: np.ndarray) -> float:
    """External work f . u; equals u^T K u at equilibrium."""
    return float(u @ f)
