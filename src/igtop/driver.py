"""Optimization driver: problem definitions and the design loop.

A problem bundles mesh extents, the design-kernel grid, materials, loads,
supports, and the optimization budget. The loop alternates analysis on the
exactly resolved interface geometry with an MMA update of the kernel
coefficients; the objective passed to the optimizer is compliance normalized
by its initial value so the constraint-relaxation pricing stays meaningful
across physics and mesh sizes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .enrich import EnrichedModel, build_enriched_model, snap_nodal_levelset
from .errors import ConfigError, SolverError
from .fem import (Assembler, Conduction, LoadCase, MaterialPair,
                  PlaneStressElastic, compliance, node_dofs, solve_system)
from .mesh import Mesh, structured_grid
from .mma import MmaOptimizer
from .rbf import (LevelsetField, RbfGrid, fit_initial_design,
                  hole_lattice_levelset)

S_MIN, S_MAX = -1.0, 1.0
STALL_TOL = 1e-6
STALL_ITERS = 10


@dataclass(frozen=True)
class DirichletRule:
    """Prescribes zero essential values on part of the boundary.

    Either ``side`` (with an optional coordinate window) or ``point``
    (nearest node) selects the nodes; ``component`` picks one field
    component, or all of them when None.
    """

    side: str | None = None
    point: tuple[float, float] | None = None
    component: int | None = None
    xmin: float = -math.inf
    xmax: float = math.inf
    ymin: float = -math.inf
    ymax: float = math.inf

    def select_nodes(self, mesh: Mesh) -> np.ndarray:
        if (self.side is None) == (self.point is None):
            raise ConfigError(["support rule needs exactly one of side "
                               "or point"])
        if self.point is not None:
            return np.array([mesh.nearest_node(self.point)], dtype=np.int64)
        nodes = mesh.boundary[self.side]
        xy = mesh.nodes[nodes]
        keep = ((xy[:, 0] >= self.xmin) & (xy[:, 0] <= self.xmax)
                & (xy[:, 1] >= self.ymin) & (xy[:, 1] <= self.ymax))
        return nodes[keep]


@dataclass
class ProblemSpec:
    """Complete description of one topology-optimization problem."""

    name: str
    width: float
    height: float
    nx: int
    ny: int
    rbf_nx: int
    rbf_ny: int
    pair: MaterialPair
    volume_fraction: float
    dirichlet: tuple = ()
    point_loads: tuple = ()  # ((x, y), component, value)
    body_material: object = None
    body_void: object = None
    budget: int = 300
    move_limit: float = 0.01
    initial_phi: object = None  # callable points -> levelset; holes if None

    def __post_init__(self):
        problems = []
        if not 0.0 < self.volume_fraction < 1.0:
            problems.append("volume_fraction must lie strictly between 0 "
                            f"and 1, got {self.volume_fraction}")
        if self.width <= 0.0 or self.height <= 0.0:
            problems.append("domain size must be positive")
        for label, n in (("nx", self.nx), ("ny", self.ny),
                         ("rbf_nx", self.rbf_nx), ("rbf_ny", self.rbf_ny)):
            if n < 2:
                problems.append(f"{label} must be at least 2, got {n}")
        if self.budget < 1:
            problems.append(f"budget must be at least 1, got {self.budget}")
        if self.move_limit <= 0.0:
            problems.append("move_limit must be positive")
        if problems:
            raise ConfigError(problems)

    def with_overrides(self, **kw) -> "ProblemSpec":
        unknown = set(kw) - set(self.__dataclass_fields__)
        if unknown:
            raise ConfigError([f"unknown problem parameter {k!r}"
                               for k in sorted(unknown)])
        return replace(self, **kw)

    def build_mesh(self) -> Mesh:
        return structured_grid(self.width, self.height, self.nx, self.ny)

    def build_rbf(self) -> RbfGrid:
        return RbfGrid.structured(self.width, self.height,
                                  self.rbf_nx, self.rbf_ny)

    def build_loads(self, mesh: Mesh) -> LoadCase:
        pts = [(mesh.nearest_node(p), comp, val)
               for p, comp, val in self.point_loads]
        return LoadCase(point_loads=pts,
                        body_material=self.body_material,
                        body_void=self.body_void)

    def fixed_dofs(self, mesh: Mesh) -> np.ndarray:
        d = self.pair.field_dim
        out = []
        for rule in self.dirichlet:
            nodes = rule.select_nodes(mesh)
            if nodes.size == 0:
                raise ConfigError([f"support rule {rule} selects no nodes"])
            out.append(node_dofs(nodes, d, rule.component))
        if not out:
            raise ConfigError(["problem has no supports"])
        return np.unique(np.concatenate(out))

    def initial_design(self, grid: RbfGrid) -> np.ndarray:
        phi0 = self.initial_phi
        if phi0 is None:
            phi0 = hole_lattice_levelset(self.width, self.height)
        return fit_initial_design(grid, phi0, S_MIN, S_MAX)


def cantilever(nx: int = 21, ny: int = 11, **overrides) -> ProblemSpec:
    """Short cantilever: clamped left edge, downward tip load mid-right."""
    width, height = 2.0, 1.0
    spec = ProblemSpec(
        name="cantilever", width=width, height=height, nx=nx, ny=ny,
        rbf_nx=nx, rbf_ny=ny,
        pair=MaterialPair(PlaneStressElastic(1.0, 0.3),
                          PlaneStressElastic(1e-6, 0.3)),
        volume_fraction=0.55,
        dirichlet=(DirichletRule(side="left"),),
        point_loads=(((width, height / 2), 1, -1.0),),
        budget=300)
    return spec.with_overrides(**overrides)


def mbb(nx: int = 151, ny: int = 51, **overrides) -> ProblemSpec:
    """MBB beam, symmetric half: load at the top of the symmetry plane,
    roller under the far bottom corner."""
    width, height = 3.0, 1.0
    spec = ProblemSpec(
        name="mbb", width=width, height=height, nx=nx, ny=ny,
        rbf_nx=61, rbf_ny=21,
        pair=MaterialPair(PlaneStressElastic(1.0, 0.3),
                          PlaneStressElastic(1e-6, 0.3)),
        volume_fraction=0.55,
        dirichlet=(DirichletRule(side="left", component=0),
                   DirichletRule(point=(width, 0.0), component=1)),
        point_loads=(((0.0, height), 1, -1.0),),
        budget=300)
    return spec.with_overrides(**overrides)


def heat_sink(nx: int = 41, ny: int = 41, **overrides) -> ProblemSpec:
    """Unit plate with uniform heat generation in both phases, sunk through
    a zero-temperature point at the bottom-right corner."""
    width, height = 1.0, 1.0
    spec = ProblemSpec(
        name="heat_sink", width=width, height=height, nx=nx, ny=ny,
        rbf_nx=31, rbf_ny=31,
        pair=MaterialPair(Conduction(1.0), Conduction(0.01)),
        volume_fraction=0.45,
        dirichlet=(DirichletRule(point=(width, 0.0), component=0),),
        body_material=np.array([1.0]),
        body_void=np.array([1.0]),
        budget=100)
    return spec.with_overrides(**overrides)


BUILTIN_PROBLEMS = {
    "cantilever": cantilever,
    "mbb": mbb,
    "heat_sink": heat_sink,
}


def get_problem(name: str, **overrides) -> ProblemSpec:
    try:
        factory = BUILTIN_PROBLEMS[name]
    except KeyError:
        known = ", ".join(sorted(BUILTIN_PROBLEMS))
        raise ConfigError([f"unknown problem {name!r}; available: {known}"])
    return factory(**overrides)


@dataclass
class HistoryRecord:
    iteration: int
    compliance: float
    volume_fraction: float
    enriched_dofs: int


@dataclass
class IterationState:
    """Snapshot handed to the observer after each analysis."""

    iteration: int
    design: np.ndarray
    model: EnrichedModel
    u: np.ndarray | None
    compliance: float
    volume_fraction: float


@dataclass
class RunResult:
    problem: ProblemSpec
    mesh: Mesh
    grid: RbfGrid
    history: list
    design: np.ndarray
    model: EnrichedModel
    u: np.ndarray
    converged: bool


class _Workspace:
    """Mesh, kernels, loads, and assembler for one problem instance."""

    def __init__(self, problem: ProblemSpec):
        self.problem = problem
        self.mesh = problem.build_mesh()
        self.grid = problem.build_rbf()
        self.field = LevelsetField(self.grid, self.mesh.nodes,
                                   problem.initial_design(self.grid))
        self.loads = problem.build_loads(self.mesh)
        self.fixed = problem.fixed_dofs(self.mesh)
        self.assembler = Assembler(self.mesh, problem.pair, self.loads)
        self.domain_volume = problem.width * problem.height

    def analyze(self, design: np.ndarray):
        """Solve the state problem for one design. Returns
        (model, u, f, compliance, material volume)."""
        self.field.update_design(design)
        phi = snap_nodal_levelset(self.field.nodal_values)
        model = build_enriched_model(self.mesh, phi)
        k, f = self.assembler.assemble(model)
        u = solve_system(k, f, self.fixed).u
        return model, u, f, compliance(u, f), model.material_volume()

    def gradients(self, model, u):
        from .sensitivity import compliance_gradient, volume_gradient
        dc = compliance_gradient(model, self.field, self.problem.pair,
                                 self.loads, u)
        dv = volume_gradient(model, self.field, "material")
        return dc, dv


def run(problem: ProblemSpec, *, budget: int | None = None,
        move_limit: float | None = None, observer=None) -> RunResult:
    """Optimize a problem; returns the final design and iteration history.

    The history holds one record per analysis, starting with the initial
    design at iteration 0, at most ``budget`` records in total. The loop
    stops early once the design update stays below 1e-6 in the max norm for
    ten consecutive iterations. If the state solve fails, the offending
    design is handed to the observer before the error propagates.
    """
    budget = problem.budget if budget is None else int(budget)
    if budget < 1:
        raise ConfigError(["budget must be at least 1"])
    move = problem.move_limit if move_limit is None else float(move_limit)

    ws = _Workspace(problem)
    s = ws.field.design.copy()
    opt = MmaOptimizer(ws.grid.n_centers, S_MIN, S_MAX, move_limit=move)
    v_limit = problem.volume_fraction * ws.domain_volume

    history = []
    c_ref = None
    stall = 0
    model = u = None
    for it in range(budget):
        try:
            model, u, f, c, vol = ws.analyze(s)
        except SolverError:
            if observer is not None:
                observer(IterationState(it, s.copy(), None, None,
                                        math.nan, math.nan))
            raise
        vf = vol / ws.domain_volume
        history.append(HistoryRecord(it, c, vf,
                                     problem.pair.field_dim * model.n_enriched))
        if observer is not None:
            observer(IterationState(it, s.copy(), model, u, c, vf))
        if c_ref is None:
            if not c > 0.0:
                raise SolverError(f"initial compliance {c} is not positive; "
                                  "cannot normalize the objective")
            c_ref = c
        converged = stall >= STALL_ITERS
        if converged or it == budget - 1:
            break

        dc, dv = ws.gradients(model, u)
        fval = vol / v_limit - 1.0
        s_new = opt.step(s, dc / c_ref, fval, dv / v_limit)
        stall = stall + 1 if np.abs(s_new - s).max() < STALL_TOL else 0
        s = s_new

    return RunResult(problem=problem, mesh=ws.mesh, grid=ws.grid,
                     history=history, design=s, model=model, u=u,
                     converged=converged)


def analyze(problem: ProblemSpec, design: np.ndarray | None = None):
    """Single analysis of a problem at a given (or the initial) design."""
    ws = _Workspace(problem)
    if design is None:
        design = ws.field.design.copy()
    design = np.asarray(design, dtype=float)
    if design.shape != (ws.grid.n_centers,):
        raise ConfigError([f"design has shape {design.shape}; problem "
                           f"{problem.name!r} expects {ws.grid.n_centers} "
                           f"values"])
    model, u, f, c, vol = ws.analyze(design)
    return model, u, f, c, vol


@dataclass
class GradientCheckRow:
    index: int
    analytic: float
    fd: float
    rel_err: float
    topology_event: bool


def _cut_topology(model: EnrichedModel) -> tuple:
    """Discrete structure of the cut: which edges are crossed and how each
    cut parent is tiled. The objective is smooth only while this is fixed;
    shortest-diagonal ties flip the tiling under arbitrarily small design
    perturbations even when the cut-edge set is unchanged."""
    t = model.tiles
    return (model.enr_edges.tobytes(), t.parent.tobytes(),
            t.vertex_ids.tobytes(), t.material.tobytes())


def check_gradients(problem: ProblemSpec, *, design: np.ndarray | None = None,
                    n_sample: int = 50, h: float = 1e-6, seed: int = 0,
                    quantity: str = "compliance") -> list:
    """Compare an analytic design gradient against central differences.

    ``quantity`` selects the compliance (each probe is a full re-analysis)
    or the material volume (each probe only rebuilds the cut geometry).
    Rows where the perturbation changes the cut's discrete structure (the
    set of cut edges, or the tiling of a cut parent) are flagged as
    topology events: there the objective is only piecewise smooth and the
    difference quotient does not approximate the one-sided derivative.
    """
    problems = []
    if quantity not in ("compliance", "volume"):
        problems.append(f"unknown gradient quantity {quantity!r}")
    if not (math.isfinite(h) and h > 0.0):
        problems.append(f"step h must be finite and positive, got {h}")
    if n_sample < 1:
        problems.append(f"n_sample must be at least 1, got {n_sample}")
    if problems:
        raise ConfigError(problems)
    ws = _Workspace(problem)
    s0 = ws.field.design.copy() if design is None \
        else np.asarray(design, dtype=float).copy()
    model0, u0, f0, c0, vol0 = ws.analyze(s0)
    dc, dv = ws.gradients(model0, u0)
    grad, ref = (dc, c0) if quantity == "compliance" else (dv, vol0)
    topo0 = _cut_topology(model0)

    def probe(s):
        if quantity == "compliance":
            model, _, _, value, _ = ws.analyze(s)
        else:
            ws.field.update_design(s)
            phi = snap_nodal_levelset(ws.field.nodal_values)
            model = build_enriched_model(ws.mesh, phi)
            value = model.material_volume()
        return model, value

    rng = np.random.default_rng(seed)
    n = ws.grid.n_centers
    sample = rng.choice(n, size=min(n_sample, n), replace=False)
    rows = []
    for i in sorted(int(i) for i in sample):
        sp, sm = s0.copy(), s0.copy()
        sp[i] += h
        sm[i] -= h
        model_p, vp = probe(sp)
        model_m, vm = probe(sm)
        fd = (vp - vm) / (2.0 * h)
        topo = (_cut_topology(model_p) != topo0
                or _cut_topology(model_m) != topo0)
        scale = max(abs(grad[i]), abs(fd), 1e-6 * abs(ref))
        rows.append(GradientCheckRow(i, float(grad[i]), float(fd),
                                     float(abs(grad[i] - fd) / scale), topo))
    return rows
