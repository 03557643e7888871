"""Optimization driver: problem definitions and the design loop.

A problem bundles mesh extents, the design-kernel grid, materials, loads,
supports, and the optimization budget. The loop alternates analysis on the
exactly resolved interface geometry with an MMA update of the kernel
coefficients; the objective passed to the optimizer is compliance normalized
by its initial value on each analysis mesh so the constraint-relaxation
pricing stays meaningful across physics and mesh sizes.
"""

from __future__ import annotations

import numbers
from dataclasses import dataclass, replace

import numpy as np

from . import sensitivity
from .enrich import (EnrichedModel, build_enriched_model, flip_lone_nodes,
                     snap_nodal_levelset)
from .errors import ConfigError, NumericalError, SolverError, finite_number
from .fem import (Assembler, BandBuffer, Conduction, LoadCase, MaterialPair,
                  PlaneStressElastic, compliance, node_dofs, solve_system)
from .mesh import SIDES, Mesh, structured_grid
from .mma import S_MAX, S_MIN, MmaOptimizer
from .rbf import (LevelsetField, RbfGrid, build_theta, fit_design,
                  hole_lattice_levelset)

SETTLE_RECORDS = 10
SETTLE_SPAN = 1e-3
SETTLE_VF = 0.002


@dataclass(frozen=True)
class DirichletRule:
    """Prescribes zero essential values on part of the boundary.

    Exactly one of ``side`` (every node on one side of the rectangle, a
    name of ``SIDES``) or ``point`` (nearest node) selects the nodes;
    ``component`` picks one field component, or all of them when None.
    """

    side: str | None = None
    point: tuple[float, float] | None = None
    component: int | None = None

    def __post_init__(self):
        if (self.side is None) == (self.point is None):
            raise ConfigError("support rule needs exactly one of side or "
                              "point")
        if self.point is None and not (isinstance(self.side, str)
                                       and self.side in SIDES):
            raise ConfigError(f"support rule has unknown side "
                              f"{self.side!r}; sides are {', '.join(SIDES)}")

    def select_nodes(self, mesh: Mesh) -> np.ndarray:
        if self.point is not None:
            return np.array([mesh.nearest_node(self.point)], dtype=np.int64)
        return mesh.boundary[self.side]


@dataclass(frozen=True)
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
    body: object = None  # uniform source over both phases
    budget: int = 300
    move_limit: float = 0.01

    def __post_init__(self):
        problems = []
        if not (finite_number(numbers.Real, self.volume_fraction)
                and 0.0 < self.volume_fraction < 1.0):
            problems.append("volume_fraction must lie strictly between 0 "
                            f"and 1, got {self.volume_fraction!r}")
        if not all(finite_number(numbers.Real, w) and w > 0.0
                   for w in (self.width, self.height)):
            problems.append("domain size must be finite and positive, got "
                            f"{self.width} x {self.height}")
        for label, n, least in (("nx", self.nx, 2), ("ny", self.ny, 2),
                                ("rbf_nx", self.rbf_nx, 2),
                                ("rbf_ny", self.rbf_ny, 2),
                                ("budget", self.budget, 1)):
            if not (finite_number(numbers.Integral, n) and n >= least):
                problems.append(f"{label} must be an integer of at least "
                                f"{least}, got {n!r}")
        if not (finite_number(numbers.Real, self.move_limit)
                and self.move_limit > 0.0):
            problems.append("move_limit must be finite and positive, got "
                            f"{self.move_limit!r}")
        if not isinstance(self.pair, MaterialPair):
            raise ConfigError(problems + [f"pair must be a MaterialPair, got "
                                          f"{self.pair!r}"])
        d = self.pair.field_dim
        box = f"[0, {self.width}] x [0, {self.height}]"

        def inside(point):  # a sequence of two finite coordinates in the box
            try:
                x, y = point
            except (TypeError, ValueError):
                return False
            return (isinstance(point, (tuple, list, np.ndarray))
                    and finite_number(numbers.Real, x)
                    and finite_number(numbers.Real, y)
                    and 0.0 <= x <= self.width and 0.0 <= y <= self.height)

        def component(c):  # a field component, an integer in [0, d)
            return finite_number(numbers.Integral, c) and 0 <= c < d

        def entries(label, items):  # the entries of a tuple or list
            if isinstance(items, (tuple, list)):
                return items
            problems.append(f"{label} must be a tuple, got {items!r}")
            return ()

        if isinstance(self.dirichlet, (tuple, list)) and not self.dirichlet:
            problems.append("problem has no supports")
        for rule in entries("dirichlet", self.dirichlet):
            if not isinstance(rule, DirichletRule):
                problems.append(f"support rule must be a DirichletRule, got "
                                f"{rule!r}")
                continue
            if rule.component is not None and not component(rule.component):
                problems.append(f"support component must lie in [0, {d}), "
                                f"got {rule.component!r}")
            if rule.point is not None and not inside(rule.point):
                problems.append(f"support point must lie in {box}, got "
                                f"{rule.point}")
        for load in entries("point_loads", self.point_loads):
            if not (isinstance(load, (tuple, list)) and len(load) == 3):
                problems.append(f"point load must be (point, component, "
                                f"value), got {load!r}")
                continue
            point, comp, value = load
            if not component(comp):
                problems.append(f"load component must lie in [0, {d}), got "
                                f"{comp!r}")
            if not (inside(point) and finite_number(numbers.Real, value)):
                problems.append(f"point load needs a finite point and value, "
                                f"the point in {box}, got {point} and "
                                f"{value!r}")
        # as an object array, a ragged body has a shape to reject
        body = np.atleast_1d(np.asarray(self.body, dtype=object))
        if self.body is not None and (body.shape != (d,) or not all(
                finite_number(numbers.Real, value) for value in body)):
            problems.append(f"body must be {d} finite value(s), got "
                            f"{self.body}")
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
        return LoadCase(point_loads=pts, body=self.body)

    def fixed_dofs(self, mesh: Mesh) -> np.ndarray:
        return np.unique(np.concatenate([
            node_dofs(rule.select_nodes(mesh), self.pair.field_dim,
                      rule.component) for rule in self.dirichlet]))

    def initial_design(self, grid: RbfGrid) -> np.ndarray:
        phi0 = hole_lattice_levelset(self.width, self.height)
        return np.clip(fit_design(grid, phi0(grid.centers)), S_MIN, S_MAX)


def cantilever(nx: int = 21, ny: int = 11, width: float = 2.0,
               height: float = 1.0, **overrides) -> ProblemSpec:
    """Short cantilever: clamped left edge, downward tip load mid-right."""
    spec = ProblemSpec(
        name="cantilever", width=width, height=height, nx=nx, ny=ny,
        rbf_nx=nx, rbf_ny=ny,
        pair=MaterialPair(PlaneStressElastic(0.3), 1.0, 1e-6),
        volume_fraction=0.55,
        dirichlet=(DirichletRule(side="left"),),
        point_loads=(((width, height / 2), 1, -1.0),),
        budget=300)
    return spec.with_overrides(**overrides)


def mbb(nx: int = 151, ny: int = 51, width: float = 3.0,
        height: float = 1.0, **overrides) -> ProblemSpec:
    """MBB beam, symmetric half: load at the top of the symmetry plane,
    roller under the far bottom corner."""
    spec = ProblemSpec(
        name="mbb", width=width, height=height, nx=nx, ny=ny,
        rbf_nx=61, rbf_ny=21,
        pair=MaterialPair(PlaneStressElastic(0.3), 1.0, 1e-6),
        volume_fraction=0.55,
        dirichlet=(DirichletRule(side="left", component=0),
                   DirichletRule(point=(width, 0.0), component=1)),
        point_loads=(((0.0, height), 1, -1.0),),
        budget=300)
    return spec.with_overrides(**overrides)


def heat_sink(nx: int = 41, ny: int = 41, width: float = 1.0,
              height: float = 1.0, **overrides) -> ProblemSpec:
    """Unit plate with uniform heat generation in both phases, sunk through
    a zero-temperature point at the bottom-right corner."""
    spec = ProblemSpec(
        name="heat_sink", width=width, height=height, nx=nx, ny=ny,
        rbf_nx=31, rbf_ny=31,
        pair=MaterialPair(Conduction(), 1.0, 0.01),
        volume_fraction=0.45,
        dirichlet=(DirichletRule(point=(width, 0.0), component=0),),
        body=np.array([1.0]),
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
    """One analysis of a run; its fields, in order, are history.csv's
    columns. ``mesh`` names the mesh it was analysed on, as ``"{nx}x{ny}"``."""

    iteration: int
    compliance: float
    volume_fraction: float
    enriched_dofs: int
    mesh: str = ""


@dataclass(kw_only=True)
class IterationState(HistoryRecord):
    """A history record with a copy of its design, its model and solution u."""

    design: np.ndarray
    model: EnrichedModel
    u: np.ndarray


@dataclass
class RunResult:
    problem: ProblemSpec
    mesh: Mesh
    history: list
    design: np.ndarray
    model: EnrichedModel
    u: np.ndarray


class _Workspace:
    """Mesh, kernels, loads, and assembler for one problem instance; its
    initial design is a float copy of ``start``, which must hold one number
    in [S_MIN, S_MAX] per kernel, or the fit if None."""

    def __init__(self, problem: ProblemSpec, start: np.ndarray | None = None):
        self.problem = problem
        self.mesh = problem.build_mesh()
        self.grid = problem.build_rbf()
        self.loads = problem.build_loads(self.mesh)
        # the design variables whose kernels cover a point load start at
        # S_MAX and take no optimizer steps, so every load sits on material
        cover = build_theta(self.grid, self.mesh.nodes[
            [node for node, _, _ in self.loads.point_loads]])
        self.passive = np.unique(cover.indices[cover.data > 0.0])
        if start is None:
            self.initial = problem.initial_design(self.grid)
            self.initial[self.passive] = S_MAX
        else:
            n = self.grid.n_centers
            expects = f"problem {problem.name!r} expects {n} values"
            try:
                start = np.asarray(start)
                numeric = start.dtype.kind in "iuf"  # no strings, no bools
            except ValueError:  # a ragged design
                numeric = False
            if not numeric:
                raise ConfigError([f"design is not numeric; {expects}"])
            s = self.initial = start.astype(float)
            if s.shape != (n,):
                raise ConfigError([f"design has shape {s.shape}; {expects}"])
            # NaN and +-inf fail the range test too
            outside = np.flatnonzero(~((s >= S_MIN) & (s <= S_MAX)))
            if outside.size:
                i = outside[0]
                raise ConfigError(f"design value {s[i]:g} at index {i} lies "
                                  f"outside [{S_MIN:g}, {S_MAX:g}]")
        self.field = LevelsetField(self.grid, self.mesh.nodes, self.initial)
        self.fixed = problem.fixed_dofs(self.mesh)
        self.assembler = Assembler(self.mesh, problem.pair, self.loads)
        self.band = BandBuffer()  # the band of every state solve
        self.domain_volume = problem.width * problem.height

    def levelset(self, design: np.ndarray) -> np.ndarray:
        """Snapped nodal levelset of one design, its lone nodes flipped
        first (``flip_lone_nodes``)."""
        self.field.update_design(design)
        return snap_nodal_levelset(flip_lone_nodes(self.field.nodal_values,
                                                   self.mesh))

    def model(self, design: np.ndarray) -> EnrichedModel:
        """Enriched model of one design."""
        return build_enriched_model(self.mesh, self.levelset(design))

    def analyze(self, design: np.ndarray):
        """Solve the state problem for one design. Returns
        (model, u, f, compliance, material volume)."""
        model = self.model(design)
        k, f = self.assembler.assemble(model)
        u = solve_system(k, f, self.assembler.fixed_dofs(model, self.fixed),
                         self.assembler.band_key(model), self.band).u
        return model, u, f, compliance(u, f), model.material_volume()

    def gradients(self, model, u):
        dc = sensitivity.compliance_gradient(model, self.field,
                                             self.problem.pair, self.loads, u)
        dv = sensitivity.volume_gradient(model, self.field)
        return dc, dv


def _stages(problem: ProblemSpec) -> list:
    """The (problem, analyses) stages that ``run`` analyses in turn.

    The design lives on the RBF centres, not on the mesh, so it carries
    from one mesh to another unchanged; it is all a stage hands the next.
    A problem runs its first ``budget * 5 // 6`` analyses on the structured
    mesh with half its intervals (rounded up) and the rest on its own mesh,
    when that coarse mesh is no coarser than the centres in x and in y,
    and every point load and point support lands on a node with the same
    coordinates on both meshes; otherwise it is one stage.
    """
    coarse = problem.with_overrides(nx=problem.nx // 2 + 1,
                                    ny=problem.ny // 2 + 1)
    analyses = problem.budget * 5 // 6
    if not (analyses and problem.rbf_nx <= coarse.nx and
            problem.rbf_ny <= coarse.ny and
            (coarse.nx, coarse.ny) != (problem.nx, problem.ny)):
        return [(problem, problem.budget)]
    points = [p for p, _, _ in problem.point_loads] + [
        rule.point for rule in problem.dirichlet if rule.point is not None]
    fine_mesh, coarse_mesh = problem.build_mesh(), coarse.build_mesh()
    if any((fine_mesh.nodes[fine_mesh.nearest_node(p)]
            != coarse_mesh.nodes[coarse_mesh.nearest_node(p)]).any()
           for p in points):
        return [(problem, problem.budget)]
    return [(coarse, analyses), (problem, problem.budget - analyses)]


def run(problem: ProblemSpec, *, budget: int | None = None,
        observer=None) -> RunResult:
    """Optimize a problem; returns the final design and iteration history.

    The history holds one record per analysis, starting with the initial
    design at iteration 0, at most ``budget`` records in total. The
    analyses run in the stages of ``_stages``, and the last record is
    always on the problem's own mesh. Each stage steps the design it is
    handed with an optimizer of its own, fresh at ``move_limit``, and
    normalizes the compliance by its own first one.
    A stage ends after its cap of analyses, or once its last 10
    compliances span under 0.1% of their mean and its volume fraction is
    within 0.002 of the limit; a stage that settles hands the next its last
    analysed design, unstepped. The final design is the one the last
    record analysed. A NumericalError from the loop leaves with the
    iteration and a copy of the design it failed at.
    """
    problem = problem.with_overrides(
        budget=problem.budget if budget is None else budget)

    history = []
    s = None
    it = -1
    try:
        for spec, analyses in _stages(problem):
            # free the last stage, with its last model, before the next
            ws = model = u = f = None
            ws = _Workspace(spec, s)
            s = ws.initial
            opt = MmaOptimizer(ws.grid.n_centers, move_limit=problem.move_limit)
            v_limit = problem.volume_fraction * ws.domain_volume
            window = []  # the stage's compliances, the last 10 at most
            for i in range(analyses):
                it += 1
                # free the last analysis, with its model's cached geometry
                model = u = f = None
                model, u, f, c, vol = ws.analyze(s)
                vf = vol / ws.domain_volume
                record = HistoryRecord(it, c, vf, problem.pair.field_dim *
                                       model.n_enriched, f"{spec.nx}x{spec.ny}")
                history.append(record)
                if observer is not None:
                    observer(IterationState(**vars(record), design=s.copy(),
                                            model=model, u=u))
                if not window:
                    if not c > 0.0:
                        raise SolverError(f"initial compliance {c} is not "
                                          "positive; cannot normalize the "
                                          "objective")
                    c_ref = c
                window = window[1 - SETTLE_RECORDS:] + [c]
                settled = (len(window) == SETTLE_RECORDS and np.ptp(window) <
                           SETTLE_SPAN * np.mean(window) and
                           abs(vf - problem.volume_fraction) <= SETTLE_VF)
                # _stages gives the last stage the problem itself
                if settled or spec is problem and i == analyses - 1:
                    break

                dc, dv = ws.gradients(model, u)
                dc[ws.passive] = dv[ws.passive] = 0.0
                fval = vol / v_limit - 1.0
                s = opt.step(s, dc / c_ref, fval, dv / v_limit)
    except NumericalError as err:
        err.iteration, err.design = it, s.copy()
        raise

    return RunResult(problem=problem, mesh=ws.mesh, history=history,
                     design=s, model=model, u=u)


def analyze(problem: ProblemSpec, design: np.ndarray | None = None):
    """Single analysis of a problem at a given (or the initial) design."""
    ws = _Workspace(problem, design)
    return ws.analyze(ws.initial)


@dataclass
class GradientCheckRow:
    index: int
    analytic: float
    fd: float
    rel_err: float
    topology_event: bool


def _cut_topology(model: EnrichedModel, parents=None) -> tuple:
    """Discrete structure of the cut in the elements of ``model.mesh``
    that the boolean mask ``parents`` selects (all when None): each tile of
    a cut parent, named by the parent's nodes, its vertices (node j, or
    n_nodes + j n_nodes + k for the enriched node on cut edge (j, k)) and
    its phase. The objective is smooth only while this is fixed;
    shortest-diagonal ties flip the tiling under arbitrarily small design
    perturbations even when the cut-edge set is unchanged. No name depends
    on the mesh's other elements, so the model of a sub-mesh compares with
    a whole-mesh model restricted to the same elements."""
    t, n = model.tiles, model.mesh.n_nodes
    keep = slice(None) if parents is None else parents.take(t.parent)
    ids = t.vertex_ids[keep]
    edge_keys = n + model.enr_edges[:, 0] * n + model.enr_edges[:, 1]
    names = np.where(ids < n, ids, edge_keys.take(ids - n, mode="clip"))
    return (model.mesh.elements.take(t.parent[keep], axis=0).tobytes(),
            names.tobytes(), t.material[keep].tobytes())


def check_gradients(problem: ProblemSpec, *, design: np.ndarray | None = None,
                    n_sample: int = 50, h: float = 1e-6, seed: int = 0,
                    quantity: str = "compliance") -> list:
    """Compare an analytic design gradient against central differences.

    ``quantity`` selects the compliance (each probe is a full re-analysis)
    or the material volume (each probe only rebuilds the cut geometry).
    Compliance probes assemble and solve in longdouble, so that float64
    rounding does not swamp the quotients; the analytic side stays float64.
    A volume probe tiles only the patch: the elements that touch a node
    whose snapped levelset differs from the base design's at s + h or
    s - h. Every other element keeps its snapped values, hence its tiles
    and areas, bit for bit, so the difference of the two patch volumes is
    the difference of the whole volumes without their cancellation against
    the rest of the domain.
    Rows where the perturbation changes the cut's discrete structure (the
    set of cut edges, or the tiling of a cut parent) are flagged as
    topology events: there the objective is only piecewise smooth and the
    difference quotient does not approximate the one-sided derivative.
    """
    problems = []
    if quantity not in ("compliance", "volume"):
        problems.append(f"unknown gradient quantity {quantity!r}")
    if not (finite_number(numbers.Real, h) and h > 0.0):
        problems.append(f"step h must be finite and positive, got {h!r}")
    if not (finite_number(numbers.Integral, n_sample) and n_sample >= 1):
        problems.append(f"n_sample must be an integer of at least 1, got "
                        f"{n_sample!r}")
    if not (finite_number(numbers.Integral, seed) and seed >= 0):
        problems.append(f"seed must be an integer of at least 0, got {seed!r}")
    if problems:
        raise ConfigError(problems)
    ws = _Workspace(problem, design)
    s0 = ws.initial
    model0, u0, f0, c0, vol0 = ws.analyze(s0)
    dc, dv = ws.gradients(model0, u0)
    grad, ref = (dc, c0) if quantity == "compliance" else (dv, vol0)
    if quantity == "compliance":
        ws.assembler = Assembler(ws.mesh, problem.pair, ws.loads,
                                 dtype=np.longdouble)
        topo0 = _cut_topology(model0)

    def probes(sp, sm):
        """(value at sp, value at sm, whether the cut topology moved)."""
        if quantity == "compliance":
            (model_p, _, _, vp, _), (model_m, _, _, vm, _) = \
                ws.analyze(sp), ws.analyze(sm)
            before = topo0
        else:
            phi_p, phi_m = ws.levelset(sp), ws.levelset(sm)
            moved = (phi_p != model0.phi) | (phi_m != model0.phi)
            touched = moved.take(ws.mesh.elements.T).any(axis=0)
            sub = Mesh(nodes=ws.mesh.nodes,
                       elements=ws.mesh.elements.compress(touched, axis=0))
            model_p = build_enriched_model(sub, phi_p)
            model_m = build_enriched_model(sub, phi_m)
            vp, vm = model_p.material_volume(), model_m.material_volume()
            before = _cut_topology(model0, touched)
        return vp, vm, (_cut_topology(model_p) != before
                        or _cut_topology(model_m) != before)

    rng = np.random.default_rng(seed)
    n = ws.grid.n_centers
    sample = rng.choice(n, size=min(n_sample, n), replace=False)
    rows = []
    for i in sorted(int(i) for i in sample):
        sp, sm = s0.copy(), s0.copy()
        sp[i] += h
        sm[i] -= h
        vp, vm, topo = probes(sp, sm)
        fd = (vp - vm) / (2.0 * h)
        scale = max(abs(grad[i]), abs(fd), 1e-6 * abs(ref))
        err = abs(grad[i] - fd) / scale if scale else 0.0  # both sides 0
        rows.append(GradientCheckRow(i, float(grad[i]), float(fd), float(err),
                                     topo))
    return rows
