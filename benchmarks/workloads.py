"""The benchmark's workloads, each a closed-loop batch job through the
public igtop API.

A workload repeats whole rounds of the same library calls. One operation is
one state analysis (or, in the gradient check, one geometry-only probe).
Every round checks its own outputs; see ``checks.py`` for the references.
"""

from __future__ import annotations

import math
from contextlib import nullcontext
from dataclasses import dataclass, field

import numpy as np

import igtop
from igtop.driver import S_MAX, S_MIN

import checks
from clock import Clock

# The full mbb run takes minutes; its budget is cut so a round fits a
# benchmark run. The solve (16,778 dofs) is still a third of an iteration.
MBB_BUDGET = 15
# The full heat_sink run (100 iterations) takes over a minute; its first
# iterations already carry the body-load branches and some 800 cut parents.
HEAT_SINK_BUDGET = 20
GRADCHECK_SAMPLES = 50
GRADCHECK_STEP = 1e-6


@dataclass(frozen=True)
class Gate:
    """The paper's reference for a full-budget run: final compliance within
    ``reference`` +- ``rel_tol`` and final volume fraction at most
    ``vf_max``."""

    reference: float
    rel_tol: float
    vf_max: float


@dataclass
class Round:
    """What one round did, measured and checked."""

    operations: int = 0
    failed: int = 0
    call_times: list = field(default_factory=list)  # wall (start, end)
    wall_s: float = 0.0
    run_s: float = 0.0  # scaled, see clock.py
    iter_s: list = field(default_factory=list)  # scaled
    fingerprint: bytes = b""  # exact outputs, compared bitwise
    problems: list = field(default_factory=list)
    expected_calls: dict = field(default_factory=dict)  # layer -> calls
    workspaces: int = 0  # problem set-ups inside the library calls

    def take_times(self, clock: Clock) -> list:
        """Set the round's times from the clock; return the scaled time of
        each segment."""
        segments = clock.segments()
        self.wall_s = sum(w for w, _ in segments)
        self.run_s = sum(s for _, s in segments)
        return [s for _, s in segments]


def build_setup(problem) -> None:
    """What a run builds before its first analysis, through the public
    constructors: mesh, RBF kernel matrix with the initial-design fit,
    loads, supports and the assembler."""
    mesh = problem.build_mesh()
    grid = problem.build_rbf()
    igtop.LevelsetField(grid, mesh.nodes, problem.initial_design(grid))
    loads = problem.build_loads(mesh)
    problem.fixed_dofs(mesh)
    igtop.Assembler(mesh, problem.pair, loads)


def _expected(updates: int, solves: int, gradients: int, steps: int) -> dict:
    """Calls each layer must record; ``driver.self`` has one entry per
    design update."""
    return {"rbf.update": updates, "enrich.build": updates,
            "fem.assemble": solves, "fem.solve": solves,
            "sensitivity.compliance": gradients,
            "sensitivity.volume": gradients, "mma.step": steps,
            "driver.self": updates}


class Optimization:
    """``igtop.run`` on one problem at a fixed budget."""

    def __init__(self, name, problem, round_s, budget=None, gate=None):
        self.name = name
        self.problem = problem
        self.round_s = round_s  # nominal length of one round
        self.budget = problem.budget if budget is None else budget
        self.gate = gate

    def setup(self) -> None:
        build_setup(self.problem)

    def run_round(self, seed: int, clock: Clock,
                  instrument=nullcontext) -> Round:
        # The problem is fixed; the seed does not enter an optimization.
        designs, analyses = [], []

        def observer(state):
            clock.lap()
            designs.append(state.design)
            analyses.append(math.isfinite(state.compliance))

        rnd = Round(workspaces=1)
        clock.lap()
        try:
            with instrument():
                result = igtop.run(self.problem, budget=self.budget,
                                   observer=observer)
        except igtop.IgtopError as err:
            result = err
        clock.lap()
        rnd.call_times.append((clock.marks[0], clock.marks[-1]))
        segments = rnd.take_times(clock)
        if isinstance(result, igtop.IgtopError):
            rnd.operations = sum(analyses) + 1
            rnd.failed = 1
            rnd.problems.append(f"{self.name}: {type(result).__name__}: "
                                f"{result}")
            return rnd

        history = result.history
        n = len(history)
        rnd.operations = n
        # between successive observer calls: gradient, MMA step, analysis
        rnd.iter_s = segments[1:n]
        rnd.expected_calls = _expected(n, n, n - 1, n - 1)
        rnd.fingerprint = b"".join([
            np.array([(r.iteration, r.compliance, r.volume_fraction,
                       r.enriched_dofs) for r in history]).tobytes(),
            np.asarray(designs).tobytes(), result.u.tobytes()])
        rnd.problems = self.check(result, designs)
        return rnd

    def check(self, result, designs) -> list:
        problem = self.problem
        last = result.history[-1]
        problems = checks.check_history(result.history)
        if self.gate is not None:
            problems += checks.check_band("final compliance",
                                          last.compliance,
                                          self.gate.reference,
                                          self.gate.rel_tol)
            if not last.volume_fraction <= self.gate.vf_max:
                problems.append(f"final volume fraction "
                                f"{last.volume_fraction!r} exceeds "
                                f"{self.gate.vf_max}")
        problems += checks.check_steps(designs, problem.move_limit,
                                       S_MIN, S_MAX)
        loads = problem.build_loads(result.mesh)
        k, f = igtop.Assembler(result.mesh, problem.pair,
                               loads).assemble(result.model)
        problems += checks.check_system(k, f, result.u, problem.pair.field_dim,
                                        result.mesh.n_nodes)
        problems += checks.check_tiling(result.model)
        return [f"{self.name}: {p}" for p in problems]


class GradientCheck:
    """``igtop.check_gradients`` of the material volume on each problem's
    initial design; the seed picks the sampled design variables.

    Each probe rebuilds only the cut geometry. The compliance checks are
    left out: at h = 1e-6 their verdict on a 50-variable sample depends on
    the seed (see README.md).
    """

    def __init__(self, name, problems, round_s, n_sample=GRADCHECK_SAMPLES):
        self.name = name
        self.problems = problems
        self.round_s = round_s  # nominal length of one round
        self.n_sample = n_sample

    def setup(self) -> None:
        for problem in self.problems:
            build_setup(problem)

    def run_round(self, seed: int, clock: Clock,
                  instrument=nullcontext) -> Round:
        rnd = Round()
        results = []
        clock.lap()
        for problem in self.problems:
            label = f"{self.name}: {problem.name} dvolume"
            rnd.workspaces += 1
            try:
                with instrument():
                    rows = igtop.check_gradients(
                        problem, n_sample=self.n_sample, h=GRADCHECK_STEP,
                        seed=seed, quantity="volume")
            except igtop.IgtopError as err:
                rows = None
                rnd.problems.append(f"{label}: {type(err).__name__}: {err}")
            clock.lap()
            rnd.call_times.append((clock.marks[-2], clock.marks[-1]))
            results.append((label, rows))
        rnd.take_times(clock)

        expected = []
        n_rows = 0
        for label, rows in results:
            if rows is None:
                rnd.operations += 1
                rnd.failed += 1
                continue
            n_rows += len(rows)
            # one base analysis, then two geometry probes per variable
            probes = 1 + 2 * len(rows)
            rnd.operations += probes
            expected.append(_expected(probes, 1, 1, 0))
            rnd.fingerprint += np.array(
                [(r.index, r.analytic, r.fd, r.rel_err, r.topology_event)
                 for r in rows]).tobytes()
            rnd.problems += checks.check_gradient_rows(label, rows)
        rnd.expected_calls = {layer: sum(e[layer] for e in expected)
                              for layer in _expected(0, 0, 0, 0)}
        if n_rows:
            rnd.iter_s = [rnd.run_s / n_rows]  # per checked variable
        return rnd


def workloads() -> dict:
    """The benchmark's four workloads, by name."""
    return {
        "cantilever": Optimization(
            "cantilever", igtop.cantilever(), round_s=30.0,
            gate=Gate(reference=56.998, rel_tol=0.10, vf_max=0.56)),
        "mbb": Optimization("mbb", igtop.mbb(), round_s=15.0,
                            budget=MBB_BUDGET),
        "heat_sink": Optimization("heat_sink", igtop.heat_sink(),
                                  round_s=11.0, budget=HEAT_SINK_BUDGET),
        "gradcheck": GradientCheck(
            "gradcheck", (igtop.cantilever(), igtop.heat_sink()),
            round_s=15.0),
    }


def tiny_workloads() -> dict:
    """The same workloads at a size that runs in seconds, for the
    benchmark's own tests. The paper's gate applies to none of them."""
    return {
        "cantilever": Optimization("cantilever", igtop.cantilever(9, 5),
                                   round_s=0.2, budget=4),
        "mbb": Optimization("mbb", igtop.mbb(31, 11, rbf_nx=16, rbf_ny=6),
                            round_s=0.3, budget=3),
        "heat_sink": Optimization(
            "heat_sink", igtop.heat_sink(13, 13, rbf_nx=10, rbf_ny=10),
            round_s=0.5, budget=3),
        "gradcheck": GradientCheck(
            "gradcheck", (igtop.cantilever(9, 5),
                          igtop.heat_sink(13, 13, rbf_nx=10, rbf_ny=10)),
            round_s=0.5, n_sample=6),
    }
