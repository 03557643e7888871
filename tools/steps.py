"""Print where the set-up and one analysis of the optimization workloads
take memory, and where their state solves go.

    python3 tools/steps.py

In its own process, for the cantilever, mbb and heat_sink problems of
``benchmarks/workloads.py`` it prints, in MB (2^20 bytes), the traced peak
of each step and the bytes it keeps once it returns, each step traced on
its own by ``tracemalloc`` so that its peak counts only what it allocates
itself: the set-up pieces (the mesh with its element geometry, the initial
design fit, the ``LevelsetField``, the ``Assembler`` and the whole
``_Workspace``) and one analysis of the initial design (enriched model,
assembly, solve and gradients). A fresh process, with BLAS pinned to one
thread as in ``benchmarks/run.py``, then repeats the benchmark's set-up 15
times and runs the problem at the workload's budget; its ``ru_maxrss``
after each is the peak resident memory that the benchmark reports. Traced
bytes leave out the interpreter's own and BLAS's native allocations.

In that run the fresh process times with ``time.perf_counter`` each state
solve (``driver.solve_system``) and takes the seconds of its banded
Cholesky factor and of each back-solve from the ``SolveResult`` it returns
(``factor_s`` and ``back_s``). Around each state solve it reads
``ru_maxrss`` before and after: the rise is how much that solve raised the
process's peak resident memory. A solve whose band fits the buffer its
workspace kept from the stage's earlier solves adds no band to it, so the
largest rise of a mesh is its first or largest band's. The observer tags
each solve with its state's analysis mesh. Per problem and analysis mesh (a
run with a coarse stage solves on two), it prints, as medians over the
solves in ms, the whole solve, its factor, its back-solves together and the
rest (band fill, residuals and checks), the largest rise in MB and the
range of back-solves per solve. Times are wall clock, so they carry the
host's load.
"""

from __future__ import annotations

import json
import os
import resource
import statistics
import subprocess
import sys
import time
import tracemalloc
from pathlib import Path

BENCHMARKS = Path(__file__).resolve().parent.parent / "benchmarks"
MB = 2.0 ** 20


def use_benchmark_sources() -> None:
    """Import the benchmark's modules and this checkout's ``igtop``, with
    BLAS pinned to the benchmark's thread count (before numpy loads)."""
    sys.path.insert(0, str(BENCHMARKS))
    import run
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = run.BLAS_THREADS
    run.use_checkout_sources()


def traced(step, rows: list, label: str):
    """Run ``step()`` under a fresh trace, append (label, peak MB, kept MB)
    to ``rows`` and return the step's result."""
    tracemalloc.start()
    try:
        result = step()
        kept, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    rows.append((label, peak / MB, kept / MB))
    return result


def setup_steps(problem) -> list:
    """(step, peak MB, kept MB) of each set-up piece, in the order
    ``_Workspace`` builds them, and of a whole ``_Workspace``."""
    from igtop import Assembler, LevelsetField
    from igtop.driver import _Workspace

    def geometry():
        mesh = problem.build_mesh()
        mesh.areas, mesh.hat_gradients
        return mesh

    rows = []
    mesh = traced(geometry, rows, "mesh geometry")
    grid = problem.build_rbf()
    design = traced(lambda: problem.initial_design(grid), rows,
                    "initial_design")
    traced(lambda: LevelsetField(grid, mesh.nodes, design), rows,
           "LevelsetField")
    loads = problem.build_loads(mesh)
    traced(lambda: Assembler(mesh, problem.pair, loads), rows, "Assembler")
    traced(lambda: _Workspace(problem), rows, "_Workspace")
    return rows


def analysis_steps(problem) -> list:
    """(step, peak MB, kept MB) of the steps of one analysis of the initial
    design, as ``_Workspace.analyze`` and ``gradients`` take them."""
    from igtop.driver import _Workspace
    from igtop.fem import solve_system

    ws = _Workspace(problem)
    asm, rows = ws.assembler, []
    model = traced(lambda: ws.model(ws.initial), rows, "model")
    k, f = traced(lambda: asm.assemble(model), rows, "assemble")
    u = traced(lambda: solve_system(k, f, asm.fixed_dofs(model, ws.fixed),
                                    asm.band_key(model)).u, rows, "solve")
    traced(lambda: ws.gradients(model, u), rows, "gradients")
    return rows


def resident_steps(workload: str, overrides=None, budget=None,
                   setups: int | None = None) -> tuple:
    """``ru_maxrss`` in MB of a fresh process after ``setups`` (by default
    the benchmark's count) of the benchmark's set-ups of a workload's
    problem, with ``overrides``, and after a run at ``budget`` (by default
    the workload's); that budget; and per state solve of the run [solve s,
    factor s, back-solves s, back-solves, rise MB, mesh]. Linux counts the
    resident memory of the process that starts the child in the child's
    maximum, so call this before the caller itself grows."""
    spec = json.dumps({"workload": workload, "overrides": overrides or {},
                       "budget": budget, "setups": setups})
    child = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), "--resident", spec],
        capture_output=True, text=True, check=True)
    out = json.loads(child.stdout)
    return out["after_setups"], out["after_run"], out["budget"], out["solves"]


def resident_child(spec: str) -> int:
    """The process of ``resident_steps``: prints its readings as one JSON
    line."""
    use_benchmark_sources()
    import igtop
    import run
    from igtop import driver
    from workloads import build_setup, workloads

    spec = json.loads(spec)
    workload = workloads()[spec["workload"]]
    problem = workload.problem.with_overrides(**spec["overrides"])
    budget = spec["budget"] or workload.budget
    for _ in range(spec["setups"] or run.SETUP_REPEATS):
        build_setup(problem)
    after_setups = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    solves, pending = [], []
    solve = driver.solve_system

    def measured(*args, **kwargs):
        before = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        start = time.perf_counter()
        result = solve(*args, **kwargs)
        pending.append([time.perf_counter() - start, result.factor_s,
                        sum(result.back_s), len(result.back_s),
                        (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
                         - before) / 1024.0])
        return result

    driver.solve_system = measured

    def observer(state):  # one state solve per analysis
        (solved,) = pending
        solves.append(solved + [state.mesh])
        pending.clear()

    igtop.run(problem, budget=budget, observer=observer)
    after_run = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    print(json.dumps({"after_setups": after_setups / 1024.0,
                      "after_run": after_run / 1024.0, "budget": budget,
                      "solves": solves}))
    return 0


def solve_rows(solves) -> list:
    """Per analysis mesh, in the order the run reached them: (mesh, solves,
    median ms of the solve, factor, back-solves and rest, the largest peak
    rise in MB, back-solve counts as "n" or "lo-hi")."""
    rows = []
    for mesh in dict.fromkeys(solve[-1] for solve in solves):
        own = [solve for solve in solves if solve[-1] == mesh]
        counts = sorted({n for *_, n, _, _ in own})
        counts = f"{counts[0]}-{counts[-1]}" if len(counts) > 1 \
            else str(counts[0])
        ms = [1e3 * statistics.median(t) for t in zip(*(
            (t, f, b, t - f - b) for t, f, b, *_ in own))]
        rows.append((mesh, len(own), *ms, max(rise for *_, rise, _ in own),
                     counts))
    return rows


def main() -> int:
    # the resident readings first, while this process is small
    names = ("cantilever", "mbb", "heat_sink")
    resident = {name: resident_steps(name) for name in names}
    use_benchmark_sources()
    import run
    from workloads import workloads

    print(f"{'problem':<11} {'step':<15} {'peak MB':>8} {'kept MB':>8}")
    for name in names:
        problem = workloads()[name].problem
        for step, peak, kept in (setup_steps(problem)
                                 + analysis_steps(problem)):
            print(f"{name:<11} {step:<15} {peak:>8.2f} {kept:>8.2f}")
        setups, ran, budget, _ = resident[name]
        print(f"{name:<11} ru_maxrss {setups:.2f} MB after "
              f"{run.SETUP_REPEATS} set-ups, {ran:.2f} MB after a run of "
              f"{budget} iterations")
    print(f"\n{'problem':<11} {'mesh':>7} {'solves':>6} {'solve ms':>9} "
          f"{'factor ms':>10} {'back-solves ms':>15} {'rest ms':>8} "
          f"{'rise MB':>8} {'back-solves':>12}")
    for name in names:
        for mesh, n, solve, factor, back, rest, rise, counts in solve_rows(
                resident[name][3]):
            print(f"{name:<11} {mesh:>7} {n:>6} {solve:>9.2f} "
                  f"{factor:>10.2f} {back:>15.2f} {rest:>8.2f} {rise:>8.2f} "
                  f"{counts:>12}")
    return 0


if __name__ == "__main__":
    sys.exit(resident_child(sys.argv[2]) if sys.argv[1:2] == ["--resident"]
             else main())
