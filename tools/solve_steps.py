"""Print where the state solves of the three optimization workloads go.

    python3 tools/solve_steps.py

Runs the cantilever, mbb and heat_sink problems at the budgets of
``benchmarks/workloads.py`` with BLAS pinned to one thread, as
``benchmarks/run.py`` does, and times every call of ``solve_system`` and,
inside it, of the banded Cholesky factor (``cholesky_banded``) and the
back-solves (``cho_solve_banded``). Per problem it prints, as medians over
the solves in ms, the whole solve, its factor, its back-solves together and
the rest (band fill, residuals and checks), and the range of back-solves
per solve. Times are wall clock, so they carry the host's load.
"""

from __future__ import annotations

import os
import statistics
import sys
import time
from pathlib import Path

BENCHMARKS = Path(__file__).resolve().parent.parent / "benchmarks"


def timed(owner, name: str, log: list):
    """Replace ``owner.name`` by a wrapper that appends each call's wall
    time to ``log``."""
    fn = getattr(owner, name)

    def wrapper(*args, **kwargs):
        start = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            log.append(time.perf_counter() - start)

    setattr(owner, name, wrapper)


def main() -> int:
    sys.path.insert(0, str(BENCHMARKS))
    import run
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = run.BLAS_THREADS
    run.use_checkout_sources()
    import igtop
    import igtop.driver
    import igtop.fem
    from workloads import workloads

    # the RBF fit factors and back-solves too: count only the calls made
    # inside the driver's state solves
    factors, back, solves = [], [], []
    timed(igtop.fem, "cholesky_banded", factors)
    timed(igtop.fem, "cho_solve_banded", back)
    state_solve = igtop.driver.solve_system

    def solve_system(*args, **kwargs):
        nf, nb = len(factors), len(back)
        start = time.perf_counter()
        result = state_solve(*args, **kwargs)
        solves.append((time.perf_counter() - start, factors[nf:], back[nb:]))
        return result

    igtop.driver.solve_system = solve_system
    print(f"{'problem':<11} {'solves':>6} {'solve ms':>9} {'factor ms':>10} "
          f"{'back-solves ms':>15} {'rest ms':>8} {'back-solves':>12}")
    for name in ("cantilever", "mbb", "heat_sink"):
        workload = workloads()[name]
        solves.clear()
        igtop.run(workload.problem, budget=workload.budget)
        counts = [len(b) for _, _, b in solves]
        counts = f"{min(counts)}-{max(counts)}" \
            if min(counts) < max(counts) else str(counts[0])
        ms = [1e3 * statistics.median(t) for t in zip(*(
            (t, sum(f), sum(b), t - sum(f) - sum(b)) for t, f, b in solves))]
        print(f"{name:<11} {len(solves):>6} {ms[0]:>9.2f} {ms[1]:>10.2f} "
              f"{ms[2]:>15.2f} {ms[3]:>8.2f} {counts:>12}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
