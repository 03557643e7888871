"""Print a sha256 of the exact outputs of one round of each benchmark workload.

    python3 tools/fingerprint.py

Each workload of ``benchmarks/workloads.py`` runs one round at seed 0 on an
uncalibrated clock, with BLAS pinned to one thread as in
``benchmarks/run.py``; the line printed per workload is the digest of the
round's fingerprint (histories, designs and final state, or gradient-check
rows). Two last lines digest the rows of a compliance gradient check on the
cantilever and on the heat sink, whose difference quotients come from the
longdouble assembly and solve that no workload runs; the heat sink's also
take its body load through that path. Two checkouts that print the same
digests computed the same bits. The benchmark is imported, not changed.
"""

from __future__ import annotations

import hashlib
import os
import sys
from pathlib import Path

BENCHMARKS = Path(__file__).resolve().parent.parent / "benchmarks"


def main() -> int:
    sys.path.insert(0, str(BENCHMARKS))
    import run
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = run.BLAS_THREADS
    run.use_checkout_sources()
    import igtop
    import numpy as np
    from clock import Clock
    from workloads import workloads

    status = 0
    for name, workload in workloads().items():
        rnd = workload.run_round(0, Clock(calibrated=False))
        for problem in rnd.problems:
            print(f"CHECK FAILED: {problem}", file=sys.stderr)
        status |= bool(rnd.problems or rnd.failed)
        print(f"{name} {hashlib.sha256(rnd.fingerprint).hexdigest()}")
    for label, problem in (("compliance_check", igtop.cantilever()),
                           ("heat_sink_compliance_check", igtop.heat_sink())):
        rows = igtop.check_gradients(problem, quantity="compliance",
                                     n_sample=10, seed=0)
        rows = np.array([(r.index, r.analytic, r.fd, r.rel_err,
                          r.topology_event) for r in rows])
        print(f"{label} {hashlib.sha256(rows.tobytes()).hexdigest()}")
    return status


if __name__ == "__main__":
    sys.exit(main())
