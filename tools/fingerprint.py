"""Print a sha256 of the exact outputs of one round of each benchmark workload.

    python3 tools/fingerprint.py

Each workload of ``benchmarks/workloads.py`` runs one round at seed 0 on an
uncalibrated clock, with BLAS pinned to one thread as in
``benchmarks/run.py``; the line printed per workload is the digest of the
round's fingerprint (histories, designs and final state, or gradient-check
rows). Two last lines digest the rows of a compliance gradient check on the
cantilever and on the heat sink, whose difference quotients come from the
longdouble assembly and solve that no workload runs; the heat sink's also
take its body load through that path. The ``setup`` line digests, for
each built-in problem, the kernel matrices over the mesh nodes and over the
centers, the fitted initial design, and a keyless ``solve_system`` of the
initial design's K with its fixed dofs: the reverse Cuthill-McKee order of
the free block, which no workload runs. Two checkouts that print the same
digests computed the same bits. The benchmark is imported, not changed.

The five digests of float64 paths (the four workloads and ``setup``) read
cantilever 104858e8..., mbb 28cbb6ae..., heat_sink ca5affd8..., gradcheck
69a034a3... and setup c1ba952f...; a change that keeps float64 results
must not move them. The two longdouble checks read compliance_check
f6320e33... and heat_sink_compliance_check 3eedd97b..., both at one BLAS
thread, since the longdouble assembly casts the float64 tile geometry.
"""

from __future__ import annotations

import dataclasses
import hashlib
import sys


def main() -> int:
    from steps import use_benchmark_sources
    use_benchmark_sources()
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
        rows = np.array([dataclasses.astuple(r) for r in rows])
        print(f"{label} {hashlib.sha256(rows.tobytes()).hexdigest()}")
    print(f"setup {setup_digest()}")
    return status


def setup_digest() -> str:
    """Digest of the set-up arrays and keyless solves of the built-in
    problems; sparse index arrays are digested as int64."""
    import igtop
    import numpy as np
    from igtop.driver import _Workspace
    digest = hashlib.sha256()
    for name in sorted(igtop.BUILTIN_PROBLEMS):
        ws = _Workspace(igtop.get_problem(name))
        for points in (ws.mesh.nodes, ws.grid.centers):
            theta = igtop.rbf.build_theta(ws.grid, points)
            for part in (theta.indptr.astype(np.int64),
                         theta.indices.astype(np.int64), theta.data):
                digest.update(part.tobytes())
        digest.update(ws.problem.initial_design(ws.grid).tobytes())
        model = ws.model(ws.initial)
        k, f = ws.assembler.assemble(model)
        res = igtop.fem.solve_system(k, f,
                                     ws.assembler.fixed_dofs(model, ws.fixed))
        digest.update(res.u.tobytes())
        digest.update(np.float64(res.residual).tobytes())
    return digest.hexdigest()


if __name__ == "__main__":
    sys.exit(main())
