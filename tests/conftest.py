"""Tier-1 runs with BLAS at one thread, as ``benchmarks/run.py`` does.

On a shared two-core host a 151x51 MBB solve is slower at two OpenBLAS
threads than at one, and the thread count decides MBB's bits (README's
determinism paragraph). The variables must be set before numpy loads, and
pytest imports this file before it collects any test module; a value
already in the environment is kept.
"""

import os

for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(var, "1")
