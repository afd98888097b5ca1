"""Test-session setup: one BLAS thread per process.

OpenBLAS's worker threads spin while they wait, so when another process
shares the CPUs they slow every BLAS call: with one busy process beside it on
2 vCPUs, an L-BFGS-B evaluation in test_lockstep_matches_per_start_lbfgsb
took 430 us against 165 us with a single BLAS thread (881 us against 218 us
beside a process running matrix products).  The limits take effect only if
set before numpy loads, and pytest loads this file before any test module.
"""

import os

for name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS"):
    os.environ.setdefault(name, "1")
