"""Machine speed around every timing rung.

The host's speed drifts while neighbours load it, so each rung records
perfbench's calibration kernel (perfbench/calibration.py: kernel time over
its nominal time, above 1 while the machine is slow) just before and just
after the rung, as slowness_before and slowness_after in its extra_info.  A median divided by their mean is in
seconds at the kernel's nominal speed, as perfbench/run.py reports its times.

One BLAS thread per process, as in tests/conftest.py: OpenBLAS's spinning
worker threads otherwise slow every rung that shares the CPUs with them.  The
limits take effect only if set before numpy loads, which calibration does.
"""

import os
import sys
from pathlib import Path

for name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS"):
    os.environ.setdefault(name, "1")

import pytest  # noqa: E402

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))

import calibration  # noqa: E402


@pytest.fixture(autouse=True)
def calibrated(benchmark):
    benchmark.extra_info["slowness_before"] = calibration.slowness()
    yield
    benchmark.extra_info["slowness_after"] = calibration.slowness()
