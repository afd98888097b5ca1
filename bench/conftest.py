"""Machine speed around every timing rung.

The host's speed drifts while neighbours load it, so each rung records
perfbench's calibration kernel (perfbench/calibration.py: kernel time over
its nominal time, above 1 while the machine is slow) just before and just
after the rung, as slowness_before and slowness_after in its extra_info.  A median divided by their mean is in
seconds at the kernel's nominal speed, as perfbench/run.py reports its times.
"""

import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))

import calibration  # noqa: E402


@pytest.fixture(autouse=True)
def calibrated(benchmark):
    benchmark.extra_info["slowness_before"] = calibration.slowness()
    yield
    benchmark.extra_info["slowness_after"] = calibration.slowness()
