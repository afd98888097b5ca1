"""Timing rung for global training, outside the Tier-1 testpaths.

Times train_global(4, 6) seeded by greedy training (the compare cell) and one
batched MixerGenerator.neg_overlap call on S = 1 and 33 depth-n schedules, at
n = 4 and 12.  Run with

    PYTHONPATH=src python -m pytest bench/test_global.py

pytest-benchmark keeps its saved runs under .benchmarks/.
"""

import numpy as np
import pytest

from satlab import symcore, training


def test_train_global(benchmark):
    settings = training.OptimizerSettings(seed=1)
    seed = training.train_layerwise(4, 6, settings).schedule()
    trace = benchmark(training.train_global, 4, 6, settings, [seed])
    assert trace.overlaps()[-1] == pytest.approx(1.0, abs=1e-12)


@pytest.mark.parametrize("starts", [1, 33], ids=lambda s: f"S={s}")
@pytest.mark.parametrize("n", [4, 12], ids=lambda n: f"n={n}")
def test_neg_overlap(benchmark, n, starts):
    settings = training.OptimizerSettings(global_restarts=starts)
    params = training._global_starts(n, settings, ())
    values, grads = benchmark(symcore.mixer(n).neg_overlap, params)
    assert values.shape == (starts,) and grads.shape == (starts, 2 * n)
