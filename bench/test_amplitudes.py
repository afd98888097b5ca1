"""Timing rung for Dicke amplitudes and layer terms, outside the Tier-1 testpaths.

Times run_schedule on a greedy depth-n schedule, layer_terms on the state it
returns, and the first-use build of MixerGenerator.bra_coefs, at n = 40, 200
and 1022, and the one-time build of symcore.dft's table for LayerTerms.grid
on the 2048-point beta grid, which every process that trains a layer pays
once.  Run with

    PYTHONPATH=src python -m pytest bench/test_amplitudes.py

pytest-benchmark keeps its saved runs under .benchmarks/.
"""

import pytest

from satlab import symcore, training


@pytest.fixture(scope="module", params=[40, 200, 1022], ids=lambda n: f"n={n}")
def circuit(request):
    n = request.param
    trace = training.train_layerwise(n, n)
    return n, trace.schedule(), trace.overlaps()[-1]


def test_run_schedule(benchmark, circuit):
    n, schedule, final = circuit
    state = benchmark(symcore.run_schedule, n, schedule)
    assert symcore.overlap(state) == final


def test_layer_terms(benchmark, circuit):
    n, schedule, _ = circuit
    state = symcore.run_schedule(n, schedule)
    symcore.mixer(n).bra_coefs  # built once, outside the timing
    terms = benchmark(symcore.layer_terms, state)
    assert terms.value(0.0) == abs(state.amps[0])


def test_bra_coefs_build(benchmark, circuit):
    n, _, _ = circuit
    coefs = benchmark(lambda: symcore.MixerGenerator(n).bra_coefs)
    assert coefs.shape == (n + 1, n + 1)


def test_grid_table_build(benchmark):
    points = training.BETA_GRID_POINTS
    table = benchmark(symcore._dft_table.__wrapped__, points, False)
    assert table.shape == (symcore.DFT_TABLE_ROWS, points)
