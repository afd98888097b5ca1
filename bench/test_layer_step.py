"""Timing rung for one layer's beta step, outside the Tier-1 testpaths.

Times one greedy training._layer_step, one cutoff step at fraction 0.8 (its
left root fixed), one LayerTerms.value and one LayerTerms.derivatives call on
the terms of a mid-depth greedy layer, at n = 4, 12 and 40.  Run with

    PYTHONPATH=src python -m pytest bench/test_layer_step.py

pytest-benchmark keeps its saved runs under .benchmarks/.
"""

import pytest

from satlab import symcore, training

BETA = 0.3
FRACTION = 0.8


class LeftRoot:
    """Generator stand-in that picks the left cutoff root every time."""

    def integers(self, count):
        return 0


@pytest.fixture(scope="module", params=[4, 12, 40], ids=lambda n: f"n={n}")
def layer(request):
    n = request.param
    trace = training.train_layerwise(n, n // 2)
    gen = symcore.mixer(n)
    states, heads = gen.forward(gen.plus, trace.gammas(), trace.betas())
    return symcore.LayerTerms.from_eigen(states[-1]), symcore.reported_overlap(heads[-1])


def test_layer_step(benchmark, layer):
    terms, overlap = layer
    settings = training.OptimizerSettings()
    _, g, _ = benchmark(training._layer_step, terms, overlap, 1.0, settings, None)
    assert g**2 >= overlap


def test_cutoff_step(benchmark, layer):
    terms, overlap = layer
    settings = training.OptimizerSettings()
    _, g_star, _ = training._layer_step(terms, overlap, 1.0, settings, None)
    _, g, _ = benchmark(training._layer_step, terms, overlap, FRACTION, settings, LeftRoot())
    assert g**2 == pytest.approx(overlap + FRACTION * (g_star**2 - overlap), rel=1e-9)


def test_value(benchmark, layer):
    terms, _ = layer
    assert benchmark(terms.value, BETA) > 0.0


def test_derivatives(benchmark, layer):
    terms, _ = layer
    g, _, _ = benchmark(terms.derivatives, BETA)
    assert g == pytest.approx(terms.value(BETA), rel=1e-14)
