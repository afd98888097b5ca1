"""Timing rung for one layer's beta step, outside the Tier-1 testpaths.

Times one greedy training._layer_step, one cutoff step at fraction 0.8 (its
left root drawn, so it makes one root search), one LayerTerms.grid on the
2048-point beta grid, one LayerTerms.value, one LayerTerms.jet and one
LayerTerms.best_gamma call on the terms of a mid-depth greedy layer, and one
MixerGenerator.layer update of its eigen-coordinates, at n = 4, 12 and 40:
the grid takes symcore.dft's cached DFT table at n = 4 and 12 and the FFT at
n = 40, whose 41 coefficients are past the table's 32.  A noiseless
rung times one whole trained layer as train_cutoff runs it, greedy and
cutoff, at the same n: the terms from the carried eigen-coordinates and head,
the step, then MixerGenerator.layer.  A noisy rung times one whole layer
of train_layerwise_noisy (sample its noise, split its terms, take the step,
apply it to the product sum) after n // 2 noisy layers, at n = 4, 12, 20 and
100, with phase noise at p = 0.5 and either granularity: its terms' inverse
DFT takes the table up to n = 31 and the FFT at n = 100.  Run with

    PYTHONPATH=src python -m pytest bench/test_layer_step.py

pytest-benchmark keeps its saved runs under .benchmarks/; bench/conftest.py
adds the machine's slowness before and after each rung to its extra_info.
"""

import numpy as np
import pytest

from satlab import densecore, symcore, training

GAMMA = 1.1
BETA = 0.3
FRACTION = 0.8


class LeftRoot:
    """Generator stand-in that picks the left cutoff root every time."""

    def integers(self, count):
        return 0


@pytest.fixture(scope="module", params=[4, 12, 40], ids=lambda n: f"n={n}")
def carried(request):
    """The mixer, and the eigen-coordinates and head after n // 2 greedy layers."""
    n = request.param
    trace = training.train_layerwise(n, n // 2)
    gen = symcore.mixer(n)
    states, heads = gen.forward(gen.plus, trace.gammas(), trace.betas())
    return gen, states[-1], heads[-1]


@pytest.fixture(scope="module")
def layer(carried):
    _, t, head = carried
    return symcore.LayerTerms.from_eigen(t, head), symcore.reported_overlap(head)


def test_layer_step(benchmark, layer):
    terms, overlap = layer
    _, g, _ = benchmark(training._layer_step, terms, overlap, 1.0, None)
    assert g**2 >= overlap


def test_cutoff_step(benchmark, layer):
    terms, overlap = layer
    _, g_star, _ = training._layer_step(terms, overlap, 1.0, None)
    _, g, _ = benchmark(training._layer_step, terms, overlap, FRACTION, LeftRoot())
    assert g**2 == pytest.approx(overlap + FRACTION * (g_star**2 - overlap), rel=1e-9)


def test_grid(benchmark, layer):
    terms, _ = layer
    m = training.BETA_GRID_POINTS
    grid = benchmark(terms.grid, m)
    betas = np.arange(m) * (np.pi / m)
    assert np.max(np.abs(grid - terms.curve(betas))) <= 1e-13


def test_value(benchmark, layer):
    terms, _ = layer
    assert benchmark(terms.value, BETA) > 0.0


def test_jet(benchmark, layer):
    terms, _ = layer
    g, _, _, _ = benchmark(terms.jet, BETA)
    assert g == pytest.approx(terms.value(BETA), rel=1e-14)


def test_best_gamma(benchmark, layer):
    terms, _ = layer
    g, _ = benchmark(terms.best_gamma, BETA)
    assert g == terms.value(BETA)


def test_layer_update(benchmark, carried):
    gen, t, head = carried
    _, after = benchmark(gen.layer, t, head, GAMMA, BETA)
    assert after == gen.forward(t, [GAMMA], [BETA])[1][-1]


def noiseless_layer(gen, t, head, fraction, rng):
    terms = symcore.LayerTerms.from_eigen(t, head)
    angles, _, _ = training._layer_step(terms, symcore.reported_overlap(head), fraction, rng)
    return gen.layer(t, head, angles.gamma, angles.beta)


@pytest.mark.parametrize("fraction", [1.0, FRACTION], ids=["greedy", "cutoff"])
def test_noiseless_layer(benchmark, carried, fraction):
    gen, t, head = carried
    overlap = symcore.reported_overlap(head)
    terms = symcore.LayerTerms.from_eigen(t, head)
    _, g_star, _ = training._layer_step(terms, overlap, 1.0, None)
    _, after = benchmark(noiseless_layer, gen, t, head, fraction, LeftRoot())
    target = overlap + fraction * (g_star**2 - overlap)
    assert symcore.reported_overlap(after) == pytest.approx(target, rel=1e-9)


@pytest.fixture(
    scope="module",
    params=[(n, granularity) for n in (4, 12, 20, 100) for granularity in ("layer", "single_qubit")],
    ids=lambda p: f"n={p[0]}-{p[1]}",
)
def noisy_prefix(request):
    """The product sum after n // 2 trained noisy layers, replayed from the same generator."""
    n, granularity = request.param
    noise = densecore.NoiseConfig(0.5, granularity=granularity)
    trace = training.train_layerwise_noisy(n, n // 2, noise, rng=np.random.default_rng(0))
    state, rng = densecore.ProductSum.plus(n), np.random.default_rng(0)
    for angles in trace.schedule():
        state = state.layer(densecore.sample_layer_noise(n, noise, rng)).apply(angles.gamma, angles.beta)
    return n, noise, state


def noisy_layer(n, noise, state, rng):
    layer = state.layer(densecore.sample_layer_noise(n, noise, rng))
    angles, _, _ = training._layer_step(layer.terms(), symcore.reported_overlap(state.head), 1.0, rng)
    return layer.apply(angles.gamma, angles.beta)


def test_noisy_layer(benchmark, noisy_prefix):
    n, noise, prefix = noisy_prefix
    after = benchmark(noisy_layer, n, noise, prefix, np.random.default_rng(1))
    # phase kicks never move the target amplitude, so the layer cannot lose overlap
    assert abs(after.head) ** 2 >= abs(prefix.head) ** 2 * (1.0 - 1e-12)
