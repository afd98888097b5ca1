import numpy as np
import pytest
from scipy.optimize import brentq, minimize, minimize_scalar

from satlab import analysis, densecore, harness, symcore, training
from satlab.densecore import NoiseConfig
from satlab.training import (
    OptimizerSettings,
    train_cutoff,
    train_global,
    train_layerwise,
    train_layerwise_noisy,
)


# ---------------------------------------------------------------- layerwise

def test_single_qubit_reaches_unit_overlap():
    trace = train_layerwise(1, 1)
    assert trace.overlaps()[-1] == pytest.approx(1.0, abs=1e-10)
    assert trace.status == "overlap_one"
    # Newton resolves beta to rounding, well inside this bound
    assert trace.records[0].angles.beta == pytest.approx(np.pi / 4, abs=1e-7)


def test_overlap_equals_squared_amplitude(monkeypatch):
    # the curve value g that _layer_step returns squares to the overlap the
    # greedy layer realizes
    amplitudes = []
    step = training._layer_step

    def recorded_step(*args):
        angles, g, evals = step(*args)
        amplitudes.append(g)
        return angles, g, evals

    monkeypatch.setattr(training, "_layer_step", recorded_step)
    trace = train_layerwise(4, 5)
    assert len(amplitudes) == trace.depth
    for record, g in zip(trace.records, amplitudes):
        assert record.overlap == pytest.approx(g**2, abs=1e-12)


@pytest.mark.parametrize("n", [2, 3, 5, 6])
def test_greedy_monotonicity(n):
    trace = train_layerwise(n, n + 2)
    assert np.all(trace.improvements() >= -1e-14)


def test_trace_overlap_matches_schedule_replay():
    trace = train_layerwise(5, 6)
    replayed = symcore.run_schedule(5, trace.schedule())
    assert symcore.overlap(replayed) == pytest.approx(trace.overlaps()[-1], abs=1e-12)


@pytest.mark.parametrize("n", [3, 4, 5, 6])
def test_gain_collapses_at_depth_n(n):
    # the layerwise gain drops by orders of magnitude once depth n is passed
    trace = train_layerwise(n, n + 2)
    gains = trace.improvements()
    assert gains[n - 1] > 1.5e-4
    assert gains[n] < 1e-4
    assert gains[n + 1] < 1e-4


@pytest.mark.parametrize("n", [2, 4, 6, 8])
def test_grid_sufficiency(n):
    coarse = train_layerwise(n, n + 1, OptimizerSettings(beta_grid_points=2048))
    fine = train_layerwise(n, n + 1, OptimizerSettings(beta_grid_points=4096))
    assert np.max(np.abs(coarse.betas() - fine.betas())) < 1e-6


def test_depth_one_matches_exhaustive_grid():
    n = 4
    trace = train_layerwise(n, 1)
    gl = train_global(n, 1, OptimizerSettings(global_restarts=8))
    gammas = np.linspace(0, 2 * np.pi, 4096, endpoint=False)
    betas = np.linspace(0, np.pi, 4096, endpoint=False)
    state = symcore.plus_state(n)
    a_term, b_term = symcore.layer_terms(state).split(betas)
    # the 4096 x 4096 grid, swept 64 gammas at a time to keep memory small
    best = max(
        float(np.max(np.abs(a_term[None, :] * np.exp(-1j * chunk)[:, None] + b_term[None, :]) ** 2))
        for chunk in np.split(gammas, 64)
    )
    assert trace.overlaps()[0] >= best - 1e-5
    assert gl.overlaps()[0] >= best - 1e-5


def depth_one_oracle(n):
    # max over beta of (|cos^n b| + |e^{-inb} - cos^n b|)^2 / 2^n: a fine
    # grid, then a bounded scalar search around its best point
    def g(b):
        c = np.cos(b) ** n
        return np.abs(c) + np.abs(np.exp(-1j * n * b) - c)

    betas = np.linspace(0, np.pi, 200001)
    b = betas[np.argmax(g(betas))]
    h = betas[1]
    res = minimize_scalar(lambda x: -g(x), bounds=(max(b - h, 0.0), b + h), method="bounded",
                          options={"xatol": 1e-13})
    return max(g(b), -res.fun) ** 2 / 2.0**n


@pytest.mark.parametrize("n", [2, 5, 10, 20, 40, 60, 80])
def test_depth_one_matches_closed_form(n):
    assert train_layerwise(n, 1).overlaps()[0] == pytest.approx(depth_one_oracle(n), rel=1e-4)


def test_layerwise_deterministic():
    a = train_layerwise(5, 7)
    b = train_layerwise(5, 7)
    assert np.array_equal(a.overlaps(), b.overlaps())
    assert np.array_equal(a.betas(), b.betas())


def _record_searches(monkeypatch):
    """Patch training.newton_bisect to log every search: one (f, lo, hi,
    points) per call, points holding (beta, h, h') at each evaluation."""
    searches = []
    search = training.newton_bisect

    def recorded(f, beta, lo, hi):
        points = []
        searches.append((f, lo, hi, points))

        def logged(b):
            g, h, slope = f(b)
            points.append((b, h, slope))
            return g, h, slope

        return search(logged, beta, lo, hi)

    monkeypatch.setattr(training, "newton_bisect", recorded)
    return searches


def _bisected(points):
    """Whether a logged search took any step other than Newton's."""
    return any(
        not (slope < 0.0 and after == beta + -h / slope)
        for (beta, h, slope), (after, _, _) in zip(points, points[1:])
    )


@pytest.mark.parametrize(
    "train",
    [
        pytest.param(lambda rng: train_layerwise(6, 8), id="layerwise"),
        pytest.param(lambda rng: train_cutoff(4, 8, 0.7, rng=rng), id="cutoff-0.7"),
        pytest.param(lambda rng: train_layerwise_noisy(4, 4, NoiseConfig(0.3), rng=rng), id="noisy"),
    ],
)
def test_each_layer_refines_beta_once(monkeypatch, train):
    # the grid decides the mirror tie, so one peak search per layer, and at
    # most one more search per cutoff root
    searches = _record_searches(monkeypatch)
    trace = train(np.random.default_rng(2))
    peaks = [f for f, *_ in searches if getattr(f, "__func__", None) is symcore.LayerTerms.derivatives]
    assert len(peaks) == trace.depth
    assert len(searches) <= 3 * trace.depth


def test_no_computing_path_reaches_the_pinned_shims(monkeypatch):
    # golden_section_max, brentq and minimize stay defined only for the
    # benchmark's tracer; every trainer and the probe must run without them
    def refuse(*args, **kwargs):
        raise AssertionError("a computing path reached a pinned shim")

    for name in ("golden_section_max", "brentq", "minimize"):
        monkeypatch.setattr(training, name, refuse)
    rng = np.random.default_rng(8)
    greedy = train_layerwise(4, 4)
    train_cutoff(4, 4, 0.8, rng=rng)
    for noise in (NoiseConfig(0.3), NoiseConfig(0.3, kind="bitflip"), NoiseConfig(0.3, granularity="single_qubit")):
        train_layerwise_noisy(3, 3, noise, rng=rng)
    train_global(4, 4, OptimizerSettings(global_restarts=2), seed_schedules=[greedy.schedule()])
    analysis.trainability_probe(symcore.random_symmetric_state(5, rng))


@pytest.mark.parametrize("n", range(3, 13))
def test_real_states_take_the_smaller_beta_of_the_mirror_pair(n):
    # real amplitudes give g(pi - beta) = g(beta); the maximizer is the one in
    # [0, pi/2], up to the refinement's resolution when the peak is at pi/2
    settings = OptimizerSettings()
    rand = np.random.default_rng(40 + n)
    states = [symcore.plus_state(n)]
    for _ in range(4):
        amps = rand.normal(size=n + 1)
        states.append(symcore.SymmetricState(n, amps / np.linalg.norm(amps)))
    for state in states:
        terms = symcore.layer_terms(state)
        angles, g, _ = training._layer_step(terms, symcore.overlap(state), 1.0, settings, None)
        assert terms.value(np.pi - angles.beta) == pytest.approx(g, abs=1e-12)
        assert angles.beta <= np.pi / 2 + 1e-7


@pytest.mark.parametrize("n", range(3, 13))
def test_complex_states_reach_the_fine_sampling_maximum(n):
    # for complex amplitudes the mirror cell is not a peak, and the one
    # refinement must still find the curve's maximum
    settings = OptimizerSettings()
    reference = np.pi * np.arange(2**15) / 2**15
    rand = np.random.default_rng(90 + n)
    for _ in range(5):
        state = symcore.random_symmetric_state(n, rand)
        terms = symcore.layer_terms(state)
        angles, g, _ = training._layer_step(terms, symcore.overlap(state), 1.0, settings, None)
        assert terms.value(angles.beta) >= terms.curve(reference).max() - 1e-9


def test_maximizer_reaches_the_grid_maximum_at_tiny_overlaps():
    # at n = 100 the curve is about 1e-15: a tie tolerance on the absolute
    # scale would call every mirror cell a tie and refine around it
    settings = OptimizerSettings()
    trace = train_cutoff(100, 100, 0.3, rng=np.random.default_rng(0))
    gen = symcore.mixer(100)
    states, _ = gen.forward(gen.plus, trace.gammas(), trace.betas())
    for t in states[:-1]:
        terms = symcore.LayerTerms.from_eigen(t)
        _, g, _ = training._layer_step(terms, abs(gen.row @ t) ** 2, 1.0, settings, None)
        assert g >= terms.grid(settings.beta_grid_points).max() * (1.0 - 1e-9)


def _greedy_layer_terms(n, depth):
    """(terms, overlap) before each layer of train_layerwise(n, depth)."""
    trace = train_layerwise(n, depth)
    gen = symcore.mixer(n)
    states, heads = gen.forward(gen.plus, trace.gammas(), trace.betas())
    return [(symcore.LayerTerms.from_eigen(t), symcore.reported_overlap(h)) for t, h in zip(states, heads)][:-1]


@pytest.mark.parametrize("n", [3, 6, 12, 24, 40])
def test_newton_refinement_is_stationary_on_greedy_layers(monkeypatch, n):
    # where Newton converges without bisecting, g'(beta*) is rounding: the
    # curve's slope scale is n g
    searches = _record_searches(monkeypatch)
    settings = OptimizerSettings()
    converged = 0
    for terms, overlap in _greedy_layer_terms(n, n + 2):
        searches.clear()
        angles, g, _ = training._layer_step(terms, overlap, 1.0, settings, None)
        if _bisected(searches[0][3]) or angles.beta == 0.0:
            continue
        converged += 1
        _, slope, curvature = terms.derivatives(angles.beta)
        assert abs(slope) <= 1e-13 * n * g
        assert curvature < 0.0
    assert converged >= n


def test_newton_falls_back_to_bisection_when_a_step_leaves_the_bracket(monkeypatch):
    # layer 17 of greedy n = 15 peaks inside the first grid cell: from cell/2
    # the Newton step crosses beta = 0, and bisection takes over on [0, cell/2]
    settings = OptimizerSettings()
    cell = np.pi / settings.beta_grid_points
    terms, overlap = _greedy_layer_terms(15, 17)[-1]
    searches = _record_searches(monkeypatch)
    angles, g, _ = training._layer_step(terms, overlap, 1.0, settings, None)
    [(_, lo, hi, points)] = searches
    (start, slope, curvature), (second, _, _) = points[:2]
    assert (lo, hi, start) == (0.0, cell, cell / 2)
    assert slope < 0.0 and curvature < 0.0 and start - slope / curvature <= 0.0
    assert second == 0.5 * (0.0 + cell / 2)
    _, alone, _ = training.golden_section_max(terms.value, 0.0, cell, 1e-10)
    assert 0.0 < angles.beta < cell / 2
    assert g >= alone * (1.0 - 1e-15)


# ------------------------------------------------------------------- cutoff

def test_cutoff_full_fraction_identical_to_layerwise():
    lw = train_layerwise(4, 6)
    co = train_cutoff(4, 6, 1.0)
    assert np.array_equal(lw.overlaps(), co.overlaps())
    assert np.array_equal(lw.betas(), co.betas())
    assert np.array_equal(lw.gammas(), co.gammas())


def test_cutoff_hits_interpolated_target():
    rng = np.random.default_rng(21)
    fraction = 0.9
    trace = train_cutoff(4, 6, fraction, rng=rng)
    state = symcore.plus_state(4)
    settings = OptimizerSettings()
    for record in trace.records:
        o_prev = symcore.overlap(state)
        _, g_star, _ = training._layer_step(symcore.layer_terms(state), o_prev, 1.0, settings, None)
        o_max = g_star**2
        target = o_prev + fraction * (o_max - o_prev)
        assert record.overlap == pytest.approx(target, abs=1e-8)
        state = symcore.apply_mixer(
            symcore.apply_phase_separator(state, record.angles.gamma), record.angles.beta
        )


class RootPicks:
    """Generator stand-in: integers(2) returns the given picks in turn, 0 for
    the left root and 1 for the right."""

    def __init__(self, *picks):
        self.picks = iter(picks)

    def integers(self, count):
        assert count == 2  # both roots were found
        return next(self.picks)


@pytest.mark.parametrize("n", range(3, 13))
def test_layer_step_is_scale_equivariant(n):
    # scaling the amplitudes by 2^-100 scales every curve value exactly, so
    # every decision of the step, and so its angles, must stay bitwise the same;
    # |+>^n, random real states and random complex states
    settings = OptimizerSettings()
    scale = 2.0**-100
    rand = np.random.default_rng(110 + n)
    states = [symcore.plus_state(n)]
    for _ in range(2):
        amps = rand.normal(size=n + 1)
        states.append(symcore.SymmetricState(n, amps / np.linalg.norm(amps)))
        states.append(symcore.random_symmetric_state(n, rand))
    for state in states:
        terms = symcore.layer_terms(state)
        small = symcore.LayerTerms(terms.coefs * scale, tuple(z * scale for z in terms.at_zero))
        overlap = symcore.overlap(state)
        for fraction, pick in ((1.0, None), (0.5, 0), (0.5, 1)):
            picks = RootPicks(pick, pick)  # one pick per call, none drawn at fraction 1
            angles = [
                training._layer_step(t, o, fraction, settings, picks)[0]
                for t, o in ((terms, overlap), (small, overlap * scale**2))
            ]
            assert angles[0] == angles[1]


@pytest.mark.parametrize("fraction", [0.3, 0.6, 0.9])
@pytest.mark.parametrize("n", [3, 4, 6, 10])
def test_cutoff_takes_the_roots_nearest_the_maximizer(n, fraction):
    # noiselessly g(0)^2 is the current overlap, below every target, and
    # g(pi) = g(0), so a target is reached on both sides of the maximizer
    settings = OptimizerSettings()
    cell = np.pi / settings.beta_grid_points
    reference = np.pi * np.arange(2**15 + 1) / 2**15
    rand = np.random.default_rng(70 + n)
    for _ in range(5):
        state = symcore.random_symmetric_state(n, rand)
        terms = symcore.layer_terms(state)
        overlap = symcore.overlap(state)
        angles, g_star, _ = training._layer_step(terms, overlap, 1.0, settings, None)
        beta_star = angles.beta
        target = overlap + fraction * (g_star**2 - overlap)
        picks = RootPicks(0, 1)
        left, right = (
            training._layer_step(terms, overlap, fraction, settings, picks)[0].beta for _ in range(2)
        )
        for beta in (left, right):
            assert terms.value(beta) ** 2 == pytest.approx(target, abs=1e-12)
        before = reference < beta_star
        crossing = reference[before][terms.curve(reference[before]) ** 2 <= target][-1]
        assert 0.0 <= left < beta_star and abs(left - crossing) <= cell
        past = reference > beta_star
        crossing = reference[past][terms.curve(reference[past]) ** 2 <= target][0]
        assert beta_star < right and abs(right - crossing) <= cell


@pytest.mark.parametrize("fraction", [0.3, 0.6, 0.9])
def test_cutoff_roots_match_brentq_on_the_same_bracket(monkeypatch, fraction):
    # each root search's bracket holds one sign change of g^2 - target, which
    # scipy's brentq resolves as the reference
    settings = OptimizerSettings()
    rand = np.random.default_rng(int(fraction * 10))
    searches = _record_searches(monkeypatch)
    checked = 0
    for n in range(3, 13):
        for _ in range(3):
            state = symcore.random_symmetric_state(n, rand)
            terms = symcore.layer_terms(state)
            overlap = symcore.overlap(state)
            _, g_star, _ = training._layer_step(terms, overlap, 1.0, settings, None)
            target = overlap + fraction * (g_star**2 - overlap)
            for pick in (0, 1):
                searches.clear()
                beta = training._layer_step(terms, overlap, fraction, settings, RootPicks(pick))[0].beta
                _, lo, hi, points = searches[1 + pick]
                reference = brentq(lambda b: terms.value(b) ** 2 - target, lo, hi, xtol=1e-15)
                assert points[-1][0] == beta
                assert abs(beta - reference) <= 1e-13
                checked += 1
    assert checked == 60


def test_cutoff_right_root_when_the_grid_ties_the_target():
    # a target equal to g^2 at a grid point past the maximizer: the scalar
    # path puts that point above the target about half the time, and the root
    # search must still end at the target, next to that grid point
    settings = OptimizerSettings()
    cell = np.pi / settings.beta_grid_points
    rand = np.random.default_rng(3)
    ties = 0
    for _ in range(20):
        state = symcore.random_symmetric_state(int(rand.integers(3, 12)), rand)
        terms = symcore.layer_terms(state)
        overlap = symcore.overlap(state)
        angles, g_star, _ = training._layer_step(terms, overlap, 1.0, settings, None)
        gain = g_star**2 - overlap
        grid = terms.grid(settings.beta_grid_points)
        after = int(angles.beta // cell) + 1
        j = after + np.flatnonzero(grid[after:] ** 2 <= overlap + gain / 2)[0]
        fraction = (grid[j] ** 2 - overlap) / gain
        target = overlap + fraction * gain
        ties += target == grid[j] ** 2 and terms.value(j * cell) ** 2 > target
        right = training._layer_step(terms, overlap, fraction, settings, RootPicks(1))[0].beta
        assert terms.value(right) ** 2 == pytest.approx(target, abs=1e-12)
        assert abs(right - j * cell) <= cell
    assert ties > 0


def test_cutoff_applies_to_gains_below_rounding_scale():
    # the first greedy gain at n = 50 is 6.2e-15; the cutoff still takes half of it
    greedy = train_layerwise(50, 1).improvements()[0]
    half = train_cutoff(50, 1, 0.5, rng=np.random.default_rng(0)).improvements()[0]
    assert half == pytest.approx(0.5 * greedy, rel=1e-6)


@pytest.mark.parametrize("fraction", [0.3, 0.7, 0.95])
def test_cutoff_interpolation_bounds(fraction):
    full = train_cutoff(4, 5, 1.0)
    partial = train_cutoff(4, 5, fraction, rng=np.random.default_rng(5))
    prev_full, prev_part = 2.0**-4, 2.0**-4
    for d in range(5):
        assert partial.overlaps()[d] >= prev_part - 1e-12
        prev_part = partial.overlaps()[d]
    assert partial.overlaps()[0] <= full.overlaps()[0] + 1e-12


def test_cutoff_desaturates_past_plateau():
    # limiting per-layer gains unlocks overlap beyond the full-greedy plateau
    plateau = train_cutoff(4, 4, 1.0).overlaps()[-1]
    wins = 0
    for trial in range(40):
        rng = np.random.default_rng(np.random.SeedSequence((77, trial)))
        final = train_cutoff(4, 8, 0.9, rng=rng).overlaps()[-1]
        wins += final > plateau
    assert wins >= 4  # at least 10 percent of runs


@pytest.mark.parametrize(
    "train",
    [
        pytest.param(lambda rng: train_cutoff(4, 8, 0.8, rng=rng), id="cutoff-0.8"),
        pytest.param(lambda rng: train_layerwise(4, 8), id="layerwise"),
        pytest.param(lambda rng: train_layerwise_noisy(4, 4, NoiseConfig(0.3), rng=rng), id="noisy-layer"),
        pytest.param(
            lambda rng: train_layerwise_noisy(4, 4, NoiseConfig(0.3, granularity="single_qubit"), rng=rng),
            id="noisy-single_qubit",
        ),
    ],
)
def test_trainer_records_counted_evaluations(monkeypatch, train):
    # every recorded evaluation is one beta at which the layer terms computed
    # the curve: the grid's points, then one per point or derivatives call
    points = [0]
    terms = symcore.LayerTerms
    grid, at, split, derivatives = terms.grid, terms.at, terms.split, terms.derivatives

    def counted_grid(self, m):
        points[0] += m
        return grid(self, m)

    def counted_at(self, beta):
        points[0] += 1
        return at(self, beta)

    def counted_split(self, betas):
        points[0] += np.size(betas)
        return split(self, betas)

    def counted_derivatives(self, beta):
        points[0] += 1
        return derivatives(self, beta)

    monkeypatch.setattr(terms, "grid", counted_grid)
    monkeypatch.setattr(terms, "at", counted_at)
    monkeypatch.setattr(terms, "split", counted_split)
    monkeypatch.setattr(terms, "derivatives", counted_derivatives)
    for seed in range(3):
        points[0] = 0
        trace = train(np.random.default_rng(seed))
        assert sum(r.evaluations for r in trace.records) == points[0]


def test_layer_steps_never_take_the_batch_path(monkeypatch):
    # one beta at a time goes through LayerTerms.at; split serves only curve
    def refuse(self, betas):
        raise AssertionError("split called")

    monkeypatch.setattr(symcore.LayerTerms, "split", refuse)
    train_layerwise(4, 5)
    train_cutoff(4, 5, 0.8, rng=np.random.default_rng(3))
    train_layerwise_noisy(4, 4, NoiseConfig(0.3), rng=np.random.default_rng(3))
    train_layerwise_noisy(4, 4, NoiseConfig(0.5, kind="bitflip"), rng=np.random.default_rng(3))


def test_bitflip_layer_with_rounding_sized_term_takes_gamma_zero():
    # the noise experiment's p = 0.5 bit-flip contrast, seed 1, trial 2: the
    # second layer sits at beta = pi/2, where its A term is zero but for
    # rounding (about 1e-17), so every gamma ties and the tie rule takes gamma = 0
    p_grid = harness.KINDS["noise"]["p_grid"]
    seed = np.random.SeedSequence((1, 1000 + p_grid.index(0.5), 2))
    trace = train_layerwise_noisy(4, 4, NoiseConfig(0.5, kind="bitflip"), rng=np.random.default_rng(seed))
    assert trace.records[1].angles.beta == pytest.approx(np.pi / 2, abs=1e-9)
    assert trace.records[1].angles.gamma == 0.0


def test_trainers_that_draw_require_a_generator():
    with pytest.raises(ValueError, match="rng"):
        train_cutoff(3, 3, 0.8)
    with pytest.raises(ValueError, match="rng"):
        train_layerwise_noisy(3, 3, NoiseConfig(0.3))
    with pytest.raises(ValueError, match="rng"):
        densecore.run_schedule_dense(3, [(0.1, 0.2)], NoiseConfig(0.3))
    # greedy training draws nothing
    assert train_cutoff(3, 3, 1.0).depth == 3


def test_cutoff_rejects_bad_fraction():
    with pytest.raises(ValueError):
        train_cutoff(3, 3, 0.0)
    with pytest.raises(ValueError):
        train_cutoff(3, 3, 1.2)


def test_cutoff_reproducible_from_seed():
    a = train_cutoff(4, 6, 0.8, rng=np.random.default_rng(42))
    b = train_cutoff(4, 6, 0.8, rng=np.random.default_rng(42))
    assert np.array_equal(a.overlaps(), b.overlaps())


@pytest.mark.parametrize(
    "n, run",
    [
        (27, lambda n: train_layerwise(n, 3)),
        (43, lambda n: train_cutoff(n, 3, 0.7, rng=np.random.default_rng(5))),
        (47, lambda n: train_global(n, 2, OptimizerSettings(global_restarts=2))),
        (53, lambda n: symcore.run_schedule(n, [(0.4, 0.3)])),
        (31, lambda n: symcore.layer_terms(symcore.plus_state(n))),
        (29, lambda n: analysis.trainability_probe(symcore.run_schedule(n, [(0.4, 0.3)]))),
        (33, lambda n: symcore.gamma_eliminated_curve(symcore.plus_state(n), [0.1, 0.2])),
        (5, lambda n: train_layerwise_noisy(n, 2, NoiseConfig(0.5, kind="bitflip"), rng=np.random.default_rng(5))),
        (10, lambda n: harness.run_experiment(harness.ExperimentConfig(kind="conditions", n=n))),
    ],
    ids=["layerwise", "cutoff", "global", "run_schedule", "layer_terms", "probe", "curve", "noisy", "conditions"],
)
def test_noiseless_trainers_never_build_the_eigenvectors(n, run):
    # the trainers, the Dicke amplitudes and every layer-terms path read only
    # the closed forms: the row, the eigenvalues and the bra's coefficients
    symcore.mixer.cache_clear()
    run(n)
    assert "eigenvectors" not in symcore.mixer(n).__dict__


# ------------------------------------------------------------------- global

def test_global_depth_one_matches_layerwise():
    settings = OptimizerSettings(global_restarts=8)
    lw = train_layerwise(3, 1)
    gl = train_global(3, 1, settings)
    assert gl.overlaps()[0] == pytest.approx(lw.overlaps()[0], abs=1e-6)


def test_global_with_greedy_seed_dominates():
    settings = OptimizerSettings(global_restarts=6, seed=3)
    lw = train_layerwise(4, 4)
    gl = train_global(4, 4, settings, seed_schedules=[lw.schedule()])
    assert gl.overlaps()[-1] >= lw.overlaps()[-1] - 1e-6
    assert gl.records[-1].evaluations > 0


def test_global_profile_crosses_layerwise():
    settings = OptimizerSettings(global_restarts=12, seed=0)
    lw = train_layerwise(4, 6)
    gl = train_global(4, 6, settings, seed_schedules=[lw.schedule()])
    crossing = [d for d in range(6) if lw.overlaps()[d] > gl.overlaps()[d] + 1e-4]
    assert crossing, "expected at least one depth where greedy leads"


def test_global_profile_is_the_replay_of_its_schedule():
    gl = train_global(4, 3)
    schedule = gl.schedule()
    for c, record in enumerate(gl.records, start=1):
        assert record.overlap == symcore.overlap(symcore.run_schedule(4, schedule[:c]))
    assert [r.evaluations > 0 for r in gl.records] == [False, False, True]
    # the run's wall time sits on the record that carries its evaluations
    assert gl.records[-1].wall_time > 0.0
    assert [r.wall_time for r in gl.records[:-1]] == [0.0, 0.0]


@pytest.mark.parametrize(
    "train",
    [
        pytest.param(lambda: train_layerwise(5, 7), id="layerwise"),
        pytest.param(lambda: train_layerwise(40, 4), id="layerwise-40"),
        pytest.param(lambda: train_cutoff(6, 8, 0.7, rng=np.random.default_rng(3)), id="cutoff"),
        pytest.param(lambda: train_global(4, 3, OptimizerSettings(global_restarts=4)), id="global"),
    ],
)
def test_reported_overlaps_agree_bitwise(train):
    # the trainers, run_schedule and the global objective read one forward
    trace = train()
    schedule = trace.schedule()
    for c, record in enumerate(trace.records, start=1):
        assert record.overlap < 1.0
        assert record.overlap == symcore.overlap(symcore.run_schedule(trace.n, schedule[:c]))
        params = training._schedule_to_params(schedule[:c])
        assert record.overlap == -symcore.mixer(trace.n).neg_overlap(params)[0]


def test_overlap_above_one_by_rounding_reads_one():
    assert symcore.reported_overlap(0.5j) == 0.25
    assert symcore.reported_overlap(1.0 + 2e-16) == 1.0
    assert symcore.reported_overlap(-1.0 - 2e-13) == 1.0
    with pytest.raises(ValueError, match="exceeds 1"):
        symcore.reported_overlap(1.0 + 1e-12)


@pytest.mark.parametrize("n, depth, seed", [(2, 5, 3), (3, 6, 3), *[(4, 6, seed) for seed in range(21)]])
def test_greedy_seeded_global_reports_overlaps_at_most_one(n, depth, seed):
    # (4, 6) is the compare cell; at several of these seeds the winner's
    # forward reads an overlap a few ulps above 1, reported as 1.0
    settings = OptimizerSettings(seed=seed)
    lw = train_layerwise(n, depth, settings)
    gl = train_global(n, depth, settings, seed_schedules=[lw.schedule()])
    assert gl.overlaps().max() <= 1.0
    assert gl.overlaps()[-1] >= lw.overlaps()[-1] - 1e-12


@pytest.mark.parametrize("n", [3, 4, 5])
def test_global_keeps_its_greedy_seed_to_rounding(n):
    lw = train_layerwise(n, n)
    gl = train_global(n, n, OptimizerSettings(global_restarts=1), seed_schedules=[lw.schedule()])
    assert gl.overlaps()[-1] >= lw.overlaps()[-1] - 1e-12


@pytest.mark.parametrize("n", [40, 60])
def test_global_improves_on_greedy_at_tiny_overlaps(n):
    # overlaps near 2^-n must not trip absolute stopping rules at the start
    lw = train_layerwise(n, 2)
    gl = train_global(n, 2, OptimizerSettings(global_restarts=1), seed_schedules=[lw.schedule()])
    assert gl.overlaps()[-1] >= 1.002 * lw.overlaps()[-1]


def test_global_winner_is_stationary():
    lw = train_layerwise(4, 6)
    gl = train_global(4, 6, seed_schedules=[lw.schedule()])
    _, grad = symcore.mixer(4).neg_overlap(training._schedule_to_params(gl.schedule()))
    assert np.linalg.norm(grad) <= 1e-6


def test_global_refuses_a_non_stationary_winner(monkeypatch):
    # an optimizer that stops where it starts leaves a random start's slope
    def stay(objective, x0):
        values, grads = objective(x0)
        return training.LockstepResult(x0, values, grads, ["stub"] * len(x0), len(x0), values[None])

    monkeypatch.setattr(training, "lockstep_bfgs", stay)
    with pytest.raises(RuntimeError, match="gradient norm .* stopped on stub"):
        train_global(4, 3, OptimizerSettings(global_restarts=2))


@pytest.mark.parametrize("seed_depth", [1, 5])
def test_global_rejects_seed_of_wrong_depth(seed_depth, monkeypatch):
    # refused before the first objective evaluation
    monkeypatch.setattr(training, "lockstep_bfgs", lambda *a, **k: pytest.fail("optimizer ran"))
    seed = train_layerwise(3, seed_depth).schedule()
    with pytest.raises(ValueError, match="expected 2"):
        train_global(3, 2, seed_schedules=[seed])


def test_every_start_records_why_it_stopped():
    settings = OptimizerSettings(seed=1)
    lw = train_layerwise(4, 6, settings)
    starts = training._global_starts(6, settings, [lw.schedule()])
    result = training.lockstep_bfgs(training._global_objective(4), starts)
    assert len(result.reasons) == len(starts) == 33
    assert set(result.reasons) <= {"gradient", "decrease", "line search"}
    # one row per start and round; the last round stopped the last start
    assert result.path.shape[1] == 33 and np.array_equal(result.path[-1], result.fun)
    assert result.evaluations == train_global(4, 6, settings, [lw.schedule()]).records[-1].evaluations


def test_iteration_cap_stops_the_starts_and_names_itself(monkeypatch):
    monkeypatch.setattr(training, "GLOBAL_MAX_ITERATIONS", 3)
    settings = OptimizerSettings(global_restarts=4)
    result = training.lockstep_bfgs(training._global_objective(4), training._global_starts(6, settings, ()))
    assert result.reasons == ["iteration cap"] * 4
    # three accepted steps each, whatever the backtracking took
    assert all(np.count_nonzero(np.diff(column)) == 3 for column in result.path.T)
    with pytest.raises(RuntimeError, match="stopped on iteration cap"):
        train_global(4, 6, settings)


def test_lockstep_stops_a_start_that_begins_stationary():
    # |+>^n is a critical point of every depth-1 schedule at gamma = beta = 0
    result = training.lockstep_bfgs(training._global_objective(3), np.zeros((2, 2)))
    assert result.reasons == ["gradient", "gradient"] and result.evaluations == 2


# The quality grid: n = 2..8, depths n..n+2, at seed 0 with 4 restarts plus
# the greedy seed (the part of seeds 0..4 with 32 restarts that fits the
# suite's time; CHANGES.md reports the full grid).
@pytest.mark.parametrize("n, depth", [(n, depth) for n in range(2, 9) for depth in range(n, n + 3)])
def test_lockstep_matches_per_start_lbfgsb(n, depth):
    settings = OptimizerSettings(global_restarts=4, seed=0)
    lw = train_layerwise(n, depth, settings)
    starts = training._global_starts(depth, settings, [lw.schedule()])
    objective = training._global_objective(n)
    result = training.lockstep_bfgs(objective, starts)

    def one_start(params):
        value, grad = objective(params)
        return float(value), grad

    best = min(
        minimize(one_start, x0, jac=True, method="L-BFGS-B", options={"ftol": 1e-15, "gtol": 1e-10}).fun
        for x0 in starts
    )
    assert result.fun.min() <= best + 1e-12 * abs(best)
    # no start's objective rises, so the greedy-seeded row ends no lower than
    # its seed
    assert np.all(np.diff(result.path, axis=0) <= 0.0)
    assert -result.path[0, 0] / 2.0**n == pytest.approx(lw.overlaps()[-1], rel=1e-13)


# -------------------------------------------------------------------- noisy

def test_noisy_without_noise_matches_layerwise():
    noise = NoiseConfig(p_noise=0.0)
    lw = train_layerwise(3, 4)
    noisy = train_layerwise_noisy(3, 4, noise, rng=np.random.default_rng(0))
    assert np.max(np.abs(lw.overlaps() - noisy.overlaps())) < 1e-8


@pytest.mark.parametrize("n", range(3, 9))
def test_noisy_without_noise_matches_layerwise_to_rounding(n):
    # both trainers refine beta to rounding, so their depth-n traces agree
    # far below golden section's sqrt(eps) resolution
    lw = train_layerwise(n, n)
    noisy = train_layerwise_noisy(n, n, NoiseConfig(0.0), rng=np.random.default_rng(0))
    assert np.max(np.abs(lw.overlaps() - noisy.overlaps())) <= 1e-13


def test_noisy_reproducible_from_stream():
    noise = NoiseConfig(p_noise=0.3)
    a = train_layerwise_noisy(3, 3, noise, rng=np.random.default_rng(8))
    b = train_layerwise_noisy(3, 3, noise, rng=np.random.default_rng(8))
    assert np.array_equal(a.overlaps(), b.overlaps())
    assert np.array_equal(a.betas(), b.betas())


def test_noisy_phase_noise_keeps_monotone_overlaps():
    # the identity layer is always available and phase kicks never move the
    # target amplitude, so greedy noisy training cannot lose overlap
    noise = NoiseConfig(p_noise=0.5)
    trace = train_layerwise_noisy(4, 4, noise, rng=np.random.default_rng(4))
    assert np.all(trace.improvements() >= -1e-12)


def test_noisy_run_beats_plateau_for_some_trial():
    # a handful of seeded trials at moderate noise shows desaturation
    plateau = train_layerwise(4, 4).overlaps()[-1]
    noise = NoiseConfig(p_noise=0.1)
    finals = []
    for trial in range(8):
        rng = np.random.default_rng(np.random.SeedSequence((5, trial)))
        finals.append(train_layerwise_noisy(4, 4, noise, rng=rng).overlaps()[-1])
    assert max(finals) > plateau


@pytest.mark.parametrize("kind", ["phase", "bitflip"])
@pytest.mark.parametrize("granularity", ["layer", "single_qubit"])
def test_noisy_layer_terms_match_dense_layer(granularity, kind):
    rand = np.random.default_rng(31)
    for n in range(1, 6):
        for p in (0.0, 0.3, 0.7):
            noise = NoiseConfig(p, granularity=granularity, kind=kind)
            for _ in range(6):
                psi = rand.normal(size=1 << n) + 1j * rand.normal(size=1 << n)
                psi /= np.linalg.norm(psi)
                slots = densecore.sample_layer_noise(n, noise, rand)
                gamma, beta = rand.uniform(0, 2 * np.pi), rand.uniform(0, np.pi)
                a_term, b_term = densecore.layer_terms_dense(psi, n, slots).split(beta)
                direct = densecore.apply_layer_dense(psi, n, gamma, beta, slots)[0]
                assert abs(a_term[0] * np.exp(-1j * gamma) + b_term[0] - direct) < 1e-12


@pytest.mark.parametrize("granularity", ["layer", "single_qubit"])
@pytest.mark.parametrize("p", [0.1, 0.3])
def test_noisy_layers_reach_dense_grid_maximum(p, granularity):
    # each layer is optimal against its frozen noise: no point of a (gamma,
    # beta) grid on the dense objective beats the trained angles.  The dense
    # target amplitude is u exp(-i gamma) + v, read off at gamma = 0 and pi.
    n = 4
    noise = NoiseConfig(p, granularity=granularity)
    phases = np.exp(-1j * np.linspace(0, 2 * np.pi, 64, endpoint=False))
    betas = np.linspace(0, np.pi, 48, endpoint=False)
    for trial in range(4):
        key = np.random.SeedSequence((11, trial))
        trace = train_layerwise_noisy(n, n, noise, rng=np.random.default_rng(key))
        rng = np.random.default_rng(key)
        prefix = densecore.plus_state_dense(n)
        for record in trace.records:
            slots = densecore.sample_layer_noise(n, noise, rng)
            best = 0.0
            for b in betas:
                at0 = densecore.apply_layer_dense(prefix, n, 0.0, b, slots)[0]
                at_pi = densecore.apply_layer_dense(prefix, n, np.pi, b, slots)[0]
                u, v = (at0 - at_pi) / 2, (at0 + at_pi) / 2
                best = max(best, np.max(np.abs(u * phases + v) ** 2))
            assert record.overlap >= best - 1e-12
            prefix = densecore.apply_layer_dense(
                prefix, n, record.angles.gamma, record.angles.beta, slots
            )


def test_settings_validation():
    with pytest.raises(ValueError):
        OptimizerSettings(beta_grid_points=1)
    with pytest.raises(ValueError):
        OptimizerSettings(global_restarts=0)
    # a float or a flag is refused up front, not inside range or numpy later
    for bad in ({"beta_grid_points": 2048.5}, {"global_restarts": 1.5}, {"global_restarts": True},
                {"beta_grid_points": False}, {"seed": 0.5}):
        with pytest.raises(ValueError, match="integer"):
            OptimizerSettings(**bad)
    assert OptimizerSettings(beta_grid_points=np.int64(1024)).beta_grid_points == 1024
    with pytest.raises(ValueError):
        train_layerwise(0, 3)
