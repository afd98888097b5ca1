import functools

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
def test_grid_sufficiency(monkeypatch, n):
    coarse = train_layerwise(n, n + 1)
    monkeypatch.setattr(training, "BETA_GRID_POINTS", 4096)
    fine = train_layerwise(n, n + 1)
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

    def recorded(f, beta, lo, hi, peak=False):
        points = []
        searches.append((f, lo, hi, points))

        def logged(b):
            g, h, slope = f(b)[:3]
            points.append((b, h, slope))
            return g, h, slope

        return search(logged, beta, lo, hi, peak)

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
    peaks = [f for f, *_ in searches if getattr(f, "__func__", None) is symcore.LayerTerms.jet]
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
    rand = np.random.default_rng(40 + n)
    states = [symcore.plus_state(n)]
    for _ in range(4):
        amps = rand.normal(size=n + 1)
        states.append(symcore.SymmetricState(n, amps / np.linalg.norm(amps)))
    for state in states:
        terms = symcore.layer_terms(state)
        angles, g, _ = training._layer_step(terms, symcore.overlap(state), 1.0, None)
        assert terms.value(np.pi - angles.beta) == pytest.approx(g, abs=1e-12)
        assert angles.beta <= np.pi / 2 + 1e-7


@pytest.mark.parametrize("n", range(3, 13))
def test_complex_states_reach_the_fine_sampling_maximum(n):
    # for complex amplitudes the mirror cell is not a peak, and the one
    # refinement must still find the curve's maximum
    reference = np.pi * np.arange(2**15) / 2**15
    rand = np.random.default_rng(90 + n)
    for _ in range(5):
        state = symcore.random_symmetric_state(n, rand)
        terms = symcore.layer_terms(state)
        angles, g, _ = training._layer_step(terms, symcore.overlap(state), 1.0, None)
        assert terms.value(angles.beta) >= terms.curve(reference).max() - 1e-9


def test_maximizer_reaches_the_grid_maximum_at_tiny_overlaps():
    # at n = 100 the curve is about 1e-15: a tie tolerance on the absolute
    # scale would call every mirror cell a tie and refine around it
    trace = train_cutoff(100, 100, 0.3, rng=np.random.default_rng(0))
    gen = symcore.mixer(100)
    states, heads = gen.forward(gen.plus, trace.gammas(), trace.betas())
    for t, head in zip(states[:-1], heads[:-1]):
        terms = symcore.LayerTerms.from_eigen(t, head)
        _, g, _ = training._layer_step(terms, abs(gen.row @ t) ** 2, 1.0, None)
        assert g >= terms.grid(training.BETA_GRID_POINTS).max() * (1.0 - 1e-9)


def _greedy_layer_terms(n, depth):
    """(terms, overlap) before each layer of train_layerwise(n, depth)."""
    trace = train_layerwise(n, depth)
    gen = symcore.mixer(n)
    states, heads = gen.forward(gen.plus, trace.gammas(), trace.betas())
    return [(symcore.LayerTerms.from_eigen(t, h), symcore.reported_overlap(h)) for t, h in zip(states, heads)][:-1]


@pytest.mark.parametrize("n", [3, 6, 12, 24, 40])
def test_newton_refinement_is_stationary_on_greedy_layers(monkeypatch, n):
    # where Newton converges without bisecting, g'(beta*) is rounding: the
    # curve's slope scale is n g
    searches = _record_searches(monkeypatch)
    converged = 0
    for terms, overlap in _greedy_layer_terms(n, n + 2):
        searches.clear()
        angles, g, _ = training._layer_step(terms, overlap, 1.0, None)
        if _bisected(searches[0][3]) or angles.beta == 0.0:
            continue
        converged += 1
        _, slope, curvature, _ = terms.jet(angles.beta)
        assert abs(slope) <= 1e-13 * n * g
        assert curvature < 0.0
    assert converged >= n


def test_newton_falls_back_to_bisection_when_a_step_leaves_the_bracket(monkeypatch):
    # on g = cos(beta - 0.1) from 1.2 in (0, 1.4), the Newton step -tan(1.1)
    # leaves the bracket on the left, so the search bisects (0, 1.2) and then
    # goes on by Newton steps to the peak
    def f(beta):
        return np.cos(beta - 0.1), -np.sin(beta - 0.1), -np.cos(beta - 0.1)

    searches = _record_searches(monkeypatch)
    beta, g, evals = training.newton_bisect(f, 1.2, 0.0, 1.4, peak=True)
    [(_, _, _, points)] = searches
    (start, slope, curvature), (second, _, _) = points[:2]
    assert start == 1.2 and not 0.0 < start - slope / curvature < 1.4
    assert second == 0.5 * (0.0 + 1.2)
    assert _bisected(points) and not _bisected(points[1:])
    assert evals == len(points)
    assert beta == pytest.approx(0.1, abs=1e-15) and g == pytest.approx(1.0, rel=1e-15)

    # layer 17 of greedy n = 15 peaks at the beta = 0 kink, so the lobes on
    # both sides of it are searched, each from the kink's model peak; the
    # lobe left of it, just below pi, is higher, and the layer takes it
    cell = np.pi / training.BETA_GRID_POINTS
    terms, overlap = _greedy_layer_terms(15, 17)[-1]
    searches.clear()
    angles, g, _ = training._layer_step(terms, overlap, 1.0, None)
    [(_, lo, hi, points), (_, mirror_lo, mirror_hi, mirror_points)] = searches
    offset = terms.kink_offset()
    assert 0.0 < offset < cell / 2
    assert (lo, hi, points[0][0]) == (0.0, cell, offset)
    assert (mirror_lo, mirror_hi, mirror_points[0][0]) == (np.pi - cell, np.pi, np.pi - offset)
    _, right, _ = training.golden_section_max(terms.value, 0.0, cell, 1e-10)
    _, left, _ = training.golden_section_max(terms.value, np.pi - cell, np.pi, 1e-10)
    assert left > right * (1.0 + symcore.TIE_TOLERANCE)
    assert np.pi - cell < angles.beta < np.pi
    assert g >= left * (1.0 - 1e-15)


@pytest.fixture(scope="module")
def greedy_sweep():
    """(terms, bracket, result, points) of every peak search over greedy
    n = 3..40 to depth n + 2, and those layers' records."""
    searches, records = [], []
    search = training.newton_bisect

    def recorded(f, beta, lo, hi, peak=False):
        points = []

        def logged(b):
            points.append(b)
            return f(b)

        out = search(logged, beta, lo, hi, peak)
        if peak:
            searches.append((f.__self__, (lo, hi), out, points))
        return out

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(training, "newton_bisect", recorded)
        for n in range(3, 41):
            records.extend(train_layerwise(n, n + 2).records)
    return searches, records


def test_greedy_layers_take_few_evaluations_after_the_grid(greedy_sweep):
    # interior peak searches stop on the predicted step, and the kink
    # searches start at the kink's model peak: measured 2.63 evaluations per
    # layer after the grid and before best_gamma's one (4.34 before both),
    # and at most 5 in a kink search (16 before)
    m = training.BETA_GRID_POINTS
    cell = np.pi / m
    searches, records = greedy_sweep
    assert np.mean([r.evaluations - m - 1 for r in records]) <= 2.65
    kinks = [len(points) for _, bracket, _, points in searches if bracket in ((0.0, cell), (np.pi - cell, np.pi))]
    assert len(kinks) > 0
    assert max(kinks) <= 6


def test_peak_search_returns_the_curve_value_at_its_beta(greedy_sweep):
    # a search that stops on the predicted step returns the model's value at
    # beta + step, where the curve was not computed; it is the curve's value
    # to the rounding of the curve's (n + 1)-term sum, which grows with n:
    # 3.8e-15 relative at n = 39 against value or derivatives at beta alike,
    # where those two agree within 4.1e-16 at any one beta
    searches, _ = greedy_sweep
    predicted = 0
    for terms, _, (beta, g, _), points in searches:
        predicted += beta not in points
        assert abs(g - terms.value(beta)) <= 2e-16 * (terms.n + 1) * g
    assert predicted > len(searches) / 2


@pytest.mark.parametrize("n", [15, 16])
def test_greedy_finds_the_lobe_left_of_the_kink(monkeypatch, n):
    # at these n some saturated layers peak just below pi, left of the kink
    # at beta = 0; a grid eight times finer sees that lobe from its own grid
    # points, and the result must not depend on it
    coarse = train_layerwise(n, n + 2)
    monkeypatch.setattr(training, "BETA_GRID_POINTS", 16384)
    fine = train_layerwise(n, n + 2)
    assert np.allclose(coarse.overlaps(), fine.overlaps(), rtol=1e-12, atol=0.0)


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
    for record in trace.records:
        o_prev = symcore.overlap(state)
        _, g_star, _ = training._layer_step(symcore.layer_terms(state), o_prev, 1.0, None)
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
        assert count == 2  # both sides have a bracket
        return next(self.picks)


@pytest.mark.parametrize("n", range(3, 13))
def test_layer_step_is_scale_equivariant(n):
    # scaling the amplitudes by 2^-100 scales every curve value exactly, so
    # every decision of the step, and so its angles, must stay bitwise the same;
    # |+>^n, random real states and random complex states
    scale = 2.0**-100
    rand = np.random.default_rng(110 + n)
    states = [symcore.plus_state(n)]
    for _ in range(2):
        amps = rand.normal(size=n + 1)
        states.append(symcore.SymmetricState(n, amps / np.linalg.norm(amps)))
        states.append(symcore.random_symmetric_state(n, rand))
    for state in states:
        terms = symcore.layer_terms(state)
        small = symcore.LayerTerms(terms.a * scale, terms.a_weight, terms.b * scale, terms.b_zero * scale)
        overlap = symcore.overlap(state)
        for fraction, pick in ((1.0, None), (0.5, 0), (0.5, 1)):
            picks = RootPicks(pick, pick)  # one pick per call, none drawn at fraction 1
            angles = [
                training._layer_step(t, o, fraction, picks)[0]
                for t, o in ((terms, overlap), (small, overlap * scale**2))
            ]
            assert angles[0] == angles[1]


@pytest.mark.parametrize("fraction", [0.3, 0.6, 0.9])
@pytest.mark.parametrize("n", [3, 4, 6, 10])
def test_cutoff_takes_the_roots_nearest_the_maximizer(n, fraction):
    # noiselessly g(0)^2 is the current overlap, below every target, and
    # g(pi) = g(0), so a target is reached on both sides of the maximizer
    cell = np.pi / training.BETA_GRID_POINTS
    reference = np.pi * np.arange(2**15 + 1) / 2**15
    rand = np.random.default_rng(70 + n)
    for _ in range(5):
        state = symcore.random_symmetric_state(n, rand)
        terms = symcore.layer_terms(state)
        overlap = symcore.overlap(state)
        angles, g_star, _ = training._layer_step(terms, overlap, 1.0, None)
        beta_star = angles.beta
        target = overlap + fraction * (g_star**2 - overlap)
        picks = RootPicks(0, 1)
        left, right = (
            training._layer_step(terms, overlap, fraction, picks)[0].beta for _ in range(2)
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
    rand = np.random.default_rng(int(fraction * 10))
    searches = _record_searches(monkeypatch)
    checked = 0
    for n in range(3, 13):
        for _ in range(3):
            state = symcore.random_symmetric_state(n, rand)
            terms = symcore.layer_terms(state)
            overlap = symcore.overlap(state)
            _, g_star, _ = training._layer_step(terms, overlap, 1.0, None)
            target = overlap + fraction * (g_star**2 - overlap)
            for pick in (0, 1):
                searches.clear()
                beta = training._layer_step(terms, overlap, fraction, RootPicks(pick))[0].beta
                # the peak search, then only the drawn root's
                assert len(searches) == 2
                _, lo, hi, points = searches[1]
                reference = brentq(lambda b: terms.value(b) ** 2 - target, lo, hi, xtol=1e-15)
                assert points[-1][0] == beta
                assert abs(beta - reference) <= 1e-13
                checked += 1
    assert checked == 60


def test_cutoff_root_searches_stop_at_the_rounding_floor(monkeypatch):
    # near a root target - g^2 takes only a few ulps and gives no sign to
    # follow: the search stops there rather than crawl on by steps of ~1e-13
    searches = _record_searches(monkeypatch)
    for seed in range(40):
        train_cutoff(4, 8, 0.9, rng=np.random.default_rng(seed))
    peak = symcore.LayerTerms.jet
    roots = [points for f, *_, points in searches if getattr(f, "__func__", None) is not peak]
    assert len(roots) > 0
    assert max(map(len, roots)) <= 8


def test_cutoff_layers_take_few_evaluations_after_the_grid(monkeypatch):
    # the peak search starts at the grid's parabola vertex and the drawn
    # root's search, the only one, at the grid's linear interpolation, by
    # Halley steps: measured 4.40 curve evaluations per layer after the grid
    # and before best_gamma's one (6.77 while both roots were searched)
    m = training.BETA_GRID_POINTS
    searches = _record_searches(monkeypatch)
    counts = [
        record.evaluations - m - 1
        for fraction in (0.6, 0.7, 0.8, 0.9)
        for seed in range(25)
        for record in train_cutoff(4, 8, fraction, rng=np.random.default_rng(seed)).records
    ]
    assert np.mean(counts) <= 4.6
    # every layer starts with its peak search, so a root search that always
    # follows a peak search means at most one per layer
    peak = symcore.LayerTerms.jet
    peaks = [getattr(f, "__func__", None) is peak for f, *_ in searches]
    assert peaks[0] and all(before for before, now in zip(peaks, peaks[1:]) if not now)


def test_cutoff_right_root_when_the_grid_ties_the_target():
    # a target equal to g^2 at a grid point past the maximizer: the scalar
    # path puts that point above the target about half the time, and the root
    # search must still end at the target, next to that grid point
    cell = np.pi / training.BETA_GRID_POINTS
    rand = np.random.default_rng(3)
    ties = 0
    for _ in range(20):
        state = symcore.random_symmetric_state(int(rand.integers(3, 12)), rand)
        terms = symcore.layer_terms(state)
        overlap = symcore.overlap(state)
        angles, g_star, _ = training._layer_step(terms, overlap, 1.0, None)
        gain = g_star**2 - overlap
        grid = terms.grid(training.BETA_GRID_POINTS)
        after = int(angles.beta // cell) + 1
        j = after + np.flatnonzero(grid[after:] ** 2 <= overlap + gain / 2)[0]
        fraction = (grid[j] ** 2 - overlap) / gain
        target = overlap + fraction * gain
        ties += target == grid[j] ** 2 and terms.value(j * cell) ** 2 > target
        right = training._layer_step(terms, overlap, fraction, RootPicks(1))[0].beta
        assert terms.value(right) ** 2 == pytest.approx(target, abs=1e-12)
        assert abs(right - j * cell) <= cell
    assert ties > 0


def test_cutoff_right_root_in_the_last_cell_before_pi():
    # noiselessly g(pi) = g(0), so grid index M stands for pi and is reached
    # when index 0 is: a target between g(0)^2 and g(pi - cell)^2, above every
    # grid point past the maximizer, is reached only in (pi - cell, pi)
    m = training.BETA_GRID_POINTS
    cell = np.pi / m
    rand = np.random.default_rng(5)
    checked = 0
    for _ in range(40):
        state = symcore.random_symmetric_state(int(rand.integers(3, 9)), rand)
        terms = symcore.layer_terms(state)
        overlap = symcore.overlap(state)
        grid = terms.grid(m)
        angles, g_star, _ = training._layer_step(terms, overlap, 1.0, None)
        target = 0.5 * (grid[0] ** 2 + grid[m - 1] ** 2)
        if not np.all(grid[int(angles.beta // cell) + 1 :] ** 2 > target):
            continue
        fraction = (target - overlap) / (g_star**2 - overlap)
        right = training._layer_step(terms, overlap, fraction, RootPicks(1))[0].beta
        assert np.pi - cell < right < np.pi
        assert terms.value(right) ** 2 == pytest.approx(target, abs=1e-12)
        checked += 1
    assert checked >= 10


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
    # the curve: the grid's points, then one per point or jet call
    points = [0]
    terms = symcore.LayerTerms
    grid, at, split, jet = terms.grid, terms.at, terms.split, terms.jet

    def counted_grid(self, m):
        points[0] += m
        return grid(self, m)

    def counted_at(self, beta):
        points[0] += 1
        return at(self, beta)

    def counted_split(self, betas):
        points[0] += np.size(betas)
        return split(self, betas)

    def counted_jet(self, beta):
        points[0] += 1
        return jet(self, beta)

    monkeypatch.setattr(terms, "grid", counted_grid)
    monkeypatch.setattr(terms, "at", counted_at)
    monkeypatch.setattr(terms, "split", counted_split)
    monkeypatch.setattr(terms, "jet", counted_jet)
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
    # a flag would run as fraction 1, and a string or None would fail at the compare
    for bad in (True, "0.5", None, 0.5j):
        with pytest.raises(ValueError, match="fraction must be a real number"):
            train_cutoff(3, 3, bad, rng=np.random.default_rng(0))
    assert train_cutoff(3, 2, np.float64(0.5), rng=np.random.default_rng(0)).depth == 2


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
    lw = train_layerwise(n, depth)
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
    def stay(objective, x0, bound):
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
    lw = train_layerwise(4, 6)
    starts = training._global_starts(6, settings, [lw.schedule()])
    result = training.lockstep_bfgs(training._global_objective(4), starts, -(2.0**4))
    assert len(result.reasons) == len(starts) == 33
    assert set(result.reasons) <= {"gradient", "decrease", "line search", "bound"}
    # one row per start and round; the last round stopped the last start
    assert result.path.shape[1] == 33 and np.array_equal(result.path[-1], result.fun)
    assert result.evaluations == train_global(4, 6, settings, [lw.schedule()]).records[-1].evaluations


def test_iteration_cap_stops_the_starts_and_names_itself(monkeypatch):
    monkeypatch.setattr(training, "GLOBAL_MAX_ITERATIONS", 3)
    settings = OptimizerSettings(global_restarts=4)
    result = training.lockstep_bfgs(training._global_objective(4), training._global_starts(6, settings, ()), -np.inf)
    assert result.reasons == ["iteration cap"] * 4
    # three accepted steps each, whatever the backtracking took
    assert all(np.count_nonzero(np.diff(column)) == 3 for column in result.path.T)
    with pytest.raises(RuntimeError, match="stopped on iteration cap"):
        train_global(4, 6, settings)


def test_lockstep_stops_a_start_that_begins_stationary():
    # |+>^n is a critical point of every depth-1 schedule at gamma = beta = 0
    result = training.lockstep_bfgs(training._global_objective(3), np.zeros((2, 2)), -np.inf)
    assert result.reasons == ["gradient", "gradient"] and result.evaluations == 2


def _greedy_seeded_runs(n, depth, settings):
    """train_global's starts at (n, depth), run with its bound -2^n and with
    no bound: (bounded, unbounded)."""
    lw = train_layerwise(n, depth)
    starts = training._global_starts(depth, settings, [lw.schedule()])
    objective = training._global_objective(n)
    return training.lockstep_bfgs(objective, starts, -(2.0**n)), training.lockstep_bfgs(objective, starts, -np.inf)


def test_global_stops_once_a_start_converges_at_overlap_one():
    # the compare cell: several starts reach overlap 1, and the run ends at
    # the first of them instead of the slowest
    settings = OptimizerSettings()
    bounded, unbounded = _greedy_seeded_runs(4, 6, settings)
    lw = train_layerwise(4, 6)
    assert train_global(4, 6, settings, [lw.schedule()]).records[-1].evaluations == bounded.evaluations
    assert bounded.evaluations < unbounded.evaluations
    assert -bounded.fun.min() / 2.0**4 >= -unbounded.fun.min() / 2.0**4 - training.DEFAULT_EPS_ONE
    stopped = np.array(bounded.reasons) == "bound"
    assert stopped.any() and "bound" not in unbounded.reasons
    # a start that stopped on its own rule ran as it would have without the bound
    assert [r for r, s in zip(bounded.reasons, stopped) if not s] == [
        r for r, s in zip(unbounded.reasons, stopped) if not s
    ]
    assert np.array_equal(bounded.x[~stopped], unbounded.x[~stopped])
    assert np.array_equal(bounded.path, unbounded.path[: len(bounded.path)])


def test_global_below_overlap_one_is_unchanged_by_the_bound():
    # no start of the greedy-seeded (4, 4) run gets past overlap 0.99693
    bounded, unbounded = _greedy_seeded_runs(4, 4, OptimizerSettings())
    assert -bounded.fun.min() / 2.0**4 < 0.99693 and "bound" not in bounded.reasons
    assert np.array_equal(bounded.x, unbounded.x) and np.array_equal(bounded.fun, unbounded.fun)
    assert bounded.reasons == unbounded.reasons and bounded.evaluations == unbounded.evaluations
    assert np.array_equal(bounded.path, unbounded.path)


def test_global_seeded_at_overlap_one_evaluates_each_start_once():
    # greedy training reaches overlap 1 on one qubit in one layer, where the
    # seed stops on its gradient before the first round
    lw = train_layerwise(1, 1)
    gl = train_global(1, 1, seed_schedules=[lw.schedule()])
    assert gl.records[-1].evaluations == 33
    assert gl.status == "overlap_one"
    bounded, _ = _greedy_seeded_runs(1, 1, OptimizerSettings())
    assert bounded.reasons == ["gradient"] + ["bound"] * 32


# The quality grid: n = 2..8, depths n..n+2, at seed 0 with 4 restarts plus
# the greedy seed (the part of seeds 0..4 with 32 restarts that fits the
# suite's time; CHANGES.md reports the full grid).
@pytest.mark.parametrize("n, depth", [(n, depth) for n in range(2, 9) for depth in range(n, n + 3)])
def test_lockstep_matches_per_start_lbfgsb(n, depth):
    settings = OptimizerSettings(global_restarts=4, seed=0)
    lw = train_layerwise(n, depth)
    starts = training._global_starts(depth, settings, [lw.schedule()])
    objective = training._global_objective(n)
    result = training.lockstep_bfgs(objective, starts, -np.inf)

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


@pytest.mark.parametrize("kind", ["phase", "bitflip"])
@pytest.mark.parametrize("granularity", ["layer", "single_qubit"])
def test_noisy_trainer_replays_bitwise(granularity, kind):
    # every recorded overlap is that of the product-sum circuit replayed by
    # the trainer's own layer apply on the trained schedule, with the noise
    # drawn again from the same generator; the dense simulator agrees to
    # rounding
    noise = NoiseConfig(0.5, granularity=granularity, kind=kind)
    for n in (3, 4, 6):
        for seed in range(5):
            trace = train_layerwise_noisy(n, n, noise, rng=np.random.default_rng(seed))
            schedule = trace.schedule()
            state, rng = densecore.ProductSum.plus(n), np.random.default_rng(seed)
            for depth, record in enumerate(trace.records, start=1):
                layer = state.layer(densecore.sample_layer_noise(n, noise, rng))
                state = layer.apply(record.angles.gamma, record.angles.beta)
                assert record.overlap == symcore.reported_overlap(state.head)
                replay = densecore.run_schedule_dense(n, schedule[:depth], noise, np.random.default_rng(seed))
                assert abs(record.overlap - densecore.overlap_dense(replay)) <= 1e-14


@pytest.mark.parametrize("kind", ["phase", "bitflip"])
@pytest.mark.parametrize("granularity", ["layer", "single_qubit"])
def test_noisy_trainer_draws_only_the_layer_noise(granularity, kind):
    # the generator ends where a twin ends after the same number of
    # sample_layer_noise calls: the layer step at fraction 1 draws nothing
    noise = NoiseConfig(0.3, granularity=granularity, kind=kind)
    for n, depth in ((3, 5), (8, 4)):
        rng, twin = np.random.default_rng(21), np.random.default_rng(21)
        train_layerwise_noisy(n, depth, noise, rng=rng)
        for _ in range(depth):
            densecore.sample_layer_noise(n, noise, twin)
        assert rng.bit_generator.state == twin.bit_generator.state


@pytest.mark.parametrize("n", [20, 40, 100])
def test_noisy_without_noise_matches_layerwise_at_large_n(n):
    # the product sum carries no 2^n vector, so p = 0 reproduces greedy far
    # past the dense simulator's cap, to rounding relative to the overlap
    lw = train_layerwise(n, n + 2).overlaps()
    noisy = train_layerwise_noisy(n, n + 2, NoiseConfig(0.0), rng=np.random.default_rng(0)).overlaps()
    assert np.max(np.abs(noisy - lw) / lw) <= 1e-11


@pytest.mark.parametrize("n, depth", [(100, 20), (300, 8), (1022, 4)])
def test_noisy_overlaps_match_mpmath_to_the_validity_ceiling(n, depth):
    # a 30-digit replay of the same product sum, with the noise drawn again
    # from the same generator, agrees with every recorded overlap up to n =
    # MAX_SYMMETRIC_QUBITS, where the overlap of |+>^n is 2^-1022
    mpmath = pytest.importorskip("mpmath")
    noise = NoiseConfig(0.2)
    trace = train_layerwise_noisy(n, depth, noise, rng=np.random.default_rng(n))
    rng = np.random.default_rng(n)
    with mpmath.workdps(30):
        half = mpmath.sqrt(mpmath.mpf(0.5))
        coefs, states = [mpmath.mpc(1)], [[(half, half)] * n]
        for record in trace.records:
            frozen = densecore.sample_layer_noise(n, noise, rng)
            assert not frozen.flips.any()
            gamma, beta = mpmath.mpf(record.angles.gamma), mpmath.mpf(record.angles.beta)
            c, s = mpmath.cos(beta), -1j * mpmath.sin(beta)
            phases = [[mpmath.mpc(1)] * n for _ in range(2)]  # diag(1, e^{i phi}) before and after the mixer
            for row, kicks in zip(phases, (frozen.pre, frozen.post)):
                for q in np.flatnonzero(kicks):
                    row[q] = mpmath.expj(mpmath.mpf(kicks[q]))
            head = mpmath.fsum(k * mpmath.fprod(v[0] for v in vs) for k, vs in zip(coefs, states))
            coefs.append((mpmath.expj(-gamma) - 1) * head)
            states.append([(mpmath.mpc(1), mpmath.mpc(0))] * n)
            states = [
                [(c * v0 + s * p * v1, (s * v0 + c * p * v1) * d) for (v0, v1), p, d in zip(vs, *phases)]
                for vs in states
            ]
            head = mpmath.fsum(k * mpmath.fprod(v[0] for v in vs) for k, vs in zip(coefs, states))
            exact = abs(head) ** 2
            assert abs(record.overlap - exact) <= 1e-11 * exact


def test_noisy_trainer_runs_at_n_40():
    trace = train_layerwise_noisy(40, 40, NoiseConfig(0.1), rng=np.random.default_rng(0))
    overlaps = trace.overlaps()
    assert trace.depth == 40
    assert np.all(np.isfinite(overlaps)) and 2.0**-40 < overlaps[0] and overlaps[-1] <= 1.0
    # phase kicks never move the target amplitude, so no layer loses overlap
    assert np.all(np.diff(overlaps) >= -1e-12 * overlaps[1:])


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
def test_noisy_layer_terms_match_dense_layer(granularity, kind, random_product_sum):
    # the terms of a product sum give the dense layer's target amplitude, and
    # the product sum after the layer expands to the dense layer's state
    rand = np.random.default_rng(31)
    for n in range(1, 6):
        for p in (0.0, 0.3, 0.7, 1.0):
            noise = NoiseConfig(p, granularity=granularity, kind=kind)
            for _ in range(6):
                state, psi = random_product_sum(n, rand)
                frozen = densecore.sample_layer_noise(n, noise, rand)
                gamma, beta = rand.uniform(0, 2 * np.pi), rand.uniform(0, np.pi)
                layer = state.layer(frozen)
                a_term, b_term = layer.terms().split(beta)
                dense = densecore.apply_layer_dense(psi, n, gamma, beta, frozen)
                assert abs(a_term[0] * np.exp(-1j * gamma) + b_term[0] - dense[0]) < 1e-12
                after = layer.apply(gamma, beta)
                states = after.vectors.swapaxes(0, 1)
                expanded = sum(c * functools.reduce(np.kron, v[::-1]) for c, v in zip(after.coefs, states))
                assert abs(after.head - dense[0]) < 1e-12
                assert np.max(np.abs(expanded - dense)) < 1e-12


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
            frozen = densecore.sample_layer_noise(n, noise, rng)
            best = 0.0
            for b in betas:
                at0 = densecore.apply_layer_dense(prefix, n, 0.0, b, frozen)[0]
                at_pi = densecore.apply_layer_dense(prefix, n, np.pi, b, frozen)[0]
                u, v = (at0 - at_pi) / 2, (at0 + at_pi) / 2
                best = max(best, np.max(np.abs(u * phases + v) ** 2))
            assert record.overlap >= best - 1e-12
            prefix = densecore.apply_layer_dense(
                prefix, n, record.angles.gamma, record.angles.beta, frozen
            )


TRAINERS = [
    pytest.param(lambda n, depth: train_layerwise(n, depth), id="layerwise"),
    pytest.param(lambda n, depth: train_cutoff(n, depth, 0.5, rng=np.random.default_rng(0)), id="cutoff"),
    pytest.param(lambda n, depth: train_global(n, depth), id="global"),
    pytest.param(
        lambda n, depth: train_layerwise_noisy(n, depth, NoiseConfig(0.1), rng=np.random.default_rng(0)),
        id="noisy",
    ),
]


@pytest.mark.parametrize("train", TRAINERS)
def test_trainers_reject_bad_sizes(train):
    # a flag, a float or a string is refused up front, as OptimizerSettings
    # refuses them: True as n would reach the mixer as 1 with plus = [1, 1],
    # and a float would fail inside math.comb or range
    for n, depth in ((True, 2), (4.0, 2), ("4", 2), (0, 2), (4, False), (4, 2.0), (4, 0)):
        with pytest.raises(ValueError, match="^(n|depth) must be"):
            train(n, depth)
    assert train(np.int64(2), np.int32(1)).depth == 1


@pytest.mark.parametrize(
    "run",
    [
        *TRAINERS,
        pytest.param(lambda n, depth: symcore.run_schedule(n, [(0.1, 0.2)] * depth), id="run_schedule"),
        pytest.param(lambda n, depth: analysis.trainability_probe(symcore.plus_state(n)), id="probe"),
    ],
)
def test_refused_past_the_validity_ceiling(run):
    # past MAX_SYMMETRIC_QUBITS 2^-n is subnormal, and the mixer refuses the
    # qubit count before any O(n^2) work
    with pytest.raises(ValueError, match="MAX_SYMMETRIC_QUBITS"):
        run(symcore.MAX_SYMMETRIC_QUBITS + 1, 2)


def test_beta_grid_covers_every_mixer():
    # a power of two, so the grid's last cell ends at pi exactly, and more
    # points than the n + 1 Fourier coefficients of any mixer's curve
    m = training.BETA_GRID_POINTS
    assert m & (m - 1) == 0 and m * (np.pi / m) == np.pi
    assert m > symcore.MAX_SYMMETRIC_QUBITS + 1


def test_settings_validation():
    with pytest.raises(ValueError):
        OptimizerSettings(global_restarts=0)
    # SeedSequence takes no negative entropy, so train_global would fail late
    with pytest.raises(ValueError, match="seed"):
        OptimizerSettings(seed=-1)
    # a float or a flag is refused up front, not inside range or numpy later
    for bad in ({"global_restarts": 1.5}, {"global_restarts": True}, {"seed": 0.5}):
        with pytest.raises(ValueError, match="integer"):
            OptimizerSettings(**bad)
    with pytest.raises(ValueError):
        train_layerwise(0, 3)
