"""Trainers maximizing the target overlap: greedy layerwise, global, cutoff, noisy.

Every layerwise trainer, noisy or not, exploits the closed-form gamma
elimination, so each layer's inner optimization is one-dimensional over the
mixer angle.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field

import numpy as np
from scipy.optimize import brentq, minimize

from . import densecore, symcore
from .densecore import NoiseConfig
from .symcore import LayerAngles

GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0
# width of the bracket at which golden-section refinement of beta stops
REFINE_TOLERANCE = 1e-10
# Nelder-Mead iteration cap per restart of train_global (twice as many evaluations)
GLOBAL_MAX_ITERATIONS = 2000
# A trace has reached the target once its overlap is within DEFAULT_EPS_ONE of
# 1, and a layer gaining at most DEFAULT_EPS_SAT has saturated.  These are the
# trace status thresholds and analysis.detect_saturation's defaults.
DEFAULT_EPS_ONE = 1e-9
DEFAULT_EPS_SAT = 1e-8


@dataclass(frozen=True)
class OptimizerSettings:
    beta_grid_points: int = 2048
    global_restarts: int = 32
    seed: int = 0

    def __post_init__(self):
        if self.beta_grid_points < 2:
            raise ValueError("beta_grid_points must be >= 2")
        if self.global_restarts < 1:
            raise ValueError("global_restarts must be >= 1")


@dataclass(frozen=True, slots=True)
class LayerRecord:
    depth: int
    angles: LayerAngles
    overlap: float
    amplitude: float
    wall_time: float
    evaluations: int


@dataclass
class TrainingTrace:
    n: int
    records: list[LayerRecord] = field(default_factory=list)
    status: str = "depth_limit"

    @property
    def depth(self) -> int:
        return len(self.records)

    def overlaps(self) -> np.ndarray:
        return np.array([r.overlap for r in self.records])

    def betas(self) -> np.ndarray:
        return np.array([r.angles.beta for r in self.records])

    def gammas(self) -> np.ndarray:
        return np.array([r.angles.gamma for r in self.records])

    def schedule(self) -> list[LayerAngles]:
        return [r.angles for r in self.records]

    def improvements(self) -> np.ndarray:
        """Overlap gain of each layer, the first measured from |+>^n."""
        ovs = self.overlaps()
        return np.diff(np.concatenate([[2.0 ** (-self.n)], ovs]))


def _finish_status(trace: TrainingTrace) -> str:
    if trace.depth and trace.records[-1].overlap >= 1.0 - DEFAULT_EPS_ONE:
        return "overlap_one"
    if trace.depth >= 2 and trace.improvements()[-1] <= DEFAULT_EPS_SAT:
        return "saturated"
    return "depth_limit"


def golden_section_max(f, lo: float, hi: float, tol: float) -> tuple[float, float, int]:
    """Golden-section maximization on [lo, hi]; returns (x, f(x), evaluations)."""
    a, b = lo, hi
    c = b - GOLDEN * (b - a)
    d = a + GOLDEN * (b - a)
    fc, fd = f(c), f(d)
    evals = 2
    while b - a > tol:
        if fc > fd:
            b, d, fd = d, c, fc
            c = b - GOLDEN * (b - a)
            fc = f(c)
        else:
            a, c, fc = c, d, fd
            d = a + GOLDEN * (b - a)
            fd = f(d)
        evals += 1
    x = (a + b) / 2.0
    return x, f(x), evals + 1


def _best_beta(terms: symcore.LayerTerms, settings: OptimizerSettings) -> tuple[float, float, int]:
    """Maximize a layer's gamma-eliminated amplitude curve over beta in [0, pi).

    Dense grid, golden-section refinement in the winning cell, then a mirror
    candidate near pi - beta (exactly degenerate for real amplitude vectors)
    and the beta = 0 snap.  Ties resolve toward the smaller beta.  The count
    returned is the number of betas at which the curve was computed.
    """
    m = settings.beta_grid_points
    cell = math.pi / m
    peak = int(np.argmax(terms.grid(m))) * cell
    f = terms.value

    evals = m
    best_b, best_g, e = golden_section_max(
        f, max(peak - cell, 0.0), min(peak + cell, math.pi), REFINE_TOLERANCE
    )
    evals += e
    if peak > 0.0:
        center = math.pi - peak
        mb, mg, e = golden_section_max(
            f, max(center - cell, 0.0), min(center + cell, math.pi), REFINE_TOLERANCE
        )
        evals += e
        if mg >= best_g - 1e-12 and mb < best_b:
            best_b, best_g = mb, mg
    g0 = f(0.0)
    evals += 1
    if g0 >= best_g:
        return 0.0, g0, evals
    return best_b, best_g, evals


def _layer_step(
    terms: symcore.LayerTerms,
    overlap: float,
    fraction: float,
    settings: OptimizerSettings,
    rng: np.random.Generator | None,
) -> tuple[LayerAngles, float, int]:
    """Angles of one new layer: (angles, curve value at them, evaluations).

    The layer aims at overlap + fraction * (O_max - overlap), O_max being the
    best overlap one layer reaches.  fraction = 1 takes the maximizing beta and
    never draws from rng.  Below 1, betas reaching the target are found by root
    bisection on either side of the maximizer and one side is chosen uniformly
    from rng; a layer that cannot gain, or whose maximizer is beta = 0, keeps
    the maximizer.  gamma then aligns the two terms at the chosen beta.  The
    count is the number of betas at which the curve was computed.
    """
    beta, g, evals = _best_beta(terms, settings)
    gain = g**2 - overlap
    if fraction < 1.0 and beta != 0.0 and gain > 1e-14:
        target = overlap + fraction * gain

        def shortfall(b: float) -> float:
            nonlocal evals
            evals += 1
            return terms.value(b) ** 2 - target

        roots = []
        if shortfall(0.0) <= 0.0:
            roots.append(brentq(shortfall, 0.0, beta, xtol=1e-13))
        step = (math.pi - beta) / 512.0
        prev = beta
        for j in range(1, 513):
            x = beta + j * step
            if shortfall(x) <= 0.0:
                roots.append(brentq(shortfall, prev, x, xtol=1e-13))
                break
            prev = x
        if roots:
            beta = float(roots[rng.integers(len(roots))])
    g, gamma = terms.best_gamma(beta)
    return LayerAngles(gamma, beta), g, evals + 1


def train_layerwise(n: int, max_depth: int, settings: OptimizerSettings | None = None) -> TrainingTrace:
    """Greedy layerwise training: optimize one layer at a time, freeze the rest."""
    return train_cutoff(n, max_depth, 1.0, settings)


def train_cutoff(
    n: int,
    max_depth: int,
    fraction: float,
    settings: OptimizerSettings | None = None,
    rng: np.random.Generator | None = None,
) -> TrainingTrace:
    """Layerwise training limited to a fraction of each layer's maximal gain.

    Per layer the target overlap is O_prev + fraction * (O_max - O_prev), met
    as described for _layer_step.  Greedy layerwise training is the case
    fraction = 1, which draws nothing and needs no rng; below 1 rng is
    required.
    """
    if n < 1 or max_depth < 1:
        raise ValueError("n and max_depth must be >= 1")
    if not 0.0 < fraction <= 1.0:
        raise ValueError(f"fraction must be in (0, 1], got {fraction}")
    if fraction < 1.0 and rng is None:
        raise ValueError("train_cutoff below fraction 1 draws from rng; pass a numpy Generator")
    settings = settings or OptimizerSettings()
    gen = symcore.mixer(n)
    state = symcore.plus_state(n)
    trace = TrainingTrace(n)
    for depth in range(1, max_depth + 1):
        t0 = time.perf_counter()
        angles, g, evals = _layer_step(
            symcore.layer_terms(state), symcore.overlap(state), fraction, settings, rng
        )
        state = symcore.SymmetricState(n, gen.layers(state.amps, [angles.gamma], [angles.beta]))
        trace.records.append(
            LayerRecord(depth, angles, symcore.overlap(state), g, time.perf_counter() - t0, evals)
        )
    trace.status = _finish_status(trace)
    return trace


def _schedule_to_params(schedule) -> np.ndarray:
    out = []
    for layer in schedule:
        angles = symcore._as_angles(layer)
        out.extend([angles.gamma, angles.beta])
    return np.array(out)


def train_global(
    n: int,
    depth: int,
    settings: OptimizerSettings | None = None,
    seed_schedules=(),
) -> TrainingTrace:
    """Multistart simplex search over all 2p angles at once.

    Restart initial points are uniform in the principal ranges, seeded from
    settings.seed; extra starting schedules (e.g. a greedy solution) can be
    supplied; each must have exactly depth layers.  The result is the best
    schedule found, never claimed to be the global optimum.  The per-depth
    overlap profile of the winner is recorded; total objective evaluations are
    carried on the final record.
    """
    if n < 1 or depth < 1:
        raise ValueError("n and depth must be >= 1")
    settings = settings or OptimizerSettings()
    gen = symcore.mixer(n)
    plus = symcore.plus_state(n).amps
    evals = [0]

    def neg_overlap(params: np.ndarray) -> float:
        evals[0] += 1
        angles = params.tolist()  # floats, cheaper to iterate than numpy scalars
        return -float(abs(gen.layers(plus, angles[0::2], angles[1::2])[0]) ** 2)

    inits = [_schedule_to_params(s) for s in seed_schedules]
    for i, x0 in enumerate(inits):
        if x0.size != 2 * depth:
            raise ValueError(f"seed schedule {i} has {x0.size // 2} layers, expected {depth}")
    for r in range(settings.global_restarts):
        rng = np.random.default_rng(np.random.SeedSequence((settings.seed, r)))
        gammas = rng.uniform(0.0, 2.0 * math.pi, depth)
        betas = rng.uniform(0.0, math.pi, depth)
        inits.append(np.column_stack([gammas, betas]).ravel())

    best_fun, best_x = math.inf, inits[0]
    for x0 in inits:
        res = minimize(
            neg_overlap,
            x0,
            method="Nelder-Mead",
            options={
                "maxiter": GLOBAL_MAX_ITERATIONS,
                "maxfev": 2 * GLOBAL_MAX_ITERATIONS,
                "xatol": 1e-10,
                "fatol": 1e-12,
            },
        )
        if res.fun < best_fun:
            best_fun, best_x = float(res.fun), np.asarray(res.x)

    trace = TrainingTrace(n)
    amps = plus
    for c in range(depth):
        angles = LayerAngles(best_x[2 * c], best_x[2 * c + 1])
        amps = gen.layers(amps, [angles.gamma], [angles.beta])
        amp = abs(amps[0])
        count = evals[0] if c == depth - 1 else 0
        trace.records.append(LayerRecord(c + 1, angles, float(amp**2), float(amp), 0.0, count))
    trace.status = _finish_status(trace)
    return trace


def train_layerwise_noisy(
    n: int,
    max_depth: int,
    noise: NoiseConfig,
    settings: OptimizerSettings | None = None,
    rng: np.random.Generator | None = None,
) -> TrainingTrace:
    """Greedy layerwise training with frozen coherent noise per layer.

    When a layer is appended its noise events are sampled once and frozen, so
    the layer is optimized against a fixed systematic error; earlier layers
    keep their own frozen noise.  The target amplitude of the noisy layer
    still splits as A(beta) exp(-i*gamma) + B(beta) (densecore.layer_terms_dense),
    so the layer takes the noiseless trainers' _layer_step at fraction 1.  The
    recorded overlap is that of the dense simulation of the chosen layer.  The
    noise is drawn from rng, which is required.
    """
    if n < 1 or max_depth < 1:
        raise ValueError("n and max_depth must be >= 1")
    densecore._check_cap(n)
    if rng is None:
        raise ValueError("train_layerwise_noisy draws its noise from rng; pass a numpy Generator")
    settings = settings or OptimizerSettings()

    prefix = densecore.plus_state_dense(n)
    trace = TrainingTrace(n)
    for depth in range(1, max_depth + 1):
        t0 = time.perf_counter()
        slots = densecore.sample_layer_noise(n, noise, rng)
        terms = densecore.layer_terms_dense(prefix, n, slots)
        angles, _, evals = _layer_step(terms, abs(prefix[0]) ** 2, 1.0, settings, rng)
        prefix = densecore.apply_layer_dense(prefix, n, angles.gamma, angles.beta, slots)
        amp = abs(prefix[0])
        trace.records.append(
            LayerRecord(depth, angles, float(amp**2), float(amp), time.perf_counter() - t0, evals)
        )
    trace.status = _finish_status(trace)
    return trace
