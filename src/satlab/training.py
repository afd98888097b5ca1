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

from . import densecore, symcore
from .densecore import NoiseConfig
from .symcore import LayerAngles

GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0
# width of the bracket at which golden-section refinement of beta stops
REFINE_TOLERANCE = 1e-10
# relative gap within which a smaller beta ties a larger one's curve value
TIE_TOLERANCE = 1e-12
# largest gradient norm of log|A_0|^2 accepted at train_global's winning end point
GLOBAL_GRADIENT_TOLERANCE = 1e-6
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
        for name in ("beta_grid_points", "global_restarts", "seed"):
            value = getattr(self, name)
            # bool is an int subclass, and a float fails later inside range or numpy
            if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
                raise ValueError(f"{name} must be an integer, got {value!r}")
        if self.beta_grid_points < 2:
            raise ValueError("beta_grid_points must be >= 2")
        if self.global_restarts < 1:
            raise ValueError("global_restarts must be >= 1")


@dataclass(frozen=True, slots=True)
class LayerRecord:
    """One trained layer: depth (from 1), angles, reported overlap, amplitude,
    wall_time in seconds and evaluations.  amplitude is the curve value at the
    angles for greedy and cutoff training and the realized |A_0| for noisy and
    global training; train_global puts all its starts' evaluations on the last."""

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

    @property
    def depth(self) -> int:
        return len(self.records)

    @property
    def status(self) -> str:
        """overlap_one, saturated or depth_limit, by the DEFAULT_EPS_* thresholds."""
        if self.depth and self.records[-1].overlap >= 1.0 - DEFAULT_EPS_ONE:
            return "overlap_one"
        if self.depth >= 2 and self.improvements()[-1] <= DEFAULT_EPS_SAT:
            return "saturated"
        return "depth_limit"

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


# scipy.optimize loads on the first cutoff root or train_global call, not on
# import; callers and tracers look these two names up on this module.
def brentq(*args, **kwargs):
    """scipy.optimize.brentq, imported on first call."""
    from scipy.optimize import brentq

    return brentq(*args, **kwargs)


def minimize(*args, **kwargs):
    """scipy.optimize.minimize, imported on first call."""
    from scipy.optimize import minimize

    return minimize(*args, **kwargs)


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


def _layer_step(
    terms: symcore.LayerTerms,
    overlap: float,
    fraction: float,
    settings: OptimizerSettings,
    rng: np.random.Generator | None,
) -> tuple[LayerAngles, float, int]:
    """Angles of one new layer: (angles, curve value at them, evaluations).

    The curve is sampled once, on the grid beta_j = pi j / M, and two rules
    read the sample.  Tie rule: the smallest beta within a relative
    TIE_TOLERANCE of the best value wins.  Golden section refines the maximizer
    over the two cells around the first grid point tying the grid's maximum (so
    a real state's mirror pair g(pi - beta) = g(beta) gives the smaller beta),
    and beta = 0 wins if the exact grid[0] ties the result.

    The layer aims at overlap + fraction * (O_max - overlap), O_max being the
    best overlap one layer reaches.  It keeps the maximizer, drawing nothing
    from rng, at fraction 1, without gain or at beta = 0.  Otherwise, bracket
    rule: on each side the root nearest the maximizer lies between it and the
    nearest grid point reaching the target, index M standing for pi, where
    g(pi) = g(0); an end the scalar path puts above the target moves one cell
    on.  brentq finds the roots and rng picks one uniformly.  gamma then aligns
    the two terms at the chosen beta.  The count is the number of betas at
    which the curve was computed.
    """
    m = settings.beta_grid_points
    cell = math.pi / m
    grid = terms.grid(m)
    peak = int(np.argmax(grid >= grid.max() * (1.0 - TIE_TOLERANCE))) * cell
    beta, g, evals = golden_section_max(
        terms.value, max(peak - cell, 0.0), min(peak + cell, math.pi), REFINE_TOLERANCE
    )
    if grid[0] >= g * (1.0 - TIE_TOLERANCE):
        beta, g = 0.0, float(grid[0])

    gain = g**2 - overlap
    if fraction < 1.0 and beta != 0.0 and gain > 0.0:
        target = overlap + fraction * gain

        def shortfall(b: float) -> float:
            nonlocal evals
            evals += 1
            return terms.value(b) ** 2 - target

        reached = np.flatnonzero(np.append(grid, grid[0]) ** 2 <= target)
        after = math.floor(beta / cell) + 1
        roots = []  # the left root, then the right
        for step, ends in ((-1, reached[reached < after][-1:]), (1, reached[reached >= after][:1])):
            for i in ends.tolist():
                end = min(i * cell, math.pi)
                short = shortfall(end)
                if short > 0.0 and 0 < i < m:
                    end = min(end + step * cell, math.pi)
                    short = shortfall(end)
                if short <= 0.0:
                    roots.append(brentq(shortfall, *sorted((beta, end)), xtol=1e-13))
        if roots:
            beta = float(roots[rng.integers(len(roots))])
    g, gamma = terms.best_gamma(beta)
    return LayerAngles(gamma, beta), g, m + evals + 1


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
    t, overlap = gen.plus, symcore.reported_overlap(gen.row[n])
    trace = TrainingTrace(n)
    for depth in range(1, max_depth + 1):
        t0 = time.perf_counter()
        angles, g, evals = _layer_step(symcore.LayerTerms.from_eigen(t), overlap, fraction, settings, rng)
        states, heads = gen.forward(t, [angles.gamma], [angles.beta])
        t, overlap = states[-1], symcore.reported_overlap(heads[-1])
        trace.records.append(LayerRecord(depth, angles, overlap, g, time.perf_counter() - t0, evals))
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
    """Multistart L-BFGS-B over all 2p angles at once, on adjoint gradients.

    Each start runs L-BFGS-B on f = -2^n |A_0|^2 and its exact gradient, from
    MixerGenerator.neg_overlap.  The starts are the extra starting schedules
    (e.g. a greedy solution), each of exactly depth layers, then
    settings.global_restarts points uniform in the principal ranges, drawn
    from SeedSequence((settings.seed, r)).  The best end point is kept; it is
    never claimed to be the global optimum.

    The line search never raises f, so every end point is a candidate,
    whatever its status.  Near the largest overlap 1 the line search can no
    longer resolve a decrease against rounding, and some starts stop with
    ABNORMAL_TERMINATION_IN_LNSRCH; their end points are kept like the others.
    Convergence is checked on the winner instead: RuntimeError is raised
    unless |grad f| / |f| is at most GLOBAL_GRADIENT_TOLERANCE there.  The
    per-depth overlap profile of the winner, with its angles reduced to the
    principal ranges, is read from the heads of one MixerGenerator.forward;
    the objective evaluations of all starts are carried on the final record.
    """
    if n < 1 or depth < 1:
        raise ValueError("n and depth must be >= 1")
    settings = settings or OptimizerSettings()
    gen = symcore.mixer(n)

    inits = [_schedule_to_params(s) for s in seed_schedules]
    for i, x0 in enumerate(inits):
        if x0.size != 2 * depth:
            raise ValueError(f"seed schedule {i} has {x0.size // 2} layers, expected {depth}")
    for r in range(settings.global_restarts):
        rng = np.random.default_rng(np.random.SeedSequence((settings.seed, r)))
        gammas = rng.uniform(0.0, 2.0 * math.pi, depth)
        betas = rng.uniform(0.0, math.pi, depth)
        inits.append(np.column_stack([gammas, betas]).ravel())

    # Overlaps shrink like 2^-n and L-BFGS-B's stopping rules are absolute
    # where |f| < 1, so each start minimizes the overlap in units of |+>^n's.
    scale = 2.0**n

    def objective(params: np.ndarray) -> tuple[float, np.ndarray]:
        value, grad = gen.neg_overlap(params)
        return scale * value, scale * grad

    best, evals = None, 0
    for x0 in inits:
        # L-BFGS-B's defaults (ftol 2.2e-9, gtol 1e-5) leave the winner of
        # train_global(4, 6) a relative slope of 1e-5; these tolerances run
        # each start to the rounding floor
        res = minimize(
            objective, x0, jac=True, method="L-BFGS-B", options={"ftol": 1e-15, "gtol": 1e-10}
        )
        evals += int(res.nfev)
        if best is None or res.fun < best.fun:
            best = res
    slope = float(np.linalg.norm(best.jac) / abs(best.fun))
    if slope > GLOBAL_GRADIENT_TOLERANCE:
        raise RuntimeError(
            f"train_global({n}, {depth}): best end point has relative gradient norm {slope:.3g} "
            f"> {GLOBAL_GRADIENT_TOLERANCE} ({best.message})"
        )

    angles = [LayerAngles(gamma, beta) for gamma, beta in best.x.reshape(depth, 2)]
    _, heads = gen.forward(gen.plus, [a.gamma for a in angles], [a.beta for a in angles])
    trace = TrainingTrace(n)
    for c, head in enumerate(heads[1:], start=1):
        overlap, count = symcore.reported_overlap(head), evals if c == depth else 0
        trace.records.append(LayerRecord(c, angles[c - 1], overlap, float(abs(head)), 0.0, count))
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
        overlap = symcore.reported_overlap(prefix[0])
        trace.records.append(
            LayerRecord(depth, angles, overlap, float(abs(prefix[0])), time.perf_counter() - t0, evals)
        )
    return trace
