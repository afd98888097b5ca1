"""Trainers maximizing the target overlap: greedy layerwise, global, cutoff, noisy.

Every layerwise trainer, noisy or not, exploits the closed-form gamma
elimination, so each layer's inner optimization is one-dimensional over the
mixer angle.
"""

from __future__ import annotations

import math
import numbers
import time
from dataclasses import dataclass, field

import numpy as np

from . import densecore, symcore
from .densecore import NoiseConfig
from .symcore import TIE_TOLERANCE, LayerAngles, _check_integer

GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0
# step in beta at which newton_bisect has converged
NEWTON_TOLERANCE = 1e-15
# largest gradient norm of log|A_0|^2 accepted at train_global's winning end point
GLOBAL_GRADIENT_TOLERANCE = 1e-6
# lockstep_bfgs stops a start once max|grad f| is at most STOP_GRADIENT, or a
# step decreases f by at most STOP_DECREASE relative to max(|f|, 1), or after
# GLOBAL_MAX_ITERATIONS accepted steps
STOP_GRADIENT = 1e-10
STOP_DECREASE = 1e-15
GLOBAL_MAX_ITERATIONS = 2000
# sufficient-decrease constant of the Armijo backtracking
ARMIJO = 1e-4
# A trace has reached the target once its overlap is within DEFAULT_EPS_ONE of
# 1, and a layer gaining at most DEFAULT_EPS_SAT has saturated.  These are the
# trace status thresholds and analysis.detect_saturation's defaults.
DEFAULT_EPS_ONE = 1e-9
DEFAULT_EPS_SAT = 1e-8
# Points of _layer_step's beta grid: a power of two, so 2048 cells of pi / 2048
# end at pi exactly, and above n + 1 for every n a mixer is built for (n <=
# MAX_SYMMETRIC_QUBITS = 1022), so B's n + 1 coefficients never outnumber them.
BETA_GRID_POINTS = 2048


@dataclass(frozen=True)
class OptimizerSettings:
    """train_global's multistart settings; no other trainer reads them."""

    global_restarts: int = 32
    seed: int = 0

    def __post_init__(self):
        for name, minimum in (("global_restarts", 1), ("seed", 0)):
            _check_integer(name, getattr(self, name), minimum)


def _check_sizes(n, depth) -> None:
    """Every trainer's check of its qubit count and depth, before any compute."""
    _check_integer("n", n, 1)
    _check_integer("depth", depth, 1)


@dataclass(frozen=True, slots=True)
class LayerRecord:
    """What one trained layer realized and cost: its angles, the reported
    overlap after it, wall_time in seconds and evaluations, the points at
    which the curve was actually computed (a peak search's predicted last
    step is not one); its depth is its list index plus one.  train_global
    puts its whole run's wall time and all its starts' evaluations on the
    last record, 0 on the others."""

    angles: LayerAngles
    overlap: float
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


def brentq(*args, **kwargs):
    """scipy.optimize.brentq, imported on first call.  No satlab path calls it:
    the benchmark's tracer pins the name until ROADMAP item 4's retarget."""
    from scipy.optimize import brentq

    return brentq(*args, **kwargs)


def minimize(*args, **kwargs):
    """scipy.optimize.minimize, imported on first call.  No satlab path calls
    it: the benchmark's tracer pins the name until ROADMAP item 4's retarget."""
    from scipy.optimize import minimize

    return minimize(*args, **kwargs)


def golden_section_max(f, lo: float, hi: float, tol: float) -> tuple[float, float, int]:
    """Golden-section maximization on [lo, hi]; returns (x, f(x), evaluations).

    No satlab path calls it: the benchmark's tracer pins the name until
    ROADMAP item 4's retarget deletes it, and the tests use it as a reference.
    """
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


def newton_bisect(f, beta: float, lo: float, hi: float, peak: bool = False) -> tuple[float, float, int]:
    """Safeguarded Newton-bisection for the sign change of h from beta in
    (lo, hi): (x, g, evaluations), where f(x) begins (g, h, s) and h > 0 means
    the sign change lies right of x.  s is the slope the step divides by:
    h' for the peak, and Halley's h' - h h'' / (2 h') for the cutoff roots.

    Each call of f narrows the bracket by the sign of h.  The step is
    -h/s, where s < 0 and the step lands strictly inside the bracket, and
    goes to the bracket's midpoint otherwise.  The search stops
    at h = 0, once a step is at most NEWTON_TOLERANCE, or once the bracket no
    longer splits, and returns the last point it evaluated and g there.

    peak marks the peak search, where f begins (g, g', g''): at a point that
    a Newton step reached, it also stops at a Newton step inside the bracket
    that is small enough for the step after it, predicted as |h''| step^2 /
    (2 |s|) with h'' the change of s per unit beta over these two
    consecutive Newton points, to be at most NEWTON_TOLERANCE.  It then
    returns beta + step and the quadratic model's value there, g + h step /
    2, without calling f at it.  Every rule is in beta, so the search is
    scale-free.  Every point lies strictly inside the shrinking bracket, so
    the loop ends.
    """
    evals, last = 0, None
    while True:
        g, h, slope = f(beta)[:3]
        evals += 1
        if h > 0.0:
            lo = beta
        elif h < 0.0:
            hi = beta
        else:
            return beta, g, evals
        step = -h / slope if slope < 0.0 else math.inf
        newton = lo < beta + step < hi
        if not (abs(step) <= NEWTON_TOLERANCE or newton):
            step = math.copysign(0.5 * (hi - lo), h)  # to the bracket's midpoint
        if abs(step) <= NEWTON_TOLERANCE or not lo < beta + step < hi:
            return beta, g, evals
        if peak and newton and last is not None:
            before, was = last
            if step * step * abs(slope - was) <= 2.0 * NEWTON_TOLERANCE * abs(slope * (beta - before)):
                return beta + step, g + 0.5 * h * step, evals
        last = (beta, slope) if newton else None
        beta += step


def _layer_step(
    terms: symcore.LayerTerms,
    overlap: float,
    fraction: float,
    rng: np.random.Generator | None,
) -> tuple[LayerAngles, float, int]:
    """Angles of one new layer: (angles, curve value at them, evaluations).

    The curve is sampled once, on the grid beta_j = pi j / M, M =
    BETA_GRID_POINTS, whose last cell ends at pi exactly, and two rules
    read the sample.  Tie rule: the smallest beta within a relative
    TIE_TOLERANCE of the best value wins.  newton_bisect on h = g' refines the
    maximizer over the two cells around the first grid point tying the grid's
    maximum (so a real state's mirror pair g(pi - beta) = g(beta) gives the
    smaller beta), from the vertex of the parabola through that grid point
    and its two neighbours; as a peak search it may stop on a predicted
    step and return the model's value.  When that point is beta = 0, where
    g has a kink, the lobes on both sides of the kink are searched: (0,
    cell) from the kink model's peak LayerTerms.kink_offset(), and (pi -
    cell, pi) from its mirror, each from the middle of its cell where that
    offset is not inside it; the left one wins only if it is higher beyond
    the tie rule.  beta = 0 wins if the exact grid[0] ties the result.

    The layer aims at overlap + fraction * (O_max - overlap), O_max being the
    best overlap one layer reaches.  It keeps the maximizer, drawing nothing
    from rng, at fraction 1, without gain or at beta = 0.  Otherwise, bracket
    rule: on each side the root nearest the maximizer lies in the cell from
    the nearest grid point reaching the target toward the maximizer, index M
    standing for pi, where g(pi) = g(0); one pass finds the grid points
    reaching the target and a binary search splits them at the maximizer's
    cell.  rng draws the side, uniformly among those with a cell, then only
    that root is searched: newton_bisect on h = target - g^2 left of the
    maximizer and g^2 - target right of it, read as h = 0 within 4 ulps of
    the target, where rounding leaves h no sign to follow.  It starts where
    g^2 - target, linear between the cell's ends (grid points, or the
    maximizer), crosses zero, and steps by Halley's slope h' - h h'' / (2
    h').  best_gamma then gives gamma at the chosen beta by the same tie
    rule, from the B that the root search's last evaluation formed there.
    The count is the number of betas at which the curve was computed: the
    grid and each search's evaluations, plus best_gamma's one unless a root
    search ended at the chosen beta.
    """
    m = BETA_GRID_POINTS
    cell = math.pi / m
    grid = terms.grid(m)
    peak = int(np.argmax(grid >= grid.max() * (1.0 - TIE_TOLERANCE)))
    if peak:
        left, top, right = grid[peak - 1], grid[peak], grid[(peak + 1) % m]
        bend = left - 2.0 * top + right
        offset = min(max(0.5 * (left - right) / bend, -0.5), 0.5) if bend < 0.0 else 0.0
        beta, g, evals = newton_bisect(
            terms.jet, (peak + offset) * cell, (peak - 1) * cell, (peak + 1) * cell, peak=True
        )
    else:
        start = terms.kink_offset()
        if not 0.0 < start < cell:
            start = cell / 2.0
        beta, g, evals = newton_bisect(terms.jet, start, 0.0, cell, peak=True)
        mirror, other, more = newton_bisect(terms.jet, math.pi - start, math.pi - cell, math.pi, peak=True)
        evals += more
        if g < other * (1.0 - TIE_TOLERANCE):
            beta, g = mirror, other
    if grid[0] >= g * (1.0 - TIE_TOLERANCE):
        beta, g = 0.0, float(grid[0])

    gain, b_term = g**2 - overlap, None
    if fraction < 1.0 and beta != 0.0 and gain > 0.0:
        target = overlap + fraction * gain
        floor = 4.0 * math.ulp(target)  # near a root, target - g^2 takes only a few ulps
        reached = np.flatnonzero(grid * grid <= target)
        split = int(np.searchsorted(reached, math.floor(beta / cell) + 1))
        cells = []  # (side, lo, hi, g at lo, g at hi): the left root's, then the right's
        if split:
            i = int(reached[split - 1])
            hi, g_hi = ((i + 1) * cell, grid[i + 1]) if (i + 1) * cell < beta else (beta, g)
            cells.append((1.0, i * cell, hi, grid[i], g_hi))
        if split < reached.size or (reached.size and reached[0] == 0):
            # index m stands for pi, where g(pi) = g(0): reached exactly when index 0 is
            i = int(reached[split]) if split < reached.size else m
            lo, g_lo = ((i - 1) * cell, grid[i - 1]) if (i - 1) * cell > beta else (beta, g)
            cells.append((-1.0, lo, i * cell, g_lo, grid[i % m]))
        if cells:
            side, lo, hi, g_lo, g_hi = cells[rng.integers(len(cells))]

            last = [None]  # B at the last point evaluated, where the search ends

            def excess(b: float) -> tuple[float, float, float]:
                # h = side * (target - g^2) is positive left of the root, and 0 at the floor
                value, slope, curvature, last[0] = terms.jet(b)
                short = target - value * value
                h = side * short if abs(short) > floor else 0.0
                dh = -2.0 * side * value * slope
                ddh = -2.0 * side * (slope * slope + value * curvature)
                return value, h, (dh - h * ddh / (2.0 * dh)) if dh else dh

            y_lo, y_hi = g_lo * g_lo - target, g_hi * g_hi - target
            start = lo + (hi - lo) * (y_lo / (y_lo - y_hi)) if y_lo != y_hi else lo
            if not lo < start < hi:
                start = 0.5 * (lo + hi)
            beta, _, more = newton_bisect(excess, start, lo, hi)
            evals += more
            b_term = last[0]
    g, gamma = terms.best_gamma(beta, b_term)
    return LayerAngles(gamma, beta), g, m + evals + (b_term is None)


def train_layerwise(n: int, max_depth: int, settings: OptimizerSettings | None = None) -> TrainingTrace:
    """Greedy layerwise training: optimize one layer at a time, freeze the rest.
    settings is not read; it stays for callers that pass train_global's to both."""
    return train_cutoff(n, max_depth, 1.0)


def train_cutoff(
    n: int,
    max_depth: int,
    fraction: float,
    rng: np.random.Generator | None = None,
) -> TrainingTrace:
    """Layerwise training limited to a fraction of each layer's maximal gain.

    Per layer the target overlap is O_prev + fraction * (O_max - O_prev), met
    as described for _layer_step.  Greedy layerwise training is the case
    fraction = 1, which draws nothing and needs no rng; below 1 rng is
    required.
    """
    _check_sizes(n, max_depth)
    if isinstance(fraction, bool) or not isinstance(fraction, numbers.Real):
        raise ValueError(f"fraction must be a real number, got {fraction!r}")
    if not 0.0 < fraction <= 1.0:
        raise ValueError(f"fraction must be in (0, 1], got {fraction}")
    if fraction < 1.0 and rng is None:
        raise ValueError("train_cutoff below fraction 1 draws from rng; pass a numpy Generator")
    gen = symcore.mixer(n)
    t = gen.plus
    head = t @ gen.row
    overlap = symcore.reported_overlap(head)
    trace = TrainingTrace(n)
    for _ in range(max_depth):
        t0 = time.perf_counter()
        angles, _, evals = _layer_step(symcore.LayerTerms.from_eigen(t, head), overlap, fraction, rng)
        t, head = gen.layer(t, head, angles.gamma, angles.beta)
        overlap = symcore.reported_overlap(head)
        trace.records.append(LayerRecord(angles, overlap, time.perf_counter() - t0, evals))
    return trace


def _schedule_to_params(schedule) -> np.ndarray:
    out = []
    for layer in schedule:
        angles = symcore._as_angles(layer)
        out.extend([angles.gamma, angles.beta])
    return np.array(out)


@dataclass(frozen=True)
class LockstepResult:
    """lockstep_bfgs's end points: one row per start.

    x, fun and jac are each start's last accepted point, its objective value
    and gradient; reasons says why each start stopped ("gradient",
    "decrease", "line search", "iteration cap", or "bound" for a start still
    running when another converged at the objective's bound); evaluations
    counts the objective's rows over all calls; path[k] holds every start's
    objective after k rounds.
    """

    x: np.ndarray
    fun: np.ndarray
    jac: np.ndarray
    reasons: list[str]
    evaluations: int
    path: np.ndarray


def _first_step(jac: np.ndarray) -> np.ndarray:
    """Step length min(1, 1/|g|) along -g, while H is the identity."""
    return 1.0 / np.maximum(np.linalg.norm(jac, axis=1), 1.0)


def lockstep_bfgs(objective, x0, bound: float) -> LockstepResult:
    """Minimize from every row of x0 at once by BFGS with Armijo backtracking.

    objective maps an (S, m) array of points to their values (S,) and
    gradients (S, m).  Each round makes one objective call on one trial point
    per running start.  Every start keeps its own dense inverse Hessian H,
    steps along d = -H g (-g, with H reset, where that is no descent
    direction), from step 1, or min(1, 1/|g|) while H is the identity, and
    accepts the trial once f falls by ARMIJO times the predicted decrease;
    otherwise the step shrinks by safeguarded quadratic interpolation, to
    between 0.1 and 0.5 of itself.  No start's objective ever rises.  H is
    scaled by s.y / y.y on its first update and skips updates with s.y <= 0.

    A start stops on the first of: max|g| <= STOP_GRADIENT ("gradient"), an
    accepted step decreasing f by at most STOP_DECREASE relative to
    max(|f|, 1) ("decrease"), a shrunk step that no longer moves the point
    ("line search"), or GLOBAL_MAX_ITERATIONS accepted steps ("iteration
    cap").  They mirror the stopping rules of scipy's L-BFGS-B (pgtol, ftol,
    ABNORMAL_TERMINATION_IN_LNSRCH, maxiter).

    bound is the objective's proven minimum (-inf where none is known).  No
    start can end lower, so once a start has stopped on "gradient",
    "decrease" or "line search" within DEFAULT_EPS_ONE of bound, relative to
    |bound|, no further round is made: the starts still running stop where
    they are, on "bound".
    """
    x = np.array(x0, dtype=float)
    starts, size = x.shape
    fun, jac = objective(x)
    evaluations = starts
    identity = np.eye(size)
    hessian = np.broadcast_to(identity, (starts, size, size)).copy()
    fresh = np.ones(starts, dtype=bool)  # H is still the identity
    direction, step = -jac, _first_step(jac)
    iterations = np.zeros(starts, dtype=int)
    reasons = np.where(np.max(np.abs(jac), axis=1) <= STOP_GRADIENT, "gradient", "").astype(object)
    path = [fun.copy()]
    reach = bound + DEFAULT_EPS_ONE * abs(bound) if math.isfinite(bound) else bound

    while (running := reasons == "").any():
        if np.any((fun <= reach) & np.isin(reasons, ("gradient", "decrease", "line search"))):
            reasons[running] = "bound"
            break
        rows = np.flatnonzero(running)
        trial = x[rows] + step[rows, None] * direction[rows]
        values, grads = objective(trial)
        evaluations += rows.size
        predicted = step[rows] * np.einsum("ij,ij->i", jac[rows], direction[rows])
        accept = values <= fun[rows] + ARMIJO * predicted

        # rejected trials: shrink the step to the minimizer of the quadratic
        # through f, the slope and the trial, or stop where it no longer moves
        back, miss = rows[~accept], ~accept
        excess = values[miss] - fun[back] - predicted[miss]
        step[back] *= np.fmax(np.fmin(-0.5 * predicted[miss] / excess, 0.5), 0.1)
        stuck = np.all(x[back] + step[back, None] * direction[back] == x[back], axis=1)
        reasons[back[stuck]] = "line search"

        # accepted trials: update H by BFGS, then take the next direction
        took = rows[accept]
        new_x, new_f, new_g = trial[accept], values[accept], grads[accept]
        s, y = new_x - x[took], new_g - jac[took]
        drop = (fun[took] - new_f) / np.maximum(np.abs(new_f), 1.0)
        x[took], fun[took], jac[took] = new_x, new_f, new_g
        iterations[took] += 1
        h, sy = hessian[took], np.einsum("ij,ij->i", s, y)
        ok = sy > 0.0
        first = ok & fresh[took]
        h[first] *= (sy[first] / np.einsum("ij,ij->i", y[first], y[first]))[:, None, None]
        rho = np.where(ok, 1.0 / np.where(ok, sy, 1.0), 0.0)
        hy = np.einsum("kij,kj->ki", h, y)
        h += (rho + rho * rho * np.einsum("ij,ij->i", y, hy))[:, None, None] * (s[:, :, None] * s[:, None, :])
        h -= rho[:, None, None] * (s[:, :, None] * hy[:, None, :] + hy[:, :, None] * s[:, None, :])
        d = -np.einsum("kij,kj->ki", h, new_g)
        uphill = ~(np.einsum("ij,ij->i", d, new_g) < 0.0)
        h[uphill], d[uphill] = identity, -new_g[uphill]
        fresh[took] = (fresh[took] & ~ok) | uphill
        hessian[took], direction[took] = h, d
        step[took] = np.where(fresh[took], _first_step(new_g), 1.0)
        reasons[took] = np.select(
            [np.max(np.abs(new_g), axis=1) <= STOP_GRADIENT, drop <= STOP_DECREASE,
             iterations[took] >= GLOBAL_MAX_ITERATIONS],
            ["gradient", "decrease", "iteration cap"],
            "",
        )
        path.append(fun.copy())
    return LockstepResult(x, fun, jac, reasons.tolist(), evaluations, np.array(path))


def _global_starts(depth: int, settings: OptimizerSettings, seed_schedules) -> np.ndarray:
    """train_global's (S, 2 depth) starting points: the seed schedules, then
    settings.global_restarts draws from SeedSequence((settings.seed, r))."""
    starts = [_schedule_to_params(s) for s in seed_schedules]
    for i, x0 in enumerate(starts):
        if x0.size != 2 * depth:
            raise ValueError(f"seed schedule {i} has {x0.size // 2} layers, expected {depth}")
    for r in range(settings.global_restarts):
        rng = np.random.default_rng(np.random.SeedSequence((settings.seed, r)))
        gammas = rng.uniform(0.0, 2.0 * math.pi, depth)
        betas = rng.uniform(0.0, math.pi, depth)
        starts.append(np.column_stack([gammas, betas]).ravel())
    return np.array(starts)


def _global_objective(n: int):
    """f = -2^n |A_0|^2 and its gradient, batched over rows of params.

    Overlaps shrink like 2^-n and the stopping rules are absolute where
    |f| < 1, so train_global minimizes the overlap in units of |+>^n's.
    """
    gen, scale = symcore.mixer(n), 2.0**n

    def objective(params: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        values, grads = gen.neg_overlap(params)
        return scale * values, scale * grads

    return objective


def train_global(
    n: int,
    depth: int,
    settings: OptimizerSettings | None = None,
    seed_schedules=(),
) -> TrainingTrace:
    """Multistart BFGS over all 2p angles at once, on adjoint gradients.

    The starts are the extra starting schedules (e.g. a greedy solution), each
    of exactly depth layers, then settings.global_restarts points uniform in
    the principal ranges, drawn from SeedSequence((settings.seed, r)).  All
    of them run in lockstep (lockstep_bfgs) on f = -2^n |A_0|^2 and its exact
    gradient, one batched MixerGenerator.neg_overlap call per round.  The
    bound is -2^n, overlap 1, so the run ends once a start has converged at
    an overlap of at least 1 - DEFAULT_EPS_ONE, and the starts still running
    stop on "bound".  The best end point is kept, the first of equal ones;
    it is the global optimum to DEFAULT_EPS_ONE when its overlap reaches
    1 - DEFAULT_EPS_ONE, and is never claimed to be one otherwise.

    No start's f ever rises, so every end point is a candidate, whatever made
    it stop.  Near the largest overlap 1 backtracking can no longer resolve a
    decrease against rounding, and some starts stop on "line search"; their
    end points are kept like the others.  Convergence is checked on the
    winner instead: RuntimeError, naming why the winner stopped, is raised
    unless |grad f| / |f| is at most GLOBAL_GRADIENT_TOLERANCE there.  The
    per-depth overlap profile of the winner, with its angles reduced to the
    principal ranges, is read from the heads of one MixerGenerator.forward;
    the run's wall time and the objective evaluations of all starts are
    carried on the final record.
    """
    _check_sizes(n, depth)
    t0 = time.perf_counter()
    settings = settings or OptimizerSettings()
    result = lockstep_bfgs(_global_objective(n), _global_starts(depth, settings, seed_schedules), -(2.0**n))
    best = int(np.argmin(result.fun))
    slope = float(np.linalg.norm(result.jac[best]) / abs(result.fun[best]))
    if slope > GLOBAL_GRADIENT_TOLERANCE:
        raise RuntimeError(
            f"train_global({n}, {depth}): best end point has relative gradient norm {slope:.3g} "
            f"> {GLOBAL_GRADIENT_TOLERANCE} (start {best} stopped on {result.reasons[best]})"
        )

    angles = [LayerAngles(gamma, beta) for gamma, beta in result.x[best].reshape(depth, 2)]
    gen = symcore.mixer(n)
    _, heads = gen.forward(gen.plus, [a.gamma for a in angles], [a.beta for a in angles])
    overlaps = [symcore.reported_overlap(head) for head in heads[1:]]
    trace = TrainingTrace(n, [LayerRecord(a, o, 0.0, 0) for a, o in zip(angles[:-1], overlaps)])
    trace.records.append(LayerRecord(angles[-1], overlaps[-1], time.perf_counter() - t0, result.evaluations))
    return trace


def train_layerwise_noisy(
    n: int,
    max_depth: int,
    noise: NoiseConfig,
    rng: np.random.Generator | None = None,
) -> TrainingTrace:
    """Greedy layerwise training with frozen coherent noise per layer.

    When a layer is appended its noise is sampled once and frozen
    (densecore.sample_layer_noise), so the layer is optimized against a
    fixed systematic error; earlier layers keep their own frozen noise.
    Every noise event acts on one qubit, so the circuit's state after p
    layers is a sum of p + 1 product states (densecore.ProductSum), never
    its 2^n amplitudes.  ProductSum.layer applies the layer's noise before
    its mixer once; the target amplitude still splits as A(beta)
    exp(-i*gamma) + B(beta) (NoisyLayer.terms), so the layer takes the
    noiseless trainers' _layer_step at fraction 1, and NoisyLayer.apply
    sends the same pre-noised rows through the chosen layer.  Like
    train_cutoff's (t, head), the trainer carries the product sum and its
    reported_overlap of head, which is recorded and is the next step's
    current overlap; only densecore reads the noise.  The noise is drawn
    from rng, which is required.
    """
    _check_sizes(n, max_depth)
    if rng is None:
        raise ValueError("train_layerwise_noisy draws its noise from rng; pass a numpy Generator")

    state = densecore.ProductSum.plus(n)
    overlap = symcore.reported_overlap(state.head)
    trace = TrainingTrace(n)
    for _ in range(max_depth):
        t0 = time.perf_counter()
        layer = state.layer(densecore.sample_layer_noise(n, noise, rng))
        angles, _, evals = _layer_step(layer.terms(), overlap, 1.0, rng)
        state = layer.apply(angles.gamma, angles.beta)
        overlap = symcore.reported_overlap(state.head)
        trace.records.append(LayerRecord(angles, overlap, time.perf_counter() - t0, evals))
    return trace
