"""Saturation detection, necessary-condition checks, and schedule diagnostics."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import symcore
from .symcore import SymmetricState, _check_integer, binomial_sqrt
from .training import DEFAULT_EPS_ONE, DEFAULT_EPS_SAT, TrainingTrace, _layer_step


@dataclass(frozen=True)
class SaturationReport:
    """Outcome of saturation detection on a training trace.

    p_star is the smallest depth whose next layer improves the overlap by at
    most eps_sat while the overlap is still short of 1, or None.  The
    amplitude diagnostics describe the depth-p_star state.
    """

    p_star: int | None
    overlap_at_p_star: float | None
    improvement_after: float | None
    beta_after: float | None
    a1_magnitude: float | None
    a2_magnitude: float | None
    a2_bound: float | None
    eps_sat: float
    eps_one: float


@dataclass(frozen=True)
class ConditionCheck:
    """Necessary non-trainability conditions on a symmetric state.

    condition1: |A_1| vanishes.  condition2: |A_2| does not exceed
    sqrt(2n/(n-1)) * |A_0|.  Both are evaluated with an additive tolerance and
    the bound is non-strict.  For n = 1 there is no A_2: the bound is None and
    condition 2 passes.
    """

    a1_magnitude: float
    a2_magnitude: float
    a2_bound: float | None
    condition1_pass: bool
    condition2_pass: bool
    tolerance: float


@dataclass(frozen=True)
class BetaScheduleStats:
    """First-layer angle, its deviation from pi/n, and decay diagnostics.

    Angles are reported as effective magnitudes (distance to the nearest
    trivial angle 0 or pi), since a mixer angle near pi equals a small
    negative rotation up to a global sign.
    """

    n: int
    beta_first: float
    beta_first_target: float
    beta_first_rel_dev: float
    decrease_violations: int
    beta_final: float


def effective_beta(beta: float) -> float:
    """Magnitude of the equivalent mixer rotation, in [0, pi/2]."""
    b = float(beta) % math.pi
    return b if b <= math.pi / 2.0 else math.pi - b


def detect_saturation(
    trace: TrainingTrace,
    eps_sat: float = DEFAULT_EPS_SAT,
    eps_one: float = DEFAULT_EPS_ONE,
) -> SaturationReport:
    """Find the smallest depth past which one more layer gains at most eps_sat.

    Amplitude diagnostics come from replaying the recorded schedule without
    noise, so they describe the ideal circuit even on noisy traces.
    """
    if trace.depth < 2:
        raise ValueError("saturation detection needs a trace of depth >= 2")
    ovs = trace.overlaps()
    for c in range(1, trace.depth):
        improvement = float(ovs[c] - ovs[c - 1])
        if improvement <= eps_sat and ovs[c - 1] < 1.0 - eps_one:
            state = symcore.run_schedule(trace.n, trace.schedule()[:c])
            check = check_conditions(state)
            return SaturationReport(
                p_star=c,
                overlap_at_p_star=float(ovs[c - 1]),
                improvement_after=improvement,
                beta_after=float(trace.records[c].angles.beta),
                a1_magnitude=check.a1_magnitude,
                a2_magnitude=check.a2_magnitude,
                a2_bound=check.a2_bound,
                eps_sat=eps_sat,
                eps_one=eps_one,
            )
    return SaturationReport(None, None, None, None, None, None, None, eps_sat, eps_one)


def check_conditions(state: SymmetricState, tol: float = 1e-6) -> ConditionCheck:
    """Evaluate both necessary non-trainability conditions with tolerance."""
    n = state.n
    a0 = abs(state.amps[0])
    a1 = abs(state.amps[1])
    a2 = abs(state.amps[2]) if n >= 2 else 0.0
    bound = float(math.sqrt(2.0 * n / (n - 1.0)) * a0) if n >= 2 else None
    return ConditionCheck(
        a1_magnitude=float(a1),
        a2_magnitude=float(a2),
        a2_bound=bound,
        condition1_pass=bool(a1 <= tol),
        condition2_pass=bound is None or bool(a2 <= bound + tol),
        tolerance=tol,
    )


def trainability_probe(state: SymmetricState) -> tuple[float, float]:
    """Best overlap gain of one extra optimized layer and the maximizing beta.

    Gain 0 with beta 0 means the optimizer found no improving angle; by the
    smallest-beta tie rule a flat or non-improving landscape reports exactly
    (0, 0).
    """
    overlap = symcore.overlap(state)
    angles, g, _ = _layer_step(symcore.layer_terms(state), overlap, 1.0, None)
    gain = g**2 - overlap
    if angles.beta == 0.0 or gain <= 0.0:
        return 0.0, 0.0
    return float(gain), float(angles.beta)


def make_nontrainable_state(
    n: int, a0: float, a2: float, phases: tuple[float, float] = (0.0, 0.0)
) -> SymmetricState:
    """Member of the two-component non-trainable family.

    The state a0*e^{i phase0}|e_0> + a2*e^{i phase2}|e_2> cannot be improved by
    one QAOA layer whenever a2 <= a0 / sqrt(C(n,2)); moduli outside that bound
    are rejected, and SymmetricState refuses non-normalized pairs.
    """
    _check_integer("n", n, 2)
    if a0 < 0 or a2 < 0:
        raise ValueError("moduli must be nonnegative")
    c2 = binomial_sqrt(n)[2]
    if a2 > a0 / c2 * (1.0 + 1e-12) + 1e-15:
        raise ValueError(f"a2 = {a2} exceeds the non-trainability bound a0/sqrt(C(n,2)) = {a0 / c2}")
    amps = np.zeros(n + 1, dtype=complex)
    amps[0] = a0 * np.exp(1j * phases[0])
    amps[2] = a2 * np.exp(1j * phases[1])
    return SymmetricState(n, amps)


def beta_schedule_stats(trace: TrainingTrace) -> BetaScheduleStats:
    """Summarize a layerwise beta schedule of depth at least n + 1."""
    n = trace.n
    if trace.depth < n + 1:
        raise ValueError(f"need a trace of depth >= n + 1 = {n + 1}, got {trace.depth}")
    betas = np.array([effective_beta(b) for b in trace.betas()])
    target = math.pi / n
    violations = int(np.sum(np.diff(betas) > 0.0))
    return BetaScheduleStats(
        n=n,
        beta_first=float(betas[0]),
        beta_first_target=target,
        beta_first_rel_dev=float(abs(betas[0] - target) / target),
        decrease_violations=violations,
        beta_final=float(betas[n]),
    )
