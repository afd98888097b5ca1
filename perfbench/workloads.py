"""Workloads: job lists made from the seed alone, the job loop and output checks.

A job is one call of a public trainer in ``satlab.training`` with the
arguments and per-trial generator ``SeedSequence((seed, grid index, trial
index))`` that ``satlab.harness`` would use for the same cell.  Every call into
satlab goes through a module attribute (``training.train_layerwise``,
``analysis.detect_saturation``, ...), so the tracer can swap it.
"""

from __future__ import annotations

import math
import statistics
import traceback
from dataclasses import dataclass, field
from time import perf_counter

import numpy as np

import calibration
from satlab import analysis, densecore, harness, symcore, training
from satlab.densecore import NoiseConfig
from satlab.training import OptimizerSettings, TrainingTrace

GREEDY_N = range(3, 41)
GREEDY_PROBES = 3
CUTOFF_FRACTIONS = (0.6, 0.7, 0.8, 0.9)
CUTOFF_TRIALS = 25
NOISE_P = (0.0, 0.1, 0.3, 0.5)
NOISE_TRIALS_N4 = 6
NOISE_TRIALS_N8 = 1
NOISE_P_N8 = 0.1

# Output checks.  Noiseless schedules are replayed on the 2^n oracle up to
# this size and on the Dicke simulator above it.
REPLAY_DENSE_MAX_N = 12
REPLAY_RTOL = 1e-9
NOISY_REPLAY_ATOL = 1e-12
NOISELESS_MATCH_ATOL = 1e-8
GLOBAL_DOMINANCE_ATOL = 1e-12
P_STAR_CHECK_MAX_N = 10

# calibration samples on each side of a job that set its slowness
SLOWNESS_WINDOW = 10


@dataclass(frozen=True)
class Job:
    label: str
    trainer: str
    args: tuple
    kwargs: dict = field(default_factory=dict)
    rng_key: tuple | None = None  # SeedSequence entropy of the per-trial generator
    seeded_by: int | None = None  # index of the job whose schedule seeds train_global
    probes: tuple = ()  # states for trainability_probe after saturation analysis


@dataclass(frozen=True)
class Workload:
    name: str
    jobs: list
    mixer_ns: tuple
    hamming_ns: tuple
    harness_config: dict  # reduced-size harness.run_experiment for the traced run


@dataclass
class Result:
    job: Job
    time_s: float  # the trainer call
    step_s: float  # the trainer call and the analysis that follows it
    trace: TrainingTrace | None
    p_star: int | None = None
    error: str | None = None
    slowness: float = 1.0  # machine slowness measured around the job, see calibration

    @property
    def overlap(self) -> float:
        return float(self.trace.records[-1].overlap)

    def numbers(self) -> dict:
        """The job's result numbers, without timings."""
        out = {"label": self.job.label, "trainer": self.job.trainer}
        if self.trace is not None:
            out.update(
                overlap=self.overlap,
                p_star=self.p_star,
                evaluations=sum(r.evaluations for r in self.trace.records),
                status=self.trace.status,
            )
        if self.error is not None:
            out["error"] = self.error
        return out


def trial_rng(key: tuple) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence(key))


def greedy_sweep(seed: int) -> Workload:
    """Saturation figure: greedy layerwise training for n = 3..40, shuffled."""
    rng = np.random.default_rng(seed)
    jobs = []
    for n in rng.permutation(np.array(GREEDY_N)):
        n = int(n)
        probes = tuple(symcore.random_symmetric_state(n, rng) for _ in range(GREEDY_PROBES))
        jobs.append(Job(f"greedy n={n}", "train_layerwise", (n, n + 2), probes=probes))
    return Workload(
        "greedy-sweep",
        jobs,
        mixer_ns=tuple(GREEDY_N),
        hamming_ns=(),
        harness_config=dict(kind="saturation", n_min=3, n_max=12),
    )


def scalar_search(seed: int) -> Workload:
    """Cutoff trials (single-beta root finding) plus the compare cell."""
    jobs = [
        Job(f"cutoff f={fraction} t={ti}", "train_cutoff", (4, 8, fraction), rng_key=(seed, gi, ti))
        for gi, fraction in enumerate(CUTOFF_FRACTIONS)
        for ti in range(CUTOFF_TRIALS)
    ]
    # the compare cell sits mid-list, so calibration samples surround its
    # long train_global job on both sides
    settings = OptimizerSettings(seed=seed)
    mid = len(jobs) // 2
    jobs[mid:mid] = [
        Job("compare layerwise", "train_layerwise", (4, 6), {"settings": settings}),
        Job("compare global", "train_global", (4, 6), {"settings": settings}, seeded_by=mid),
    ]
    return Workload(
        "scalar-search",
        jobs,
        mixer_ns=(4,),
        hamming_ns=(),
        harness_config=dict(kind="cutoff", n=4, depth=8, fractions=(0.6, 0.9), trials=4),
    )


def noisy_dense(seed: int) -> Workload:
    """Noisy layerwise trials on the dense simulator, mostly the default n=4 cell."""
    # grid indices are those of the harness's default noise p grid; the
    # bit-flip contrast uses 1000 + grid index, as run_noise_experiment does
    p_grid = harness.ExperimentConfig(kind="noise").p_grid
    cells = []
    for p in NOISE_P:
        gi = p_grid.index(p)
        cells.append((4, NoiseConfig(p), gi, NOISE_TRIALS_N4))
        if p > 0.0:
            cells.append((4, NoiseConfig(p, granularity="single_qubit"), gi, NOISE_TRIALS_N4))
            cells.append((4, NoiseConfig(p, kind="bitflip"), 1000 + gi, NOISE_TRIALS_N4))
    gi = p_grid.index(NOISE_P_N8)
    for granularity in ("layer", "single_qubit"):
        cells.append((8, NoiseConfig(NOISE_P_N8, granularity=granularity), gi, NOISE_TRIALS_N8))
    jobs = [
        Job(
            f"noisy n={n} p={noise.p_noise} {noise.granularity} {noise.kind} t={ti}",
            "train_layerwise_noisy",
            (n, n, noise),
            rng_key=(seed, gi, ti),
        )
        for n, noise, gi, trials in cells
        for ti in range(trials)
    ]
    return Workload(
        "noisy-dense",
        jobs,
        mixer_ns=(4, 8),
        hamming_ns=(4, 8),
        harness_config=dict(kind="noise", n=4, p_grid=(0.0, 0.3), trials=3),
    )


WORKLOADS = {"greedy-sweep": greedy_sweep, "scalar-search": scalar_search, "noisy-dense": noisy_dense}


def warm(workload: Workload):
    """Fill the caches the workload needs and run each trainer once, tiny."""
    for n in workload.mixer_ns:
        symcore.mixer(n)
    for n in workload.hamming_ns:
        densecore.hamming_weights(n)
    training.train_layerwise(3, 2)
    training.train_cutoff(3, 2, 0.8, rng=trial_rng((0,)))
    training.train_global(3, 1, OptimizerSettings(global_restarts=1))
    training.train_layerwise_noisy(3, 1, NoiseConfig(0.5), rng=trial_rng((0,)))


def run_job(job: Job, done: list[Result]) -> Result:
    """Run one job; only the trainer call is inside the job timer."""
    start = perf_counter()
    try:
        kwargs = dict(job.kwargs)
        if job.rng_key is not None:
            kwargs["rng"] = trial_rng(job.rng_key)
        if job.seeded_by is not None:
            kwargs["seed_schedules"] = [done[job.seeded_by].trace.schedule()]
        trainer = getattr(training, job.trainer)
        start = perf_counter()
        trace = trainer(*job.args, **kwargs)
        time_s = perf_counter() - start
        p_star = None
        if job.probes:
            report = analysis.detect_saturation(trace, eps_sat=harness.KNEE_EPS_SAT)
            p_star = report.p_star
            analysis.check_conditions(symcore.run_schedule(trace.n, trace.schedule()))
            for state in job.probes:
                analysis.trainability_probe(state)
    except Exception:  # a failed job is counted against fail_ratio; the run goes on
        elapsed = perf_counter() - start
        return Result(job, elapsed, elapsed, None, error=traceback.format_exc())
    return Result(job, time_s, perf_counter() - start, trace, p_star)


def run_pass(jobs: list[Job], tracer=None) -> tuple[float, list[Result]]:
    """All of a workload's jobs, one at a time; returns (wall seconds, results)."""
    results = []
    start = perf_counter()
    slowness = [calibration.slowness()]
    for i, job in enumerate(jobs):
        if tracer is not None:
            tracer.job = i
        results.append(run_job(job, results))
        slowness.append(calibration.slowness())
    wall = perf_counter() - start
    # job i ran between samples i and i + 1; a median over the samples around
    # it follows slow stretches of seconds and smooths the kernel's own jitter
    for i, result in enumerate(results):
        window = slowness[max(0, i + 1 - SLOWNESS_WINDOW) : i + 1 + SLOWNESS_WINDOW]
        result.slowness = statistics.median(window)
    return wall, results


class Checker:
    """Output checks, run after the timed passes."""

    def __init__(self):
        self._noiseless = {}

    def noiseless_overlap(self, n: int) -> float:
        if n not in self._noiseless:
            self._noiseless[n] = float(training.train_layerwise(n, n).overlaps()[-1])
        return self._noiseless[n]

    def failure(self, result: Result, results: list[Result]) -> str | None:
        """Why the job's output is wrong, or None when every check passes."""
        if result.error is not None:
            return result.error
        job, trace = result.job, result.trace
        ovs = trace.overlaps()
        if not np.all(np.isfinite(ovs)) or ovs.min() < 0.0 or ovs.max() > 1.0:
            return f"overlap outside [0, 1]: {ovs.tolist()}"
        n, final = trace.n, result.overlap
        if job.trainer == "train_layerwise_noisy":
            noise = job.args[2]
            replay = densecore.overlap_dense(
                densecore.run_schedule_dense(n, trace.schedule(), noise, trial_rng(job.rng_key))
            )
            if abs(replay - final) > NOISY_REPLAY_ATOL:
                return f"noisy replay gives {replay!r}, trainer reported {final!r}"
            if noise.p_noise == 0.0:
                ref = self.noiseless_overlap(n)
                if abs(final - ref) > NOISELESS_MATCH_ATOL:
                    return f"p=0 trial reached {final!r}, train_layerwise reaches {ref!r}"
            return None
        if n <= REPLAY_DENSE_MAX_N:
            replay = densecore.overlap_dense(densecore.run_schedule_dense(n, trace.schedule()))
        else:
            replay = symcore.overlap(symcore.run_schedule(n, trace.schedule()))
        if not math.isclose(replay, final, rel_tol=REPLAY_RTOL, abs_tol=0.0):
            return f"replay gives {replay!r}, trainer reported {final!r}"
        if job.probes and n <= P_STAR_CHECK_MAX_N and result.p_star != n:
            return f"p_star = {result.p_star}, expected {n}"
        if job.seeded_by is not None:
            seed_overlap = results[job.seeded_by].overlap
            if final < seed_overlap - GLOBAL_DOMINANCE_ATOL:
                return f"global optimum {final!r} below its greedy seed {seed_overlap!r}"
        return None
