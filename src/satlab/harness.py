"""Experiment runner: seeded, reproducible figure-data generation.

Each experiment orchestrates the library modules and emits a ResultTable with
a fixed column schema and a JSON metadata header.  Trials are embarrassingly
parallel: one pool, capped at the run's total trial count and the CPU count,
serves the whole run, and per-trial generators are derived from (master seed,
grid index, trial index), so results do not depend on worker count or scheduling.
"""

from __future__ import annotations

import csv
import dataclasses
import io
import json
import math
import os
import sys
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field, fields

import numpy as np

from . import __version__, analysis, densecore, symcore, training
from .densecore import NoiseConfig
from .training import OptimizerSettings

# Exact layerwise gains collapse by about three orders of magnitude at the
# saturation depth (from >= 1.5e-4 to <= 7e-5 for n up to 10), so 1e-4 sits
# inside the detection window for the whole supported range.
KNEE_EPS_SAT = 1e-4

FORMATS = ("csv", "json")
# settings every experiment takes; of these, metadata() echoes seed and fmt
COMMON_FIELDS = ("seed", "out", "fmt", "workers")


@dataclass(frozen=True)
class PerQubit:
    """A default of `factor` times the qubit count n."""

    factor: int

    def __call__(self, n: int) -> int:
        return self.factor * n

    def __str__(self) -> str:
        return "n" if self.factor == 1 else f"{self.factor}n"


# Each experiment: the fields its runner reads, with their per-kind defaults.
# A field's check and CLI help are declared on ExperimentConfig.  The config,
# the CLI options and the metadata echo read both.
KINDS = {
    "saturation": {"n_min": 3, "n_max": 10, "eps_sat": KNEE_EPS_SAT},
    "compare": {"n": 4, "depth": 6},
    "cutoff": {"n": 4, "depth": PerQubit(2), "trials": 100,
               "fractions": tuple(round(0.5 + 0.05 * i, 2) for i in range(11))},
    "noise": {"n": 4, "depth": PerQubit(1), "trials": 100,
              "p_grid": tuple(round(x, 6) for x in np.linspace(0.0, 0.5, 21)),
              "noise_stddev": 1.0, "noise_granularity": "layer", "bitflip_contrast": False},
    "betas": {"n_min": 4, "n_max": 8},
    "conditions": {"n": 10, "depth": PerQubit(1)},
}
EXPERIMENT_KINDS = tuple(KINDS)


class ConfigError(ValueError):
    """Invalid experiment configuration."""


def _is_number(value) -> bool:
    # bool is an int subclass, but a flag is not a number; nor is an int that
    # no float can hold (math.isfinite raises OverflowError on it)
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        return False
    return isinstance(value, float) or abs(value) <= sys.float_info.max


def _grid(inside):
    return lambda values: (
        isinstance(values, (tuple, list))
        and len(values) > 0
        and all(_is_number(v) and inside(v) for v in values)
    )


# bool is an int subclass, and a float n fails deep in the compute, hence type() is int
_POSITIVE = (lambda v: type(v) is int and v >= 1, "an integer >= 1")
_QUBITS = (
    lambda v: type(v) is int and 1 <= v <= symcore.MAX_SYMMETRIC_QUBITS,
    f"an integer in [1, {symcore.MAX_SYMMETRIC_QUBITS}], past which 2^-n is not a normal float64",
)
_NONNEGATIVE = (lambda v: _is_number(v) and math.isfinite(v) and v >= 0.0, "a finite number >= 0")


def _field(check, help: str, default=None, **cli):
    """A config field declared once: check is (test of its value, what the
    value must be), help its CLI help; cli holds its choices or metavar."""
    return field(default=default, metadata={"check": check, "help": help, **cli})


def _choice(values: tuple, help: str, default=None):
    return _field((lambda v: v in values, f"one of {values}"), help, default, choices=values)


@dataclass
class ExperimentConfig:
    """Settings of one experiment; a field its kind does not read stays None."""

    kind: str
    n: int | None = _field(_QUBITS, "Qubit count.")
    n_min: int | None = _field(_POSITIVE, "Smallest qubit count.")
    n_max: int | None = _field(_QUBITS, "Largest qubit count.")
    depth: int | None = _field(_POSITIVE, "Circuit depth.")
    trials: int | None = _field(_POSITIVE, "Random trials per grid point.")
    p_grid: tuple[float, ...] | None = _field(
        (_grid(lambda p: 0.0 <= p <= 1.0), "a non-empty list of numbers in [0, 1]"),
        "Comma-separated noise probabilities in [0, 1].",
    )
    fractions: tuple[float, ...] | None = _field(
        (_grid(lambda f: 0.0 < f <= 1.0), "a non-empty list of numbers in (0, 1]"),
        "Comma-separated cutoff fractions in (0, 1].",
    )
    seed: int = _field((lambda v: type(v) is int and v >= 0, "an integer >= 0"), "Master seed.", default=0)
    out: str | None = _field(
        (lambda v: v is None or isinstance(v, str), "a file path"), "Output file path.", metavar="FILE"
    )
    fmt: str = _choice(FORMATS, "Output format.", default="csv")
    workers: int = _field(
        _POSITIVE, "Processes of the one pool per run, capped at its total trial and CPU counts.", default=1
    )
    eps_sat: float | None = _field(_NONNEGATIVE, "Improvement threshold for saturation detection.")
    noise_stddev: float | None = _field(_NONNEGATIVE, "Standard deviation of the noise phase.")
    noise_granularity: str | None = _choice(
        densecore.GRANULARITIES, "Noise after each layer or after each gate."
    )
    bitflip_contrast: bool | None = _field(
        (lambda v: type(v) is bool, "true or false"), "Also run the bit-flip contrast at each probability."
    )

    def __post_init__(self):
        if self.kind not in EXPERIMENT_KINDS:
            raise ConfigError(f"unknown experiment kind {self.kind!r}")
        reads = KINDS[self.kind]
        for f in fields(self):
            if f.name not in ("kind", *COMMON_FIELDS, *reads) and getattr(self, f.name) is not None:
                raise ConfigError(f"{self.kind} does not read {f.name}; it reads {', '.join(reads)}")
        # in table order, so n is checked before a default depth reads it
        for name, default in reads.items():
            if getattr(self, name) is None:
                setattr(self, name, default(self.n) if callable(default) else default)
            self._check(name)
        for name in COMMON_FIELDS:
            self._check(name)
        if "n_min" in reads and self.n_max < self.n_min:
            raise ConfigError(f"bad n range [{self.n_min}, {self.n_max}]")
        if self.out and os.path.isdir(self.out):
            raise ConfigError(f"out {self.out} is a directory, not a file")
        if self.out and not os.path.isdir(os.path.dirname(os.path.abspath(self.out))):
            raise ConfigError(f"output directory of {self.out} does not exist")

    def _check(self, name: str):
        test, what = self.__dataclass_fields__[name].metadata["check"]
        value = getattr(self, name)
        if not test(value):
            raise ConfigError(f"{name} must be {what}, got {value!r}")
        if isinstance(value, list):
            setattr(self, name, tuple(value))

    def metadata(self) -> dict:
        """Config echo for output headers: kind, seed, format and the kind's fields."""
        meta = {name: getattr(self, name) for name in ("kind", "seed", "fmt", *KINDS[self.kind])}
        meta["version"] = __version__
        return meta


@dataclass
class ResultTable:
    columns: list[str]
    rows: list[list] = field(default_factory=list)
    metadata: dict = field(default_factory=dict)

    def validate(self):
        for row in self.rows:
            if len(row) != len(self.columns):
                raise ValueError(f"row width {len(row)} != schema width {len(self.columns)}")
            for value in row:
                if isinstance(value, float) and not math.isfinite(value):
                    raise ValueError(f"non-finite value in row {row}")
        try:  # the metadata is written as JSON, which has no non-finite numbers
            json.dumps(self.metadata, allow_nan=False)
        except ValueError:
            raise ValueError(f"non-finite value in metadata {self.metadata}") from None

    def to_csv(self) -> str:
        self.validate()
        buf = io.StringIO()
        buf.write("#" + json.dumps(self.metadata, sort_keys=True) + "\n")
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(self.columns)
        for row in self.rows:
            writer.writerow(["" if v is None else _fmt(v) for v in row])
        return buf.getvalue()

    def to_json(self) -> str:
        self.validate()
        return json.dumps(
            {"metadata": self.metadata, "columns": self.columns, "rows": self.rows},
            sort_keys=True,
        )

    def write(self, path: str, fmt: str = "csv"):
        text = self.to_csv() if fmt == "csv" else self.to_json()
        with open(path, "w", newline="") as fh:
            fh.write(text)


def _fmt(value) -> str:
    if isinstance(value, float):
        return f"{value:.17g}"
    return str(value)


def _run_trials(worker, args, workers: int) -> list:
    # the pool starts all its processes at once, so never more than there is work or CPUs;
    # each gets one contiguous chunk, as a round trip per trial costs about what the trial does
    workers = min(workers, len(args), os.cpu_count() or 1)
    if workers <= 1:
        return [worker(a) for a in args]
    with ProcessPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(worker, args, chunksize=math.ceil(len(args) / workers)))


def _top_fraction(finals):
    """Best/mean/worst of the ceil(0.1 * len(finals)) best trials."""
    k = max(1, math.ceil(0.1 * len(finals)))
    top = np.sort(np.asarray(finals))[-k:]
    return float(top[-1]), float(np.mean(top)), float(top[0])


def run_saturation_experiment(config: ExperimentConfig) -> ResultTable:
    """Layerwise saturation depth per n.

    Columns: n, depth, overlap, improvement, p_star (empty when undetected).
    """
    table = ResultTable(
        ["n", "depth", "overlap", "improvement", "p_star"], metadata=config.metadata()
    )
    for n in range(config.n_min, config.n_max + 1):
        trace = training.train_layerwise(n, n + 2)
        report = analysis.detect_saturation(trace, eps_sat=config.eps_sat)
        ovs = trace.overlaps()
        imps = trace.improvements()
        for d in range(trace.depth):
            table.rows.append([n, d + 1, float(ovs[d]), float(imps[d]), report.p_star])
    return table


def run_compare_experiment(config: ExperimentConfig) -> ResultTable:
    """Layerwise vs global training, per-depth overlap profiles.

    Columns: depth, layerwise_overlap, global_overlap (winning schedule profile).
    The global run stops once a start converges at overlap 1 (to
    training.DEFAULT_EPS_ONE); the winner is then one of several optimal
    schedules, so the profile's rows before the last depend on which start
    got there first.
    """
    settings = OptimizerSettings(seed=config.seed)
    layerwise = training.train_layerwise(config.n, config.depth)
    global_trace = training.train_global(
        config.n, config.depth, settings, seed_schedules=[layerwise.schedule()]
    )
    table = ResultTable(
        ["depth", "layerwise_overlap", "global_overlap"], metadata=config.metadata()
    )
    lw, gl = layerwise.overlaps(), global_trace.overlaps()
    for d in range(config.depth):
        table.rows.append([d + 1, float(lw[d]), float(gl[d])])
    return table


def _trial(args) -> float:
    """Final overlap of one trainer run; setting is its fraction or NoiseConfig."""
    trainer, n, depth, setting, seed, grid_index, trial_index = args
    rng = np.random.default_rng(np.random.SeedSequence((seed, grid_index, trial_index)))
    return float(trainer(n, depth, setting, rng=rng).overlaps()[-1])


def _top10(trainer, config: ExperimentConfig, cells) -> list:
    """_top_fraction of config.trials runs per (grid index, setting) cell, all in one _run_trials call."""
    n, depth, seed, k = config.n, config.depth, config.seed, config.trials
    args = [(trainer, n, depth, setting, seed, gi, t) for gi, setting in cells for t in range(k)]
    finals = _run_trials(_trial, args, config.workers)
    return [_top_fraction(finals[i:i + k]) for i in range(0, len(finals), k)]


def run_cutoff_experiment(config: ExperimentConfig) -> ResultTable:
    """Cutoff-limited layerwise training over a fraction grid.

    Columns: fraction, top10_best, top10_mean, top10_worst, baseline_final.
    baseline_final is the deterministic fraction-1 overlap at the same depth;
    the fraction-1 overlap at depth n (the saturated plateau) is in metadata.
    """
    n, depth = config.n, config.depth
    # a greedy layer depends only on the layers before it, so one run gives both
    greedy = training.train_layerwise(n, max(depth, n)).overlaps()
    baseline, plateau = float(greedy[depth - 1]), float(greedy[n - 1])
    meta = config.metadata()
    meta["baseline_saturated_overlap"] = plateau
    table = ResultTable(
        ["fraction", "top10_best", "top10_mean", "top10_worst", "baseline_final"],
        metadata=meta,
    )
    cells = [(gi, fraction) for gi, fraction in enumerate(config.fractions) if fraction < 1.0]
    tops = iter(_top10(training.train_cutoff, config, cells))
    for fraction in config.fractions:
        best, mean, worst = next(tops) if fraction < 1.0 else _top_fraction([baseline] * config.trials)
        table.rows.append([float(fraction), best, mean, worst, baseline])
    return table


def run_noise_experiment(config: ExperimentConfig) -> ResultTable:
    """Layerwise training under coherent phase noise.

    Columns: p, top10_best, top10_mean, top10_worst, noiseless_overlap,
    bitflip_top10_best (empty unless the contrast flag is on).
    """
    n, depth = config.n, config.depth
    noiseless = float(training.train_layerwise(n, depth).overlaps()[-1])
    table = ResultTable(
        ["p", "top10_best", "top10_mean", "top10_worst", "noiseless_overlap", "bitflip_top10_best"],
        metadata=config.metadata(),
    )
    points = len(config.p_grid)
    phase = [NoiseConfig(p, config.noise_stddev, config.noise_granularity) for p in config.p_grid]
    # the bit-flip trials' grid indices start past every phase trial's
    flips = [dataclasses.replace(noise, kind="bitflip") for noise in phase] if config.bitflip_contrast else []
    cells = [*enumerate(phase), *((max(1000, points) + gi, flip) for gi, flip in enumerate(flips))]
    tops = _top10(training.train_layerwise_noisy, config, cells)
    flip_bests = [top[0] for top in tops[points:]] or [None] * points
    for p, (best, mean, worst), flip_best in zip(config.p_grid, tops[:points], flip_bests):
        table.rows.append([float(p), best, mean, worst, noiseless, flip_best])
    return table


def run_betas_experiment(config: ExperimentConfig) -> ResultTable:
    """Optimal mixer angles of depth-(n+1) layerwise runs.

    Columns: n, depth, beta, beta_effective; per-n schedule stats in metadata.
    """
    meta = config.metadata()
    stats = {}
    table = ResultTable(["n", "depth", "beta", "beta_effective"], metadata=meta)
    for n in range(config.n_min, config.n_max + 1):
        trace = training.train_layerwise(n, n + 1)
        summary = analysis.beta_schedule_stats(trace)
        stats[str(n)] = {
            "beta_first": summary.beta_first,
            "beta_first_rel_dev": summary.beta_first_rel_dev,
            "decrease_violations": summary.decrease_violations,
            "beta_final": summary.beta_final,
        }
        for d, beta in enumerate(trace.betas()):
            table.rows.append([n, d + 1, float(beta), analysis.effective_beta(beta)])
    meta["schedule_stats"] = stats
    return table


def run_conditions_experiment(config: ExperimentConfig) -> ResultTable:
    """Dicke amplitude profile before and after layerwise training.

    Columns: k, initial_magnitude, trained_magnitude; condition check in metadata.
    """
    n, depth = config.n, config.depth
    trace = training.train_layerwise(n, depth)
    initial = symcore.plus_state(n)
    trained = symcore.run_schedule(n, trace.schedule())
    check = analysis.check_conditions(trained)
    meta = config.metadata()
    meta["conditions"] = {
        "a1_magnitude": check.a1_magnitude,
        "a2_magnitude": check.a2_magnitude,
        "a2_bound": check.a2_bound,
        "overlap": symcore.overlap(trained),
    }
    table = ResultTable(["k", "initial_magnitude", "trained_magnitude"], metadata=meta)
    for k in range(n + 1):
        table.rows.append([k, float(abs(initial.amps[k])), float(abs(trained.amps[k]))])
    return table


RUNNERS = {
    "saturation": run_saturation_experiment,
    "compare": run_compare_experiment,
    "cutoff": run_cutoff_experiment,
    "noise": run_noise_experiment,
    "betas": run_betas_experiment,
    "conditions": run_conditions_experiment,
}


def run_experiment(config: ExperimentConfig) -> ResultTable:
    """Dispatch on config.kind and write the output file when out is set."""
    table = RUNNERS[config.kind](config)
    if config.out:
        table.write(config.out, config.fmt)
    return table
