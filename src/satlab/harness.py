"""Experiment runner: seeded, reproducible figure-data generation.

Each experiment orchestrates the library modules and emits a ResultTable with
a fixed column schema and a JSON metadata header.  Trials are embarrassingly
parallel; per-trial generators are derived from (master seed, grid index,
trial index), so results do not depend on worker count or scheduling.
"""

from __future__ import annotations

import csv
import io
import json
import math
import os
import sys
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field, asdict

import numpy as np

from . import __version__, analysis, densecore, symcore, training
from .densecore import NoiseConfig
from .training import OptimizerSettings

EXPERIMENT_KINDS = ("saturation", "compare", "cutoff", "noise", "betas", "conditions")

# Exact layerwise gains collapse by about three orders of magnitude at the
# saturation depth (from >= 1.5e-4 to <= 7e-5 for n up to 10), so 1e-4 sits
# inside the detection window for the whole supported range.
KNEE_EPS_SAT = 1e-4


class ConfigError(ValueError):
    """Invalid experiment configuration."""


def _is_number(value) -> bool:
    # bool is an int subclass, but a flag is not a number; nor is an int that
    # no float can hold (math.isfinite raises OverflowError on it)
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        return False
    return isinstance(value, float) or abs(value) <= sys.float_info.max


@dataclass
class ExperimentConfig:
    kind: str
    n: int | None = None
    n_min: int | None = None
    n_max: int | None = None
    depth: int | None = None
    trials: int = 100
    p_grid: tuple[float, ...] = ()
    fractions: tuple[float, ...] = ()
    seed: int = 0
    out: str | None = None
    fmt: str = "csv"
    workers: int = 1
    eps_sat: float = KNEE_EPS_SAT
    noise_stddev: float = 1.0
    noise_granularity: str = "layer"
    bitflip_contrast: bool = False

    def __post_init__(self):
        if self.kind not in EXPERIMENT_KINDS:
            raise ConfigError(f"unknown experiment kind {self.kind!r}")
        # bool is an int subclass, and a float n fails deep in the compute
        for name in ("n", "n_min", "n_max", "depth", "trials", "seed", "workers"):
            value = getattr(self, name)
            defaulted = value is None and name in ("n", "n_min", "n_max", "depth")
            if type(value) is not int and not defaulted:
                raise ConfigError(f"{name} must be an integer, got {value!r}")
        for name in ("eps_sat", "noise_stddev"):
            value = getattr(self, name)
            if not _is_number(value):
                raise ConfigError(f"{name} must be a number, got {value!r}")
        for name in ("p_grid", "fractions"):
            values = getattr(self, name)
            if not isinstance(values, (tuple, list)) or not all(map(_is_number, values)):
                raise ConfigError(f"{name} must be a list of numbers, got {values!r}")
            setattr(self, name, tuple(values))
        if type(self.bitflip_contrast) is not bool:
            raise ConfigError(f"bitflip_contrast must be true or false, got {self.bitflip_contrast!r}")
        if self.noise_granularity not in densecore.GRANULARITIES:
            raise ConfigError(f"unknown noise granularity {self.noise_granularity!r}")
        if self.fmt not in ("csv", "json"):
            raise ConfigError(f"unknown output format {self.fmt!r}")
        if self.trials < 1:
            raise ConfigError("trials must be >= 1")
        if self.workers < 1:
            raise ConfigError("workers must be >= 1")
        if self.seed < 0:
            raise ConfigError(f"seed must be >= 0, got {self.seed}")
        if not (math.isfinite(self.eps_sat) and self.eps_sat >= 0.0):
            raise ConfigError(f"eps_sat must be finite and >= 0, got {self.eps_sat}")
        if self.out is not None and not isinstance(self.out, str):
            raise ConfigError(f"out must be a file path, got {self.out!r}")
        if self.out and os.path.isdir(self.out):
            raise ConfigError(f"out {self.out} is a directory, not a file")
        if self.out and not os.path.isdir(os.path.dirname(os.path.abspath(self.out))):
            raise ConfigError(f"output directory of {self.out} does not exist")
        for name in ("n", "n_max"):
            value = getattr(self, name)
            if value is not None and value > symcore.MAX_SYMMETRIC_QUBITS:
                raise ConfigError(
                    f"{name} = {value} is past the float64 validity ceiling"
                    f" n <= {symcore.MAX_SYMMETRIC_QUBITS}"
                )
        if self.kind in ("saturation", "betas"):
            if self.n_min is None:
                self.n_min = {"saturation": 3, "betas": 4}[self.kind]
            if self.n_max is None:
                self.n_max = {"saturation": 10, "betas": 8}[self.kind]
            if self.n_min < 1 or self.n_max < self.n_min:
                raise ConfigError(f"bad n range [{self.n_min}, {self.n_max}]")
        else:
            if self.n is None:
                self.n = {"compare": 4, "cutoff": 4, "noise": 4, "conditions": 10}[self.kind]
            if self.n < 1:
                raise ConfigError("n must be >= 1")
        if self.kind == "compare" and self.depth is None:
            self.depth = 6
        if self.kind == "cutoff":
            if self.depth is None:
                self.depth = 2 * self.n
            if not self.fractions:
                self.fractions = tuple(round(0.5 + 0.05 * i, 2) for i in range(11))
            if any(not 0.0 < f <= 1.0 for f in self.fractions):
                raise ConfigError("cutoff fractions must lie in (0, 1]")
        if self.kind == "noise":
            if self.depth is None:
                self.depth = self.n
            if not self.p_grid:
                self.p_grid = tuple(round(x, 6) for x in np.linspace(0.0, 0.5, 21))
            if any(not 0.0 <= p <= 1.0 for p in self.p_grid):
                raise ConfigError("noise probabilities must lie in [0, 1]")
            if not (math.isfinite(self.noise_stddev) and self.noise_stddev >= 0.0):
                raise ConfigError(f"noise_stddev must be finite and >= 0, got {self.noise_stddev}")
        if self.kind == "conditions" and self.depth is None:
            self.depth = self.n
        if self.depth is not None and self.depth < 1:
            raise ConfigError("depth must be >= 1")

    def metadata(self) -> dict:
        """Config echo for output headers, without runtime-only fields."""
        skip = {"out", "workers"}
        d = {k: v for k, v in asdict(self).items() if k not in skip and v is not None}
        d["version"] = __version__
        return d


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
    if workers <= 1:
        return [worker(a) for a in args]
    with ProcessPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(worker, args))


def _trial_rng(master_seed: int, grid_index: int, trial_index: int) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence((master_seed, grid_index, trial_index)))


def _top_fraction(finals, trials: int, fraction: float = 0.1):
    """Best/mean/worst of the ceil(fraction * trials) best trials."""
    k = max(1, math.ceil(fraction * trials))
    top = np.sort(np.asarray(finals))[-k:]
    return float(top[-1]), float(np.mean(top)), float(top[0])


def run_saturation_experiment(config: ExperimentConfig) -> ResultTable:
    """Columns: n, depth, overlap, improvement, p_star (empty when undetected)."""
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
    """Columns: depth, layerwise_overlap, global_overlap (winning schedule profile)."""
    settings = OptimizerSettings(seed=config.seed)
    layerwise = training.train_layerwise(config.n, config.depth, settings)
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


def _cutoff_trial(args) -> float:
    n, depth, fraction, seed, grid_index, trial_index = args
    rng = _trial_rng(seed, grid_index, trial_index)
    trace = training.train_cutoff(n, depth, fraction, rng=rng)
    return float(trace.overlaps()[-1])


def run_cutoff_experiment(config: ExperimentConfig) -> ResultTable:
    """Columns: fraction, top10_best, top10_mean, top10_worst, baseline_final.

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
    for gi, fraction in enumerate(config.fractions):
        if fraction >= 1.0:
            finals = [baseline] * config.trials
        else:
            args = [(n, depth, fraction, config.seed, gi, t) for t in range(config.trials)]
            finals = _run_trials(_cutoff_trial, args, config.workers)
        best, mean, worst = _top_fraction(finals, config.trials)
        table.rows.append([float(fraction), best, mean, worst, baseline])
    return table


def _noise_trial(args) -> float:
    n, depth, noise, seed, grid_index, trial_index = args
    rng = _trial_rng(seed, grid_index, trial_index)
    trace = training.train_layerwise_noisy(n, depth, noise, rng=rng)
    return float(trace.overlaps()[-1])


def run_noise_experiment(config: ExperimentConfig) -> ResultTable:
    """Columns: p, top10_best, top10_mean, top10_worst, noiseless_overlap,
    bitflip_top10_best (empty unless the contrast flag is on)."""
    n, depth = config.n, config.depth
    densecore._check_cap(n)
    noiseless = float(training.train_layerwise(n, depth).overlaps()[-1])
    table = ResultTable(
        ["p", "top10_best", "top10_mean", "top10_worst", "noiseless_overlap", "bitflip_top10_best"],
        metadata=config.metadata(),
    )
    for gi, p in enumerate(config.p_grid):
        noise = NoiseConfig(
            p_noise=p, phase_stddev=config.noise_stddev, granularity=config.noise_granularity
        )
        args = [(n, depth, noise, config.seed, gi, t) for t in range(config.trials)]
        finals = _run_trials(_noise_trial, args, config.workers)
        best, mean, worst = _top_fraction(finals, config.trials)
        flip_best = None
        if config.bitflip_contrast:
            flip = NoiseConfig(
                p_noise=p,
                phase_stddev=config.noise_stddev,
                granularity=config.noise_granularity,
                kind="bitflip",
            )
            args = [(n, depth, flip, config.seed, 1000 + gi, t) for t in range(config.trials)]
            flip_best = _top_fraction(_run_trials(_noise_trial, args, config.workers), config.trials)[0]
        table.rows.append([float(p), best, mean, worst, noiseless, flip_best])
    return table


def run_betas_experiment(config: ExperimentConfig) -> ResultTable:
    """Columns: n, depth, beta, beta_effective; per-n schedule stats in metadata."""
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
    """Columns: k, initial_magnitude, trained_magnitude; condition check in metadata."""
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


_RUNNERS = {
    "saturation": run_saturation_experiment,
    "compare": run_compare_experiment,
    "cutoff": run_cutoff_experiment,
    "noise": run_noise_experiment,
    "betas": run_betas_experiment,
    "conditions": run_conditions_experiment,
}


def run_experiment(config: ExperimentConfig) -> ResultTable:
    """Dispatch on config.kind and write the output file when out is set."""
    table = _RUNNERS[config.kind](config)
    if config.out:
        table.write(config.out, config.fmt)
    return table
