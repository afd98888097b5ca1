"""Outside-in tracing of satlab: spans recorded around calls into each module.

Nothing in satlab is edited.  Each traced function is replaced, for the
duration of a pass, by a wrapper stored under the module (or class) attribute
that callers look up at call time, e.g. ``satlab.symcore.gamma_eliminated_curve``
(looked up by training as ``symcore.gamma_eliminated_curve``),
``satlab.symcore.MixerGenerator.evolve`` or ``satlab.training.minimize``
(imported into training by name, so training's attribute is the one to swap).
A span is (name, start, end, parent span, job id); spans stay in memory and
are written out when the run ends.
"""

from __future__ import annotations

import contextlib
import gzip
import os
from collections import Counter
from time import perf_counter

import numpy as np

from satlab import analysis, densecore, harness, symcore, training

TRAINERS = ("train_layerwise", "train_cutoff", "train_global", "train_layerwise_noisy")


def _count_curve(counts, args, kwargs, result):
    points = np.size(args[1] if len(args) > 1 else kwargs["betas"])
    counts["curve_points"] += points
    counts["curve_scalar"] += points == 1


def _count_xrot(counts, args, kwargs, result):
    # computed, not measured: one read and one write of the 2^n complex vector
    counts["xrot_bytes"] += 2 * args[0].nbytes


def _count_noise(counts, args, kwargs, result):
    counts["noise_hits"] += len(args[2][0])


def _count_minimize(counts, args, kwargs, result):
    counts["nm_nfev"] += int(result.nfev)
    counts["nm_converged"] += bool(result.success)


def _count_write(counts, args, kwargs, result):
    counts["csv_bytes"] += os.path.getsize(args[1])


# (owner, attribute, span name, counter).  Some targets feed no metric; they
# are traced so that their time is not counted as their caller's self time.
TARGETS = [
    (symcore, "gamma_eliminated_curve", "symcore.curve", _count_curve),
    (symcore, "gamma_eliminated_overlap", "symcore.gamma_eliminated_overlap", None),
    (symcore, "apply_phase_separator", "symcore.apply_phase_separator", None),
    (symcore, "apply_mixer", "symcore.apply_mixer", None),
    (symcore, "run_schedule", "symcore.run_schedule", None),
    (symcore.MixerGenerator, "evolve", "symcore.evolve", None),
    (densecore, "apply_layer_dense", "densecore.layer", None),
    (densecore, "apply_x_rotation", "densecore.xrot", _count_xrot),
    (densecore, "apply_noise_events", "densecore.noise", _count_noise),
    (densecore, "project_symmetric", "densecore.project", None),
    (densecore, "sample_layer_noise", "densecore.sample_layer_noise", None),
    *[(training, name, f"training.{name}", None) for name in TRAINERS],
    (training, "golden_section_max", "training.golden", None),
    (training, "brentq", "training.brentq", None),
    (training, "minimize", "training.minimize", _count_minimize),
    (analysis, "detect_saturation", "analysis.detect", None),
    (analysis, "check_conditions", "analysis.check_conditions", None),
    (analysis, "trainability_probe", "analysis.probe", None),
    (harness, "run_experiment", "harness.run_experiment", None),
    (harness.ResultTable, "write", "harness.write", _count_write),
]


class Tracer:
    """Span recorder for one traced pass; ``job`` is set by the job loop."""

    def __init__(self):
        self.spans: list[tuple] = []
        self.counts: Counter = Counter()
        self.job = -1
        self._stack = [-1]

    def wrap(self, name, fn, count):
        spans, stack, counts = self.spans, self._stack, self.counts

        def traced(*args, **kwargs):
            sid = len(spans)
            spans.append(None)
            parent = stack[-1]
            stack.append(sid)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                spans[sid] = (name, start, end, parent, self.job)
            if count is not None:
                count(counts, args, kwargs, result)
            return result

        return traced

    @contextlib.contextmanager
    def installed(self):
        """Swap every target for its traced wrapper; restore on exit."""
        saved = [(owner, attr, owner.__dict__[attr]) for owner, attr, _, _ in TARGETS]
        try:
            for owner, attr, name, count in TARGETS:
                setattr(owner, attr, self.wrap(name, owner.__dict__[attr], count))
            yield self
        finally:
            for owner, attr, original in saved:
                setattr(owner, attr, original)

    def per_name(self) -> dict[str, tuple[int, float, float]]:
        """name -> (calls, total duration, self time) over the recorded spans."""
        if not self.spans:
            return {}
        names, start, end, parent, _ = zip(*self.spans)
        dur = np.subtract(end, start)
        parent = np.asarray(parent)
        child = np.zeros(len(dur))
        has_parent = parent >= 0
        np.add.at(child, parent[has_parent], dur[has_parent])
        self_time = dur - child
        names = np.asarray(names)
        out = {}
        for name in np.unique(names):
            sel = names == name
            out[str(name)] = (int(sel.sum()), float(dur[sel].sum()), float(self_time[sel].sum()))
        return out

    def child_time(self, parent_name: str, child_names) -> tuple[float, float]:
        """(total time of parent_name spans, time of their direct children in child_names)."""
        total = 0.0
        parents = set()
        for sid, (name, start, end, _, _) in enumerate(self.spans):
            if name == parent_name:
                total += end - start
                parents.add(sid)
        inner = sum(
            end - start
            for name, start, end, parent, _ in self.spans
            if parent in parents and name in child_names
        )
        return total, inner

    def write(self, path: str):
        """Gzipped CSV of the spans, times in seconds from the first span's start."""
        t0 = self.spans[0][1] if self.spans else 0.0
        with gzip.open(path, "wt", compresslevel=1) as fh:
            fh.write("span,name,start_s,end_s,parent,job\n")
            fh.writelines(
                f"{sid},{name},{start - t0:.9f},{end - t0:.9f},{parent},{job}\n"
                for sid, (name, start, end, parent, job) in enumerate(self.spans)
            )


def pass_metrics(tracer: Tracer, layers: int, evaluations: int, noisy_layers: int) -> dict:
    """Per-layer metrics of one traced pass over a workload's jobs.

    ``layers`` counts trained circuit layers, ``evaluations`` the trainers'
    reported objective evaluations and ``noisy_layers`` the layers trained by
    train_layerwise_noisy, each summed over the pass's jobs.
    """
    stats = tracer.per_name()
    counts = tracer.counts

    def calls(name):
        return stats.get(name, (0, 0.0, 0.0))[0]

    def self_s(name):
        return stats.get(name, (0, 0.0, 0.0))[2]

    curve_calls = calls("symcore.curve")
    nm_calls = calls("training.minimize")
    # each noisy layer's objective evaluations are dense layer calls; one more
    # call per layer advances the frozen prefix and is not an evaluation
    dense_evals = calls("densecore.layer") - noisy_layers
    return {
        "symcore.curve_calls": curve_calls / layers,
        "symcore.curve_points": counts["curve_points"] / layers,
        "symcore.curve_scalar_share": counts["curve_scalar"] / curve_calls if curve_calls else 0.0,
        "symcore.curve_self_s": self_s("symcore.curve"),
        "symcore.evolve_calls": calls("symcore.evolve"),
        "symcore.evolve_self_s": self_s("symcore.evolve"),
        "densecore.layer_calls": calls("densecore.layer"),
        "densecore.layer_self_s": self_s("densecore.layer"),
        "densecore.xrot_calls": calls("densecore.xrot"),
        "densecore.xrot_self_s": self_s("densecore.xrot"),
        "densecore.xrot_bytes": counts["xrot_bytes"],
        "densecore.noise_calls": calls("densecore.noise"),
        "densecore.noise_self_s": self_s("densecore.noise"),
        "densecore.noise_hits": counts["noise_hits"],
        "densecore.project_self_s": self_s("densecore.project"),
        "training.evals_per_layer": evaluations / layers,
        "training.self_s": sum(self_s(f"training.{name}") for name in TRAINERS),
        "training.golden_calls": calls("training.golden"),
        "training.golden_self_s": self_s("training.golden"),
        "training.brentq_calls": calls("training.brentq"),
        "training.nm_nfev": counts["nm_nfev"],
        "training.nm_converged_ratio": counts["nm_converged"] / nm_calls if nm_calls else 0.0,
        "training.dense_eval_share": dense_evals / evaluations if evaluations else 0.0,
        "analysis.detect_self_s": self_s("analysis.detect"),
        "analysis.probe_calls": calls("analysis.probe"),
        "analysis.probe_self_s": self_s("analysis.probe"),
        "trace.spans": len(tracer.spans),
    }


def harness_metrics(tracer: Tracer) -> dict:
    """Metrics of one traced harness.run_experiment call."""
    total, in_trainers = tracer.child_time(
        "harness.run_experiment", {f"training.{name}" for name in TRAINERS}
    )
    return {
        "harness.overhead_share": (total - in_trainers) / total,
        "harness.write_s": tracer.per_name()["harness.write"][1],
        "harness.csv_bytes": tracer.counts["csv_bytes"],
    }
