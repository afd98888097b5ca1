#!/usr/bin/env python3
"""satlab benchmark: one workload per run, one job at a time (closed loop, one client).

    python3 perfbench/run.py --workload greedy-sweep --seed 1 --seconds 30 --trace 0

Run from the root of a source checkout; satlab is imported from ./src, never
from an installed copy.  The workload's jobs are made from --seed.  A pass runs
all of them; passes repeat while the next one is expected to end within
--seconds (at least one).  Each job's time is scaled by the machine slowness
measured next to it (calibration.py), and the median over passes is taken.
The output checks run after the timed passes.  Human-readable lines go first;
the last line of standard output is one JSON object with the metrics.

--trace 0 reports the end-to-end metrics.  --trace 1 alternates untraced and
traced passes, reports the per-layer metrics and the tracing overhead, and
writes the spans of the last traced pass to perfbench/out/.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import resource
import statistics
import subprocess
import sys
from time import perf_counter

import calibration

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, "perfbench", "out")
SETUP_REPEATS = 7
TAIL_ABOVE = 10

# set-up as a user pays it: a fresh interpreter imports satlab and fills the
# caches the workload reads (mixer eigendecompositions, Hamming weights)
WARM = """
import sys
sys.path.insert(0, sys.argv[1])
from satlab import densecore, symcore
for n in sys.argv[2].split(","):
    symcore.mixer(int(n))
for n in filter(None, sys.argv[3].split(",")):
    densecore.hamming_weights(int(n))
"""


def import_satlab():
    if not os.path.isfile(os.path.join(SRC, "satlab", "__init__.py")):
        sys.exit(f"error: no satlab sources under {SRC}; run from a source checkout")
    sys.path.insert(0, SRC)
    import satlab

    if not os.path.abspath(satlab.__file__).startswith(SRC + os.sep):
        sys.exit(f"error: imported satlab from {satlab.__file__}, not from {SRC}")


def measure_setup(workload) -> float:
    """Median calibrated time of SETUP_REPEATS fresh interpreters."""
    times = []
    for _ in range(SETUP_REPEATS):
        before = calibration.slowness()
        start = perf_counter()
        subprocess.run(
            [
                sys.executable,
                "-c",
                WARM,
                SRC,
                ",".join(map(str, workload.mixer_ns)),
                ",".join(map(str, workload.hamming_ns)),
            ],
            check=True,
            cwd=ROOT,
        )
        elapsed = perf_counter() - start
        times.append(elapsed / (0.5 * (before + calibration.slowness())))
    return statistics.median(times)


def tail(times: list[float]) -> tuple[float, float]:
    """Highest percentile with at least TAIL_ABOVE samples above it: (value, percentile)."""
    ordered = sorted(times)
    k = max(len(ordered) - TAIL_ABOVE - 1, 0)
    return ordered[k], 100.0 * (k + 1) / len(ordered)


def timed_passes(jobs, seconds: float, traced: bool):
    """Repeat passes while the next is expected to end in time.

    Untraced only: a list of (wall, results).  Traced: untraced and traced
    passes alternate, giving two such lists and the tracers.
    """
    from tracing import Tracer
    from workloads import run_pass

    plain, with_trace, tracers = [], [], []
    start = perf_counter()
    while True:
        step = perf_counter()
        plain.append(run_pass(jobs))
        if traced:
            tracer = Tracer()
            with tracer.installed():
                with_trace.append(run_pass(jobs, tracer))
            tracers.append(tracer)
        step = perf_counter() - step
        if perf_counter() - start + step > seconds:
            return plain, with_trace, tracers


def check_passes(passes, checker) -> tuple[int, int, list]:
    """(attempted, failed, per-pass failure reasons) over every pass run."""
    attempted, failed, reasons = 0, 0, []
    for _, results in passes:
        why = [checker.failure(r, results) for r in results]
        attempted += len(results)
        failed += sum(w is not None for w in why)
        reasons.append(why)
    return attempted, failed, reasons


def write_records(path: str, passes, reasons):
    with open(path, "w") as fh:
        for p, ((_, results), why) in enumerate(zip(passes, reasons)):
            for i, (result, failure) in enumerate(zip(results, why)):
                rec = {
                    "pass": p,
                    "job": i,
                    **result.numbers(),
                    "check": failure or "ok",
                    "time_s": result.time_s,
                    "step_s": result.step_s,
                    "slowness": result.slowness,
                }
                fh.write(json.dumps(rec) + "\n")


def results_digest(results) -> str:
    """Hash of every job's result numbers, timings excluded."""
    h = hashlib.sha256()
    for result in results:
        h.update(json.dumps(result.numbers(), sort_keys=True).encode())
    return h.hexdigest()[:16]


def per_job(passes, attr: str) -> list[float]:
    """Each job's calibrated time (``time_s`` or ``step_s``), median over passes."""
    runs = zip(*(results for _, results in passes))
    return [statistics.median(getattr(r, attr) / r.slowness for r in rs) for rs in runs]


def end_to_end(passes, setup_s: float) -> tuple[dict, dict]:
    """End-to-end metrics and notes that go with them."""
    times = per_job(passes, "time_s")
    tail_s, pct = tail(times)
    overlaps = [r.overlap for r in passes[0][1] if r.trace is not None and r.overlap > 0.0]
    metrics = {
        "setup_s": setup_s,
        "wall_s": sum(per_job(passes, "step_s")),
        "job_s_p50": statistics.median(times),
        "job_s_tail": tail_s,
        "overlap_neglog10_mean": -statistics.fmean(math.log10(o) for o in overlaps),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    jobs = len(times)
    notes = {
        "setup_s": f"median of {SETUP_REPEATS} fresh interpreters",
        "wall_s": f"{len(passes)} passes, raw walls " + " ".join(f"{w:.3f}" for w, _ in passes),
        "job_s_tail": f"p{pct:.1f} of {jobs} jobs, {min(TAIL_ABOVE, jobs - 1)} above",
        "overlap_neglog10_mean": "-mean log10(final overlap)",
    }
    return metrics, notes


def per_layer(workload, seed, plain, traced, tracers) -> dict:
    """Per-layer metrics of the traced passes and of one reduced harness run."""
    import tracing
    from satlab import harness

    per_pass = []
    for (_, results), tracer in zip(traced, tracers):
        ok = [r for r in results if r.trace is not None]
        layers = sum(r.trace.depth for r in ok)
        evaluations = sum(rec.evaluations for r in ok for rec in r.trace.records)
        noisy = sum(r.trace.depth for r in ok if r.job.trainer == "train_layerwise_noisy")
        per_pass.append(tracing.pass_metrics(tracer, layers, evaluations, noisy))
    metrics = {name: statistics.median(m[name] for m in per_pass) for name in per_pass[0]}
    metrics["trace.overhead_s"] = sum(per_job(traced, "step_s")) - sum(per_job(plain, "step_s"))
    tracers[-1].write(os.path.join(OUT, f"{workload.name}-spans.csv.gz"))

    config = harness.ExperimentConfig(
        **workload.harness_config, seed=seed, out=os.path.join(OUT, f"{workload.name}-harness.csv")
    )
    tracer = tracing.Tracer()
    with tracer.installed():
        harness.run_experiment(config)
    metrics.update(tracing.harness_metrics(tracer))
    tracer.write(os.path.join(OUT, f"{workload.name}-harness-spans.csv.gz"))
    return metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")

    import_satlab()
    import workloads

    if args.workload not in workloads.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from {sorted(workloads.WORKLOADS)}")
    workload = workloads.WORKLOADS[args.workload](args.seed)
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        declared = json.load(fh)["per_layer" if args.trace else "end_to_end"]
    units = {m["name"]: m["unit"] for m in declared}
    os.makedirs(OUT, exist_ok=True)

    setup_s = None if args.trace else measure_setup(workload)
    workloads.warm(workload)
    plain, traced, tracers = timed_passes(workload.jobs, args.seconds, bool(args.trace))
    if not args.trace:
        metrics, notes = end_to_end(plain, setup_s)

    passes = plain + traced
    attempted, failed, reasons = check_passes(passes, workloads.Checker())
    write_records(os.path.join(OUT, f"{workload.name}-jobs.jsonl"), passes, reasons)
    if args.trace:
        metrics, notes = per_layer(workload, args.seed, plain, traced, tracers), {}
    if set(metrics) != set(units):
        sys.exit(f"error: measured {sorted(metrics)}, BENCHMARK.json declares {sorted(units)}")

    print(
        f"{workload.name} seed={args.seed}: {len(passes)} passes of {len(workload.jobs)} jobs, "
        f"results digest {results_digest(plain[0][1])}"
    )
    for name, unit in units.items():
        print(f"  {name:28s} {metrics[name]:14.6g} {unit:14s} {notes.get(name, '')}")
    print(f"  {'fail_ratio':28s} {failed / attempted:14.6g} {'ratio':14s} {failed} failed of {attempted} jobs")
    failures = {
        f"{result.job.label}: {failure}"
        for (_, results), why in zip(passes, reasons)
        for result, failure in zip(results, why)
        if failure is not None
    }
    for failure in sorted(failures):
        print(f"  FAILED {failure}")

    print(
        json.dumps(
            {
                "correct": failed == 0,
                "attempted": attempted,
                "failed": failed,
                "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
