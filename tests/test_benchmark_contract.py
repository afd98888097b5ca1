"""The benchmark in perfbench/ reaches satlab by name; these tests keep those names working.

perfbench/tracing.py swaps module attributes for traced wrappers and
perfbench/workloads.py calls the trainers with fixed arguments, so a rename or
a signature change in satlab breaks the benchmark.  These tests only read
perfbench/.
"""

import importlib
import inspect
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


@pytest.fixture(scope="module")
def perfbench():
    with pytest.MonkeyPatch.context() as mp:
        mp.syspath_prepend(str(PERFBENCH))
        yield importlib.import_module("tracing"), importlib.import_module("workloads")


def test_traced_names_exist(perfbench):
    tracing, _ = perfbench
    missing = [
        f"{owner.__name__}.{attr}" for owner, attr, _, _ in tracing.TARGETS if attr not in owner.__dict__
    ]
    assert not missing, f"traced names missing from satlab: {missing}"


def test_workloads_build_warm_and_bind(perfbench):
    _, workloads = perfbench
    for name, build in workloads.WORKLOADS.items():
        workload = build(1)
        assert workload.jobs, name
        workloads.warm(workload)
        # every job's call binds to its trainer's signature, with the
        # arguments run_job adds
        for job in workload.jobs:
            kwargs = dict(job.kwargs)
            if job.rng_key is not None:
                kwargs["rng"] = workloads.trial_rng(job.rng_key)
            if job.seeded_by is not None:
                kwargs["seed_schedules"] = []
            trainer = getattr(workloads.training, job.trainer)
            inspect.signature(trainer).bind(*job.args, **kwargs)
