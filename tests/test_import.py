"""satlab runs without scipy: importing it loads none, and no computing path
needs it.  scipy is a test-only dependency."""

import ast
import os
import pathlib
import subprocess
import sys

import satlab

CHECK = """
import sys
import satlab, satlab.harness, satlab.cli
print(",".join(sorted(m for m in sys.modules if m.split(".")[0] == "scipy")))
"""

# every trainer, the probe and each CLI subcommand at a reduced config, with
# every scipy module unimportable; argv[1] is a scratch directory
WITHOUT_SCIPY = """
import os, sys

class NoScipy:
    def find_spec(self, name, path=None, target=None):
        if name.split(".")[0] == "scipy":
            raise ImportError(f"{name} is blocked")

sys.meta_path.insert(0, NoScipy())

import numpy as np
from satlab import analysis, cli, symcore, training
from satlab.densecore import NoiseConfig

rng = np.random.default_rng(0)
greedy = training.train_layerwise(4, 4)
training.train_cutoff(4, 4, 0.8, rng=rng)
for noise in (NoiseConfig(0.3), NoiseConfig(0.3, kind="bitflip"), NoiseConfig(0.3, granularity="single_qubit")):
    training.train_layerwise_noisy(3, 3, noise, rng=rng)
training.train_global(4, 4, training.OptimizerSettings(global_restarts=2), seed_schedules=[greedy.schedule()])
analysis.trainability_probe(symcore.random_symmetric_state(5, rng))

runs = {
    "saturation": ["--n-min", "3", "--n-max", "4"],
    "compare": ["--n", "3", "--depth", "3"],
    "cutoff": ["--n", "3", "--trials", "2", "--fractions", "0.6,1.0"],
    "noise": ["--n", "3", "--trials", "2", "--p-grid", "0,0.5", "--bitflip-contrast"],
    "betas": ["--n-min", "3", "--n-max", "4"],
    "conditions": ["--n", "4"],
}
for kind, args in runs.items():
    code = cli.main([kind, *args, "--out", os.path.join(sys.argv[1], kind + ".csv")])
    assert code == 0, (kind, code)
print("scipy:" + ",".join(sorted(m for m in sys.modules if m.split(".")[0] == "scipy")))
"""


def _run(script, *args):
    src = os.path.dirname(os.path.dirname(os.path.abspath(satlab.__file__)))
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, "-c", script, *args],
        env={**os.environ, "PYTHONPATH": path},
        capture_output=True,
        text=True,
        check=True,
    ).stdout


def test_fresh_import_loads_no_scipy():
    assert _run(CHECK).strip() == ""


def test_every_trainer_and_subcommand_runs_without_scipy(tmp_path):
    assert _run(WITHOUT_SCIPY, str(tmp_path)).splitlines()[-1] == "scipy:"
    assert sorted(os.listdir(tmp_path)) == sorted(
        f"{kind}.csv" for kind in ("saturation", "compare", "cutoff", "noise", "betas", "conditions")
    )


def test_no_satlab_module_imports_scipy():
    # read from the source, so a lazy import on a path no test runs counts too
    imported = []
    for path in sorted(pathlib.Path(satlab.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                names = [node.module] if node.level == 0 else []
            else:
                continue
            imported += [f"{path.name}: {name}" for name in names if name.split(".")[0] == "scipy"]
    assert imported == []
