"""Importing satlab loads no scipy: it loads on the first call that needs it."""

import os
import subprocess
import sys

import satlab

CHECK = """
import sys
import satlab, satlab.harness, satlab.cli
print(",".join(sorted(m for m in sys.modules if m.split(".")[0] == "scipy")))
"""


def test_fresh_import_loads_no_scipy():
    src = os.path.dirname(os.path.dirname(os.path.abspath(satlab.__file__)))
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    out = subprocess.run(
        [sys.executable, "-c", CHECK],
        env={**os.environ, "PYTHONPATH": path},
        capture_output=True,
        text=True,
        check=True,
    )
    assert out.stdout.strip() == ""
