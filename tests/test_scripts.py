"""The experiment scripts, run as subprocesses at tiny sizes."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
TINY = ["--n-values", "16", "--n-ref", "64", "--t-star", "0.01", "--dt", "1e-3"]


def run_script(name, *args):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p
    )
    return subprocess.run(
        [sys.executable, str(ROOT / "scripts" / name), *args],
        capture_output=True, text=True, env=env, timeout=120,
    )


@pytest.mark.parametrize("name, args, rate_row", [
    ("run_convergence.py", ["--seeds", "0"], "0,summary,,nan,nan"),
    ("run_intermediate.py", [], "rate,nan,nan"),
], ids=["run_convergence", "run_intermediate"])
def test_single_bandwidth_prints_nan_rate(name, args, rate_row):
    # one bandwidth leaves nothing to fit a rate to
    proc = run_script(name, *args, *TINY)
    assert proc.returncode == 0, proc.stderr
    assert rate_row in proc.stdout.splitlines()
