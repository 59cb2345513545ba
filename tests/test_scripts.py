"""Smoke test of the experiment scripts: each imports the package names it
uses and parses its arguments, so a rename in the package shows up here.
The baseline gap, which runs every algorithm, also runs end to end."""

import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SCRIPTS = sorted((ROOT / "scripts").glob("*.py"))


def run_script(script, *args):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"),
                                                      env.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, str(script), *args], env=env,
                          capture_output=True, text=True, timeout=60)


@pytest.mark.parametrize("script", SCRIPTS, ids=lambda p: p.name)
def test_script_help_exits_zero(script):
    done = run_script(script, "--help")
    assert done.returncode == 0, done.stderr
    assert "usage:" in done.stdout


def test_baseline_gap_runs_every_algorithm_clean():
    done = run_script(ROOT / "scripts" / "baseline_gap.py", "--seeds", "2")
    assert done.returncode == 0, done.stderr
    for algorithm in ("jmstp", "random", "cellular"):
        assert re.search(rf"{algorithm}: .* invalid slots 0/20 ", done.stdout), done.stdout
