"""Smoke test of the experiment scripts: each imports the package names it
uses and parses its arguments, so a rename in the package shows up here.
The baseline gap and the power sweep, which run every algorithm, also run
end to end, and the paired benchmark's verdict is checked on synthetic
samples."""

import csv
import importlib.util
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


def load_script(name):
    spec = importlib.util.spec_from_file_location(name, ROOT / "scripts" / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("base, head, lower, said", [
    # HEAD wins all ten pairs by far more than BASE's spread
    ([1.0, 1.1, 0.9, 1.0, 1.05, 0.95, 1.0, 1.02, 0.98, 1.0], [0.8] * 10, True, "GAIN"),
    # higher is better: the same samples read the other way round
    ([0.8] * 10, [1.0, 1.1, 0.9, 1.0, 1.05, 0.95, 1.0, 1.02, 0.98, 1.0], False, "GAIN"),
    # a rounding move: HEAD a hair worse, far inside the bound
    ([2.0] * 10, [2.0 - 1e-12] * 10, False, "no gain"),
    # HEAD better in the median by less than BASE's spread
    ([1.0, 1.2, 0.8, 1.0, 1.1, 0.9, 1.0, 1.0, 1.0, 1.0], [0.99] * 10, True, "no gain"),
    ([0.5] * 10, [0.5] * 10, True, "equal 0.5"),
    # 30% slower against a 25% bound
    ([1.0] * 10, [1.3] * 10, True, "WORSE"),
    ([1.0] * 10, [0.7] * 10, False, "WORSE"),
])
def test_paired_bench_verdict(base, head, lower, said):
    assert load_script("paired_bench").verdict(base, head, lower, 0.25)[4] == said


def test_paired_bench_verdict_holds_within_the_bound():
    # 20% slower is no gain, not WORSE, under a 25% bound, and WORSE under 10%
    verdict = load_script("paired_bench").verdict
    wins, ties, gap, _, said = verdict([1.0] * 10, [1.2] * 10, True, 0.25)
    assert (wins, ties, said) == (0, 0, "no gain") and gap == pytest.approx(-0.2)
    assert verdict([1.0] * 10, [1.2] * 10, True, 0.1)[4] == "WORSE"


def test_power_sweep_prints_paired_gaps_per_power(tmp_path):
    out = tmp_path / "sweep.csv"
    done = run_script(ROOT / "scripts" / "power_sweep.py", "--seeds", "2", "--dbm", "0,20",
                      "--out", str(out))
    assert done.returncode == 0, done.stderr
    with out.open() as fh:
        rows = list(csv.DictReader(fh))
    assert [(row["algorithm"], row["seeds"]) for row in rows] == [
        (algorithm, "2") for _ in range(2) for algorithm in ("jmstp", "random", "cellular")]
    gaps = {tuple(line.split()[:3]): line.split()[3:] for line in done.stdout.splitlines()
            if "jmstp-" in line}
    assert len(gaps) == 2 * 2 * 2
    # the mean of the paired gaps is the gap between the rows' seed means
    for power, at in (("0.0", rows[:3]), ("20.0", rows[3:])):
        for rival, row in (("random", at[1]), ("cellular", at[2])):
            for metric in ("sum_rate", "pf_utility"):
                mean, lower = map(float, gaps[power, f"jmstp-{rival}", metric])
                want = float(at[0][metric]) - float(row[metric])
                assert mean == pytest.approx(want, abs=1e-4) and lower <= mean + 1e-12


MODULE = '''"""A module docstring,
over two lines."""

import os  # a trailing comment keeps its line

# a comment line


class A:
    """A class docstring."""

    def f(self):
        """A function docstring."""
        s = """a string that is
not a docstring"""
        return os.sep + s
'''


def test_code_lines_counts_code_only():
    # import, class, def, the two lines of the string, return
    assert load_script("code_lines").code_lines(MODULE) == 6


def test_code_lines_diff_prints_both_checkouts_per_module(tmp_path):
    for side, extra in (("base", ""), ("head", "X = 1\n")):
        package = tmp_path / side / "src" / "uavrelay"
        package.mkdir(parents=True)
        (package / "a.py").write_text(MODULE + extra)
        if side == "head":
            (package / "b.py").write_text("Y = 2\n")
    done = run_script(ROOT / "scripts" / "code_lines.py", "--diff",
                      str(tmp_path / "base"), str(tmp_path / "head"))
    assert done.returncode == 0, done.stderr
    rows = [line.split() for line in done.stdout.splitlines()[1:]]
    assert rows == [["a.py", "6", "7", "+1"], ["b.py", "0", "1", "+1"],
                    ["total", "6", "8", "+2"]]
