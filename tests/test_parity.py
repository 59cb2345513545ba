"""scripts/parity.py --diff: the exit status is the verdict on two dumps,
1 when any slot's modes, allocation or output-check findings differ."""

import json
import subprocess
import sys
from pathlib import Path

SCRIPT = Path(__file__).resolve().parents[1] / "scripts" / "parity.py"


def dump(path, objective=1.0, alloc=(1, 0), problems=()):
    slot = {"workload": "relay_mixed", "episode": 0, "slot": 0, "beta": [0],
            "alloc": [list(alloc)], "objective": objective,
            "position": [0.0, 0.0, 100.0], "problems": list(problems)}
    path.write_text(json.dumps({"checkout": "any", "slots": [slot]}))
    return path


def run_diff(a, b):
    return subprocess.run([sys.executable, str(SCRIPT), "--diff", str(a), str(b)],
                          capture_output=True, text=True, timeout=60)


def test_same_answers_exit_zero(tmp_path):
    # an objective move alone is reported, not a verdict
    out = run_diff(dump(tmp_path / "a.json"), dump(tmp_path / "b.json", objective=1.5))
    assert out.returncode == 0, out.stdout + out.stderr
    assert "verdict: SAME beta/alloc and findings" in out.stdout


def test_equal_answers_read_bit_identical(tmp_path):
    out = run_diff(dump(tmp_path / "a.json"), dump(tmp_path / "b.json"))
    assert out.returncode == 0, out.stdout + out.stderr
    assert "verdict: SAME, bit-identical" in out.stdout
    # an objective moved by one ulp is no longer bit-identical
    out = run_diff(dump(tmp_path / "a.json"),
                   dump(tmp_path / "b.json", objective=1.0000000000000002))
    assert out.returncode == 0
    assert "verdict: SAME beta/alloc" in out.stdout


def test_moved_assignment_exits_one(tmp_path):
    out = run_diff(dump(tmp_path / "a.json"), dump(tmp_path / "b.json", alloc=(0, 1)))
    assert out.returncode == 1
    assert "verdict: DIFFER" in out.stdout


def test_new_finding_exits_one(tmp_path):
    out = run_diff(dump(tmp_path / "a.json"),
                   dump(tmp_path / "b.json", problems=["relay exceeds its power budget"]))
    assert out.returncode == 1
    assert "verdict: DIFFER" in out.stdout


def test_move_from_an_unserved_slot_is_scaled_by_at_least_one(tmp_path):
    # a slot that serves no one in A (objective 0) reports the move over
    # max(|A|, 1), not over zero; the verdict is unchanged
    out = run_diff(dump(tmp_path / "a.json", objective=0.0),
                   dump(tmp_path / "b.json", objective=41.67))
    assert out.returncode == 0, out.stdout + out.stderr
    assert "verdict: SAME" in out.stdout
    row = next(line for line in out.stdout.splitlines() if line.startswith("relay_mixed"))
    assert row.split()[4] == "4.17e+01"
