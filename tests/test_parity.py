"""scripts/parity.py --diff: the exit status is the verdict on two dumps,
1 when any slot's modes, allocation or output-check findings differ, and
the signed columns count the slots whose objectives rose and fell.
--findings exits 1 when one dump holds a slot with findings.  The dump's
episode list is checked without running it."""

import importlib.util
import json
import subprocess
import sys
from collections import Counter
from dataclasses import replace
from pathlib import Path

import pytest

from uavrelay.scenario import dbm_to_watts

ROOT = Path(__file__).resolve().parents[1]
SCRIPT = ROOT / "scripts" / "parity.py"
sys.path.insert(0, str(ROOT / "perfbench"))
import workloads  # noqa: E402


def dump(path, objective=1.0, alloc=(1, 0), problems=()):
    slot = {"workload": "relay_mixed", "episode": 0, "slot": 0, "beta": [0],
            "alloc": [list(alloc)], "objective": objective,
            "position": [0.0, 0.0, 100.0], "problems": list(problems)}
    path.write_text(json.dumps({"checkout": "any", "slots": [slot]}))
    return path


def dump_slots(path, objectives):
    """A dump of one relay_mixed episode whose slot t has objective
    `objectives[t]`, every other field equal."""
    slots = [{"workload": "relay_mixed", "episode": 0, "slot": t, "beta": [0],
              "alloc": [[1, 0]], "objective": obj, "position": [0.0, 0.0, 100.0],
              "problems": []} for t, obj in enumerate(objectives)]
    path.write_text(json.dumps({"checkout": "any", "slots": slots}))
    return path


def row_of(stdout, workload="relay_mixed"):
    return next(line for line in stdout.splitlines() if line.startswith(workload)).split()


def run_diff(a, b):
    return subprocess.run([sys.executable, str(SCRIPT), "--diff", str(a), str(b)],
                          capture_output=True, text=True, timeout=60)


def run_findings(path):
    return subprocess.run([sys.executable, str(SCRIPT), "--findings", str(path)],
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
    assert row_of(out.stdout)[4] == "4.17e+01"


def test_signed_columns_count_rises_and_falls(tmp_path):
    # slot 0 rises, slot 1 falls, slot 2 moves by 1e-13 relative (neither),
    # slot 3 does not move; the sum is signed, B - A
    out = run_diff(dump_slots(tmp_path / "a.json", [1.0, 2.0, 3.0, 50.0]),
                   dump_slots(tmp_path / "b.json", [1.5, 1.75, 3.0 * (1 + 1e-13), 50.0]))
    assert out.returncode == 0, out.stdout + out.stderr
    assert "verdict: SAME beta/alloc and findings" in out.stdout
    row = row_of(out.stdout)
    assert row[6:8] == ["1", "1"]
    assert float(row[8]) == pytest.approx(0.25, rel=1e-3)


def test_signed_change_falls_below_zero(tmp_path):
    # a move from an unserved slot is judged over max(|A|, 1): 1e-13 from
    # objective 0 is neither; the fall of the other slot makes the sum negative
    out = run_diff(dump_slots(tmp_path / "a.json", [0.0, 10.0]),
                   dump_slots(tmp_path / "b.json", [1e-13, 9.0]))
    assert out.returncode == 0, out.stdout + out.stderr
    row = row_of(out.stdout)
    assert row[6:8] == ["0", "1"]
    assert float(row[8]) == pytest.approx(-1.0, rel=1e-9)


def test_equal_dumps_have_no_signed_moves(tmp_path):
    out = run_diff(dump_slots(tmp_path / "a.json", [1.0, 2.0]),
                   dump_slots(tmp_path / "b.json", [1.0, 2.0]))
    assert "verdict: SAME, bit-identical" in out.stdout
    assert row_of(out.stdout)[6:] == ["0", "0", "+0.0000e+00"]


def test_findings_exit_one_on_any_problem(tmp_path):
    out = run_findings(dump(tmp_path / "clean.json"))
    assert out.returncode == 0, out.stdout + out.stderr
    assert "0 of 1 slots with findings" in out.stdout
    out = run_findings(dump(tmp_path / "found.json", problems=["relay exceeds its power budget"]))
    assert out.returncode == 1
    assert "relay_mixed episode 0 slot 0: relay exceeds its power budget" in out.stdout


def test_dump_covers_the_panels_and_relay_mixed_at_20_dbm():
    spec = importlib.util.spec_from_file_location("parity", SCRIPT)
    parity = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(parity)
    episodes = list(parity.episodes(workloads))
    slots = Counter()
    for label, _, sc, _ in episodes:
        slots[label] += sc.n_slots
    assert len(slots) == 11
    assert [slots[w] for w in ("relay_mixed", "dense_cellular", "random_cold")] == [100, 260, 100]
    relay = workloads.panel(workloads.WORKLOADS["relay_mixed"])
    for algorithm in ("jmstp", "cellular"):
        high = [(i, sc) for label, i, sc, a in episodes
                if label == f"20dBm:{algorithm}" and a == algorithm]
        assert [i for i, _ in high] == list(range(10))
        # relay_mixed's panel scenario, bar the UE budget
        assert all(sc.p_ue_max == dbm_to_watts(20.0) != panel.p_ue_max and
                   sc == replace(panel, p_ue_max=sc.p_ue_max)
                   for (_, sc), panel in zip(high, relay))
