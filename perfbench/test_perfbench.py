"""Self-checks of the benchmark: traced counts repeat exactly for the same
inputs, layer self times add up to slot time, the output check catches
broken slots, the runner refuses to run without the package source, and
slot times scale to the reference kernel's speed.

    python3 -m pytest -q perfbench
"""

import math
import shutil
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import bench  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402

# two cheap panel episodes per workload keep the traced runs short
SCENARIO_SLICE = slice(1, 3)


def _traced(name):
    w = workloads.WORKLOADS[name]
    *_, metrics = bench.traced_pass(w, workloads.panel(w)[SCENARIO_SLICE])
    return metrics


@pytest.fixture(scope="module")
def traced_twice():
    return {name: (_traced(name), _traced(name)) for name in workloads.WORKLOADS}


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_traced_counts_repeat_exactly(traced_twice, name):
    first, second = traced_twice[name]
    counts = {k: v for k, v in first.items() if tracer.is_count(k)}
    assert counts == {k: v for k, v in second.items() if tracer.is_count(k)}
    assert counts["orchestrator.bcd_iters"] >= 2 * workloads.N_SLOTS
    assert counts["link_rate.rate_report.calls"] > 0


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_layer_self_times_sum_to_slot_time(traced_twice, name):
    metrics = traced_twice[name][0]
    total = sum(metrics[f"layer.{layer}.s"] for layer in tracer.LAYERS)
    assert math.isclose(total, metrics["trace.slot.s"], rel_tol=1e-9)


def test_bypassed_layers_stay_idle(traced_twice):
    dense = traced_twice["dense_cellular"][0]
    assert dense["trajectory.to_algorithm.calls"] == 0
    assert dense["convex_core.trajectory.s"] == 0.0
    rand = traced_twice["random_cold"][0]
    assert rand["matching.init_matching.calls"] == 0
    assert rand["matching.msma.calls"] == 0


def test_hooks_are_removed_after_a_traced_pass():
    from uavrelay import convex_core, orchestrator
    before = (orchestrator.jmstp_slot, convex_core.FeasibleSet.project)
    with tracer.instrumented(tracer.Tracer()):
        assert orchestrator.jmstp_slot is not before[0]
    assert (orchestrator.jmstp_slot, convex_core.FeasibleSet.project) == before


def test_check_slot_flags_broken_outputs():
    from uavrelay import run_episode
    w = workloads.WORKLOADS["random_cold"]
    sc = workloads.panel(w)[1]
    log = run_episode(sc, w.algorithm)
    sol = log.slots[0]
    assert workloads.check_slot(sol, log.scenario, 0) == []

    nan = replace(sol, objective=float("nan"))
    assert "non-finite rates or objective" in workloads.check_slot(nan, log.scenario, 0)

    falling = replace(sol, stage_trace=[("matching", 2.0), ("power", 1.0)])
    assert "stage trace decreases" in workloads.check_slot(falling, log.scenario, 0)

    powers = replace(sol.powers, p_ue=sol.powers.p_ue * 100.0)
    over = workloads.check_slot(replace(sol, powers=powers), log.scenario, 0)
    assert any("power budget" in p for p in over)
    assert not all(workloads.is_known_defect(p) for p in over)


def test_runner_fails_without_package_source(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "relay_mixed",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""


def test_reference_scaling():
    at_reference = [bench.speed.REFERENCE_S] * 3
    run = bench.EpisodeRun(wall=2.0, slot_times=[0.5, 1.0], objectives=[],
                           warnings=0, log=None, kernel_times=at_reference)
    assert run.scaled_slot_times() == pytest.approx([0.5, 1.0])
    assert run.scaled_wall() == pytest.approx(2.0)
    # twice as slow on both sides of the second slot: it counts half
    run.kernel_times = [bench.speed.REFERENCE_S] + [2 * bench.speed.REFERENCE_S] * 2
    assert run.scaled_slot_times() == pytest.approx([0.5 / 1.5, 0.5])
