"""The benchmark's tracer (perfbench/tracer.py) wraps package functions
where their callers look them up.  A renamed or moved target is only
noted on stderr there and its metrics read 0, so check that every hook
finds its target, and that each still fires on a short episode."""

import sys
from dataclasses import replace
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))

import tracer  # noqa: E402
import workloads  # noqa: E402

from uavrelay import run_episode  # noqa: E402


def test_every_hook_target_exists():
    t = tracer.Tracer()
    tracer.instrument(t)
    try:
        assert t.missing == []
    finally:
        t.unpatch()


def test_every_hook_fires_on_a_short_episode():
    # restoration runs only for a power start that is missing or cannot be
    # repaired, which three slots of this scenario never have
    quiet = {"power_alloc.restore_feasible"}
    sc = replace(workloads.scenario(workloads.WORKLOADS["relay_mixed"], 0), n_slots=3)
    t = tracer.Tracer()
    with tracer.instrumented(t):
        run_episode(sc, "jmstp")
    assert [span for span in tracer.SPANS if not t.calls[span] and span not in quiet] == []
    assert t.counts["convex_core.power.iters"] > 0
    assert t.counts["convex_core.trajectory.iters"] > 0
