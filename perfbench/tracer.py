"""In-memory span tracer that instruments `uavrelay` from outside.

Each hook replaces a function where its caller looks it up (a module
attribute, or a method on its class) with a wrapper that opens a span,
calls the original and closes the span.  A span carries an id, its
parent's id, the id of the slot it belongs to, a name, and its start and
end on `time.perf_counter`.  Spans are recorded only inside a slot span
(`orchestrator.slot`, around `jmstp_slot`), so the work the benchmark does
between slots, such as output checks, is never attributed to a layer.

A span's self time is its duration minus the durations of its child
spans.  Spans nest strictly (one thread, no queues), so the self times of
all spans in a slot add up to the slot span's duration.
"""

from __future__ import annotations

import sys
import time
from collections import Counter, defaultdict
from contextlib import contextmanager

import numpy as np

ROOT = "orchestrator.slot"
LAYERS = ("orchestrator", "matching", "power_alloc", "convex_core",
          "trajectory", "channel", "link_rate", "uav_power")

# StageLog.reason prefixes of the trajectory stages; an empty reason means
# the stage met its tolerance (or its iteration cap, flagged separately).
_TRAJECTORY_STOPS = (
    ("no relayed assignments", "no_pairs"),
    ("approximated SNR set", "snr_set_empty"),
    ("inner solve unusable", "inner_unusable"),
    ("no step kept", "no_improving_step"),
)
_SOLVER_STOPS = {
    "iteration cap": "iteration_cap",
    "line search stalled": "line_search_stalled",
    "projected gradient below tolerance": "pg_tolerance",
}


class Tracer:
    """Collects spans, per-name call counts, self times and inclusive
    durations, plus layer counters filled in by hook callbacks."""

    def __init__(self) -> None:
        self.spans: list[tuple[int, int, int, str, float, float]] = []
        self.calls: Counter = Counter()
        self.self_s: Counter = Counter()
        self.durations: defaultdict[str, list[float]] = defaultdict(list)
        self.counts: Counter = Counter()
        self.missing: list[str] = []
        self._stack: list[list] = []  # open spans: [id, name, child time]
        self._next_id = 0
        self._patches: list[tuple[object, str, object]] = []

    # -- spans -------------------------------------------------------------

    def call(self, name: str, fn, args, kwargs):
        """Run `fn` inside a span named `name`; outside a slot span, and
        for anything but the slot itself, run it untraced."""
        if not self._stack and name != ROOT:
            return fn(*args, **kwargs)
        sid = self._next_id
        self._next_id += 1
        parent = self._stack[-1] if self._stack else None
        root = self._stack[0][0] if self._stack else sid
        frame = [sid, name, 0.0]
        self._stack.append(frame)
        start = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            end = time.perf_counter()
            self._stack.pop()
            dur = end - start
            if parent is not None:
                parent[2] += dur
            self.calls[name] += 1
            self.self_s[name] += dur - frame[2]
            self.durations[name].append(dur)
            self.spans.append((sid, parent[0] if parent else -1, root, name,
                               start, end))

    def innermost(self, prefix: str) -> str | None:
        """Name of the innermost open span whose name starts with `prefix`."""
        for frame in reversed(self._stack):
            if frame[1].startswith(prefix):
                return frame[1]
        return None

    # -- patching ----------------------------------------------------------

    def patch(self, owner, attr: str, name: str, after=None, objective=None):
        """Replace `owner.attr` by a traced wrapper.  `after(result, args)`
        runs after each traced call; `objective` names a span that wraps
        the callable passed as first argument (the inner solver's
        objective).  A missing target is noted and skipped, so that a
        renamed helper costs its metrics, not the run."""
        original = getattr(owner, attr, None)
        if original is None:
            self.missing.append(f"{getattr(owner, '__name__', owner)}.{attr}")
            return
        tracer = self

        def traced(*args, **kwargs):
            recording = bool(tracer._stack) or name == ROOT
            if objective is not None and recording:
                fn = args[0]
                args = (lambda x: tracer.call(objective, fn, (x,), {}),) + args[1:]
            result = tracer.call(name, original, args, kwargs)
            if after is not None and recording:
                after(result, args)
            return result

        traced.__wrapped__ = original
        self._patches.append((owner, attr, original))
        setattr(owner, attr, traced)

    def count_after(self, owner, attr: str, after):
        """Wrap `owner.attr` to run `after(result, args)` inside slots,
        without a span of its own."""
        original = getattr(owner, attr, None)
        if original is None:
            self.missing.append(f"{getattr(owner, '__name__', owner)}.{attr}")
            return
        tracer = self

        def counted(*args, **kwargs):
            result = original(*args, **kwargs)
            if tracer._stack:
                after(result, args)
            return result

        self._patches.append((owner, attr, original))
        setattr(owner, attr, counted)

    def unpatch(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)


# ---------------------------------------------------------------------------
# The uavrelay hook table.

def instrument(tracer: Tracer) -> None:
    """Install every layer hook, each where its caller looks it up."""
    # channel, link_rate and uav_power functions are wrapped where their
    # callers bound them
    from uavrelay import convex_core, orchestrator, power_alloc, trajectory
    c = tracer.counts

    def after_slot(sol, args):
        c["orchestrator.bcd_iters"] += sol.iterations
        prev = None
        for stage, obj in sol.stage_trace:
            if prev is not None:
                c[f"moved.passes.{stage}"] += 1
                c[f"moved.raised.{stage}"] += obj > prev
            prev = obj

    def after_msma(res, args):
        c["matching.msma.swaps"] += res.n_swaps
        c["matching.msma.examined"] += sum(res.examined_per_round)

    def after_scp(res, args):
        beta, alloc = np.asarray(args[0]), np.asarray(args[1])
        c["power_alloc.outer_iters"] += res.iterations
        c["power_alloc.dropped"] += len(res.dropped)
        c["power_alloc.vars"] += int(alloc.sum() + alloc[beta == 1].sum())

    def after_solve(kind):
        def after(res, args):
            c[f"convex_core.{kind}.solves"] += 1
            stop = _SOLVER_STOPS.get(res.diagnostics.reason)
            if stop is not None:
                c[f"convex_core.{kind}.stop.{stop}"] += 1
        return after

    def after_ascend(res, args):
        kind = tracer.innermost("convex_core.")
        if kind is not None:
            c[f"{kind}.iters"] += res[2].iterations

    def after_to_algorithm(res, args):
        c["trajectory.passes"] += res.passes
        for log in res.logs:
            c["trajectory.stage_iters"] += log.iterations
            c["trajectory.stage_accepted"] += log.accepted
            c[f"trajectory.stop.{_trajectory_stop(log)}"] += 1

    tracer.patch(orchestrator, "jmstp_slot", ROOT, after=after_slot)
    tracer.patch(orchestrator, "complete_powers", "orchestrator.complete_powers")
    tracer.patch(orchestrator, "init_matching", "matching.init_matching")
    tracer.patch(orchestrator, "msma_detailed", "matching.msma", after=after_msma)
    tracer.patch(orchestrator, "scp_power", "power_alloc.scp_power", after=after_scp)
    tracer.patch(power_alloc, "restore_feasible", "power_alloc.restore_feasible")
    tracer.patch(power_alloc, "maximize_concave", "convex_core.power",
                 after=after_solve("power"), objective="power_alloc.surrogate")
    tracer.patch(trajectory, "maximize_concave", "convex_core.trajectory",
                 after=after_solve("trajectory"), objective="trajectory.surrogate")
    tracer.count_after(convex_core, "_ascend", after_ascend)
    tracer.patch(convex_core.FeasibleSet, "project", "convex_core.project")
    tracer.patch(orchestrator, "to_algorithm", "trajectory.to_algorithm",
                 after=after_to_algorithm)
    tracer.patch(trajectory, "solve_horizontal", "trajectory.horizontal")
    tracer.patch(trajectory, "solve_altitude", "trajectory.altitude")
    for module in (orchestrator, trajectory):
        tracer.patch(module, "gain_matrices", "channel.gain_matrices")
        tracer.patch(module, "move_radius", "uav_power.move_radius")
    for module in (orchestrator, trajectory, power_alloc):
        tracer.patch(module, "rate_report", "link_rate.rate_report")
    if tracer.missing:
        print("perfbench: hooks not installed (metrics read 0): "
              + ", ".join(sorted(set(tracer.missing))), file=sys.stderr)


def _trajectory_stop(log) -> str:
    if log.capped:
        return "iteration_cap"
    if not log.reason:
        return "converged"
    for prefix, key in _TRAJECTORY_STOPS:
        if log.reason.startswith(prefix):
            return key
    return "other"


@contextmanager
def instrumented(tracer: Tracer):
    """Hooks installed for the duration of the block; a tracer passed to
    several blocks accumulates over all of them."""
    instrument(tracer)
    try:
        yield tracer
    finally:
        tracer.unpatch()


# ---------------------------------------------------------------------------
# Per-layer metrics.

COUNT_METRICS = [
    "orchestrator.bcd_iters", "matching.msma.swaps", "matching.msma.examined",
    "power_alloc.outer_iters", "power_alloc.dropped", "trajectory.passes",
] + [f"convex_core.{kind}.{what}" for kind in ("power", "trajectory")
     for what in ("solves", "iters", "stop.iteration_cap",
                  "stop.line_search_stalled", "stop.pg_tolerance")] + [
    f"trajectory.stop.{key}" for key in
    ("converged", "iteration_cap", *(k for _, k in _TRAJECTORY_STOPS), "other")]

# span names, each reported as <name>.s and <name>.calls (or as named below)
SPANS = (ROOT, "orchestrator.complete_powers", "matching.init_matching",
         "matching.msma", "power_alloc.scp_power", "power_alloc.restore_feasible",
         "power_alloc.surrogate", "convex_core.power", "convex_core.trajectory",
         "convex_core.project", "trajectory.to_algorithm", "trajectory.horizontal",
         "trajectory.altitude", "trajectory.surrogate", "channel.gain_matrices",
         "link_rate.rate_report", "uav_power.move_radius")
# convex_core solves are counted by the hook; the slot count is fixed
_CALLS_SUFFIX = {"power_alloc.surrogate": "evals", "trajectory.surrogate": "evals",
                 "convex_core.power": None, "convex_core.trajectory": None,
                 ROOT: None}


def layer_metrics(tracer: Tracer) -> dict[str, float]:
    """Flat per-layer metrics: counts, self times (`.s`), per-call
    percentiles of inclusive time (`_s`), and each layer's total self time
    (`layer.<name>.s`)."""
    c = tracer.counts
    out: dict[str, float] = {name: c[name] for name in COUNT_METRICS}
    for span in SPANS:
        out[f"{span}.s"] = tracer.self_s[span]
        suffix = _CALLS_SUFFIX.get(span, "calls")
        if suffix:
            out[f"{span}.{suffix}"] = tracer.calls[span]
    for stage in ("matching", "trajectory", "power"):
        out[f"orchestrator.stage_moved_share.{stage}"] = _ratio(
            c[f"moved.raised.{stage}"], c[f"moved.passes.{stage}"])
    scp = tracer.durations["power_alloc.scp_power"]
    out["power_alloc.scp_power.p50_s"] = _percentile(scp, 50)
    out["power_alloc.scp_power.p90_s"] = _percentile(scp, 90)
    out["power_alloc.scp_power.max_s"] = max(scp, default=0.0)
    out["power_alloc.vars_mean"] = _ratio(c["power_alloc.vars"],
                                          tracer.calls["power_alloc.scp_power"])
    out["trajectory.to_algorithm.p90_s"] = _percentile(
        tracer.durations["trajectory.to_algorithm"], 90)
    out["trajectory.accept_share"] = _ratio(c["trajectory.stage_accepted"],
                                            c["trajectory.stage_iters"])
    for layer in LAYERS:
        out[f"layer.{layer}.s"] = sum(s for name, s in tracer.self_s.items()
                                      if name.split(".")[0] == layer)
    out["trace.slot.s"] = sum(tracer.durations[ROOT])
    return out


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def _percentile(values, q: float) -> float:
    return float(np.percentile(values, q)) if values else 0.0


def write_spans(tracer: Tracer, path) -> None:
    """One CSV row per span: id, parent id (-1 for a slot), slot id, name,
    start and end in seconds on the perf_counter clock."""
    with open(path, "w") as fh:
        fh.write("id,parent,slot,name,start,end\n")
        for sid, parent, root, name, start, end in sorted(tracer.spans):
            fh.write(f"{sid},{parent},{root},{name},{start!r},{end!r}\n")


def is_count(name: str) -> bool:
    """True for metrics that are counts or ratios of counts, which repeat
    exactly for the same inputs; false for times."""
    return not name.endswith((".s", "_s"))
