#!/usr/bin/env python3
"""Per-kernel A/B of the matching stage between two checkouts, in one process.

    python3 scripts/kernel_ab.py BASE HEAD --workload relay_mixed

The greedy starts of one benchmark panel are captured first: HEAD's
package and perfbench/workloads.py run every episode of the panel, and
each `init_matching` call the matching stage makes is recorded with its
inputs (scenario, gains, weights, modes) and whether it opened a new slot
or a new channel state.  Both checkouts' packages are then imported side
by side, as `ab_base` and `ab_head`, and each replays the captured starts
on contexts of its own: a fresh `MatchingContext` per slot and `moved()`
per further channel state, as the stage builds them, so each kernel pays
for the tables it builds lazily.  Each start's view then plays
`msma_detailed`.  A start whose `beta`, `alloc`, `n_swaps` or
`examined_per_round` differ between the two sides is a mismatch.

It prints the number of starts, the mismatches, and the microseconds per
call of `init_matching` (the whole replay, context set-up included) and
of `msma_detailed` on each side, each the fastest of `REPEATS` (7) runs
(the two sides alternating within each repeat), with HEAD / BASE.  It
exits 1 when there is a mismatch.  Traced benchmark runs cannot give
this comparison, since their per-layer times drift between runs by more
than a kernel change moves them.

Workloads: relay_mixed (jmstp at 5 x 10) and dense_cellular (cellular at
20 x 40) are perfbench's panels; relay_dense runs jmstp on
dense_cellular's scenarios, seeds 0-9, as `scripts/parity.py` does.
"""

import os

# one BLAS/OpenMP thread, set before numpy loads
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import importlib  # noqa: E402
import importlib.util  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

# workload: (perfbench panel, algorithm, episodes)
WORKLOADS = {
    "relay_mixed": ("relay_mixed", "jmstp", None),
    "dense_cellular": ("dense_cellular", "cellular", None),
    "relay_dense": ("dense_cellular", "jmstp", 10),
}
REPEATS = 7  # timed runs per kernel and side


def capture(head: Path, workload: str) -> list[tuple]:
    """(new slot, new state, scenario, gains, weights, modes) of every
    greedy start the matching stage plays over the workload's panel."""
    sys.path[:0] = [str(head / "src"), str(head / "perfbench")]
    from uavrelay import orchestrator
    import workloads

    panel_name, algorithm, episodes = WORKLOADS[workload]
    panel = workloads.panel(workloads.WORKLOADS[panel_name])[:episodes]
    starts, last = [], [None]
    original = orchestrator.init_matching

    def recorded(ctx, modes):
        prev = last[0]
        new_slot = prev is None or ctx.weights is not prev.weights
        starts.append((new_slot, new_slot or ctx is not prev, ctx.scenario, ctx.gains,
                       ctx.weights, np.array(modes)))
        last[0] = ctx  # held, so that `is` never meets a reused id
        return original(ctx, modes)

    orchestrator.init_matching = recorded
    try:
        for sc in panel:
            orchestrator.run_episode(sc, algorithm)
    finally:
        orchestrator.init_matching = original
    return starts


def load_matching(checkout: Path, name: str):
    """The checkout's `uavrelay.matching`, its package imported as `name`."""
    init = checkout / "src" / "uavrelay" / "__init__.py"
    spec = importlib.util.spec_from_file_location(
        name, init, submodule_search_locations=[str(init.parent)])
    package = importlib.util.module_from_spec(spec)
    sys.modules[name] = package
    spec.loader.exec_module(package)
    return importlib.import_module(f"{name}.matching")


def replay(mt, starts) -> list:
    """Every captured start's view, on contexts built the stage's way."""
    views, ctx = [], None
    for new_slot, new_state, sc, gains, weights, modes in starts:
        if new_slot:
            ctx = mt.MatchingContext(sc, gains, weights)
        elif new_state:
            ctx = ctx.moved(gains)
        views.append(mt.init_matching(ctx, modes))
    return views


def fastest(runs: dict) -> dict:
    """The fastest of `REPEATS` timings of each side's run, in seconds;
    the sides alternate within each repeat, and which goes first from
    repeat to repeat, so that drift in machine speed falls on both."""
    best = dict.fromkeys(runs, float("inf"))
    for r in range(REPEATS):
        for label in list(runs)[::1 if r % 2 == 0 else -1]:
            t0 = time.perf_counter()
            runs[label]()
            best[label] = min(best[label], time.perf_counter() - t0)
    return best


def same(a, b) -> bool:
    return (np.array_equal(a.beta, b.beta) and np.array_equal(a.alloc, b.alloc)
            and a.n_swaps == b.n_swaps and a.examined_per_round == b.examined_per_round)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("base", type=Path, help="checkout whose src/ is the A side")
    ap.add_argument("head", type=Path, help="checkout whose src/ is the B side, and "
                                            "whose package and perfbench/ capture the starts")
    ap.add_argument("--workload", choices=sorted(WORKLOADS), default="relay_mixed")
    args = ap.parse_args(argv)

    starts = capture(args.head.resolve(), args.workload)
    sides = {label: load_matching(path.resolve(), f"ab_{label.lower()}")
             for label, path in (("BASE", args.base), ("HEAD", args.head))}
    views = {label: replay(mt, starts) for label, mt in sides.items()}
    results = {label: [mt.msma_detailed(v) for v in views[label]]
               for label, mt in sides.items()}
    mismatches = sum(not same(a, b) for a, b in zip(results["BASE"], results["HEAD"]))

    n = len(starts)
    print(f"workload {args.workload}: {n} greedy starts, {mismatches} mismatches")
    if not n:
        return 0
    times = [fastest({label: lambda mt=mt: replay(mt, starts) for label, mt in sides.items()}),
             fastest({label: lambda mt=mt, vs=views[label]: [mt.msma_detailed(v) for v in vs]
                      for label, mt in sides.items()})]
    print(f"{'kernel':<15} {'BASE us/call':>12} {'HEAD us/call':>12} {'HEAD/BASE':>9}")
    for kernel, timed in zip(("init_matching", "msma_detailed"), times):
        base, head = timed["BASE"] / n * 1e6, timed["HEAD"] / n * 1e6
        print(f"{kernel:<15} {base:>12.1f} {head:>12.1f} {head / base:>9.3f}")
    return int(mismatches > 0)


if __name__ == "__main__":
    sys.exit(main())
