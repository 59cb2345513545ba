#!/usr/bin/env python3
"""Slot-by-slot answer parity between two checkouts of the package.

Dump mode runs every slot of the three benchmark panels (perfbench's
relay_mixed, dense_cellular and random_cold) plus relay_mixed's first four
scenarios under fading "none" and "rayleigh" with each of the three
algorithms, and writes per slot the modes, the allocation, the objective,
the UAV position and the output check's findings to JSON:

    python3 scripts/parity.py CHECKOUT --out parity.json

The package and perfbench/workloads.py are imported from CHECKOUT (its
src/ and perfbench/ directories); workloads.py is only read.  Diff mode
compares two dumps and prints, per workload, the slot count, the slots
whose beta/alloc or findings differ, the largest objective move relative
to max(|A|, 1) and the largest UAV position move in metres:

    python3 scripts/parity.py --diff parent.json change.json

and ends with a verdict line; it exits 1 when any slot's beta/alloc or
findings differ (or the two dumps hold different slots), 0 otherwise, so
that an exact-answer change can gate on the exit status.
"""

import os

# one BLAS/OpenMP thread, set before numpy loads
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import sys  # noqa: E402
from collections import defaultdict  # noqa: E402
from dataclasses import replace  # noqa: E402
from pathlib import Path  # noqa: E402

EXTRA_SEEDS = 4
EXTRA_FADING = ("none", "rayleigh")
ALGORITHMS = ("jmstp", "random", "cellular")


def episodes(workloads):
    """(workload label, episode label, scenario, algorithm) for every
    episode that the dump runs."""
    for name, w in workloads.WORKLOADS.items():
        for i, sc in enumerate(workloads.panel(w)):
            yield name, i, sc, w.algorithm
    relay = workloads.WORKLOADS["relay_mixed"]
    for fading in EXTRA_FADING:
        for algorithm in ALGORITHMS:
            for i in range(EXTRA_SEEDS):
                sc = replace(workloads.scenario(relay, i), fading_model=fading)
                yield f"{fading}:{algorithm}", i, sc, algorithm


def dump(checkout: Path, out: Path) -> None:
    sys.path[:0] = [str(checkout / "src"), str(checkout / "perfbench")]
    from uavrelay.orchestrator import run_episode
    import workloads

    records = []
    for label, episode, sc, algorithm in episodes(workloads):
        log = run_episode(sc, algorithm)
        for t, sol in enumerate(log.slots):
            records.append({
                "workload": label, "episode": episode, "slot": t,
                "beta": sol.beta.tolist(), "alloc": sol.alloc.tolist(),
                "objective": float(sol.objective),
                "position": [float(v) for v in sol.position],
                "problems": workloads.check_slot(sol, log.scenario, t),
            })
    out.write_text(json.dumps({"checkout": str(checkout), "slots": records}))
    print(f"{len(records)} slots -> {out}")


def diff(path_a: Path, path_b: Path) -> int:
    def keyed(path):
        doc = json.loads(path.read_text())
        return {(r["workload"], r["episode"], r["slot"]): r for r in doc["slots"]}

    a, b = keyed(path_a), keyed(path_b)
    if a.keys() != b.keys():
        print(f"slot sets differ: {len(a.keys() - b.keys())} only in A, "
              f"{len(b.keys() - a.keys())} only in B")
        print("verdict: DIFFER slot sets")
        return 1
    rows = defaultdict(lambda: {"slots": 0, "assign": 0, "findings": 0,
                                "objective": 0.0, "position": 0.0})
    for key, ra in a.items():
        rb, row = b[key], rows[key[0]]
        row["slots"] += 1
        row["assign"] += ra["beta"] != rb["beta"] or ra["alloc"] != rb["alloc"]
        row["findings"] += ra["problems"] != rb["problems"]
        # the package's own max(1, |objective|) scale: a slot that serves
        # no one in A (objective 0) reports its move in absolute terms
        scale = max(abs(ra["objective"]), 1.0)
        row["objective"] = max(row["objective"],
                               abs(ra["objective"] - rb["objective"]) / scale)
        row["position"] = max(row["position"], math.dist(ra["position"], rb["position"]))
    print(f"{'workload':<18} {'slots':>5} {'beta/alloc':>10} {'findings':>8} "
          f"{'max rel obj':>12} {'max pos m':>10}")
    for name, row in rows.items():
        print(f"{name:<18} {row['slots']:>5} {row['assign']:>10} {row['findings']:>8} "
              f"{row['objective']:>12.2e} {row['position']:>10.2e}")
    differ = sum(bool(r["assign"] or r["findings"]) for r in rows.values())
    print(f"verdict: {'DIFFER' if differ else 'SAME'} beta/alloc and findings "
          f"({differ} of {len(rows)} workloads differ)")
    return int(differ > 0)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("checkout", nargs="?", type=Path,
                    help="checkout whose src/ and perfbench/ are imported")
    ap.add_argument("--out", type=Path, help="JSON file the dump is written to")
    ap.add_argument("--diff", nargs=2, type=Path, metavar=("A", "B"),
                    help="compare two dumps instead of running one")
    args = ap.parse_args(argv)
    if args.diff:
        return diff(*args.diff)
    if args.checkout is None or args.out is None:
        ap.error("give CHECKOUT and --out, or --diff A B")
    dump(args.checkout.resolve(), args.out)
    return 0


if __name__ == "__main__":
    sys.exit(main())
