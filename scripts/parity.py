#!/usr/bin/env python3
"""Slot-by-slot answer parity between two checkouts of the package.

Dump mode runs every slot of the three benchmark panels (perfbench's
relay_mixed, dense_cellular and random_cold), relay_mixed's first four
scenarios under fading "none" and "rayleigh" with each of the three
algorithms, relay_mixed's whole panel at a UE budget of 20 dBm under
jmstp and cellular, where the powers a candidate carries from the
incumbent matter most, and relay_dense: jmstp at 20 UEs x 40
subchannels on seeds 0-9, the size where the relayed matching tables,
the trajectory's peers and the relay power are largest.  It writes per
slot the modes, the allocation, the objective, the UAV position and the
output check's findings to JSON:

    python3 scripts/parity.py CHECKOUT --out parity.json

The package and perfbench/workloads.py are imported from CHECKOUT (its
src/ and perfbench/ directories); workloads.py is only read.  Diff mode
compares two dumps and prints, per workload, the slot count, the slots
whose beta/alloc or findings differ, the largest objective move relative
to max(|A|, 1), the largest UAV position move in metres, how many slots'
objectives rose and how many fell from A to B, each by more than
`SIGNED_TOL` relative to max(|A|, 1), and the summed signed objective
change B - A, so that a change that moves answers shows which way:

    python3 scripts/parity.py --diff parent.json change.json

and ends with a verdict line: DIFFER when any slot's beta/alloc or
findings differ (or the two dumps hold different slots), else "SAME,
bit-identical" when every objective and position is exactly equal, else
SAME.  It exits 1 on DIFFER, 0 otherwise, so that an exact-answer change
can gate on the exit status.  Findings mode prints every slot of one
dump whose output check found a problem, and exits 1 when there is one:

    python3 scripts/parity.py --findings change.json
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
HIGH_DBM = 20.0
HIGH_ALGORITHMS = ("jmstp", "cellular")
DENSE_SEEDS = 10
SIGNED_TOL = 1e-12  # a smaller objective move counts as neither a rise nor a fall


def episodes(workloads):
    """(workload label, episode label, scenario, algorithm) for every
    episode that the dump runs."""
    from uavrelay.scenario import dbm_to_watts  # the checkout's, on the path

    for name, w in workloads.WORKLOADS.items():
        for i, sc in enumerate(workloads.panel(w)):
            yield name, i, sc, w.algorithm
    relay = workloads.WORKLOADS["relay_mixed"]
    for fading in EXTRA_FADING:
        for algorithm in ALGORITHMS:
            for i in range(EXTRA_SEEDS):
                sc = replace(workloads.scenario(relay, i), fading_model=fading)
                yield f"{fading}:{algorithm}", i, sc, algorithm
    for algorithm in HIGH_ALGORITHMS:
        for i, sc in enumerate(workloads.panel(relay)):
            sc = replace(sc, p_ue_max=dbm_to_watts(HIGH_DBM))
            yield f"{HIGH_DBM:g}dBm:{algorithm}", i, sc, algorithm
    dense = workloads.WORKLOADS["dense_cellular"]  # its 20 x 40 scenarios
    for i in range(DENSE_SEEDS):
        yield "relay_dense", i, workloads.scenario(dense, i), "jmstp"


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
                                "objective": 0.0, "position": 0.0,
                                "rose": 0, "fell": 0, "change": 0.0})
    for key, ra in a.items():
        rb, row = b[key], rows[key[0]]
        row["slots"] += 1
        row["assign"] += ra["beta"] != rb["beta"] or ra["alloc"] != rb["alloc"]
        row["findings"] += ra["problems"] != rb["problems"]
        # the package's own max(1, |objective|) scale: a slot that serves
        # no one in A (objective 0) reports its move in absolute terms
        scale = max(abs(ra["objective"]), 1.0)
        change = rb["objective"] - ra["objective"]
        row["objective"] = max(row["objective"], abs(change) / scale)
        row["position"] = max(row["position"], math.dist(ra["position"], rb["position"]))
        row["rose"] += change > SIGNED_TOL * scale
        row["fell"] += change < -SIGNED_TOL * scale
        row["change"] += change
    print(f"{'workload':<18} {'slots':>5} {'beta/alloc':>10} {'findings':>8} "
          f"{'max rel obj':>12} {'max pos m':>10} {'rose':>5} {'fell':>5} {'sum obj B-A':>12}")
    for name, row in rows.items():
        print(f"{name:<18} {row['slots']:>5} {row['assign']:>10} {row['findings']:>8} "
              f"{row['objective']:>12.2e} {row['position']:>10.2e} "
              f"{row['rose']:>5} {row['fell']:>5} {row['change']:>+12.4e}")
    differ = sum(bool(r["assign"] or r["findings"]) for r in rows.values())
    moved = any(r["objective"] or r["position"] for r in rows.values())
    verdict = ("DIFFER beta/alloc and findings" if differ
               else "SAME beta/alloc and findings" if moved else "SAME, bit-identical")
    print(f"verdict: {verdict} ({differ} of {len(rows)} workloads differ)")
    return int(differ > 0)


def findings(path: Path) -> int:
    slots = json.loads(path.read_text())["slots"]
    found = [r for r in slots if r["problems"]]
    for r in found:
        print(f"{r['workload']} episode {r['episode']} slot {r['slot']}: "
              + "; ".join(r["problems"]))
    print(f"{len(found)} of {len(slots)} slots with findings")
    return int(bool(found))


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("checkout", nargs="?", type=Path,
                    help="checkout whose src/ and perfbench/ are imported")
    ap.add_argument("--out", type=Path, help="JSON file the dump is written to")
    ap.add_argument("--diff", nargs=2, type=Path, metavar=("A", "B"),
                    help="compare two dumps instead of running one")
    ap.add_argument("--findings", type=Path, metavar="DUMP",
                    help="list the slots of one dump whose output check found a problem")
    args = ap.parse_args(argv)
    if args.diff:
        return diff(*args.diff)
    if args.findings:
        return findings(args.findings)
    if args.checkout is None or args.out is None:
        ap.error("give CHECKOUT and --out, --diff A B, or --findings DUMP")
    dump(args.checkout.resolve(), args.out)
    return 0


if __name__ == "__main__":
    sys.exit(main())
