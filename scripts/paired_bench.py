#!/usr/bin/env python3
"""Paired benchmark runs of two checkouts, and the verdict on a claimed gain.

    python3 scripts/paired_bench.py BASE HEAD --workload relay_mixed --pairs 10 --seconds 12

Each pair runs `perfbench/run.py --workload W --seed SEED --seconds S
--trace 0` once from each checkout, each run with that checkout's own
perfbench and package, one after the other; the side that goes first
alternates from pair to pair, so that drift in machine speed falls on
both sides alike.  It prints every end-to-end metric of every pair, then
per metric each side's quartiles (25th, 50th and 75th percentiles,
linear interpolation), HEAD's wins and ties over the pairs (the direction
of "better" comes from HEAD's BENCHMARK.json), and the verdict on a gain:
"equal" with the value when every run of both sides reads the same, to
the last digit; WORSE when HEAD's median is worse than BASE's by more
than the metric's BENCHMARK.json `bound`, relative to BASE's median; GAIN
when HEAD wins at least 9 in 10 of all pairs run, ties counting for
neither, and the two medians differ in HEAD's favour by more than BASE's
interquartile range; otherwise "no gain".  It exits 1 when any metric is
WORSE.
"""

import argparse
import json
import subprocess
import sys
from pathlib import Path

import numpy as np

WIN_SHARE = 0.9


def run(checkout: Path, workload: str, seed: int, seconds: float) -> dict[str, float]:
    """End-to-end metrics of one untraced benchmark run of `checkout`."""
    done = subprocess.run(
        [sys.executable, str(checkout / "perfbench" / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        capture_output=True, text=True)
    if done.returncode != 0:
        sys.exit(f"paired_bench: {checkout} failed:\n{done.stderr}")
    out = json.loads(done.stdout.strip().splitlines()[-1])
    if not out["correct"]:
        print(f"warning: {checkout} reported an incorrect run "
              f"({out['failed']} of {out['attempted']} failed)", file=sys.stderr)
    return {name: m["value"] for name, m in out["metrics"].items()}


def verdict(base, head, lower_is_better: bool, bound: float):
    """(wins, ties, gap, iqr, said) of HEAD over BASE on one metric's
    paired samples: `gap` is the median improvement, in the metric's
    units, and `said` the verdict, which `bound` (a share of BASE's
    median) parts into WORSE and the rest."""
    base, head = np.asarray(base, dtype=float), np.asarray(head, dtype=float)
    sign = -1.0 if lower_is_better else 1.0
    diff = sign * (head - base)
    wins, ties = int((diff > 0).sum()), int((diff == 0).sum())
    gap = float(sign * (np.median(head) - np.median(base)))
    q1, q3 = np.percentile(base, [25, 75])
    iqr = float(q3 - q1)
    if np.all(base == base[0]) and np.all(head == base[0]):
        said = f"equal {float(base[0])!r}"
    elif -gap > bound * abs(np.median(base)):
        said = "WORSE"
    elif wins >= WIN_SHARE * base.size and gap > iqr:
        said = "GAIN"
    else:
        said = "no gain"
    return wins, ties, gap, iqr, said


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("base", type=Path, help="checkout of the parent")
    ap.add_argument("head", type=Path, help="checkout of the change")
    ap.add_argument("--workload", required=True)
    ap.add_argument("--pairs", type=int, default=10)
    ap.add_argument("--seconds", type=float, default=12.0)
    ap.add_argument("--seed", type=int, default=1)
    args = ap.parse_args()
    if args.pairs < 1:
        ap.error("need at least one pair")

    spec = json.loads((args.head / "BENCHMARK.json").read_text())["end_to_end"]
    lower = {m["name"]: m["better"] == "lower" for m in spec}
    bound = {m["name"]: m["bound"] for m in spec}
    sides = {"base": [], "head": []}
    for i in range(args.pairs):
        order = ("base", "head") if i % 2 == 0 else ("head", "base")
        for side in order:
            sides[side].append(run(getattr(args, side), args.workload, args.seed,
                                   args.seconds))
        print(f"pair {i + 1} ({order[0]} first)")
        for name in lower:
            b, h = sides["base"][-1][name], sides["head"][-1][name]
            print(f"  {name:18s} base {b:.7g}  head {h:.7g}  head/base {h / b:.4f}"
                  if b else f"  {name:18s} base {b:.7g}  head {h:.7g}")
        sys.stdout.flush()

    print(f"\n{args.workload}, {args.pairs} pairs, seed {args.seed}, {args.seconds:g} s runs")
    print(f"{'metric':18s} {'base q1/median/q3':>36s} {'head q1/median/q3':>36s}"
          f" {'wins':>5s} {'ties':>5s} {'gap':>11s} {'base iqr':>10s}  verdict")
    worse = False
    for name, lower_is_better in lower.items():
        base = [r[name] for r in sides["base"]]
        head = [r[name] for r in sides["head"]]
        wins, ties, gap, iqr, said = verdict(base, head, lower_is_better, bound[name])
        worse |= said == "WORSE"
        quart = {side: "/".join(f"{q:.5g}" for q in np.percentile(v, [25, 50, 75]))
                 for side, v in (("base", base), ("head", head))}
        print(f"{name:18s} {quart['base']:>36s} {quart['head']:>36s} {wins:5d} {ties:5d}"
              f" {gap:11.4g} {iqr:10.4g}  {said}")
    return 1 if worse else 0


if __name__ == "__main__":
    sys.exit(main())
