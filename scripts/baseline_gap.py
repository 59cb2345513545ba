#!/usr/bin/env python3
"""Paired comparison of the joint algorithm against the random and
all-cellular baselines over seeded topologies.

Per seed all three algorithms run the same scenario, scored by the sum
rate, Jain's index and the PF utility U = sum_n log(avg rate_n + 0.1)
that the fairness weights ascend; the paired per-seed differences feed a
bootstrap, and the gap is declared significant when the 95% interval's
lower edge is positive.  Each algorithm's line also counts the slots that
fail `validate_solution`, since a gap is only as good as the slots behind
it."""

import argparse
import time

import numpy as np

from uavrelay.orchestrator import (paired_bootstrap_lower, run_episode,
                                  validate_solution)
from uavrelay.scenario import Scenario, dbm_to_watts


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--seeds", type=int, default=50)
    ap.add_argument("--dbm", type=float, default=None,
                    help="UE budget in dBm (default: scenario default)")
    ap.add_argument("--d-max", type=float, default=25.0)
    ap.add_argument("--fading", default="mixed",
                    choices=("none", "rayleigh", "rician", "mixed"))
    args = ap.parse_args()

    kw = dict(d_max=args.d_max, fading_model=args.fading)
    if args.dbm is not None:
        kw["p_ue_max"] = dbm_to_watts(args.dbm)

    t0 = time.time()
    metrics: dict[str, dict[str, list[float]]] = {}
    for algorithm in ("jmstp", "random", "cellular"):
        sums, jains, utilities = [], [], []
        invalid = slots = 0
        for seed in range(args.seeds):
            sc = Scenario(rng_seed=seed, **kw).with_positions(seed)
            log = run_episode(sc, algorithm)
            sums.append(log.sum_rate)
            jains.append(log.jain)
            utilities.append(log.pf_utility)
            slots += len(log.slots)
            invalid += sum(bool(validate_solution(sol, log.scenario, t))
                           for t, sol in enumerate(log.slots))
        metrics[algorithm] = {"sum": sums, "jain": jains, "U": utilities}
        print(f"{algorithm:>9}: sum rate {np.mean(sums):7.3f}"
              f"  jain {np.mean(jains):.4f}  pf utility {np.mean(utilities):8.3f}"
              f"  invalid slots {invalid}/{slots}"
              f"  ({time.time() - t0:.0f}s)")

    for rival in ("random", "cellular"):
        for name in ("sum", "jain", "U"):
            d = np.asarray(metrics["jmstp"][name]) - metrics[rival][name]
            lo = paired_bootstrap_lower(d)
            verdict = "significant" if lo > 0 else "NOT significant"
            print(f"jmstp vs {rival:>8} on {name:>4}: mean gap {d.mean():+8.4f}"
                  f"  95% lower edge {lo:+8.4f}  -> {verdict}")


if __name__ == "__main__":
    main()
