#!/usr/bin/env python3
"""Sweep the UE power budget and compare algorithms on sum rate, fairness,
proportional-fair utility and scheduling counts.  Writes one CSV row per
(power, algorithm), the seed means that `sweep` would give.

Per power, every algorithm runs the same seeded scenarios, so the script
also prints the paired per-seed gaps jmstp - random and jmstp - cellular
on the sum rate and the PF utility: the mean gap and the 95% bootstrap
lower edge, as `baseline_gap.py` reports them at one power."""

import argparse
import csv
from pathlib import Path

import numpy as np

from uavrelay.orchestrator import ALGORITHMS, paired_bootstrap_lower, sweep_logs, sweep_row
from uavrelay.scenario import Scenario, dbm_to_watts

RIVALS = ("random", "cellular")
GAP_METRICS = ("sum_rate", "pf_utility")


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--dbm", default="5,8,11,14,17,20",
                    help="comma-separated budgets in dBm")
    ap.add_argument("--seeds", type=int, default=50)
    ap.add_argument("--d-max", type=float, default=15.0)
    ap.add_argument("--fading", default="mixed",
                    choices=("none", "rayleigh", "rician", "mixed"))
    ap.add_argument("--out", default="power_sweep.csv")
    args = ap.parse_args()

    template = Scenario(d_max=args.d_max, fading_model=args.fading)
    dbms = [float(v) for v in args.dbm.split(",")]
    # seed s runs the template with rng_seed=s: the episodes of `sweep`
    runs = sweep_logs(template, "p_ue_max", [dbm_to_watts(dbm) for dbm in dbms], args.seeds)
    rows = [sweep_row("p_ue_max", value, algorithm, logs)
            for value, by_algorithm in runs for algorithm, logs in by_algorithm.items()]
    logs = [by_algorithm for _, by_algorithm in runs]
    with Path(args.out).open("w", newline="") as fh:
        w = csv.DictWriter(fh, fieldnames=list(rows[0]))
        w.writeheader()
        w.writerows(rows)

    print(f"{'dBm':>6} {'algorithm':>10} {'sum_rate':>9} {'jain':>7} {'pf_utility':>10}"
          f" {'scheduled':>9} {'relay':>6}")
    for dbm, row in zip(np.repeat(dbms, len(ALGORITHMS)), rows):
        print(f"{dbm:6.1f} {row['algorithm']:>10}"
              f" {row['sum_rate']:9.3f} {row['jain']:7.4f} {row['pf_utility']:10.3f}"
              f" {row['n_scheduled_ues']:9.3f} {row['n_relay_ues']:6.3f}")

    print(f"\n{'dBm':>6} {'gap':>15} {'metric':>10} {'mean':>9} {'lower':>9}")
    for dbm, by_algorithm in zip(dbms, logs):
        for rival in RIVALS:
            for m in GAP_METRICS:
                d = np.array([getattr(a, m) - getattr(b, m) for a, b in
                              zip(by_algorithm["jmstp"], by_algorithm[rival])])
                print(f"{dbm:6.1f} {'jmstp-' + rival:>15} {m:>10}"
                      f" {d.mean():+9.4f} {paired_bootstrap_lower(d):+9.4f}")
    print(f"wrote {args.out}")


if __name__ == "__main__":
    main()
