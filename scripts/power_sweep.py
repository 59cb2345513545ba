#!/usr/bin/env python3
"""Sweep the UE power budget and compare algorithms on sum rate, fairness,
proportional-fair utility and scheduling counts.  Writes one CSV row per
(power, algorithm)."""

import argparse
import csv
from pathlib import Path

from uavrelay.orchestrator import ALGORITHMS, sweep
from uavrelay.scenario import Scenario, dbm_to_watts


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--dbm", default="5,8,11,14,17,20",
                    help="comma-separated budgets in dBm")
    ap.add_argument("--seeds", type=int, default=50)
    ap.add_argument("--d-max", type=float, default=15.0)
    ap.add_argument("--fading", default="mixed",
                    choices=("none", "rayleigh", "rician", "mixed"))
    ap.add_argument("--out", default="power_sweep.csv")
    args = ap.parse_args()

    template = Scenario(d_max=args.d_max, fading_model=args.fading)
    values = [dbm_to_watts(float(v)) for v in args.dbm.split(",")]
    rows = sweep(template, "p_ue_max", values, n_seeds=args.seeds,
                 algorithms=ALGORITHMS)

    with Path(args.out).open("w", newline="") as fh:
        w = csv.DictWriter(fh, fieldnames=list(rows[0]))
        w.writeheader()
        w.writerows(rows)

    print(f"{'dBm':>6} {'algorithm':>10} {'sum_rate':>9} {'jain':>7} {'pf_utility':>10}"
          f" {'scheduled':>9} {'relay':>6}")
    for dbm_s, value in zip(args.dbm.split(","), values):
        for row in rows:
            if row["value"] == value:
                print(f"{float(dbm_s):6.1f} {row['algorithm']:>10}"
                      f" {row['sum_rate']:9.3f} {row['jain']:7.4f} {row['pf_utility']:10.3f}"
                      f" {row['n_scheduled_ues']:9.3f} {row['n_relay_ues']:6.3f}")
    print(f"wrote {args.out}")


if __name__ == "__main__":
    main()
