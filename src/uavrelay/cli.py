"""Command-line front end.

Four subcommands: `run` solves one episode and writes episode.csv plus
summary.json, `sweep` averages metrics over seeds along one scenario axis
and writes sweep.csv, `validate` checks a config file, and `ici-check`
prints the interference-to-signal ratios behind the constant ICI term.

All numeric values in configs and sweep values are SI (watts, meters,
seconds) unless the key carries a unit suffix; see load_scenario.
Exit status: 0 on success, 2 when a config cannot be read or fails
validation, or when a sweep value gives a scenario that fails validation
(checked before the first episode runs, so nothing is written).
"""

from __future__ import annotations

import argparse
import csv
import json
import sys
from pathlib import Path

from .channel import ici_ratio_db, occupancy_sensitivity, reference_ici_context
from .orchestrator import (ALGORITHMS, SWEEP_AXES, SWEEP_METRICS, EpisodeLog,
                           run_episode, sweep)
from .scenario import Scenario, load_scenario
from .uav_power import flying_power, flying_power_upper

EPISODE_COLUMNS = ("slot", "ue", "mode", "subchannels", "rate", "weight",
                   "objective", "uav_x", "uav_y", "uav_z", "speed",
                   "flying_power")
SWEEP_COLUMNS = ("axis", "value", "algorithm", "seeds", *SWEEP_METRICS)
MODE_NAMES = ("cellular", "relay")


def _read_config(path: str) -> Scenario:
    return load_scenario(Path(path).read_text())


def write_episode_csv(log: EpisodeLog, path: Path) -> None:
    """One row per (slot, UE); slot-level fields repeat within the slot."""
    sc = log.scenario
    with path.open("w", newline="") as fh:
        out = csv.writer(fh)
        out.writerow(EPISODE_COLUMNS)
        for t, sol in enumerate(log.slots):
            power = flying_power_upper(sol.speed / sc.slot_len, sc.propulsion)
            for n in range(sc.n_ues):
                ks = sol.alloc[n].nonzero()[0]
                mode = MODE_NAMES[int(sol.beta[n])] if ks.size else "idle"
                out.writerow([
                    t, n, mode, ";".join(str(int(k)) for k in ks),
                    f"{sol.rates[n]:.9g}", f"{sol.weights[n]:.9g}",
                    f"{sol.objective:.9g}",
                    f"{sol.position[0]:.6f}", f"{sol.position[1]:.6f}",
                    f"{sol.position[2]:.6f}",
                    f"{sol.speed / sc.slot_len:.6f}", f"{power:.6f}",
                ])


def episode_summary(log: EpisodeLog) -> dict:
    sc = log.scenario

    def energy(power) -> float:
        return sum(power(s.speed / sc.slot_len, sc.propulsion) * sc.slot_len
                   for s in log.slots)

    return {
        "algorithm": log.algorithm,
        "n_ues": sc.n_ues,
        "n_subchannels": sc.n_subchannels,
        "n_slots": sc.n_slots,
        "sum_rate": log.sum_rate,
        "jain": log.jain,
        "pf_utility": log.pf_utility,
        "avg_speed": log.avg_speed,
        "n_relay_ues": log.n_relay_ues,
        "n_scheduled_ues": log.n_scheduled_ues,
        "per_ue_avg_rate": [float(r) for r in log.avg_rates],
        "flying_energy": energy(flying_power_upper),
        "flying_energy_exact": energy(flying_power),
        "final_uav_position": [float(x) for x in log.slots[-1].position],
    }


def cmd_run(args) -> int:
    sc = _read_config(args.config)
    log = run_episode(sc, args.algorithm)
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    write_episode_csv(log, out_dir / "episode.csv")
    (out_dir / "summary.json").write_text(
        json.dumps(episode_summary(log), indent=2) + "\n")
    print(f"{args.algorithm}: sum rate {log.sum_rate:.4f}, "
          f"jain {log.jain:.4f}, pf utility {log.pf_utility:.4f}, "
          f"wrote {out_dir / 'episode.csv'}")
    return 0


def cmd_sweep(args) -> int:
    sc = _read_config(args.config)
    values = [float(v) for v in args.values.split(",") if v.strip()]
    if not values:
        raise ValueError("--values must name at least one number")
    rows = sweep(sc, args.axis, values, n_seeds=args.seeds)
    out_path = Path(args.out) / "sweep.csv"
    out_path.parent.mkdir(parents=True, exist_ok=True)
    with out_path.open("w", newline="") as fh:
        out = csv.writer(fh)
        out.writerow(SWEEP_COLUMNS)
        for row in rows:
            out.writerow([row["axis"], f"{row['value']:.9g}", row["algorithm"],
                          row["seeds"]] +
                         [f"{row[m]:.9g}" for m in SWEEP_METRICS])
    print(f"wrote {len(rows)} rows to {out_path}")
    return 0


def cmd_validate(args) -> int:
    sc = _read_config(args.config)
    print(f"ok: {sc.n_ues} UEs, {sc.n_subchannels} subchannels, "
          f"{sc.n_slots} slots")
    return 0


def cmd_ici_check(args) -> int:
    relay = ici_ratio_db("relay", reference_ici_context("relay"))
    cell = ici_ratio_db("cellular", reference_ici_context("cellular"))
    print("interference-to-signal ratios at the reference geometry, full occupancy:")
    print(f"  relay backhaul : {relay:7.2f} dB")
    print(f"  direct uplink  : {cell:7.2f} dB")
    print("occupancy sensitivity (fraction of co-channel carriers active):")
    print("  fraction   relay dB   cellular dB")
    for frac, r, c in occupancy_sensitivity():
        print(f"  {frac:8.2f}   {r:8.2f}   {c:11.2f}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="uavrelay",
        description="OFDMA uplink simulator with an amplify-and-forward "
                    "UAV relay: joint mode selection, subchannel matching, "
                    "trajectory and power optimization.")
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="solve one episode, write episode.csv "
                                       "and summary.json")
    p_run.add_argument("config", help="scenario config (JSON)")
    p_run.add_argument("--algorithm", choices=ALGORITHMS, default="jmstp")
    p_run.add_argument("--out", default=".", help="output directory")
    p_run.set_defaults(func=cmd_run)

    p_sweep = sub.add_parser("sweep", help="average metrics over seeds along "
                                           "one scenario axis, write sweep.csv")
    p_sweep.add_argument("config", help="scenario template (JSON)")
    p_sweep.add_argument("--axis", choices=SWEEP_AXES, required=True)
    p_sweep.add_argument("--values", required=True,
                         help="comma-separated axis values, SI units")
    p_sweep.add_argument("--seeds", type=int, default=10)
    p_sweep.add_argument("--out", default=".", help="output directory")
    p_sweep.set_defaults(func=cmd_sweep)

    p_val = sub.add_parser("validate", help="check a config file")
    p_val.add_argument("config")
    p_val.set_defaults(func=cmd_validate)

    p_ici = sub.add_parser("ici-check", help="print the interference ratios "
                                             "behind the constant ICI term")
    p_ici.set_defaults(func=cmd_ici_check)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, OSError) as exc:
        print(f"invalid: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
