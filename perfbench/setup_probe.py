"""Time one fresh-process set-up: importing `uavrelay` (numpy included)
and building a workload's scenarios, up to where the first episode would
start.  Prints the seconds taken, then the median time of three runs of
the reference kernel (`speed.py`) made after the set-up.  `run.py`
starts this script several times per run, with the checkout's `src` on
PYTHONPATH, and reports the median of the set-up times scaled to the
kernel's reference speed as `setup_s`."""

import time

_START = time.perf_counter()

import argparse  # noqa: E402
import statistics  # noqa: E402

import workloads  # noqa: E402  (imports uavrelay and numpy)


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    args = ap.parse_args()
    workload = workloads.WORKLOADS[args.workload]
    workloads.panel(workload)
    workloads.check_scenarios(workload, args.seed)
    elapsed = time.perf_counter() - _START
    import speed
    kernel = statistics.median(speed.sample() for _ in range(3))
    print(repr(elapsed), repr(kernel))


if __name__ == "__main__":
    main()
