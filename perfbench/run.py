#!/usr/bin/env python3
"""Benchmark for uavrelay: per-slot solve time, throughput, set-up time
and answer quality on three workloads, and a traced run that splits slot
time over the package's layers.

    python3 perfbench/run.py --workload relay_mixed --seed 1 --seconds 33 --trace 0
    python3 perfbench/run.py --workload all --seed 1

`--workload all` runs every workload untraced and traced and prints all
metrics.  The last line of standard output is one JSON object with the
keys correct, attempted, failed and metrics: the end-to-end metrics with
`--trace 0`, the per-layer metrics with `--trace 1`.  A results record
with the environment goes to perfbench/out/.  Run from any directory; the
package is imported from this checkout's src/ only.
"""

import os

# one BLAS/OpenMP thread, set before numpy loads
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORKLOADS = ("relay_mixed", "dense_cellular", "random_cold")


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=36.0,
                    help="time budget for the panel episodes and their repeats")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return ap.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "uavrelay" / "__init__.py").is_file():
        print(f"perfbench: no uavrelay package under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import uavrelay
    if Path(uavrelay.__file__).resolve().parent != SRC / "uavrelay":
        print(f"perfbench: imported uavrelay from {uavrelay.__file__}, "
              f"not from {SRC}", file=sys.stderr)
        return 2
    import bench
    import workloads

    names = WORKLOADS if args.workload == "all" else (args.workload,)
    modes = (False, True) if args.workload == "all" else (bool(args.trace),)
    results = []
    for name in names:
        for traced in modes:
            w = workloads.WORKLOADS[name]
            result = (bench.measure_traced(w, args.seed) if traced
                      else bench.measure(w, args.seed, args.seconds))
            bench.report(result)
            results.append(result)
    env = bench.environment(args.seed)
    print(f"   environment: {json.dumps(env)}")

    bench.OUT.mkdir(exist_ok=True)
    for r in results:
        path = bench.OUT / f"{r.workload}-seed{r.seed}-trace{int(r.trace)}.json"
        path.write_text(json.dumps({
            "workload": r.workload, "seed": r.seed, "trace": r.trace,
            "environment": env, "metrics": r.metrics, "units": r.units,
            "attempted": r.checks.attempted, "failed": r.checks.failed,
            "problems": dict(r.checks.problems),
            "unexpected": r.checks.unexpected, "info": r.info}, indent=1))

    prefix = len(results) > 1
    print(json.dumps({
        "correct": all(r.checks.correct for r in results),
        "attempted": sum(r.checks.attempted for r in results),
        "failed": sum(r.checks.failed for r in results),
        "metrics": {(f"{r.workload}.{k}" if prefix else k):
                    {"value": v, "unit": r.units[k]}
                    for r in results for k, v in r.metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
