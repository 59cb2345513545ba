"""Measurement, output checks and reporting for one workload.

Every metric is taken on the workload's fixed panel of scenarios, so that
runs differ only by machine noise: the solver's cost varies about tenfold
between scenarios, and sixteen freshly drawn scenarios per run left
run-to-run spreads of 25-35% on every timing.  The run seed draws extra
episodes that are only checked.

An untraced run makes one pass over the panel, then repeats its episodes
in the same order until the time budget is spent.  Each slot is timed by
one clock pair around the `jmstp_slot` call that `run_episode` makes, and
a reference kernel (`speed.py`) is timed right before every slot and after
the last.  Slot times are scaled to the kernel's reference speed by the
kernel times on either side of the slot, episode wall times by the mean
kernel time over the episode; a slot's time, and an episode's wall time,
is then its median over the repeats.  Outputs are checked after each
episode, outside the timed region.  A traced run runs each panel episode
untraced and traced, without the kernel; the per-layer metrics come from
the traced runs, and the ratio of the two throughputs is the tracing
overhead.
"""

from __future__ import annotations

import hashlib
import os
import platform
import statistics
import subprocess
import sys
import time
import warnings
from collections import Counter
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from uavrelay import orchestrator, run_episode

import speed
import tracer
import workloads
from workloads import Workload

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
SETUP_PROBES = 5
MOVE_RADIUS_WARNING = "move radius exceeds 20%"


@contextmanager
def timed_slots(times: list[float], kernel_times: list[float] | None = None):
    """Time every `jmstp_slot` call that `run_episode` makes; with
    `kernel_times`, time the reference kernel before each call too,
    outside the slot's clock pair."""
    original = orchestrator.jmstp_slot

    def timed(*args, **kwargs):
        if kernel_times is not None:
            kernel_times.append(speed.sample())
        start = time.perf_counter()
        sol = original(*args, **kwargs)
        times.append(time.perf_counter() - start)
        return sol

    orchestrator.jmstp_slot = timed
    try:
        yield
    finally:
        orchestrator.jmstp_slot = original


@dataclass
class EpisodeRun:
    """One episode: its wall time, the time of each slot, and its answers.
    With the reference kernel on, `kernel_times` holds its time before
    each slot and after the last, and `wall` excludes the kernel."""

    wall: float
    slot_times: list[float]
    objectives: list[float]
    warnings: int
    log: object
    kernel_times: list[float] | None = None

    def scaled_slot_times(self) -> np.ndarray:
        """Slot times at the kernel's reference speed."""
        k = np.asarray(self.kernel_times)
        return np.asarray(self.slot_times) * speed.REFERENCE_S / (0.5 * (k[:-1] + k[1:]))

    def scaled_wall(self) -> float:
        """Wall time at the kernel's reference speed."""
        return self.wall * speed.REFERENCE_S / statistics.fmean(self.kernel_times)


def run_one(workload: Workload, sc, reference: bool = False) -> EpisodeRun:
    """Run one episode; warnings are recorded and counted, not printed.
    With `reference`, time the reference kernel next to every slot."""
    times: list[float] = []
    kernel_times = [] if reference else None
    with warnings.catch_warnings(record=True) as caught, \
            timed_slots(times, kernel_times):
        warnings.simplefilter("always")
        start = time.perf_counter()
        log = run_episode(sc, workload.algorithm)
        wall = time.perf_counter() - start
    if reference:
        wall -= sum(kernel_times)
        kernel_times.append(speed.sample())
    return EpisodeRun(wall, times, [sol.objective for sol in log.slots],
                      sum(MOVE_RADIUS_WARNING in str(w.message) for w in caught),
                      log, kernel_times)


def slots_per_s(runs: list[EpisodeRun]) -> float:
    return sum(len(r.slot_times) for r in runs) / sum(r.wall for r in runs)


def setup_times(workload: Workload, seed: int) -> list[tuple[float, float]]:
    """Seconds to import uavrelay and build the workload's scenarios, each
    in a fresh process, one after another, with the reference kernel's
    time in that process."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    cmd = [sys.executable, str(HERE / "setup_probe.py"),
           "--workload", workload.name, "--seed", str(seed)]
    samples = []
    for _ in range(SETUP_PROBES):
        out = subprocess.run(cmd, env=env, check=True, capture_output=True,
                             text=True, timeout=120).stdout.split()
        samples.append((float(out[-2]), float(out[-1])))
    return samples


# ---------------------------------------------------------------------------
# Checks and metrics.

@dataclass
class Checks:
    """Outcome of the output check over every slot a run produced."""

    attempted: int = 0
    failed: int = 0
    problems: Counter = field(default_factory=Counter)
    unexpected: list[str] = field(default_factory=list)
    quality: list[workloads.EpisodeQuality] = field(default_factory=list)

    def check(self, run: EpisodeRun, label: str) -> None:
        """Check every slot of an episode; runs after the episode ends."""
        log = run.log
        problems = [workloads.check_slot(sol, log.scenario, t)
                    for t, sol in enumerate(log.slots)]
        for t, found in enumerate(problems):
            self.attempted += 1
            self.failed += bool(found)
            for p in found:
                kind = p.split(": ")[-1]
                self.problems[kind] += 1
                if not workloads.is_known_defect(kind):
                    self.unexpected.append(f"{label} slot {t}: {p}")
        self.quality.append(workloads.episode_quality(log, problems))
        run.log = None  # keep memory flat over long runs

    def reproduces(self, first: EpisodeRun, again: EpisodeRun, label: str) -> None:
        """A repeat of an episode must give the same answers."""
        if again.objectives != first.objectives:
            self.unexpected.append(f"{label}: objectives differ between repeats")

    @property
    def correct(self) -> bool:
        return not self.unexpected


def quality_metrics(q: list[workloads.EpisodeQuality]) -> dict[str, float]:
    slots = sum(e.slots for e in q)
    return {
        "valid_slot_share": sum(e.valid for e in q) / slots,
        "pf_objective": sum(e.objective_sum for e in q) / slots,
        "valid_sum_rate": sum(e.sum_rate_sum for e in q) / slots,
        "jain": float(np.mean([e.jain for e in q])),
    }


def harrell_davis(values, q: float) -> float:
    """Harrell-Davis estimate of the q-quantile: a Beta-weighted mean of
    all order statistics.  With a hundred slots the order statistics near
    p90 lie up to 20% apart, so the plain sample quantile jumps between
    runs; this estimate moves smoothly."""
    x = np.sort(np.asarray(values, dtype=float))
    n = x.size
    a, b = q * (n + 1), (1 - q) * (n + 1)
    t = np.linspace(0.0, 1.0, 20001)[1:-1]
    log_pdf = (a - 1) * np.log(t) + (b - 1) * np.log1p(-t)
    pdf = np.exp(log_pdf - log_pdf.max())
    cdf = np.concatenate([[0.0], np.cumsum(0.5 * (pdf[1:] + pdf[:-1]))])
    cdf /= cdf[-1]
    weights = np.diff(np.interp(np.arange(n + 1) / n, t, cdf))
    return float(weights @ x)


def timing_metrics(repeats: list[list[EpisodeRun]],
                   scaled: bool = True) -> dict[str, float]:
    """Each slot's time and each episode's wall time, scaled to the
    reference speed unless `scaled` is false, is its median over the
    episode's repeats; percentiles are over the panel's slots."""
    def slot_times(r):
        return r.scaled_slot_times() if scaled else r.slot_times

    def wall(r):
        return r.scaled_wall() if scaled else r.wall

    per_slot = np.concatenate([np.median([slot_times(r) for r in reps], axis=0)
                               for reps in repeats])
    walls = [statistics.median(wall(r) for r in reps) for reps in repeats]
    return {
        "slot_s_p50": harrell_davis(per_slot, 0.5),
        "slot_s_p90": harrell_davis(per_slot, 0.9),
        "slots_per_s": per_slot.size / sum(walls),
    }


UNITS = {"setup_s": "s", "slot_s_p50": "s", "slot_s_p90": "s",
         "slots_per_s": "1/s", "valid_slot_share": "ratio",
         "pf_objective": "bit/s/Hz", "valid_sum_rate": "bit/s/Hz",
         "jain": "ratio"}


def layer_unit(name: str) -> str:
    if name.endswith(".s") or name.endswith("_s"):
        return "s"
    if "share" in name or name == "trace.overhead":
        return "ratio"
    if name.endswith("_mean"):
        return "vars"
    return "count"


# ---------------------------------------------------------------------------
# Runs.

@dataclass
class Result:
    workload: str
    seed: int
    trace: bool
    metrics: dict[str, float]
    units: dict[str, str]
    checks: Checks
    info: dict


def measure(workload: Workload, seed: int, seconds: float) -> Result:
    """Untraced run: end-to-end metrics."""
    setup = setup_times(workload, seed)
    panel = workloads.panel(workload)
    checked = workloads.check_scenarios(workload, seed)
    checks = Checks()

    # one full pass over the panel, then repeats in the same order until
    # the time budget is spent; a last partial pass is kept
    start = time.perf_counter()
    repeats = []
    for i, sc in enumerate(panel):
        first = run_one(workload, sc, reference=True)
        checks.check(first, f"panel episode {i}")
        repeats.append([first])
    quality = quality_metrics(checks.quality)
    i = 0
    while time.perf_counter() - start < seconds:
        reps = repeats[i % len(panel)]
        again = run_one(workload, panel[i % len(panel)], reference=True)
        checks.reproduces(reps[0], again, f"panel episode {i % len(panel)}")
        again.log = None
        reps.append(again)
        i += 1
    for i, sc in enumerate(checked):
        checks.check(run_one(workload, sc), f"checked episode {i}")

    setup_s = statistics.median(t * speed.REFERENCE_S / k for t, k in setup)
    metrics = {"setup_s": setup_s, **timing_metrics(repeats),
               **quality}
    n_slots = workloads.N_SLOTS * len(panel)
    info = {
        "setup_s_samples": setup,
        "unscaled": {"setup_s": statistics.median(t for t, _ in setup),
                     **timing_metrics(repeats, scaled=False)},
        "kernel_s_median": statistics.median(
            k for reps in repeats for r in reps for k in r.kernel_times),
        "kernel_s_reference": speed.REFERENCE_S,
        "panel_episodes": len(panel),
        "repeats": [len(reps) for reps in repeats],
        "slots_per_percentile": n_slots,
        "slots_beyond_p90": n_slots - int(np.ceil(0.9 * n_slots)),
        "episode_walls": [[r.wall for r in reps] for reps in repeats],
        "slot_times": [[r.slot_times for r in reps] for reps in repeats],
        "kernel_times": [[r.kernel_times for r in reps] for reps in repeats],
        "checked_episodes": len(checked),
        "move_radius_warnings": sum(reps[0].warnings for reps in repeats),
    }
    return Result(workload.name, seed, False, metrics,
                  {k: UNITS[k] for k in metrics}, checks, info)


def traced_pass(workload: Workload, scenarios):
    """Run each scenario untraced and traced, back to back and in
    alternating order, so that drift in machine speed cancels out of the
    tracing overhead.  Returns the untraced runs, the traced runs, the
    tracer and the per-layer metrics."""
    tr = tracer.Tracer()
    plain, traced = [], []
    for i, sc in enumerate(scenarios):
        if i % 2 == 0:
            plain.append(run_one(workload, sc))
        with tracer.instrumented(tr):
            traced.append(run_one(workload, sc))
        if i % 2 == 1:
            plain.append(run_one(workload, sc))
    metrics = tracer.layer_metrics(tr)
    metrics["trajectory.warnings"] = sum(r.warnings for r in traced)
    return plain, traced, tr, metrics


def measure_traced(workload: Workload, seed: int) -> Result:
    """Traced run: per-layer metrics and the tracing overhead."""
    plain, traced, tr, metrics = traced_pass(workload, workloads.panel(workload))
    checks = Checks()
    for i, (a, b) in enumerate(zip(plain, traced)):
        checks.check(b, f"panel episode {i}")
        checks.reproduces(a, b, f"traced panel episode {i}")
    metrics["trace.overhead"] = slots_per_s(plain) / slots_per_s(traced) - 1.0
    OUT.mkdir(exist_ok=True)
    spans = OUT / f"spans-{workload.name}-seed{seed}.csv"
    tracer.write_spans(tr, spans)
    slot_s = metrics["trace.slot.s"]
    info = {
        "untraced_slots_per_s": slots_per_s(plain),
        "traced_slots_per_s": slots_per_s(traced),
        "layer_share": {layer: metrics[f"layer.{layer}.s"] / slot_s
                        for layer in tracer.LAYERS},
        "layer_self_time_sum_s": sum(metrics[f"layer.{layer}.s"]
                                     for layer in tracer.LAYERS),
        "spans": len(tr.spans),
        "spans_file": str(spans.relative_to(ROOT)),
        "hooks_missing": sorted(set(tr.missing)),
    }
    return Result(workload.name, seed, True, metrics,
                  {k: layer_unit(k) for k in metrics}, checks, info)


# ---------------------------------------------------------------------------
# Reporting.

def environment(seed: int) -> dict:
    digest = hashlib.sha256()
    for path in sorted((SRC / "uavrelay").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    commit = None
    if (ROOT / ".git").exists():
        try:
            commit = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                                    capture_output=True, text=True, timeout=30,
                                    check=True).stdout.strip()
        except (OSError, subprocess.SubprocessError):
            commit = None
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "platform": platform.platform(),
        "commit": commit,
        "source_sha256": digest.hexdigest(),
        "seed": seed,
        "threads": {v: os.environ.get(v) for v in (
            "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")},
    }


def report(result: Result) -> None:
    """Human-readable lines for one result."""
    info, checks = result.info, result.checks
    kind = "traced" if result.trace else "untraced"
    print(f"== {result.workload} seed {result.seed} ({kind})")
    if not result.trace:
        print(f"   {info['panel_episodes']} panel episodes x {workloads.N_SLOTS} slots, "
              f"{sum(info['repeats'])} episode runs; percentiles over "
              f"{info['slots_per_percentile']} slots "
              f"({info['slots_beyond_p90']} beyond p90)")
    for name, value in result.metrics.items():
        print(f"   {name:44s} {value:14.6g} {result.units[name]}")
    if not result.trace:
        unscaled = ", ".join(f"{k} {v:.6g}" for k, v in info["unscaled"].items())
        print(f"   timings above are at the kernel's reference speed "
              f"({info['kernel_s_reference']} s; median here "
              f"{info['kernel_s_median']:.6g} s); unscaled: {unscaled}")
    if result.trace:
        shares = ", ".join(f"{k} {v:.1%}" for k, v in info["layer_share"].items())
        print(f"   layer self-time split: {shares}")
        print(f"   layer self times sum to {info['layer_self_time_sum_s']:.6f} s "
              f"of {result.metrics['trace.slot.s']:.6f} s traced slot time")
    print(f"   checks: {checks.attempted} slots attempted, {checks.failed} failed, "
          f"correct {str(checks.correct).lower()}")
    for kind_, n in sorted(checks.problems.items()):
        print(f"     {n:5d} reports of: {kind_}")
    for line in checks.unexpected[:10]:
        print(f"     unexpected: {line}")
