"""Workload definitions, scenario panels and the per-slot output check.  Imports `uavrelay`, so the caller puts the checkout's `src` on
the import path first."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from uavrelay import Scenario, validate_solution
from uavrelay.link_rate import jain_index

# Every workload uses the paper's full channel model (Rayleigh ground,
# Rician air) and a 25 m move cap: with no fading, or the default 15 m
# cap, the relay and trajectory stages are rarely exercised.
FADING = "mixed"
D_MAX = 25.0
N_SLOTS = 10


@dataclass(frozen=True)
class Workload:
    name: str
    algorithm: str
    n_ues: int
    n_subchannels: int
    panel_episodes: int  # fixed scenarios behind every metric


# Why each workload is there, and its measured layer split, is recorded in
# BENCHMARK.json and README.md.
WORKLOADS = {w.name: w for w in (
    Workload("relay_mixed", "jmstp", 5, 10, 10),
    Workload("dense_cellular", "cellular", 20, 40, 26),
    Workload("random_cold", "random", 5, 10, 10),
)}


CHECK_EPISODES = 1


def scenario(workload: Workload, episode_seed: int) -> Scenario:
    """One episode's problem instance: UE and UAV start positions and the
    fading stream are all drawn from `episode_seed`."""
    return Scenario(n_ues=workload.n_ues, n_subchannels=workload.n_subchannels,
                    n_slots=N_SLOTS, d_max=D_MAX, fading_model=FADING,
                    rng_seed=episode_seed).with_positions(episode_seed)


def panel(workload: Workload) -> list[Scenario]:
    """The workload's fixed scenarios, seeds 0, 1, ... as in `sweep` and
    the experiment scripts; the same in every run."""
    return [scenario(workload, i) for i in range(workload.panel_episodes)]


def check_scenarios(workload: Workload, seed: int) -> list[Scenario]:
    """Scenarios drawn from the run seed, run once and checked, untimed."""
    rng = np.random.default_rng([seed, 2104_11091])
    return [scenario(workload, int(s))
            for s in rng.integers(1_000_000, 2**31 - 1, size=CHECK_EPISODES)]


# ---------------------------------------------------------------------------
# Output check.

# validate_solution reports QoS floors missed on the current slot's
# channel as "... SNR below floor".  Warm starts that carry last slot's
# powers into a new fading draw fail it today (a known defect); such
# slots count as failed, but do not make a run incorrect.
KNOWN_DEFECT = "SNR below floor"


def check_slot(sol, sc: Scenario, slot_index: int) -> list[str]:
    """Every problem with one slot's output: the validator's findings,
    non-finite rates or objective, and a decreasing stage trace."""
    problems = list(validate_solution(sol, sc, slot_index))
    if not (np.all(np.isfinite(sol.rates)) and math.isfinite(sol.objective)):
        problems.append("non-finite rates or objective")
    trace = [obj for _, obj in sol.stage_trace]
    if any(b < a for a, b in zip(trace, trace[1:])):
        problems.append("stage trace decreases")
    return problems


def is_known_defect(problem: str) -> bool:
    return problem.endswith(KNOWN_DEFECT)


@dataclass
class EpisodeQuality:
    """Quality of one episode with failed slots zeroed."""

    slots: int
    valid: int
    objective_sum: float  # PF-weighted sum rate, summed over valid slots
    sum_rate_sum: float   # sum of UE rates, summed over valid slots
    jain: float


def episode_quality(log, problems: list[list[str]]) -> EpisodeQuality:
    ok = np.array([not p for p in problems])
    rates = log.rates * ok[:, None]
    avg = rates.mean(axis=0)
    return EpisodeQuality(
        slots=len(ok), valid=int(ok.sum()),
        objective_sum=float(sum(s.objective for s, good in zip(log.slots, ok)
                                if good)),
        sum_rate_sum=float(rates.sum()),
        jain=jain_index(avg) if avg.any() else 0.0)
