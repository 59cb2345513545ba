"""Slot-level driver tying the three stages together, plus episodes,
baselines, sweeps, and the derived metrics.

Per slot the driver cycles matching -> trajectory -> power and accepts a
stage's output only when the exact weighted sum rate does not fall, so
the per-slot objective trace is nondecreasing by construction.  That
cycle is the only place a stage is repeated: the matching stage plays
the swap game once per fresh greedy start, never from the incumbent,
and the trajectory stage makes one horizontal SCP step.  The cycle
stops once it gains less than the scenario's one tolerance,
`tolerances.bcd`, the same absolute test on which the power stage's
own SCP loop stops.  Episodes chain
slots under proportional-fairness weights; each algorithm earns its own
weight history from its own achieved rates.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

import numpy as np

from .channel import gain_matrices
from .link_rate import PowerAllocation, jain_index, rate_report, update_weights
from .matching import (CELLULAR, RELAY, MatchingContext, assignment,
                       init_matching, msma_detailed)
from .power_alloc import restore_feasible, scp_power
from .scenario import Scenario, UavState, require_valid
from .trajectory import SlotInputs, to_algorithm
from .uav_power import flying_power_upper, move_radius

_STAGE_TOL = 1e-9
_MAX_BCD = 100


@dataclass
class SlotSolution:
    """One slot's full decision set plus the audit trail."""

    beta: np.ndarray
    alloc: np.ndarray
    powers: PowerAllocation
    position: np.ndarray        # UAV position at the end of the slot
    start_position: np.ndarray  # position inherited from the previous slot
    rates: np.ndarray
    weights: np.ndarray
    objective: float
    iterations: int
    stage_trace: list[tuple[str, float]] = field(default_factory=list)
    dropped: list[tuple[int, int]] = field(default_factory=list)

    @property
    def speed(self) -> float:
        return float(np.linalg.norm(self.position - self.start_position))

    def scheduled_ues(self) -> list[int]:
        return [n for n in range(self.alloc.shape[0])
                if self.alloc[n].any() and self.rates[n] > 0.0]

    def relay_ues(self) -> list[int]:
        return [n for n in self.scheduled_ues() if self.beta[n]]


def validate_solution(sol: SlotSolution, sc: Scenario,
                      slot_index: int = 0) -> list[str]:
    """Audit every slot constraint; returns human-readable problems.

    Linear residuals (budgets, exclusivity, altitude, displacement,
    energy) are held to 1e-9 absolute; SNR floors to 1e-6 normalized,
    matching the trajectory stage's acceptance slack."""
    out: list[str] = []
    beta, alloc, powers = sol.beta, sol.alloc, sol.powers

    if alloc.sum(axis=0).max(initial=0) > 1:
        out.append("subchannel assigned to more than one UE")
    if np.any(powers.p_ue < -1e-12) or np.any(powers.p_uav < -1e-12):
        out.append("negative transmit power")
    if np.any((powers.p_ue > 1e-12) & (alloc == 0)):
        out.append("UE power on an unassigned subchannel")
    relay_cols = (alloc * beta[:, None]).any(axis=0)
    if np.any((powers.p_uav > 1e-12) & ~relay_cols):
        out.append("relay power on a non-relay subchannel")

    for n in range(alloc.shape[0]):
        if powers.p_ue[n].sum() > sc.p_ue_max + 1e-9:
            out.append(f"ue {n} exceeds its power budget")
    if powers.p_uav.sum() > sc.p_uav_max + 1e-9:
        out.append("relay exceeds its power budget")

    gains = gain_matrices(sc, sol.position, slot_index)
    report = rate_report(beta, alloc, powers, gains, sol.weights, sc)
    snr, thr = report.link.snr, report.link.thresholds()
    low1, low2 = (g < t * (1 - 1e-6) for g, t in zip(snr, thr))
    for n, k in np.argwhere(alloc):
        if beta[n]:
            if low1[n, k]:
                out.append(f"ue {n} subchannel {k}: access-hop SNR below floor")
            if low2[n, k]:
                out.append(f"ue {n} subchannel {k}: backhaul-hop SNR below floor")
        elif low2[n, k]:  # the interfered phase binds a direct link
            out.append(f"ue {n} subchannel {k}: direct SNR below floor")

    if sol.position[2] <= sc.bs_height:
        out.append("UAV not above the BS antenna height")
    dist = sol.speed
    if dist > sc.d_max + 1e-6:
        out.append("displacement exceeds the per-slot cap")
    energy = flying_power_upper(dist / sc.slot_len, sc.propulsion) * sc.slot_len
    if energy > sc.e_max + 1e-9:
        out.append("propulsion energy bound violated")

    if abs(report.objective - sol.objective) > 1e-9 * max(1.0, abs(sol.objective)):
        out.append("stored objective does not match the recomputed one")
    if not np.allclose(report.per_ue_rate, sol.rates, rtol=1e-9, atol=1e-12):
        out.append("stored rates do not match the recomputed ones")
    return out


# ---------------------------------------------------------------------------
# The matching stage.

def complete_powers(prev_beta, prev_alloc, prev_powers, beta, alloc, gains,
                    weights, sc: Scenario) -> tuple[np.ndarray, PowerAllocation]:
    """Hold the incumbent's powers on the assignments it keeps on the same
    subchannel in the same mode; `restore_feasible` carries those that
    still meet this slot's QoS floors, funds the rest and sheds from the
    allocation what the budgets cannot pay.

    The spread that funding ends with matters: candidates meet the stage
    comparison with these powers, and at bare floors a relayed link shows
    roughly half the rate it reaches once the two hop budgets are
    actually spent."""
    held = None
    if prev_alloc is not None:  # same subchannel, same mode
        same = (prev_alloc != 0) & (np.asarray(prev_beta) == beta)[:, None]
        held = PowerAllocation(np.where(same, prev_powers.p_ue, 0.0),
                               prev_powers.p_uav)
    alloc, powers, _ = restore_feasible(beta, alloc, gains, weights, sc, held)
    return alloc, powers


def _scored_modes(ctx: MatchingContext) -> np.ndarray:
    """Pick each UE's mode by total utility over its QoS-feasible
    subchannels at full-budget reference powers."""
    utility, feasible = ctx.full_budget
    score = np.where(feasible, utility, 0.0).sum(axis=2)
    return np.where(score[RELAY] > score[CELLULAR], RELAY, CELLULAR)


def _coverage_modes(ctx: MatchingContext) -> np.ndarray:
    """Relay only the UEs with no QoS-feasible direct subchannel at full
    budget; everyone else stays cellular."""
    _, feasible = ctx.full_budget
    return np.where(feasible[CELLULAR].any(axis=1), CELLULAR, RELAY)


def _fresh_matchings(ctx: MatchingContext,
                     relay_allowed: bool) -> list[tuple[np.ndarray, np.ndarray]]:
    """Stable `(beta, alloc)` matchings of the fresh greedy starts.

    Three greedy starts cover the mode spectrum: scored modes (relay
    whenever its utility sum wins), coverage modes (relay only where no
    direct link passes QoS), and all-cellular.  Relaying pays half the
    spectral efficiency for reach, so which mix wins is geometry- and
    weight-dependent; the exact completed objective arbitrates.  The
    starts and their swap runs read only the scenario, the gains and the
    weights, so one channel state needs them once; they are the matching
    stage's only swap runs.  Each start hands its scored view to the swap
    game, which scores nothing again."""
    all_cellular = np.full(ctx.n_ues, CELLULAR)
    starts = [init_matching(ctx, all_cellular)]
    if relay_allowed:
        starts.insert(0, init_matching(ctx, _scored_modes(ctx)))
        coverage = _coverage_modes(ctx)
        if coverage.any():
            starts.append(init_matching(ctx, coverage))
    return [(res.beta, res.alloc) for res in map(msma_detailed, starts)]


def _matching_stage(ctx: MatchingContext, fresh, beta, alloc, powers,
                    incumbent_obj):
    """Complete the powers of the fresh starts' stable matchings
    (`_fresh_matchings`, computed once per channel state) against the
    incumbent's and keep the best completed exact objective, or the
    incumbent when no candidate beats it.  Completion carries the
    incumbent's powers, so it runs on every call; the incumbent itself
    plays no swap game, since the block-coordinate loop already returns
    to this stage after every trajectory and power move."""
    sc, gains, weights = ctx.scenario, ctx.gains, ctx.weights
    best = (incumbent_obj, beta, alloc, powers)
    for cand_beta, cand_alloc in fresh:
        cand_alloc, cand_powers = complete_powers(
            beta, alloc, powers, cand_beta, cand_alloc, gains, weights, sc)
        obj = rate_report(cand_beta, cand_alloc, cand_powers, gains, weights,
                          sc).objective
        if obj > best[0] + _STAGE_TOL * max(1.0, abs(best[0])):
            best = (obj, cand_beta, cand_alloc, cand_powers)
    return best


def _drift_toward_unserved(sc: Scenario, pos, anchor, per_ue_rate,
                           weights) -> np.ndarray:
    """Horizontal move from the slot anchor toward the weight-averaged
    position of the UEs earning nothing, spending the remaining move
    budget.  Without relayed assignments the slot objective ignores the
    position entirely, and a UAV parked out of QoS reach of the starved
    UEs would otherwise never form the pair that lets the trajectory
    stage engage; returns `pos` unchanged when everyone is served."""
    starved = np.flatnonzero(np.asarray(per_ue_rate) <= 0.0)
    if starved.size == 0:
        return np.asarray(pos, dtype=float)
    ues = np.asarray(sc.ue_positions, dtype=float)[starved, :2]
    target = np.average(ues, axis=0, weights=np.asarray(weights)[starved])
    anchor = np.asarray(anchor, dtype=float)
    r_eff = move_radius(sc.d_max, sc.e_max, sc.slot_len, sc.propulsion)
    r_h = math.sqrt(max(r_eff * r_eff - (float(pos[2]) - anchor[2]) ** 2, 0.0))
    step = target - anchor[:2]
    dist = float(np.linalg.norm(step))
    xy = target if dist <= r_h else anchor[:2] + step * (r_h / dist)
    return np.array([xy[0], xy[1], float(pos[2])])


# ---------------------------------------------------------------------------
# The per-slot block-coordinate loop.

def jmstp_slot(sc: Scenario, state: UavState, weights: np.ndarray,
               init: SlotSolution | None = None, slot_index: int = 0, *,
               relay_allowed: bool = True,
               fixed_matching: tuple[np.ndarray, np.ndarray] | None = None
               ) -> SlotSolution:
    """One slot of the joint algorithm: matching, trajectory, power, cycled
    until the exact objective gain drops below the convergence threshold.

    `fixed_matching`, a `(beta, alloc)` pair, freezes the assignment stage
    (used by the random baseline); `relay_allowed=False` gives the
    cellular baseline: no relayed starts and no trajectory stage.  `init`
    warm-starts from the previous slot's solution, whose powers
    `restore_feasible` re-funds against this slot's QoS floors before it
    competes."""
    weights = np.asarray(weights, dtype=float)
    pos = np.asarray(state.pos, dtype=float).copy()
    anchor = tuple(float(v) for v in state.prev_pos)
    n_ues, k_sub = sc.n_ues, sc.n_subchannels

    gains = gain_matrices(sc, pos, slot_index)
    if init is not None and init.alloc.any():
        beta = init.beta.copy()
        alloc, powers = complete_powers(init.beta, init.alloc, init.powers,
                                        init.beta, init.alloc, gains, weights, sc)
    else:
        beta = np.zeros(n_ues, dtype=int)
        alloc = np.zeros((n_ues, k_sub), dtype=int)
        powers = PowerAllocation(np.zeros((n_ues, k_sub)), np.zeros(k_sub))
    obj = rate_report(beta, alloc, powers, gains, weights, sc).objective

    trace: list[tuple[str, float]] = []
    dropped: list[tuple[int, int]] = []
    eps = sc.tolerances.bcd
    iterations = 0
    ctx = fresh = None  # the fresh starts belong to one channel state

    for iterations in range(1, _MAX_BCD + 1):
        cycle_start = obj

        if fixed_matching is not None:
            if iterations == 1:
                cand_beta, cand_alloc = fixed_matching
                alloc, powers = complete_powers(beta, None, powers, cand_beta,
                                                cand_alloc, gains, weights, sc)
                beta = cand_beta
                obj = rate_report(beta, alloc, powers, gains, weights,
                                  sc).objective
                trace.append(("matching", obj))
        else:
            if ctx is None:
                ctx = MatchingContext(sc, gains, weights)
                fresh = _fresh_matchings(ctx, relay_allowed)
            obj, beta, alloc, powers = _matching_stage(
                ctx, fresh, beta, alloc, powers, obj)
            trace.append(("matching", obj))

        if relay_allowed:
            inputs = SlotInputs(sc, beta, alloc, powers, weights, slot_index)
            new_pos, new_gains = pos, gains
            if inputs.relay_pairs():
                result = to_algorithm(UavState(tuple(pos), anchor), inputs, gains)
                if result.objective >= obj - _STAGE_TOL * max(1.0, abs(obj)):
                    new_pos, new_gains = result.position, result.gains
                    obj = max(obj, result.objective)
            else:
                # the objective is flat in the position, so close in on
                # the UEs nothing currently reaches; later slots then see
                # relayable geometry instead of a parked UAV
                rates = rate_report(beta, alloc, powers, gains, weights,
                                    sc).per_ue_rate
                new_pos = _drift_toward_unserved(sc, pos, anchor, rates, weights)
                new_gains = None
            if not np.array_equal(new_pos, pos):
                # a new channel state; the fresh starts belong to the old one
                gains = (gain_matrices(sc, new_pos, slot_index) if new_gains is None
                         else new_gains)
                ctx = None
            pos = new_pos
            trace.append(("trajectory", obj))

        res = scp_power(beta, alloc, gains, weights, sc, init=powers)
        if res.objective >= obj - _STAGE_TOL * max(1.0, abs(obj)):
            powers, alloc = res.powers, res.alloc
            obj = max(obj, res.objective)
            dropped.extend(res.dropped)
        trace.append(("power", obj))

        if obj - cycle_start < eps:
            break

    report = rate_report(beta, alloc, powers, gains, weights, sc)
    return SlotSolution(beta, alloc, powers, pos,
                        np.asarray(anchor, dtype=float), report.per_ue_rate,
                        weights, report.objective, iterations, trace, dropped)


# ---------------------------------------------------------------------------
# Episodes.

@dataclass
class EpisodeLog:
    scenario: Scenario
    algorithm: str
    slots: list[SlotSolution]
    rates: np.ndarray            # (T, N)
    weights_history: np.ndarray  # (T, N)
    avg_rates: np.ndarray        # (N,)
    sum_rate: float              # mean per-slot sum of UE rates
    jain: float
    avg_speed: float
    n_relay_ues: float           # per-slot means
    n_scheduled_ues: float


def _random_matching(ctx: MatchingContext,
                     rng: np.random.Generator) -> tuple[np.ndarray, np.ndarray]:
    """Uniform mode per UE among its QoS-feasible options, then each
    subchannel goes to a uniform pick of the UEs feasible on it."""
    _, feasible = ctx.full_budget
    modes: dict[int, int] = {}
    for n in range(ctx.n_ues):
        options = [m for m in (CELLULAR, RELAY) if feasible[m, n].any()]
        if options:
            modes[n] = int(rng.choice(options))
    owner = np.full(ctx.n_subchannels, -1)
    for k in range(ctx.n_subchannels):
        cands = [n for n, m in modes.items() if feasible[m, n, k]]
        if cands:
            owner[k] = int(rng.choice(cands))
    beta = np.array([modes.get(n, CELLULAR) for n in range(ctx.n_ues)])
    return assignment(beta, owner)


def run_episode(scenario: Scenario, algorithm: str = "jmstp") -> EpisodeLog:
    """Run all slots under proportional fairness for one algorithm
    (`jmstp`, `random`, or `cellular`).  Raises ValueError, listing the
    problems, when the scenario fails `validate`."""
    if algorithm not in ("jmstp", "random", "cellular"):
        raise ValueError(f"unknown algorithm: {algorithm}")
    sc = require_valid(scenario.with_positions())
    n_slots, n_ues = sc.n_slots, sc.n_ues
    rates = np.zeros((n_slots, n_ues))
    weights_history = np.zeros((n_slots, n_ues))
    slots: list[SlotSolution] = []
    pos = np.asarray(sc.uav_start, dtype=float)
    prev: SlotSolution | None = None

    for t in range(n_slots):
        weights = update_weights(rates[:t].mean(axis=0) if t else np.zeros(n_ues))
        state = UavState(tuple(pos), tuple(pos))
        if algorithm == "jmstp":
            sol = jmstp_slot(sc, state, weights, prev, t)
        elif algorithm == "random":
            ctx = MatchingContext(sc, gain_matrices(sc, pos, t), weights)
            rng = np.random.default_rng((sc.rng_seed, 11, t))
            sol = jmstp_slot(sc, state, weights, None, t,
                             fixed_matching=_random_matching(ctx, rng))
        else:
            sol = jmstp_slot(sc, state, weights, prev, t, relay_allowed=False)
        slots.append(sol)
        rates[t] = sol.rates
        weights_history[t] = weights
        pos = sol.position
        prev = sol

    avg_rates = rates.mean(axis=0)
    return EpisodeLog(
        scenario=sc, algorithm=algorithm, slots=slots, rates=rates,
        weights_history=weights_history, avg_rates=avg_rates,
        sum_rate=float(rates.sum(axis=1).mean()),
        jain=jain_index(avg_rates) if avg_rates.any() else 1.0,
        avg_speed=float(np.mean([s.speed for s in slots])) / sc.slot_len,
        n_relay_ues=float(np.mean([len(s.relay_ues()) for s in slots])),
        n_scheduled_ues=float(np.mean([len(s.scheduled_ues()) for s in slots])))


# ---------------------------------------------------------------------------
# Sweeps and cluster metrics.

SWEEP_AXES = ("p_ue_max", "d_max", "p_uav_max", "e_max")
# the seed-averaged `EpisodeLog` fields of a sweep row, in sweep.csv order
SWEEP_METRICS = ("sum_rate", "jain", "n_relay_ues", "n_scheduled_ues", "avg_speed")
ALGORITHMS = ("jmstp", "random", "cellular")


def sweep(template: Scenario, axis: str, values, n_seeds: int = 10,
          algorithms=ALGORITHMS) -> list[dict]:
    """One row of seed-averaged metrics per (axis value, algorithm).

    Seed s runs the template with `rng_seed=s`: its fading, and the UE
    positions and UAV start wherever the template leaves them unset, are
    drawn per seed; positions the template fixes are kept.  Every
    scenario is validated before the first episode runs."""
    if axis not in SWEEP_AXES:
        raise ValueError(f"unknown sweep axis: {axis}; use one of {SWEEP_AXES}")
    if n_seeds < 1:
        raise ValueError(f"need at least one seed, got {n_seeds}")
    values = [float(v) for v in values]
    panels = [[require_valid(replace(template, rng_seed=seed, **{axis: value})
                             .with_positions(seed)) for seed in range(n_seeds)]
              for value in values]
    rows = []
    for value, scenarios in zip(values, panels):
        for algorithm in algorithms:
            logs = [run_episode(sc, algorithm) for sc in scenarios]
            rows.append({"axis": axis, "value": value, "algorithm": algorithm,
                         "seeds": n_seeds} |
                        {m: float(np.mean([getattr(log, m) for log in logs]))
                         for m in SWEEP_METRICS})
    return rows


def dwell_times(log: EpisodeLog, centroids) -> np.ndarray:
    """Seconds the UAV spends nearest each centroid (horizontal distance,
    ties to the first)."""
    centroids = np.asarray(centroids, dtype=float)
    out = np.zeros(len(centroids))
    for sol in log.slots:
        d = np.linalg.norm(centroids[:, :2] - sol.position[:2], axis=1)
        out[int(np.argmin(d))] += log.scenario.slot_len
    return out


def cluster_scenario(n_a: int, n_b: int, seed: int = 0, spread: float = 60.0,
                     **overrides) -> Scenario:
    """Two UE clusters around fixed opposite centroids, sized n_a and n_b,
    for the dwell-time experiments."""
    rng = np.random.default_rng((seed, 5))
    centers = np.array([[250.0, 0.0], [-250.0, 0.0]])
    pts = []
    for count, center in zip((n_a, n_b), centers):
        for _ in range(count):
            p = center + rng.uniform(-spread, spread, 2)
            pts.append((float(p[0]), float(p[1]), 0.0))
    base = dict(n_ues=n_a + n_b, ue_positions=tuple(pts), rng_seed=seed)
    base.update(overrides)
    return Scenario(**base).with_positions(seed)


def paired_bootstrap_lower(diffs, n_resamples: int = 10_000,
                           alpha: float = 0.05, seed: int = 0) -> float:
    """Lower edge of the two-sided (1 - alpha) bootstrap confidence range
    for the mean of paired per-seed differences.  A positive return means
    the first arm beats the second with that confidence."""
    diffs = np.asarray(diffs, dtype=float)
    rng = np.random.default_rng((seed, 17))
    idx = rng.integers(0, diffs.size, size=(n_resamples, diffs.size))
    means = diffs[idx].mean(axis=1)
    return float(np.quantile(means, alpha / 2.0))
