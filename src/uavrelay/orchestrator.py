"""Slot-level driver tying the three stages together, plus episodes,
baselines, sweeps, and the derived metrics.

All three algorithms run one per-slot loop, which cycles matching ->
trajectory -> power, and differ only in their stages:

- jmstp: the matching stage keeps the best of the fresh greedy starts
  (scored, all-cellular and coverage modes) or the incumbent, then the
  trajectory and power stages run.  The starts are played lazily: one
  whose exact full-budget ceiling cannot beat the best so far is not
  played, and a stable matching whose ceiling cannot is not completed.
  A start is played at most once per channel state, and one that relays
  nobody at most once per slot, since it reads no air gain;
- cellular: the matching stage has only the all-cellular start, and
  there is no trajectory stage, so the UAV never moves;
- random: the first cycle draws a random matching from the slot's own
  channel and funds it cold; later cycles run only trajectory and power.

The trajectory and power stages are kept by one test, an exact weighted
sum rate within `_STAGE_TOL` of the incumbent's, and the matching stage
replaces the incumbent only with a candidate that beats it, so the
per-slot objective trace is nondecreasing by construction.  That cycle is
the only place a stage is repeated: the matching stage plays the swap
game at most once per fresh greedy start and channel state, never from
the incumbent, and completes its candidates per call, but never the
incumbent's own matching or the one whose completion won it on this
channel state, while the tables its starts read are built once per
channel state or, for the direct rows, once per slot
(`_matching_stage`).  The trajectory stage makes one horizontal SCP
step, or drifts toward the unserved UEs when nothing is relayed.  The
cycle stops once it gains less than the scenario's one tolerance,
`tolerances.bcd`, the same absolute test on which the power stage's own
SCP loop stops.  So the power stage is not re-run on the state its last
converged run returned (the matching stage kept the incumbent and the
UAV stayed put): that run already stopped on a step worth less than the
tolerance, which is all the cycle's own stop gives up.

The loop carries the slot's state as one record, `trajectory.Audit`:
the modes, allocation, powers, UAV position and gains, with the exact
objective and per-UE rates there.  Each stage takes the incumbent's
record and returns one that is exact for what it returns, or the
incumbent's own when it changes nothing, so each state is priced once,
where it is made:
- the slot's start, by one rate report (a cold start, which assigns
  nothing, by none), and random's first-cycle draw likewise;
- the matching stage's candidates, each by its completion's report; the
  winner keeps its own;
- the trajectory stage's trial positions, by its step search's audits;
  a drift moves no rate, so it evaluates only the gains;
- the power stage's steps, inside `scp_power`, which takes the
  incumbent's objective as its start's price.
The `SlotSolution` is the final record, with no closing report; only
`validate_solution` recomputes it, as the independent check.  Episodes
chain slots under proportional-fairness weights; each algorithm earns
its own weight history from its own achieved rates.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np

from .channel import gain_matrices
from .link_rate import (QOS_TOL, PowerAllocation, jain_index, pf_utility, rate_report,
                        update_weights)
from .matching import (CELLULAR, RELAY, MatchingContext, assignment,
                       init_matching, msma_detailed)
from .power_alloc import restore_feasible, scp_power
from .scenario import Scenario, UavState, require_valid
from .trajectory import Audit, SlotInputs, to_algorithm
from .uav_power import flying_power_upper
# bound here only for perfbench's `uav_power.move_radius` hook
from .uav_power import move_radius  # noqa: F401

ALGORITHMS = ("jmstp", "random", "cellular")
_STAGE_TOL = 1e-9
# the matching stage's ceilings' relative slack: they sum in another
# order what `rate_report` sums
_CEILING_RTOL = 1e-12
_MAX_BCD = 100
# each hop's name in the validator's findings, indexed [beta][hop]; a
# direct link's clean phase never binds
_HOP_NAMES = (("direct", "direct"), ("access-hop", "backhaul-hop"))


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
    objective: float            # exact at the answer, as `rates` are
    iterations: int
    # the loop's running best after each stage, which `_holds` can leave
    # above `objective` by up to `_STAGE_TOL` relative
    stage_trace: list[tuple[str, float]] = field(default_factory=list)

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
    energy) are held to 1e-9 absolute.  A hop misses its SNR floor when
    its `LinkBudget.margins()` margin is below -`QOS_TOL`, the test the
    trajectory stage accepts a position on."""
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
    ue, sub = report.pairs
    low = np.stack(report.link.margins(), axis=-1) < -QOS_TOL
    for i, hop in np.argwhere(low):
        n, k = ue[i], sub[i]
        out.append(f"ue {n} subchannel {k}: {_HOP_NAMES[beta[n]][hop]} SNR below floor")

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


@dataclass
class _FreshStarts:
    """The matching stage's memory of one slot: whether its greedy starts
    relay (jmstp) or are only the all-cellular one (cellular), the stable
    `(beta, alloc)` of each start played so far, keyed by its modes, and
    the key of the stable matching whose completion last won the stage on
    this channel state (`source`).  A start that relays nobody reads only
    the direct gains, the weights and the scenario, which a UAV move
    leaves as they are, so its entry outlives the channel state; `moved`
    drops the others and the source."""

    relay: bool
    stable: dict[bytes, tuple[np.ndarray, np.ndarray]] = field(default_factory=dict)
    source: bytes | None = None

    def moved(self) -> None:
        # a start that relays nobody has an all-zero key
        self.stable = {key: v for key, v in self.stable.items() if not any(key)}
        self.source = None


def _beats(candidate: float, incumbent: float) -> bool:
    """The matching stage's acceptance: the candidate's exact objective
    beats the incumbent's by more than `_STAGE_TOL`."""
    return candidate > incumbent + _STAGE_TOL * max(1.0, abs(incumbent))


def _matching_stage(ctx: MatchingContext, fresh: _FreshStarts, incumbent: Audit,
                    incumbent_obj: float) -> Audit:
    """Keep the best completed exact objective among the fresh greedy
    starts' stable matchings, or the incumbent state itself when no
    candidate beats `incumbent_obj`, the running best of the slot.  The
    winner comes back as a state priced by its own completion's report.

    Three greedy starts cover the mode spectrum, in this order
    (`ctx.starts`): scored modes (relay whenever its utility sum wins),
    all-cellular, and coverage modes (relay only where no direct link
    passes QoS).  Relaying pays half the spectral efficiency for reach,
    so which mix wins is geometry- and weight-dependent; the exact
    completed objective arbitrates.  Without `fresh.relay` only the
    all-cellular start runs.

    What is built when:
    - per slot: the direct rows every greedy start reads (`ctx.direct`),
      and the stable matching of a start that relays nobody, which reads
      no air gain (`fresh`);
    - per channel state: the full-budget table, the start modes with
      their ceilings (`ctx.starts`), the relay-hop floors, and the stable
      matching of each start that relays (`fresh`).  These starts and
      their swap runs are the matching stage's only swap runs;
    - per call: the completions.  Completion carries the incumbent's
      powers, and each distinct matching is completed at most once per
      call: a repeat would only repeat its objective, which never beats
      the best so far.  Two matchings are not completed at all: the
      incumbent's own, and the stable matching whose completion won the
      stage earlier on this channel state (`fresh.source`), since the
      incumbent is that completion, less what funding shed, with powers
      the power stage has solved since.  Completing either only re-funds
      the incumbent from its own carried powers, and bettering those
      powers is the power stage's work, not this stage's.  Any other
      matching completed on an earlier call is completed again, since
      the powers it carries have changed.
    The incumbent itself plays no swap game, since the block-coordinate
    loop already returns to this stage after every trajectory and power
    move.

    With relay starts the loop is lazy.  A completed link runs at or
    below the full UE and relay budgets, so it earns at most its entry of
    `where(feasible, utility, 0)` (`ctx.full_budget`).  The sum of those
    entries over a matching's links is its ceiling; a start's ceiling sums
    each subchannel's largest entry over the UEs in their start modes, and
    bounds every matching the start can reach.  A start is played, and a
    matching completed, only while its ceiling, inflated by
    `_CEILING_RTOL` for summation order, beats the running best, which
    starts at the incumbent and never falls.  A skipped candidate could
    never have won, so the answer is the one every start completed would
    give.  The cellular stage builds no table and prunes nothing."""
    sc, gains, weights = ctx.scenario, ctx.gains, ctx.weights
    inputs = incumbent.inputs
    best = (incumbent_obj, incumbent)
    starts = ctx.starts if fresh.relay else [(np.full(ctx.n_ues, CELLULAR), None, None)]

    def out_of_reach(ceiling):
        return not _beats(ceiling * (1.0 + _CEILING_RTOL), best[0])

    completed = {inputs.beta.tobytes() + inputs.alloc.tobytes(), fresh.source}
    for modes, rows, ceiling in starts:
        if rows is not None and out_of_reach(ceiling):
            continue
        key = modes.tobytes()
        if key not in fresh.stable:
            res = msma_detailed(init_matching(ctx, modes))
            fresh.stable[key] = res.beta, res.alloc
        cand_beta, cand_alloc = fresh.stable[key]
        cand = cand_beta.tobytes() + cand_alloc.tobytes()
        if cand in completed or (rows is not None
                                 and out_of_reach(rows[cand_alloc != 0].sum())):
            continue
        completed.add(cand)
        cand_alloc, cand_powers = complete_powers(inputs.beta, inputs.alloc, inputs.powers,
                                                  cand_beta, cand_alloc, gains, weights, sc)
        report = rate_report(cand_beta, cand_alloc, cand_powers, gains, weights, sc)
        if _beats(report.objective, best[0]):
            won = replace(inputs, beta=cand_beta, alloc=cand_alloc, powers=cand_powers)
            best = (report.objective, Audit.priced(won, incumbent.position, gains, report))
            fresh.source = cand
    return best[1]


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


# ---------------------------------------------------------------------------
# The per-slot block-coordinate loop.

def _require_algorithm(algorithm: str) -> None:
    if algorithm not in ALGORITHMS:
        raise ValueError(f"unknown algorithm: {algorithm}; use one of {ALGORITHMS}")


def _holds(candidate: float, incumbent: float) -> bool:
    """The trajectory and power stages' acceptance: the candidate's exact
    objective is within `_STAGE_TOL` of the incumbent's."""
    return candidate >= incumbent - _STAGE_TOL * max(1.0, abs(incumbent))


def jmstp_slot(sc: Scenario, state: UavState, weights: np.ndarray,
               init: SlotSolution | None = None, slot_index: int = 0,
               algorithm: str = "jmstp") -> SlotSolution:
    """One slot of `algorithm`, one of `ALGORITHMS`: its stages cycled
    until the exact objective gain drops below the convergence threshold.

    - jmstp: matching over the fresh greedy starts, trajectory, power;
    - cellular: matching over the all-cellular start, then power; the UAV
      stays at `state.pos`;
    - random: in the first cycle only, `_random_matching` drawn from the
      slot's channel with the slot's own generator and funded cold by
      `complete_powers`; then trajectory and power in every cycle.

    `init` warm-starts from the previous slot's solution, whose powers
    `restore_feasible` re-funds against this slot's QoS floors before it
    competes; random's first-cycle draw replaces it.  Raises ValueError
    on an unknown algorithm.

    The loop carries one audited state (`trajectory.Audit`): the modes,
    allocation, powers, position and gains, with the exact objective and
    rates there.  Each stage starts from the state the last one returned
    and returns one priced where it was made (the module docstring says
    where), or that same state when it changes nothing.  The
    `SlotSolution` is the final state, with no closing report.  A cycle
    skips `scp_power` when its state is the one the last accepted,
    converged power run returned; the cycle still logs its `("power",
    objective)` entry."""
    _require_algorithm(algorithm)
    weights = np.asarray(weights, dtype=float)
    pos = np.array(state.pos, dtype=float)
    anchor = np.asarray(state.prev_pos, dtype=float)

    gains = gain_matrices(sc, pos, slot_index)
    if init is not None and init.alloc.any():
        beta = init.beta.copy()
        alloc, powers = complete_powers(init.beta, init.alloc, init.powers,
                                        init.beta, init.alloc, gains, weights, sc)
    else:
        beta = np.zeros(sc.n_ues, dtype=int)
        alloc = np.zeros((sc.n_ues, sc.n_subchannels), dtype=int)
        powers = PowerAllocation(np.zeros(alloc.shape), np.zeros(sc.n_subchannels))
    cur = Audit.priced(SlotInputs(sc, beta, alloc, powers, weights, slot_index), pos, gains)
    # the running best, which the trace logs and the stop reads; the
    # stages' `_holds` can leave the state's own objective below it
    obj = cur.objective

    trace: list[tuple[str, float]] = []
    eps = sc.tolerances.bcd
    iterations = 0
    ctx = fresh = None  # built by the first matching stage, kept for the slot
    settled = None  # the state a converged power run last returned

    for iterations in range(1, _MAX_BCD + 1):
        cycle_start = obj

        if algorithm != "random":
            if ctx is None:
                ctx = MatchingContext(sc, cur.gains, weights)
                fresh = _FreshStarts(relay=algorithm == "jmstp")
            cur = _matching_stage(ctx, fresh, cur, obj)
            obj = max(obj, cur.objective)
            trace.append(("matching", obj))
        elif iterations == 1:
            rng = np.random.default_rng((sc.rng_seed, 11, slot_index))
            beta, cand_alloc = _random_matching(MatchingContext(sc, cur.gains, weights), rng)
            alloc, powers = complete_powers(beta, None, cur.inputs.powers, beta, cand_alloc,
                                            cur.gains, weights, sc)
            cur = Audit.priced(replace(cur.inputs, beta=beta, alloc=alloc, powers=powers),
                               cur.position, cur.gains)
            obj = cur.objective
            trace.append(("matching", obj))

        if algorithm != "cellular":
            new = to_algorithm(cur, anchor).audit
            if _holds(new.objective, obj):
                if ctx is not None and new is not cur:
                    # a new channel state of the same slot
                    ctx = ctx.moved(new.gains)
                    fresh.moved()
                cur = new
                obj = max(obj, cur.objective)
            trace.append(("trajectory", obj))

        # a converged run re-run on its own answer would step on from a
        # point where its last step gained less than eps
        if settled is not cur:
            inputs = cur.inputs
            res = scp_power(inputs.beta, inputs.alloc, cur.gains, weights, sc,
                            init=inputs.powers, objective=cur.objective)
            if _holds(res.objective, obj):
                # a run that priced nothing returned `init` as it was,
                # unless it shed every assignment
                if res.report is not None or res.dropped:
                    cur = Audit.priced(replace(inputs, alloc=res.alloc, powers=res.powers),
                                       cur.position, cur.gains, res.report)
                obj = max(obj, cur.objective)
                if res.converged:
                    settled = cur
        trace.append(("power", obj))

        if obj - cycle_start < eps:
            break

    return SlotSolution(cur.inputs.beta, cur.inputs.alloc, cur.inputs.powers, cur.position,
                        anchor, cur.rates, weights, cur.objective, iterations, trace)


# ---------------------------------------------------------------------------
# Episodes.

@dataclass
class EpisodeLog:
    scenario: Scenario
    algorithm: str
    slots: list[SlotSolution]
    rates: np.ndarray            # (T, N)
    avg_rates: np.ndarray        # (N,)
    sum_rate: float              # mean per-slot sum of UE rates
    jain: float
    pf_utility: float            # sum_n log(avg_rates_n + 0.1)
    avg_speed: float
    n_relay_ues: float           # per-slot means
    n_scheduled_ues: float


def run_episode(scenario: Scenario, algorithm: str = "jmstp") -> EpisodeLog:
    """Run all slots under proportional fairness for one algorithm
    (`jmstp`, `random`, or `cellular`).  Raises ValueError, listing the
    problems, when the scenario fails `validate`, and on an unknown
    algorithm.  The random baseline starts every slot cold."""
    _require_algorithm(algorithm)
    sc = require_valid(scenario.with_positions())
    n_slots, n_ues = sc.n_slots, sc.n_ues
    rates = np.zeros((n_slots, n_ues))
    slots: list[SlotSolution] = []
    pos = np.asarray(sc.uav_start, dtype=float)
    prev: SlotSolution | None = None

    for t in range(n_slots):
        weights = update_weights(rates[:t].mean(axis=0) if t else np.zeros(n_ues))
        sol = jmstp_slot(sc, UavState(tuple(pos), tuple(pos)), weights,
                         None if algorithm == "random" else prev, t, algorithm)
        slots.append(sol)
        rates[t] = sol.rates
        pos = sol.position
        prev = sol

    avg_rates = rates.mean(axis=0)
    return EpisodeLog(
        scenario=sc, algorithm=algorithm, slots=slots, rates=rates,
        avg_rates=avg_rates, sum_rate=float(rates.sum(axis=1).mean()),
        jain=jain_index(avg_rates) if avg_rates.any() else 1.0,
        pf_utility=pf_utility(avg_rates),
        avg_speed=float(np.mean([s.speed for s in slots])) / sc.slot_len,
        n_relay_ues=float(np.mean([len(s.relay_ues()) for s in slots])),
        n_scheduled_ues=float(np.mean([len(s.scheduled_ues()) for s in slots])))


# ---------------------------------------------------------------------------
# Sweeps and cluster metrics.

SWEEP_AXES = ("p_ue_max", "d_max", "p_uav_max", "e_max")
# the seed-averaged `EpisodeLog` fields of a sweep row, in sweep.csv order
SWEEP_METRICS = ("sum_rate", "jain", "pf_utility", "n_relay_ues", "n_scheduled_ues",
                 "avg_speed")


def sweep_logs(template: Scenario, axis: str, values, n_seeds: int = 10,
               algorithms=ALGORITHMS) -> list[tuple[float, dict[str, list[EpisodeLog]]]]:
    """Per axis value, in order, the value and each algorithm's episode
    logs over seeds 0, ..., n_seeds - 1: the episodes that `sweep`
    averages, for a caller that also needs them per seed.

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
    return [(value, {algorithm: [run_episode(sc, algorithm) for sc in scenarios]
                     for algorithm in algorithms})
            for value, scenarios in zip(values, panels)]


def sweep_row(axis: str, value: float, algorithm: str, logs: list[EpisodeLog]) -> dict:
    """The sweep row of one (axis value, algorithm): `SWEEP_METRICS`
    averaged over the episode logs of its seeds."""
    return {"axis": axis, "value": value, "algorithm": algorithm, "seeds": len(logs)} | \
        {m: float(np.mean([getattr(log, m) for log in logs])) for m in SWEEP_METRICS}


def sweep(template: Scenario, axis: str, values, n_seeds: int = 10,
          algorithms=ALGORITHMS) -> list[dict]:
    """One row of seed-averaged metrics per (axis value, algorithm), over
    the episodes of `sweep_logs`."""
    return [sweep_row(axis, value, algorithm, logs)
            for value, by_algorithm in sweep_logs(template, axis, values, n_seeds, algorithms)
            for algorithm, logs in by_algorithm.items()]


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
