"""Per-slot solver and episode-runner tests: BCD monotonicity and
convergence, the constraint validator on everything emitted, baseline
behaviors, sweep plumbing, and the dwell-time metric."""

import inspect
import json
import math
from dataclasses import replace
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings

from uavrelay import orchestrator, power_alloc, trajectory
from uavrelay.channel import gain_matrices
from uavrelay.link_rate import (QOS_TOL, LinkBudget, PowerAllocation, rate_report,
                               update_weights)
from uavrelay.matching import CELLULAR, RELAY, MatchingContext, init_matching, msma_detailed
from uavrelay.orchestrator import (
    ALGORITHMS,
    SWEEP_AXES,
    cluster_scenario,
    complete_powers,
    dwell_times,
    jmstp_slot,
    paired_bootstrap_lower,
    run_episode,
    sweep,
    validate_solution,
)
from uavrelay.power_alloc import PowerProblem
from uavrelay.scenario import (Scenario, SnrThresholds, UavState, dbm_to_watts,
                               load_scenario)
from uavrelay.trajectory import Audit

from test_link_rate import _funded_slot, _slot
from test_power_alloc import reference_spread
from test_scenario import documents

BLOCKED = SnrThresholds(1e18, 1e18, 1e18)


def tiny_scenario(**overrides):
    """Three UEs at mixed ranges, few subchannels, short horizon."""
    base = dict(
        n_ues=3, n_subchannels=4, n_slots=3,
        ue_positions=((50.0, 10.0, 0.0), (-90.0, 40.0, 0.0), (130.0, -120.0, 0.0)),
        uav_start=(20.0, -30.0, 110.0),
    )
    base.update(overrides)
    return Scenario(**base).with_positions(0)


def cold_slot(sc, **kwargs):
    state = UavState(tuple(sc.uav_start), tuple(sc.uav_start))
    weights = np.full(sc.n_ues, 10.0)
    return jmstp_slot(sc, state, weights, **kwargs)


class TestJmstpSlot:
    def test_no_feasible_ue_in_any_mode_gives_empty_slot(self):
        sc = tiny_scenario(snr_thresholds=BLOCKED)
        sol = cold_slot(sc)
        assert not sol.alloc.any()
        assert not sol.beta.any()
        assert np.all(sol.rates == 0.0)
        assert sol.objective == 0.0
        assert sol.iterations == 1

    def test_rejects_unknown_algorithm(self):
        with pytest.raises(ValueError, match="unknown algorithm: genie"):
            cold_slot(tiny_scenario(), algorithm="genie")

    def test_trace_monotone_and_validator_clean(self):
        sc = tiny_scenario()
        sol = cold_slot(sc)
        objs = [obj for _, obj in sol.stage_trace]
        assert all(b >= a - 1e-9 for a, b in zip(objs, objs[1:]))
        assert sol.objective > 0.0
        assert validate_solution(sol, sc) == []

    def test_warm_chain_stays_valid_and_monotone(self):
        sc = tiny_scenario(n_slots=3)
        pos = np.asarray(sc.uav_start, dtype=float)
        prev = None
        rates = np.zeros((0, sc.n_ues))
        for t in range(sc.n_slots):
            w = update_weights(rates.mean(axis=0) if t else np.zeros(sc.n_ues))
            sol = jmstp_slot(sc, UavState(tuple(pos), tuple(pos)), w, prev, t)
            assert validate_solution(sol, sc, t) == []
            objs = [obj for _, obj in sol.stage_trace]
            assert all(b >= a - 1e-9 for a, b in zip(objs, objs[1:]))
            rates = np.vstack([rates, sol.rates])
            pos, prev = sol.position, sol

    def test_table_defaults_seed7_converges_quickly(self):
        sc = replace(Scenario(), rng_seed=7).with_positions(7)
        sol = cold_slot(sc)
        objs = [obj for _, obj in sol.stage_trace]
        assert all(b >= a - 1e-9 for a, b in zip(objs, objs[1:]))
        assert sol.iterations <= 30
        assert validate_solution(sol, sc) == []

    def test_single_pair_matches_brute_force_grid(self):
        sc = Scenario(
            n_ues=1, n_subchannels=1, n_slots=1, d_max=3.0,
            ue_positions=((60.0, 0.0, 0.0),), uav_start=(30.0, 20.0, 80.0),
        ).with_positions(0)
        # every (mode, UE power, UAV power) grid point at once, per position
        levels = np.linspace(0.0, sc.p_ue_max, 26)[1:, None]
        uav_levels = np.linspace(0.0, sc.p_uav_max, 26)[1:]

        def best_at(pos, relay):
            g = gain_matrices(sc, pos, 0)
            link = LinkBudget(relay, levels, uav_levels, g.h_ue_bs[0, 0],
                              g.h_ue_uav[0, 0], g.h_uav_bs[0], sc.snr_thresholds,
                              sc.noise_var, sc.ici_power)
            return float(np.max(link.rate, where=link.feasible(), initial=0.0))

        anchor = np.asarray(sc.uav_start, dtype=float)
        best = best_at(anchor, False)
        for dx in range(-3, 4):
            for dy in range(-3, 4):
                for dz in range(-3, 4):
                    if dx * dx + dy * dy + dz * dz > 9:
                        continue
                    best = max(best, best_at(anchor + (dx, dy, dz), True))

        sol = jmstp_slot(sc, UavState(tuple(sc.uav_start), tuple(sc.uav_start)),
                         np.array([1.0]))
        assert validate_solution(sol, sc) == []
        assert sol.objective >= 0.98 * best


def loop_complete_powers(prev_beta, prev_alloc, prev_powers, beta, alloc, gains,
                         weights, sc):
    """`complete_powers` written out per assignment: carry the held powers
    that meet this slot's floors, then fund the rest best full-budget
    value first (a stable sort), and spread the leftover budgets with
    `test_power_alloc`'s vectorized reference spread."""
    alloc = alloc.copy()
    full = LinkBudget(beta[:, None] == 1, sc.p_ue_max, sc.p_uav_max, gains.h_ue_bs,
                      gains.h_ue_uav, gains.h_uav_bs, sc.snr_thresholds,
                      sc.noise_var, sc.ici_power)
    floor_ue, floor_uav = full.floors()
    p_ue, p_uav = np.zeros(alloc.shape), np.zeros(alloc.shape[1])
    fresh = []
    for n in range(alloc.shape[0]):
        for k in np.flatnonzero(alloc[n]):
            if (prev_alloc is not None and prev_alloc[n, k] and prev_beta[n] == beta[n]
                    and prev_powers.p_ue[n, k] >= floor_ue[n, k]
                    and (not beta[n] or prev_powers.p_uav[k] >= floor_uav[n, k])):
                p_ue[n, k] = prev_powers.p_ue[n, k]
                if beta[n]:
                    p_uav[k] = prev_powers.p_uav[k]
            else:
                fresh.append((n, int(k)))
    value = weights[:, None] * full.rate
    floor_ue, floor_uav = floor_ue * (1.0 + 1e-9), floor_uav * (1.0 + 1e-9)
    for n, k in sorted(fresh, key=lambda nk: value[nk], reverse=True):
        fits = p_ue[n].sum() + floor_ue[n, k] <= sc.p_ue_max
        if beta[n]:
            fits = fits and p_uav.sum() + floor_uav[n, k] <= sc.p_uav_max
        if fits:
            p_ue[n, k], p_uav[k] = floor_ue[n, k], floor_uav[n, k]
        else:
            alloc[n, k] = 0
    powers = PowerAllocation(p_ue, p_uav)
    reference_spread(PowerProblem(beta, alloc, gains, weights, sc), powers)
    return alloc, powers


class TestCompletePowers:
    def test_matches_loop_reference(self):
        # floors low enough that a UE funds some of its newcomers and sheds
        # the rest, so the funding order decides which
        sc = Scenario(n_ues=4, n_subchannels=8, fading_model="mixed",
                      snr_thresholds=SnrThresholds(100.0, 100.0, 100.0)).with_positions(1)
        gains = gain_matrices(sc, sc.uav_start, 0)
        rng = np.random.default_rng(3)
        for _ in range(40):
            def draw():
                owner = rng.integers(-1, sc.n_ues, sc.n_subchannels)
                alloc = (owner[None, :] == np.arange(sc.n_ues)[:, None]).astype(int)
                return rng.integers(0, 2, sc.n_ues), alloc
            (prev_beta, prev_alloc), (beta, alloc) = draw(), draw()
            prev = PowerAllocation(rng.uniform(0, 0.01, alloc.shape) * prev_alloc,
                                   rng.uniform(0, 0.05, sc.n_subchannels))
            weights = rng.choice((0.0, 1.0, 2.0), sc.n_ues)  # zero weights tie
            for carried in (prev_alloc, None):
                args = (prev_beta, carried, prev, beta, alloc, gains, weights, sc)
                got_alloc, got = complete_powers(*args)
                want_alloc, want = loop_complete_powers(*args)
                np.testing.assert_array_equal(got_alloc, want_alloc)
                np.testing.assert_array_equal(got.p_ue, want.p_ue)
                np.testing.assert_array_equal(got.p_uav, want.p_uav)


def record_calls(monkeypatch, module, name):
    """Replace `module.name` by a wrapper that appends each call's
    positional arguments to the returned list."""
    calls = []
    original = getattr(module, name)

    def recorded(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(module, name, recorded)
    return calls


class TestChannelStateReuse:
    """Work that reads only the channel is done once per UAV position."""

    @pytest.mark.parametrize("fading, seed", [("none", 0), ("mixed", 5), ("mixed", 7)])
    def test_no_position_evaluated_twice(self, monkeypatch, fading, seed):
        # drift moves (fading none), accepted trajectory moves (mixed); the
        # step search evaluates its trials in at most two passes, each a
        # stack of positions
        calls = [record_calls(monkeypatch, module, "gain_matrices")
                 for module in (orchestrator, trajectory)]
        passes = []
        search = trajectory._step_search

        def counted_search(*args):
            before = len(calls[1])
            out = search(*args)
            passes.append(len(calls[1]) - before)
            return out

        monkeypatch.setattr(trajectory, "_step_search", counted_search)
        sol = cold_slot(tiny_scenario(fading_model=fading, rng_seed=seed))
        positions = [tuple(row) for c in calls for args in c
                     for row in np.atleast_2d(np.asarray(args[1], dtype=float))]
        assert sol.iterations >= 2 and len(positions) >= 2
        assert len(set(positions)) == len(positions)
        assert all(n <= 2 for n in passes) and (fading == "none" or passes)

    def test_cellular_greedy_start_built_once_per_slot(self, monkeypatch):
        sc = tiny_scenario(n_slots=4, rng_seed=1, fading_model="mixed")
        calls = record_calls(monkeypatch, orchestrator, "init_matching")
        log = run_episode(sc, "cellular")
        assert sum(sol.iterations >= 2 for sol in log.slots) >= 2
        assert len(calls) == sc.n_slots

    def test_all_cellular_start_built_at_most_once_per_slot(self, monkeypatch):
        # the all-cellular start reads no air gain, so a UAV move keeps it
        slots, init, slot = [], orchestrator.init_matching, orchestrator.jmstp_slot

        def new_slot(*args):
            slots.append(0)
            return slot(*args)

        def counted_init(ctx, modes):
            slots[-1] += not np.any(modes)
            return init(ctx, modes)

        monkeypatch.setattr(orchestrator, "jmstp_slot", new_slot)
        monkeypatch.setattr(orchestrator, "init_matching", counted_init)
        for seed in range(10):
            run_episode(relay_panel(seed), "jmstp")
        assert len(slots) == 100 and max(slots) == 1

    def test_fresh_starts_rebuilt_after_a_move(self, monkeypatch):
        # no relayed pair forms, so each drift move is a new channel state
        # (the slot's start on the orchestrator's binding, the drift's
        # move on the trajectory stage's); each state builds exactly the
        # starts whose ceiling beats the running best when the stage
        # reaches them, each once
        calls = spy_stages(monkeypatch, relay=True)
        evals = [record_calls(monkeypatch, module, "gain_matrices")
                 for module in (orchestrator, trajectory)]
        sol = cold_slot(tiny_scenario())
        assert not sol.beta.any()
        assert sum(map(len, evals)) == 2
        assert len({id(call.ctx) for call in calls}) == 2
        built = [[modes.tobytes() for modes in call.built] for call in calls]
        assert built == expected_builds(calls)
        # some starts are built and some are not
        assert 0 < sum(map(len, built)) < sum(len(call.log) for call in calls)

    @pytest.mark.parametrize("algorithm, n_ues, n_sub, seed", [
        ("jmstp", 5, 10, 0), ("jmstp", 5, 10, 1), ("jmstp", 5, 10, 2),
        ("cellular", 20, 40, 0)])
    def test_one_swap_run_per_greedy_start(self, monkeypatch, algorithm, n_ues, n_sub,
                                           seed):
        # the incumbent plays no swap game: every run starts from a fresh
        # greedy start, and each start is played exactly once
        starts = []
        init = orchestrator.init_matching

        def recorded_init(*args):
            starts.append(init(*args))
            return starts[-1]

        monkeypatch.setattr(orchestrator, "init_matching", recorded_init)
        played = record_calls(monkeypatch, orchestrator, "msma_detailed")
        sc = Scenario(n_ues=n_ues, n_subchannels=n_sub, n_slots=3,
                      fading_model="mixed", rng_seed=seed).with_positions(seed)
        log = run_episode(sc, algorithm)
        assert all(sol.alloc.any() for sol in log.slots)
        assert len(starts) >= sc.n_slots
        assert sorted(id(args[0]) for args in played) == sorted(map(id, starts))

    def test_skips_incumbent_and_source_completes_rest_once(self, monkeypatch):
        # greedy starts often reach the same stable matching; a stage call
        # completes exactly the distinct matchings whose ceiling beats the
        # running best, each once, but neither the incumbent's own matching
        # nor the one whose completion won earlier on the channel state
        calls = spy_stages(monkeypatch, relay=True)
        sc = Scenario(n_ues=5, n_subchannels=10, n_slots=4, d_max=25.0,
                      fading_model="mixed", rng_seed=0).with_positions(0)
        run_episode(sc, "jmstp")
        assert calls and any(entry.repeat for call in calls for entry in call.log)
        completed = [call.completed for call in calls]
        assert completed == expected_completions(calls)
        assert all(len(keys) == len(set(keys)) for keys in completed)
        assert 0 < sum(map(len, completed)) < sum(
            len({entry.key for entry in call.log}) for call in calls)

    def test_incumbent_matching_never_completed(self, monkeypatch):
        # completing the incumbent's own matching, or the one it came from,
        # would only re-fund the incumbent from its own powers
        calls = spy_stages(monkeypatch, relay=True)
        for seed in range(10):
            run_episode(relay_panel(seed), "jmstp")
        assert sum(len(call.completed) for call in calls) > 0
        assert not any(call.incumbent in call.completed for call in calls)


def start_modes(ctx, relay):
    """The fresh greedy starts' modes in the stage's order: scored (relay
    where its feasible full-budget utility sums higher), all-cellular,
    then coverage (relay where no direct link passes QoS), if it relays
    anyone; only all-cellular without `relay`."""
    all_cellular = np.full(ctx.n_ues, CELLULAR)
    if not relay:
        return [all_cellular]
    utility, feasible = ctx.full_budget
    score = np.where(feasible, utility, 0.0).sum(axis=2)
    starts = [np.where(score[RELAY] > score[CELLULAR], RELAY, CELLULAR), all_cellular]
    coverage = np.where(feasible[CELLULAR].any(axis=1), CELLULAR, RELAY)
    return starts + [coverage] if coverage.any() else starts


def exhaustive_stage(ctx, relay, beta, alloc, powers, incumbent_obj):
    """The matching stage without ceilings: every fresh greedy start is
    played, every distinct stable matching is completed in start order,
    and the best one is kept where it beats the running best by the
    stage's tolerance.  Returns that answer and one entry per start: its
    modes, the running best before it, its stable matching (and that
    matching's key), the matching's completed objective, and whether an
    earlier start reached the same matching."""
    sc, gains, weights = ctx.scenario, ctx.gains, ctx.weights
    best = (incumbent_obj, beta, alloc, powers)
    log, done = [], {}
    for modes in start_modes(ctx, relay):
        before = best[0]
        res = msma_detailed(init_matching(ctx, modes))
        key = res.beta.tobytes() + res.alloc.tobytes()
        repeat = key in done
        if not repeat:
            cand_alloc, cand_powers = complete_powers(
                beta, alloc, powers, res.beta, res.alloc, gains, weights, sc)
            obj = rate_report(res.beta, cand_alloc, cand_powers, gains, weights,
                              sc).objective
            done[key] = obj
            if beats(obj, best[0]):
                best = (obj, res.beta, cand_alloc, cand_powers)
        log.append(SimpleNamespace(modes=modes, best=before, beta=res.beta, alloc=res.alloc,
                                   key=key, objective=done[key], repeat=repeat))
    return best, log


def ceiling_table(ctx):
    """Each UE's weighted full-budget rate in each mode on each subchannel
    where it passes QoS there, else 0, indexed [mode, ue, k]."""
    utility, feasible = ctx.full_budget
    return np.where(feasible, utility, 0.0)


def mode_ceiling(table, modes):
    """Sum over subchannels of the largest entry over UEs in `modes`."""
    return table[modes, np.arange(modes.size)].max(axis=0).sum()


def matching_ceiling(table, beta, alloc):
    """Sum of the entries of the matching's links."""
    return table[beta, np.arange(beta.size)][alloc != 0].sum()


def beats(objective, best):
    """The stage's acceptance: beats the running best by its tolerance."""
    return objective > best + orchestrator._STAGE_TOL * max(1.0, abs(best))


def reaches(ceiling, best):
    """A ceiling that beats the running best: the stage's acceptance, with
    the ceiling's slack for summation order."""
    return beats(ceiling * (1.0 + 1e-12), best)


def spy_stages(monkeypatch, relay):
    """Run `exhaustive_stage` on the inputs of every matching-stage call
    before the stage itself; returns one record per call: its channel
    state (`ctx`), its slot's memory (`fresh`), the reference's answer
    (`want`) and per-start log, the stage's answer (`got`) as the
    reference gives it, with the state it returned (`state`) and the one
    it took (`start`), the incumbent's key, and the start modes the stage
    built and the matchings it completed, in order."""
    calls, inside = [], [False]
    stage, init, complete = (orchestrator._matching_stage, orchestrator.init_matching,
                             orchestrator.complete_powers)

    def spied_stage(ctx, fresh, start, obj):
        beta, alloc, powers = start.inputs.beta, start.inputs.alloc, start.inputs.powers
        want, log = exhaustive_stage(ctx, relay, beta, alloc, powers, obj)
        calls.append(SimpleNamespace(ctx=ctx, fresh=fresh, want=want, log=log, built=[],
                                     incumbent=beta.tobytes() + alloc.tobytes(),
                                     completed=[], start=start))
        inside[0] = True
        try:
            state = stage(ctx, fresh, start, obj)
        finally:
            inside[0] = False
        got = state.inputs
        calls[-1].state = state
        calls[-1].got = (max(obj, state.objective), got.beta, got.alloc, got.powers)
        return state

    def spied_init(ctx, modes):
        if inside[0]:
            calls[-1].built.append(np.array(modes))
        return init(ctx, modes)

    def spied_complete(*args):
        if inside[0]:
            calls[-1].completed.append(args[3].tobytes() + args[4].tobytes())
        return complete(*args)

    for name, fn in (("_matching_stage", spied_stage), ("init_matching", spied_init),
                     ("complete_powers", spied_complete)):
        monkeypatch.setattr(orchestrator, name, fn)
    return calls


def expected_builds(calls):
    """Per stage call, the start modes a lazy stage builds: those whose
    mode ceiling beats the running best, unless built earlier on the same
    channel state or, for a start that relays nobody (it reads no air
    gain), earlier in the same slot."""
    built: dict[int, set] = {}
    out = []
    for call in calls:
        table, keys = ceiling_table(call.ctx), []
        for entry in call.log:
            key = entry.modes.tobytes()
            done = built.setdefault(id(call.ctx if entry.modes.any() else call.fresh), set())
            if key not in done and reaches(mode_ceiling(table, entry.modes), entry.best):
                done.add(key)
                keys.append(key)
        out.append(keys)
    return out


def expected_completions(calls):
    """Per stage call, the matchings a lazy stage completes: the first
    reach of each distinct one, when both its start's ceiling and its own
    beat the running best, except the incumbent's own matching and the
    source, the matching whose completion last won a call on the same
    channel state (the reference's winner, which the stage's answers
    equal)."""
    out, sources = [], {}
    for call in calls:
        table, keys = ceiling_table(call.ctx), []
        skip = {call.incumbent, sources.get(id(call.ctx))}
        for entry in call.log:
            if (entry.key not in keys and entry.key not in skip
                    and reaches(mode_ceiling(table, entry.modes), entry.best)
                    and reaches(matching_ceiling(table, entry.beta, entry.alloc), entry.best)):
                keys.append(entry.key)
            if not entry.repeat and beats(entry.objective, entry.best):
                sources[id(call.ctx)] = entry.key
        out.append(keys)
    return out


def same_bits(a, b):
    a, b = np.asarray(a), np.asarray(b)
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


def relay_panel(seed, fading="mixed", n_slots=10, dbm=6.0):
    """perfbench's relay_mixed scenario `seed`, under `fading`, at a UE
    budget of `dbm`."""
    return Scenario(n_ues=5, n_subchannels=10, n_slots=n_slots, d_max=25.0,
                    fading_model=fading, p_ue_max=dbm_to_watts(dbm),
                    rng_seed=seed).with_positions(seed)


def assert_answers_equal_the_reference(calls):
    """Every stage call answered as `exhaustive_stage` did, bit for bit,
    with the incumbent's own state when it kept the incumbent and a state
    priced exactly otherwise."""
    assert calls
    for i, call in enumerate(calls):
        (want_obj, *want), (got_obj, *got) = call.want, call.got
        assert got_obj == want_obj, i
        for a, b in zip(got[:2] + [got[2].p_ue, got[2].p_uav],
                        want[:2] + [want[2].p_ue, want[2].p_uav]):
            assert same_bits(a, b), i
        state = call.state
        if want[1] is call.start.inputs.alloc:
            assert state is call.start, i
            continue
        report = rate_report(*want, call.ctx.gains, call.ctx.weights, call.ctx.scenario)
        assert state.objective == report.objective == want_obj, i
        assert same_bits(state.rates, report.per_ue_rate), i
        assert state.gains is call.ctx.gains and state.position is call.start.position, i


class TestMatchingCeilings:
    """The lazy matching stage skips a greedy start, or a stable
    matching's completion, only where its full-budget ceiling shows it
    cannot beat the running best, so it answers as the exhaustive stage
    that completes every distinct fresh start does."""

    # at 20 dBm, carried powers matter: there, completing each matching
    # only once per channel state moves answers on (mixed, 8) and
    # (rayleigh, 2)
    @pytest.mark.parametrize("fading, seed, dbm", [
        ("mixed", 0, 6.0), ("mixed", 1, 6.0), ("rayleigh", 0, 6.0),
        ("mixed", 8, 20.0), ("rayleigh", 2, 20.0)],
        ids=["mixed-0", "mixed-1", "rayleigh-0", "mixed-8-20dBm", "rayleigh-2-20dBm"])
    def test_answers_equal_the_exhaustive_stage_bit_for_bit(self, monkeypatch, fading,
                                                            seed, dbm):
        calls = spy_stages(monkeypatch, relay=True)
        run_episode(relay_panel(seed, fading, dbm=dbm), "jmstp")
        assert_answers_equal_the_reference(calls)
        built = [[modes.tobytes() for modes in call.built] for call in calls]
        assert built == expected_builds(calls)
        assert [call.completed for call in calls] == expected_completions(calls)
        # the ceilings skipped some of the exhaustive stage's work: starts
        # that no earlier call built, and distinct matchings
        states = {id(call.ctx): set() for call in calls}
        for call in calls:
            states[id(call.ctx)].update(entry.modes.tobytes() for entry in call.log)
        assert sum(map(len, built)) < sum(map(len, states.values()))
        assert sum(len(call.completed) for call in calls) < sum(
            len({entry.key for entry in call.log}) for call in calls)

    @pytest.mark.parametrize("dbm", [6.0, 20.0])
    def test_cellular_answers_equal_the_exhaustive_stage_bit_for_bit(self, monkeypatch,
                                                                     dbm):
        # the cellular stage prunes its one start by the same ceilings, read
        # from the direct rows, and skips the incumbent's own matching and
        # the one it came from.  The UAV never moves, so a slot's second
        # call holds the first call's channel state, and its one start
        # reaches the matching that call completed
        calls = spy_stages(monkeypatch, relay=False)
        sc = Scenario(n_ues=20, n_subchannels=40, n_slots=10, d_max=25.0,
                      fading_model="mixed", p_ue_max=dbm_to_watts(dbm),
                      rng_seed=0).with_positions(0)
        run_episode(sc, "cellular")
        assert_answers_equal_the_reference(calls)
        slots: dict[int, list] = {}
        for call in calls:
            slots.setdefault(id(call.fresh), []).append(call.completed)
        assert all(completed[0] for completed in slots.values())
        seconds = [completed[1] for completed in slots.values() if len(completed) > 1]
        assert len(seconds) >= 5 and not any(seconds)

    @pytest.mark.parametrize("fading", ["none", "rician", "mixed", "rayleigh"])
    def test_ceilings_bound_every_completed_candidate(self, monkeypatch, fading):
        calls = spy_stages(monkeypatch, relay=True)
        for seed in (0, 1):
            run_episode(relay_panel(seed, fading, n_slots=4), "jmstp")
        entries = [(call, entry) for call in calls for entry in call.log]
        assert entries
        for call, entry in entries:
            table = ceiling_table(call.ctx)
            ceiling = matching_ceiling(table, entry.beta, entry.alloc)
            # written out link by link, in another order than the stage's
            by_link = sum(table[entry.beta[n], n, k] for n, k in np.argwhere(entry.alloc))
            assert ceiling == pytest.approx(by_link, rel=1e-13, abs=0.0)
            assert entry.objective <= ceiling * (1.0 + 1e-12)
            assert ceiling <= mode_ceiling(table, entry.modes) * (1.0 + 1e-12)

    def test_cellular_builds_no_full_budget_table(self, monkeypatch):
        evaluated = []
        full_budget = MatchingContext.full_budget

        def counted(ctx):
            evaluated.append(ctx)
            return full_budget.func(ctx)

        monkeypatch.setattr(MatchingContext, "full_budget", property(counted))
        sc = relay_panel(0, n_slots=3)
        run_episode(sc, "cellular")
        assert evaluated == []
        run_episode(sc, "jmstp")
        assert evaluated


def same_gains(a, b):
    return all(np.array_equal(getattr(a, f), getattr(b, f))
               for f in ("h_ue_bs", "h_ue_uav", "h_uav_bs"))


class TestSettledPowerStage:
    """A cycle runs `scp_power` unless the power stage's inputs are what a
    converged run last returned: the matching stage kept the incumbent
    and the UAV stayed put."""

    def test_cellular_slot_solves_its_powers_once(self, monkeypatch):
        calls = record_calls(monkeypatch, orchestrator, "scp_power")
        sc = Scenario(n_ues=20, n_subchannels=40, n_slots=3,
                      fading_model="mixed", rng_seed=1).with_positions(1)
        log = run_episode(sc, "cellular")
        assert [sol.iterations for sol in log.slots] == [2] * sc.n_slots
        assert len(calls) == sc.n_slots
        for sol in log.slots:
            stages = [stage for stage, _ in sol.stage_trace]
            assert stages == ["matching", "power"] * sol.iterations

    def test_every_cycle_with_new_inputs_solves(self, monkeypatch):
        # each cycle's power inputs, recorded apart from the skip: the
        # matching stage's arguments are the last cycle's power output and
        # its result this cycle's power input; its channel is the one at
        # the cycle's start, and the next cycle's (or the slot's final
        # position) the one the power stage sees.  The stage keeps the
        # incumbent after a slot's first cycle here, so the last slot has
        # its second cycle's powers nudged down to change them
        slots = []  # each slot's cycles
        slot, matching, power = (orchestrator.jmstp_slot, orchestrator._matching_stage,
                                 orchestrator.scp_power)

        def recorded_slot(*args, **kwargs):
            slots.append([])
            return slot(*args, **kwargs)

        def recorded_matching(ctx, fresh, start, obj):
            out = matching(ctx, fresh, start, obj)
            if len(slots) == sc.n_slots and len(slots[-1]) == 1:
                powers = out.inputs.powers
                inputs = replace(out.inputs, powers=PowerAllocation(0.999 * powers.p_ue,
                                                                    0.999 * powers.p_uav))
                out = Audit.priced(inputs, out.position, out.gains, rate_report(
                    inputs.beta, inputs.alloc, inputs.powers, ctx.gains, ctx.weights,
                    ctx.scenario))
            old, new = start.inputs, out.inputs
            kept = all(map(np.array_equal, (old.beta, old.alloc, old.powers.p_ue,
                                            old.powers.p_uav),
                           (new.beta, new.alloc, new.powers.p_ue, new.powers.p_uav)))
            slots[-1].append({"gains": ctx.gains, "kept": kept, "solved": False})
            return out

        def recorded_power(*args, **kwargs):
            slots[-1][-1]["solved"] = True
            return power(*args, **kwargs)

        monkeypatch.setattr(orchestrator, "jmstp_slot", recorded_slot)
        monkeypatch.setattr(orchestrator, "_matching_stage", recorded_matching)
        monkeypatch.setattr(orchestrator, "scp_power", recorded_power)
        sc = Scenario(n_ues=5, n_subchannels=10, n_slots=4, d_max=25.0,
                      fading_model="mixed", rng_seed=2).with_positions(2)
        log = run_episode(sc, "jmstp")
        changed = skipped = 0
        for t, (cycles, sol) in enumerate(zip(slots, log.slots)):
            assert len(cycles) == sol.iterations
            seen = [c["gains"] for c in cycles[1:]] + [
                gain_matrices(log.scenario, sol.position, t)]
            for c, (cycle, gains) in enumerate(zip(cycles, seen)):
                new = c == 0 or not cycle["kept"] or not same_gains(cycle["gains"], gains)
                assert cycle["solved"] or not new, (t, c)
                changed += c > 0 and new
                skipped += not cycle["solved"]
        assert changed and skipped


class TestOnePricePerState:
    """The slot loop carries its audited state from stage to stage, so no
    `rate_report` call in a slot evaluates exactly the inputs of an
    earlier one: not the trajectory stage's start, not the power stage's
    start or a step that returns it, and no closing report.  The matching
    stage's completions are the exception: it completes its candidates
    per call, and a completion may repeat one an earlier call made."""

    @staticmethod
    def repeats(monkeypatch, sc, algorithm):
        """Run the episode with every `rate_report` call keyed by the bytes
        of its inputs, one key per position of a stacked call, the keys
        forgotten at each slot's start; return the number of calls and
        (slot, caller) of each call outside the matching stage whose every
        key an earlier call of its slot made."""
        seen, inside, calls, repeats, slots = set(), [False], [0], [], [0]
        slot, stage = orchestrator.jmstp_slot, orchestrator._matching_stage

        def new_slot(*args, **kwargs):
            seen.clear()
            slots[0] += 1
            return slot(*args, **kwargs)

        def spied_stage(*args):
            inside[0] = True
            try:
                return stage(*args)
            finally:
                inside[0] = False

        def spied(beta, alloc, powers, gains, weights, scenario):
            head = b"".join(np.asarray(a).tobytes() for a in (
                beta, alloc, powers.p_ue, powers.p_uav, weights, gains.h_ue_bs))
            air = ([(gains.h_ue_uav, gains.h_uav_bs)] if gains.h_ue_uav.ndim == 2
                   else zip(gains.h_ue_uav, gains.h_uav_bs))
            keys = {head + a.tobytes() + b.tobytes() for a, b in air}
            calls[0] += 1
            if keys <= seen and not inside[0]:
                repeats.append((slots[0], inspect.stack()[1].function))
            seen.update(keys)
            return rate_report(beta, alloc, powers, gains, weights, scenario)

        monkeypatch.setattr(orchestrator, "jmstp_slot", new_slot)
        monkeypatch.setattr(orchestrator, "_matching_stage", spied_stage)
        for module in (orchestrator, trajectory, power_alloc):
            monkeypatch.setattr(module, "rate_report", spied)
        run_episode(sc, algorithm)
        return calls[0], repeats

    @pytest.mark.parametrize("algorithm, n_ues, n_sub, seed", [
        ("jmstp", 5, 10, 0), ("jmstp", 5, 10, 9), ("cellular", 10, 20, 1),
        ("random", 5, 10, 0), ("random", 5, 10, 9)])
    def test_no_evaluation_repeats_in_a_slot(self, monkeypatch, algorithm, n_ues, n_sub,
                                            seed):
        sc = Scenario(n_ues=n_ues, n_subchannels=n_sub, n_slots=4, d_max=25.0,
                      fading_model="mixed", rng_seed=seed).with_positions(seed)
        calls, repeats = self.repeats(monkeypatch, sc, algorithm)
        assert calls >= sc.n_slots
        assert repeats == []


def margin_slot(hop, margin):
    """`_funded_slot`'s direct UE 0 and relayed UE 1, every hop at twice
    its floor but `hop`, whose margin is set to `margin`; returns the
    validator's arguments."""
    _, _, sol = _funded_slot(2.0)
    p_ue, p_uav = sol.powers.p_ue.copy(), sol.powers.p_uav.copy()
    power, at = {"direct": (p_ue, (0, 0)), "access-hop": (p_ue, (1, 1)),
                 "backhaul-hop": (p_uav, 1)}[hop]
    power[at] *= (1.0 + margin) / 2.0
    sc, _, sol = _slot(sol.beta, sol.alloc, p_ue, p_uav)
    return sol, sc


class TestQosMargin:
    @pytest.mark.parametrize("hop, ue", [("direct", 0), ("access-hop", 1),
                                         ("backhaul-hop", 1)])
    def test_flags_a_hop_past_the_tolerance_only(self, hop, ue):
        assert validate_solution(*margin_slot(hop, -1.01 * QOS_TOL)) == [
            f"ue {ue} subchannel {ue}: {hop} SNR below floor"]
        assert validate_solution(*margin_slot(hop, -0.99 * QOS_TOL)) == []


class TestEpisodeValidity:
    """Every slot an episode returns passes the validator, warm starts
    included: fading is redrawn each slot, so powers carried from the
    last slot can fall below this slot's QoS floors."""

    @pytest.mark.parametrize("algorithm", ALGORITHMS)
    @pytest.mark.parametrize("fading", ["none", "rician", "mixed", "rayleigh"])
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_every_slot_is_validator_clean(self, algorithm, fading, seed):
        sc = Scenario(n_ues=5, n_subchannels=10, n_slots=10, d_max=25.0,
                      fading_model=fading, rng_seed=seed).with_positions(seed)
        log = run_episode(sc, algorithm)
        problems = {t: found for t, sol in enumerate(log.slots)
                    if (found := validate_solution(sol, log.scenario, t))}
        assert problems == {}
        # the altitude is held from the start for the whole episode
        held = log.scenario.uav_start[2]
        assert [sol.position[2] for sol in log.slots] == [held] * len(log.slots)

    @given(documents())
    @settings(max_examples=50, deadline=None)
    def test_every_loadable_config_gives_clean_warm_started_slots(self, doc):
        sc = load_scenario(json.dumps(dict(doc, n_slots=2)))
        for algorithm in ALGORITHMS:
            log = run_episode(sc, algorithm)
            for t, sol in enumerate(log.slots):
                assert validate_solution(sol, log.scenario, t) == [], (algorithm, t)
                assert sol.position[2] == log.scenario.uav_start[2], (algorithm, t)
                assert np.all(np.isfinite(sol.rates)) and math.isfinite(sol.objective)
                objs = [obj for _, obj in sol.stage_trace]
                assert all(b >= a for a, b in zip(objs, objs[1:])), (algorithm, t)


class TestRunEpisode:
    def test_single_slot_cold_start_weights(self):
        log = run_episode(tiny_scenario(n_slots=1))
        assert np.allclose(log.slots[0].weights, 10.0)

    def test_weights_follow_the_update_recurrence(self):
        log = run_episode(tiny_scenario(), "jmstp")
        for t in range(log.rates.shape[0]):
            avg = log.rates[:t].mean(axis=0) if t else np.zeros(log.rates.shape[1])
            assert np.allclose(log.slots[t].weights, update_weights(avg))

    def test_uav_stays_above_bs(self):
        sc = tiny_scenario()
        log = run_episode(sc)
        for sol in log.slots:
            assert sol.position[2] > sc.bs_height

    def test_rejects_unknown_algorithm(self):
        with pytest.raises(ValueError, match="algorithm"):
            run_episode(tiny_scenario(), "genie")

    def test_rejects_a_scenario_that_fails_validation(self):
        with pytest.raises(ValueError, match="d_max must be positive; e_max must be finite"):
            run_episode(tiny_scenario(d_max=-5.0, e_max=float("nan")))

    @pytest.mark.parametrize("count", [{"n_ues": 0}, {"n_ues": -3}, {"n_ues": 10**30},
                                       {"n_subchannels": 10**30}],
                             ids=["n_ues=0", "n_ues=-3", "n_ues=1e30", "n_subchannels=1e30"])
    def test_rejects_a_bad_count_before_drawing_positions(self, count):
        with pytest.raises(ValueError, match=f"{next(iter(count))} must be from 1 to"):
            run_episode(Scenario(**count))

    def test_metrics_match_slot_contents(self):
        log = run_episode(tiny_scenario())
        assert np.isclose(log.sum_rate, log.rates.sum(axis=1).mean())
        assert np.allclose(log.avg_rates, log.rates.mean(axis=0))
        r = log.avg_rates
        assert np.isclose(log.jain, r.sum() ** 2 / (r.size * (r ** 2).sum()))
        assert np.isclose(log.pf_utility, np.log(r + 0.1).sum())


class TestBaselines:
    def test_random_is_reproducible(self):
        sc = tiny_scenario()
        a = run_episode(sc, "random")
        b = run_episode(sc, "random")
        assert np.array_equal(a.rates, b.rates)
        assert all(np.array_equal(x.alloc, y.alloc)
                   for x, y in zip(a.slots, b.slots))

    def test_random_slots_pass_the_validator(self):
        sc = tiny_scenario()
        log = run_episode(sc, "random")
        for t, sol in enumerate(log.slots):
            assert validate_solution(sol, sc, t) == []

    def test_random_with_nothing_feasible_is_all_zero(self):
        log = run_episode(tiny_scenario(snr_thresholds=BLOCKED), "random")
        assert not log.rates.any()

    def test_cellular_never_relays_and_never_moves(self):
        sc = tiny_scenario()
        log = run_episode(sc, "cellular")
        start = np.asarray(sc.uav_start, dtype=float)
        for t, sol in enumerate(log.slots):
            assert not sol.beta.any()
            assert np.allclose(sol.position, start)
            assert validate_solution(sol, sc, t) == []

    def test_relay_blocked_jmstp_collapses_to_cellular(self):
        sc = tiny_scenario(snr_thresholds=SnrThresholds(300.0, 1e18, 1e18))
        ja = run_episode(sc, "jmstp")
        ce = run_episode(sc, "cellular")
        assert not ja.rates.any() or np.allclose(ja.rates, ce.rates, rtol=1e-9)
        assert all(not sol.beta.any() for sol in ja.slots)

    def test_out_of_reach_ue_is_unscheduled_under_cellular(self):
        sc = tiny_scenario(
            ue_positions=((50.0, 10.0, 0.0), (-90.0, 40.0, 0.0), (900.0, 0.0, 0.0)))
        log = run_episode(sc, "cellular")
        assert log.avg_rates[2] == 0.0
        assert all(2 not in sol.scheduled_ues() for sol in log.slots)

    def test_served_ue_lists_equal_the_loop_form(self):
        relayed = 0
        for seed in range(3):
            for sol in run_episode(relay_panel(seed), "jmstp").slots:
                served = [n for n in range(sol.alloc.shape[0])
                          if sol.alloc[n].any() and sol.rates[n] > 0.0]
                assert sol.scheduled_ues() == served
                assert sol.relay_ues() == [n for n in served if sol.beta[n]]
                assert all(type(n) is int for n in sol.scheduled_ues() + sol.relay_ues())
                relayed += bool(sol.relay_ues())
        assert relayed


class TestPaperClaim:
    """The abstract's claim: the joint algorithm outperforms the random
    algorithm and the cellular scheme.  Judged per seed, paired, on the
    sum rate and on the utility that the fairness weights ascend,
    U = sum_n log(avg rate_n + 0.1) (`update_weights` sets each weight to
    its gradient); Jain's index against random is too close to call."""

    def test_jmstp_beats_both_baselines(self):
        metrics = {algorithm: [] for algorithm in ALGORITHMS}
        for seed in range(10):
            sc = Scenario(rng_seed=seed, d_max=25.0, fading_model="mixed")
            for algorithm in ALGORITHMS:
                log = run_episode(sc, algorithm)
                metrics[algorithm].append((log.sum_rate, log.pf_utility))
        joint = np.array(metrics["jmstp"])
        for rival in ("random", "cellular"):
            gaps = joint - np.array(metrics[rival])
            for name, column in zip(("sum rate", "utility"), gaps.T):
                assert paired_bootstrap_lower(column) > 0.0, (rival, name)


class TestSweep:
    def test_rejects_unknown_axis(self):
        with pytest.raises(ValueError, match="axis"):
            sweep(Scenario(n_ues=2, n_subchannels=2, n_slots=1),
                  "bs_height", [30.0])

    def test_single_value_row_equals_a_direct_episode_mean(self):
        template = Scenario(n_ues=2, n_subchannels=3, n_slots=2)
        rows = sweep(template, "d_max", [12.0], n_seeds=2,
                     algorithms=("cellular",))
        assert len(rows) == 1
        logs = [run_episode(replace(template, rng_seed=s,
                                    d_max=12.0).with_positions(s), "cellular")
                for s in range(2)]
        assert np.isclose(rows[0]["sum_rate"], np.mean([l.sum_rate for l in logs]))
        assert np.isclose(rows[0]["jain"], np.mean([l.jain for l in logs]))
        assert np.isclose(rows[0]["pf_utility"], np.mean([l.pf_utility for l in logs]))

    def test_rows_cover_every_value_algorithm_pair(self):
        template = Scenario(n_ues=2, n_subchannels=2, n_slots=1)
        rows = sweep(template, "p_uav_max", [0.1, 0.3], n_seeds=1)
        assert len(rows) == 2 * len(ALGORITHMS)
        assert {r["value"] for r in rows} == {0.1, 0.3}
        for row in rows:
            assert row["axis"] == "p_uav_max"
            assert set(row) >= {"sum_rate", "jain", "pf_utility", "n_relay_ues",
                                "n_scheduled_ues", "avg_speed", "seeds"}

    def test_axes_tuple_matches_contract(self):
        assert SWEEP_AXES == ("p_ue_max", "d_max", "p_uav_max", "e_max")


class TestClusterMetrics:
    def test_dwell_times_partition_the_horizon(self):
        sc = cluster_scenario(3, 1, seed=1, n_subchannels=4, n_slots=3)
        log = run_episode(sc, "cellular")
        t = dwell_times(log, [(250.0, 0.0), (-250.0, 0.0)])
        assert np.isclose(t.sum(), sc.n_slots * sc.slot_len)

    def test_dwell_assignment_is_nearest_centroid(self):
        sc = cluster_scenario(2, 1, seed=0, n_subchannels=3, n_slots=2)
        log = run_episode(sc, "cellular")
        cents = np.array([(250.0, 0.0), (-250.0, 0.0)])
        t = dwell_times(log, cents)
        expect = np.zeros(2)
        for sol in log.slots:
            d = np.linalg.norm(cents - sol.position[:2], axis=1)
            expect[int(np.argmin(d))] += sc.slot_len
        assert np.allclose(t, expect)

    def test_cluster_scenario_builds_two_groups(self):
        sc = cluster_scenario(3, 2, seed=4, spread=50.0)
        assert sc.n_ues == 5
        pts = np.asarray(sc.ue_positions)
        assert np.all(np.abs(pts[:3, 0] - 250.0) <= 50.0)
        assert np.all(np.abs(pts[3:, 0] + 250.0) <= 50.0)
        again = cluster_scenario(3, 2, seed=4, spread=50.0)
        assert np.allclose(pts, np.asarray(again.ue_positions))
