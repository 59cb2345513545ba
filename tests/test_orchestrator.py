"""Per-slot solver and episode-runner tests: BCD monotonicity and
convergence, the constraint validator on everything emitted, baseline
behaviors, sweep plumbing, and the dwell-time metric."""

import json
import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings

from uavrelay import orchestrator, trajectory
from uavrelay.channel import gain_matrices
from uavrelay.link_rate import LinkBudget, PowerAllocation, update_weights
from uavrelay.orchestrator import (
    ALGORITHMS,
    SWEEP_AXES,
    cluster_scenario,
    complete_powers,
    dwell_times,
    jmstp_slot,
    run_episode,
    sweep,
    validate_solution,
)
from uavrelay.power_alloc import PowerProblem, spread_leftover
from uavrelay.scenario import Scenario, SnrThresholds, UavState, load_scenario

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
    value first (a stable sort)."""
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
    spread_leftover(PowerProblem(beta, alloc, gains, weights, sc), powers)
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
        # drift moves (fading none), accepted trajectory moves (mixed)
        calls = [record_calls(monkeypatch, module, "gain_matrices")
                 for module in (orchestrator, trajectory)]
        sol = cold_slot(tiny_scenario(fading_model=fading, rng_seed=seed))
        positions = [tuple(np.asarray(args[1], dtype=float)) for c in calls for args in c]
        assert sol.iterations >= 2 and len(positions) >= 2
        assert len(set(positions)) == len(positions)

    def test_cellular_greedy_start_built_once_per_slot(self, monkeypatch):
        sc = tiny_scenario(n_slots=4, rng_seed=1, fading_model="mixed")
        calls = record_calls(monkeypatch, orchestrator, "init_matching")
        log = run_episode(sc, "cellular")
        assert sum(sol.iterations >= 2 for sol in log.slots) >= 2
        assert len(calls) == sc.n_slots

    def test_fresh_starts_rebuilt_after_a_move(self, monkeypatch):
        # no relayed pair forms, so each drift move is a new channel state,
        # and each state gets the scored, all-cellular and coverage starts
        inits = record_calls(monkeypatch, orchestrator, "init_matching")
        evals = record_calls(monkeypatch, orchestrator, "gain_matrices")
        sol = cold_slot(tiny_scenario())
        assert not sol.beta.any()
        assert len(evals) == 2
        assert len(inits) == 3 * len(evals)

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
        assert np.allclose(log.weights_history, 10.0)

    def test_weights_follow_the_update_recurrence(self):
        log = run_episode(tiny_scenario(), "jmstp")
        for t in range(log.rates.shape[0]):
            avg = log.rates[:t].mean(axis=0) if t else np.zeros(log.rates.shape[1])
            assert np.allclose(log.weights_history[t], update_weights(avg))

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

    def test_rows_cover_every_value_algorithm_pair(self):
        template = Scenario(n_ues=2, n_subchannels=2, n_slots=1)
        rows = sweep(template, "p_uav_max", [0.1, 0.3], n_seeds=1)
        assert len(rows) == 2 * len(ALGORITHMS)
        assert {r["value"] for r in rows} == {0.1, 0.3}
        for row in rows:
            assert row["axis"] == "p_uav_max"
            assert set(row) >= {"sum_rate", "jain", "n_relay_ues",
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
