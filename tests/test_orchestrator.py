"""Per-slot solver and episode-runner tests: BCD monotonicity and
convergence, the constraint validator on everything emitted, baseline
behaviors, sweep plumbing, and the dwell-time metric."""

import warnings
from dataclasses import replace

import numpy as np
import pytest

from uavrelay.channel import gain_matrices
from uavrelay.link_rate import LinkBudget, update_weights
from uavrelay.orchestrator import (
    ALGORITHMS,
    SWEEP_AXES,
    cluster_scenario,
    dwell_times,
    jmstp_slot,
    run_episode,
    sweep,
    validate_solution,
)
from uavrelay.scenario import Scenario, SnrThresholds, UavState

warnings.filterwarnings("ignore", message="move radius")

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
