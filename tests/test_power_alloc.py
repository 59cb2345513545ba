import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from uavrelay.channel import gain_matrices
from uavrelay.link_rate import PowerAllocation, rate_report
from uavrelay.power_alloc import (PowerLayout, PowerProblem, restore_feasible,
                                  scp_power)
from uavrelay.scenario import Scenario, SnrThresholds, dbm_to_watts


def mixed_instance():
    sc = Scenario(n_ues=4, n_subchannels=6,
                  snr_thresholds=SnrThresholds(3.0, 3.0, 3.0)).with_positions(3)
    gains = gain_matrices(sc, (150.0, 40.0, 120.0))
    beta = np.array([1, 0, 0, 1])
    alloc = np.zeros((4, 6), dtype=int)
    alloc[0, [0, 1]] = 1
    alloc[1, [2]] = 1
    alloc[2, [3, 4]] = 1
    alloc[3, [5]] = 1
    weights = np.array([1.0, 0.7, 1.3, 2.0])
    return sc, gains, beta, alloc, weights


def random_powers(rng, alloc, beta, sc):
    p_ue = rng.uniform(0.001, sc.p_ue_max, alloc.shape) * alloc
    p_uav = rng.uniform(0.001, sc.p_uav_max / 3, alloc.shape[1]) \
        * (alloc * beta[:, None]).any(axis=0)
    return PowerAllocation(p_ue, p_uav)


def dc_by_ue(layout, x):
    """`dc_terms` at `x` summed per UE: (K_n, M_n) arrays and the terms."""
    terms = layout.dc_terms(x)
    n = layout.alloc.shape[0]
    return (np.bincount(layout.ue_n, terms.k, n),
            np.bincount(layout.ue_n[layout.relay], terms.m, n), terms)


def exact_rates(sc, gains, beta, alloc, powers):
    return rate_report(beta, alloc, powers, gains, np.ones(len(beta)), sc).per_ue_rate


class TestDcSplit:
    def test_identity_random_powers(self):
        sc, gains, beta, alloc, _ = mixed_instance()
        layout = PowerLayout(beta, alloc, gains, sc)
        rng = np.random.default_rng(0)
        for _ in range(100):
            powers = random_powers(rng, alloc, beta, sc)
            k, m, _ = dc_by_ue(layout, layout.pack(powers))
            np.testing.assert_allclose(k - m, exact_rates(sc, gains, beta, alloc, powers),
                                       rtol=1e-10)

    def test_cellular_only_has_no_subtracted_part(self):
        sc, gains, beta, alloc, _ = mixed_instance()
        layout = PowerLayout(beta, alloc, gains, sc)
        powers = random_powers(np.random.default_rng(1), alloc, beta, sc)
        k, m, terms = dc_by_ue(layout, layout.pack(powers))
        rates = exact_rates(sc, gains, beta, alloc, powers)
        for n in (1, 2):
            assert m[n] == 0.0
            assert not terms.m_grad[layout.owner == n].any()
            assert k[n] == pytest.approx(rates[n], rel=1e-12)

    def test_gradients_match_central_differences(self):
        sc, gains, beta, alloc, _ = mixed_instance()
        layout = PowerLayout(beta, alloc, gains, sc)
        x0 = layout.pack(random_powers(np.random.default_rng(2), alloc, beta, sc))
        base = layout.dc_terms(x0)
        for i, n in enumerate(layout.owner):
            h = 1e-6 * max(x0[i], 1e-3)
            up, dn = x0.copy(), x0.copy()
            up[i] += h
            dn[i] -= h
            (k_up, m_up, _), (k_dn, m_dn, _) = dc_by_ue(layout, up), dc_by_ue(layout, dn)
            assert (k_up[n] - k_dn[n]) / (2 * h) == pytest.approx(
                base.k_grad[i], rel=1e-4, abs=1e-12)
            assert (m_up[n] - m_dn[n]) / (2 * h) == pytest.approx(
                base.m_grad[i], rel=1e-4, abs=1e-12)

    @given(st.integers(0, 10_000))
    @settings(max_examples=40, deadline=None)
    def test_identity_property(self, draw):
        sc, gains, beta, alloc, _ = mixed_instance()
        layout = PowerLayout(beta, alloc, gains, sc)
        powers = random_powers(np.random.default_rng(draw), alloc, beta, sc)
        k, m, _ = dc_by_ue(layout, layout.pack(powers))
        np.testing.assert_allclose(k - m, exact_rates(sc, gains, beta, alloc, powers),
                                   rtol=1e-10)


LAYOUTS = {"direct": [0, 0, 0, 0], "relay": [1, 1, 1, 1], "mixed": [1, 0, 0, 1]}


def layout_problems():
    """The mixed instance's allocation under all-direct, all-relay and
    mixed modes, trimmed to what floor funding can pay, with the
    restored powers."""
    sc, gains, _, alloc, weights = mixed_instance()
    for name, modes in LAYOUTS.items():
        beta = np.array(modes)
        kept, restored, _ = restore_feasible(beta, alloc, gains, weights, sc)
        assert kept.any(), name
        yield name, PowerProblem(beta, kept, gains, weights, sc), restored


class TestSurrogate:
    def test_tight_at_expansion_and_never_above(self):
        rng = np.random.default_rng(7)
        for name, prob, restored in layout_problems():
            fset = prob.feasible_set()
            lo = prob.qos_floors()
            hi = prob.pack(restored)
            x0 = fset.project(0.5 * (lo + hi))
            surrogate = prob.surrogate(x0)

            exact = prob.true_objective(x0)
            assert abs(surrogate(x0)[0] - exact) <= 1e-12 * max(1.0, abs(exact)), name

            for _ in range(300):
                z = fset.project(lo + rng.uniform(0, 1, prob.n_vars) * (hi - lo + 0.05))
                exact = prob.true_objective(z)
                assert surrogate(z)[0] <= exact + 1e-12 * max(1.0, abs(exact)), name

    def test_surrogate_gradient(self):
        from gradcheck import grad_check
        for name, prob, restored in layout_problems():
            x0 = 0.7 * prob.pack(restored)
            assert grad_check(prob.surrogate(x0), x0, step=1e-9) <= 1e-4, name

    def test_pack_unpack_round_trip(self):
        for name, prob, restored in layout_problems():
            x = prob.pack(restored)
            back = prob.unpack(x)
            assert np.array_equal(back.p_ue, restored.p_ue), name
            assert np.array_equal(back.p_uav, restored.p_uav), name
            assert np.array_equal(prob.pack(back), x), name
            assert x.size == prob.n_vars == prob.alloc.sum() + prob.alloc[prob.beta == 1].sum()


class TestScpPower:
    def test_single_cellular_ue_gets_full_budget(self):
        sc = Scenario(n_ues=1, n_subchannels=2,
                      snr_thresholds=SnrThresholds(1.0, 1.0, 1.0),
                      ue_positions=((200.0, 0.0, 0.0),)).with_positions(0)
        gains = gain_matrices(sc, (100.0, 0.0, 100.0))
        res = scp_power(np.array([0]), np.array([[1, 0]]), gains,
                        np.ones(1), sc)
        assert res.powers.p_ue[0, 0] == pytest.approx(sc.p_ue_max, abs=1e-9)
        assert res.powers.p_ue[0, 1] == 0.0
        assert not res.powers.p_uav.any()

    def test_disjoint_cellular_ues_each_hit_cap(self):
        sc = Scenario(n_ues=2, n_subchannels=4,
                      snr_thresholds=SnrThresholds(1.0, 1.0, 1.0),
                      ue_positions=((200.0, 0.0, 0.0),
                                    (-150.0, 80.0, 0.0))).with_positions(0)
        gains = gain_matrices(sc, (100.0, 0.0, 100.0))
        alloc = np.array([[1, 1, 0, 0], [0, 0, 1, 1]])
        res = scp_power(np.array([0, 0]), alloc, gains,
                        np.array([1.0, 2.0]), sc)
        for n in range(2):
            assert res.powers.p_ue[n].sum() == pytest.approx(sc.p_ue_max, abs=1e-9)

    def test_trace_monotone_and_feasible(self):
        sc, gains, beta, alloc, weights = mixed_instance()
        res = scp_power(beta, alloc, gains, weights, sc)
        trace = np.array(res.trace)
        assert np.all(np.diff(trace) >= -1e-9 * np.maximum(1.0, np.abs(trace[:-1])))
        assert res.converged and not res.dropped
        prob = PowerProblem(beta, res.alloc, gains, weights, sc)
        x = prob.pack(res.powers)
        assert prob.feasible_set().linear_violation(x) <= 1e-9
        assert np.all(x - prob.qos_floors() >= -1e-12)
        assert res.objective == pytest.approx(prob.true_objective(x), rel=1e-12)

    def test_weight_scaling_leaves_argmax_unchanged(self):
        sc, gains, beta, alloc, weights = mixed_instance()
        res_a = scp_power(beta, alloc, gains, weights, sc)
        res_b = scp_power(beta, alloc, gains, 7.3 * weights, sc)
        np.testing.assert_allclose(res_a.powers.p_ue, res_b.powers.p_ue,
                                   rtol=1e-6, atol=1e-12)
        np.testing.assert_allclose(res_a.powers.p_uav, res_b.powers.p_uav,
                                   rtol=1e-6, atol=1e-12)

    def test_feasible_init_is_the_starting_point(self):
        sc, gains, beta, alloc, weights = mixed_instance()
        _, restored, _ = restore_feasible(beta, alloc, gains, weights, sc)
        init = restored.copy()
        init.p_ue *= 0.9
        init.p_uav *= 0.9
        prob = PowerProblem(beta, alloc, gains, weights, sc)
        start_obj = prob.true_objective(prob.pack(init))
        res = scp_power(beta, alloc, gains, weights, sc, init=init)
        assert res.trace[0] == pytest.approx(start_obj, rel=1e-12)
        assert res.objective >= start_obj - 1e-12

    def test_infeasible_init_is_repaired(self):
        sc, gains, beta, alloc, weights = mixed_instance()
        bad = PowerAllocation(np.full(alloc.shape, 2 * sc.p_ue_max) * alloc,
                              np.zeros(alloc.shape[1]))
        res = scp_power(beta, alloc, gains, weights, sc, init=bad)
        prob = PowerProblem(beta, res.alloc, gains, weights, sc)
        assert prob.feasible_set().linear_violation(prob.pack(res.powers)) <= 1e-9
        assert res.converged

    def test_empty_allocation(self):
        sc = Scenario(n_ues=2, n_subchannels=4).with_positions(0)
        gains = gain_matrices(sc, (100.0, 0.0, 120.0))
        res = scp_power(np.zeros(2, dtype=int), np.zeros((2, 4), dtype=int),
                        gains, np.ones(2), sc)
        assert res.objective == 0.0
        assert not res.powers.p_ue.any() and not res.powers.p_uav.any()


class TestRestoration:
    def test_ue_floor_overflow_sheds_whole_ue(self):
        sc = Scenario(n_ues=2, n_subchannels=4,
                      p_ue_max=dbm_to_watts(17.0),
                      snr_thresholds=SnrThresholds(3000.0, 3.0, 3.0),
                      ue_positions=((420.0, 0.0, 0.0),
                                    (60.0, 10.0, 0.0))).with_positions(0)
        gains = gain_matrices(sc, (150.0, 0.0, 120.0))
        beta = np.array([0, 0])
        alloc = np.array([[1, 1, 1, 0], [0, 0, 0, 1]])
        # every per-channel floor for the far UE exceeds the cap on its own
        floors = 3000.0 * (sc.noise_var + sc.ici_power) / gains.h_ue_bs[0, :3]
        assert floors.min() > sc.p_ue_max
        new_alloc, powers, dropped = restore_feasible(beta, alloc, gains,
                                                      np.ones(2), sc)
        assert sorted(dropped) == [(0, 0), (0, 1), (0, 2)]
        assert not new_alloc[0].any()
        assert new_alloc[1, 3] == 1
        assert powers.p_ue[1].sum() <= sc.p_ue_max * (1 + 1e-9)

    def test_uav_overflow_releases_lowest_utility_assignment(self):
        base = Scenario(n_ues=2, n_subchannels=4,
                        snr_thresholds=SnrThresholds(3.0, 3.0, 3.0),
                        ue_positions=((400.0, 0.0, 0.0),
                                      (380.0, 60.0, 0.0))).with_positions(0)
        gains = gain_matrices(base, (350.0, 20.0, 120.0))
        # scale the backhaul threshold so four floors overflow but three fit
        floor = 3.0 * (base.noise_var + base.ici_power) / gains.h_uav_bs[0]
        sc = Scenario(n_ues=2, n_subchannels=4,
                      snr_thresholds=SnrThresholds(3.0, 3.0, 0.085 / floor * 3.0),
                      ue_positions=base.ue_positions).with_positions(0)
        gains = gain_matrices(sc, (350.0, 20.0, 120.0))
        beta = np.array([1, 1])
        alloc = np.array([[1, 1, 0, 0], [0, 0, 1, 1]])
        weights = np.array([1.0, 3.0])
        new_alloc, powers, dropped = restore_feasible(beta, alloc, gains,
                                                      weights, sc)
        assert len(dropped) == 1
        assert dropped[0][0] == 0  # the low-weight UE loses a channel
        assert powers.p_uav.sum() <= sc.p_uav_max * (1 + 1e-9)
        assert new_alloc.sum() == 3

    def test_restored_start_meets_floors(self):
        sc, gains, beta, alloc, weights = mixed_instance()
        new_alloc, powers, dropped = restore_feasible(beta, alloc, gains,
                                                      weights, sc)
        assert not dropped
        prob = PowerProblem(beta, new_alloc, gains, weights, sc)
        x = prob.pack(powers)
        assert np.all(x >= prob.qos_floors())
        assert prob.feasible_set().linear_violation(x) <= 1e-9
