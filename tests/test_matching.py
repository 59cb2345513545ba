import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from uavrelay import matching as mt
from uavrelay.channel import ChannelGains, gain_matrices
from uavrelay.scenario import Scenario, SnrThresholds, dbm_to_watts

SIGMA2 = dbm_to_watts(-96.0)
ICI = dbm_to_watts(-110.0)


def synth_context(h_ue_bs, h_ue_uav, h_uav_bs, weights=None, thresholds=None,
                  p_ue_max=dbm_to_watts(17.0), p_uav_max=0.3):
    gains = ChannelGains(np.asarray(h_ue_bs, dtype=float),
                         np.asarray(h_ue_uav, dtype=float),
                         np.asarray(h_uav_bs, dtype=float))
    n = gains.h_ue_bs.shape[0]
    return mt.MatchingContext(
        weights=np.ones(n) if weights is None else np.asarray(weights, dtype=float),
        gains=gains,
        sigma2=SIGMA2,
        ici=ICI,
        thresholds=thresholds or SnrThresholds(),
        p_ue_max=p_ue_max,
        p_uav_max=p_uav_max,
    )


def random_context(seed, n_ues=2, n_sub=2, thresholds=None):
    """Random positive gains with per-subchannel variation."""
    rng = np.random.default_rng(seed)
    return synth_context(
        h_ue_bs=rng.uniform(0.5e-9, 8e-9, (n_ues, n_sub)),
        h_ue_uav=rng.uniform(0.5e-8, 8e-8, (n_ues, n_sub)),
        h_uav_bs=rng.uniform(0.5e-8, 8e-8, n_sub),
        thresholds=thresholds or SnrThresholds(direct=5.0, ue_uav=5.0, uav_bs=5.0),
    )


def row(ctx, pair, ue_power=None, uav_power=None):
    """(utility, feasible) of one pair over every subchannel, full budgets
    by default."""
    utility, feasible = mt.score_rows(
        ctx, [pair], ctx.p_ue_max if ue_power is None else ue_power,
        ctx.p_uav_max if uav_power is None else uav_power)
    return utility[0], feasible[0]


def direct_rate(p, h):
    return 0.5 * np.log2(1 + p * h / SIGMA2) + 0.5 * np.log2(1 + p * h / (SIGMA2 + ICI))


def relayed_rate(p_ue, p_uav, h_ue_uav, h_uav_bs):
    g1, g2 = p_ue * h_ue_uav / SIGMA2, p_uav * h_uav_bs / (SIGMA2 + ICI)
    return 0.5 * np.log2(1 + g1 * g2 / (g1 + g2 + 1))


class TestSubchannelUtility:
    def test_zero_weight(self):
        ctx = random_context(0)
        zero = synth_context(ctx.gains.h_ue_bs, ctx.gains.h_ue_uav, ctx.gains.h_uav_bs,
                             weights=[0.0, 1.0])
        assert not row(zero, mt.McPair(0, mt.RELAY))[0].any()

    def test_cellular_matches_direct_rate(self):
        ctx = random_context(1)
        u, _ = row(ctx, mt.McPair(0, mt.CELLULAR), ue_power=0.02)
        expect = ctx.weights[0] * direct_rate(0.02, ctx.gains.h_ue_bs[0])
        np.testing.assert_allclose(u, expect, rtol=1e-12)

    def test_relay_matches_relayed_rate(self):
        ctx = random_context(2)
        u, _ = row(ctx, mt.McPair(1, mt.RELAY), ue_power=0.03, uav_power=0.1)
        expect = relayed_rate(0.03, 0.1, ctx.gains.h_ue_uav[1], ctx.gains.h_uav_bs)
        np.testing.assert_allclose(u, ctx.weights[1] * expect, rtol=1e-12)

    def test_rows_score_each_pair_at_its_own_power(self):
        ctx = random_context(3, n_ues=3, n_sub=5)
        pairs = [mt.McPair(2, mt.RELAY), mt.McPair(0, mt.CELLULAR), mt.McPair(2, mt.CELLULAR)]
        powers = [0.01, 0.02, 0.005]
        utility, feasible = mt.score_rows(ctx, pairs, powers, 0.07)
        for pair, p, u, ok in zip(pairs, powers, utility, feasible):
            u1, ok1 = row(ctx, pair, p, 0.07)
            np.testing.assert_array_equal(u, u1)
            np.testing.assert_array_equal(ok, ok1)


class TestMcPairUtility:
    """A matching's utility under its equal split, as `GameView` scores it."""

    def test_empty_set(self):
        ctx = random_context(3)
        psi = mt.Matching([mt.VACANT] * ctx.n_subchannels)
        assert mt.GameView(psi, ctx).system_utility(psi) == 0.0

    def test_singleton(self):
        ctx = random_context(4)
        pair = mt.McPair(1, mt.CELLULAR)
        psi = mt.Matching([mt.VACANT, pair])
        # alone on its subchannel, the pair holds the full budget
        assert mt.GameView(psi, ctx).system_utility(psi) == row(ctx, pair)[0][1]

    def test_additive_over_disjoint_sets(self):
        ctx = random_context(5, n_ues=2, n_sub=6)
        pair = mt.McPair(0, mt.RELAY)
        left, right = [0, 2, 4], [1, 5]
        psi = mt.Matching([pair if k in left + right else mt.VACANT for k in range(6)])
        view = mt.GameView(psi, ctx)
        u, _ = row(ctx, pair, ctx.p_ue_max / 5, ctx.p_uav_max / 5)
        assert view.system_utility(psi) == pytest.approx(
            sum(u[k] for k in left) + sum(u[k] for k in right), rel=1e-12)


class TestInitMatching:
    def test_infeasible_everywhere_gives_all_vacant(self):
        ctx = random_context(6)
        starved = mt.MatchingContext(**{**ctx.__dict__, "p_ue_max": 1e-15, "p_uav_max": 1e-15})
        psi = mt.init_matching(starved)
        assert all(p is mt.VACANT for p in psi.assign)

    def test_single_ue_single_channel_prefers_better_mode(self):
        # UE far from the BS, relay high overhead: both modes feasible at
        # the softened thresholds, relayed path clearly faster
        s = Scenario(n_ues=1, n_subchannels=1,
                     ue_positions=((400.0, 0.0, 0.0),),
                     subchannel_freqs=(1e9,),
                     p_ue_max=dbm_to_watts(17.0),
                     snr_thresholds=SnrThresholds(5.0, 5.0, 5.0))
        gains = gain_matrices(s, (400.0, 0.0, 300.0))
        ctx = mt.MatchingContext(np.ones(1), gains, s.noise_var, s.ici_power,
                                 s.snr_thresholds, s.p_ue_max, s.p_uav_max)
        r_relay, ok_relay = row(ctx, mt.McPair(0, mt.RELAY))
        r_cell, ok_cell = row(ctx, mt.McPair(0, mt.CELLULAR))
        assert ok_cell[0] and ok_relay[0]
        assert r_relay[0] > r_cell[0]
        psi = mt.init_matching(ctx)
        assert psi.assign == [mt.McPair(0, mt.RELAY)]

    def test_random_instances_feasible_and_consistent(self):
        for seed in range(30):
            ctx = random_context(seed, n_ues=2, n_sub=2)
            psi = mt.init_matching(ctx)
            assert mt.matching_feasible(psi, ctx)

    def test_larger_instances_feasible_and_consistent(self):
        for seed in range(10):
            ctx = random_context(100 + seed, n_ues=5, n_sub=10)
            psi = mt.init_matching(ctx)
            assert mt.matching_feasible(psi, ctx)


def crossing_context():
    """Two cellular UEs whose best subchannels are crossed relative to the
    start matching, so the exchange helps both."""
    h = np.array([[8e-9, 1e-9],
                  [1e-9, 8e-9]])
    ctx = synth_context(h_ue_bs=h,
                        h_ue_uav=np.full((2, 2), 1e-12),
                        h_uav_bs=np.full(2, 1e-12),
                        thresholds=SnrThresholds(direct=1.0, ue_uav=1.0, uav_bs=1.0))
    psi = mt.Matching([mt.McPair(1, mt.CELLULAR), mt.McPair(0, mt.CELLULAR)])
    return ctx, psi


def swap_approved(psi, k1, k2, ctx):
    return bool(mt.swap_approvals(psi, mt.GameView(psi, ctx))[k1, k2])


# ---------------------------------------------------------------------------
# The swap game written out one subchannel pair at a time: the reference
# the array-form mask and scan are held to.

def scalar_lookups(psi, view):
    """(utility, feasible) of one pair on one subchannel, read from the
    view's table; VACANT scores 0 and is always feasible."""
    row = dict(zip(psi.assign, view.rows(psi).tolist()))

    def utility(pair, k):
        return 0.0 if pair is mt.VACANT else float(view.utility[row[pair], k])

    def feasible(pair, k):
        return True if pair is mt.VACANT else bool(view.feasible[row[pair], k])

    return utility, feasible


def scalar_approved(psi, k1, k2, utility, feasible):
    p1, p2 = psi.assign[k1], psi.assign[k2]
    if p1 == p2:
        return False
    u11, u12 = utility(p1, k1), utility(p1, k2)
    u22, u21 = utility(p2, k2), utility(p2, k1)
    if u21 < u11 or u12 < u22 or u12 < u11 or u21 < u22:
        return False
    if not ((p1 is not mt.VACANT and u12 > u11) or (p2 is not mt.VACANT and u21 > u22)):
        return False
    if not (feasible(p1, k2) and feasible(p2, k1)):
        return False
    swapped = psi.swapped(k1, k2)
    for ue in {p.ue for p in (p1, p2) if p is not mt.VACANT}:
        if len({p.mode for p in swapped.assign if p is not mt.VACANT and p.ue == ue}) > 1:
            return False
    return True


def scalar_msma(init, ctx):
    """Rounds of ascending (k1, k2) scans, the first approved swap executing
    at once; returns the result and the swaps executed in each round."""
    psi = init.copy()
    utility, feasible = scalar_lookups(psi, mt.GameView(psi, ctx))
    trace = [sum(utility(p, k) for k, p in enumerate(psi.assign))]
    gains, examined, swaps_per_round = [], [], []
    n_sub = len(psi.assign)
    while not swaps_per_round or swaps_per_round[-1]:
        visited = swaps = 0
        for k1 in range(n_sub):
            for k2 in range(k1 + 1, n_sub):
                visited += 1
                if scalar_approved(psi, k1, k2, utility, feasible):
                    p1, p2 = psi.assign[k1], psi.assign[k2]
                    before = utility(p1, k1) + utility(p2, k2)
                    after = utility(p1, k2) + utility(p2, k1)
                    psi.assign[k1], psi.assign[k2] = p2, p1
                    gains.append(after - before)
                    trace.append(trace[-1] + (after - before))
                    swaps += 1
        examined.append(visited)
        swaps_per_round.append(swaps)
    return mt.MsmaResult(psi, len(gains), gains, trace, examined), swaps_per_round


LEVELS = (1e-9, 2e-9, 4e-9, 8e-9)


def random_game(rng, n, k, threshold=5.0, inconsistent=False):
    """A context with gains drawn from few levels, so that utilities tie,
    and a start with one mode per UE, mixed across UEs, and vacancies;
    `inconsistent` puts UE 0 on the first two subchannels in both modes."""
    ctx = synth_context(h_ue_bs=rng.choice(LEVELS, (n, k)),
                        h_ue_uav=10 * rng.choice(LEVELS, (n, k)),
                        h_uav_bs=10 * rng.choice(LEVELS, k),
                        thresholds=SnrThresholds(threshold, threshold, threshold))
    modes = rng.integers(0, 2, n)
    assign = [mt.VACANT if ue < 0 else mt.McPair(int(ue), int(modes[ue]))
              for ue in rng.integers(-1, n, k)]
    if inconsistent and k >= 2:
        assign[:2] = [mt.McPair(0, mt.CELLULAR), mt.McPair(0, mt.RELAY)]
    return ctx, mt.Matching(assign)


@st.composite
def small_games(draw):
    """`random_game` with N <= 4 UEs and K <= 8 subchannels."""
    return random_game(np.random.default_rng(draw(st.integers(0, 2**32 - 1))),
                       draw(st.integers(1, 4)), draw(st.integers(1, 8)),
                       draw(st.sampled_from((1.0, 5.0, 200.0))), draw(st.booleans()))


def assert_scan_matches_scalar(ctx, psi):
    res = mt.msma_detailed(psi, ctx)
    ref, _ = scalar_msma(psi, ctx)
    assert res.matching == ref.matching
    assert res.n_swaps == ref.n_swaps
    assert res.swap_gains == ref.swap_gains
    assert res.utility_trace == ref.utility_trace
    assert res.examined_per_round == ref.examined_per_round
    return res


class TestScalarEquivalence:
    @given(small_games())
    @settings(max_examples=150, deadline=None)
    def test_mask_matches_scalar_predicate(self, game):
        ctx, psi = game
        view = mt.GameView(psi, ctx)
        mask = mt.swap_approvals(psi, view)
        utility, feasible = scalar_lookups(psi, view)
        n_sub = len(psi.assign)
        expect = np.zeros((n_sub, n_sub), dtype=bool)
        for k1 in range(n_sub):
            for k2 in range(k1 + 1, n_sub):
                expect[k1, k2] = scalar_approved(psi, k1, k2, utility, feasible)
        np.testing.assert_array_equal(mask, expect)

    @given(small_games())
    @settings(max_examples=150, deadline=None)
    def test_scan_matches_scalar_scan(self, game):
        assert_scan_matches_scalar(*game)

    def test_scan_matches_scalar_scan_at_full_size(self):
        # small draws rarely hold two distinct pairs that both gain, so the
        # largest size is also swept over seeds, where many starts swap and
        # the higher floors leave a share of the table infeasible
        swaps = [assert_scan_matches_scalar(*random_game(
            np.random.default_rng(seed), 4, 8, threshold=(5.0, 100.0, 200.0, 400.0)[seed % 4],
            inconsistent=seed % 5 == 0)).n_swaps for seed in range(80)]
        assert sum(s > 0 for s in swaps) >= 20 and max(swaps) >= 2


class TestSwapBlocking:
    def test_same_pair_never_blocks(self):
        ctx = random_context(7)
        pair = mt.McPair(0, mt.CELLULAR)
        psi = mt.Matching([pair, pair])
        assert not swap_approved(psi, 0, 1, ctx)

    def test_crossed_assignment_blocks(self):
        ctx, psi = crossing_context()
        assert swap_approved(psi, 0, 1, ctx)
        assert psi.swapped(0, 1).assign == [mt.McPair(0, mt.CELLULAR),
                                            mt.McPair(1, mt.CELLULAR)]

    def test_mode_inconsistent_result_rejected(self):
        # hand-built inconsistent state: same UE present in both modes;
        # the exchange would keep the inconsistency, so it must be vetoed
        ctx, _ = crossing_context()
        psi = mt.Matching([mt.McPair(0, mt.RELAY), mt.McPair(0, mt.CELLULAR)])
        assert not swap_approved(psi, 0, 1, ctx)

    def test_identical_subchannels_rejected(self):
        # a subchannel swapped with itself exchanges nothing
        ctx, psi = crossing_context()
        assert not swap_approved(psi, 1, 1, ctx)

    def test_vacancy_rescue_requires_zero_utility(self):
        # a positive-utility assignment may not abandon its subchannel
        ctx, psi = crossing_context()
        psi.assign[1] = mt.VACANT
        assert not swap_approved(psi, 0, 1, ctx)


class TestMsma:
    def test_stable_input_unchanged(self):
        ctx, psi = crossing_context()
        stable = psi.swapped(0, 1)
        res = mt.msma_detailed(stable, ctx)
        assert res.n_swaps == 0
        assert res.matching == stable

    def test_executes_profitable_swap(self):
        ctx, psi = crossing_context()
        res = mt.msma_detailed(psi, ctx)
        assert res.n_swaps == 1
        assert res.matching.assign == [mt.McPair(0, mt.CELLULAR), mt.McPair(1, mt.CELLULAR)]

    def test_output_pairwise_stable_and_gains_positive(self):
        for seed in range(25):
            ctx = random_context(seed, n_ues=3, n_sub=4)
            res = mt.msma_detailed(mt.init_matching(ctx), ctx)
            assert mt.is_pairwise_stable(res.matching, ctx)
            assert all(g > 0 for g in res.swap_gains)
            assert res.utility_trace[-1] >= res.utility_trace[0]

    def test_examined_counter_bounded(self):
        for seed in range(10):
            n, k = 4, 6
            ctx = random_context(seed, n_ues=n, n_sub=k)
            start = mt.init_matching(ctx)
            start.assign[::2] = start.assign[::2][::-1]  # give the scan work
            res = mt.msma_detailed(start, ctx)
            _, swaps_per_round = scalar_msma(start, ctx)
            # every round examines each subchannel pair once; every round
            # but the last executes a swap
            assert res.examined_per_round == [k * (k - 1) // 2] * len(res.examined_per_round)
            assert len(res.examined_per_round) == sum(1 for c in swaps_per_round if c) + 1

    def test_projection_shapes(self):
        ctx = random_context(11, n_ues=3, n_sub=5)
        beta, alloc = mt.msma_detailed(mt.init_matching(ctx), ctx).matching.to_beta_alloc(3)
        assert beta.shape == (3,) and alloc.shape == (3, 5)
        assert set(np.unique(alloc)) <= {0, 1}
        assert np.all(alloc.sum(axis=0) <= 1)


class TestBruteForce:
    def test_minimal_instance_enumeration(self):
        ctx = random_context(12, n_ues=1, n_sub=1)
        stable = mt.brute_force_stable(ctx, 1, 1)
        # 3 candidates exist: vacant, cellular, relay
        assert 1 <= len(stable) <= 3

    def test_size_guard(self):
        ctx = random_context(13, n_ues=5, n_sub=10)
        with pytest.raises(ValueError):
            mt.brute_force_stable(ctx, 5, 10)

    def test_msma_lands_in_stable_set(self):
        for seed in range(25):
            ctx = random_context(seed, n_ues=2, n_sub=2)
            res = mt.msma_detailed(mt.init_matching(ctx), ctx)
            stable = mt.brute_force_stable(ctx, 2, 2)
            assert stable, "no stable matching found by enumeration"
            assert any(res.matching == s for s in stable)
