import itertools
import math
from dataclasses import fields, replace
from functools import cached_property

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from uavrelay import link_rate as lr
from uavrelay import matching as mt
from uavrelay import orchestrator
from uavrelay.channel import ChannelGains, gain_matrices
from uavrelay.scenario import Scenario, SnrThresholds, dbm_to_watts

SIGMA2 = dbm_to_watts(-96.0)
ICI = dbm_to_watts(-110.0)


def synth_context(h_ue_bs, h_ue_uav, h_uav_bs, weights=None, thresholds=None,
                  p_ue_max=dbm_to_watts(17.0), p_uav_max=0.3):
    gains = ChannelGains(np.asarray(h_ue_bs, dtype=float),
                         np.asarray(h_ue_uav, dtype=float),
                         np.asarray(h_uav_bs, dtype=float))
    n, k = gains.h_ue_bs.shape
    sc = Scenario(n_ues=n, n_subchannels=k, noise_var=SIGMA2, ici_power=ICI,
                  snr_thresholds=thresholds or SnrThresholds(),
                  p_ue_max=p_ue_max, p_uav_max=p_uav_max)
    return mt.MatchingContext(
        sc, gains, np.ones(n) if weights is None else np.asarray(weights, dtype=float))


def scored_modes(ctx):
    """The scored start's modes: relay where the UE's QoS-feasible
    full-budget utility sums higher."""
    return ctx.starts[0][0]


def random_context(seed, n_ues=2, n_sub=2, thresholds=None):
    """Random positive gains with per-subchannel variation."""
    rng = np.random.default_rng(seed)
    return synth_context(
        h_ue_bs=rng.uniform(0.5e-9, 8e-9, (n_ues, n_sub)),
        h_ue_uav=rng.uniform(0.5e-8, 8e-8, (n_ues, n_sub)),
        h_uav_bs=rng.uniform(0.5e-8, 8e-8, n_sub),
        thresholds=thresholds or SnrThresholds(direct=5.0, ue_uav=5.0, uav_bs=5.0),
    )


def score_rows(ctx, ues, relay, ue_power, uav_power):
    """Weighted rate and QoS verdict of UE `ues[i]` in mode `relay[i]` on
    every subchannel, one row per entry, from one link-budget call over
    both modes: the reference the package's one-mode tables are held to.
    `relay`, `ue_power` and `uav_power` (the relay's power per relayed
    subchannel) are one value per row, or one for all."""
    g, sc = ctx.gains, ctx.scenario

    def column(a, dtype=float):
        return np.asarray(a, dtype=dtype).reshape(-1, 1)

    link = lr.LinkBudget(column(relay, bool), column(ue_power), column(uav_power),
                         g.h_ue_bs[ues], g.h_ue_uav[ues], g.h_uav_bs,
                         sc.snr_thresholds, sc.noise_var, sc.ici_power)
    return ctx.weights[ues, None] * link.rate, link.feasible()


def view_of(beta, alloc, ctx):
    """The `GameView` of the matching `(beta, alloc)` under its equal
    split, every UE scored in one call."""
    sc = ctx.scenario
    relay = np.asarray(beta) == mt.RELAY
    relay_total = int(alloc[relay].sum())
    uav_power = sc.p_uav_max / relay_total if relay_total else 0.0
    utility, feasible = score_rows(ctx, np.arange(ctx.n_ues), relay,
                                   sc.p_ue_max / np.maximum(alloc.sum(axis=1), 1), uav_power)
    k_sub = ctx.n_subchannels
    return mt.GameView(np.asarray(beta), np.where(alloc.any(axis=0), alloc.argmax(axis=0), -1),
                       np.vstack([utility, np.zeros(k_sub)]),
                       np.vstack([feasible, np.ones(k_sub, dtype=bool)]))


def own(view):
    """Utility and QoS verdict of each subchannel's owner there."""
    k = np.arange(view.owner.size)
    return view.utility[view.owner, k], view.feasible[view.owner, k]


def view_assignment(view):
    """The view's matching as `(beta, alloc)`."""
    return mt.assignment(view.modes, view.owner)


def row(ctx, ue, mode, ue_power=None, uav_power=None):
    """(utility, feasible) of one UE in one mode over every subchannel,
    full budgets by default."""
    sc = ctx.scenario
    utility, feasible = score_rows(
        ctx, [ue], [mode == mt.RELAY], sc.p_ue_max if ue_power is None else ue_power,
        sc.p_uav_max if uav_power is None else uav_power)
    return utility[0], feasible[0]


def direct_rate(p, h):
    return 0.5 * np.log2(1 + p * h / SIGMA2) + 0.5 * np.log2(1 + p * h / (SIGMA2 + ICI))


def relayed_rate(p_ue, p_uav, h_ue_uav, h_uav_bs):
    g1, g2 = p_ue * h_ue_uav / SIGMA2, p_uav * h_uav_bs / (SIGMA2 + ICI)
    return 0.5 * np.log2(1 + g1 * g2 / (g1 + g2 + 1))


def holding(n_ues, owner):
    """(N, K) allocation of a per-subchannel owner list, -1 for vacant."""
    return (np.asarray(owner) == np.arange(n_ues)[:, None]).astype(int)


def msma(beta, alloc, ctx):
    """The swap game run from the matching `(beta, alloc)`."""
    return mt.msma_detailed(view_of(beta, alloc, ctx))


def swap_approvals(u, ok, owner):
    """(K, K) mask, true at (k1, k2), k1 < k2, where exchanging the
    owners of k1 and k2 is approved, from the owner table: row j of
    `u`/`ok` scores the owner of subchannel j (`owner[j]`, -1 for vacant)
    on every subchannel, as `GameView.utility[owner]` does.  The one-pass
    array form of the approval test that `msma_detailed` prefilters and
    then finishes on floats.

    Approved iff no involved player (either subchannel, either UE) loses
    utility, at least one real UE strictly gains, the two owners differ,
    and the swapped matching stays feasible: QoS on the two re-assigned
    subchannels."""
    own = np.diagonal(u)
    u11, u22, u12, u21 = own[:, None], own[None, :], u, u.T
    real = owner >= 0
    # no involved player loses: subchannels k1, k2, then UEs n1, n2
    approved = ~((u21 < u11) | (u12 < u22) | (u12 < u11) | (u21 < u22))
    # some real UE strictly gains
    approved &= (real[:, None] & (u12 > u11)) | (real[None, :] & (u21 > u22))
    # QoS on both re-assigned subchannels, and two distinct owners
    approved &= ok & ok.T
    approved &= owner[:, None] != owner[None, :]
    return np.triu(approved, 1)


def mask_msma(view):
    """The swap game driven by the whole approval mask, rebuilt after
    every swap: the reference the prefiltered scan is held to."""
    owner = view.owner.copy()
    u, ok = view.utility[owner], view.feasible[owner]
    n_swaps, examined_per_round, n_sub = 0, [], owner.size
    changed = True
    while changed:
        changed = False
        at = 0
        while True:
            hits = np.flatnonzero(swap_approvals(u, ok, owner).ravel()[at:])
            if not hits.size:
                break
            at += int(hits[0])
            k1, k2 = divmod(at, n_sub)
            for a in (u, ok, owner):
                a[[k1, k2]] = a[[k2, k1]]
            n_swaps += 1
            changed = True
            at += 1
        examined_per_round.append(n_sub * (n_sub - 1) // 2)
    return mt.MsmaResult(*mt.assignment(view.modes, owner), n_swaps, examined_per_round)


def approvals(view):
    """The swap-approval mask of the view's own matching."""
    o = view.owner
    return swap_approvals(view.utility[o], view.feasible[o], o)


# ---------------------------------------------------------------------------
# The exhaustive oracle: every pairwise-stable matching of a small game.

def matching_feasible(beta, alloc, ctx):
    """Per-assignment QoS under the matching's own equal-split powers.
    Power caps hold by construction of the split."""
    return bool(own(view_of(beta, alloc, ctx))[1].all())


def is_pairwise_stable(beta, alloc, ctx):
    return not approvals(view_of(beta, alloc, ctx)).any()


def brute_force_stable(ctx):
    """All pairwise-stable `(beta, alloc)` matchings, enumerated over
    per-UE modes and per-subchannel owners: one mode per UE by
    construction.  A UE that holds nothing is listed once, as cellular.
    A candidate must be QoS-feasible under its own equal-split powers;
    stability reuses the approval mask the algorithm runs."""
    n, k = ctx.n_ues, ctx.n_subchannels
    if 2 ** n * (n + 1) ** k > 100_000:
        raise ValueError("instance too large for brute force")
    stable = []
    for modes in itertools.product((mt.CELLULAR, mt.RELAY), repeat=n):
        for owner in itertools.product(range(-1, n), repeat=k):
            alloc = holding(n, owner)
            beta = np.array(modes)
            if (beta[~alloc.any(axis=1)] != mt.CELLULAR).any():
                continue
            if matching_feasible(beta, alloc, ctx) and is_pairwise_stable(beta, alloc, ctx):
                stable.append((beta, alloc))
    return stable


class TestSubchannelUtility:
    def test_zero_weight(self):
        ctx = random_context(0)
        zero = synth_context(ctx.gains.h_ue_bs, ctx.gains.h_ue_uav, ctx.gains.h_uav_bs,
                             weights=[0.0, 1.0])
        assert not row(zero, 0, mt.RELAY)[0].any()

    def test_cellular_matches_direct_rate(self):
        ctx = random_context(1)
        u, _ = row(ctx, 0, mt.CELLULAR, ue_power=0.02)
        expect = ctx.weights[0] * direct_rate(0.02, ctx.gains.h_ue_bs[0])
        np.testing.assert_allclose(u, expect, rtol=1e-12)

    def test_relay_matches_relayed_rate(self):
        ctx = random_context(2)
        u, _ = row(ctx, 1, mt.RELAY, ue_power=0.03, uav_power=0.1)
        expect = relayed_rate(0.03, 0.1, ctx.gains.h_ue_uav[1], ctx.gains.h_uav_bs)
        np.testing.assert_allclose(u, ctx.weights[1] * expect, rtol=1e-12)

    def test_rows_score_each_pair_at_its_own_power(self):
        ctx = random_context(3, n_ues=3, n_sub=5)
        pairs = [(2, mt.RELAY), (0, mt.CELLULAR), (2, mt.CELLULAR)]
        powers = [0.01, 0.02, 0.005]
        utility, feasible = score_rows(ctx, [ue for ue, _ in pairs],
                                       [m == mt.RELAY for _, m in pairs], powers, 0.07)
        for (ue, mode), p, u, ok in zip(pairs, powers, utility, feasible):
            u1, ok1 = row(ctx, ue, mode, p, 0.07)
            np.testing.assert_array_equal(u, u1)
            np.testing.assert_array_equal(ok, ok1)


class TestMcPairUtility:
    """A matching's utility under its equal split, as `view_of` scores it."""

    def test_empty_set(self):
        ctx = random_context(3)
        alloc = np.zeros((ctx.n_ues, ctx.n_subchannels), dtype=int)
        assert own(view_of(np.zeros(ctx.n_ues, dtype=int), alloc, ctx))[0].sum() == 0.0

    def test_singleton(self):
        ctx = random_context(4)
        alloc = holding(2, [-1, 1])
        # alone on its subchannel, the UE holds the full budget
        view = view_of(np.zeros(2, dtype=int), alloc, ctx)
        assert own(view)[0].sum() == row(ctx, 1, mt.CELLULAR)[0][1]

    def test_additive_over_disjoint_sets(self):
        ctx = random_context(5, n_ues=2, n_sub=6)
        left, right = [0, 2, 4], [1, 5]
        alloc = holding(2, [0 if k in left + right else -1 for k in range(6)])
        view = view_of(np.array([mt.RELAY, mt.CELLULAR]), alloc, ctx)
        sc = ctx.scenario
        u, _ = row(ctx, 0, mt.RELAY, sc.p_ue_max / 5, sc.p_uav_max / 5)
        assert own(view)[0].sum() == pytest.approx(
            sum(u[k] for k in left) + sum(u[k] for k in right), rel=1e-12)


class TestInitMatching:
    def test_infeasible_everywhere_gives_all_vacant(self):
        ctx = random_context(6)
        starved = replace(ctx, scenario=replace(ctx.scenario, p_ue_max=1e-15,
                                                p_uav_max=1e-15))
        for modes in (np.zeros(2, dtype=int), np.ones(2, dtype=int)):
            beta, alloc = view_assignment(mt.init_matching(starved, modes))
            assert not alloc.any() and not beta.any()

    def test_single_ue_single_channel_prefers_better_mode(self):
        # UE far from the BS, relay high overhead: both modes feasible at
        # the softened thresholds, relayed path clearly faster
        s = Scenario(n_ues=1, n_subchannels=1,
                     ue_positions=((400.0, 0.0, 0.0),),
                     subchannel_freqs=(1e9,),
                     p_ue_max=dbm_to_watts(17.0),
                     snr_thresholds=SnrThresholds(5.0, 5.0, 5.0))
        gains = gain_matrices(s, (400.0, 0.0, 300.0))
        ctx = mt.MatchingContext(s, gains, np.ones(1))
        r_relay, ok_relay = row(ctx, 0, mt.RELAY)
        r_cell, ok_cell = row(ctx, 0, mt.CELLULAR)
        assert ok_cell[0] and ok_relay[0]
        assert r_relay[0] > r_cell[0]
        beta, alloc = view_assignment(mt.init_matching(ctx, scored_modes(ctx)))
        assert beta.tolist() == [mt.RELAY] and alloc.tolist() == [[1]]

    def test_random_instances_feasible_and_consistent(self):
        for seed in range(30):
            ctx = random_context(seed, n_ues=2, n_sub=2)
            beta, alloc = view_assignment(mt.init_matching(ctx, scored_modes(ctx)))
            assert matching_feasible(beta, alloc, ctx)

    def test_larger_instances_feasible_and_consistent(self):
        for seed in range(10):
            ctx = random_context(100 + seed, n_ues=5, n_sub=10)
            beta, alloc = view_assignment(mt.init_matching(ctx, scored_modes(ctx)))
            assert matching_feasible(beta, alloc, ctx)


def crossing_context():
    """Two cellular UEs whose best subchannels are crossed relative to the
    start matching, so the exchange helps both."""
    h = np.array([[8e-9, 1e-9],
                  [1e-9, 8e-9]])
    ctx = synth_context(h_ue_bs=h,
                        h_ue_uav=np.full((2, 2), 1e-12),
                        h_uav_bs=np.full(2, 1e-12),
                        thresholds=SnrThresholds(direct=1.0, ue_uav=1.0, uav_bs=1.0))
    return ctx, np.zeros(2, dtype=int), holding(2, [1, 0])


def swap_approved(beta, alloc, k1, k2, ctx):
    return bool(approvals(view_of(beta, alloc, ctx))[k1, k2])


# ---------------------------------------------------------------------------
# The swap game written out one subchannel pair at a time: the reference
# the array-form mask and scan are held to.

def scalar_lookups(view):
    """(utility, feasible) of one UE on one subchannel, read from the
    view's table; a vacant subchannel (owner -1) scores 0 and is always
    feasible."""
    def utility(n, k):
        return 0.0 if n < 0 else float(view.utility[n, k])

    def feasible(n, k):
        return True if n < 0 else bool(view.feasible[n, k])

    return utility, feasible


def scalar_approved(owner, k1, k2, utility, feasible):
    n1, n2 = owner[k1], owner[k2]
    if n1 == n2:
        return False
    u11, u12 = utility(n1, k1), utility(n1, k2)
    u22, u21 = utility(n2, k2), utility(n2, k1)
    if u21 < u11 or u12 < u22 or u12 < u11 or u21 < u22:
        return False
    if not ((n1 >= 0 and u12 > u11) or (n2 >= 0 and u21 > u22)):
        return False
    return feasible(n1, k2) and feasible(n2, k1)


def scalar_msma(beta, alloc, ctx):
    """Rounds of ascending (k1, k2) scans, the first approved swap executing
    at once; returns the result and the swaps executed in each round."""
    owner = [int(np.flatnonzero(col)[0]) if col.any() else -1 for col in alloc.T]
    utility, feasible = scalar_lookups(view_of(beta, alloc, ctx))
    examined, swaps_per_round = [], []
    n_sub = len(owner)
    while not swaps_per_round or swaps_per_round[-1]:
        visited = swaps = 0
        for k1 in range(n_sub):
            for k2 in range(k1 + 1, n_sub):
                visited += 1
                if scalar_approved(owner, k1, k2, utility, feasible):
                    owner[k1], owner[k2] = owner[k2], owner[k1]
                    swaps += 1
        examined.append(visited)
        swaps_per_round.append(swaps)
    out_alloc = holding(len(beta), owner)
    out_beta = np.where(out_alloc.any(axis=1), beta, 0)
    return (mt.MsmaResult(out_beta, out_alloc, sum(swaps_per_round), examined),
            swaps_per_round)


LEVELS = (1e-9, 2e-9, 4e-9, 8e-9)


def random_game(rng, n, k, threshold=5.0):
    """A context with gains drawn from few levels, so that utilities tie,
    and a start with modes mixed across UEs and vacancies; UEs that hold
    nothing keep their drawn mode in `beta`."""
    ctx = synth_context(h_ue_bs=rng.choice(LEVELS, (n, k)),
                        h_ue_uav=10 * rng.choice(LEVELS, (n, k)),
                        h_uav_bs=10 * rng.choice(LEVELS, k),
                        thresholds=SnrThresholds(threshold, threshold, threshold))
    modes = rng.integers(0, 2, n)
    return ctx, modes, holding(n, rng.integers(-1, n, k))


@st.composite
def small_games(draw):
    """`random_game` with N <= 4 UEs and K <= 8 subchannels."""
    return random_game(np.random.default_rng(draw(st.integers(0, 2**32 - 1))),
                       draw(st.integers(1, 4)), draw(st.integers(1, 8)),
                       draw(st.sampled_from((1.0, 5.0, 200.0))))


def assert_scan_matches_scalar(ctx, beta, alloc):
    res = msma(beta, alloc, ctx)
    ref, _ = scalar_msma(beta, alloc, ctx)
    np.testing.assert_array_equal(res.beta, ref.beta)
    np.testing.assert_array_equal(res.alloc, ref.alloc)
    assert res.n_swaps == ref.n_swaps
    assert res.examined_per_round == ref.examined_per_round
    return res


class TestScalarEquivalence:
    @given(small_games())
    @settings(max_examples=150, deadline=None)
    def test_mask_matches_scalar_predicate(self, game):
        ctx, beta, alloc = game
        view = view_of(beta, alloc, ctx)
        mask = approvals(view)
        utility, feasible = scalar_lookups(view)
        owner = [int(np.flatnonzero(col)[0]) if col.any() else -1 for col in alloc.T]
        n_sub = len(owner)
        expect = np.zeros((n_sub, n_sub), dtype=bool)
        for k1 in range(n_sub):
            for k2 in range(k1 + 1, n_sub):
                expect[k1, k2] = scalar_approved(owner, k1, k2, utility, feasible)
        np.testing.assert_array_equal(mask, expect)

    @given(small_games())
    @settings(max_examples=150, deadline=None)
    def test_scan_matches_scalar_scan(self, game):
        assert_scan_matches_scalar(*game)

    def test_scan_matches_scalar_scan_at_full_size(self):
        # small draws rarely hold two distinct UEs that both gain, so the
        # largest size is also swept over seeds, where many starts swap and
        # the higher floors leave a share of the table infeasible
        swaps = [assert_scan_matches_scalar(*random_game(
            np.random.default_rng(seed), 4, 8,
            threshold=(5.0, 100.0, 200.0, 400.0)[seed % 4])).n_swaps for seed in range(80)]
        assert sum(s > 0 for s in swaps) >= 20 and max(swaps) >= 2


class TestSwapBlocking:
    def test_same_pair_never_blocks(self):
        ctx = random_context(7)
        assert not swap_approved(np.zeros(2, dtype=int), holding(2, [0, 0]), 0, 1, ctx)

    def test_crossed_assignment_blocks(self):
        ctx, beta, alloc = crossing_context()
        assert swap_approved(beta, alloc, 0, 1, ctx)
        before = own(view_of(beta, alloc, ctx))[0].sum()
        after = own(view_of(beta, alloc[:, [1, 0]], ctx))[0].sum()
        assert after > before

    def test_identical_subchannels_rejected(self):
        # a subchannel swapped with itself exchanges nothing
        ctx, beta, alloc = crossing_context()
        assert not swap_approved(beta, alloc, 1, 1, ctx)

    def test_vacancy_rescue_requires_zero_utility(self):
        # a positive-utility assignment may not abandon its subchannel
        ctx, beta, alloc = crossing_context()
        alloc[:, 1] = 0
        assert not swap_approved(beta, alloc, 0, 1, ctx)


class TestMsma:
    def test_stable_input_unchanged(self):
        ctx, beta, alloc = crossing_context()
        stable = alloc[:, [1, 0]]
        res = msma(beta, stable, ctx)
        assert res.n_swaps == 0
        np.testing.assert_array_equal(res.alloc, stable)
        np.testing.assert_array_equal(res.beta, beta)

    def test_executes_profitable_swap(self):
        ctx, beta, alloc = crossing_context()
        res = msma(beta, alloc, ctx)
        assert res.n_swaps == 1
        assert res.alloc.tolist() == [[1, 0], [0, 1]]
        assert res.beta.tolist() == [mt.CELLULAR, mt.CELLULAR]

    def test_output_pairwise_stable_and_gains_positive(self):
        for seed in range(25):
            ctx = random_context(seed, n_ues=3, n_sub=4)
            view = mt.init_matching(ctx, scored_modes(ctx))
            res = mt.msma_detailed(view)
            assert is_pairwise_stable(res.beta, res.alloc, ctx)
            # no player loses and one gains, so every swap raises the sum
            before = own(view)[0].sum()
            after = own(view_of(res.beta, res.alloc, ctx))[0].sum()
            assert after > before or not res.n_swaps

    def test_examined_counter_bounded(self):
        for seed in range(10):
            n, k = 4, 6
            ctx = random_context(seed, n_ues=n, n_sub=k)
            beta, alloc = view_assignment(mt.init_matching(ctx, scored_modes(ctx)))
            alloc[:, ::2] = alloc[:, ::2][:, ::-1]  # give the scan work
            res = msma(beta, alloc, ctx)
            _, swaps_per_round = scalar_msma(beta, alloc, ctx)
            # every round examines each subchannel pair once; every round
            # but the last executes a swap
            assert res.examined_per_round == [k * (k - 1) // 2] * len(res.examined_per_round)
            assert len(res.examined_per_round) == sum(1 for c in swaps_per_round if c) + 1

    def test_projection_shapes(self):
        ctx = random_context(11, n_ues=3, n_sub=5)
        # UE 2 relays but holds nothing, so its mode reads cellular
        res = msma(np.array([0, 1, 1]), holding(3, [0, 1, -1, 1, 0]), ctx)
        assert res.beta.shape == (3,) and res.alloc.shape == (3, 5)
        assert set(np.unique(res.alloc)) <= {0, 1}
        assert np.all(res.alloc.sum(axis=0) <= 1)
        assert res.beta.tolist() == [0, 1, 0]


class TestBruteForce:
    def test_minimal_instance_enumeration(self):
        ctx = random_context(12, n_ues=1, n_sub=1)
        stable = brute_force_stable(ctx)
        # 3 candidates exist: vacant, cellular, relay
        assert 1 <= len(stable) <= 3

    def test_size_guard(self):
        ctx = random_context(13, n_ues=5, n_sub=10)
        with pytest.raises(ValueError):
            brute_force_stable(ctx)

    def test_msma_lands_in_stable_set(self):
        for seed in range(25):
            ctx = random_context(seed, n_ues=2, n_sub=2)
            res = mt.msma_detailed(mt.init_matching(ctx, scored_modes(ctx)))
            stable = brute_force_stable(ctx)
            assert stable, "no stable matching found by enumeration"
            assert any(np.array_equal(res.beta, b) and np.array_equal(res.alloc, a)
                       for b, a in stable)


# ---------------------------------------------------------------------------
# The greedy start written out the direct way: the candidates' rows
# rescored per subchannel, and the repair rebuilding the whole view per
# drop.  The reference the table-driven `init_matching` is held to.

def reference_greedy(ctx, modes, columns=None):
    """Owner of each subchannel after the greedy pass; each subchannel's
    candidate values, over every UE, go to `columns` when given."""
    sc = ctx.scenario
    relay = modes == mt.RELAY
    counts = np.zeros(ctx.n_ues, dtype=int)
    relay_total = 0
    # value[k, n]: UE n's utility on subchannel k where it meets QoS, else 0
    value = np.zeros((ctx.n_subchannels, ctx.n_ues))
    owner = np.full(ctx.n_subchannels, -1)
    stale = np.arange(ctx.n_ues)
    for k in range(ctx.n_subchannels):
        if stale.size:
            # rows at the split each UE would hold after one more subchannel
            utility, feasible = score_rows(
                ctx, stale, relay[stale], sc.p_ue_max / (counts[stale] + 1),
                sc.p_uav_max / (relay_total + 1))
            value[:, stale] = np.where(feasible, utility, 0.0).T
        if columns is not None:
            columns.append(value[k].copy())
        n = int(value[k].argmax())
        stale = np.array([], dtype=int)
        if value[k, n] > 0.0:
            owner[k] = n
            counts[n] += 1
            relay_total += int(relay[n])
            stale = np.flatnonzero(relay) if relay[n] else np.array([n])
    return owner


def reference_repair(ctx, modes, owner):
    """Drop the lowest-utility assignment failing QoS until none fails."""
    owner = owner.copy()
    while True:
        beta, alloc = mt.assignment(modes, owner)
        utility_k, feasible_k = own(view_of(beta, alloc, ctx))
        bad = np.flatnonzero(~feasible_k)
        if not bad.size:
            return beta, alloc
        owner[bad[np.argmin(utility_k[bad])]] = -1


def reference_init_matching(ctx, modes):
    modes = np.asarray(modes, dtype=int)
    return reference_repair(ctx, modes, reference_greedy(ctx, modes))


MODE_MIXES = ("cellular", "relay", "mixed")


def greedy_start(seed, n, k, threshold, budget, mix, tied=True):
    """A context of N UEs and K subchannels with UE and relay budgets
    scaled by `budget`, weights that are zero for about a quarter of the
    UEs, and the modes of `mix`; gains come from few levels when `tied`,
    so that utilities tie."""
    rng = np.random.default_rng(seed)

    def draw(shape):
        levels = rng.choice(LEVELS, shape)
        return levels if tied else levels * rng.uniform(0.5, 2.0, shape)

    ctx = synth_context(h_ue_bs=draw((n, k)), h_ue_uav=10 * draw((n, k)),
                        h_uav_bs=10 * draw(k), weights=rng.choice([0.0, 0.5, 1.0, 2.0], n),
                        thresholds=SnrThresholds(threshold, threshold, threshold),
                        p_ue_max=budget * dbm_to_watts(17.0), p_uav_max=budget * 0.3)
    modes = {"cellular": np.zeros(n, dtype=int), "relay": np.ones(n, dtype=int),
             "mixed": rng.integers(0, 2, n)}[mix]
    return ctx, modes


@st.composite
def greedy_starts(draw):
    """`greedy_start` with N <= 6 UEs and K <= 12 subchannels: thresholds
    from loose (every UE reaches all K counts) to past every floor, and
    budgets from starved to ample."""
    return greedy_start(draw(st.integers(0, 2**32 - 1)), draw(st.integers(1, 6)),
                        draw(st.integers(1, 12)), draw(st.sampled_from((1.0, 5.0, 50.0, 200.0))),
                        draw(st.sampled_from((1e-9, 1.0, 1e3))), draw(st.sampled_from(MODE_MIXES)),
                        draw(st.booleans()))


def assert_same_start(ctx, modes):
    beta, alloc = view_assignment(mt.init_matching(ctx, modes))
    ref_beta, ref_alloc = reference_init_matching(ctx, modes)
    assert np.array_equal(beta, ref_beta) and np.array_equal(alloc, ref_alloc)
    return alloc


def count_link_budgets(monkeypatch):
    """The `LinkBudget` evaluations made from here on, one entry each."""
    calls = []
    original = lr.LinkBudget

    def counted(*args):
        calls.append(args)
        return original(*args)

    monkeypatch.setattr(lr, "LinkBudget", counted)
    return calls


def count_relayed_links(monkeypatch):
    """The relayed-row kernel's calls made from here on, one entry each."""
    calls = []
    original = lr.relayed_links

    def counted(*args):
        calls.append(args)
        return original(*args)

    monkeypatch.setattr(lr, "relayed_links", counted)
    return calls


class TestTableGreedyStart:
    @given(greedy_starts())
    @settings(max_examples=300, deadline=None)
    def test_matches_the_reference(self, start):
        assert_same_start(*start)

    @pytest.mark.parametrize("case, args", [
        ("all cellular", (1, 6, 12, 5.0, 1.0, "cellular")),
        ("all relayed", (2, 6, 12, 5.0, 1.0, "relay")),
        ("mixed", (3, 6, 12, 50.0, 1.0, "mixed")),
        ("budgets below every floor", (4, 6, 12, 5.0, 1e-9, "mixed")),
        ("every UE reaches all K counts", (5, 6, 12, 1.0, 1e3, "cellular")),
        ("short reaches", (6, 6, 12, 200.0, 1.0, "cellular")),
    ])
    def test_matches_the_reference_on_named_cases(self, case, args):
        ctx, modes = greedy_start(*args)
        alloc = assert_same_start(ctx, modes)
        sc, n_sub = ctx.scenario, ctx.n_subchannels
        full_reach = [row(ctx, n, mt.CELLULAR, sc.p_ue_max / n_sub)[1].any()
                      for n in range(ctx.n_ues)]
        if case == "budgets below every floor":
            assert not alloc.any()
        elif case == "every UE reaches all K counts":
            assert all(full_reach)
        elif case == "short reaches":
            assert alloc.any() and not any(full_reach)
        else:
            assert alloc.any()
        if case == "all relayed":
            assert (ctx.weights == 0).any()  # zero-weight UEs are never picked
            assert not alloc[ctx.weights == 0].any()

    def test_a_cellular_start_scores_once(self, monkeypatch):
        # the direct rows are built once per slot, whatever the slot's
        # starts and channel states, and a cellular start scores nothing
        # else
        for seed in range(20):
            ctx, modes = greedy_start(seed, 6, 12, (1.0, 50.0, 200.0)[seed % 3],
                                      (1e-9, 1.0)[seed % 2], "cellular")
            calls, kernel = count_link_budgets(monkeypatch), count_relayed_links(monkeypatch)
            mt.init_matching(ctx, modes)
            mt.init_matching(ctx.moved(ctx.gains), modes)
            monkeypatch.undo()
            # one direct link-budget call, over every UE and count
            assert len(calls) == 1 and not calls[0][0] and kernel == []
        slots = []  # per slot: [direct-row builds, greedy starts]
        build, init, slot = mt._direct_rows, orchestrator.init_matching, orchestrator.jmstp_slot

        def counted_build(ctx):
            slots[-1][0] += 1
            return build(ctx)

        def counted_init(ctx, modes):
            slots[-1][1] += 1
            return init(ctx, modes)

        def new_slot(*args):
            slots.append([0, 0])
            return slot(*args)

        monkeypatch.setattr(mt, "_direct_rows", counted_build)
        monkeypatch.setattr(orchestrator, "init_matching", counted_init)
        monkeypatch.setattr(orchestrator, "jmstp_slot", new_slot)
        for seed in range(3):
            orchestrator.run_episode(Scenario(
                n_ues=5, n_subchannels=10, n_slots=10, d_max=25.0, fading_model="mixed",
                rng_seed=seed).with_positions(seed), "jmstp")
        assert all(builds == (starts > 0) for builds, starts in slots)
        assert sum(starts for _, starts in slots) > 2 * sum(builds for builds, _ in slots)

    def test_a_relayed_start_scores_only_its_realized_relayed_rows(self, monkeypatch):
        picked = dropped = 0
        for seed in range(60):
            ctx, modes = greedy_start(seed, 6, 12, (5.0, 50.0, 200.0)[seed % 3], 1.0,
                                      ("relay", "mixed")[seed % 2], tied=False)
            relay = modes == mt.RELAY
            greedy = reference_greedy(ctx, modes)
            picks = int(relay[greedy[greedy >= 0]].sum())
            _, alloc = reference_init_matching(ctx, modes)
            held = int(alloc[relay].sum())
            calls = count_relayed_links(monkeypatch)
            mt.init_matching(ctx, modes)
            monkeypatch.undo()
            # none per relayed pick: the rows held after the greedy pass,
            # then one per relayed drop that leaves the relay in use
            assert len(calls) == (picks > 0) + (picks - held) - (picks > 0 and not held)
            picked += picks > 0
            dropped += picks > held
        assert picked >= 40 and dropped >= 3

    @given(greedy_starts())
    @settings(max_examples=150, deadline=None)
    def test_float_candidates_are_within_an_ulp_of_the_link_budget(self, start):
        # every relayed candidate the greedy pass compares, against
        # `relayed_links` on the same inputs; and, weighted and merged with
        # the subchannel's direct candidates, the floats pick the UE that
        # numpy values pick (first index of the largest positive value)
        ctx, modes = start
        seen = []
        original = lr.relayed_column

        def recorded(ues, weights, p_ue, *rest):
            out = original(ues, weights, p_ue, *rest)
            seen.append(((ues, weights, list(p_ue), *rest), out))  # the pass updates p_ue
            return out

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(lr, "relayed_column", recorded)
            mt.init_matching(ctx, modes)
        assert len(seen) == (ctx.n_subchannels if (modes == mt.RELAY).any() else 0)
        columns = []
        owner = reference_greedy(ctx, modes, columns)
        for k, ((ues, weights, p_ue, p_uav, h_ue_uav, h_uav_bs, floor_ue, floor_uav, sigma2,
                 ici), out) in enumerate(seen):
            pick = lambda xs: np.array([xs[n] for n in ues])
            rate, ok = lr.relayed_links(pick(p_ue), p_uav, pick(h_ue_uav), h_uav_bs,
                                        pick(floor_ue), floor_uav, sigma2, ici)
            exact = np.where(ok, pick(weights) * rate, 0.0)
            for value, e in zip(out, exact.tolist()):
                assert abs(value - e) <= math.ulp(e)
            column = columns[k]
            column[ues] = out
            n = int(column.argmax())
            assert (n if column[n] > 0.0 else -1) == owner[k]

    @given(greedy_starts())
    @settings(max_examples=150, deadline=None)
    def test_the_handed_over_view_plays_like_a_rebuilt_one(self, start):
        ctx, modes = start
        view = mt.init_matching(ctx, modes)
        handed = mt.msma_detailed(view)
        rebuilt = msma(*view_assignment(view), ctx)
        for f in fields(mt.MsmaResult):
            a, b = getattr(handed, f.name), getattr(rebuilt, f.name)
            assert np.array_equal(a, b) if isinstance(a, np.ndarray) else a == b, f.name


class TestPrefilteredScan:
    @given(greedy_starts(), st.randoms(use_true_random=False))
    @settings(max_examples=200, deadline=None)
    def test_matches_the_mask_driven_scan(self, start, rnd):
        # the greedy start's own matching, and its owners shuffled over the
        # subchannels: that keeps every UE's count and the relay total, so
        # the view's rows still score it, and gives the scan swaps to make
        ctx, modes = start
        view = mt.init_matching(ctx, modes)
        shuffled = view.owner.tolist()
        rnd.shuffle(shuffled)
        for owner in (view.owner, np.array(shuffled)):
            game = replace(view, owner=owner)
            res, ref = mt.msma_detailed(game), mask_msma(game)
            for f in fields(mt.MsmaResult):
                a, b = getattr(res, f.name), getattr(ref, f.name)
                assert np.array_equal(a, b) if isinstance(a, np.ndarray) else a == b, f.name


# ---------------------------------------------------------------------------
# The start tables written out as one both-mode link-budget call per
# channel state: the reference the tables gathered from the per-slot direct
# rows are held to.

def reference_full_budget(ctx):
    n, sc = ctx.n_ues, ctx.scenario
    utility, feasible = score_rows(ctx, np.tile(np.arange(n), 2),
                                   np.repeat([False, True], n), sc.p_ue_max, sc.p_uav_max)
    shape = (2, n, ctx.n_subchannels)
    return utility.reshape(shape), feasible.reshape(shape)


def reference_starts(ctx):
    utility, feasible = reference_full_budget(ctx)
    table = np.where(feasible, utility, 0.0)
    score = table.sum(axis=2)
    modes = [np.where(score[mt.RELAY] > score[mt.CELLULAR], mt.RELAY, mt.CELLULAR),
             np.full(ctx.n_ues, mt.CELLULAR)]
    coverage = np.where(feasible[mt.CELLULAR].any(axis=1), mt.CELLULAR, mt.RELAY)
    if coverage.any():
        modes.append(coverage)
    rows = [table[m, np.arange(ctx.n_ues)] for m in modes]
    return [(m, r, r.max(axis=0).sum()) for m, r in zip(modes, rows)]


class TestStartTables:
    @given(greedy_starts(), st.floats(0.25, 4.0))
    @settings(max_examples=100, deadline=None)
    def test_equal_the_one_call_tables_bit_for_bit(self, start, scale):
        ctx, _ = start
        g = ctx.gains

        def assert_equal_tables(c):
            for a, b in zip(c.full_budget, reference_full_budget(c)):
                assert a.dtype == b.dtype and np.array_equal(a, b)
            got, ref = c.starts, reference_starts(c)
            assert len(got) == len(ref)
            for (m, r, ceiling), (m_ref, r_ref, ceiling_ref) in zip(got, ref):
                assert np.array_equal(m, m_ref) and np.array_equal(r, r_ref)
                assert ceiling == ceiling_ref
            m, r, ceiling = c.cellular_start
            assert (np.array_equal(m, ref[1][0]) and np.array_equal(r, ref[1][1])
                    and ceiling == ref[1][2])

        assert_equal_tables(ctx)
        # a UAV move changes only the air gains; the direct rows carry over
        moved = ctx.moved(ChannelGains(g.h_ue_bs, scale * g.h_ue_uav, scale * g.h_uav_bs))
        assert moved.direct is ctx.direct
        assert_equal_tables(moved)

    def test_the_cellular_half_is_built_once_per_slot(self, monkeypatch):
        # one direct table per slot, which every channel state's
        # full-budget table gathers its cellular half from
        slots = []  # per slot: [direct-table builds, the contexts whose full budget is read]
        build, full_budget, slot = (mt._direct_rows, mt.MatchingContext.full_budget.func,
                                    orchestrator.jmstp_slot)

        def counted_build(ctx):
            slots[-1][0] += 1
            return build(ctx)

        def counted_full_budget(ctx):
            slots[-1][1].append(ctx)
            rows = ctx.direct
            with pytest.MonkeyPatch.context() as mp:
                priced = count_link_budgets(mp)
                utility, feasible = full_budget(ctx)
            assert priced == []  # gathered, not priced again
            assert np.array_equal(utility[mt.CELLULAR], rows.utility[rows.first])
            assert np.array_equal(feasible[mt.CELLULAR], rows.feasible[rows.first])
            return utility, feasible

        def new_slot(*args):
            slots.append([0, []])
            return slot(*args)

        monkeypatch.setattr(mt, "_direct_rows", counted_build)
        monkeypatch.setattr(mt.MatchingContext, "full_budget", property(counted_full_budget))
        monkeypatch.setattr(orchestrator, "jmstp_slot", new_slot)
        for seed in range(3):
            orchestrator.run_episode(Scenario(
                n_ues=5, n_subchannels=10, n_slots=10, d_max=25.0, fading_model="mixed",
                rng_seed=seed).with_positions(seed), "jmstp")
        # a context per channel state, each held, so that ids are not reused
        states = [len({id(c) for c in ctxs}) for _, ctxs in slots]
        assert all(builds == (n > 0) for (builds, _), n in zip(slots, states))
        assert sum(states) > 2 * sum(builds for builds, _ in slots)


class TestRandomVerdicts:
    """The random baseline reads only QoS verdicts, from the power floors."""

    @given(greedy_starts())
    @settings(max_examples=150, deadline=None)
    def test_equal_the_full_budget_verdicts_bit_for_bit(self, start):
        ctx, _ = start
        verdicts = orchestrator._qos_verdicts(ctx)
        _, feasible = ctx.full_budget
        assert verdicts.dtype == feasible.dtype and verdicts.shape == feasible.shape
        assert np.array_equal(verdicts, feasible)

    def test_a_random_episode_prices_no_rates(self, monkeypatch):
        built, draws = [], []
        build, full_budget, draw = (mt._direct_rows, mt.MatchingContext.full_budget.func,
                                    orchestrator._random_matching)

        def counted_build(ctx):
            built.append("direct rows")
            return build(ctx)

        def counted_full_budget(ctx):
            built.append("full budget")
            return full_budget(ctx)

        def counted_draw(ctx, rng):
            draws.append(draw(ctx, rng))
            return draws[-1]

        monkeypatch.setattr(mt, "_direct_rows", counted_build)
        monkeypatch.setattr(mt.MatchingContext, "full_budget", property(counted_full_budget))
        monkeypatch.setattr(orchestrator, "_random_matching", counted_draw)
        sc = Scenario(n_ues=5, n_subchannels=10, n_slots=5, d_max=25.0, fading_model="mixed",
                      rng_seed=0).with_positions(0)
        orchestrator.run_episode(sc, "random")
        assert len(draws) == sc.n_slots and any(beta.any() for beta, _ in draws)
        assert built == []
