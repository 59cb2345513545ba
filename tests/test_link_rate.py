import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from gradcheck import grad_check
from hypothesis import strategies as st

from uavrelay import link_rate as lr
from uavrelay.channel import ChannelGains, gain_matrices
from uavrelay.orchestrator import SlotSolution, validate_solution
from uavrelay.scenario import Scenario, SnrThresholds, dbm_to_watts

SIGMA2 = dbm_to_watts(-96.0)
ICI = dbm_to_watts(-110.0)
THR = SnrThresholds()

positive_power = st.floats(1e-6, 1.0)
gain = st.floats(1e-12, 1e-4)


# Written-out references for the kernel: the two-phase direct rate and
# the amplify-and-forward end-to-end SINR in its num/den form, with
# c = 1 + I/sigma2 scaling the terms the ICI hits at the BS.

def direct_rate_reference(p, h, sigma2, ici):
    return 0.5 * math.log2(1.0 + p * h / sigma2) + 0.5 * math.log2(1.0 + p * h / (sigma2 + ici))


def af_sinr_reference(p_ue, p_uav, h_ue_uav, h_uav_bs, sigma2, ici):
    c = 1.0 + ici / sigma2
    num = p_uav * p_ue * h_uav_bs * h_ue_uav
    den = sigma2 * (p_uav * h_uav_bs + c * p_ue * h_ue_uav + c * sigma2)
    return num / den


def direct(p, h, ici=ICI, thr=THR):
    """A direct link's budget; the relay gains are never read."""
    return lr.LinkBudget(False, p, 0.0, h, 1.0, 1.0, thr, SIGMA2, ici)


def relayed(p_ue, p_uav, h_ue_uav, h_uav_bs, ici=ICI, thr=THR):
    return lr.LinkBudget(True, p_ue, p_uav, 1.0, h_ue_uav, h_uav_bs, thr, SIGMA2, ici)


def e2e(link):
    g1, g2 = link.snr
    return g1 * g2 / (g1 + g2 + 1.0)


class TestRateCellular:
    def test_zero_power(self):
        assert direct(0.0, 1e-8).rate == 0.0

    def test_no_interference_collapses_phases(self):
        r = direct(0.05, 1e-8, ici=0.0).rate
        assert r == pytest.approx(math.log2(1 + 0.05 * 1e-8 / SIGMA2), rel=1e-12)

    def test_reference_point(self):
        # frozen from an arbitrary-precision evaluation of the same formula
        assert direct(0.05, 1e-8).rate == pytest.approx(10.931519691438141, rel=1e-12)

    @given(positive_power, gain)
    @settings(max_examples=50, deadline=None)
    def test_monotone_in_power(self, p, h):
        assert direct(2 * p, h).rate > direct(p, h).rate


class TestRelaySinrs:
    def test_reference_point(self):
        link = relayed(0.05, 0.03, 1e-7, 1e-8)
        assert link.snr[0] == pytest.approx(19905.358527674863, rel=1e-12)
        assert e2e(link) == pytest.approx(1085.8821150995708, rel=1e-12)

    def test_large_uav_power_no_ici_approaches_hop1(self):
        link = relayed(0.05, 1e9, 1e-7, 1e-8, ici=0.0)
        assert e2e(link) == pytest.approx(link.snr[0], rel=1e-6)

    @given(positive_power, positive_power, gain, gain)
    @settings(max_examples=100, deadline=None)
    def test_end_to_end_below_hop1(self, p_ue, p_uav, h_uu, h_ub):
        link = relayed(p_ue, p_uav, h_uu, h_ub)
        assert e2e(link) < link.snr[0]


class TestRateRelay:
    def test_zero(self):
        assert relayed(0.0, 0.0, 1e-7, 1e-8).rate == 0.0

    def test_three(self):
        # equal hop SNRs g with g^2 / (2g + 1) = 3: one bit over half a slot
        g = 3.0 + math.sqrt(12.0)
        link = relayed(g * SIGMA2, g * SIGMA2, 1.0, 1.0, ici=0.0)
        assert link.rate == pytest.approx(1.0, rel=1e-12)

    def test_reference_point(self):
        assert relayed(0.05, 0.03, 1e-7, 1e-8).rate == pytest.approx(
            5.042989878298363, rel=1e-12)

    @given(positive_power, positive_power, gain, gain)
    @settings(max_examples=50, deadline=None)
    def test_min_form_collapses_to_second_hop(self, p_ue, p_uav, h_uu, h_ub):
        link = relayed(p_ue, p_uav, h_uu, h_ub)
        direct_min = 0.5 * min(math.log2(1 + link.snr[0]), math.log2(1 + e2e(link)))
        assert link.rate == pytest.approx(direct_min, rel=1e-12)

    @given(positive_power, positive_power, gain, gain)
    @settings(max_examples=50, deadline=None)
    def test_hop1_bottleneck_bound(self, p_ue, p_uav, h_uu, h_ub):
        link = relayed(p_ue, p_uav, h_uu, h_ub)
        assert link.rate <= 0.5 * math.log2(1 + link.snr[0])
        assert link.rate <= 0.5 * math.log2(1 + link.snr[1])


def _slot(beta, alloc, p_ue, p_uav):
    """A slot of a small scenario with the UAV hovering, its stored rates
    and objective recomputed, ready for the validator."""
    sc = Scenario(n_ues=2, n_subchannels=3, p_ue_max=1.0,
                  ue_positions=((60.0, 0.0, 0.0), (-80.0, 30.0, 0.0)),
                  snr_thresholds=SnrThresholds(3.0, 3.0, 3.0)).with_positions(0)
    pos = np.array([0.0, 0.0, 100.0])
    gains = gain_matrices(sc, pos, 0)
    powers = lr.PowerAllocation(np.asarray(p_ue, dtype=float), np.asarray(p_uav, dtype=float))
    weights = np.ones(2)
    rep = lr.rate_report(beta, alloc, powers, gains, weights, sc)
    sol = SlotSolution(np.asarray(beta), np.asarray(alloc), powers, pos, pos.copy(),
                       rep.per_ue_rate, weights, rep.objective, 1)
    return sc, gains, sol


def _funded_slot(scale=1.0 + 1e-6):
    """UE 0 direct on subchannel 0, UE 1 relayed on subchannel 1, both
    funded just above their floors; subchannel 2 stays vacant."""
    beta = np.array([0, 1])
    alloc = np.array([[1, 0, 0], [0, 1, 0]])
    sc, gains, _ = _slot(beta, alloc, np.zeros((2, 3)), np.zeros(3))
    floor_ue, floor_uav = lr.LinkBudget(
        beta[:, None] == 1, 0.0, 0.0, gains.h_ue_bs, gains.h_ue_uav, gains.h_uav_bs,
        sc.snr_thresholds, sc.noise_var, sc.ici_power).floors()
    return _slot(beta, alloc, scale * floor_ue * alloc, scale * floor_uav[1] * alloc[1])


class TestQos:
    thr = SnrThresholds()

    def test_margins_read_each_hops_threshold(self):
        # distinct thresholds, so each hop shows which one it read
        thr = SnrThresholds(direct=300.0, ue_uav=40.0, uav_bs=70.0)
        link = lr.LinkBudget(np.array([True, False]), 0.05, 0.03, 1e-8, 1e-7, 1e-8,
                             thr, SIGMA2, ICI)
        (relay1, direct1), (relay2, direct2) = link.margins()
        (g1, _), (g2, g2_direct) = link.snr
        assert (relay1, relay2) == (g1 / 40.0 - 1.0, g2 / 70.0 - 1.0)
        # a direct link's interfered phase binds; its clean phase reads inf
        assert (direct1, direct2) == (math.inf, g2_direct / 300.0 - 1.0)

    def test_unoccupied_passes(self):
        # vacant and unassigned entries carry no power, so as links they
        # would miss their floors; the audit never asks them to
        sc, gains, sol = _funded_slot()
        assert validate_solution(sol, sc) == []
        link = lr.LinkBudget(sol.beta[:, None] == 1, sol.powers.p_ue, sol.powers.p_uav,
                             gains.h_ue_bs, gains.h_ue_uav, gains.h_uav_bs,
                             sc.snr_thresholds, sc.noise_var, sc.ici_power)
        assert np.array_equal(link.feasible(), sol.alloc == 1)

    def test_cellular_boundary_inclusive(self):
        h = 1e-8
        p = 300.0 * SIGMA2 / h  # exactly at threshold with no interference
        assert direct(p, h, ici=0.0).feasible()
        assert not direct(p * (1 - 1e-9), h, ici=0.0).feasible()

    def test_cellular_interfered_phase_binds(self):
        h = 1e-8
        p = 300.0 * SIGMA2 / h
        # meets the clean phase exactly, fails the interfered one
        link = direct(p, h)
        assert link.snr[0] == pytest.approx(300.0, rel=1e-12)
        assert link.snr[1] < 300.0
        assert not link.feasible()

    def test_relay_second_hop_binds(self):
        p_ue, h_uu, h_ub = 0.05, 1e-7, 1e-8
        assert relayed(p_ue, 0.03, h_uu, h_ub).feasible()
        assert not relayed(p_ue, 1e-9, h_uu, h_ub).feasible()

    def test_min_power_helpers_sit_on_boundary(self):
        h = 3e-9
        p = direct(0.0, h).floors()[0]
        assert direct(p, h).feasible()
        assert not direct(p * (1 - 1e-9), h).feasible()
        pu, pv = relayed(0.0, 0.0, 1e-7, 1e-8).floors()
        assert relayed(pu, pv, 1e-7, 1e-8).feasible()
        assert not relayed(pu * (1 - 1e-9), pv, 1e-7, 1e-8).feasible()
        assert not relayed(pu, pv * (1 - 1e-9), 1e-7, 1e-8).feasible()


def _tiny_setup():
    n, k = 3, 4
    rng = np.random.default_rng(11)
    gains = ChannelGains(
        h_ue_bs=rng.uniform(1e-9, 1e-8, (n, k)),
        h_ue_uav=rng.uniform(1e-8, 1e-7, (n, k)),
        h_uav_bs=rng.uniform(1e-8, 1e-7, k),
    )
    alloc = np.array([[1, 0, 0, 1], [0, 1, 0, 0], [0, 0, 1, 0]])
    beta = np.array([1, 0, 1])
    powers = lr.PowerAllocation(
        p_ue=np.where(alloc, 0.01, 0.0),
        p_uav=np.array([0.05, 0.0, 0.1, 0.05]),
    )
    return beta, alloc, powers, gains


SC = Scenario()  # noise SIGMA2, ICI and the default thresholds


class TestUeRate:
    def test_no_assignment_is_zero(self):
        beta, alloc, powers, gains = _tiny_setup()
        alloc[0] = 0
        rep = lr.rate_report(beta, alloc, powers, gains, np.ones(3), SC)
        assert rep.per_ue_rate[0] == 0.0

    def test_single_cellular_subchannel(self):
        beta, alloc, powers, gains = _tiny_setup()
        r = lr.rate_report(beta, alloc, powers, gains, np.ones(3), SC).per_ue_rate[1]
        expect = direct_rate_reference(powers.p_ue[1, 1], gains.h_ue_bs[1, 1], SIGMA2, ICI)
        assert r == pytest.approx(expect, rel=1e-12)

    def test_relay_sum_term_by_term(self):
        beta, alloc, powers, gains = _tiny_setup()
        alloc[0] = [1, 1, 0, 1]
        alloc[1, 1] = 0
        powers.p_ue[0] = [0.01, 0.02, 0.0, 0.005]
        r = lr.rate_report(beta, alloc, powers, gains, np.ones(3), SC).per_ue_rate[0]
        expect = sum(
            0.5 * math.log2(1.0 + af_sinr_reference(
                powers.p_ue[0, k], powers.p_uav[k], gains.h_ue_uav[0, k],
                gains.h_uav_bs[k], SIGMA2, ICI))
            for k in (0, 1, 3))
        assert r == pytest.approx(expect, rel=1e-12)


class TestRateReport:
    def test_objective_is_weighted_dot(self):
        beta, alloc, powers, gains = _tiny_setup()
        w = np.array([2.0, 1.0, 0.5])
        rep = lr.rate_report(beta, alloc, powers, gains, w, SC)
        assert rep.objective == pytest.approx(float(np.dot(w, rep.per_ue_rate)), rel=1e-12)
        assert np.all(rep.per_ue_rate >= 0)
        rate = np.zeros(alloc.shape)
        rate[rep.pairs] = rep.link.rate
        assert rep.per_ue_rate == pytest.approx(rate.sum(axis=1))

    def test_stack_matches_each_position(self):
        # the gains of a stack of UAV positions give each position's own
        # report bit for bit
        sc = Scenario(fading_model="mixed", rng_seed=4).with_positions(4)
        rng = np.random.default_rng(4)
        beta = np.array([1, 0, 1, 1, 0])
        alloc = np.zeros((5, 10), dtype=int)
        alloc[rng.permutation(10) % 5, np.arange(10)] = 1
        powers = lr.PowerAllocation(alloc * rng.uniform(0.01, 0.05, (5, 10)),
                                    rng.uniform(0.05, 0.2, 10))
        w = rng.uniform(0.5, 2.0, 5)
        stack = np.column_stack([rng.uniform(-200.0, 200.0, (6, 2)), np.full(6, 110.0)])
        rep = lr.rate_report(beta, alloc, powers, gain_matrices(sc, stack, 1), w, sc)
        assert rep.per_ue_rate.shape == (6, 5) and rep.objective.shape == (6,)
        for t, pos in enumerate(stack):
            one = lr.rate_report(beta, alloc, powers, gain_matrices(sc, pos, 1), w, sc)
            assert rep.objective[t] == one.objective
            assert np.array_equal(rep.per_ue_rate[t], one.per_ue_rate)
            assert all(map(np.array_equal, rep.pairs, one.pairs))
            for got, want in zip(rep.link.margins(), one.link.margins()):
                assert np.array_equal(got[t], want)

    def test_report_consistent_with_ue_rate(self):
        # the (N, K) reduction agrees with the kernel on one link at a time
        beta, alloc, powers, gains = _tiny_setup()
        rep = lr.rate_report(beta, alloc, powers, gains, np.ones(3), SC)
        for n in range(3):
            expect = sum(lr.LinkBudget(
                beta[n] == 1, powers.p_ue[n, k], powers.p_uav[k], gains.h_ue_bs[n, k],
                gains.h_ue_uav[n, k], gains.h_uav_bs[k], SC.snr_thresholds, SIGMA2,
                ICI).rate for k in np.flatnonzero(alloc[n]))
            assert rep.per_ue_rate[n] == pytest.approx(expect, rel=1e-12)


class TestPowerAllocation:
    def test_violations_detect_budget_breach(self):
        sc, _, sol = _funded_slot()
        assert validate_solution(sol, sc) == []
        p_ue = sol.powers.p_ue.copy()
        p_ue[0, 0] = 2.0 * sc.p_ue_max
        _, _, over = _slot(sol.beta, sol.alloc, p_ue, sol.powers.p_uav)
        assert "ue 0 exceeds its power budget" in validate_solution(over, sc)
        p_uav = sol.powers.p_uav.copy()
        p_uav[1] = 2.0 * sc.p_uav_max
        _, _, over = _slot(sol.beta, sol.alloc, sol.powers.p_ue, p_uav)
        assert "relay exceeds its power budget" in validate_solution(over, sc)


@st.composite
def layouts(draw):
    """A random slot: modes, an allocation with vacant subchannels and
    unassigned entries, powers (nonzero also off the allocation), gains
    and thresholds."""
    n = draw(st.integers(1, 4))
    k = draw(st.integers(1, 6))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    beta = rng.integers(0, 2, n)
    owner = rng.integers(-1, n, k)  # -1: vacant
    alloc = (owner[None, :] == np.arange(n)[:, None]).astype(int)
    powers = lr.PowerAllocation(10.0 ** rng.uniform(-6, 0, (n, k)),
                                10.0 ** rng.uniform(-6, 0, k))
    gains = ChannelGains(10.0 ** rng.uniform(-12, -4, (n, k)),
                         10.0 ** rng.uniform(-12, -4, (n, k)),
                         10.0 ** rng.uniform(-12, -4, k))
    thr = SnrThresholds(*(10.0 ** rng.uniform(-1, 3, 3)))
    return beta, alloc, powers, gains, thr


class TestLinkBudget:
    @given(layouts())
    @settings(max_examples=200, deadline=None)
    def test_matches_written_out_references(self, layout):
        beta, alloc, powers, gains, thr = layout
        sc = Scenario(snr_thresholds=thr)
        rep = lr.rate_report(beta, alloc, powers, gains, np.ones(len(beta)), sc)
        rates = np.zeros(alloc.shape)
        rates[rep.pairs] = rep.link.rate
        for (n, k), rate in np.ndenumerate(rates):
            if not alloc[n, k]:
                assert rate == 0.0
                continue
            if beta[n]:
                expect = 0.5 * math.log2(1.0 + af_sinr_reference(
                    powers.p_ue[n, k], powers.p_uav[k], gains.h_ue_uav[n, k],
                    gains.h_uav_bs[k], SIGMA2, ICI))
            else:
                expect = direct_rate_reference(powers.p_ue[n, k], gains.h_ue_bs[n, k],
                                               SIGMA2, ICI)
            assert rate == pytest.approx(expect, rel=1e-12, abs=0.0)

    @given(layouts())
    @settings(max_examples=200, deadline=None)
    def test_feasible_at_floor_not_below(self, layout):
        beta, alloc, _, gains, thr = layout
        relay = beta[:, None] == 1

        def at(scale_ue, scale_uav):
            floor_ue, floor_uav = lr.LinkBudget(
                relay, 0.0, 0.0, gains.h_ue_bs, gains.h_ue_uav, gains.h_uav_bs,
                thr, SIGMA2, ICI).floors()
            return lr.LinkBudget(relay, scale_ue * floor_ue, scale_uav * floor_uav,
                                 gains.h_ue_bs, gains.h_ue_uav, gains.h_uav_bs,
                                 thr, SIGMA2, ICI)

        low = 1.0 - 1e-9
        assert at(1.0, 1.0).feasible().all()
        assert not at(low, 1.0).feasible().any()
        # a direct link needs no UAV power: its floor is zero
        assert np.array_equal(at(1.0, low).feasible(), np.broadcast_to(~relay, alloc.shape))
        # at the floors every hop sits on its threshold (the clean phase
        # of a direct link above it)
        link = at(1.0, 1.0)
        hop1 = np.where(relay, thr.ue_uav, thr.direct * (1.0 + ICI / SIGMA2))
        assert link.snr[0] == pytest.approx(np.broadcast_to(hop1, alloc.shape), rel=1e-12)
        assert link.margins()[1] == pytest.approx(np.zeros(alloc.shape), abs=1e-12)


def grid_report(beta, alloc, powers, gains, weights, sc):
    """The report written out over the whole (N, K) grid: every link
    priced, the rates masked to the allocation and summed per UE."""
    link = lr.LinkBudget(np.asarray(beta)[:, None] == 1, powers.p_ue, powers.p_uav,
                         gains.h_ue_bs, gains.h_ue_uav, gains.h_uav_bs,
                         sc.snr_thresholds, sc.noise_var, sc.ici_power)
    per_ue = np.where(alloc, link.rate, 0.0).sum(-1)
    objective = (float(np.dot(weights, per_ue)) if per_ue.ndim == 1
                 else np.array([np.dot(weights, r) for r in per_ue]))
    return link, per_ue, objective


def stacked(gains, t, seed):
    """The gains of t UAV positions: the air gains scaled per position."""
    rng = np.random.default_rng(seed)
    n, k = gains.h_ue_uav.shape
    return ChannelGains(gains.h_ue_bs, gains.h_ue_uav * 10.0 ** rng.uniform(-1, 1, (t, n, k)),
                        gains.h_uav_bs * 10.0 ** rng.uniform(-1, 1, (t, 1, k)))


class TestGatheredReport:
    """`rate_report` prices only the assigned links, yet equals the
    whole grid's report bit for bit, and its budget holds each assigned
    link's entries of the grid's."""

    def check(self, beta, alloc, powers, gains, thr):
        sc = Scenario(snr_thresholds=thr)
        weights = np.linspace(0.5, 2.0, len(beta))
        rep = lr.rate_report(beta, alloc, powers, gains, weights, sc)
        link, per_ue, objective = grid_report(beta, alloc, powers, gains, weights, sc)
        assert rep.per_ue_rate.tobytes() == per_ue.tobytes()
        assert np.array_equal(rep.objective, objective)
        assert all(map(np.array_equal, rep.pairs, np.nonzero(alloc)))
        ue, sub = rep.pairs
        assert np.array_equal(rep.link.rate, link.rate[..., ue, sub])
        for got, want in zip(rep.link.margins(), link.margins()):
            assert np.array_equal(got, np.broadcast_to(want, link.rate.shape)[..., ue, sub])
        return rep

    @given(layouts(), st.integers(0, 3))
    @settings(max_examples=200, deadline=None)
    def test_equals_the_grid(self, layout, t):
        # t = 0: one position; else a stack of t
        beta, alloc, powers, gains, thr = layout
        self.check(beta, alloc, powers, stacked(gains, t, t) if t else gains, thr)

    @pytest.mark.parametrize("t", [0, 3])
    def test_empty_allocation(self, t):
        beta, alloc, powers, gains = _tiny_setup()
        rep = self.check(beta, 0 * alloc, powers, stacked(gains, t, 1) if t else gains, THR)
        assert rep.link.rate.size == 0 and not rep.per_ue_rate.any()

    @pytest.mark.parametrize("t", [0, 3])
    def test_all_relayed(self, t):
        _, alloc, powers, gains = _tiny_setup()
        # every subchannel is assigned, now each through the UAV
        rep = self.check(np.ones(3, dtype=int), alloc, powers,
                         stacked(gains, t, 2) if t else gains, THR)
        assert rep.link.relay.all() and rep.link.rate.shape == ((t, 4) if t else (4,))

    def test_validator_findings_keep_their_order(self):
        # UE 0 direct on subchannels 0 and 2, UE 1 relayed on 1; below its
        # floors are UE 0 on 0 and both hops of UE 1, UE 0 on 2 above
        beta = np.array([0, 1])
        alloc = np.array([[1, 0, 1], [0, 1, 0]])
        sc, gains, _ = _slot(beta, alloc, np.zeros((2, 3)), np.zeros(3))
        floor_ue, floor_uav = lr.LinkBudget(
            beta[:, None] == 1, 0.0, 0.0, gains.h_ue_bs, gains.h_ue_uav, gains.h_uav_bs,
            sc.snr_thresholds, sc.noise_var, sc.ici_power).floors()
        scale = np.array([[0.5, 1.0, 2.0], [1.0, 0.5, 1.0]])
        _, _, sol = _slot(beta, alloc, scale * floor_ue * alloc, 0.5 * floor_uav[1] * alloc[1])
        got = [f for f in validate_solution(sol, sc) if "SNR below floor" in f]
        assert got == ["ue 0 subchannel 0: direct SNR below floor",
                       "ue 1 subchannel 1: access-hop SNR below floor",
                       "ue 1 subchannel 1: backhaul-hop SNR below floor"]
        # the whole grid's margins, read in row-major order, say the same
        link = grid_report(beta, alloc, sol.powers, gains, sol.weights, sc)[0]
        low = np.stack(link.margins(), axis=-1) < -lr.QOS_TOL
        names = (("direct", "direct"), ("access-hop", "backhaul-hop"))
        assert got == [f"ue {n} subchannel {k}: {names[beta[n]][hop]} SNR below floor"
                       for n, k, hop in np.argwhere(low & (alloc != 0)[..., None])]


@st.composite
def relayed_batches(draw):
    """Relayed links of R UEs on K subchannels as a greedy start scores
    them, at p_ue_max / own and p_uav_max / total for own counts and relay
    totals 1..K+1, with random gains and thresholds: either as a column of
    UE powers and one relay power, or with some powers exactly at their
    floors.  Returns the powers, the gains, the thresholds and the floors."""
    r, k = draw(st.integers(1, 4)), draw(st.integers(1, 8))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    h_ue_uav, h_uav_bs = 10.0 ** rng.uniform(-12, -4, (r, k)), 10.0 ** rng.uniform(-12, -4, k)
    thr = SnrThresholds(*(10.0 ** rng.uniform(-1, 3, 3)))
    floor_ue, floor_uav = lr.floor_signals(True, thr, SIGMA2, ICI)
    floor_ue, floor_uav = floor_ue / h_ue_uav, floor_uav / h_uav_bs
    p_ue = 10.0 ** rng.uniform(-4, 0) / rng.integers(1, k + 2, (r, 1))
    p_uav = 10.0 ** rng.uniform(-4, 0) / int(rng.integers(1, k + 2))
    if draw(st.booleans()):
        p_ue = np.where(rng.random((r, k)) < 0.3, floor_ue, p_ue)
        p_uav = np.where(rng.random(k) < 0.3, floor_uav, p_uav)
    return p_ue, p_uav, h_ue_uav, h_uav_bs, thr, floor_ue, floor_uav


class TestRelayedLinks:
    @given(relayed_batches())
    @settings(max_examples=300, deadline=None)
    def test_equal_the_link_budget_bit_for_bit(self, batch):
        p_ue, p_uav, h_ue_uav, h_uav_bs, thr, floor_ue, floor_uav = batch
        rate, ok = lr.relayed_links(p_ue, p_uav, h_ue_uav, h_uav_bs, floor_ue, floor_uav,
                                    SIGMA2, ICI)
        link = lr.LinkBudget(True, p_ue, p_uav, 1.0, h_ue_uav, h_uav_bs, thr, SIGMA2, ICI)
        assert rate.shape == link.rate.shape and rate.tobytes() == link.rate.tobytes()
        assert np.array_equal(ok, link.feasible())
        # a power exactly at its floor meets it
        assert ok[(p_ue == floor_ue) & (p_uav == floor_uav)].all()


def split_batch(seed, n=12):
    """A batch of n links in mixed modes, hop SNRs from 0.1 to 1e6: the
    link budget and the split's stacked signals and noise."""
    rng = np.random.default_rng(seed)
    relay = rng.integers(0, 2, n) == 1
    relay[:2] = True, False
    h_ue_bs, h_ue_uav, h_uav_bs = 10.0 ** rng.uniform(-12, -4, (3, n))
    snr1, snr2 = 10.0 ** rng.uniform(-1, 6, (2, n))
    h1 = np.where(relay, h_ue_uav, h_ue_bs)
    p_ue = snr1 * SIGMA2 / h1
    p_uav = snr2 * (SIGMA2 + ICI) / h_uav_bs
    link = lr.LinkBudget(relay, p_ue, p_uav, h_ue_bs, h_ue_uav, h_uav_bs, THR, SIGMA2, ICI)
    s1 = p_ue * h1
    s = np.concatenate((s1, np.where(relay, p_uav * h_uav_bs, s1)))
    return link, s, np.repeat((SIGMA2, SIGMA2 + ICI), n)


class TestDcSplit:
    """`dc_k` and `dc_m`: K - M is the exact rate, and their partials."""

    @staticmethod
    def assert_exact(seed):
        link, s, noise = split_batch(seed)
        k, _ = lr.dc_k(s, noise)
        m, _ = lr.dc_m(s, link.relay, SIGMA2, ICI)
        np.testing.assert_allclose(k - m, link.rate, rtol=1e-10)

    def test_k_minus_m_is_the_rate(self):
        self.assert_exact(3)

    @given(st.integers(0, 2**32 - 1))
    @settings(max_examples=200, deadline=None)
    def test_k_minus_m_is_the_rate_property(self, seed):
        self.assert_exact(seed)

    def test_partials_match_central_differences(self):
        # unit noise, so that central differences resolve the signals
        rng = np.random.default_rng(5)
        relay = np.array([True, False, True, False, True])
        sigma2, ici = 1.0, 0.3
        s0 = rng.uniform(0.5, 50.0, 10)
        w = np.tile(rng.uniform(0.5, 2.0, 5), 2)  # a weight per link, on both hops

        def k_sum(s):
            k, dk = lr.dc_k(s, np.repeat((sigma2, sigma2 + ici), 5))
            return float(w[:5] @ k), w * dk

        def m_sum(s):
            m, dm = lr.dc_m(s, relay, sigma2, ici)
            return float(w[:5] @ m), w * dm

        assert grad_check(k_sum, s0) <= 1e-7
        assert grad_check(m_sum, s0) <= 1e-7
        # a direct link's M is the constant at zero signal
        m, dm = lr.dc_m(s0, relay, sigma2, ici)
        assert not dm[np.tile(~relay, 2)].any()
        np.testing.assert_allclose(m[~relay], 0.5 * math.log2(sigma2 * (sigma2 + ici)),
                                   rtol=1e-15)

    def test_nonpositive_signal_plus_noise_is_none(self):
        noise = np.array([1.0, 1.0, 2.0, 2.0])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert lr.dc_k(np.array([1.0, -1.0, 0.5, 0.5]), noise) is None
            assert lr.dc_k(np.array([1.0, 1.0, -3.0, 0.5]), noise) is None

    @given(layouts())
    @settings(max_examples=100, deadline=None)
    def test_floor_signals_over_gains_are_the_floors(self, layout):
        beta, _, _, gains, thr = layout
        relay = beta[:, None] == 1
        floor_ue, floor_uav = lr.LinkBudget(
            relay, 0.0, 0.0, gains.h_ue_bs, gains.h_ue_uav, gains.h_uav_bs,
            thr, SIGMA2, ICI).floors()
        ue, uav = lr.floor_signals(relay, thr, SIGMA2, ICI)
        assert np.array_equal(ue / np.where(relay, gains.h_ue_uav, gains.h_ue_bs), floor_ue)
        assert np.array_equal(uav / gains.h_uav_bs, floor_uav)


class TestWeightsAndFairness:
    def test_never_served_weight(self):
        assert lr.update_weights([0.0])[0] == pytest.approx(10.0)

    def test_point_nine(self):
        assert lr.update_weights([0.9])[0] == pytest.approx(1.0)

    @given(st.lists(st.floats(0.0, 100.0), min_size=2, max_size=8))
    @settings(max_examples=50, deadline=None)
    def test_monotone_decreasing(self, avgs):
        w = lr.update_weights(avgs)
        order = np.argsort(avgs)
        assert np.all(np.diff(w[order]) <= 1e-15)

    def test_weights_are_the_gradient_of_the_pf_utility(self):
        avg, h = np.array([0.0, 0.4, 3.0, 25.0]), 1e-6
        for n, w in enumerate(lr.update_weights(avg)):
            step = h * (np.arange(avg.size) == n)
            slope = (lr.pf_utility(avg + step) - lr.pf_utility(avg - step)) / (2 * h)
            assert slope == pytest.approx(w, rel=1e-6)
        assert lr.pf_utility([0.9, 0.0]) == pytest.approx(math.log(0.1), abs=1e-15)

    def test_jain_equal_rates(self):
        assert lr.jain_index([3.0, 3.0, 3.0]) == pytest.approx(1.0)

    def test_jain_single_active(self):
        assert lr.jain_index([7.0, 0, 0, 0, 0]) == pytest.approx(0.2)

    def test_jain_hand_value(self):
        assert lr.jain_index([1, 2, 3, 4, 5]) == pytest.approx(225 / 275, rel=1e-12)

    def test_jain_scaling_invariant(self):
        r = [0.5, 1.0, 4.0, 2.2]
        assert lr.jain_index(r) == pytest.approx(lr.jain_index([10 * x for x in r]), rel=1e-12)

    def test_jain_all_zero_rejected(self):
        with pytest.raises(ValueError):
            lr.jain_index([0.0, 0.0])

    @given(st.lists(st.floats(0.001, 100.0), min_size=1, max_size=10))
    @settings(max_examples=50, deadline=None)
    def test_jain_range(self, rates):
        j = lr.jain_index(rates)
        assert 1.0 / len(rates) - 1e-12 <= j <= 1.0 + 1e-12
