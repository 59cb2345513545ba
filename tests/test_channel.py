import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from uavrelay import channel as ch
from uavrelay.scenario import SPEED_OF_LIGHT, A2GParams, Scenario, db_to_linear


class TestFreeSpacePathloss:
    def test_one_ghz_value(self):
        # hand evaluation of (4*pi*f/c)^2 with c = 2.998e8
        assert ch.free_space_pathloss(1e9) == pytest.approx(1756.9381412984433, rel=1e-12)

    def test_doubling_frequency_quadruples(self):
        assert ch.free_space_pathloss(2e9) == pytest.approx(4 * ch.free_space_pathloss(1e9), rel=1e-12)

    def test_unit_frequency(self):
        assert ch.free_space_pathloss(SPEED_OF_LIGHT / (4 * math.pi)) == pytest.approx(1.0, rel=1e-12)

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            ch.free_space_pathloss(0.0)


class TestLosProbability:
    def test_at_theta_equal_a(self):
        assert ch.los_probability(9.6, 9.6, 0.28) == pytest.approx(1 / 10.6, rel=1e-12)

    def test_overhead(self):
        p = ch.los_probability(90.0, 9.6, 0.28)
        assert 1.0 - p == pytest.approx(1.6048478e-09, rel=1e-6)

    @given(st.floats(0.1, 89.0))
    @settings(max_examples=50, deadline=None)
    def test_strictly_increasing(self, theta):
        assert ch.los_probability(theta + 1.0, 9.6, 0.28) > ch.los_probability(theta, 9.6, 0.28)

    @given(st.floats(0.001, 90.0), st.floats(0.5, 20.0), st.floats(0.01, 1.0))
    @settings(max_examples=100, deadline=None)
    def test_open_unit_interval(self, theta, a, b):
        p = ch.los_probability(theta, a, b)
        assert 0.0 < p <= 1.0
        if b * (theta - a) < 30.0:  # beyond this the logistic saturates in float64
            assert p < 1.0

    def test_domain(self):
        with pytest.raises(ValueError):
            ch.los_probability(0.0, 9.6, 0.28)
        with pytest.raises(ValueError):
            ch.los_probability(90.1, 9.6, 0.28)


def one_link_scenario(**kw):
    """One UE and one 1 GHz subchannel; the BS antenna at 30 m is the air
    peer the A2G tests measure against."""
    base = dict(n_ues=1, n_subchannels=1, ue_positions=((100.0, 0.0, 0.0),),
                subchannel_freqs=(1e9,), bs_height=30.0)
    return Scenario(**{**base, **kw})


def uav_bs_gain(uav, **kw):
    return ch.gain_matrices(one_link_scenario(**kw), uav).h_uav_bs[0]


class TestA2gGain:
    def test_overhead_reference_value(self):
        # chain: L(1 GHz) -> PR(90) -> mixture pathloss at d = 100
        assert uav_bs_gain((0, 0, 130.0)) == pytest.approx(4.521093350235884e-08, rel=1e-10)

    def test_equal_attenuations_collapse_mixture(self):
        params = A2GParams(eta_los=3.0, eta_nlos=3.0)
        for uav in ((10.0, -20.0, 90.0), (50.0, 0.0, 140.0)):
            d = math.dist(uav, (0, 0, 30.0))
            expect = 1.0 / (ch.free_space_pathloss(1e9) * d * d * 3.0)
            assert uav_bs_gain(uav, a2g=params) == pytest.approx(expect, rel=1e-12)

    def test_distance_squared_law_at_fixed_elevation(self):
        near = uav_bs_gain((0, 0, 130.0))
        far = uav_bs_gain((0, 0, 230.0))
        assert far == pytest.approx(near / 4.0, rel=1e-12)

    def test_bracketed_by_pure_los_and_nlos(self):
        params = A2GParams()
        uav, peer = (60.0, 10.0, 120.0), (0.0, 0.0, 30.0)
        d = math.dist(uav, peer)
        base = ch.free_space_pathloss(1e9) * d * d
        lo = 1.0 / (base * params.eta_nlos)
        hi = 1.0 / (base * params.eta_los)
        assert lo < uav_bs_gain(uav) < hi

    def test_rejects_degenerate_geometry(self):
        sc = one_link_scenario()
        with pytest.raises(ValueError, match="coincident"):
            ch.gain_matrices(sc, (0.0, 0.0, 30.0))  # on the BS antenna
        with pytest.raises(ValueError, match="height"):
            ch.gain_matrices(sc, (50.0, 0.0, 30.0))  # at the BS antenna's height
        with pytest.raises(ValueError, match="height"):
            ch.gain_matrices(sc, (40.0, 10.0, 0.0))  # at the UE's height
        with pytest.raises(ValueError, match="coincident"):
            ch.gain_matrices(sc, (100.0, 0.0, 0.0))  # on the UE
        with pytest.raises(ValueError, match="finite"):
            ch.gain_matrices(sc, (math.nan, 0.0, 100.0))

    @given(st.floats(10.0, 500.0), st.floats(31.0, 400.0))
    @settings(max_examples=50, deadline=None)
    def test_decreasing_in_distance_at_fixed_elevation(self, rho, z):
        # scale the whole geometry: elevation fixed, distance doubles
        uav, far = (rho, 0.0, 30.0 + z), (2 * rho, 0.0, 30.0 + 2 * z)
        assert uav_bs_gain(far) < uav_bs_gain(uav)


class TestRayleighGain:
    @staticmethod
    def ue_bs_gain(ue):
        return ch.gain_matrices(one_link_scenario(ue_positions=(ue,)),
                                (0.0, 0.0, 130.0)).h_ue_bs[0, 0]

    def test_unit_distance(self):
        assert self.ue_bs_gain((1.0, 0.0, 30.0)) == 1.0

    def test_power_law(self):
        assert self.ue_bs_gain((100.0, 0.0, 30.0)) == pytest.approx(1e-8, rel=1e-12)

    def test_coincident_rejected(self):
        with pytest.raises(ValueError, match="coincident"):
            self.ue_bs_gain((0.0, 0.0, 30.0))


class TestFading:
    def test_none_is_ones(self):
        rng = np.random.default_rng(0)
        assert np.all(ch.fading_draws("none", (4, 3), rng) == 1.0)

    def test_rayleigh_unit_mean(self):
        rng = np.random.default_rng(5)
        draws = ch.fading_draws("rayleigh", 100_000, rng)
        assert np.mean(draws) == pytest.approx(1.0, rel=0.02)

    def test_rician_unit_mean(self):
        rng = np.random.default_rng(6)
        draws = ch.fading_draws("rician", 100_000, rng, k_db=10.0)
        assert np.mean(draws) == pytest.approx(1.0, rel=0.02)

    def test_unknown_model(self):
        with pytest.raises(ValueError):
            ch.fading_draws("nakagami", 3, np.random.default_rng(0))


def reference_gains(sc, uav, slot):
    """The per-link formulas written out one link at a time, with the
    slot's fading drawn in the package's order."""
    n, k = sc.n_ues, sc.n_subchannels
    if sc.fading_model == "none":
        f_ue_bs, f_ue_uav, f_uav_bs = np.ones((n, k)), np.ones((n, k)), np.ones(k)
    else:
        rng = np.random.default_rng((sc.rng_seed, 7, slot))
        ground = "rayleigh" if sc.fading_model == "mixed" else sc.fading_model
        air = "rician" if sc.fading_model == "mixed" else sc.fading_model
        f_ue_bs = ch.fading_draws(ground, (n, k), rng, sc.rician_k_factor)
        f_ue_uav = ch.fading_draws(air, (n, k), rng, sc.rician_k_factor)
        f_uav_bs = ch.fading_draws(air, (k,), rng, sc.rician_k_factor)

    def a2g(peer, freq, fading):
        d = math.dist(uav, peer)
        elev = math.degrees(math.asin(abs(uav[2] - peer[2]) / d))
        pr = ch.los_probability(elev, sc.a2g.a, sc.a2g.b)
        base = ch.free_space_pathloss(freq) * d * d
        return fading / (pr * base * sc.a2g.eta_los + (1.0 - pr) * base * sc.a2g.eta_nlos)

    bs = (0.0, 0.0, sc.bs_height)
    h_ue_bs, h_ue_uav, h_uav_bs = np.empty((n, k)), np.empty((n, k)), np.empty(k)
    for j, f in enumerate(sc.subchannel_freqs):
        h_uav_bs[j] = a2g(bs, f, f_uav_bs[j])
        for i, ue in enumerate(sc.ue_positions):
            h_ue_bs[i, j] = math.dist(ue, bs) ** (-sc.pathloss_exp) * f_ue_bs[i, j]
            h_ue_uav[i, j] = a2g(ue, f, f_ue_uav[i, j])
    return h_ue_bs, h_ue_uav, h_uav_bs


def assert_matches_reference(sc, uav, slot):
    gains = ch.gain_matrices(sc, uav, slot)
    for got, want in zip((gains.h_ue_bs, gains.h_ue_uav, gains.h_uav_bs),
                         reference_gains(sc, uav, slot)):
        assert got.shape == want.shape
        assert np.all(np.abs(got - want) <= 1e-12 * want)


class TestGainMatrices:
    def test_shapes_and_positivity(self):
        s = Scenario().with_positions(seed=3)
        gains = ch.gain_matrices(s, s.uav_start)
        assert gains.h_ue_bs.shape == (5, 10)
        assert gains.h_ue_uav.shape == (5, 10)
        assert gains.h_uav_bs.shape == (10,)
        for arr in (gains.h_ue_bs, gains.h_ue_uav, gains.h_uav_bs):
            assert np.all(arr > 0) and np.all(np.isfinite(arr))

    def test_equal_frequencies_give_equal_columns(self):
        s = Scenario().with_positions(seed=3)
        gains = ch.gain_matrices(s, s.uav_start)
        assert np.allclose(gains.h_ue_bs, gains.h_ue_bs[:, :1])
        assert np.allclose(gains.h_uav_bs, gains.h_uav_bs[0])

    @given(n=st.integers(1, 20), k=st.integers(1, 40), seed=st.integers(0, 10_000),
           model=st.sampled_from(["none", "rayleigh", "rician", "mixed"]),
           slot=st.integers(0, 9),
           uav=st.tuples(st.floats(-300.0, 300.0), st.floats(-300.0, 300.0),
                         st.floats(31.0, 300.0)))
    @settings(max_examples=60, deadline=None)
    def test_matches_per_link_reference(self, n, k, seed, model, slot, uav):
        rng = np.random.default_rng(seed)
        s = Scenario(n_ues=n, n_subchannels=k, fading_model=model, rng_seed=seed,
                     subchannel_freqs=tuple(rng.uniform(0.7e9, 3.5e9, k)),
                     rician_k_factor=float(rng.uniform(0.0, 15.0))).with_positions(seed)
        assert_matches_reference(s, uav, slot)

    @pytest.mark.parametrize("n, k, seed", [(1, 1, 0), (5, 10, 1), (20, 40, 2)])
    def test_stack_matches_each_position(self, n, k, seed):
        # one pass over a stack gives each position's own gains bit for bit
        s = Scenario(n_ues=n, n_subchannels=k, fading_model="mixed",
                     rng_seed=seed).with_positions(seed)
        rng = np.random.default_rng(seed)
        stack = np.column_stack([rng.uniform(-300.0, 300.0, (7, 2)), np.full(7, 120.0)])
        gains = ch.gain_matrices(s, stack, 3)
        assert gains.h_ue_uav.shape == (7, n, k) and gains.h_uav_bs.shape == (7, 1, k)
        for t, pos in enumerate(stack):
            one = ch.gain_matrices(s, pos, 3)
            assert gains.h_ue_bs is one.h_ue_bs
            assert np.array_equal(gains.h_ue_uav[t], one.h_ue_uav)
            assert np.array_equal(gains.h_uav_bs[t, 0], one.h_uav_bs)

    def test_fading_seeded_per_slot(self):
        s = Scenario(fading_model="rayleigh").with_positions(seed=3)
        a = ch.gain_matrices(s, s.uav_start, slot_index=0)
        b = ch.gain_matrices(s, s.uav_start, slot_index=0)
        c = ch.gain_matrices(s, s.uav_start, slot_index=1)
        assert np.array_equal(a.h_ue_bs, b.h_ue_bs)
        assert np.array_equal(a.h_ue_uav, b.h_ue_uav)
        assert not np.array_equal(a.h_ue_bs, c.h_ue_bs)
        assert not np.array_equal(a.h_ue_uav, c.h_ue_uav)
        assert ch.slot_channel(s, 0) is ch.slot_channel(s, 0)

    def test_shared_arrays_are_read_only(self):
        s = Scenario(fading_model="mixed").with_positions(seed=3)
        chan = ch.slot_channel(s, 0)
        gains = ch.gain_matrices(s, s.uav_start)
        for arr in (chan.h_ue_bs, chan.air_scale, chan.peers, gains.h_ue_bs):
            with pytest.raises(ValueError):
                arr[0] = 1.0

    def test_replaced_scenario_never_reads_stale_gains(self):
        s = Scenario(fading_model="mixed").with_positions(seed=3)
        uav = (20.0, -10.0, 120.0)
        before = ch.gain_matrices(s, uav)
        moved = replace(s, ue_positions=tuple((x + 7.0, y, z) for x, y, z in s.ue_positions))
        reseeded = replace(s, rng_seed=s.rng_seed + 1)
        for other in (moved, reseeded):
            after = ch.gain_matrices(other, uav)
            assert not np.array_equal(after.h_ue_bs, before.h_ue_bs)
            assert not np.array_equal(after.h_ue_uav, before.h_ue_uav)
            assert_matches_reference(other, uav, 0)
        assert_matches_reference(s, uav, 0)


class TestDirichletKernel:
    def test_center(self):
        assert ch.dirichlet_kernel(0.0, 1000) == pytest.approx(1.0, abs=1e-15)

    def test_integer_offsets_vanish(self):
        vals = ch.dirichlet_kernel(np.arange(1, 500, dtype=float), 1000)
        assert np.max(np.abs(vals)) < 1e-12

    @given(st.floats(-499.0, 499.0))
    @settings(max_examples=100, deadline=None)
    def test_magnitude_bounded(self, x):
        assert abs(ch.dirichlet_kernel(x, 1000)) <= 1.0 + 1e-12

    @given(st.floats(0.001, 0.999))
    @settings(max_examples=30, deadline=None)
    def test_total_power_over_period_is_one(self, frac):
        # Parseval: the DFT of a pure tone has unit total power
        offsets = np.arange(-500, 500, dtype=float) + frac
        assert np.sum(ch.dirichlet_kernel(offsets, 1000) ** 2) == pytest.approx(1.0, abs=1e-12)


class TestIci:
    def test_zero_speed_is_exactly_zero(self):
        ctx = ch.reference_ici_context("relay", uav_speed=0.0)
        assert ch.ici_power("relay", ctx) == 0.0

    def test_reference_ratios(self):
        relay = ch.ici_ratio_db("relay", ch.reference_ici_context("relay"))
        cell = ch.ici_ratio_db("cellular", ch.reference_ici_context("cellular"))
        assert relay == pytest.approx(-31.14, abs=0.05)
        assert cell == pytest.approx(-16.14, abs=0.05)
        assert relay < cell

    def test_normalized_doppler(self):
        ctx = ch.reference_ici_context("relay")
        v = 100.0 / 3.6
        assert ctx.max_normalized_doppler == pytest.approx(v * 3.5e9 / SPEED_OF_LIGHT / 15e3, rel=1e-12)

    def test_full_occupancy_power_conservation(self):
        ctx = ch.reference_ici_context("relay")
        total = ch.ici_power("relay", ctx) + ch.desired_power("relay", ctx)
        assert total == pytest.approx(1.0, abs=1e-12)

    def test_desired_power_modes(self):
        ctx_r = ch.reference_ici_context("relay")
        assert ch.desired_power("relay", ctx_r) < ctx_r.desired_power
        ctx_c = ch.reference_ici_context("cellular")
        assert ch.desired_power("cellular", ctx_c) == ctx_c.desired_power

    def test_occupancy_sensitivity_rows(self):
        rows = ch.occupancy_sensitivity((1.0, 0.5, 0.1))
        assert [r[0] for r in rows] == [1.0, 0.5, 0.1]
        for _, relay_db, cell_db in rows:
            assert relay_db == pytest.approx(-31.1, abs=1.0)
            assert cell_db == pytest.approx(-16.1, abs=1.0)

    def test_empty_occupancy(self):
        ctx = ch.reference_ici_context("relay", occupancy=0.0)
        assert ch.ici_power("relay", ctx) == 0.0

    def test_bad_indices_rejected(self):
        ctx = ch.IciContext(occupied=(2000,), powers=(1.0,))
        with pytest.raises(ValueError):
            ch.ici_power("relay", ctx)
