"""Trajectory stage tests: tangent bound quality, surrogate rate
properties, stage solver contracts, and the outer alternation's
constraint and monotonicity audits."""

import csv
import math
from dataclasses import replace

import numpy as np
import pytest

from uavrelay.channel import a2g_gain, gain_matrices, los_probability
from uavrelay.convex_core import grad_check
from uavrelay.link_rate import LinkBudget, PowerAllocation, rate_report
from uavrelay.scenario import (A2GParams, Scenario, SnrThresholds, UavState,
                               dbm_to_watts)
from uavrelay.trajectory import (
    SlotInputs,
    _altitude_objective,
    _audit,
    _horizontal_objective,
    _pair_anchor,
    _pair_rate_bound,
    altitude_surrogate,
    horizontal_surrogate,
    los_linearization,
    solve_altitude,
    solve_horizontal,
    to_algorithm,
    write_stage_trace,
)
from uavrelay.uav_power import flying_power_upper, move_radius

EASY = SnrThresholds(5.0, 5.0, 5.0)


def relay_inputs(ue_positions, uav_start, relay_ue=0, n_subchannels=4, thresholds=EASY):
    """One relay UE on the first half of the subchannels, remaining UEs
    direct on the rest, budgets split evenly."""
    n = len(ue_positions)
    sc = Scenario(n_ues=n, n_subchannels=n_subchannels,
                  ue_positions=tuple(ue_positions),
                  subchannel_freqs=(1e9,) * n_subchannels,
                  p_ue_max=dbm_to_watts(17.0),
                  snr_thresholds=thresholds, uav_start=tuple(uav_start))
    beta = np.array([1 if i == relay_ue else 0 for i in range(n)])
    alloc = np.zeros((n, n_subchannels), dtype=int)
    half = n_subchannels // 2
    alloc[relay_ue, :half] = 1
    others = [i for i in range(n) if i != relay_ue]
    for j, k in enumerate(range(half, n_subchannels)):
        if others:
            alloc[others[j % len(others)], k] = 1
    counts = np.maximum(alloc.sum(axis=1), 1)
    p_ue = alloc * (sc.p_ue_max / counts)[:, None]
    p_uav = np.zeros(n_subchannels)
    p_uav[:half] = sc.p_uav_max / half
    powers = PowerAllocation(p_ue, p_uav)
    return sc, SlotInputs(sc, beta, alloc, powers, np.ones(n), 0)


@pytest.fixture(scope="module")
def two_ue():
    sc, inputs = relay_inputs([(300.0, 40.0, 0.0), (120.0, -60.0, 0.0)],
                              (200.0, 0.0, 130.0))
    ctx = horizontal_surrogate(inputs, np.array([200.0, 0.0, 130.0]))
    return sc, inputs, ctx


def ball_points(center, radius, count, seed):
    rng = np.random.default_rng(seed)
    ang = rng.uniform(0.0, 2.0 * math.pi, count)
    rad = radius * np.sqrt(rng.uniform(0.0, 1.0, count))
    return center + np.column_stack([rad * np.cos(ang), rad * np.sin(ang)])


def exact_objective(pos, inputs):
    return _audit(pos, inputs).objective


def surrogate_rate(xy, ctx, powers, n, k):
    """The horizontal stage's concave bound on the relayed rate of (n, k)
    at `xy`, linearized at the context's expansion point."""
    p_ue, p_uav = powers.p_ue[n, k], powers.p_uav[k]
    anchor = _pair_anchor(ctx, n, k, p_ue, p_uav, ctx.sigma2, ctx.c_noise)
    return _pair_rate_bound(ctx, n, k, xy, p_ue, p_uav, ctx.sigma2, ctx.c_noise, anchor)[0]


def relayed_rate(sc, p_ue, p_uav, h_ue_uav, h_uav_bs):
    return LinkBudget(True, p_ue, p_uav, 1.0, h_ue_uav, h_uav_bs, sc.snr_thresholds,
                      sc.noise_var, sc.ici_power).rate


# ---------------------------------------------------------------------------
# Gain bounds.

def test_gain_bound_tight_at_expansion(two_ue):
    sc, inputs, ctx = two_ue
    pos = np.array([200.0, 0.0, 130.0])
    gains = gain_matrices(sc, pos, 0)
    for k in range(sc.n_subchannels):
        hb = ctx.bs_bound(k, pos[:2])[0]
        assert abs(hb - gains.h_uav_bs[k]) <= 1e-10 * gains.h_uav_bs[k]
        for n in range(sc.n_ues):
            hu = ctx.ue_bound(n, k, pos[:2])[0]
            assert abs(hu - gains.h_ue_uav[n, k]) <= 1e-10 * gains.h_ue_uav[n, k]


def test_gain_bound_dominance_sampled(two_ue):
    sc, inputs, ctx = two_ue
    center = np.array([200.0, 0.0])
    for p in ball_points(center, sc.d_max, 1000, seed=3):
        hb = ctx.bs_bound(0, p)[0]
        true_b = a2g_gain((p[0], p[1], 130.0), (0.0, 0.0, 30.0), 1e9, sc.a2g)
        assert hb <= true_b * (1.0 + 1e-12)
        hu = ctx.ue_bound(0, 0, p)[0]
        true_u = a2g_gain((p[0], p[1], 130.0), sc.ue_positions[0], 1e9, sc.a2g)
        assert hu <= true_u * (1.0 + 1e-12)


def test_gain_bound_midpoint_concavity(two_ue):
    sc, _, ctx = two_ue
    center = np.array([200.0, 0.0])
    pts = ball_points(center, sc.d_max, 600, seed=5)
    for p, q in zip(pts[::2], pts[1::2]):
        for bound in (lambda xy: ctx.bs_bound(0, xy)[0],
                      lambda xy: ctx.ue_bound(0, 0, xy)[0]):
            mid = bound(0.5 * (p + q))
            avg = 0.5 * (bound(p) + bound(q))
            assert avg - mid <= 1e-12 * abs(mid)


# ---------------------------------------------------------------------------
# Surrogate relayed rate.

def test_surrogate_rate_tight_at_expansion(two_ue):
    sc, inputs, ctx = two_ue
    pos = np.array([200.0, 0.0, 130.0])
    gains = gain_matrices(sc, pos, 0)
    for _, k in ctx.pairs:
        got = surrogate_rate(pos[:2], ctx, inputs.powers, 0, k)
        want = rate_report(inputs.beta, inputs.alloc, inputs.powers, gains,
                           inputs.weights, sc).per_subchannel_rate[0, k]
        assert abs(got - want) <= 1e-10 * want


def test_surrogate_rate_dominated_by_bound_rate(two_ue):
    sc, inputs, ctx = two_ue
    for p in ball_points(np.array([200.0, 0.0]), sc.d_max, 1000, seed=7):
        r_hat = surrogate_rate(p, ctx, inputs.powers, 0, 0)
        hu = ctx.ue_bound(0, 0, p)[0]
        hb = ctx.bs_bound(0, p)[0]
        if hu <= 0.0 or hb <= 0.0:
            continue
        bound_rate = relayed_rate(sc, inputs.powers.p_ue[0, 0], inputs.powers.p_uav[0],
                                  hu, hb)
        assert r_hat <= bound_rate + 1e-12


def test_surrogate_rate_midpoint_concavity(two_ue):
    sc, inputs, ctx = two_ue
    pts = ball_points(np.array([200.0, 0.0]), sc.d_max, 400, seed=9)
    for p, q in zip(pts[::2], pts[1::2]):
        mid = surrogate_rate(0.5 * (p + q), ctx, inputs.powers, 0, 0)
        avg = 0.5 * (surrogate_rate(p, ctx, inputs.powers, 0, 0)
                     + surrogate_rate(q, ctx, inputs.powers, 0, 0))
        assert avg - mid <= 1e-9


def test_surrogate_rate_zero_power_is_zero(two_ue):
    sc, inputs, ctx = two_ue
    powers = inputs.powers.copy()
    powers.p_ue[0, 0] = 0.0
    got = surrogate_rate(ctx.expansion_xy, ctx, powers, 0, 0)
    assert abs(got) <= 1e-12


def test_nudged_expansion_above_peer():
    sc, inputs = relay_inputs([(300.0, 40.0, 0.0)], (300.0, 40.0, 130.0),
                              n_subchannels=2)
    pos = np.array([300.0, 40.0, 130.0])
    ctx = horizontal_surrogate(inputs, pos)
    assert ctx.nudged
    for p in ball_points(pos[:2], sc.d_max, 300, seed=11):
        h = ctx.ue_bound(0, 0, p)[0]
        true = a2g_gain((p[0], p[1], 130.0), sc.ue_positions[0], 1e9, sc.a2g)
        assert h <= true * (1.0 + 1e-12)


# ---------------------------------------------------------------------------
# Stage objective gradients.

def test_horizontal_objective_gradient(two_ue):
    _, inputs, ctx = two_ue
    objective = _horizontal_objective(ctx, inputs)
    for shift in ([0.0, 0.0], [4.0, -3.0], [-7.0, 6.0]):
        point = np.array([200.0, 0.0]) + np.array(shift)
        assert grad_check(objective, point) <= 1e-6


def test_altitude_objective_gradient(two_ue):
    _, inputs, _ = two_ue
    ctx = altitude_surrogate(inputs, np.array([200.0, 0.0, 130.0]))
    objective = _altitude_objective(ctx, inputs)
    for z in (130.0, 136.0, 124.0):
        assert grad_check(objective, np.array([z])) <= 1e-6


# ---------------------------------------------------------------------------
# Horizontal stage.

def test_solve_horizontal_no_relay_keeps_position(two_ue):
    sc, inputs, _ = two_ue
    quiet = SlotInputs(sc, np.zeros(2, dtype=int), inputs.alloc, inputs.powers,
                       inputs.weights, 0)
    state = UavState((170.0, -40.0, 130.0), (170.0, -40.0, 130.0))
    xy, log = solve_horizontal(state, quiet)
    assert np.allclose(xy, (170.0, -40.0))
    assert log.iterations == 0


def test_solve_horizontal_moves_toward_far_ue_axis(two_ue):
    sc, inputs, _ = two_ue
    start = (170.0, -40.0, 130.0)
    xy, log = solve_horizontal(UavState(start, start), inputs)
    axis = np.array(sc.ue_positions[0][:2])
    axis /= np.linalg.norm(axis)

    def axis_dist(p):
        return float(np.linalg.norm(p - (p @ axis) * axis))

    assert axis_dist(xy) < axis_dist(np.array(start[:2]))
    objs = [row[4] for row in log.rows]
    assert objs[-1] > exact_objective(start, inputs)
    assert all(b >= a - 1e-9 for a, b in zip(objs, objs[1:]))


def test_solve_horizontal_infeasible_set_keeps_position():
    _, inputs = relay_inputs([(350.0, 0.0, 0.0)], (250.0, 0.0, 100.0),
                             n_subchannels=2,
                             thresholds=SnrThresholds(1e8, 1e8, 1e8))
    start = (250.0, 0.0, 100.0)
    xy, log = solve_horizontal(UavState(start, start), inputs)
    assert np.allclose(xy, start[:2])
    assert "no room" in log.reason


def test_solve_horizontal_zero_radius_keeps_position(two_ue):
    sc, inputs, _ = two_ue
    pinned = SlotInputs(replace(sc, d_max=0.0), inputs.beta, inputs.alloc,
                        inputs.powers, inputs.weights, 0)
    start = (170.0, -40.0, 130.0)
    xy, _ = solve_horizontal(UavState(start, start), pinned)
    assert np.allclose(xy, start[:2])


# ---------------------------------------------------------------------------
# Linearized LoS probability and the altitude stage.

def test_linearized_los_exact_at_anchor():
    params = A2GParams()
    for peer in ((90.0, 0.0, 30.0), (150.0, -40.0, 0.0)):
        lin = los_linearization(peer, (0.0, 0.0), 130.0, params)
        dz = 130.0 - peer[2]
        d = math.hypot(math.hypot(peer[0], peer[1]), dz)
        exact = los_probability(math.degrees(math.asin(dz / d)), params.a, params.b)
        assert abs(lin.at(130.0) - exact) <= 1e-12 * exact
        assert lin.slope > 0.0


def test_linearized_los_small_move_error():
    params = A2GParams()
    z0 = 130.0
    for pz in (30.0, 0.0):
        for rho in (30.0, 60.0, 90.0, 120.0, 150.0):
            lin = los_linearization((rho, 0.0, pz), (0.0, 0.0), z0, params)
            for z in np.linspace(z0 - 15.0, z0 + 15.0, 121):
                dz = z - pz
                d = math.hypot(rho, dz)
                exact = los_probability(math.degrees(math.asin(dz / d)),
                                        params.a, params.b)
                assert abs(lin.at(z) - exact) <= 0.02 * exact


def test_solve_altitude_rises_when_helpful():
    _, inputs = relay_inputs([(350.0, 0.0, 0.0)], (250.0, 0.0, 100.0),
                             n_subchannels=2)
    start = (250.0, 0.0, 100.0)
    z, log = solve_altitude(UavState(start, start), inputs)
    assert z > 100.0
    objs = [row[4] for row in log.rows]
    assert objs[-1] > exact_objective(start, inputs)
    assert all(b >= a - 1e-9 for a, b in zip(objs, objs[1:]))


def test_solve_altitude_never_descends_within_slot():
    _, inputs = relay_inputs([(350.0, 0.0, 0.0)], (300.0, 0.0, 190.0),
                             n_subchannels=2)
    start = (300.0, 0.0, 190.0)
    z, _ = solve_altitude(UavState(start, start), inputs)
    assert z >= 190.0 - 1e-9


def test_solve_altitude_no_relay_and_infeasible_keep_altitude():
    sc, inputs = relay_inputs([(350.0, 0.0, 0.0)], (250.0, 0.0, 100.0),
                              n_subchannels=2)
    start = (250.0, 0.0, 100.0)
    quiet = SlotInputs(sc, np.zeros(1, dtype=int), inputs.alloc, inputs.powers,
                       inputs.weights, 0)
    z, _ = solve_altitude(UavState(start, start), quiet)
    assert z == 100.0
    _, hard = relay_inputs([(350.0, 0.0, 0.0)], (250.0, 0.0, 100.0),
                           n_subchannels=2,
                           thresholds=SnrThresholds(1e8, 1e8, 1e8))
    z, log = solve_altitude(UavState(start, start), hard)
    assert z == 100.0 and "excludes" in log.reason


# ---------------------------------------------------------------------------
# Outer alternation.

def random_slot(seed):
    sc = Scenario(n_ues=3, n_subchannels=4,
                  p_ue_max=dbm_to_watts(17.0),
                  snr_thresholds=SnrThresholds(3.0, 3.0, 3.0),
                  rng_seed=seed).with_positions(seed)
    dists = [math.hypot(p[0], p[1]) for p in sc.ue_positions]
    far = int(np.argmax(dists))
    beta = np.array([1 if i == far else 0 for i in range(sc.n_ues)])
    alloc = np.zeros((sc.n_ues, sc.n_subchannels), dtype=int)
    for k in range(sc.n_subchannels):
        alloc[k % sc.n_ues, k] = 1
    counts = np.maximum(alloc.sum(axis=1), 1)
    p_ue = alloc * (sc.p_ue_max / counts)[:, None]
    relay_ks = np.flatnonzero(alloc[far])
    p_uav = np.zeros(sc.n_subchannels)
    p_uav[relay_ks] = sc.p_uav_max / len(relay_ks)
    powers = PowerAllocation(p_ue, p_uav)
    return sc, SlotInputs(sc, beta, alloc, powers, np.ones(sc.n_ues), 0)


@pytest.mark.parametrize("seed", [0, 1, 2, 3, 4, 5])
def test_to_algorithm_constraint_and_monotonicity_audit(seed):
    sc, inputs = random_slot(seed)
    start = sc.uav_start
    before = _audit(start, inputs)
    assert before.surplus >= 0.0
    res = to_algorithm(UavState(start, start), inputs)
    disp = float(np.linalg.norm(res.position - np.array(start)))
    r_eff = move_radius(sc.d_max, sc.e_max, sc.slot_len, sc.propulsion)
    assert disp <= r_eff + 1e-6
    assert res.position[2] >= sc.bs_height + 1.0 - 1e-9
    assert flying_power_upper(disp / sc.slot_len, sc.propulsion) * sc.slot_len \
        <= sc.e_max + 1e-9
    stage_objs = [before.objective] + [log.objective for log in res.logs]
    assert all(b >= a - 1e-9 for a, b in zip(stage_objs, stage_objs[1:]))
    assert res.objective >= before.objective - 1e-9
    assert _audit(res.position, inputs).surplus >= -1e-6


def test_to_algorithm_stationary_start_stops_in_one_pass():
    _, inputs = relay_inputs([(300.0, 0.0, 0.0)], (200.0, 0.0, 130.0),
                             n_subchannels=2)
    # coarse sweep puts the interior optimum near (167, 145); refine it
    bx, bz = 167.0, 145.0
    best = -1.0
    for _ in range(3):
        for x in np.linspace(bx - 1.5, bx + 1.5, 31):
            for z in np.linspace(bz - 1.5, bz + 1.5, 31):
                o = exact_objective((x, 0.0, z), inputs)
                if o > best:
                    best, bx, bz = o, float(x), float(z)
    start = (bx, 0.0, bz)
    res = to_algorithm(UavState(start, start), inputs)
    assert res.passes == 1
    assert float(np.linalg.norm(res.position - np.array(start))) <= 0.5
    assert res.objective - best <= 1e-4 * best


def test_to_algorithm_no_relay_is_a_no_op(two_ue):
    sc, inputs, _ = two_ue
    quiet = SlotInputs(sc, np.zeros(2, dtype=int), inputs.alloc, inputs.powers,
                       inputs.weights, 0)
    start = (170.0, -40.0, 130.0)
    res = to_algorithm(UavState(start, start), quiet)
    assert np.allclose(res.position, start)
    assert res.passes == 0 and not res.improved


def test_stage_trace_csv_round_trip(tmp_path, two_ue):
    _, inputs, _ = two_ue
    start = (170.0, -40.0, 130.0)
    res = to_algorithm(UavState(start, start), inputs)
    path = tmp_path / "trace.csv"
    write_stage_trace(res.logs, path)
    rows = list(csv.reader(open(path)))
    assert rows[0] == ["stage", "iteration", "x", "y", "z", "objective", "snr_surplus"]
    assert len(rows) - 1 == sum(len(log.rows) for log in res.logs)
    assert all(r[0] in {"horizontal", "altitude"} for r in rows[1:])
