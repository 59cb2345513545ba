"""Trajectory stage tests: tangent bound quality, surrogate rate
properties, stage solver contracts, and `to_algorithm`'s constraint
and monotonicity audits."""

import csv
import math
from dataclasses import replace

import numpy as np
import pytest
from gradcheck import grad_check

from uavrelay import trajectory
from uavrelay.channel import gain_matrices, slot_channel
from uavrelay.link_rate import LinkBudget, PowerAllocation, rate_report
from uavrelay.scenario import Scenario, SnrThresholds, UavState, dbm_to_watts
from uavrelay.trajectory import (
    SlotInputs,
    _audit,
    _horizontal_barrier,
    _stage_objective,
    _surrogate_rates,
    horizontal_surrogate,
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


def peer_bounds(ctx, inputs, xy):
    """The horizontal stage's tangent bounds at `xy` on every air gain:
    (N, K) UE-to-UAV and (K,) UAV-to-BS, from the context's peer cores
    and the slot's position-free scales."""
    v = ctx.cores.value_grad(np.asarray(xy, dtype=float))[0]
    bound = slot_channel(inputs.scenario, inputs.slot_index).air_scale * v[:, None]
    return bound[:-1], bound[-1]


def surrogate_rate(xy, ctx, inputs, pair=0):
    """The horizontal stage's concave bound on the relayed rate of one
    pair at `xy`, linearized at the context's expansion point."""
    out = _surrogate_rates(ctx, inputs)(np.asarray(xy, dtype=float))
    return -math.inf if out is None else out[0][pair]


def true_gains(sc, xy, z=130.0):
    gains = gain_matrices(sc, (xy[0], xy[1], z), 0)
    return gains.h_ue_uav, gains.h_uav_bs


def run_horizontal(start, inputs):
    audit, log = solve_horizontal(_audit(start, inputs), start, inputs)
    return audit.position[:2], log


def relayed_rate(sc, p_ue, p_uav, h_ue_uav, h_uav_bs):
    return LinkBudget(True, p_ue, p_uav, 1.0, h_ue_uav, h_uav_bs, sc.snr_thresholds,
                      sc.noise_var, sc.ici_power).rate


# ---------------------------------------------------------------------------
# Gain bounds.

def test_gain_bound_tight_at_expansion(two_ue):
    sc, inputs, ctx = two_ue
    pos = np.array([200.0, 0.0, 130.0])
    gains = gain_matrices(sc, pos, 0)
    hu, hb = peer_bounds(ctx, inputs, pos[:2])
    assert np.all(np.abs(hb - gains.h_uav_bs) <= 1e-10 * gains.h_uav_bs)
    assert np.all(np.abs(hu - gains.h_ue_uav) <= 1e-10 * gains.h_ue_uav)
    # the stacked hops read the same bounds, access hops first
    h1, h2 = np.split(ctx.stacked(pos[:2])[0], 2)
    assert np.array_equal(h1, hu[ctx.ue, ctx.sub])
    assert np.array_equal(h2, hb[ctx.sub])


def test_gain_bound_dominance_sampled(two_ue):
    sc, inputs, ctx = two_ue
    center = np.array([200.0, 0.0])
    for p in ball_points(center, sc.d_max, 1000, seed=3):
        hu, hb = peer_bounds(ctx, inputs, p)
        true_u, true_b = true_gains(sc, p)
        assert np.all(hb <= true_b * (1.0 + 1e-12))
        assert np.all(hu <= true_u * (1.0 + 1e-12))


def test_gain_bound_midpoint_concavity(two_ue):
    sc, inputs, ctx = two_ue
    center = np.array([200.0, 0.0])
    pts = ball_points(center, sc.d_max, 600, seed=5)
    for p, q in zip(pts[::2], pts[1::2]):
        mid = np.vstack(peer_bounds(ctx, inputs, 0.5 * (p + q)))
        avg = 0.5 * (np.vstack(peer_bounds(ctx, inputs, p))
                     + np.vstack(peer_bounds(ctx, inputs, q)))
        assert np.all(avg - mid <= 1e-12 * np.abs(mid))


# ---------------------------------------------------------------------------
# Surrogate relayed rate.

def test_surrogate_rate_tight_at_expansion(two_ue):
    sc, inputs, ctx = two_ue
    pos = np.array([200.0, 0.0, 130.0])
    gains = gain_matrices(sc, pos, 0)
    want = rate_report(inputs.beta, inputs.alloc, inputs.powers, gains,
                       inputs.weights, sc).per_subchannel_rate[ctx.ue, ctx.sub]
    got = _surrogate_rates(ctx, inputs)(pos[:2])[0]
    assert np.all(np.abs(got - want) <= 1e-10 * want)


def test_surrogate_rate_dominated_by_bound_rate(two_ue):
    sc, inputs, ctx = two_ue
    for p in ball_points(np.array([200.0, 0.0]), sc.d_max, 1000, seed=7):
        r_hat = surrogate_rate(p, ctx, inputs)
        h1, h2 = np.split(ctx.stacked(p)[0], 2)
        hu, hb = h1[0], h2[0]
        if hu <= 0.0 or hb <= 0.0:
            continue
        bound_rate = relayed_rate(sc, inputs.powers.p_ue[0, 0], inputs.powers.p_uav[0],
                                  hu, hb)
        assert r_hat <= bound_rate + 1e-12


def test_surrogate_rate_midpoint_concavity(two_ue):
    sc, inputs, ctx = two_ue
    pts = ball_points(np.array([200.0, 0.0]), sc.d_max, 400, seed=9)
    for p, q in zip(pts[::2], pts[1::2]):
        mid = surrogate_rate(0.5 * (p + q), ctx, inputs)
        avg = 0.5 * (surrogate_rate(p, ctx, inputs) + surrogate_rate(q, ctx, inputs))
        assert avg - mid <= 1e-9


def test_surrogate_rate_zero_power_is_zero(two_ue):
    sc, inputs, ctx = two_ue
    powers = inputs.powers.copy()
    powers.p_ue[0, 0] = 0.0
    got = surrogate_rate(ctx.x0, ctx, replace(inputs, powers=powers))
    assert abs(got) <= 1e-12


def test_nudged_expansion_above_peer():
    sc, inputs = relay_inputs([(300.0, 40.0, 0.0)], (300.0, 40.0, 130.0),
                              n_subchannels=2)
    pos = np.array([300.0, 40.0, 130.0])
    ctx = horizontal_surrogate(inputs, pos)
    assert ctx.nudged
    for p in ball_points(pos[:2], sc.d_max, 300, seed=11):
        h = peer_bounds(ctx, inputs, p)[0][0, 0]
        true = true_gains(sc, p)[0][0, 0]
        assert h <= true * (1.0 + 1e-12)


# ---------------------------------------------------------------------------
# Stage objective and barrier gradients.

def test_horizontal_objective_gradient(two_ue):
    _, inputs, ctx = two_ue
    objective = _stage_objective(ctx, inputs)
    for shift in ([0.0, 0.0], [4.0, -3.0], [-7.0, 6.0]):
        point = np.array([200.0, 0.0]) + np.array(shift)
        assert grad_check(objective, point) <= 1e-6


@pytest.fixture(scope="module")
def three_pairs():
    """Two relayed UEs on three subchannels, UE 0 on two of them, and a
    direct UE on the fourth."""
    sc = Scenario(n_ues=3, n_subchannels=4,
                  ue_positions=((300.0, 40.0, 0.0), (120.0, -60.0, 0.0),
                                (-80.0, 30.0, 0.0)),
                  subchannel_freqs=(1.0e9, 1.2e9, 0.9e9, 1.1e9),
                  p_ue_max=dbm_to_watts(17.0), snr_thresholds=EASY,
                  fading_model="mixed", rng_seed=4, uav_start=(200.0, 0.0, 130.0))
    beta = np.array([1, 1, 0])
    alloc = np.array([[1, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]])
    p_ue = alloc * np.array([[0.02], [0.04], [0.03]])
    p_uav = np.array([0.1, 0.08, 0.12, 0.0])
    inputs = SlotInputs(sc, beta, alloc, PowerAllocation(p_ue, p_uav),
                        np.array([1.3, 0.7, 1.0]), 2)
    assert inputs.relay_pairs() == ((0, 0), (0, 1), (1, 2))
    return sc, inputs


@pytest.mark.parametrize("shift", [[0.0, 0.0], [5.0, -4.0], [-8.0, 9.0]])
def test_horizontal_gradients_over_pairs(three_pairs, shift):
    _, inputs = three_pairs
    ctx = horizontal_surrogate(inputs, (200.0, 0.0, 130.0))
    point = ctx.x0 + np.array(shift)
    assert grad_check(_stage_objective(ctx, inputs), point) <= 1e-6
    rows = _horizontal_barrier(ctx, inputs).fn
    values, jac = rows(point)
    assert values.shape == (6,) and jac.shape == (6, 2)
    # rows are in the hundreds here, so a 1e-6 m difference step loses digits
    for i in range(values.size):
        assert grad_check(lambda x, i=i: (rows(x)[0][i], rows(x)[1][i]), point,
                          step=1e-4) <= 1e-6


def test_barrier_rows_match_each_hop_floor(three_pairs):
    sc, inputs = three_pairs
    ctx = horizontal_surrogate(inputs, (200.0, 0.0, 130.0))
    values, _ = _horizontal_barrier(ctx, inputs).fn(ctx.x0)
    gains = gain_matrices(sc, (200.0, 0.0, 130.0), inputs.slot_index)
    thr = sc.snr_thresholds
    p_ue, p_uav = inputs.powers.p_ue, inputs.powers.p_uav
    want = [p_ue[n, k] * gains.h_ue_uav[n, k] / (sc.noise_var * thr.ue_uav)
            for n, k in inputs.relay_pairs()]
    want += [p_uav[k] * gains.h_uav_bs[k] / ((sc.noise_var + sc.ici_power) * thr.uav_bs)
             for _, k in inputs.relay_pairs()]
    assert np.allclose(values + 1.0, want, rtol=1e-10, atol=0.0)


def test_one_channel_evaluation_per_audited_position(three_pairs, monkeypatch):
    _, inputs = three_pairs
    calls = []
    original = trajectory.gain_matrices

    def counted(scenario, pos, slot_index=0):
        calls.append(tuple(float(v) for v in pos))
        return original(scenario, pos, slot_index)

    monkeypatch.setattr(trajectory, "gain_matrices", counted)
    start = (170.0, -40.0, 130.0)
    res = to_algorithm(UavState(start, start), inputs)
    assert len(calls) > 2
    assert len(calls) == len(set(calls))
    accepted = {tuple(float(v) for v in row[1:4]) for log in res.logs for row in log.rows}
    assert accepted <= set(calls)
    assert calls[0] == start


# ---------------------------------------------------------------------------
# Horizontal stage.

def test_solve_horizontal_no_relay_keeps_position(two_ue):
    sc, inputs, _ = two_ue
    quiet = SlotInputs(sc, np.zeros(2, dtype=int), inputs.alloc, inputs.powers,
                       inputs.weights, 0)
    xy, log = run_horizontal((170.0, -40.0, 130.0), quiet)
    assert np.allclose(xy, (170.0, -40.0))
    assert log.iterations == 0


def test_solve_horizontal_moves_toward_far_ue_axis(two_ue):
    sc, inputs, _ = two_ue
    start = (170.0, -40.0, 130.0)
    xy, log = run_horizontal(start, inputs)
    axis = np.array(sc.ue_positions[0][:2])
    axis /= np.linalg.norm(axis)

    def axis_dist(p):
        return float(np.linalg.norm(p - (p @ axis) * axis))

    assert axis_dist(xy) < axis_dist(np.array(start[:2]))
    objs = [row[4] for row in log.rows]
    assert objs[-1] > exact_objective(start, inputs)
    assert all(b >= a - 1e-9 for a, b in zip(objs, objs[1:]))


def test_solve_horizontal_makes_one_scp_step(two_ue, monkeypatch):
    # from here the first step gains more than 1% of the relayed
    # objective, so a stage with a stop of its own would step again; the
    # slot's block-coordinate loop, not the stage, is what repeats it
    _, inputs, _ = two_ue
    start = (170.0, -40.0, 130.0)
    solves = []
    original = trajectory.maximize_concave

    def counted(*args, **kwargs):
        solves.append(1)
        return original(*args, **kwargs)

    monkeypatch.setattr(trajectory, "maximize_concave", counted)
    _, log = run_horizontal(start, inputs)
    assert len(solves) == 1
    assert (log.iterations, log.accepted, len(log.rows)) == (1, 1, 1)
    assert log.rows[0][4] > exact_objective(start, inputs)


def test_solve_horizontal_records_the_inner_iteration_cap(two_ue, monkeypatch):
    _, inputs, _ = two_ue
    monkeypatch.setattr(trajectory, "_INNER_ITERS", 1)
    _, log = run_horizontal((170.0, -40.0, 130.0), inputs)
    assert log.capped


def test_step_search_extends_a_short_surrogate_step(two_ue, monkeypatch):
    # from here the surrogate's maximizer lies 2.7 m off, well inside the
    # 15 m move disc, while the exact objective keeps rising beyond it
    _, inputs, _ = two_ue
    start = (170.0, 20.0, 130.0)
    solved = []
    original = trajectory.maximize_concave

    def recorded(*args, **kwargs):
        res = original(*args, **kwargs)
        solved.append(res.x)
        return res

    monkeypatch.setattr(trajectory, "maximize_concave", recorded)
    _, log = run_horizontal(start, inputs)
    row = log.rows[0]
    xy0, xy = np.array(start[:2]), np.array(row[1:3])
    assert np.linalg.norm(xy - xy0) >= 2.0 * np.linalg.norm(solved[0] - xy0)
    assert row[4] >= exact_objective((*solved[0], start[2]), inputs)


def test_step_search_stays_in_a_small_move_disc(two_ue):
    sc, inputs, _ = two_ue
    small = replace(inputs, scenario=replace(sc, d_max=5.0))
    start = (170.0, 20.0, 130.0)
    audit, _ = solve_horizontal(_audit(start, small), start, small)
    r_eff = move_radius(5.0, sc.e_max, sc.slot_len, sc.propulsion)
    dist = float(np.linalg.norm(audit.position - np.array(start)))
    # the doubled trials are projected onto the disc: they reach its edge
    # (the surrogate's own step is 2.7 m) and never leave it
    assert r_eff - 1e-9 <= dist <= r_eff + 1e-9
    assert _audit(audit.position, small).surplus >= -1e-6


def test_solve_horizontal_infeasible_set_keeps_position():
    _, inputs = relay_inputs([(350.0, 0.0, 0.0)], (250.0, 0.0, 100.0),
                             n_subchannels=2,
                             thresholds=SnrThresholds(1e8, 1e8, 1e8))
    start = (250.0, 0.0, 100.0)
    xy, log = run_horizontal(start, inputs)
    assert np.allclose(xy, start[:2])
    assert "no room" in log.reason


def test_solve_horizontal_zero_radius_keeps_position(two_ue):
    sc, inputs, _ = two_ue
    pinned = SlotInputs(replace(sc, d_max=0.0), inputs.beta, inputs.alloc,
                        inputs.powers, inputs.weights, 0)
    start = (170.0, -40.0, 130.0)
    xy, _ = run_horizontal(start, pinned)
    assert np.allclose(xy, start[:2])


# ---------------------------------------------------------------------------
# Altitude.

def test_solve_altitude_holds_the_start():
    _, inputs = relay_inputs([(350.0, 0.0, 0.0)], (250.0, 0.0, 100.0), n_subchannels=2)
    start = _audit((250.0, 0.0, 100.0), inputs)
    audit, log = solve_altitude(start, (247.0, 4.0, 100.0), inputs)
    assert audit is start
    assert (log.stage, log.objective, log.reason) == ("altitude", start.objective,
                                                      "altitude held")


# ---------------------------------------------------------------------------
# The trajectory stage.

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
    assert res.position[2] == start[2]
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


@pytest.mark.parametrize("case", ["two_ue", "far_relay"])
def test_to_algorithm_is_one_horizontal_run(request, case):
    if case == "two_ue":
        _, inputs, _ = request.getfixturevalue("two_ue")
        start = (170.0, -40.0, 130.0)
    else:
        _, inputs = relay_inputs([(350.0, 0.0, 0.0)], (250.0, 0.0, 100.0),
                                 n_subchannels=2)
        start = (250.0, 0.0, 100.0)
    res = to_algorithm(UavState(start, start), inputs)
    run, _ = solve_horizontal(_audit(start, inputs), start, inputs)
    assert np.array_equal(res.position, run.position)
    assert res.objective == run.objective
    # the reported objective is the one its position reaches
    assert res.objective == exact_objective(res.position, inputs)
    assert [log.stage for log in res.logs] == ["horizontal", "altitude"]
    assert res.passes == 1


def test_to_algorithm_no_relay_is_a_no_op(two_ue):
    sc, inputs, _ = two_ue
    quiet = SlotInputs(sc, np.zeros(2, dtype=int), inputs.alloc, inputs.powers,
                       inputs.weights, 0)
    start = (170.0, -40.0, 130.0)
    res = to_algorithm(UavState(start, start), quiet)
    assert np.allclose(res.position, start)
    assert res.passes == 0


def test_stage_trace_csv_round_trip(tmp_path, two_ue):
    _, inputs, _ = two_ue
    start = (170.0, -40.0, 130.0)
    res = to_algorithm(UavState(start, start), inputs)
    path = tmp_path / "trace.csv"
    write_stage_trace(res.logs, path)
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["stage", "iteration", "x", "y", "z", "objective", "snr_surplus"]
    assert len(rows) - 1 == sum(len(log.rows) for log in res.logs)
    assert all(r[0] == "horizontal" for r in rows[1:])
