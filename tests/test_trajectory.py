"""Trajectory stage tests: tangent bound quality, surrogate rate
properties, stage solver contracts, `to_algorithm`'s constraint and
monotonicity audits, and its drift when nothing is relayed."""

import math
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from gradcheck import grad_check, hess_check

from uavrelay import run_episode, trajectory, validate_solution
from uavrelay.channel import gain_matrices, slot_channel
from uavrelay.convex_core import Diagnostics, FeasibleSet, SolveResult
from uavrelay.link_rate import (
    HALF_LOG2E,
    QOS_TOL,
    LinkBudget,
    PowerAllocation,
    dc_k,
    rate_report,
)
from uavrelay.scenario import Scenario, SnrThresholds, dbm_to_watts
from uavrelay.trajectory import (
    Audit,
    SlotInputs,
    _horizontal_objective,
    horizontal_surrogate,
    solve_altitude,
    solve_horizontal,
    to_algorithm,
)
from uavrelay.uav_power import flying_power_upper, move_radius

from test_orchestrator import same_gains

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))
import workloads  # noqa: E402

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


def _audit(pos, inputs, gains=None):
    """The slot at UAV position `pos` priced alone, from one channel and
    one rate evaluation, or none of the channel when `gains` is the exact
    channel at `pos`: `_audits`' sequential reference, and the audited
    start that a caller of the stage holds."""
    pos = np.array(pos, dtype=float)
    if gains is None:
        gains = gain_matrices(inputs.scenario, pos, inputs.slot_index)
    report = rate_report(inputs.beta, inputs.alloc, inputs.powers, gains, inputs.weights,
                         inputs.scenario)
    return Audit(inputs, pos, gains, report.objective, report.per_ue_rate)


def worst_margin(pos, inputs):
    """The worst SNR margin, SNR / threshold - 1, over the relayed hops
    with the UAV at `pos`: inf when nothing is relayed."""
    gains = gain_matrices(inputs.scenario, np.array(pos, dtype=float), inputs.slot_index)
    link = rate_report(inputs.beta, inputs.alloc, inputs.powers, gains, inputs.weights,
                       inputs.scenario).link
    return float(min(m[link.relay].min(initial=math.inf) for m in link.margins()))


def exact_objective(pos, inputs):
    return _audit(pos, inputs).objective


def reference_cores(cores, xy):
    """Every peer core's bound (N + 1,) and gradient (N + 1, 2) at `xy`,
    the offsets diff = xy - peer (N + 1, 2), and two weights (N + 1,)
    each that give the Hessians, -(iso I + aniso diff diff^T): a
    vectorized reference, independent of `_PeerCores.at`, on the
    constants the cores hold per peer.  The bound is the tangent of the
    reciprocal at shape0, 2/shape0 - shape/shape0^2, of the convex
    pathloss shape d^2 * mixture.  With u = e / slant, the gradient is
    -coef diff / shape0^2, coef = 2 mix + d^2 u dmix, and the gradient of
    coef is c2 diff: iso is coef / shape0^2 and aniso c2 / shape0^2."""
    px, py, dz2, inv_dz2, exp_slope, exp_shift, m0, m1, dmix, two_over_shape0, \
        inv_shape0_sq = np.array(cores.peers).T
    diff = np.asarray(xy, dtype=float) - np.column_stack((px, py))
    r2 = np.einsum("ij,ij->i", diff, diff)
    slant = np.sqrt(1.0 + r2 * inv_dz2)
    e = cores.a * np.exp(np.minimum(exp_slope * slant + exp_shift, trajectory._EXP_CAP))
    d2, mix, u = r2 + dz2, m0 - m1 * e, e / slant
    iso = (2.0 * mix + d2 * u * dmix) * inv_shape0_sq
    aniso = dmix * u * (4.0 + d2 * (exp_slope * slant - 1.0) * inv_dz2 / (slant * slant)) \
        * inv_shape0_sq
    return (two_over_shape0 - d2 * mix * inv_shape0_sq, -iso[:, None] * diff, diff, iso, aniso)


def peer_bounds(ctx, inputs, xy):
    """The horizontal stage's tangent bounds at `xy` on every air gain:
    (N, K) UE-to-UAV and (K,) UAV-to-BS, from the context's peer cores
    and the slot's position-free scales."""
    v = reference_cores(ctx.cores, xy)[0]
    bound = slot_channel(inputs.scenario, inputs.slot_index).air_scale * v[:, None]
    return bound[:-1], bound[-1]


def surrogate_rate(xy, ctx, inputs, ue=0):
    """The horizontal stage's concave bound on the relayed rate of UE `ue`
    at `xy`, summed over its pairs and linearized at the context's
    expansion point: the stage objective is linear in the weights, so
    the bound is the objective with weight 1 on the UE less the objective
    with every weight 0."""
    xy = np.asarray(xy, dtype=float)
    weights = np.zeros_like(inputs.weights)
    without = _horizontal_objective(ctx, replace(inputs, weights=weights))(xy)[0]
    weights[ue] = 1.0
    with_ue = _horizontal_objective(ctx, replace(inputs, weights=weights))(xy)[0]
    return with_ue - without if math.isfinite(without) else -math.inf


def written_out_objective(ctx, inputs):
    """The stage objective written out pair by pair and hop by hop from the
    peer cores: the weighted K of each pair's two hop signals, less M's
    tangent at the expansion point, and -inf where a hop's signal plus
    noise is not positive.  Each point gives (value, gradient, Hessian)
    and the summed norms of the gradient's terms, the scale of its
    rounding where the terms cancel, as at the solve's stationary
    points."""
    sc = inputs.scenario
    scale = slot_channel(sc, inputs.slot_index).air_scale
    sigma2, ici = sc.noise_var, sc.ici_power
    bs = len(sc.ue_positions)
    v0, g0 = reference_cores(ctx.cores, ctx.x0)[:2]

    def hops(n, k):
        """(power times scale, peer, noise) of both hops."""
        return ((inputs.powers.p_ue[n, k] * scale[n, k], n, sigma2),
                (inputs.powers.p_uav[k] * scale[-1, k], bs, sigma2 + ici))

    def objective(xy):
        v, g, diff, iso, aniso = reference_cores(ctx.cores, xy)
        val, grad, hess, scale_g = 0.0, np.zeros(2), np.zeros((2, 2)), 0.0
        for n, k in zip(ctx.ue, ctx.sub):
            w = inputs.weights[n]
            (c1, n1, _), (c2, n2, _) = hops(n, k)
            inner = (1.0 + ici / sigma2) * c1 * v0[n1] + c2 * v0[n2] + sigma2 + ici
            m_slope = HALF_LOG2E / inner * ((1.0 + ici / sigma2) * c1 * g0[n1] + c2 * g0[n2])
            val -= w * (0.5 * math.log2(sigma2 * inner) + m_slope @ (xy - ctx.x0))
            grad -= w * m_slope
            scale_g += np.linalg.norm(w * m_slope)
            for c, peer, noise in hops(n, k):
                a = c * v[peer] + noise
                if a <= 0.0:
                    return -math.inf, None, None, None
                h_peer = -(iso[peer] * np.eye(2) + aniso[peer] * np.outer(diff[peer], diff[peer]))
                outer = np.outer(g[peer], g[peer])
                val += w * 0.5 * math.log2(a)
                grad += w * HALF_LOG2E / a * c * g[peer]
                scale_g += np.linalg.norm(w * HALF_LOG2E / a * c * g[peer])
                hess += w * HALF_LOG2E / a * (c * h_peer - c * c / a * outer)
        return val, grad, hess, scale_g

    return objective


def true_gains(sc, xy, z=130.0):
    gains = gain_matrices(sc, (xy[0], xy[1], z), 0)
    return gains.h_ue_uav, gains.h_uav_bs


def run_horizontal(start, inputs):
    return solve_horizontal(_audit(start, inputs), start)


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
    # the hops read the same bounds, access hops first
    v = reference_cores(ctx.cores, pos[:2])[0]
    h1, h2 = np.split(ctx.scale * v[ctx.rows], 2)
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
    # two_ue relays UE 0 alone, so its pairs are all of the context's
    sc, inputs, ctx = two_ue
    pos = np.array([200.0, 0.0, 130.0])
    gains = gain_matrices(sc, pos, 0)
    report = rate_report(inputs.beta, inputs.alloc, inputs.powers, gains, inputs.weights, sc)
    rate = np.zeros(np.shape(inputs.alloc))
    rate[report.pairs] = report.link.rate
    want = rate[ctx.ue, ctx.sub].sum()
    got = surrogate_rate(pos[:2], ctx, inputs)
    assert abs(got - want) <= 1e-10 * want


def test_surrogate_rate_dominated_by_bound_rate(two_ue):
    sc, inputs, ctx = two_ue
    checked = 0
    for p in ball_points(np.array([200.0, 0.0]), sc.d_max, 1000, seed=7):
        r_hat = surrogate_rate(p, ctx, inputs)
        if r_hat == -math.inf:  # a hop below its floor
            continue
        hu, hb = peer_bounds(ctx, inputs, p)
        bound_rate = sum(relayed_rate(sc, inputs.powers.p_ue[n, k], inputs.powers.p_uav[k],
                                      hu[n, k], hb[k]) for n, k in zip(ctx.ue, ctx.sub))
        assert r_hat <= bound_rate + 1e-12
        checked += 1
    assert checked >= 900


def test_surrogate_rate_midpoint_concavity(two_ue):
    sc, inputs, ctx = two_ue
    objective = _horizontal_objective(ctx, inputs)
    pts = ball_points(np.array([200.0, 0.0]), sc.d_max, 400, seed=9)
    for p, q in zip(pts[::2], pts[1::2]):
        mid = surrogate_rate(0.5 * (p + q), ctx, inputs)
        avg = 0.5 * (surrogate_rate(p, ctx, inputs) + surrogate_rate(q, ctx, inputs))
        assert avg - mid <= 1e-9
        # and with the barrier, which is concave too
        mid = objective(0.5 * (p + q))[0]
        avg = 0.5 * (objective(p)[0] + objective(q)[0])
        assert avg - mid <= 1e-9


def test_nudged_expansion_above_peer():
    sc, inputs = relay_inputs([(300.0, 40.0, 0.0)], (300.0, 40.0, 130.0),
                              n_subchannels=2)
    pos = np.array([300.0, 40.0, 130.0])
    ctx = horizontal_surrogate(inputs, pos)
    assert not np.array_equal(ctx.x0, pos[:2])
    for p in ball_points(pos[:2], sc.d_max, 300, seed=11):
        h = peer_bounds(ctx, inputs, p)[0][0, 0]
        true = true_gains(sc, p)[0][0, 0]
        assert h <= true * (1.0 + 1e-12)


# ---------------------------------------------------------------------------
# The stage objective: surrogate rates and hop floors in one pass.

def test_horizontal_objective_gradient(two_ue):
    _, inputs, ctx = two_ue
    objective = _horizontal_objective(ctx, inputs)
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
    assert grad_check(_horizontal_objective(ctx, inputs), point) <= 1e-6
    # each peer core's bound, whose gradient the pass weighs per core
    for i in range(len(inputs.scenario.ue_positions) + 1):
        assert grad_check(lambda x, i=i: [part[i] for part in reference_cores(ctx.cores, x)[:2]],
                          point) <= 1e-6


def core_hessians(cores, xy):
    """Each peer core's bound, gradient and Hessian, (N + 1,), (N + 1, 2)
    and (N + 1, 2, 2), from the Hessian weights `reference_cores` returns."""
    v, g, diff, iso, aniso = reference_cores(cores, xy)
    return v, g, -(iso[:, None, None] * np.eye(2)
                   + aniso[:, None, None] * diff[:, :, None] * diff[:, None, :])


@pytest.mark.parametrize("fixture", ["two_ue", "three_pairs"])
@pytest.mark.parametrize("shift", [[0.0, 0.0], [5.0, -4.0], [-8.0, 9.0]])
def test_horizontal_hessians(request, fixture, shift):
    # positions are in metres, so a 1e-4 m difference step keeps the digits
    inputs = request.getfixturevalue(fixture)[1]
    ctx = horizontal_surrogate(inputs, (200.0, 0.0, 130.0))
    point = ctx.x0 + np.array(shift)
    assert hess_check(_horizontal_objective(ctx, inputs), point, step=1e-4) <= 1e-6
    for i in range(len(inputs.scenario.ue_positions) + 1):
        assert hess_check(lambda x, i=i: [part[i] for part in core_hessians(ctx.cores, x)],
                          point, step=1e-4) <= 1e-6
    # dc_k's partials, at the hop signals of the bounds at `point`
    sc = inputs.scenario
    pp = np.concatenate([inputs.powers.p_ue[ctx.ue, ctx.sub], inputs.powers.p_uav[ctx.sub]])
    s0 = pp * ctx.scale * reference_cores(ctx.cores, point)[0][ctx.rows]
    noise = np.repeat((sc.noise_var, sc.noise_var + sc.ici_power), ctx.ue.size)

    def k_sum(s):
        # K is a sum over hops, each term's second partial -dK/ds / a
        k, dk = dc_k(s, noise)
        return k.sum(), dk, np.diag(-dk / (s + noise))

    assert hess_check(k_sum, s0, step=1e-3 * float(np.min(s0 + noise))) <= 1e-6


@pytest.mark.parametrize("fixture", ["two_ue", "three_pairs"])
def test_fused_objective_matches_written_out_hops(request, fixture):
    sc, inputs = request.getfixturevalue(fixture)[:2]
    ctx = horizontal_surrogate(inputs, (200.0, 0.0, 130.0))
    fused, written = _horizontal_objective(ctx, inputs), written_out_objective(ctx, inputs)
    for p in ball_points(ctx.x0, sc.d_max, 50, seed=13):
        (val, grad, hess), (val_w, grad_w, hess_w, *_) = fused(p), written(p)
        if val_w == -math.inf:
            assert val == -math.inf
            continue
        assert val == pytest.approx(val_w, rel=1e-12)
        assert np.linalg.norm(grad - grad_w) <= 1e-12 * np.linalg.norm(grad_w)
        assert np.linalg.norm(hess - hess_w) <= 1e-12 * np.linalg.norm(hess_w)


def assert_fused_matches_written_out(ctx, inputs, points) -> int:
    """The fused objective against `written_out_objective` at each point
    of a real solve: the value to 1e-12 relative, the gradient to 1e-12
    of its terms' scale and the Hessian to 1e-12 in norm, and -inf where
    a hop's signal plus noise is not positive.  Returns the number of -inf
    points.

    A solve ends where its gradient's terms cancel, to about 1e-13 from
    terms of about 1e-3, so the gradient is held to the terms' scale, not
    its own norm."""
    fused, written = _horizontal_objective(ctx, inputs), written_out_objective(ctx, inputs)
    outside = 0
    for p in points:
        (val, grad, hess), (val_w, grad_w, hess_w, scale_g) = fused(p), written(p)
        if val_w == -math.inf:
            assert val == -math.inf
            outside += 1
            continue
        assert val == pytest.approx(val_w, rel=1e-12)
        assert np.linalg.norm(grad - grad_w) <= 1e-12 * scale_g
        assert np.linalg.norm(hess - hess_w) <= 1e-12 * np.linalg.norm(hess_w)
    return outside


def test_fused_objective_matches_written_out_hops_on_benchmark_slots(monkeypatch):
    # every point that each horizontal solve evaluates over episodes 0-2 of
    # the relay_mixed (jmstp) and random_cold (random) benchmark panels,
    # and over episode 4, the first where one UE peer carries two access
    # hops
    solves = []
    surrogate, solve = trajectory.horizontal_surrogate, trajectory.maximize_concave

    def built(inputs, position):
        ctx = surrogate(inputs, position)
        solves.append((ctx, inputs, []))
        return ctx

    def recorded(objective, *args, **kwargs):
        points = solves[-1][2]

        def evaluate(xy):
            points.append(np.array(xy, dtype=float))
            return objective(xy)
        return solve(evaluate, *args, **kwargs)

    monkeypatch.setattr(trajectory, "horizontal_surrogate", built)
    monkeypatch.setattr(trajectory, "maximize_concave", recorded)
    for algorithm in ("jmstp", "random"):
        for seed in (0, 1, 2, 4):
            run_episode(Scenario(n_ues=5, n_subchannels=10, n_slots=10, d_max=25.0,
                                 fading_model="mixed", rng_seed=seed).with_positions(seed),
                        algorithm)
    assert any(np.bincount(ctx.ue).max() >= 2 for ctx, _, _ in solves)
    for ctx, inputs, points in solves:
        assert_fused_matches_written_out(ctx, inputs, points)


@pytest.mark.parametrize("fixture", ["two_ue", "three_pairs"])
def test_peer_pass_matches_the_reference(request, fixture):
    sc, inputs = request.getfixturevalue(fixture)[:2]
    ctx = horizontal_surrogate(inputs, (200.0, 0.0, 130.0))
    every = range(len(ctx.cores.peers))
    for p in ball_points(ctx.x0, sc.d_max, 50, seed=17):
        got = np.array(ctx.cores.at(*p, every))
        v, g, diff, iso, aniso = reference_cores(ctx.cores, p)
        want = np.column_stack((v, diff, iso, aniso))
        assert np.allclose(got, want, rtol=1e-13, atol=0.0)
        assert np.allclose(-got[:, 3:4] * got[:, 1:3], g, rtol=1e-13, atol=0.0)


@pytest.mark.parametrize("fixture", ["two_ue", "three_pairs"])
def test_exponent_cap_holds_far_outside_the_move_disc(request, fixture):
    # 20 km from the expansion point the uncapped exponents of the loose
    # tangents pass the ~709 at which math.exp overflows: the evaluation
    # caps them at `_EXP_CAP` and agrees with the reference there
    inputs = request.getfixturevalue(fixture)[1]
    ctx = horizontal_surrogate(inputs, (200.0, 0.0, 130.0))
    angles = np.linspace(0.0, 2.0 * math.pi, 8, endpoint=False)
    points = ctx.x0 + 20e3 * np.column_stack((np.cos(angles), np.sin(angles)))
    exponents = [slope * math.sqrt(1.0 + float(np.sum((p - (px, py)) ** 2)) * inv_dz2) + shift
                 for p in points for px, py, _, inv_dz2, slope, shift, *_ in ctx.cores.peers]
    assert max(exponents) > math.log(np.finfo(float).max)
    for p in points:
        got = np.array(ctx.cores.at(*p, range(len(ctx.cores.peers))))
        v, _, diff, iso, aniso = reference_cores(ctx.cores, p)
        assert np.allclose(got, np.column_stack((v, diff, iso, aniso)), rtol=1e-13, atol=0.0)
    assert assert_fused_matches_written_out(ctx, inputs, points) == len(points)


def test_peer_cores_reject_a_peer_above_the_uav_and_a_degenerate_expansion():
    peers_xy = np.array([[0.0, 0.0], [50.0, 0.0]])
    params = Scenario().a2g
    with pytest.raises(ValueError, match="below the UAV"):
        trajectory._PeerCores(peers_xy, np.array([100.0, 0.0]), params, np.array([10.0, 0.0]))
    with pytest.raises(ValueError, match="degenerate"):
        trajectory._PeerCores(peers_xy, np.array([100.0, 100.0]), params,
                              np.array([50.0, 0.01]))


def record_channel_passes(monkeypatch):
    """Every UAV position the trajectory stage evaluates the channel at,
    as one list per `gain_matrices` call (a pass over a stack of
    positions, or a lone position), and the number of those passes that
    each `_step_search` call made."""
    passes, per_search = [], []
    original, search = trajectory.gain_matrices, trajectory._step_search

    def counted(scenario, pos, slot_index=0):
        rows = np.atleast_2d(np.asarray(pos, dtype=float))
        passes.append([tuple(float(v) for v in row) for row in rows])
        return original(scenario, pos, slot_index)

    def counted_search(*args):
        before = len(passes)
        out = search(*args)
        per_search.append(len(passes) - before)
        return out

    monkeypatch.setattr(trajectory, "gain_matrices", counted)
    monkeypatch.setattr(trajectory, "_step_search", counted_search)
    return passes, per_search


def test_stacked_audits_match_their_sequential_reference(three_pairs):
    # one pass over a stack: each position's audit bit for bit as priced
    # alone, or None exactly where a relayed hop misses its floor
    _, inputs = three_pairs
    positions = np.array([(200.0, 0.0, 130.0), (170.0, -40.0, 130.0), (900.0, 40.0, 130.0),
                          (-600.0, -500.0, 130.0), (300.0, 40.0, 130.0)])
    got = trajectory._audits(positions, inputs)
    clear = [worst_margin(pos, inputs) >= -QOS_TOL for pos in positions]
    assert any(clear) and not all(clear)
    assert [audit is not None for audit in got] == clear
    for audit, pos in zip(got, positions):
        if audit is not None:
            assert_same_step(audit, _audit(pos, inputs))
            assert audit.inputs is inputs


def test_one_channel_evaluation_per_audited_position(three_pairs, monkeypatch):
    # every trial position is evaluated once, in at most two passes, and
    # the start, which the caller holds audited, not at all; from this
    # start the full step and two doublings are audited
    _, inputs = three_pairs
    start = (170.0, 20.0, 130.0)
    audited = _audit(start, inputs)
    passes, per_search = record_channel_passes(monkeypatch)
    res = to_algorithm(audited, start)
    positions = [pos for batch in passes for pos in batch]
    assert len(positions) >= 2
    assert len(positions) == len(set(positions))
    assert tuple(float(v) for v in res.audit.position) in positions
    assert start not in positions
    assert per_search == [len(passes)] and 1 <= per_search[0] <= 2


# ---------------------------------------------------------------------------
# Horizontal stage.

def test_solve_horizontal_moves_toward_far_ue_axis(two_ue):
    sc, inputs, _ = two_ue
    start = (170.0, -40.0, 130.0)
    audit, log = run_horizontal(start, inputs)
    xy = audit.position[:2]
    axis = np.array(sc.ue_positions[0][:2])
    axis /= np.linalg.norm(axis)

    def axis_dist(p):
        return float(np.linalg.norm(p - (p @ axis) * axis))

    assert axis_dist(xy) < axis_dist(np.array(start[:2]))
    assert log.accepted == 1
    assert audit.objective > exact_objective(start, inputs)


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
    audit, log = run_horizontal(start, inputs)
    assert len(solves) == 1
    assert (log.iterations, log.accepted) == (1, 1)
    assert audit.objective > exact_objective(start, inputs)


def test_solve_horizontal_records_the_inner_iteration_cap(two_ue, monkeypatch):
    _, inputs, _ = two_ue
    monkeypatch.setattr(trajectory, "_INNER_ITERS", 1)
    _, log = run_horizontal((170.0, -40.0, 130.0), inputs)
    assert log.capped


def test_solve_horizontal_names_any_other_unusable_solve(two_ue, monkeypatch):
    _, inputs, _ = two_ue

    def lost(objective, fset, x0, **kwargs):
        return SolveResult(x0, False, Diagnostics(reason="no feasible start derivable"))

    monkeypatch.setattr(trajectory, "maximize_concave", lost)
    start = (170.0, -40.0, 130.0)
    audit, log = run_horizontal(start, inputs)
    assert log.reason == "inner solve unusable: no feasible start derivable"
    assert (log.accepted, audit.position.tolist()) == (0, list(start))


def test_objective_evaluated_once_at_the_incumbent(two_ue, monkeypatch):
    # the inner solve starts at the incumbent and evaluates it once
    _, inputs, _ = two_ue
    start = (170.0, -40.0, 130.0)
    points = []
    build = trajectory._horizontal_objective

    def recorded(ctx, inputs):
        objective = build(ctx, inputs)

        def evaluate(xy):
            points.append(tuple(float(v) for v in xy))
            return objective(xy)
        return evaluate

    monkeypatch.setattr(trajectory, "_horizontal_objective", recorded)
    run_horizontal(start, inputs)
    assert points.count(start[:2]) == 1
    assert len(points) > 1


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
    audit, log = run_horizontal(start, inputs)
    assert log.accepted == 1
    xy0, xy = np.array(start[:2]), audit.position[:2]
    assert np.linalg.norm(xy - xy0) >= 2.0 * np.linalg.norm(solved[0] - xy0)
    assert audit.objective >= exact_objective((*solved[0], start[2]), inputs)


def test_step_search_stays_in_a_small_move_disc(two_ue):
    sc, inputs, _ = two_ue
    small = replace(inputs, scenario=replace(sc, d_max=5.0))
    start = (170.0, 20.0, 130.0)
    audit, _ = solve_horizontal(_audit(start, small), start)
    r_eff = move_radius(5.0, sc.e_max, sc.slot_len, sc.propulsion)
    dist = float(np.linalg.norm(audit.position - np.array(start)))
    # the doubled trials are projected onto the disc: they reach its edge
    # (the surrogate's own step is 2.7 m) and never leave it
    assert r_eff - 1e-9 <= dist <= r_eff + 1e-9
    assert worst_margin(audit.position, small) >= -1e-6


# ---------------------------------------------------------------------------
# The step search against its sequential reference: one `_audit` per trial.

def sequential_step_search(incumbent, xy_cand, project):
    """`_step_search` written out trial by trial, one `_audit` and one
    `worst_margin` each: the full step, then halvings until a trial keeps
    the objective and the SNRs, or, when the full step is kept, projected
    doublings while they strictly raise the objective with the SNRs
    clear and each moves the kept position by more than the shortest
    halving.  A trial on the incumbent is the incumbent, which clears its
    floors."""
    floor = incumbent.objective - trajectory._ACCEPT_SLACK * max(1.0, abs(incumbent.objective))
    xy_inc, z = incumbent.position[:2], incumbent.position[2]
    step = xy_cand - xy_inc

    def audit(xy):
        pos = (xy[0], xy[1], z)
        if np.array_equal(pos, incumbent.position):
            return incumbent, math.inf
        return _audit(pos, incumbent.inputs), worst_margin(pos, incumbent.inputs)

    tau = 1.0
    for _ in range(trajectory._BACKTRACK_STEPS):
        kept, margin = audit(xy_inc + tau * step)
        if kept.objective >= floor and margin >= -QOS_TOL:
            break
        tau *= 0.5
    else:
        return None
    if tau < 1.0:
        return kept
    for _ in range(trajectory._EXTEND_STEPS):
        tau *= 2.0
        xy = project(xy_inc + tau * step)
        if math.dist(xy, kept.position[:2]) <= least_move(step):
            break
        trial, margin = audit(xy)
        if not (trial.objective > kept.objective and margin >= -QOS_TOL):
            break
        kept = trial
    return kept


def least_move(step):
    """The shortest halving's length, under which `_step_search` takes no
    further doubling."""
    return math.hypot(*step) * 2.0 ** (1 - trajectory._BACKTRACK_STEPS)


def assert_same_step(got, want):
    """Bit-identical kept positions, objectives, rates and gains."""
    if want is None:
        assert got is None
        return
    assert np.array_equal(got.position, want.position)
    assert got.objective == want.objective
    assert np.array_equal(got.rates, want.rates)
    assert same_gains(got.gains, want.gains)


def check_against_reference(monkeypatch):
    """Spy on `_step_search`: every call also runs the reference, and the
    two must agree bit for bit.  Returns the list of the calls' answers."""
    checked = []
    search = trajectory._step_search

    def spied(incumbent, xy_cand, project):
        got = search(incumbent, xy_cand, project)
        assert_same_step(got, sequential_step_search(incumbent, xy_cand, project))
        checked.append(got)
        return got

    monkeypatch.setattr(trajectory, "_step_search", spied)
    return checked


@pytest.mark.parametrize("fixture", ["two_ue", "three_pairs"])
@pytest.mark.parametrize("start", [(170.0, 20.0, 130.0), (170.0, -40.0, 130.0)])
def test_step_search_matches_its_reference(request, monkeypatch, fixture, start):
    inputs = request.getfixturevalue(fixture)[1]
    checked = check_against_reference(monkeypatch)
    audit, _ = run_horizontal(start, inputs)
    assert len(checked) == 1 and checked[0] is audit


@pytest.mark.parametrize("fixture", ["two_ue", "three_pairs"])
@pytest.mark.parametrize("length, kept", [(-12.0, False), (300.0, True)])
def test_step_search_matches_its_reference_on_a_refused_full_step(request, monkeypatch,
                                                                fixture, length, kept):
    # a candidate `length` m along the surrogate's own step: 12 m against
    # it, where no halving keeps the objective, or 300 m along it, which
    # overshoots; either way the full step drops the exact objective, so
    # the halvings make a second pass
    sc, inputs = request.getfixturevalue(fixture)[:2]
    start = np.array([170.0, -40.0, 130.0])
    incumbent = _audit(start, inputs)
    fset = FeasibleSet(ball=(start[:2], 15.0))
    solved = run_horizontal(tuple(start), inputs)[0].position[:2]
    cand = start[:2] + length * (solved - start[:2]) / np.linalg.norm(solved - start[:2])
    assert _audit((*cand, start[2]), inputs).objective < incumbent.objective
    passes, _ = record_channel_passes(monkeypatch)
    got = trajectory._step_search(incumbent, cand, fset.project)
    assert len(passes) == 2 and len(passes[1]) == trajectory._BACKTRACK_STEPS - 1
    assert (got is not None) == kept
    assert_same_step(got, sequential_step_search(incumbent, cand, fset.project))


def test_step_search_matches_its_reference_on_the_disc_edge(two_ue, monkeypatch):
    # the doublings are projected onto a 5 m disc and stop on its edge
    sc, inputs, _ = two_ue
    small = replace(inputs, scenario=replace(sc, d_max=5.0))
    checked = check_against_reference(monkeypatch)
    start = (170.0, 20.0, 130.0)
    audit, _ = solve_horizontal(_audit(start, small), start)
    r_eff = move_radius(5.0, sc.e_max, sc.slot_len, sc.propulsion)
    assert float(np.linalg.norm(audit.position - np.array(start))) == \
        pytest.approx(r_eff, abs=1e-9)
    assert len(checked) == 1 and checked[0] is audit


@pytest.mark.parametrize("algorithm", ["jmstp", "random"])
@pytest.mark.parametrize("seed", [0, 1])
def test_step_search_matches_its_reference_over_panel_episodes(monkeypatch, algorithm,
                                                               seed):
    # relay_mixed's (jmstp) and random_cold's (random) first two benchmark
    # episodes: every step search their slots make
    checked = check_against_reference(monkeypatch)
    sc = Scenario(n_ues=5, n_subchannels=10, n_slots=10, d_max=25.0,
                  fading_model="mixed", rng_seed=seed).with_positions(seed)
    run_episode(sc, algorithm)
    assert len(checked) >= 10


@pytest.mark.parametrize("algorithm", ["jmstp", "random"])
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_no_two_audited_trials_of_a_search_lie_within_the_shortest_halving(
        monkeypatch, algorithm, seed):
    # relay_mixed's (jmstp) and random_cold's (random) benchmark episodes:
    # a doubling projected onto the move disc's edge lands close to the
    # trial before it, and a trial within the shortest halving's length of
    # another is not audited
    searches = []
    search, audits = trajectory._step_search, trajectory._audits

    def spied_search(incumbent, xy_cand, project):
        searches.append((least_move(xy_cand - incumbent.position[:2]), []))
        return search(incumbent, xy_cand, project)

    def spied_audits(positions, inputs):
        searches[-1][1].extend(positions[:, :2].tolist())
        return audits(positions, inputs)

    monkeypatch.setattr(trajectory, "_step_search", spied_search)
    monkeypatch.setattr(trajectory, "_audits", spied_audits)
    workload = workloads.WORKLOADS["relay_mixed" if algorithm == "jmstp" else "random_cold"]
    run_episode(workloads.scenario(workload, seed), algorithm)
    assert len(searches) >= 10
    for least, trials in searches:
        for i, a in enumerate(trials):
            # two halvings in a row lie the shortest one apart, to rounding
            assert all(math.dist(a, b) >= least * (1.0 - 1e-6) for b in trials[:i])


def test_dense_jmstp_slots_end_without_a_capped_solve(monkeypatch):
    # 20 x 40 jmstp on seed 9: while a log barrier held the hop floors,
    # Newton crawled along one, and slot 2 ran 97 block-coordinate cycles
    # with 95 horizontal solves at the iteration cap
    stops = []
    solve = trajectory.maximize_concave

    def recorded(*args, **kwargs):
        res = solve(*args, **kwargs)
        stops.append(res.diagnostics.reason)
        return res

    monkeypatch.setattr(trajectory, "maximize_concave", recorded)
    sc = replace(workloads.scenario(workloads.WORKLOADS["dense_cellular"], 9), n_slots=3)
    log = run_episode(sc, "jmstp")
    assert stops and "iteration cap" not in stops
    assert log.slots[2].iterations <= 10
    for t, sol in enumerate(log.slots):
        assert validate_solution(sol, sc, t) == []


def test_solve_horizontal_infeasible_set_keeps_position():
    # floors that no position in the move disc meets: every trial of the
    # step search misses them, so the stage keeps the incumbent
    _, inputs = relay_inputs([(350.0, 0.0, 0.0)], (250.0, 0.0, 100.0),
                             n_subchannels=2,
                             thresholds=SnrThresholds(1e8, 1e8, 1e8))
    start = (250.0, 0.0, 100.0)
    audit, log = run_horizontal(start, inputs)
    assert np.array_equal(audit.position, start)
    assert log.reason == "no step kept the exact objective from dropping"


def test_solve_horizontal_zero_radius_keeps_position(two_ue):
    sc, inputs, _ = two_ue
    pinned = SlotInputs(replace(sc, d_max=0.0), inputs.beta, inputs.alloc,
                        inputs.powers, inputs.weights, 0)
    start = (170.0, -40.0, 130.0)
    audit, _ = run_horizontal(start, pinned)
    assert np.allclose(audit.position[:2], start[:2])


@pytest.mark.parametrize("seed", [0, 1])
def test_every_inner_solve_ends_on_a_certificate_or_the_cap(monkeypatch, seed):
    # relay_mixed's first two benchmark episodes: each horizontal solve
    # stops on the Newton decrement or at `_INNER_ITERS`, never on a
    # stalled line search, and its answer lies inside the objective's
    # domain
    stops = []
    original = trajectory.maximize_concave

    def recorded(objective, *args, **kwargs):
        res = original(objective, *args, **kwargs)
        stops.append(res.diagnostics.reason)
        assert res.feasible and math.isfinite(objective(res.x)[0])
        return res

    monkeypatch.setattr(trajectory, "maximize_concave", recorded)
    sc = Scenario(n_ues=5, n_subchannels=10, n_slots=10, d_max=25.0,
                  fading_model="mixed", rng_seed=seed).with_positions(seed)
    run_episode(sc, "jmstp")
    assert stops
    assert set(stops) <= {"Newton decrement below tolerance", "iteration cap"}
    assert stops.count("iteration cap") <= 0.05 * len(stops)


# ---------------------------------------------------------------------------
# Altitude.

def test_solve_altitude_holds_the_start():
    _, inputs = relay_inputs([(350.0, 0.0, 0.0)], (250.0, 0.0, 100.0), n_subchannels=2)
    start = _audit((250.0, 0.0, 100.0), inputs)
    audit, log = solve_altitude(start, (247.0, 4.0, 100.0))
    assert audit is start
    assert (log.stage, log.reason) == ("altitude", "altitude held")


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
    assert worst_margin(start, inputs) >= 0.0
    res = to_algorithm(before, start).audit
    disp = float(np.linalg.norm(res.position - np.array(start)))
    r_eff = move_radius(sc.d_max, sc.e_max, sc.slot_len, sc.propulsion)
    assert disp <= r_eff + 1e-6
    assert res.position[2] == start[2]
    assert flying_power_upper(disp / sc.slot_len, sc.propulsion) * sc.slot_len \
        <= sc.e_max + 1e-9
    assert res.objective >= before.objective - 1e-9
    assert worst_margin(res.position, inputs) >= -1e-6


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
    res = to_algorithm(_audit(start, inputs), start)
    assert res.passes == 1
    assert float(np.linalg.norm(res.audit.position - np.array(start))) <= 0.5
    assert res.audit.objective - best <= 1e-4 * best


@pytest.mark.parametrize("case", ["two_ue", "far_relay"])
def test_to_algorithm_is_one_horizontal_run(request, case):
    if case == "two_ue":
        _, inputs, _ = request.getfixturevalue("two_ue")
        start = (170.0, -40.0, 130.0)
    else:
        _, inputs = relay_inputs([(350.0, 0.0, 0.0)], (250.0, 0.0, 100.0),
                                 n_subchannels=2)
        start = (250.0, 0.0, 100.0)
    res = to_algorithm(_audit(start, inputs), start)
    run, _ = run_horizontal(start, inputs)
    assert np.array_equal(res.audit.position, run.position)
    assert res.audit.objective == run.objective
    # the reported state is the one its position reaches
    assert_same_step(res.audit, _audit(res.audit.position, inputs))
    assert [log.stage for log in res.logs] == ["horizontal", "altitude"]
    assert res.passes == 1


def direct_inputs(two_ue, starve_ue=None):
    """`two_ue`'s assignments with every UE direct; `starve_ue`, when
    given, loses its subchannels and powers."""
    sc, inputs, _ = two_ue
    alloc, p_ue = inputs.alloc.copy(), inputs.powers.p_ue.copy()
    if starve_ue is not None:
        alloc[starve_ue] = 0
        p_ue[starve_ue] = 0.0
    return SlotInputs(sc, np.zeros(2, dtype=int), alloc,
                      PowerAllocation(p_ue, inputs.powers.p_uav), inputs.weights, 0)


def test_to_algorithm_without_relay_drifts_toward_a_starved_ue(two_ue):
    sc, _, _ = two_ue
    inputs = direct_inputs(two_ue, starve_ue=1)
    start = (230.0, 10.0, 130.0)
    before = _audit(start, inputs)
    assert before.rates[0] > 0.0 and before.rates[1] == 0.0
    res = to_algorithm(before, start)
    # the whole move radius along the line to the starved UE
    r_eff = move_radius(sc.d_max, sc.e_max, sc.slot_len, sc.propulsion)
    step = res.audit.position - np.array(start)
    toward = np.array([*sc.ue_positions[1][:2], start[2]]) - np.array(start)
    assert np.linalg.norm(step) == pytest.approx(r_eff, rel=1e-12)
    assert step @ toward == pytest.approx(np.linalg.norm(step) * np.linalg.norm(toward),
                                          rel=1e-12)
    # the moved state is exact: the rates do not depend on the position
    assert_same_step(res.audit, _audit(res.audit.position, inputs))
    assert np.array_equal(res.audit.rates, before.rates)
    assert res.passes == 0 and res.logs == []


def test_to_algorithm_without_relay_holds_when_every_ue_is_served(two_ue):
    inputs = direct_inputs(two_ue)
    start = (230.0, 10.0, 130.0)
    before = _audit(start, inputs)
    assert np.all(before.rates > 0.0)
    res = to_algorithm(before, start)
    assert res.audit is before
    assert res.passes == 0
