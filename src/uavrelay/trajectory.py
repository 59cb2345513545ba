"""Per-slot UAV position refinement.

Only the relayed links depend on where the UAV sits, so each stage
maximizes a concave surrogate of the weighted relayed rate built around
the current iterate: the horizontal stage works in (x, y) at fixed
altitude with tangent lower bounds on the air gains, the altitude stage
treats the LoS probability as linear in z over small moves.  A proposed
move is kept only if the exact slot objective did not drop, with
step-halving toward the incumbent, so the outer trace is nondecreasing
regardless of surrogate quality.  Whenever an approximated constraint
set turns out empty the stage returns the incumbent unchanged.
"""

from __future__ import annotations

import csv
import math
import warnings
from dataclasses import dataclass, field

import numpy as np

from .channel import gain_matrices, los_probability
from .convex_core import BarrierTerm, FeasibleSet, maximize_concave
from .link_rate import PowerAllocation, rate_report
from .scenario import A2GParams, Scenario, UavState
from .uav_power import move_radius

LN2 = math.log(2.0)

_QOS_SLACK = 1e-9       # relative relaxation of the approximated SNR floors
_QOS_CHECK_TOL = 1e-6   # relative tolerance when re-auditing exact SNRs
_ACCEPT_SLACK = 1e-12   # relative slack when comparing exact objectives
_EXP_CAP = 500.0        # caps exponents where a loose tangent runs wild
_NUDGE = 0.1            # m, horizontal shift applied over a degenerate peer
_BS_CLEARANCE = 1.0     # m, the UAV must stay this far above the BS antenna
_MAX_PASSES = 12
_MAX_STAGE_ITERS = 50
_INNER_ITERS = 150
_BACKTRACK_STEPS = 11   # step fractions 1, 1/2, ..., 2**-10


@dataclass(frozen=True)
class SlotInputs:
    """Everything a trajectory stage needs from the rest of the slot:
    the scenario, the current modes/allocation/powers, and the fairness
    weights.  The slot index pins the fading draws."""

    scenario: Scenario
    beta: np.ndarray
    alloc: np.ndarray
    powers: PowerAllocation
    weights: np.ndarray
    slot_index: int = 0

    def relay_pairs(self) -> tuple[tuple[int, int], ...]:
        """(ue, subchannel) assignments currently served through the UAV."""
        rows, cols = np.nonzero(self.alloc)
        return tuple((int(n), int(k)) for n, k in zip(rows, cols) if self.beta[n])


@dataclass(frozen=True)
class Audit:
    """The exact slot with the UAV at one position."""

    objective: float  # weighted sum rate
    surplus: float    # worst normalized SNR surplus over relayed assignments
    # weighted rate of the cellular UEs: their links never touch the UAV,
    # so this share of the objective is constant in the position, and
    # stage stop rules measure progress against the remainder
    fixed: float


def _audit(pos, inputs: SlotInputs) -> Audit:
    """The slot at UAV position `pos`, from one channel draw."""
    s = inputs.scenario
    gains = gain_matrices(s, pos, inputs.slot_index)
    report = rate_report(inputs.beta, inputs.alloc, inputs.powers, gains,
                         inputs.weights, s)
    beta = np.asarray(inputs.beta)
    relayed = (np.asarray(inputs.alloc) * beta[:, None]) == 1
    surplus = min((g / t)[relayed].min(initial=math.inf)
                  for g, t in zip(report.link.snr, report.link.thresholds())) - 1.0
    cellular = beta == 0
    fixed = float(np.dot(inputs.weights[cellular], report.per_ue_rate[cellular]))
    return Audit(report.objective, surplus, fixed)


# ---------------------------------------------------------------------------
# Horizontal stage: concave tangent bounds on the air gains in (x, y).

class _PeerCore:
    """Concave lower bound, and its gradient, on the frequency-free
    reciprocal pathloss 1 / (d^2 * mixture) toward one ground peer, as a
    function of the UAV's horizontal position at fixed altitude.

    Built from three tangents taken at the expansion point: the elevation
    angle in the slant ratio, the logistic LoS probability in the angle,
    and the reciprocal in the resulting pathloss.  Each tangent is global,
    so the composite is a global lower bound, tight at the expansion.
    """

    def __init__(self, peer_xy, dz: float, params: A2GParams, exp_xy):
        if dz <= 0.0:
            raise ValueError("peer must sit below the UAV")
        self.peer_xy = np.asarray(peer_xy, dtype=float)
        self.dz = float(dz)
        self.params = params
        self.exp_xy = np.asarray(exp_xy, dtype=float)

        r = float(np.linalg.norm(self.exp_xy - self.peer_xy))
        if r < _NUDGE * 0.5:
            raise ValueError("expansion point degenerate; nudge it first")
        slant = math.sqrt(1.0 + (r / dz) ** 2)  # 3-d distance over height
        self.c0 = slant
        self.theta0 = math.degrees(math.asin(1.0 / slant))
        self.theta_slope = -math.degrees(1.0) / (slant * math.sqrt(slant * slant - 1.0))
        self.d0 = 1.0 + params.a * math.exp(-params.b * (self.theta0 - params.a))
        self.shape0 = self._pathloss_shape(self.exp_xy)[0]

    def _pathloss_shape(self, xy) -> tuple[float, np.ndarray]:
        """Convex upper bound on d^2 * mixture and its gradient."""
        p = self.params
        diff = np.asarray(xy, dtype=float) - self.peer_xy
        r2 = float(diff @ diff)
        slant = math.sqrt(1.0 + r2 / (self.dz * self.dz))
        g_slant = diff / (self.dz * self.dz * slant)
        theta = self.theta0 + self.theta_slope * (slant - self.c0)
        g_theta = self.theta_slope * g_slant
        e = p.a * math.exp(min(-p.b * (theta - p.a), _EXP_CAP))
        pr = 2.0 / self.d0 - (1.0 + e) / (self.d0 * self.d0)
        g_pr = (p.b * e / (self.d0 * self.d0)) * g_theta
        mix = p.eta_nlos + (p.eta_los - p.eta_nlos) * pr
        g_mix = (p.eta_los - p.eta_nlos) * g_pr
        d2 = r2 + self.dz * self.dz
        return d2 * mix, mix * 2.0 * diff + d2 * g_mix

    def value_grad(self, xy) -> tuple[float, np.ndarray]:
        shape, g_shape = self._pathloss_shape(xy)
        return 2.0 / self.shape0 - shape / (self.shape0 * self.shape0), \
            -g_shape / (self.shape0 * self.shape0)


def _nudged_expansion(xy, peers_xy) -> tuple[np.ndarray, bool]:
    """Shift the expansion point off any peer it hovers over."""
    exp = np.asarray(xy, dtype=float).copy()
    moved = False
    for _ in range(5):
        for peer in peers_xy:
            d = exp - peer
            r = float(np.linalg.norm(d))
            if r < _NUDGE:
                exp = exp + (_NUDGE * d / r if r > 0.0 else np.array([_NUDGE, 0.0]))
                moved = True
                break
        else:
            return exp, moved
    return exp, moved


@dataclass(frozen=True)
class SurrogateContext:
    """Tangent gain bounds for one horizontal expansion point.

    Scales fold the carrier frequency and the slot's fading draw per
    (link, subchannel); the geometric core is shared per peer."""

    expansion_xy: np.ndarray
    altitude: float
    pairs: tuple[tuple[int, int], ...]
    ue_cores: tuple[_PeerCore, ...]
    bs_core: _PeerCore
    ue_scale: np.ndarray    # (N, K)
    bs_scale: np.ndarray    # (K,)
    sigma2: float
    c_noise: float
    nudged: bool

    def ue_bound(self, n: int, k: int, xy) -> tuple[float, np.ndarray]:
        v, g = self.ue_cores[n].value_grad(xy)
        s = self.ue_scale[n, k]
        return s * v, s * g

    def bs_bound(self, k: int, xy) -> tuple[float, np.ndarray]:
        v, g = self.bs_core.value_grad(xy)
        s = self.bs_scale[k]
        return s * v, s * g


def horizontal_surrogate(inputs: SlotInputs, position) -> SurrogateContext:
    """Build the tangent bounds around `position` (expansion nudged off
    any peer it sits directly above)."""
    s = inputs.scenario
    z = float(position[2])
    peers = [np.array([0.0, 0.0])] + [np.array(p[:2], dtype=float) for p in s.ue_positions]
    exp_xy, nudged = _nudged_expansion(np.asarray(position[:2], dtype=float), peers)

    bs_core = _PeerCore(peers[0], z - s.bs_height, s.a2g, exp_xy)
    ue_cores = tuple(_PeerCore(peers[1 + n], z - s.ue_positions[n][2], s.a2g, exp_xy)
                     for n in range(s.n_ues))
    gains = gain_matrices(s, (exp_xy[0], exp_xy[1], z), inputs.slot_index)
    ue_scale = gains.h_ue_uav * np.array([c.shape0 for c in ue_cores])[:, None]
    bs_scale = gains.h_uav_bs * bs_core.shape0
    return SurrogateContext(exp_xy, z, inputs.relay_pairs(), ue_cores, bs_core,
                            ue_scale, bs_scale, s.noise_var,
                            s.noise_plus_ici_scale, nudged)


def _pair_anchor(ctx: SurrogateContext, n: int, k: int, p_ue: float, p_uav: float,
                 sigma2: float, c: float) -> tuple[float, np.ndarray]:
    """Value and gradient, at the expansion point, of the interference log
    that gets linearized in the concave-minus-concave split."""
    h1, g1 = ctx.ue_bound(n, k, ctx.expansion_xy)
    h2, g2 = ctx.bs_bound(k, ctx.expansion_xy)
    x = c * p_ue * h1 + p_uav * h2 + c * sigma2
    val = 0.5 * math.log2(sigma2 * x)
    grad = (0.5 / LN2) * (c * p_ue * g1 + p_uav * g2) / x
    return val, grad


def _pair_rate_bound(ctx: SurrogateContext, n: int, k: int, xy, p_ue: float,
                     p_uav: float, sigma2: float, c: float,
                     anchor: tuple[float, np.ndarray]) -> tuple[float, np.ndarray]:
    h1, g1 = ctx.ue_bound(n, k, xy)
    h2, g2 = ctx.bs_bound(k, xy)
    a1 = p_ue * h1 + sigma2
    a2 = p_uav * h2 + c * sigma2
    if a1 <= 0.0 or a2 <= 0.0:
        return -math.inf, np.zeros(2)
    val = 0.5 * (math.log2(a1) + math.log2(a2))
    grad = (0.5 / LN2) * (p_ue * g1 / a1 + p_uav * g2 / a2)
    i0, gi0 = anchor
    xy = np.asarray(xy, dtype=float)
    return val - i0 - float(gi0 @ (xy - ctx.expansion_xy)), grad - gi0


def _horizontal_objective(ctx: SurrogateContext, inputs: SlotInputs):
    s = inputs.scenario
    sigma2, c = s.noise_var, s.noise_plus_ici_scale
    w = inputs.weights
    p_ue, p_uav = inputs.powers.p_ue, inputs.powers.p_uav
    anchors = [_pair_anchor(ctx, n, k, p_ue[n, k], p_uav[k], sigma2, c)
               for n, k in ctx.pairs]

    def objective(xy: np.ndarray) -> tuple[float, np.ndarray]:
        total, grad = 0.0, np.zeros(2)
        for (n, k), anchor in zip(ctx.pairs, anchors):
            val, g = _pair_rate_bound(ctx, n, k, xy, p_ue[n, k], p_uav[k],
                                      sigma2, c, anchor)
            if not math.isfinite(val):
                return -math.inf, np.zeros(2)
            total += w[n] * val
            grad += w[n] * g
        return total, grad

    return objective


def _horizontal_barriers(ctx: SurrogateContext, inputs: SlotInputs) -> list[BarrierTerm]:
    """Approximated per-hop SNR floors, normalized and slightly relaxed so
    an incumbent funded exactly at the floor stays strictly interior."""
    s = inputs.scenario
    thr = s.snr_thresholds
    terms = []
    for n, k in ctx.pairs:
        t1 = s.noise_var * thr.ue_uav / inputs.powers.p_ue[n, k]
        t2 = (s.noise_var + s.ici_power) * thr.uav_bs / inputs.powers.p_uav[k]

        def hop1(xy, n=n, k=k, t=t1):
            h, g = ctx.ue_bound(n, k, xy)
            return h / t - 1.0 + _QOS_SLACK, g / t

        def hop2(xy, k=k, t=t2):
            h, g = ctx.bs_bound(k, xy)
            return h / t - 1.0 + _QOS_SLACK, g / t

        terms.append(BarrierTerm(hop1))
        terms.append(BarrierTerm(hop2))
    return terms


# ---------------------------------------------------------------------------
# Stage bookkeeping shared by both stages.

@dataclass
class StageLog:
    """Per-stage trace: one row per accepted SCP iterate,
    (iteration, x, y, z, exact objective, worst SNR surplus)."""

    stage: str
    objective: float = math.nan
    iterations: int = 0
    accepted: int = 0
    capped: bool = False
    reason: str = ""
    rows: list = field(default_factory=list)


def _backtrack(incumbent, candidate, z_of, inputs: SlotInputs, inc_obj: float):
    """Walk the candidate back toward the incumbent until the exact
    objective stops dropping and the relayed SNRs still clear their floors."""
    incumbent = np.asarray(incumbent, dtype=float)
    candidate = np.asarray(candidate, dtype=float)
    floor = inc_obj - _ACCEPT_SLACK * max(1.0, abs(inc_obj))
    tau = 1.0
    for _ in range(_BACKTRACK_STEPS):
        trial = incumbent + tau * (candidate - incumbent)
        audit = _audit(z_of(trial), inputs)
        if audit.objective >= floor and audit.surplus >= -_QOS_CHECK_TOL:
            return True, trial, audit.objective, audit.surplus
        tau *= 0.5
    return False, incumbent, inc_obj, math.nan


def solve_horizontal(state: UavState, inputs: SlotInputs) -> tuple[np.ndarray, StageLog]:
    """One SCP run over (x, y) at the current altitude.  Returns the final
    horizontal position and the stage log."""
    s = inputs.scenario
    log = StageLog("horizontal")
    cur = np.asarray(state.pos, dtype=float)
    anchor = np.asarray(state.prev_pos, dtype=float)
    xy, z = cur[:2].copy(), float(cur[2])
    start = _audit(cur, inputs)
    obj = log.objective = start.objective
    if not inputs.relay_pairs():
        log.reason = "no relayed assignments; objective does not depend on position"
        return xy, log

    r_eff = move_radius(s.d_max, s.e_max, s.slot_len, s.propulsion)
    r_h = math.sqrt(max(r_eff * r_eff - (z - anchor[2]) ** 2, 0.0))
    ball = (anchor[:2], r_h)
    eps = s.tolerances.trajectory

    for it in range(1, _MAX_STAGE_ITERS + 1):
        log.iterations = it
        ctx = horizontal_surrogate(inputs, (xy[0], xy[1], z))
        fset = FeasibleSet(ball=ball, barrier_terms=_horizontal_barriers(ctx, inputs))
        if any(term.fn(xy)[0] <= 0.0 for term in fset.barrier_terms):
            log.reason = "approximated SNR set leaves no room at the incumbent"
            break
        res = maximize_concave(_horizontal_objective(ctx, inputs), fset, xy,
                               max_iters=_INNER_ITERS)
        if not res.feasible:
            log.reason = f"inner solve unusable: {res.diagnostics.reason}"
            break
        ok, xy_new, new_obj, surplus = _backtrack(
            xy, res.x, lambda w: (w[0], w[1], z), inputs, obj)
        if not ok:
            log.reason = "no step kept the exact objective from dropping"
            break
        log.accepted += 1
        log.rows.append((it, xy_new[0], xy_new[1], z, new_obj, surplus))
        rel = (new_obj - obj) / max(obj - start.fixed, 1e-9)
        xy, obj = xy_new, new_obj
        if rel < eps:
            break
    else:
        log.capped = True
    log.objective = obj
    return xy, log


# ---------------------------------------------------------------------------
# Altitude stage: LoS probability linear in z, gains affine in z.

@dataclass(frozen=True)
class LosLinearization:
    """First-order model of one link's LoS probability around z0, with the
    link distance frozen at its z0 value: pr(z) ~ e0 + slope*(z - z0)/d0."""

    z0: float
    d0: float
    e0: float
    slope: float

    def at(self, z: float) -> float:
        return self.e0 + self.slope * (z - self.z0) / self.d0


def los_linearization(peer_pos, xy, z0: float, params: A2GParams) -> LosLinearization:
    """Linearize the LoS probability of the link from (xy, z0) to `peer_pos`.

    The slope is the logistic growth rate through the angle, taken with
    the distance frozen; horizontal standoffs under the nudge radius are
    clamped so the slope stays finite."""
    px, py, pz = (float(v) for v in peer_pos)
    rho = max(math.hypot(float(xy[0]) - px, float(xy[1]) - py), _NUDGE)
    dz = z0 - pz
    if dz <= 0.0:
        raise ValueError("peer must sit below the UAV")
    d0 = math.hypot(rho, dz)
    theta0 = math.degrees(math.asin(dz / d0))
    pr0 = los_probability(theta0, params.a, params.b)
    slope = params.b * pr0 * (1.0 - pr0) * math.degrees(1.0) / (rho / d0)
    return LosLinearization(z0, d0, pr0, slope)


@dataclass(frozen=True)
class AltitudeContext:
    """Affine-in-z gain bounds at fixed horizontal position.

    Each link's gain model is h0 * (1 - q*(z - z0)) with q the relative
    pathloss slope from the linearized LoS probability; q < 0, so every
    bound grows with altitude and exact-objective acceptance does the
    pruning."""

    xy: np.ndarray
    z0: float
    pairs: tuple[tuple[int, int], ...]
    lin_bs: LosLinearization
    lin_ue: tuple[LosLinearization, ...]
    q_bs: float
    q_ue: np.ndarray        # (N,)
    h0_ue: np.ndarray       # (N, K)
    h0_bs: np.ndarray       # (K,)

    def ue_bound(self, n: int, k: int, z: float) -> tuple[float, float]:
        h0, q = self.h0_ue[n, k], self.q_ue[n]
        return h0 * (1.0 - q * (z - self.z0)), -h0 * q

    def bs_bound(self, k: int, z: float) -> tuple[float, float]:
        h0, q = self.h0_bs[k], self.q_bs
        return h0 * (1.0 - q * (z - self.z0)), -h0 * q


def _relative_pathloss_slope(lin: LosLinearization, params: A2GParams) -> float:
    mix0 = params.eta_nlos + (params.eta_los - params.eta_nlos) * lin.e0
    return (params.eta_los - params.eta_nlos) * lin.slope / (lin.d0 * mix0)


def altitude_surrogate(inputs: SlotInputs, position) -> AltitudeContext:
    s = inputs.scenario
    xy = np.asarray(position[:2], dtype=float)
    z0 = float(position[2])
    lin_bs = los_linearization((0.0, 0.0, s.bs_height), xy, z0, s.a2g)
    lin_ue = tuple(los_linearization(p, xy, z0, s.a2g) for p in s.ue_positions)
    gains = gain_matrices(s, (xy[0], xy[1], z0), inputs.slot_index)
    return AltitudeContext(
        xy, z0, inputs.relay_pairs(), lin_bs, lin_ue,
        _relative_pathloss_slope(lin_bs, s.a2g),
        np.array([_relative_pathloss_slope(lin, s.a2g) for lin in lin_ue]),
        gains.h_ue_uav.copy(), gains.h_uav_bs.copy())


def _altitude_objective(ctx: AltitudeContext, inputs: SlotInputs):
    s = inputs.scenario
    sigma2, c = s.noise_var, s.noise_plus_ici_scale
    w = inputs.weights
    p_ue, p_uav = inputs.powers.p_ue, inputs.powers.p_uav

    anchors = []
    for n, k in ctx.pairs:
        h1, g1 = ctx.ue_bound(n, k, ctx.z0)
        h2, g2 = ctx.bs_bound(k, ctx.z0)
        x = c * p_ue[n, k] * h1 + p_uav[k] * h2 + c * sigma2
        anchors.append((0.5 * math.log2(sigma2 * x),
                        (0.5 / LN2) * (c * p_ue[n, k] * g1 + p_uav[k] * g2) / x))

    def objective(zvec: np.ndarray) -> tuple[float, np.ndarray]:
        z = float(zvec[0])
        total, slope = 0.0, 0.0
        for (n, k), (i0, gi0) in zip(ctx.pairs, anchors):
            h1, g1 = ctx.ue_bound(n, k, z)
            h2, g2 = ctx.bs_bound(k, z)
            a1 = p_ue[n, k] * h1 + sigma2
            a2 = p_uav[k] * h2 + c * sigma2
            if a1 <= 0.0 or a2 <= 0.0:
                return -math.inf, np.zeros(1)
            val = 0.5 * (math.log2(a1) + math.log2(a2)) - i0 - gi0 * (z - ctx.z0)
            total += w[n] * val
            slope += w[n] * ((0.5 / LN2) * (p_ue[n, k] * g1 / a1 + p_uav[k] * g2 / a2) - gi0)
        return total, np.array([slope])

    return objective


def _altitude_halfspaces(ctx: AltitudeContext, inputs: SlotInputs) -> list[tuple[np.ndarray, float]]:
    """Approximated SNR floors; affine gains make them plain halfspaces,
    normalized by their thresholds."""
    s = inputs.scenario
    thr = s.snr_thresholds
    spaces = []
    for n, k in ctx.pairs:
        for (h0, q), target in (
                ((ctx.h0_ue[n, k], ctx.q_ue[n]),
                 s.noise_var * thr.ue_uav / inputs.powers.p_ue[n, k]),
                ((ctx.h0_bs[k], ctx.q_bs),
                 (s.noise_var + s.ici_power) * thr.uav_bs / inputs.powers.p_uav[k])):
            # h0*(1 - q*(z - z0)) >= target*(1 - slack), written a*z <= b
            a = h0 * q / target
            b = h0 * (1.0 + q * ctx.z0) / target - 1.0 + _QOS_SLACK
            spaces.append((np.array([a]), b))
    return spaces


def solve_altitude(state: UavState, inputs: SlotInputs) -> tuple[float, StageLog]:
    """One SCP run over z at the current horizontal position."""
    s = inputs.scenario
    log = StageLog("altitude")
    cur = np.asarray(state.pos, dtype=float)
    anchor = np.asarray(state.prev_pos, dtype=float)
    xy, z = cur[:2], float(cur[2])
    start = _audit(cur, inputs)
    obj = log.objective = start.objective
    if not inputs.relay_pairs():
        log.reason = "no relayed assignments; objective does not depend on position"
        return z, log

    r_eff = move_radius(s.d_max, s.e_max, s.slot_len, s.propulsion)
    r_z = math.sqrt(max(r_eff * r_eff - float(np.sum((xy - anchor[:2]) ** 2)), 0.0))
    floor = np.array([s.bs_height + _BS_CLEARANCE])
    eps = s.tolerances.trajectory

    for it in range(1, _MAX_STAGE_ITERS + 1):
        log.iterations = it
        ctx = altitude_surrogate(inputs, (xy[0], xy[1], z))
        fset = FeasibleSet(ball=(np.array([anchor[2]]), r_z),
                           halfspaces=_altitude_halfspaces(ctx, inputs),
                           lower_bounds=floor)
        if fset.linear_violation(np.array([z])) > 1e-9:
            log.reason = "approximated SNR set excludes the incumbent altitude"
            break
        res = maximize_concave(_altitude_objective(ctx, inputs), fset,
                               np.array([z]), max_iters=_INNER_ITERS)
        if not res.feasible:
            log.reason = f"inner solve unusable: {res.diagnostics.reason}"
            break
        ok, z_new, new_obj, surplus = _backtrack(
            np.array([z]), res.x, lambda v: (xy[0], xy[1], float(v[0])),
            inputs, obj)
        if not ok:
            log.reason = "no step kept the exact objective from dropping"
            break
        z_new = float(z_new[0])
        log.accepted += 1
        log.rows.append((it, xy[0], xy[1], z_new, new_obj, surplus))
        rel = (new_obj - obj) / max(obj - start.fixed, 1e-9)
        z, obj = z_new, new_obj
        if rel < eps:
            break
    else:
        log.capped = True
    log.objective = obj
    return z, log


# ---------------------------------------------------------------------------
# Outer alternation.

@dataclass
class TrajectoryResult:
    position: np.ndarray
    objective: float
    passes: int
    improved: bool
    logs: list[StageLog]


def to_algorithm(state: UavState, inputs: SlotInputs) -> TrajectoryResult:
    """Alternate the horizontal and altitude stages until the exact slot
    objective stops improving by the trajectory tolerance.

    The tolerance is read relative to the relayed share of the objective:
    cellular terms are constant in the position, so folding them into the
    denominator would silence real gains on the movable links."""
    s = inputs.scenario
    pos = np.asarray(state.pos, dtype=float).copy()
    anchor = tuple(float(v) for v in state.prev_pos)
    start = _audit(pos, inputs)
    obj = start.objective
    if not inputs.relay_pairs():
        return TrajectoryResult(pos, obj, 0, False, [])

    r_eff = move_radius(s.d_max, s.e_max, s.slot_len, s.propulsion)
    if r_eff > 0.2 * pos[2]:
        warnings.warn("move radius exceeds 20% of the altitude; the "
                      "linear-in-z LoS model degrades", stacklevel=2)

    logs: list[StageLog] = []
    improved = False
    passes = 0
    eps = s.tolerances.trajectory
    for _ in range(_MAX_PASSES):
        passes += 1
        xy, hlog = solve_horizontal(UavState(tuple(pos), anchor), inputs)
        pos[:2] = xy
        z, alog = solve_altitude(UavState(tuple(pos), anchor), inputs)
        pos[2] = z
        logs += [hlog, alog]
        new_obj = alog.objective
        if new_obj > obj:
            improved = True
        rel = (new_obj - obj) / max(obj - start.fixed, 1e-9)
        obj = max(obj, new_obj)
        if rel < eps:
            break
    return TrajectoryResult(pos, obj, passes, improved, logs)


def write_stage_trace(logs: list[StageLog], path) -> None:
    """Dump accepted iterates of each stage as CSV for debugging."""
    with open(path, "w", newline="") as fh:
        out = csv.writer(fh)
        out.writerow(["stage", "iteration", "x", "y", "z", "objective", "snr_surplus"])
        for log in logs:
            for row in log.rows:
                out.writerow([log.stage, *row])
