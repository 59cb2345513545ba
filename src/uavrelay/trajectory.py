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

Both stages work on arrays over the P relayed (UE, subchannel) pairs:
one evaluation of a stage's gain bounds gives every pair's two hop gains
and their gradients at a point, shared by the objective and by the one
barrier term that carries all 2P hop floors.  Each position is audited
on the exact channel once per `to_algorithm` call: a stage starts from
the audit that ended the previous one.
"""

from __future__ import annotations

import csv
import math
import warnings
from dataclasses import dataclass, field

import numpy as np

from .channel import ChannelGains, gain_matrices, los_probability, slot_channel
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

    position: np.ndarray  # (3,)
    gains: ChannelGains   # the exact channel at the position
    objective: float      # weighted sum rate
    surplus: float        # worst normalized SNR surplus over relayed assignments
    # weighted rate of the cellular UEs: their links never touch the UAV,
    # so this share of the objective is constant in the position, and
    # stage stop rules measure progress against the remainder
    fixed: float


def _audit(pos, inputs: SlotInputs, gains: ChannelGains | None = None) -> Audit:
    """The slot at UAV position `pos`, from one channel evaluation, or
    none when the caller holds the exact `gains` at `pos`."""
    s = inputs.scenario
    pos = np.array(pos, dtype=float)
    if gains is None:
        gains = gain_matrices(s, pos, inputs.slot_index)
    report = rate_report(inputs.beta, inputs.alloc, inputs.powers, gains,
                         inputs.weights, s)
    beta = np.asarray(inputs.beta)
    relayed = (np.asarray(inputs.alloc) * beta[:, None]) == 1
    surplus = min((g / t)[relayed].min(initial=math.inf)
                  for g, t in zip(report.link.snr, report.link.thresholds())) - 1.0
    cellular = beta == 0
    fixed = float(np.dot(inputs.weights[cellular], report.per_ue_rate[cellular]))
    return Audit(pos, gains, report.objective, surplus, fixed)


# ---------------------------------------------------------------------------
# Surrogate rates shared by both stages.  A stage context exposes the
# expansion point `x0`, each pair's UE `ue` and subchannel `sub`, and
# `bounds(x)`, which returns every pair's hop gains and their gradients,
# (h1, g1, h2, g2) of shapes (P,), (P, d), (P,), (P, d).


def _surrogate_rates(ctx, inputs: SlotInputs):
    """Per-pair concave lower bounds on the relayed rates around the
    expansion point, as a function x -> (rates (P,), jacobian (P, d)),
    or None where a bound drives a hop's signal-plus-noise to zero.

    The AF rate is 0.5 log2(a1 a2) - 0.5 log2(sigma2 * x) with a1, a2 and
    x affine in the hop gains; the last, interference, log is replaced by
    its tangent at the expansion point, so each rate is concave in the
    gain bounds and tight at the expansion."""
    s = inputs.scenario
    sigma2, c = s.noise_var, s.noise_plus_ici_scale
    p1 = inputs.powers.p_ue[ctx.ue, ctx.sub]
    p2 = inputs.powers.p_uav[ctx.sub]
    k1, k2 = (0.5 / LN2) * p1, (0.5 / LN2) * p2
    h1, g1, h2, g2 = ctx.bounds(ctx.x0)
    x = c * p1 * h1 + p2 * h2 + c * sigma2
    i0 = 0.5 * np.log2(sigma2 * x)
    gi0 = (c * k1[:, None] * g1 + k2[:, None] * g2) / x[:, None]

    def rates(xv: np.ndarray) -> tuple[np.ndarray, np.ndarray] | None:
        h1, g1, h2, g2 = ctx.bounds(xv)
        a1 = p1 * h1 + sigma2
        a2 = p2 * h2 + c * sigma2
        if (a1 <= 0.0).any() or (a2 <= 0.0).any():
            return None
        val = 0.5 * np.log2(a1 * a2) - i0 - gi0 @ (xv - ctx.x0)
        return val, (k1 / a1)[:, None] * g1 + (k2 / a2)[:, None] * g2 - gi0

    return rates


def _stage_objective(ctx, inputs: SlotInputs):
    """The weighted sum of the surrogate rates and its gradient."""
    rates = _surrogate_rates(ctx, inputs)
    w = inputs.weights[ctx.ue]

    def objective(x: np.ndarray) -> tuple[float, np.ndarray]:
        out = rates(x)
        if out is None:
            return -math.inf, np.zeros(x.size)
        return float(w @ out[0]), w @ out[1]

    return objective


def _hop_targets(ctx, inputs: SlotInputs) -> tuple[np.ndarray, np.ndarray]:
    """Per-pair gains at which each hop sits exactly on its SNR floor."""
    s = inputs.scenario
    thr = s.snr_thresholds
    t1 = s.noise_var * thr.ue_uav / inputs.powers.p_ue[ctx.ue, ctx.sub]
    t2 = (s.noise_var + s.ici_power) * thr.uav_bs / inputs.powers.p_uav[ctx.sub]
    return t1, t2


def _pair_index(inputs: SlotInputs) -> tuple[np.ndarray, np.ndarray]:
    """The UE and the subchannel of every relayed pair, as index arrays."""
    pairs = inputs.relay_pairs()
    return (np.array([n for n, _ in pairs], dtype=int),
            np.array([k for _, k in pairs], dtype=int))


# ---------------------------------------------------------------------------
# Horizontal stage: concave tangent bounds on the air gains in (x, y).

class _PeerCores:
    """Concave lower bounds, and their gradients, on the frequency-free
    reciprocal pathloss 1 / (d^2 * mixture) toward each ground peer, as
    functions of the UAV's horizontal position at fixed altitude.

    Built per peer from three tangents taken at the expansion point: the
    elevation angle in the slant ratio, the logistic LoS probability in
    the angle, and the reciprocal in the resulting pathloss.  Each tangent
    is global, so each composite is a global lower bound, tight at the
    expansion."""

    def __init__(self, peers_xy: np.ndarray, dz: np.ndarray, params: A2GParams,
                 exp_xy: np.ndarray):
        if np.any(dz <= 0.0):
            raise ValueError("peer must sit below the UAV")
        p = params
        self.peers_xy = peers_xy
        self.dz2 = dz * dz
        self.inv_dz2 = 1.0 / self.dz2
        r = np.sqrt(np.sum((exp_xy - peers_xy) ** 2, axis=1))
        if np.any(r < _NUDGE * 0.5):
            raise ValueError("expansion point degenerate; nudge it first")
        slant = np.sqrt(1.0 + (r / dz) ** 2)  # 3-d distance over height
        theta0 = np.degrees(np.arcsin(1.0 / slant))
        theta_slope = -math.degrees(1.0) / (slant * np.sqrt(slant * slant - 1.0))
        d0 = 1.0 + p.a * np.exp(-p.b * (theta0 - p.a))
        # the tangent angle theta0 + theta_slope * (s - slant) enters the
        # logistic as e = a * exp(exp_slope * s + exp_shift), and the
        # tangent of 1/u at u = d0, taken at u = 1 + e, turns the mixture
        # into m0 - m1 * e
        self.a = p.a
        self.exp_slope = -p.b * theta_slope
        self.exp_shift = -p.b * (theta0 - theta_slope * slant - p.a)
        self.m0 = p.eta_nlos + (p.eta_los - p.eta_nlos) * (2.0 / d0 - 1.0 / (d0 * d0))
        self.m1 = (p.eta_los - p.eta_nlos) / (d0 * d0)
        # d(mixture)/d(xy) = e * dmix * diff / slant
        self.dmix = self.m1 * p.b * theta_slope * self.inv_dz2
        _, _, _, d2, mix = self._terms(exp_xy)
        shape0 = d2 * mix
        self.two_over_shape0 = 2.0 / shape0
        self.inv_shape0_sq = 1.0 / (shape0 * shape0)

    def _terms(self, xy):
        diff = xy - self.peers_xy
        r2 = np.einsum("ij,ij->i", diff, diff)
        slant = np.sqrt(1.0 + r2 * self.inv_dz2)
        e = self.a * np.exp(np.minimum(self.exp_slope * slant + self.exp_shift, _EXP_CAP))
        return diff, slant, e, r2 + self.dz2, self.m0 - self.m1 * e

    def value_grad(self, xy) -> tuple[np.ndarray, np.ndarray]:
        """Bounds (N + 1,) and gradients (N + 1, 2) at `xy`: the tangent
        of the reciprocal at shape0, 2/shape0 - shape/shape0^2, of the
        convex pathloss shape d^2 * mixture."""
        diff, slant, e, d2, mix = self._terms(xy)
        coef = (2.0 * mix + d2 * e * self.dmix / slant) * self.inv_shape0_sq
        return self.two_over_shape0 - d2 * mix * self.inv_shape0_sq, -coef[:, None] * diff


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

    The peer cores are the geometry (rows: the N UEs, then the BS); each
    pair's hop scales fold the carrier frequency and the slot's fading
    draw of its (peer, subchannel) link."""

    x0: np.ndarray          # (2,) expansion point
    ue: np.ndarray          # (P,)
    sub: np.ndarray         # (P,)
    cores: _PeerCores
    scale1: np.ndarray      # (P,) access-hop scales
    scale2: np.ndarray      # (P,) backhaul-hop scales
    nudged: bool
    # the bounds at the last point asked for: an inner solve evaluates the
    # objective and the barrier at each point, one after the other
    _last: list = field(default_factory=lambda: [None, None], repr=False, compare=False)

    def bounds(self, xy: np.ndarray):
        key = xy.tobytes()
        if key != self._last[0]:
            v, g = self.cores.value_grad(xy)
            self._last[:] = key, (self.scale1 * v[self.ue], self.scale1[:, None] * g[self.ue],
                                  self.scale2 * v[-1], self.scale2[:, None] * g[-1])
        return self._last[1]


def horizontal_surrogate(inputs: SlotInputs, position) -> SurrogateContext:
    """Build the tangent bounds around `position` (expansion nudged off
    any peer it sits directly above)."""
    s = inputs.scenario
    chan = slot_channel(s, inputs.slot_index)
    z = float(position[2])
    peers_xy = chan.peers[:, :2]
    exp_xy, nudged = _nudged_expansion(np.asarray(position[:2], dtype=float), peers_xy)
    cores = _PeerCores(peers_xy, z - chan.peers[:, 2], s.a2g, exp_xy)
    ue, sub = _pair_index(inputs)
    return SurrogateContext(exp_xy, ue, sub, cores,
                            chan.air_scale[ue, sub], chan.air_scale[-1, sub], nudged)


def _horizontal_barrier(ctx: SurrogateContext, inputs: SlotInputs) -> BarrierTerm:
    """All 2P approximated hop floors (every pair's access hop, then every
    backhaul hop), normalized and slightly relaxed so an incumbent funded
    exactly at the floor stays strictly interior."""
    t1, t2 = _hop_targets(ctx, inputs)
    inv = 1.0 / np.concatenate([t1, t2])

    def rows(xy: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        h1, g1, h2, g2 = ctx.bounds(xy)
        return (np.concatenate([h1, h2]) * inv - 1.0 + _QOS_SLACK,
                np.concatenate([g1, g2]) * inv[:, None])

    return BarrierTerm(rows)


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


def _backtrack(incumbent: Audit, x_inc: np.ndarray, x_cand: np.ndarray, position_of,
               inputs: SlotInputs) -> Audit | None:
    """Walk the candidate back toward the incumbent until the exact
    objective stops dropping and the relayed SNRs still clear their
    floors; None if no step does.  A trial that lands on the incumbent
    reuses its audit."""
    floor = incumbent.objective - _ACCEPT_SLACK * max(1.0, abs(incumbent.objective))
    tau = 1.0
    for _ in range(_BACKTRACK_STEPS):
        pos = position_of(x_inc + tau * (x_cand - x_inc))
        audit = incumbent if np.array_equal(pos, incumbent.position) else _audit(pos, inputs)
        if audit.objective >= floor and audit.surplus >= -_QOS_CHECK_TOL:
            return audit
        tau *= 0.5
    return None


def _run_stage(log: StageLog, start: Audit, inputs: SlotInputs, build) -> Audit:
    """The SCP loop of one stage, from the audited incumbent `start`.

    `build(incumbent)` returns the stage's variable at the incumbent, its
    surrogate context, feasible set, the reason to stop before solving
    (empty when the incumbent is inside the approximated set), and the
    map from the variable to a UAV position."""
    eps = inputs.scenario.tolerances.trajectory
    cur = start
    for it in range(1, _MAX_STAGE_ITERS + 1):
        log.iterations = it
        x, ctx, fset, blocked, position_of = build(cur)
        if blocked:
            log.reason = blocked
            break
        res = maximize_concave(_stage_objective(ctx, inputs), fset, x,
                               max_iters=_INNER_ITERS)
        if not res.feasible:
            log.reason = f"inner solve unusable: {res.diagnostics.reason}"
            break
        new = _backtrack(cur, x, res.x, position_of, inputs)
        if new is None:
            log.reason = "no step kept the exact objective from dropping"
            break
        log.accepted += 1
        log.rows.append((it, *new.position, new.objective, new.surplus))
        rel = (new.objective - cur.objective) / max(cur.objective - start.fixed, 1e-9)
        cur = new
        if rel < eps:
            break
    else:
        log.capped = True
    log.objective = cur.objective
    return cur


def _stage_start(stage: str, start: Audit, inputs: SlotInputs) -> StageLog:
    log = StageLog(stage, objective=start.objective)
    if not inputs.relay_pairs():
        log.reason = "no relayed assignments; objective does not depend on position"
    return log


def solve_horizontal(start: Audit, anchor, inputs: SlotInputs) -> tuple[Audit, StageLog]:
    """One SCP run over (x, y) at the altitude of the audited position
    `start`, within the move radius around `anchor`.  Returns the audit
    of the final position and the stage log."""
    s = inputs.scenario
    log = _stage_start("horizontal", start, inputs)
    if log.reason:
        return start, log
    anchor = np.asarray(anchor, dtype=float)
    z = float(start.position[2])
    r_eff = move_radius(s.d_max, s.e_max, s.slot_len, s.propulsion)
    r_h = math.sqrt(max(r_eff * r_eff - (z - anchor[2]) ** 2, 0.0))
    ball = (anchor[:2], r_h)

    def build(cur: Audit):
        xy = cur.position[:2].copy()
        ctx = horizontal_surrogate(inputs, cur.position)
        barrier = _horizontal_barrier(ctx, inputs)
        blocked = ("approximated SNR set leaves no room at the incumbent"
                   if np.any(barrier.fn(xy)[0] <= 0.0) else "")
        return (xy, ctx, FeasibleSet(ball=ball, barrier=barrier), blocked,
                lambda w: (w[0], w[1], z))

    return _run_stage(log, start, inputs, build), log


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


def _relative_pathloss_slope(lin: LosLinearization, params: A2GParams) -> float:
    mix0 = params.eta_nlos + (params.eta_los - params.eta_nlos) * lin.e0
    return (params.eta_los - params.eta_nlos) * lin.slope / (lin.d0 * mix0)


@dataclass(frozen=True)
class AltitudeContext:
    """Affine-in-z gain bounds at fixed horizontal position.

    Each link's gain model is h0 * (1 - q*(z - z0)) with h0 its exact gain
    at z0 and q the relative pathloss slope from the linearized LoS
    probability of its peer; q < 0, so every bound grows with altitude and
    exact-objective acceptance does the pruning."""

    x0: np.ndarray          # (1,) expansion altitude
    ue: np.ndarray          # (P,)
    sub: np.ndarray         # (P,)
    h1: np.ndarray          # (P,) access-hop gains at z0
    q1: np.ndarray          # (P,)
    h2: np.ndarray          # (P,) backhaul-hop gains at z0
    q2: np.ndarray          # (P,)

    def bounds(self, zvec: np.ndarray):
        dz = zvec[0] - self.x0[0]
        return (self.h1 * (1.0 - self.q1 * dz), -(self.h1 * self.q1)[:, None],
                self.h2 * (1.0 - self.q2 * dz), -(self.h2 * self.q2)[:, None])


def altitude_surrogate(inputs: SlotInputs, audit: Audit) -> AltitudeContext:
    """Linearize around the audited position: its exact gains and the LoS
    slopes of its N UE links and its BS link."""
    s = inputs.scenario
    xy, z0 = audit.position[:2], float(audit.position[2])
    peers = (*s.ue_positions, (0.0, 0.0, s.bs_height))
    q = np.array([_relative_pathloss_slope(los_linearization(p, xy, z0, s.a2g), s.a2g)
                  for p in peers])
    ue, sub = _pair_index(inputs)
    g = audit.gains
    return AltitudeContext(np.array([z0]), ue, sub,
                           g.h_ue_uav[ue, sub], q[ue], g.h_uav_bs[sub],
                           np.full(sub.shape, q[-1]))


def _altitude_rows(ctx: AltitudeContext, inputs: SlotInputs) -> tuple[np.ndarray, np.ndarray]:
    """Approximated SNR floors as rows a*z <= b, one per hop of every
    pair (affine gains make each a bound on z), normalized by their
    thresholds."""
    t1, t2 = _hop_targets(ctx, inputs)
    h0 = np.concatenate([ctx.h1, ctx.h2])
    q = np.concatenate([ctx.q1, ctx.q2])
    target = np.concatenate([t1, t2])
    # h0*(1 - q*(z - z0)) >= target*(1 - slack), written a*z <= b
    a = h0 * q / target
    b = h0 * (1.0 + q * ctx.x0[0]) / target - 1.0 + _QOS_SLACK
    return a, b


def solve_altitude(start: Audit, anchor, inputs: SlotInputs) -> tuple[Audit, StageLog]:
    """One SCP run over z at the horizontal position of the audited
    position `start`, within the move radius around `anchor`."""
    s = inputs.scenario
    log = _stage_start("altitude", start, inputs)
    if log.reason:
        return start, log
    anchor = np.asarray(anchor, dtype=float)
    xy = start.position[:2].copy()
    r_eff = move_radius(s.d_max, s.e_max, s.slot_len, s.propulsion)
    r_z = math.sqrt(max(r_eff * r_eff - float(np.sum((xy - anchor[:2]) ** 2)), 0.0))
    floor = s.bs_height + _BS_CLEARANCE
    move_lo, move_hi = max(anchor[2] - r_z, floor), anchor[2] + r_z

    def build(cur: Audit):
        ctx = altitude_surrogate(inputs, cur)
        a, b = _altitude_rows(ctx, inputs)
        z0 = ctx.x0[0]
        # every residual is read at the incumbent, rows with a == 0 included,
        # though only rows with a != 0 bound the interval
        blocked = ""
        if np.max(a * z0 - b) > 1e-9:
            blocked = "approximated SNR set excludes the incumbent altitude"
        elif max(abs(z0 - anchor[2]) - r_z, floor - z0) > 1e-9:
            blocked = "move range leaves no altitude room at the incumbent"
        up, down = a > 0.0, a < 0.0
        lo = max(move_lo, np.max(b[down] / a[down], initial=-math.inf))
        hi = min(move_hi, np.min(b[up] / a[up], initial=math.inf))
        return (ctx.x0, ctx, FeasibleSet(interval=(lo, hi)), blocked,
                lambda v: (xy[0], xy[1], float(v[0])))

    return _run_stage(log, start, inputs, build), log


# ---------------------------------------------------------------------------
# Outer alternation.

@dataclass
class TrajectoryResult:
    position: np.ndarray
    gains: ChannelGains  # the exact channel at `position`
    objective: float
    passes: int
    improved: bool
    logs: list[StageLog]


def to_algorithm(state: UavState, inputs: SlotInputs,
                 gains: ChannelGains | None = None) -> TrajectoryResult:
    """Alternate the horizontal and altitude stages until the exact slot
    objective stops improving by the trajectory tolerance.  `gains`, when
    given, is the exact channel at `state.pos`.

    The tolerance is read relative to the relayed share of the objective:
    cellular terms are constant in the position, so folding them into the
    denominator would silence real gains on the movable links."""
    s = inputs.scenario
    anchor = tuple(float(v) for v in state.prev_pos)
    start = cur = _audit(state.pos, inputs, gains)
    obj = start.objective
    if not inputs.relay_pairs():
        return TrajectoryResult(start.position, start.gains, obj, 0, False, [])

    r_eff = move_radius(s.d_max, s.e_max, s.slot_len, s.propulsion)
    if r_eff > 0.2 * start.position[2]:
        warnings.warn("move radius exceeds 20% of the altitude; the "
                      "linear-in-z LoS model degrades", stacklevel=2)

    logs: list[StageLog] = []
    improved = False
    passes = 0
    eps = s.tolerances.trajectory
    for _ in range(_MAX_PASSES):
        passes += 1
        cur, hlog = solve_horizontal(cur, anchor, inputs)
        cur, alog = solve_altitude(cur, anchor, inputs)
        logs += [hlog, alog]
        new_obj = alog.objective
        if new_obj > obj:
            improved = True
        rel = (new_obj - obj) / max(obj - start.fixed, 1e-9)
        obj = max(obj, new_obj)
        if rel < eps:
            break
    return TrajectoryResult(cur.position, cur.gains, obj, passes, improved, logs)


def write_stage_trace(logs: list[StageLog], path) -> None:
    """Dump accepted iterates of each stage as CSV for debugging."""
    with open(path, "w", newline="") as fh:
        out = csv.writer(fh)
        out.writerow(["stage", "iteration", "x", "y", "z", "objective", "snr_surplus"])
        for log in logs:
            for row in log.rows:
                out.writerow([log.stage, *row])
