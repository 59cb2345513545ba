"""Per-slot UAV position refinement.

Only the relayed links depend on where the UAV sits.  The horizontal
stage runs SCP in (x, y) at the held altitude: each iteration maximizes
a concave surrogate of the weighted relayed rate, built from tangent
lower bounds on the air gains around the current iterate.  A proposed
move is kept only if the exact slot objective did not drop, with
step-halving toward the incumbent, so the outer trace is nondecreasing
regardless of surrogate quality.  Whenever the approximated SNR set
turns out empty the stage returns the incumbent unchanged.  The altitude
is held for the whole episode (`solve_altitude`).

The stage works on arrays over the P relayed (UE, subchannel) pairs:
one evaluation of the gain bounds gives every pair's two hop gains and
their gradients at a point, shared by the objective and by the one
barrier term that carries all 2P hop floors.  Each position is audited
on the exact channel once per `to_algorithm` call, which makes one
horizontal run; the slot's block-coordinate loop repeats it.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass, field

import numpy as np

from .channel import ChannelGains, gain_matrices, slot_channel
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
# Surrogate rates.  A surrogate context exposes the expansion point `x0`,
# each pair's UE `ue` and subchannel `sub`, and `bounds(x)`, which returns
# every pair's hop gains and their gradients, (h1, g1, h2, g2) of shapes
# (P,), (P, d), (P,), (P, d).


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
    pairs = inputs.relay_pairs()
    ue = np.array([n for n, _ in pairs], dtype=int)
    sub = np.array([k for _, k in pairs], dtype=int)
    return SurrogateContext(exp_xy, ue, sub, cores,
                            chan.air_scale[ue, sub], chan.air_scale[-1, sub], nudged)


def _horizontal_barrier(ctx: SurrogateContext, inputs: SlotInputs) -> BarrierTerm:
    """All 2P approximated hop floors (every pair's access hop, then every
    backhaul hop), normalized and slightly relaxed so an incumbent funded
    exactly at the floor stays strictly interior."""
    s = inputs.scenario
    thr = s.snr_thresholds
    # the gains at which each hop sits exactly on its SNR floor
    t1 = s.noise_var * thr.ue_uav / inputs.powers.p_ue[ctx.ue, ctx.sub]
    t2 = (s.noise_var + s.ici_power) * thr.uav_bs / inputs.powers.p_uav[ctx.sub]
    inv = 1.0 / np.concatenate([t1, t2])

    def rows(xy: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        h1, g1, h2, g2 = ctx.bounds(xy)
        return (np.concatenate([h1, h2]) * inv - 1.0 + _QOS_SLACK,
                np.concatenate([g1, g2]) * inv[:, None])

    return BarrierTerm(rows)


# ---------------------------------------------------------------------------
# The stage log, and the horizontal SCP loop.

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


def _backtrack(incumbent: Audit, xy_cand: np.ndarray, inputs: SlotInputs) -> Audit | None:
    """Walk the horizontal candidate back toward the incumbent, at its
    altitude, until the exact objective stops dropping and the relayed
    SNRs still clear their floors; None if no step does.  A trial that
    lands on the incumbent reuses its audit."""
    floor = incumbent.objective - _ACCEPT_SLACK * max(1.0, abs(incumbent.objective))
    xy_inc, z = incumbent.position[:2], incumbent.position[2]
    tau = 1.0
    for _ in range(_BACKTRACK_STEPS):
        xy = xy_inc + tau * (xy_cand - xy_inc)
        pos = (xy[0], xy[1], z)
        audit = incumbent if np.array_equal(pos, incumbent.position) else _audit(pos, inputs)
        if audit.objective >= floor and audit.surplus >= -_QOS_CHECK_TOL:
            return audit
        tau *= 0.5
    return None


def solve_horizontal(start: Audit, anchor, inputs: SlotInputs) -> tuple[Audit, StageLog]:
    """SCP over (x, y) at the altitude of the audited position `start`,
    within the move radius around `anchor`.  Each iteration maximizes the
    tangent surrogate around the incumbent and keeps the step that
    `_backtrack` accepts, and stops once an iterate raises the exact
    objective by less than the trajectory tolerance, read relative to
    the relayed share of the objective: cellular terms are constant in
    the position, so folding them into the denominator would silence
    real gains on the movable links.  Returns the audit of the final
    position and the stage log."""
    s = inputs.scenario
    log = StageLog("horizontal", objective=start.objective)
    if not inputs.relay_pairs():
        log.reason = "no relayed assignments; objective does not depend on position"
        return start, log
    anchor = np.asarray(anchor, dtype=float)
    r_eff = move_radius(s.d_max, s.e_max, s.slot_len, s.propulsion)
    r_h = math.sqrt(max(r_eff * r_eff - (start.position[2] - anchor[2]) ** 2, 0.0))
    eps = s.tolerances.trajectory
    cur = start
    for it in range(1, _MAX_STAGE_ITERS + 1):
        log.iterations = it
        xy = cur.position[:2].copy()
        ctx = horizontal_surrogate(inputs, cur.position)
        barrier = _horizontal_barrier(ctx, inputs)
        if np.any(barrier.fn(xy)[0] <= 0.0):
            log.reason = "approximated SNR set leaves no room at the incumbent"
            break
        res = maximize_concave(_stage_objective(ctx, inputs),
                               FeasibleSet(ball=(anchor[:2], r_h), barrier=barrier), xy,
                               max_iters=_INNER_ITERS)
        if not res.feasible:
            log.reason = f"inner solve unusable: {res.diagnostics.reason}"
            break
        new = _backtrack(cur, res.x, inputs)
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
    return cur, log


# ---------------------------------------------------------------------------
# Altitude: held.

def solve_altitude(start: Audit, anchor, inputs: SlotInputs) -> tuple[Audit, StageLog]:
    """The altitude policy: hold the altitude, returning `start` itself.

    A per-slot altitude move did not pay.  An SCP over z, with the LoS
    probability linearized in z, moved the UAV by more than 1 cm in one
    of the 700 slots that `scripts/parity.py` runs, and holding instead
    raised the later slot objectives of that episode.  An exact bounded
    search on the audited objective lowered the random baseline's
    episode objective by 4% and tripled jmstp's 90th-percentile slot
    time."""
    return start, StageLog("altitude", objective=start.objective, reason="altitude held")


# ---------------------------------------------------------------------------
# The trajectory stage.

@dataclass
class TrajectoryResult:
    position: np.ndarray
    gains: ChannelGains  # the exact channel at `position`
    objective: float     # the exact slot objective at `position`
    passes: int          # horizontal runs: 1, or 0 without relayed pairs
    logs: list[StageLog]


def to_algorithm(state: UavState, inputs: SlotInputs,
                 gains: ChannelGains | None = None) -> TrajectoryResult:
    """Audit the start, make one horizontal SCP run from it, then
    `solve_altitude`, which holds the altitude, and return the final
    audit's own position, gains and objective.  `gains`, when given, is
    the exact channel at `state.pos`."""
    anchor = tuple(float(v) for v in state.prev_pos)
    cur = _audit(state.pos, inputs, gains)
    if not inputs.relay_pairs():
        return TrajectoryResult(cur.position, cur.gains, cur.objective, 0, [])
    cur, hlog = solve_horizontal(cur, anchor, inputs)
    cur, alog = solve_altitude(cur, anchor, inputs)
    return TrajectoryResult(cur.position, cur.gains, cur.objective, 1, [hlog, alog])


def write_stage_trace(logs: list[StageLog], path) -> None:
    """Dump accepted iterates of each stage as CSV for debugging."""
    with open(path, "w", newline="") as fh:
        out = csv.writer(fh)
        out.writerow(["stage", "iteration", "x", "y", "z", "objective", "snr_surplus"])
        for log in logs:
            for row in log.rows:
                out.writerow([log.stage, *row])
