"""Per-slot UAV position refinement.

Only the relayed links depend on where the UAV sits.  The horizontal
stage makes one SCP step in (x, y) at the held altitude: it maximizes a
concave surrogate of the weighted relayed rate, built from tangent
lower bounds on the air gains around the incumbent.  The step from the
incumbent toward the surrogate's maximizer is then searched on the
exact slot objective in both directions: halved toward the incumbent
until the objective does not drop, or, when the full step is kept,
doubled (and projected onto the move disc) while the objective keeps
rising.  The objective thus never drops regardless of surrogate
quality, and a tangent bound that is too cautious far from its
expansion point does not cost one block-coordinate cycle per short
step.  Whenever the approximated SNR set turns out empty the stage
returns the incumbent unchanged.  The altitude is held for the whole
episode (`solve_altitude`).

The stage works on arrays over the P relayed (UE, subchannel) pairs:
one evaluation of the gain bounds gives every pair's two hop gains and
their gradients at a point, shared by the objective and by the one
barrier term that carries all 2P hop floors.  Each position is audited
on the exact channel once per `to_algorithm` call, which makes one
horizontal step; the slot's block-coordinate loop is the only loop that
repeats it, and it stops on the slot's one tolerance.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass, field

import numpy as np

from .channel import ChannelGains, gain_matrices, slot_channel
from .convex_core import BarrierTerm, FeasibleSet, maximize_concave
from .link_rate import PowerAllocation, dc_k, dc_m, floor_signals, rate_report
from .scenario import A2GParams, Scenario, UavState
from .uav_power import move_radius

_QOS_SLACK = 1e-9       # relative relaxation of the approximated SNR floors
_QOS_CHECK_TOL = 1e-6   # relative tolerance when re-auditing exact SNRs
_ACCEPT_SLACK = 1e-12   # relative slack when comparing exact objectives
_EXP_CAP = 500.0        # caps exponents where a loose tangent runs wild
_NUDGE = 0.1            # m, horizontal shift applied over a degenerate peer
_INNER_ITERS = 150
_BACKTRACK_STEPS = 11   # step fractions 1, 1/2, ..., 2**-10
_EXTEND_STEPS = 6       # step multiples 2, 4, ..., 2**6 past an accepted full step


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


def _audit(pos, inputs: SlotInputs, gains: ChannelGains | None = None) -> Audit:
    """The slot at UAV position `pos`, from one channel evaluation, or
    none when the caller holds the exact `gains` at `pos`."""
    s = inputs.scenario
    pos = np.array(pos, dtype=float)
    if gains is None:
        gains = gain_matrices(s, pos, inputs.slot_index)
    report = rate_report(inputs.beta, inputs.alloc, inputs.powers, gains,
                         inputs.weights, s)
    relayed = (np.asarray(inputs.alloc) * np.asarray(inputs.beta)[:, None]) == 1
    surplus = min((g / t)[relayed].min(initial=math.inf)
                  for g, t in zip(report.link.snr, report.link.thresholds())) - 1.0
    return Audit(pos, gains, report.objective, surplus)


# ---------------------------------------------------------------------------
# Surrogate rates.  A surrogate context exposes the expansion point `x0`,
# each pair's UE `ue` and subchannel `sub`, and `stacked(x)`, which
# returns the 2P hop gains and their gradients, shapes (2P,) and (2P, d),
# access hops first.


def _surrogate_rates(ctx, inputs: SlotInputs):
    """Per-pair concave lower bounds on the relayed rates around the
    expansion point, as a function x -> (rates (P,), jacobian (P, d)),
    or None where a bound drives a hop's signal-plus-noise to zero.

    Each rate is the split K - M of `link_rate` in the hop signals p h,
    chained through the powers into the gain bounds.  M is replaced by
    its tangent at the expansion point, taken once here, so each rate is
    concave in the gain bounds and tight at the expansion."""
    s = inputs.scenario
    # both hops' powers, stacked as the context's gains are
    pp = np.concatenate([inputs.powers.p_ue[ctx.ue, ctx.sub], inputs.powers.p_uav[ctx.sub]])
    n = ctx.ue.size
    noise = np.repeat((s.noise_var, s.noise_var + s.ici_power), n)
    h0, g0 = ctx.stacked(ctx.x0)
    m0, dm = dc_m(pp * h0, True, s.noise_var, s.ici_power)
    # each partial in a signal p h, times p, times the gain's gradient
    q0 = (dm * pp)[:, None] * g0
    m_slope = q0[:n] + q0[n:]

    def rates(xv: np.ndarray) -> tuple[np.ndarray, np.ndarray] | None:
        h, gj = ctx.stacked(xv)
        split = dc_k(pp * h, noise)
        if split is None:
            return None
        k, dk = split
        q = (dk * pp)[:, None] * gj
        return k - m0 - m_slope @ (xv - ctx.x0), q[:n] + q[n:] - m_slope

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

    The peer cores are the geometry (the N UEs, then the BS).  The 2P hops
    are stacked, every pair's access hop and then every backhaul hop:
    `rows` picks each hop's peer core and `scale` folds the carrier
    frequency and the slot's fading draw of its (peer, subchannel) link."""

    x0: np.ndarray          # (2,) expansion point
    ue: np.ndarray          # (P,)
    sub: np.ndarray         # (P,)
    cores: _PeerCores
    rows: np.ndarray        # (2P,) peer core of each hop
    scale: np.ndarray       # (2P,) hop scales
    nudged: bool
    # the bounds at the last point asked for: an inner solve evaluates the
    # objective and the barrier at each point, one after the other
    _last: list = field(default_factory=lambda: [None, None], repr=False,
                        compare=False)

    def stacked(self, xy: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """All 2P hop gain bounds (2P,) and gradients (2P, d) at `xy`."""
        key = xy.tobytes()
        if key != self._last[0]:
            v, g = self.cores.value_grad(xy)
            self._last[:] = key, (self.scale * v[self.rows],
                                  self.scale[:, None] * g[self.rows])
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
    rows = np.concatenate([ue, np.full(ue.size, len(peers_xy) - 1)])
    scale = np.concatenate([chan.air_scale[ue, sub], chan.air_scale[-1, sub]])
    return SurrogateContext(exp_xy, ue, sub, cores, rows, scale, nudged)


def _horizontal_barrier(ctx: SurrogateContext, inputs: SlotInputs) -> BarrierTerm:
    """All 2P approximated hop floors (every pair's access hop, then every
    backhaul hop), normalized and slightly relaxed so an incumbent funded
    exactly at the floor stays strictly interior."""
    s = inputs.scenario
    pp = np.concatenate([inputs.powers.p_ue[ctx.ue, ctx.sub], inputs.powers.p_uav[ctx.sub]])
    floors = floor_signals(True, s.snr_thresholds, s.noise_var, s.ici_power)
    # one over the gain at which each hop sits exactly on its SNR floor
    inv = 1.0 / (np.repeat(floors, ctx.ue.size) / pp)

    def rows(xy: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        h, gj = ctx.stacked(xy)
        return h * inv - 1.0 + _QOS_SLACK, gj * inv[:, None]

    return BarrierTerm(rows)


# ---------------------------------------------------------------------------
# The stage log, and the horizontal SCP step.

@dataclass
class StageLog:
    """Per-stage trace.  `iterations` counts the SCP steps made (the
    horizontal stage makes at most one per call) and `accepted` those
    kept; `capped` says the step's inner solve stopped at its iteration
    cap (`_INNER_ITERS`) rather than on its own test; `reason` names why
    a step was not kept and is empty when one was.  `rows` holds one row
    per kept step: (iteration, x, y, z, exact objective, worst SNR
    surplus)."""

    stage: str
    objective: float = math.nan
    iterations: int = 0
    accepted: int = 0
    capped: bool = False
    reason: str = ""
    rows: list = field(default_factory=list)


def _step_search(incumbent: Audit, xy_cand: np.ndarray, project,
                 inputs: SlotInputs) -> Audit | None:
    """The step, at the incumbent's altitude, along the direction from the
    incumbent to the horizontal candidate: None if no step is kept.

    The step fraction tau walks down from the full step, 1, 1/2, ...,
    until the exact objective stops dropping and the relayed SNRs still
    clear their floors.  When the full step is kept it walks up instead,
    2, 4, ..., each trial projected onto the move disc by `project`, and
    keeps the last trial that strictly raises the exact objective with
    the SNRs clear; it stops at the first trial that does not, or whose
    projection returns the kept position.  The surrogate's tangent bounds
    are tight only at the incumbent, so its maximizer can fall short of
    the exact objective's rise along the same direction; over-relaxing
    the bound step (Salakhutdinov & Roweis, "Adaptive Overrelaxed Bound
    Optimization Methods", ICML 2003) takes that rise in one step.  No
    position is audited twice: a trial that lands on the
    incumbent reuses its audit."""
    floor = incumbent.objective - _ACCEPT_SLACK * max(1.0, abs(incumbent.objective))
    xy_inc, z = incumbent.position[:2], incumbent.position[2]
    step = xy_cand - xy_inc

    def audit(xy) -> Audit:
        pos = (xy[0], xy[1], z)
        return incumbent if np.array_equal(pos, incumbent.position) else _audit(pos, inputs)

    tau = 1.0
    for _ in range(_BACKTRACK_STEPS):
        kept = audit(xy_inc + tau * step)
        if kept.objective >= floor and kept.surplus >= -_QOS_CHECK_TOL:
            break
        tau *= 0.5
    else:
        return None
    if tau < 1.0:
        return kept
    for _ in range(_EXTEND_STEPS):
        tau *= 2.0
        xy = project(xy_inc + tau * step)
        if np.array_equal(xy, kept.position[:2]):
            break
        trial = audit(xy)
        if not (trial.objective > kept.objective and trial.surplus >= -_QOS_CHECK_TOL):
            break
        kept = trial
    return kept


def solve_horizontal(start: Audit, anchor, inputs: SlotInputs) -> tuple[Audit, StageLog]:
    """One SCP step over (x, y) at the altitude of the audited position
    `start`, within the move radius around `anchor`: maximize the tangent
    surrogate around `start` and keep the step that `_step_search` finds
    along it, shortened while the exact objective drops, lengthened while
    it keeps rising.  The slot's block-coordinate loop is what repeats
    the step, and it stops on the one tolerance of the slot; one
    surrogate step per block per cycle is enough for that loop to
    converge (BSUM: Razaviyayn, Hong & Luo, SIAM J. Optim. 2013).
    Returns the audit of the kept position, or `start` itself when no
    step is kept, and the stage log."""
    s = inputs.scenario
    log = StageLog("horizontal", objective=start.objective)
    if not inputs.relay_pairs():
        log.reason = "no relayed assignments; objective does not depend on position"
        return start, log
    anchor = np.asarray(anchor, dtype=float)
    r_eff = move_radius(s.d_max, s.e_max, s.slot_len, s.propulsion)
    r_h = math.sqrt(max(r_eff * r_eff - (start.position[2] - anchor[2]) ** 2, 0.0))
    log.iterations = 1
    xy = start.position[:2].copy()
    ctx = horizontal_surrogate(inputs, start.position)
    barrier = _horizontal_barrier(ctx, inputs)
    if np.any(barrier.fn(xy)[0] <= 0.0):
        log.reason = "approximated SNR set leaves no room at the incumbent"
        return start, log
    fset = FeasibleSet(ball=(anchor[:2], r_h), barrier=barrier)
    res = maximize_concave(_stage_objective(ctx, inputs), fset, xy,
                           max_iters=_INNER_ITERS)
    log.capped = res.diagnostics.reason == "iteration cap"
    if not res.feasible:
        log.reason = f"inner solve unusable: {res.diagnostics.reason}"
        return start, log
    new = _step_search(start, res.x, fset.project, inputs)
    if new is None:
        log.reason = "no step kept the exact objective from dropping"
        return start, log
    log.accepted = 1
    log.objective = new.objective
    log.rows.append((1, *new.position, new.objective, new.surplus))
    return new, log


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
    passes: int          # horizontal steps: 1, or 0 without relayed pairs
    logs: list[StageLog]


def to_algorithm(state: UavState, inputs: SlotInputs,
                 gains: ChannelGains | None = None) -> TrajectoryResult:
    """Audit the start, make one horizontal SCP step from it, then
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
