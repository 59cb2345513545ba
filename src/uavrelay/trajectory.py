"""Per-slot UAV position refinement.

Only the relayed links depend on where the UAV sits.  The horizontal
stage makes one SCP step in (x, y) at the held altitude: it maximizes a
concave surrogate of the weighted relayed rate, built from tangent lower
bounds on the air gains around the incumbent.  The surrogate is one
objective with its exact 2x2 Hessian, so `convex_core` maximizes it by
damped Newton steps, each an exact trust-region step on the move disc,
and stops on the Newton decrement.  Neither the disc nor the hop floors
are barrier rows: as one, each held Newton to millimetre steps along its
edge, and solves that crawled so ran to the iteration cap.  The step
from the incumbent toward the surrogate's maximizer is then searched on
the exact slot objective in both directions: halved toward the incumbent
until the objective does not drop, or, when the full step is kept,
doubled (and projected onto the move disc) while the objective keeps
rising.  The objective thus never drops regardless of surrogate quality,
and a tangent bound that is too cautious far from its expansion point
does not cost one block-coordinate cycle per short step.  The search
also holds the hop floors: it keeps no trial whose relayed SNRs miss
them on the exact channel.  So a kept step is feasible and does not drop
the exact objective, which is all a BSUM block step needs (Razaviyayn,
Hong & Luo, SIAM J. Optim. 2013), and the stage returns the incumbent
unchanged where no step is kept.  The altitude is held for the whole
episode (`solve_altitude`).

Without relayed assignments the slot objective does not depend on the
position, and a UAV parked out of QoS reach of the UEs that earn nothing
would never form the pair that lets the step engage.  So the stage then
drifts instead: it moves horizontally from the slot's anchor toward the
weight-averaged position of the starved UEs, spending the move radius,
and keeps the objective it started with.  The drift and the step share
one move disc (`_move_disc_radius`).

The stage's objective is a sum over the 2P hops of the P relayed (UE,
subchannel) pairs, each hop a function of one of the N + 1 ground peers'
gain bounds.  So one evaluation (`_horizontal_objective`) takes each
peer's bound, gradient and Hessian once, weighs them by the derivatives
of its hops' rate terms summed per peer, and forms no per-hop gradient
or Hessian.  It runs on Python floats and `math`: one pass over the
peers that carry a hop (`_PeerCores.at`), one over the hops for the
rates and the per-peer weights, and the 2x2 gradient and Hessian summed
from those.  With a handful of peers and 2 to 8 hops, numpy's per-call
overhead, not the arithmetic, was an evaluation's cost: its numpy form
made about 80 calls, and over relay_mixed's panel solves it took 85 us
an evaluation against 15 us for the float passes (best of 7 runs; 2-vCPU
Xeon VM, Python 3.11.7, numpy 2.4.6).  The inner solve starts at the
incumbent, where each gain bound is tight and each hop's surrogate
signal positive.  The stage starts from the slot's audited state
(`Audit`), which the block-coordinate loop carries already priced, and
the step search audits its trials on the exact channel in at most two
passes over a stack of positions (`_audits`).  So no position is audited
twice in one `to_algorithm` call, the start included; the call makes one
horizontal step, the slot's block-coordinate loop is the only loop that
repeats it, and it stops on the slot's one tolerance.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .channel import ChannelGains, gain_matrices, slot_channel
from .convex_core import FeasibleSet, maximize_concave
from .link_rate import HALF_LOG2E, QOS_TOL, PowerAllocation, RateReport, dc_m, rate_report
from .scenario import A2GParams, Scenario
from .uav_power import move_radius

_ACCEPT_SLACK = 1e-12   # relative slack when comparing exact objectives
_EXP_CAP = 500.0        # caps exponents where a loose tangent runs wild
_NUDGE = 0.1            # m, horizontal shift applied over a degenerate peer
_INNER_ITERS = 50
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
    """One audited slot state: the modes, allocation, powers and weights
    of `inputs`, with the UAV at `position`, priced exactly on the
    channel there.  The slot's block-coordinate loop carries one; each
    stage takes the incumbent's and returns one that is exact for what it
    returns, or the incumbent's itself when it changes nothing.  Every
    state the loop carries clears its QoS floors, within `QOS_TOL` on an
    SNR: the funding, the power stage's projection and the step search's
    test (`_audits`) see to it, and `validate_solution` checks the last."""

    inputs: SlotInputs
    position: np.ndarray  # (3,)
    gains: ChannelGains   # the exact channel at the position
    objective: float      # weighted sum rate
    rates: np.ndarray     # (N,) each UE's rate

    @classmethod
    def priced(cls, inputs: SlotInputs, position: np.ndarray, gains: ChannelGains,
               report: RateReport | None = None) -> Audit:
        """The state of `inputs` at `position`, from `report`, their exact
        rate report on `gains`, or from one made here.  An allocation
        that assigns nothing earns nothing and misses no QoS floor, so it
        is not priced: a cold start, a draw that funds nobody, a power
        run that shed every assignment."""
        if not inputs.alloc.any():
            return cls(inputs, position, gains, 0.0, np.zeros(len(inputs.alloc)))
        report = report or rate_report(inputs.beta, inputs.alloc, inputs.powers, gains,
                                       inputs.weights, inputs.scenario)
        return cls(inputs, position, gains, report.objective, report.per_ue_rate)


def _audits(positions: np.ndarray, inputs: SlotInputs) -> list[Audit | None]:
    """The slot at each UAV position of the stack `positions` (T, 3),
    from one channel and one rate evaluation over the stack, or None at a
    position where a relayed hop misses its QoS floor: its SNR margin
    (`LinkBudget.margins()`) is below -`QOS_TOL`.  Each audit is
    bit-identical to pricing its position alone."""
    stack = gain_matrices(inputs.scenario, positions, inputs.slot_index)
    report = rate_report(inputs.beta, inputs.alloc, inputs.powers, stack, inputs.weights,
                         inputs.scenario)
    cleared = np.all([m[..., report.link.relay].min(axis=-1, initial=math.inf) >= -QOS_TOL
                      for m in report.link.margins()], axis=0)
    return [Audit(inputs, pos,
                  ChannelGains(stack.h_ue_bs, stack.h_ue_uav[t], stack.h_uav_bs[t, 0]),
                  float(report.objective[t]), report.per_ue_rate[t]) if ok else None
            for t, (pos, ok) in enumerate(zip(positions, cleared))]


def _move_disc_radius(s: Scenario, z: float, anchor: np.ndarray) -> float:
    """Radius of the horizontal disc around `anchor` that a UAV held at
    altitude `z` can reach within the slot's move radius."""
    r_eff = move_radius(s.d_max, s.e_max, s.slot_len, s.propulsion)
    return math.sqrt(max(r_eff * r_eff - (z - anchor[2]) ** 2, 0.0))


# ---------------------------------------------------------------------------
# Horizontal stage: concave tangent bounds on the air gains in (x, y).

class _PeerCores:
    """Concave lower bounds, with their gradients and Hessians, on the
    frequency-free reciprocal pathloss 1 / (d^2 * mixture) toward each
    ground peer, as functions of the UAV's horizontal position at fixed
    altitude.

    Built per peer from three tangents taken at the expansion point: the
    elevation angle in the slant ratio, the logistic LoS probability in
    the angle, and the reciprocal in the resulting pathloss.  Each tangent
    is global, so each composite is a global lower bound, tight at the
    expansion.  Each peer's constants are kept as one tuple of floats
    (`peers`), which `at` evaluates on floats and `math`, peer by peer:
    over a handful of peers a numpy call costs more than its arithmetic.
    `_EXP_CAP` bounds the logistic's exponent, where a loose tangent far
    from the expansion runs wild and `math.exp` would overflow."""

    def __init__(self, peers_xy: np.ndarray, dz: np.ndarray, params: A2GParams,
                 exp_xy: np.ndarray):
        if np.any(dz <= 0.0):
            raise ValueError("peer must sit below the UAV")
        p = params
        x0, y0 = exp_xy.tolist()
        self.a, self.peers = p.a, []
        for (px, py), h in zip(peers_xy.tolist(), dz.tolist()):
            r = math.hypot(x0 - px, y0 - py)
            if r < _NUDGE * 0.5:
                raise ValueError("expansion point degenerate; nudge it first")
            slant = math.sqrt(1.0 + (r / h) ** 2)  # 3-d distance over height
            theta0 = math.degrees(math.asin(1.0 / slant))
            theta_slope = -math.degrees(1.0) / (slant * math.sqrt(slant * slant - 1.0))
            d0 = 1.0 + p.a * math.exp(-p.b * (theta0 - p.a))
            # the tangent angle theta0 + theta_slope * (s - slant) enters the
            # logistic as e = a * exp(exp_slope * s + exp_shift), and the
            # tangent of 1/u at u = d0, taken at u = 1 + e, turns the mixture
            # into m0 - m1 * e
            exp_slope = -p.b * theta_slope
            exp_shift = -p.b * (theta0 - theta_slope * slant - p.a)
            m0 = p.eta_nlos + (p.eta_los - p.eta_nlos) * (2.0 / d0 - 1.0 / (d0 * d0))
            m1 = (p.eta_los - p.eta_nlos) / (d0 * d0)
            # d(mixture)/d(xy) = e * dmix * diff / slant
            dmix = m1 * p.b * theta_slope / (h * h)
            # the pathloss shape d^2 * mixture at the expansion, LoS probability 1 / d0
            shape0 = (r * r + h * h) * (p.eta_nlos + (p.eta_los - p.eta_nlos) / d0)
            self.peers.append((px, py, h * h, 1.0 / (h * h), exp_slope, exp_shift, m0, m1,
                               dmix, 2.0 / shape0, 1.0 / (shape0 * shape0)))

    def at(self, x: float, y: float, which) -> list[tuple[float, ...]]:
        """(bound, dx, dy, iso, aniso) of each peer core indexed in `which`
        at (x, y), with (dx, dy) = (x, y) - peer and the Hessian -(iso I +
        aniso diff diff^T).  The bound is the tangent of the reciprocal at
        shape0, 2/shape0 - shape/shape0^2, of the convex pathloss shape
        d^2 * mixture.  With u = e / slant, the gradient is -coef diff /
        shape0^2, coef = 2 mix + d^2 u dmix, and the gradient of coef is
        c2 diff: iso is coef / shape0^2 and aniso c2 / shape0^2, and the
        gradient is -iso diff."""
        a, out = self.a, []
        for i in which:
            px, py, dz2, inv_dz2, slope, shift, m0, m1, dmix, two0, inv0_sq = self.peers[i]
            dx, dy = x - px, y - py
            r2 = dx * dx + dy * dy
            slant = math.sqrt(1.0 + r2 * inv_dz2)
            e = a * math.exp(min(slope * slant + shift, _EXP_CAP))
            d2, mix, u = r2 + dz2, m0 - m1 * e, e / slant
            iso = (2.0 * mix + d2 * u * dmix) * inv0_sq
            aniso = dmix * u * (4.0 + d2 * (slope * slant - 1.0) * inv_dz2 / (slant * slant)) \
                * inv0_sq
            out.append((two0 - d2 * mix * inv0_sq, dx, dy, iso, aniso))
        return out


def _nudged_expansion(xy, peers_xy) -> np.ndarray:
    """Shift the expansion point off any peer it hovers over."""
    x, y = map(float, xy)
    peers = peers_xy.tolist()
    for _ in range(5):
        for px, py in peers:
            dx, dy = x - px, y - py
            r = math.hypot(dx, dy)
            if r < _NUDGE:
                x, y = (x + _NUDGE * dx / r, y + _NUDGE * dy / r) if r > 0.0 else (x + _NUDGE, y)
                break
        else:
            break
    return np.array((x, y))


@dataclass(frozen=True)
class SurrogateContext:
    """Tangent gain bounds for one horizontal expansion point.

    The peer cores are the geometry (the N UEs, then the BS).  Each of
    the P relayed pairs crosses two hops, every pair's access hop and
    then every backhaul hop: `rows` picks each hop's peer core and
    `scale` folds the carrier frequency and the slot's fading draw of
    its (peer, subchannel) link, so hop j's gain bound is scale[j]
    times the bound of peer core rows[j]."""

    x0: np.ndarray          # (2,) expansion point
    ue: np.ndarray          # (P,)
    sub: np.ndarray         # (P,)
    cores: _PeerCores
    rows: np.ndarray        # (2P,) peer core of each hop
    scale: np.ndarray       # (2P,) hop scales


def horizontal_surrogate(inputs: SlotInputs, position) -> SurrogateContext:
    """Build the tangent bounds around `position` (expansion nudged off
    any peer it sits directly above)."""
    s = inputs.scenario
    chan = slot_channel(s, inputs.slot_index)
    z = float(position[2])
    peers_xy = chan.peers[:, :2]
    exp_xy = _nudged_expansion(np.asarray(position[:2], dtype=float), peers_xy)
    cores = _PeerCores(peers_xy, z - chan.peers[:, 2], s.a2g, exp_xy)
    ue, sub = np.array(inputs.relay_pairs(), dtype=int).reshape(-1, 2).T
    rows = np.concatenate([ue, np.full(ue.size, len(peers_xy) - 1)])
    scale = np.concatenate([chan.air_scale[ue, sub], chan.air_scale[-1, sub]])
    return SurrogateContext(exp_xy, ue, sub, cores, rows, scale)


def _horizontal_objective(ctx: SurrogateContext, inputs: SlotInputs):
    """The stage's objective over (x, y), x -> (value, gradient,
    Hessian): the weighted sum of the surrogate rates, and -inf where a
    hop's surrogate signal p h + noise is not positive, outside the
    domain of its log.

    Each rate is the split K - M of `link_rate` in the hop signals p h,
    chained through the powers into the gain bounds.  M is replaced by
    its tangent at the expansion point, taken once here, so each rate is
    concave in the gain bounds and tight at the expansion.  The hop
    floors are no term of it: the step search holds them on the exact
    channel (`_step_search`).  Rates are sums over hops, each a function
    of its peer core's bound alone, so one pass over the cores that carry
    a hop serves them all: per hop, the first and second derivatives of
    its rate term in the core bound (alpha, beta), summed per core, weigh
    the cores' gradients and Hessians once.  Setup and evaluation run on
    Python floats (the module docstring says why).  The value keeps M's
    tangent as M0 plus a slope times xy - x0, a small term near the
    expansion, not as a constant less slope . xy, which would cancel."""
    s = inputs.scenario
    n = ctx.ue.size
    rows = ctx.rows.tolist()
    peers = sorted(set(rows))  # the cores that carry a hop; the rest weigh nothing
    x0, y0 = ctx.x0.tolist()
    cores0 = ctx.cores.at(x0, y0, peers)
    pp = np.concatenate([inputs.powers.p_ue[ctx.ue, ctx.sub], inputs.powers.p_uav[ctx.sub]])
    w = inputs.weights[ctx.ue].tolist() * 2  # per hop: access hops, then backhaul hops
    noise = (s.noise_var, s.noise_var + s.ici_power)
    # per hop: its core, scale, power and noise, and the weighted rate
    # term's first and second derivatives in its core's bound over dK/ds
    # and d2K/ds2
    hops = [(peers.index(i), c, p, noise[j // n], wj * p * c, wj * p * c * p * c)
            for j, (i, c, p, wj) in enumerate(zip(rows, ctx.scale.tolist(), pp.tolist(), w))]
    m0, dm = dc_m(pp * [c * cores0[k][0] for k, c, *_ in hops], True, s.noise_var, s.ici_power)
    # M's tangent slope per pair: each partial in a signal p h, times p,
    # times the gain's gradient -iso diff
    g0 = [(-iso * dx, -iso * dy) for _, dx, dy, iso, _ in cores0]
    q0 = [(d * p * c * g0[k][0], d * p * c * g0[k][1])
          for d, (k, c, p, *_) in zip(dm.tolist(), hops)]
    pairs = [(wn, mn, qa[0] + qb[0], qa[1] + qb[1])
             for wn, mn, qa, qb in zip(w, m0.tolist(), q0[:n], q0[n:])]
    # sums run in member order with `+=`: `sum()` compensates its rounding
    # from Python 3.12 on, so the answers would hinge on the Python version
    slope_x = slope_y = 0.0
    for wn, _, mx, my in pairs:
        slope_x += wn * mx
        slope_y += wn * my

    def objective(xy: np.ndarray) -> tuple:
        x, y = map(float, xy)
        cores = ctx.cores.at(x, y, peers)
        alpha, beta = [0.0] * len(peers), [0.0] * len(peers)
        a = []
        for k, c, p, noise_j, ws, ws2 in hops:
            a_j = p * (c * cores[k][0]) + noise_j
            if a_j <= 0.0:
                return -math.inf, None, None
            dk = HALF_LOG2E / a_j
            alpha[k] += ws * dk
            beta[k] += ws2 * (-dk / a_j)
            a.append(a_j)
        dx0, dy0 = x - x0, y - y0
        value = 0.0
        for (wn, mn, mx, my), a1, a2 in zip(pairs, a[:n], a[n:]):
            value += wn * (0.5 * math.log2(a1 * a2) - mn - (mx * dx0 + my * dy0))
        # sum_i alpha_i H_i + beta_i g_i g_i^T, with H_i = -(iso_i I + aniso_i
        # d_i d_i^T) and g_i = -iso_i d_i
        gx, gy, hxx, hxy, hyy, diag = -slope_x, -slope_y, 0.0, 0.0, 0.0, 0.0
        for (_, dx, dy, iso, aniso), al, be in zip(cores, alpha, beta):
            gx -= al * iso * dx
            gy -= al * iso * dy
            c = be * iso * iso - al * aniso
            hxx += c * dx * dx
            hxy += c * dx * dy
            hyy += c * dy * dy
            diag += al * iso
        return value, np.array((gx, gy)), np.array(((hxx - diag, hxy), (hxy, hyy - diag)))

    return objective


# ---------------------------------------------------------------------------
# The stage log, and the horizontal SCP step.

@dataclass
class StageLog:
    """Per-stage trace.  `iterations` counts the SCP steps made (the
    horizontal stage makes at most one per call) and `accepted` those
    kept; `capped` says the step's inner solve stopped at its iteration
    cap (`_INNER_ITERS`) rather than on its own test; `reason` names why
    a step was not kept and is empty when one was.  The stage's position
    and objective are those of the `Audit` it returns."""

    stage: str
    iterations: int = 0
    accepted: int = 0
    capped: bool = False
    reason: str = ""


def _step_search(incumbent: Audit, xy_cand: np.ndarray, project) -> Audit | None:
    """The step, at the incumbent's altitude, along the direction from the
    incumbent to the horizontal candidate: None if no step is kept.

    The step fraction tau walks down from the full step, 1, 1/2, ...,
    until the exact objective stops dropping and the relayed SNRs still
    clear their floors.  When the full step is kept it walks up instead,
    2, 4, ..., each trial projected onto the move disc by `project`, and
    keeps the last trial that strictly raises the exact objective with the
    SNRs clear; it stops at the first trial that does not, or whose
    projection lies within the shortest halving's length, 2**-10 of the
    full step, of the kept position: on the disc's edge the projections
    close in on one point, and a trial that close to the last one is not
    worth its audit.  The surrogate's tangent bounds are tight only at the
    incumbent, so its maximizer can fall short of the exact objective's
    rise along the same direction; over-relaxing the bound step
    (Salakhutdinov & Roweis, "Adaptive Overrelaxed Bound Optimization
    Methods", ICML 2003) takes that rise in one step.

    The trials are audited in at most two passes (`_audits`): the full
    step and its doublings, then, only when the full step is refused,
    the halvings.  The walk over each pass is the one above, so the kept
    position and its audit are those of one audit per trial in turn.
    No position is audited twice: a trial that lands on the incumbent is
    the incumbent, whose SNRs clear their floors (`Audit`)."""
    floor = incumbent.objective - _ACCEPT_SLACK * max(1.0, abs(incumbent.objective))
    xy_inc, z = incumbent.position[:2], incumbent.position[2]
    step = xy_cand - xy_inc

    def audited(points: list[np.ndarray]) -> list[Audit | None]:
        pos = np.array([(xy[0], xy[1], z) for xy in points])
        fresh = (pos != incumbent.position).any(axis=1)
        audits = iter(_audits(pos[fresh], incumbent.inputs) if fresh.any() else ())
        return [next(audits) if f else incumbent for f in fresh]

    # the doublings stop where a projection moves the trial before it by
    # no more than the shortest halving
    points, least = [xy_inc + step], math.hypot(*step) * 2.0 ** (1 - _BACKTRACK_STEPS)
    for tau in 2.0 ** np.arange(1, _EXTEND_STEPS + 1):
        xy = project(xy_inc + tau * step)
        if math.dist(xy, points[-1]) <= least:
            break
        points.append(xy)
    kept, *longer = audited(points)
    if kept is not None and kept.objective >= floor:
        for trial in longer:
            if trial is None or not trial.objective > kept.objective:
                break
            kept = trial
        return kept
    halvings = [xy_inc + tau * step for tau in 0.5 ** np.arange(1, _BACKTRACK_STEPS)]
    for trial in audited(halvings):
        if trial is not None and trial.objective >= floor:
            return trial
    return None


def solve_horizontal(start: Audit, anchor) -> tuple[Audit, StageLog]:
    """One SCP step over (x, y) at the altitude of the audited position
    `start`, within the move radius around `anchor`: maximize the tangent
    surrogate around `start` and keep the step that `_step_search` finds
    along it, shortened while the exact objective drops or a hop misses
    its floor, lengthened while it keeps rising.  The surrogate has no
    floor term, so the floors bound no solve: where no trial clears them,
    no step is kept.  The slot's block-coordinate loop is what repeats the
    step, and it stops on the one tolerance of the slot; one surrogate
    step per block per cycle is enough for that loop to converge (BSUM:
    Razaviyayn, Hong & Luo, SIAM J. Optim. 2013).  `start` holds relayed
    assignments: without them `to_algorithm` drifts instead.  Returns the
    audit of the kept position, or `start` itself when no step is kept,
    and the stage log."""
    inputs = start.inputs
    log = StageLog("horizontal", iterations=1)
    anchor = np.asarray(anchor, dtype=float)
    r_h = _move_disc_radius(inputs.scenario, start.position[2], anchor)
    ctx = horizontal_surrogate(inputs, start.position)
    fset = FeasibleSet(ball=(anchor[:2], r_h))
    res = maximize_concave(_horizontal_objective(ctx, inputs), fset, start.position[:2],
                           max_iters=_INNER_ITERS)
    log.capped = res.diagnostics.reason == "iteration cap"
    if not res.feasible:
        log.reason = f"inner solve unusable: {res.diagnostics.reason}"
        return start, log
    new = _step_search(start, res.x, fset.project)
    if new is None:
        log.reason = "no step kept the exact objective from dropping"
        return start, log
    log.accepted = 1
    return new, log


# ---------------------------------------------------------------------------
# Altitude: held.

def solve_altitude(start: Audit, anchor) -> tuple[Audit, StageLog]:
    """The altitude policy: hold the altitude, returning `start` itself.

    A per-slot altitude move did not pay.  An SCP over z, with the LoS
    probability linearized in z, moved the UAV by more than 1 cm in one
    of the 700 slots that `scripts/parity.py` runs, and holding instead
    raised the later slot objectives of that episode.  An exact bounded
    search on the audited objective lowered the random baseline's
    episode objective by 4% and tripled jmstp's 90th-percentile slot
    time."""
    return start, StageLog("altitude", reason="altitude held")


# ---------------------------------------------------------------------------
# The trajectory stage.

@dataclass
class TrajectoryResult:
    audit: Audit         # the stage's answer: its start itself when nothing moved
    passes: int          # horizontal steps: 1, or 0 without relayed pairs
    logs: list[StageLog]


def _drift_toward_unserved(start: Audit, anchor: np.ndarray) -> TrajectoryResult:
    """Horizontal move from the slot anchor toward the weight-averaged
    position of the UEs earning nothing at `start`, spending the
    remaining move radius; `start` itself when everyone is served or the
    UAV stays put.  Without relayed assignments the move changes neither
    the objective nor a rate, so only the gains are evaluated again."""
    inputs, pos = start.inputs, start.position
    s = inputs.scenario
    starved = np.flatnonzero(start.rates <= 0.0)
    if starved.size:
        ues = np.asarray(s.ue_positions, dtype=float)[starved, :2]
        target = np.average(ues, axis=0, weights=inputs.weights[starved])
        r_h = _move_disc_radius(s, pos[2], anchor)
        step = target - anchor[:2]
        dist = float(np.linalg.norm(step))
        xy = target if dist <= r_h else anchor[:2] + step * (r_h / dist)
        new = np.array([xy[0], xy[1], pos[2]])
        if not np.array_equal(new, pos):
            start = replace(start, position=new, gains=gain_matrices(s, new, inputs.slot_index))
    return TrajectoryResult(start, 0, [])


def to_algorithm(start: Audit, anchor) -> TrajectoryResult:
    """One horizontal SCP step from the audited state `start` within the
    move radius around `anchor`, then `solve_altitude`, which holds the
    altitude; the answer is the kept position's audit, or `start` itself.
    Without relayed assignments it drifts instead
    (`_drift_toward_unserved`): toward the UEs earning nothing, with no
    step.  Nothing is priced at `start`, which the caller holds exact."""
    anchor = np.asarray(anchor, dtype=float)
    if not start.inputs.relay_pairs():
        return _drift_toward_unserved(start, anchor)
    cur, hlog = solve_horizontal(start, anchor)
    cur, alog = solve_altitude(cur, anchor)
    return TrajectoryResult(cur, 1, [hlog, alog])
