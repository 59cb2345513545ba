"""Per-slot transmit power optimization at fixed modes, allocation, and
UAV position.

Each rate is `link_rate`'s difference-of-concave split K - M in the
received signals, chained here through the gains into the powers;
linearizing M at the current iterate gives a concave surrogate that is
tight there and never overshoots, so the SCP loop is monotone in the
exact weighted sum rate.  All constraints are linear at fixed gains:
one budget block per entity and per-subchannel QoS floors.  The
surrogate is separable, so each SCP step maximises it in closed form by
multi-level water-filling (`surrogate_argmax`), and `maximize_concave`
only certifies that point with one projected-gradient test.  A problem
holds a few variables, where numpy's per-call overhead costs more than
the arithmetic, so the step's kernels run on Python floats, one budget
block at a time: the water-filling, M's tangent (`m_tangent`) and the
block projection (`convex_core.FeasibleSet`).  With nothing
relayed, every M is a constant, the surrogate is the exact objective and
its maximiser is the answer, so the loop stops after one step.  With a
relayed variable, a step that gains the loop's tolerance is over-relaxed:
its doublings are kept while the exact objective strictly rises, so a
run that would creep in small certified steps takes each rise in one
step.  Only the plain step is certified; the exact objective audits the
doublings.  Every power start comes from one funding rule,
`restore_feasible`: carried powers stay, every other assignment is
funded at its floor, best weighted full-budget rate first, an
assignment its budgets cannot pay is shed, and what each budget has
left is spread by weighted marginal rate.  It runs on Python floats
over the allocation's pairs, after one `LinkBudget` call prices them at
full budget, and builds no `PowerProblem`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .channel import ChannelGains
from .convex_core import FeasibleSet, maximize_concave
from .link_rate import (HALF_LOG2E, LinkBudget, PowerAllocation, RateReport, dc_k,
                        floor_signals, rate_report)
from .scenario import Scenario

_FLOOR_MARGIN = 1e-9    # relative headroom when funding a QoS floor
_NEWTON_STEPS = 100     # a guard: the water levels settle in a few passes


@dataclass
class DcTerms:
    """The K of `link_rate`'s split of every rate term at one power
    vector, laid out over a `PowerProblem`'s variables, with its partials.

    `k` holds each assigned subchannel's K (UE-variable order).  Every
    variable feeds exactly one UE's rate, so one gradient entry per
    variable suffices: `k_grad[i]` differentiates the K of the UE that
    owns variable i."""

    k: np.ndarray
    k_grad: np.ndarray


class PowerProblem:
    """One slot's power allocation: the exact objective, the tight concave
    surrogate, the linear feasible set and each variable's QoS floor.

    The active powers are flattened into a vector: first the UE power of
    every assigned (ue, subchannel) in row-major order, then the UAV power
    of every relayed subchannel in the same order.  A subchannel serves at
    most one UE, so each UAV variable belongs to exactly one relayed UE
    variable."""

    def __init__(self, beta: np.ndarray, alloc: np.ndarray, gains: ChannelGains,
                 weights: np.ndarray, scenario: Scenario):
        self.beta = np.asarray(beta, dtype=int)
        self.alloc = np.asarray(alloc, dtype=int)
        self.gains = gains
        self.weights = np.asarray(weights, dtype=float)
        self.sc = scenario
        self.sigma2 = sigma2 = scenario.noise_var
        self.ici = ici = scenario.ici_power
        self.ue_n, self.ue_k = np.nonzero(self.alloc)
        self.relay = self.beta[self.ue_n] == 1
        self.uav_k = self.ue_k[self.relay]
        self.n_ue_vars = self.ue_n.size
        self.n_vars = self.n_ue_vars + self.uav_k.size
        # the UE whose rate each variable feeds
        self.owner = np.concatenate((self.ue_n, self.ue_n[self.relay]))

        # each variable's gain: a UE power's hop 1, then a UAV power's hop 2
        self.h = np.concatenate((
            np.where(self.relay, gains.h_ue_uav[self.ue_n, self.ue_k],
                     gains.h_ue_bs[self.ue_n, self.ue_k]),
            gains.h_uav_bs[self.uav_k]))
        # the variable behind each signal, hops stacked as `dc_k` takes
        # them: a direct link's hop 2 hears its UE again, a relayed one the UAV
        hop2 = np.arange(self.n_ue_vars)
        hop2[self.relay] = np.arange(self.n_ue_vars, self.n_vars)
        self._stack = np.concatenate((np.arange(self.n_ue_vars), hop2))
        self._noise = np.repeat((sigma2, sigma2 + ici), self.n_ue_vars)

    def qos_floors(self) -> np.ndarray:
        """Per-variable QoS lower bounds at the fixed gains."""
        floor_ue, floor_uav = floor_signals(self.relay, self.sc.snr_thresholds,
                                            self.sigma2, self.ici)
        return np.concatenate((floor_ue, floor_uav[self.relay])) / self.h

    def pack(self, powers: PowerAllocation) -> np.ndarray:
        return np.concatenate((powers.p_ue[self.ue_n, self.ue_k],
                               powers.p_uav[self.uav_k]))

    def unpack(self, x: np.ndarray) -> PowerAllocation:
        p_ue = np.zeros(self.alloc.shape)
        p_uav = np.zeros(self.alloc.shape[1])
        p_ue[self.ue_n, self.ue_k] = x[:self.n_ue_vars]
        p_uav[self.uav_k] = x[self.n_ue_vars:]
        return PowerAllocation(p_ue, p_uav)

    def dc_terms(self, x: np.ndarray) -> DcTerms:
        """Every rate term's K (`link_rate.dc_k`) at the packed powers
        `x`, its partials chained through the gains: what the surrogate,
        which holds M's tangent, reads of the split."""
        s = (x * self.h)[self._stack]
        k, dk = dc_k(s, self._noise)
        return DcTerms(k, self.h * np.bincount(self._stack, dk, self.n_vars))

    def feasible_set(self) -> FeasibleSet:
        """One budget block per UE with variables, then the UAV's: the
        blocks of `_layout`, which run over the variables in order."""
        layout = self._layout
        block = [b for b, (mine, _, _) in enumerate(layout) for _ in mine]
        return FeasibleSet(blocks=(np.array(block, dtype=int),
                                   np.array([budget for _, budget, _ in layout])),
                           floors=np.array([t[-1] for _, _, terms in layout for t in terms]))

    def report(self, x: np.ndarray) -> RateReport:
        """The exact rate report at the packed powers `x`."""
        return rate_report(self.beta, self.alloc, self.unpack(x), self.gains,
                           self.weights, self.sc)

    def m_tangent(self, x0: np.ndarray) -> tuple[float, np.ndarray]:
        """The weighted subtracted piece M at x0 and its slope there, one
        entry per variable: the tangent the surrogate keeps of M.  This is
        `link_rate.dc_m` written out per link on Python floats: a relayed
        link's M is 1/2 log2(sigma2 (c s1 + s2 + sigma2 + I)), c = 1 +
        I / sigma2, and a direct link's is that constant at s = 0, with no
        slope."""
        x, h, w = x0.tolist(), self.h.tolist(), self.weights[self.owner].tolist()
        sigma2, noise2 = self.sigma2, self.sigma2 + self.ici
        c = 1.0 + self.ici / sigma2
        m_direct = 0.5 * math.log2(sigma2 * noise2)
        m0, slope = 0.0, [0.0] * self.n_vars
        # each UE variable and the one its hop 2 hears: itself on a direct link
        for i, j in enumerate(self._stack[self.n_ue_vars:].tolist()):
            if i == j:
                m0 += w[i] * m_direct
                continue
            v = c * (x[i] * h[i]) + x[j] * h[j] + noise2
            m0 += w[i] * (0.5 * math.log2(sigma2 * v))
            dv = HALF_LOG2E / v
            slope[i], slope[j] = w[i] * (h[i] * (c * dv)), w[j] * (h[j] * dv)
        return m0, np.array(slope)

    def surrogate(self, x0: np.ndarray,
                  tangent: tuple[float, np.ndarray] | None = None):
        """Concave minorant of the exact objective, tight at x0: the
        subtracted pieces are replaced by their tangents there.
        `tangent` is `m_tangent(x0)` when the caller already holds it."""
        m0, m_slope = self.m_tangent(x0) if tangent is None else tangent
        w_k = self.weights[self.ue_n]
        w_var = self.weights[self.owner]

        def objective(x: np.ndarray) -> tuple[float, np.ndarray]:
            terms = self.dc_terms(x)
            value = float(w_k @ terms.k) - m0 - float(m_slope @ (x - x0))
            return value, w_var * terms.k_grad - m_slope

        return objective

    @cached_property
    def _layout(self) -> list[tuple[list[int], float, list[tuple[float, ...]]]]:
        """Each budget block as (members, budget, terms) on Python floats,
        for the water-filling and `feasible_set`: a block per UE with
        variables, in UE order, then the UAV's.  Per member, `terms` holds
        its part of K as c*ln(y) + c2*ln(y + d) in y = x + b, as (c, c2,
        d, b, a, 2*c*d, d + b, floor) with a = c + c2: a direct UE power
        has two logs, one per phase, d apart; a relayed UE power (its
        access hop) and a UAV power (its backhaul hop) have one, c2 = d =
        0.  Built on first use, so a problem that neither water-fills nor
        projects pays nothing for it."""
        u, relay = self.n_ue_vars, self.relay.tolist()
        terms = []
        for i, (h, w, floor) in enumerate(zip(self.h.tolist(), self.weights[self.owner].tolist(),
                                              self.qos_floors().tolist())):
            c = HALF_LOG2E * w
            c2, d = (c, self.ici / h) if i < u and not relay[i] else (0.0, 0.0)
            b = (self.sigma2 if i < u else self.sigma2 + self.ici) / h
            terms.append((c, c2, d, b, c + c2, 2.0 * c * d, d + b, floor))
        blocks: dict[int, list[int]] = {}
        for i, n in enumerate(self.ue_n.tolist()):  # row-major: UEs ascend
            blocks.setdefault(n, []).append(i)
        layout = [(mine, float(self.sc.p_ue_max)) for mine in blocks.values()]
        if self.uav_k.size:
            layout.append((list(range(self.n_ue_vars, self.n_vars)), float(self.sc.p_uav_max)))
        return [(mine, budget, [terms[i] for i in mine]) for mine, budget in layout]

    def surrogate_argmax(self, x0: np.ndarray,
                         tangent: tuple[float, np.ndarray] | None = None) -> np.ndarray:
        """The exact maximiser of `surrogate(x0)` over `feasible_set()`:
        multi-level water-filling (Palomar & Fonollosa, IEEE TSP 2005;
        Boyd & Vandenberghe §5.5.3), one budget block at a time on Python
        floats (`_layout`).

        The surrogate is separable.  With s the slope of M's tangent and
        lam its block's multiplier, variable i sits where its marginal
        c/y + c2/(y + d) equals mu = s + lam, at the larger root of
        mu*y^2 + (mu*d - c - c2)*y - c*d = 0, clipped at its floor
        (`_levels`).  Newton's method solves sum_i x_i(lam) = budget per
        block; the sum is convex and decreasing in lam, and each block
        starts at or left of its root (`_water_start`), so no step
        overshoots.  A block that fits its budget at lam = 0 starts and
        stays there, so the first pass doubles as the fit test.  A
        zero-weight variable sits at its floor.  Over the benchmark's
        panels a solve takes about 3 passes on direct-only problems and
        4 to 5 with relayed variables."""
        _, slope = self.m_tangent(x0) if tangent is None else tangent
        slope = slope.tolist()
        x = [0.0] * self.n_vars
        for mine, budget, terms in self._layout:
            s = [slope[i] for i in mine]
            lam = _water_start(terms, s, budget)
            tol = 1e-15 * budget
            stalled = False
            for _ in range(_NEWTON_STEPS):
                levels, total, total_slope = _levels(terms, s, lam)
                excess = total - budget
                if stalled or not (excess > tol and total_slope < 0.0):
                    break
                step = lam - excess / total_slope
                # a step that rounding stalls ends the block, at that step
                stalled = not step > lam
                lam = step
            for i, v in zip(mine, levels):
                x[i] = v
        return np.array(x)


def _levels(terms: list[tuple[float, ...]], slope: list[float],
            lam: float) -> tuple[list[float], float, float]:
    """One block's water levels at its multiplier `lam`: the clipped
    powers, their sum and that sum's slope in `lam`.  Sums run in member
    order with `+=`: `sum()` compensates its rounding from Python 3.12
    on, so the answers would hinge on the Python version."""
    x, total, total_slope = [], 0.0, 0.0
    for (c, c2, d, b, a, cd2, _, floor), s in zip(terms, slope):
        level = floor
        if a:  # a weightless variable sits at its floor
            mu = s + lam
            lin = mu * d - a
            mu2 = 2.0 * mu
            root = math.sqrt(lin * lin + cd2 * mu2)
            # the cancellation-free form where the linear coefficient is positive
            y = cd2 / (lin + root) if lin > 0.0 else (root - lin) / mu2
            if y - b > floor:
                level = y - b
                yd = y + d
                total_slope -= 1.0 / (c / (y * y) + c2 / (yd * yd))
        x.append(level)
        total += level
    return x, total, total_slope


def _water_start(terms: list[tuple[float, ...]], slope: list[float], budget: float) -> float:
    """One block's starting multiplier, at or left of its root and 0 if
    the block fits its budget at 0: the larger of two lower bounds.

    One is the largest multiplier (at least 0) at which one variable
    alone takes its block's budget less the other floors; every other
    variable is then at or above its floor, so the block is still over
    budget there.  The other holds at the root: each variable's
    marginal mu = s + lam is at least a / (y + d), so y + d >= a / mu,
    and the block's powers x >= y - b sum to its budget B, so by
    Cauchy-Schwarz over the block A^2 / (sum a*s + lam*A) <= sum a / mu
    <= B + sum (d + b), that is lam >= A / (B + sum (d + b)) - sum a*s / A
    with A = sum a.  A weightless block (A = 0) has only the first
    bound."""
    floors = 0.0
    for t in terms:
        floors += t[7]
    lam = total = spread = weighted = 0.0
    for (c, c2, d, b, a, _, db, floor), s in zip(terms, slope):
        y = budget - floors + floor + b
        lam = max(lam, c / y + c2 / (y + d) - s)
        total += a
        spread += db
        weighted += a * s
    if not total:
        return lam
    return max(lam, total / (budget + spread) - weighted / total)

# ---------------------------------------------------------------------------
# Funding power starts.

def restore_feasible(beta: np.ndarray, alloc: np.ndarray, gains: ChannelGains,
                     weights: np.ndarray, sc: Scenario,
                     held: PowerAllocation | None = None
                     ) -> tuple[np.ndarray, PowerAllocation, list[tuple[int, int]]]:
    """Fund a power start for the allocation: the one funding rule.

    An assignment carries its `held` powers (its own, and the UAV's on its
    subchannel when relayed) where they still meet this slot's QoS floors,
    so a warm start funded on last slot's channel is re-funded wherever a
    floor has risen past it.  Every other assignment is funded at its
    floor plus a hair from what its UE and the UAV have left, best
    weighted full-budget rate first, ties in row-major order; one that
    either budget cannot pay is shed.  What each budget has left is then
    spread over its links by weighted marginal rate (`_spread`): the UE
    budgets first, then the UAV's, its marginals taken at the raised UE
    powers.  Returns the surviving allocation, its powers and the shed
    (ue, subchannel) pairs in funding order.

    Only the assigned links are priced: one full-budget `LinkBudget` over
    the allocation's pairs gives the floors and the ranking.  An
    allocation holds about 5 to 22 pairs, where numpy's per-call overhead
    costs more than the arithmetic, so the rest runs on Python floats
    over the pairs: the carry test, the ranking (a stable sort), the
    funding loop with each entity's spend as a running sum, and the
    spread, whose marginals are the partials of `link_rate.dc_k`'s K less
    `dc_m`'s M, written out per link as `PowerProblem.m_tangent` writes
    M.  Sums run in member order with `+=` (see `_levels`)."""
    alloc = np.asarray(alloc, dtype=int).copy()
    ue, sub = np.nonzero(alloc)
    relay = np.asarray(beta, dtype=int)[ue] == 1
    full = LinkBudget(relay, sc.p_ue_max, sc.p_uav_max, gains.h_ue_bs[ue, sub],
                      gains.h_ue_uav[ue, sub], gains.h_uav_bs[sub], sc.snr_thresholds,
                      sc.noise_var, sc.ici_power)
    floor_ue, floor_uav = (f.tolist() for f in full.floors())
    ues, subs, relays = ue.tolist(), sub.tolist(), relay.tolist()
    w = np.asarray(weights, dtype=float)[ue].tolist()
    # each pair's UE and UAV power, and each entity's spend so far
    p, q = [0.0] * ue.size, [0.0] * ue.size
    spent, spent_uav = [0.0] * alloc.shape[0], 0.0
    fresh = range(ue.size)
    if held is not None:
        # the channel may have moved since `held` was funded
        fresh = []
        for i, (hp, hq) in enumerate(zip(held.p_ue[ue, sub].tolist(),
                                         held.p_uav[sub].tolist())):
            if hp >= floor_ue[i] and hq >= floor_uav[i]:
                p[i] = hp
                spent[ues[i]] += hp
                if relays[i]:
                    q[i] = hq
                    spent_uav += hq
            else:
                fresh.append(i)

    # full-budget rates rank the rest, best first and ties in row-major
    # order; their floors fund them
    rate, funded = full.rate.tolist(), 1.0 + _FLOOR_MARGIN
    live = [True] * ue.size
    dropped: list[tuple[int, int]] = []
    for i in sorted(fresh, key=lambda i: -(w[i] * rate[i])):
        n, cost, cost_uav = ues[i], floor_ue[i] * funded, floor_uav[i] * funded
        if spent[n] + cost <= sc.p_ue_max and (
                not relays[i] or spent_uav + cost_uav <= sc.p_uav_max):
            spent[n] += cost
            p[i] = cost
            if relays[i]:
                spent_uav += cost_uav
                q[i] = cost_uav
        else:
            live[i] = False
            alloc[n, subs[i]] = 0
            dropped.append((n, subs[i]))

    kept = [i for i in range(ue.size) if live[i]]
    sigma2, noise2 = sc.noise_var, sc.noise_var + sc.ici_power
    c = 1.0 + sc.ici_power / sigma2
    h1, h2 = full.h_hop1.tolist(), full.h_uav_bs.tolist()

    def m_slope(i: int) -> float:  # dM/ds2 of relayed pair i at its powers
        return HALF_LOG2E / (c * (p[i] * h1[i]) + q[i] * h2[i] + noise2)

    def ue_marginal(i: int) -> float:
        s1 = p[i] * h1[i]
        dk = HALF_LOG2E / (s1 + sigma2)
        if relays[i]:
            return w[i] * max(h1[i] * dk - h1[i] * (c * m_slope(i)), 0.0)
        # a direct link's M is a constant
        return w[i] * (h1[i] * (dk + HALF_LOG2E / (s1 + noise2)))

    def uav_marginal(i: int) -> float:
        return w[i] * max(h2[i] * (HALF_LOG2E / (q[i] * h2[i] + noise2))
                          - h2[i] * m_slope(i), 0.0)

    by_ue: dict[int, list[int]] = {}
    for i in kept:
        by_ue.setdefault(ues[i], []).append(i)
    for mine in by_ue.values():
        _spread(sc.p_ue_max, mine, p, ue_marginal)
    _spread(sc.p_uav_max, [i for i in kept if relays[i]], q, uav_marginal)

    p_ue, p_uav = np.zeros(alloc.shape), np.zeros(alloc.shape[1])
    for i in kept:
        p_ue[ues[i], subs[i]] = p[i]
        if relays[i]:
            p_uav[subs[i]] = q[i]
    return alloc, PowerAllocation(p_ue, p_uav), dropped


def _spread(budget: float, mine: list[int], p: list[float], marginal) -> None:
    """Hand what `budget` leaves over its members' powers `p[i]`, i in
    `mine`, to them in proportion to `marginal(i)` (evenly when no member
    gains), in place."""
    total = 0.0
    for i in mine:
        total += p[i]
    leftover = budget - total
    if not leftover > 0.0:
        return
    gain = [marginal(i) for i in mine]
    total = 0.0
    for g in gain:
        total += g
    for i, g in zip(mine, gain):
        p[i] += leftover * (g / total if total > 0.0 else 1.0 / len(mine))


# ---------------------------------------------------------------------------
# The SCP driver.

@dataclass
class PowerResult:
    powers: PowerAllocation
    alloc: np.ndarray
    dropped: list[tuple[int, int]]
    objective: float
    iterations: int
    converged: bool
    trace: list[float] = field(default_factory=list)
    # the exact rate report at `powers`, or None when the call priced
    # nothing there: nothing is assigned, or the powers are `init`'s and
    # the caller priced them (`scp_power`'s `objective`)
    report: RateReport | None = None


_MAX_OUTER = 30
_EXTEND_STEPS = 6    # step multiples 2, 4, ..., 2**6 past a kept step
_INNER_ITERS = 500


def scp_power(beta: np.ndarray, alloc: np.ndarray, gains: ChannelGains,
              weights: np.ndarray, scenario: Scenario,
              init: PowerAllocation | None = None,
              objective: float | None = None) -> PowerResult:
    """Maximize the weighted sum rate over transmit powers.

    Each SCP step maximises the surrogate at the current powers exactly
    (`PowerProblem.surrogate_argmax`) and hands that point to
    `maximize_concave`, whose projected-gradient test certifies it (and
    which would climb from it if it were ever off).  The loop stops when
    a step gains less than the BCD tolerance in absolute terms, the test
    on which `orchestrator.jmstp_slot`'s loop stops, or when a step drops
    the exact objective by rounding (both `converged`), at `_MAX_OUTER`
    steps, or when the inner solve finds no feasible point (neither
    converged).  A problem with no relayed variable stops converged after
    its first kept step: each direct M is a constant, so the tangent's
    slope is 0, the surrogate equals the exact objective, and its exact
    maximiser does not depend on the expansion point; a second step
    would return the same powers bit for bit.

    With a relayed variable, M's tangent is tight only at the expansion
    point, so the certified step from x to x+ can fall well short of the
    exact objective's rise along x+ - x, and a run creeps, each step
    gaining a near-constant share of the last.  So a kept step is walked
    on (over-relaxed bound optimization: Salakhutdinov & Roweis, ICML
    2003, as in `trajectory._step_search`): through x + tau*(x+ - x),
    tau = 2, 4, ..., 2**`_EXTEND_STEPS`, each trial projected onto the
    feasible set and priced by the exact objective, keeping the last
    trial that strictly raises it; the walk stops at the first trial that
    does not, or whose projection returns the point kept before it.  The
    kept point is the step's answer and the next expansion point, and
    the step's gain is measured from x to it, so the stop on the BCD
    tolerance and the trace keep their meaning.  Only a step that gains
    the tolerance walks, since the loop goes on after it anyway: walking
    the tiny last steps of warm runs too priced trials that almost never
    paid, and nearly doubled the time of one-step runs.  Only the plain
    step is certified by `maximize_concave`; the walk's points are
    audited by the exact objective alone, which never falls along the
    walk.

    `init` is the starting point when a projection onto the caps and QoS
    floors repairs it; otherwise `restore_feasible` funds a start from
    scratch, possibly shedding assignments (reported in `dropped`).
    `objective`, when given with `init`, is the exact objective there,
    which the caller holds (the slot loop's audited state carries it):
    the start takes it instead of pricing `init` again when nothing was
    shed and the start is `init` bit for bit.  Nor is a step priced that
    returns its start bit for bit.  The result's `report` is the exact
    rate report at its powers, or None when the call priced nothing
    there: nothing is assigned, or the powers are `init`'s and the
    objective is the caller's."""
    s = scenario
    alloc = np.asarray(alloc, dtype=int)
    dropped: list[tuple[int, int]] = []

    start = None
    prob = PowerProblem(beta, alloc, gains, weights, s)
    if init is not None and prob.n_vars:
        # small projections repair stale warm starts without losing them;
        # structural infeasibility falls through to restoration
        fset = prob.feasible_set()
        x = fset.project(prob.pack(init))
        if fset.linear_violation(x) <= 1e-9:
            start = x
    if start is None:
        alloc, powers, dropped = restore_feasible(beta, alloc, gains, weights, s)
        prob = PowerProblem(beta, alloc, gains, weights, s)
        if prob.n_vars == 0:
            return PowerResult(prob.unpack(np.zeros(0)), alloc, dropped, 0.0, 0, True)
        fset = prob.feasible_set()
        start = prob.pack(powers)

    eps = s.tolerances.bcd
    exact = not prob.relay.any()  # one step is the optimum (see above)
    # the caller's price of `init`, where the start is `init` bit for bit
    reuse = objective is not None and not dropped and np.array_equal(start, prob.pack(init))
    report = None if reuse else prob.report(start)
    x, obj = start, objective if reuse else report.objective
    trace = [obj]
    converged, it = False, 0
    for it in range(1, _MAX_OUTER + 1):
        tangent = prob.m_tangent(x)
        # the surrogate's exact maximiser, which the ascent only certifies
        best = prob.surrogate_argmax(x, tangent)
        res = maximize_concave(prob.surrogate(x, tangent), fset, best,
                               max_iters=_INNER_ITERS)
        if not res.feasible:
            break
        # a step that returns its start is not priced again
        new_x, new_report = ((x, report) if np.array_equal(res.x, x)
                             else (res.x, prob.report(res.x)))
        new_obj = obj if new_report is report else new_report.objective
        if new_obj < obj - 1e-9 * max(1.0, abs(obj)):
            converged = True
            break
        # the certified step is the walk's tau = 1 point; only a step that
        # gains eps, so that the loop goes on anyway, walks further
        if not exact and new_obj - obj >= eps:
            step = res.x - x
            for tau in 2.0 ** np.arange(1, _EXTEND_STEPS + 1):
                trial = fset.project(x + tau * step)
                if np.array_equal(trial, new_x):
                    break
                trial_report = prob.report(trial)
                if not trial_report.objective > new_obj:
                    break
                new_x, new_report, new_obj = trial, trial_report, trial_report.objective
        trace.append(new_obj)
        gain = new_obj - obj
        x, obj, report = new_x, new_obj, new_report
        if gain < eps or exact:
            converged = True
            break

    return PowerResult(prob.unpack(x), alloc, dropped, obj, it, converged, trace, report)
