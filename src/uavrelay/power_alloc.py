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
only certifies that point with one projected-gradient test.  Every power
start comes from one funding rule, `restore_feasible`: carried powers
stay, every other assignment is funded at its floor, best weighted
full-budget rate first, and an assignment its budgets cannot pay is shed.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .channel import ChannelGains
from .convex_core import FeasibleSet, maximize_concave
from .link_rate import (HALF_LOG2E, LinkBudget, PowerAllocation, dc_k, dc_m,
                        floor_signals, rate_report)
from .scenario import Scenario

_FLOOR_MARGIN = 1e-9    # relative headroom when funding a QoS floor
_NEWTON_STEPS = 100     # a guard: the water levels settle within about ten


@dataclass
class DcTerms:
    """Both concave pieces of `link_rate`'s split of every rate term at
    one power vector, laid out over a `PowerProblem`'s variables.

    `k` and `m` hold each assigned subchannel's K and M (UE-variable
    order; a direct subchannel's M is a constant).  Every variable feeds
    exactly one UE's rate, so one gradient entry per variable suffices:
    `k_grad[i]` and `m_grad[i]` differentiate the K and M of the UE that
    owns variable i."""

    k: np.ndarray
    m: np.ndarray | None
    k_grad: np.ndarray
    m_grad: np.ndarray | None


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

    def dc_terms(self, x: np.ndarray, with_m: bool = True) -> DcTerms:
        """Split every rate term as K - M (`link_rate.dc_k`, `dc_m`) at
        the packed powers `x`, the partials chained through the gains.
        `with_m=False` skips M (left as None), which a surrogate holding
        M's tangent never reads."""
        s = (x * self.h)[self._stack]
        k, dk = dc_k(s, self._noise)
        k_grad = self.h * np.bincount(self._stack, dk, self.n_vars)
        if not with_m:
            return DcTerms(k, None, k_grad, None)
        m, dm = dc_m(s, self.relay, self.sigma2, self.ici)
        return DcTerms(k, m, k_grad, self.h * np.bincount(self._stack, dm, self.n_vars))

    def feasible_set(self) -> FeasibleSet:
        """One budget block per UE with variables, then the UAV's."""
        ues, block = np.unique(self.ue_n, return_inverse=True)
        budgets = [self.sc.p_ue_max] * ues.size
        if self.uav_k.size:
            budgets.append(self.sc.p_uav_max)
        block = np.concatenate((block, np.full(self.uav_k.size, ues.size)))
        return FeasibleSet(blocks=(block, np.array(budgets)), floors=self.qos_floors())

    def true_objective(self, x: np.ndarray) -> float:
        report = rate_report(self.beta, self.alloc, self.unpack(x), self.gains,
                             self.weights, self.sc)
        return report.objective

    def m_tangent(self, x0: np.ndarray) -> tuple[float, np.ndarray]:
        """The weighted subtracted piece M at x0 and its slope there, one
        entry per variable: the tangent the surrogate keeps of M."""
        anchor = self.dc_terms(x0)
        return (float(self.weights[self.ue_n] @ anchor.m),
                self.weights[self.owner] * anchor.m_grad)

    def surrogate(self, x0: np.ndarray,
                  tangent: tuple[float, np.ndarray] | None = None):
        """Concave minorant of the exact objective, tight at x0: the
        subtracted pieces are replaced by their tangents there.
        `tangent` is `m_tangent(x0)` when the caller already holds it."""
        m0, m_slope = self.m_tangent(x0) if tangent is None else tangent
        w_k = self.weights[self.ue_n]
        w_var = self.weights[self.owner]

        def objective(x: np.ndarray) -> tuple[float, np.ndarray]:
            terms = self.dc_terms(x, with_m=False)
            value = float(w_k @ terms.k) - m0 - float(m_slope @ (x - x0))
            return value, w_var * terms.k_grad - m_slope

        return objective

    @cached_property
    def _log_terms(self) -> tuple[np.ndarray, ...]:
        """Each variable's part of K as c*ln(y) + c2*ln(y + d) in
        y = x + b, as the arrays (c, c2, d, b): a direct UE power has two
        logs, one per phase, d apart; a relayed UE power (its access hop)
        and a UAV power (its backhaul hop) have one, c2 = d = 0."""
        c = HALF_LOG2E * self.weights[self.owner]
        ue_var = np.arange(self.n_vars) < self.n_ue_vars
        direct = np.concatenate((~self.relay, np.zeros(self.uav_k.size, dtype=bool)))
        noise = np.where(ue_var, self.sigma2, self.sigma2 + self.ici)
        return c, c * direct, direct * self.ici / self.h, noise / self.h

    def surrogate_argmax(self, x0: np.ndarray, fset: FeasibleSet,
                         tangent: tuple[float, np.ndarray] | None = None) -> np.ndarray:
        """The exact maximiser of `surrogate(x0)` over `fset` (as built by
        `feasible_set`): multi-level water-filling (Palomar & Fonollosa,
        IEEE TSP 2005; Boyd & Vandenberghe §5.5.3).

        The surrogate is separable.  With s the slope of M's tangent and
        lam its block's multiplier, variable i sits where its marginal
        c/y + c2/(y + d) equals mu = s + lam, at the larger root of
        mu*y^2 + (mu*d - c - c2)*y - c*d = 0, clipped at its floor.  A
        block that fits its budget at lam = 0 keeps lam = 0.  Otherwise
        Newton's method solves sum_i x_i(lam) = budget; the sum is convex
        and decreasing in lam, and the start is left of the root, so no
        step overshoots.  A zero-weight variable sits at its floor."""
        _, slope = self.m_tangent(x0) if tangent is None else tangent
        c, c2, d, b = self._log_terms
        block, budgets = fset.blocks
        floors = fset.floors
        n = budgets.size
        tol = 1e-15 * budgets

        def levels(lam: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
            """The clipped powers at the block multipliers `lam`, each
            block's excess over its budget and that excess's slope."""
            mu = slope + lam[block]
            lin = mu * d - c - c2
            root = np.sqrt(lin * lin + 4.0 * mu * c * d)
            # the cancellation-free form where the linear coefficient is positive
            y = np.where(lin > 0.0, 2.0 * c * d / (lin + root), (root - lin) / (2.0 * mu))
            # mu = 0 gives y = inf (c > 0) or nan (c = 0); fmax keeps the floor over nan
            x = np.fmax(y - b, floors)
            dy = np.where(y - b > floors, -1.0 / (c / (y * y) + c2 / ((y + d) * (y + d))), 0.0)
            return x, np.bincount(block, x, n) - budgets, np.bincount(block, dy, n)

        with np.errstate(divide="ignore", invalid="ignore"):
            lam = np.zeros(n)
            x, excess, _ = levels(lam)
            live = excess > tol
            if not live.any():
                return x
            # the largest lam (at least 0) at which one variable alone takes
            # its block's budget less the other floors: every other variable
            # is then at or above its floor, so a block over budget stays
            # over, and a block within it gets 0
            y = budgets[block] - np.bincount(block, floors, n)[block] + floors + b
            np.maximum.at(lam, block, c / y + c2 / (y + d) - slope)
            for _ in range(_NEWTON_STEPS):
                x, excess, slope_sum = levels(lam)
                live &= (excess > tol) & (slope_sum < 0.0)
                if not live.any():
                    break
                step = np.where(live, lam - excess / slope_sum, lam)
                # a step that rounding stalls ends the block
                live &= step > lam
                lam = step
        return x


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
    either budget cannot pay is shed.  The leftover budgets are then
    spread by weighted marginal rate.  Returns the surviving allocation,
    its powers and the shed (ue, subchannel) pairs in funding order."""
    alloc = np.asarray(alloc, dtype=int).copy()
    beta = np.asarray(beta, dtype=int)
    weights = np.asarray(weights, dtype=float)
    relay = beta[:, None] == 1
    full = LinkBudget(relay, sc.p_ue_max, sc.p_uav_max, gains.h_ue_bs,
                      gains.h_ue_uav, gains.h_uav_bs, sc.snr_thresholds,
                      sc.noise_var, sc.ici_power)
    floors = full.floors()
    if held is None:
        held = PowerAllocation(np.zeros(alloc.shape), np.zeros(alloc.shape[1]))
    # the channel may have moved since `held` was funded
    carry = (alloc != 0) & (held.p_ue >= floors[0]) & (held.p_uav >= floors[1])
    p_ue = np.where(carry, held.p_ue, 0.0)
    p_uav = np.where((carry & relay).any(axis=0), held.p_uav, 0.0)

    # full-budget rates rank the rest, best first and ties in row-major
    # order; their floors fund them
    floor_ue, floor_uav = (f * (1.0 + _FLOOR_MARGIN) for f in floors)
    fresh = np.argwhere((alloc != 0) & ~carry)
    value = weights[:, None] * full.rate
    order = np.argsort(-value[fresh[:, 0], fresh[:, 1]], kind="stable")
    dropped: list[tuple[int, int]] = []
    for n, k in fresh[order].tolist():
        fits = p_ue[n].sum() + floor_ue[n, k] <= sc.p_ue_max
        if beta[n]:
            fits = fits and p_uav.sum() + floor_uav[n, k] <= sc.p_uav_max
        if fits:
            p_ue[n, k] = floor_ue[n, k]
            p_uav[k] = floor_uav[n, k]
        else:
            alloc[n, k] = 0
            dropped.append((n, k))

    powers = PowerAllocation(p_ue, p_uav)
    spread_leftover(PowerProblem(beta, alloc, gains, weights, sc), powers)
    return alloc, powers, dropped


def spread_leftover(prob: PowerProblem, powers: PowerAllocation) -> None:
    """Hand each entity's remaining budget to its subchannels in
    proportion to the marginal rate, weighted by `prob.weights`, at the
    current powers (evenly when no subchannel gains).  UE budgets are
    spread first; the UAV's marginals are then taken at the raised UE
    powers.  `powers` must be laid out as `prob`."""
    s = prob.sc
    u = prob.n_ue_vars
    # (variables, budget owner of each, budget, power array, its indices)
    parts = ((slice(0, u), prob.ue_n, s.p_ue_max, powers.p_ue,
              (prob.ue_n, prob.ue_k)),
             (slice(u, None), np.zeros(prob.n_vars - u, dtype=int), s.p_uav_max,
              powers.p_uav, prob.uav_k))
    for part, entity, budget, p, idx in parts:
        n = int(entity.max(initial=-1)) + 1
        leftover = (budget - np.bincount(entity, p[idx], n))[entity]
        if not np.any(leftover > 0.0):
            continue
        terms = prob.dc_terms(prob.pack(powers))
        marginal = prob.weights[prob.owner[part]] * np.maximum(
            terms.k_grad[part] - terms.m_grad[part], 0.0)
        total = np.bincount(entity, marginal, n)[entity]
        even = 1.0 / np.bincount(entity, minlength=n)[entity]
        share = np.divide(marginal, total, out=even, where=total > 0.0)
        p[idx] += np.where(leftover > 0.0, leftover * share, 0.0)


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


_MAX_OUTER = 30
_INNER_ITERS = 500


def scp_power(beta: np.ndarray, alloc: np.ndarray, gains: ChannelGains,
              weights: np.ndarray, scenario: Scenario,
              init: PowerAllocation | None = None) -> PowerResult:
    """Maximize the weighted sum rate over transmit powers.

    Each SCP step maximises the surrogate at the current powers exactly
    (`PowerProblem.surrogate_argmax`) and hands that point to
    `maximize_concave`, whose projected-gradient test certifies it (and
    which would climb from it if it were ever off).  The loop stops when
    a step gains less than the BCD tolerance in absolute terms, the test
    on which `orchestrator.jmstp_slot`'s loop stops, or when a step drops
    the exact objective by rounding (both `converged`), at `_MAX_OUTER`
    steps, or when the inner solve finds no feasible point (neither
    converged).

    `init` is the starting point when a projection onto the caps and QoS
    floors repairs it; otherwise `restore_feasible` funds a start from
    scratch, possibly shedding assignments (reported in `dropped`)."""
    s = scenario
    alloc = np.asarray(alloc, dtype=int)
    dropped: list[tuple[int, int]] = []

    start = None
    if init is not None:
        prob = PowerProblem(beta, alloc, gains, weights, s)
        if prob.n_vars:
            # small projections repair stale warm starts without losing
            # them; structural infeasibility falls through to restoration
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
    x = start
    obj = prob.true_objective(x)
    trace = [obj]
    converged = False
    it = 0
    for it in range(1, _MAX_OUTER + 1):
        tangent = prob.m_tangent(x)
        # the surrogate's exact maximiser, which the ascent only certifies
        best = prob.surrogate_argmax(x, fset, tangent)
        res = maximize_concave(prob.surrogate(x, tangent), fset, best,
                               max_iters=_INNER_ITERS)
        if not res.feasible:
            break
        new_obj = prob.true_objective(res.x)
        if new_obj < obj - 1e-9 * max(1.0, abs(obj)):
            converged = True
            break
        trace.append(new_obj)
        gain = new_obj - obj
        x, obj = res.x, new_obj
        if gain < eps:
            converged = True
            break

    return PowerResult(prob.unpack(x), alloc, dropped, obj, it, converged, trace)
