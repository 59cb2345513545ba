"""Per-slot transmit power optimization at fixed modes, allocation, and
UAV position.

Each UE's rate splits into a difference of two concave pieces in the
powers; linearizing the subtracted piece at the current iterate gives a
concave surrogate that is tight there and never overshoots, so the SCP
loop is monotone in the exact weighted sum rate.  All constraints are
linear at fixed gains: one budget block per entity and per-subchannel
QoS floors.  Every power start comes from one funding rule,
`restore_feasible`: carried powers stay, every other assignment is funded
at its floor, best weighted full-budget rate first, and an assignment its
budgets cannot pay is shed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .channel import ChannelGains
from .convex_core import FeasibleSet, maximize_concave
from .link_rate import LinkBudget, PowerAllocation, rate_report
from .scenario import Scenario

LN2 = math.log(2.0)
_HALF_LOG2E = 0.5 / LN2  # d/dx of 0.5*log2(x) is this over x
_FLOOR_MARGIN = 1e-9    # relative headroom when funding a QoS floor


@dataclass
class DcTerms:
    """Both concave pieces of every rate term at one power vector, laid
    out over a `PowerLayout`'s variables.

    `k` holds each assigned subchannel's term of K (UE-variable order),
    `m` each relayed subchannel's term of M (UAV-variable order; direct
    subchannels have none).  Every variable feeds exactly one UE's rate,
    so one gradient entry per variable suffices: `k_grad[i]` and
    `m_grad[i]` differentiate the K and M of the UE that owns variable i."""

    k: np.ndarray
    m: np.ndarray | None
    k_grad: np.ndarray
    m_grad: np.ndarray | None


class PowerLayout:
    """The active powers of one slot flattened into a vector: first the
    UE power of every assigned (ue, subchannel) in row-major order, then
    the UAV power of every relayed subchannel in the same order.  Index
    arrays and per-variable gains are built once; `dc_terms` evaluates
    the DC split of every rate term in one array pass, and `qos_floors`
    gives each variable's QoS floor.

    A subchannel serves at most one UE, so each UAV variable belongs to
    exactly one relayed UE variable."""

    def __init__(self, beta: np.ndarray, alloc: np.ndarray, gains: ChannelGains,
                 scenario: Scenario):
        self.beta = np.asarray(beta, dtype=int)
        self.alloc = np.asarray(alloc, dtype=int)
        self.gains = gains
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

        # first-phase gain of each UE variable: to the UAV when relayed,
        # to the BS when direct; the second phase adds the ICI on direct
        # links and is the UAV's hop on relayed ones
        self.h_hop1 = np.where(self.relay, gains.h_ue_uav[self.ue_n, self.ue_k],
                               gains.h_ue_bs[self.ue_n, self.ue_k])
        self.h_hop2 = gains.h_uav_bs[self.uav_k]
        c = 1.0 + ici / sigma2
        self._relay_idx = np.flatnonzero(self.relay)
        self._direct = (~self.relay).astype(float)
        self._c_sigma2 = c * sigma2
        self._c_h1 = c * self.h_hop1[self._relay_idx]
        self._dk_hop1 = _HALF_LOG2E * self.h_hop1
        self._dk_hop2 = _HALF_LOG2E * self.h_hop2
        # direct K is normalized by both phases' noise floors, relayed K is not
        self._k_offset = np.where(self.relay, 0.0,
                                  -0.5 * math.log2(sigma2 * (sigma2 + ici)))

    def qos_floors(self) -> np.ndarray:
        """Per-variable QoS lower bounds at the fixed gains."""
        g, n, k = self.gains, self.ue_n, self.ue_k
        floor_ue, floor_uav = LinkBudget(
            self.relay, 0.0, 0.0, g.h_ue_bs[n, k], g.h_ue_uav[n, k], g.h_uav_bs[k],
            self.sc.snr_thresholds, self.sigma2, self.ici).floors()
        return np.concatenate((floor_ue, floor_uav[self.relay]))

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
        """Split every rate term as K - M at the packed powers `x`.

        Relayed subchannels contribute to both pieces, direct ones only
        to K, which keeps K - M equal to the exact rate.  `with_m=False`
        skips M (left as None), which a surrogate holding M's tangent
        never reads."""
        u = self.n_ue_vars
        p, pu = x[:u], x[u:]
        first = p * self.h_hop1 + self.sigma2
        second = first + self.ici
        received = pu * self.h_hop2
        hop2 = received + self._c_sigma2
        second[self._relay_idx] = hop2
        k = 0.5 * np.log2(first * second) + self._k_offset
        k_grad = np.concatenate((self._dk_hop1 * (1.0 / first + self._direct / second),
                                 self._dk_hop2 / hop2))
        if not with_m:
            return DcTerms(k, None, k_grad, None)

        mixed = p[self._relay_idx] * self._c_h1 + received + self._c_sigma2
        m = 0.5 * np.log2(self.sigma2 * mixed)
        m_grad = np.zeros(self.n_vars)
        m_grad[self._relay_idx] = self._c_h1 * (_HALF_LOG2E / mixed)
        m_grad[u:] = self._dk_hop2 / mixed
        return DcTerms(k, m, k_grad, m_grad)


# ---------------------------------------------------------------------------
# The power problem and its surrogate.

class PowerProblem(PowerLayout):
    """One slot's power allocation over a `PowerLayout`: the exact
    objective, the tight concave surrogate, and the linear feasible set."""

    def __init__(self, beta: np.ndarray, alloc: np.ndarray, gains: ChannelGains,
                 weights: np.ndarray, scenario: Scenario):
        super().__init__(beta, alloc, gains, scenario)
        self.weights = np.asarray(weights, dtype=float)

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

    def surrogate(self, x0: np.ndarray):
        """Concave minorant of the exact objective, tight at x0: the
        subtracted pieces are replaced by their tangents there."""
        anchor = self.dc_terms(x0)
        w_k = self.weights[self.ue_n]
        w_var = self.weights[self.owner]
        m0 = float(self.weights[self.ue_n[self.relay]] @ anchor.m)
        m_slope = w_var * anchor.m_grad

        def objective(x: np.ndarray) -> tuple[float, np.ndarray]:
            terms = self.dc_terms(x, with_m=False)
            value = float(w_k @ terms.k) - m0 - float(m_slope @ (x - x0))
            return value, w_var * terms.k_grad - m_slope

        return objective


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
    spread_leftover(PowerLayout(beta, alloc, gains, sc), powers, weights)
    return alloc, powers, dropped


def spread_leftover(layout: PowerLayout, powers: PowerAllocation, weights) -> None:
    """Hand each entity's remaining budget to its subchannels in
    proportion to the weighted marginal rate at the current powers
    (evenly when no subchannel gains).  UE budgets are spread first; the
    UAV's marginals are then taken at the raised UE powers.  `powers`
    must be laid out as `layout`."""
    s = layout.sc
    weights = np.asarray(weights, dtype=float)
    u = layout.n_ue_vars
    # (variables, budget owner of each, budget, power array, its indices)
    parts = ((slice(0, u), layout.ue_n, s.p_ue_max, powers.p_ue,
              (layout.ue_n, layout.ue_k)),
             (slice(u, None), np.zeros(layout.n_vars - u, dtype=int), s.p_uav_max,
              powers.p_uav, layout.uav_k))
    for part, entity, budget, p, idx in parts:
        n = int(entity.max(initial=-1)) + 1
        leftover = (budget - np.bincount(entity, p[idx], n))[entity]
        if not np.any(leftover > 0.0):
            continue
        terms = layout.dc_terms(layout.pack(powers))
        marginal = weights[layout.owner[part]] * np.maximum(
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

    eps = s.tolerances.bcd / 10.0
    x = start
    obj = prob.true_objective(x)
    trace = [obj]
    converged = False
    it = 0
    for it in range(1, _MAX_OUTER + 1):
        res = maximize_concave(prob.surrogate(x), fset, x, max_iters=_INNER_ITERS)
        new_obj = prob.true_objective(res.x)
        if not res.feasible or new_obj < obj - 1e-9 * max(1.0, abs(obj)):
            converged = True
            break
        trace.append(new_obj)
        rel = (new_obj - obj) / max(abs(obj), 1e-12)
        x, obj = res.x, new_obj
        if rel < eps:
            converged = True
            break

    return PowerResult(prob.unpack(x), alloc, dropped, obj, it, converged, trace)
