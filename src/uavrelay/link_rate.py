"""The link budget of every (UE, subchannel) assignment, weights and fairness.

Every link crosses two hops, each with its own SNR and QoS floor.  A
direct link is one uplink heard at the BS over two half-slot phases: hop 1
is the clean phase, hop 2 the phase hit by the relay's inter-carrier
interference I.  A relayed link is amplify-and-forward: hop 1 is the
access hop at the UAV, hop 2 the backhaul hop at the BS, which also hears
I.  With noise power sigma2:

    direct:   g1 = p h_ue_bs / sigma2     g2 = p h_ue_bs / (sigma2 + I)
              R = 1/2 log2(1 + g1) + 1/2 log2(1 + g2)
    relayed:  g1 = p h_ue_uav / sigma2    g2 = p_uav h_uav_bs / (sigma2 + I)
              R = 1/2 log2(1 + g1 g2 / (g1 + g2 + 1))

The relayed form is the standard AF end-to-end SNR (Laneman, Tse and
Wornell, IEEE Trans. Inf. Theory 2004): the UAV amplifies its received
signal plus noise to power p_uav, so the BS sees the access hop's noise
amplified alongside the signal.  Each hop must reach its floor (the
direct threshold on both phases of a direct link, the access and
backhaul thresholds on a relayed one), which fixes the smallest UE and
UAV powers a link can run on.

`LinkBudget` evaluates all of this elementwise over broadcastable arrays
and is the only place the exact link model is written out: `rate_report`
sums it over the assigned links of a slot, and the matching, trajectory
and power stages call it on their own batches of links.  `relayed_links`
is its lean relayed case, for callers that hold the gains and floors of
many evaluations; both read the AF SNR from `af_snr` and the floors from
`floor_signals`.

The power and trajectory stages' concave surrogates share one
difference-of-concave split of every rate, R = K - M, in the received
signals s1 = p h1 and s2 (a direct link's second phase hears s1 again),
with c = 1 + I / sigma2:

    K = 1/2 log2((s1 + sigma2) (s2 + sigma2 + I))
    M = 1/2 log2(sigma2 (c s1 + s2 + sigma2 + I)), at s = 0 on a direct link

Each surrogate keeps K and the tangent of M.  `dc_k` and `dc_m` give
both with their partials in s, and `floor_signals` the QoS floors in s.
The power stage takes K from `dc_k` and writes M's tangent out on
Python floats (`PowerProblem.m_tangent`); the trajectory stage takes M
from `dc_m` and writes K and its partials out on floats in its fused
objective.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .channel import ChannelGains
from .scenario import Scenario, SnrThresholds

HALF_LOG2E = 0.5 / math.log(2.0)  # d/dx of 0.5*log2(x) is this over x
QOS_TOL = 1e-6  # relative SNR shortfall tolerated on an audited hop


def dc_k(s: np.ndarray, noise: np.ndarray) -> tuple[np.ndarray, np.ndarray] | None:
    """K = 1/2 log2(a1 a2), a = s + noise, of P links and dK/ds, shapes
    (P,) and (2P,), over the hops stacked: the P hop-1 signals, then the
    P hop-2 signals, with `noise` sigma2 on hop 1 and sigma2 + I on hop
    2.  None where a signal plus noise is not positive."""
    a = s + noise
    if (a <= 0.0).any():
        return None
    n = a.size // 2
    return 0.5 * np.log2(a[:n] * a[n:]), HALF_LOG2E / a


def dc_m(s: np.ndarray, relay, sigma2: float, ici: float) -> tuple[np.ndarray, np.ndarray]:
    """M = 1/2 log2(sigma2 (c s1 + s2 + sigma2 + I)), c = 1 + I / sigma2,
    of P links and dM/ds over `dc_k`'s stacked signals; a direct link's M
    is the constant at s = 0."""
    n = s.size // 2
    c = 1.0 + ici / sigma2
    x = np.where(relay, c * s[:n] + s[n:], 0.0) + (sigma2 + ici)
    slope = np.where(relay, HALF_LOG2E / x, 0.0)
    return 0.5 * np.log2(sigma2 * x), np.concatenate((c * slope, slope))


def floor_signals(relay, thr: SnrThresholds, sigma2: float,
                  ici: float) -> tuple[np.ndarray, np.ndarray]:
    """The smallest (UE, UAV) signals p h meeting each link's hop floors,
    threshold times noise; a direct link's interfered phase binds, and it
    needs no UAV signal."""
    hop2 = np.where(relay, thr.uav_bs, thr.direct) * (sigma2 + ici)
    return np.where(relay, thr.ue_uav * sigma2, hop2), np.where(relay, hop2, 0.0)


def af_snr(g1, g2):
    """The AF end-to-end SNR of hop SNRs g1 and g2."""
    return g1 * g2 / (g1 + g2 + 1.0)


def relayed_links(p_ue, p_uav, h_ue_uav, h_uav_bs, floor_ue, floor_uav,
                  sigma2: float, ici: float) -> tuple[np.ndarray, np.ndarray]:
    """Rate and QoS verdict of relayed links, bit for bit the `rate` and
    `feasible()` of `LinkBudget(True, ...)` on the same arguments, from
    floors that the caller holds: `floor_signals` over `h_ue_uav` and
    `h_uav_bs`.  Every argument broadcasts."""
    g1 = p_ue * h_ue_uav / sigma2
    g2 = p_uav * h_uav_bs / (sigma2 + ici)
    return 0.5 * np.log2(1.0 + af_snr(g1, g2)), (p_ue >= floor_ue) & (p_uav >= floor_uav)


class LinkBudget:
    """Hop SNRs and rates of a batch of links, and on request their QoS
    margins (which the trajectory audit and the validator hold to
    -`QOS_TOL`), floor powers and QoS verdicts (`feasible`, exact at the
    floor, as funding and matching need).  Every argument broadcasts:
    `relay` flags relayed links, powers are watts and gains linear."""

    def __init__(self, relay, p_ue, p_uav, h_ue_bs, h_ue_uav, h_uav_bs,
                 thresholds: SnrThresholds, sigma2: float, ici: float):
        self.relay = relay = np.asarray(relay, dtype=bool)
        self.p_ue, self.p_uav, self.h_uav_bs = p_ue, p_uav, h_uav_bs
        self.thr, self.sigma2, self.ici = thresholds, sigma2, ici
        self.h_hop1 = np.where(relay, h_ue_uav, h_ue_bs)
        g1 = p_ue * self.h_hop1 / sigma2
        # the BS hears noise plus interference
        g2 = np.where(relay, p_uav * h_uav_bs, p_ue * h_ue_bs) / (sigma2 + ici)
        self.snr = (g1, g2)
        # relayed: the AF end-to-end SNR over one half slot; direct: each
        # phase's SNR over a half slot
        first = np.where(relay, af_snr(g1, g2), g1)
        second = np.where(relay, 0.0, g2)
        self.rate = 0.5 * np.log2(1.0 + first) + 0.5 * np.log2(1.0 + second)

    def margins(self) -> tuple[np.ndarray, np.ndarray]:
        """(hop 1, hop 2) QoS margins, SNR / threshold - 1; a direct
        link's interfered phase binds, so its clean phase reads inf."""
        thr, (g1, g2) = self.thr, self.snr
        return (np.where(self.relay, g1 / thr.ue_uav - 1.0, math.inf),
                g2 / np.where(self.relay, thr.uav_bs, thr.direct) - 1.0)

    def floors(self) -> tuple[np.ndarray, np.ndarray]:
        """Smallest (UE, UAV) powers meeting both hop floors: the
        `floor_signals` over each power's gain."""
        ue, uav = floor_signals(self.relay, self.thr, self.sigma2, self.ici)
        return ue / self.h_hop1, uav / self.h_uav_bs

    def feasible(self) -> np.ndarray:
        """Both powers at or above their floors (boundary included)."""
        floor_ue, floor_uav = self.floors()
        return (self.p_ue >= floor_ue) & (self.p_uav >= floor_uav)


@dataclass
class PowerAllocation:
    """Transmit powers: (N, K) UE matrix and (K,) UAV vector, watts."""

    p_ue: np.ndarray
    p_uav: np.ndarray

    def copy(self) -> "PowerAllocation":
        return PowerAllocation(self.p_ue.copy(), self.p_uav.copy())


@dataclass
class RateReport:
    """Rates of one slot's assigned links, per UE and weighted, with the
    link budget they came from."""

    per_ue_rate: np.ndarray         # (N,), or (T, N) over a stack of positions
    objective: float | np.ndarray  # weights dot per_ue_rate, or (T,) of them
    link: LinkBudget                # the P assigned links, (P,) or (T, P) arrays
    pairs: tuple[np.ndarray, np.ndarray]  # (ue, subchannel) of each, row-major


def rate_report(beta: np.ndarray, alloc: np.ndarray, powers: PowerAllocation,
                gains: ChannelGains, weights: np.ndarray, sc: Scenario) -> RateReport:
    """Rates of one slot's assignments, per UE and weighted, with the
    link budget of the assigned links, in `np.nonzero(alloc)` order.  The
    rates are scattered into a zero (N, K) grid and summed along its
    rows, so each UE's rate is bit-identical to summing the whole grid's
    links under the allocation.  The gains of a stack of T UAV positions
    give rates (T, N) and objectives (T,), each bit-identical to its
    position's own report."""
    alloc = np.asarray(alloc)
    ue, sub = pairs = alloc.nonzero()
    h_ue_uav = gains.h_ue_uav[..., ue, sub]
    link = LinkBudget(np.asarray(beta)[ue] == 1, powers.p_ue[ue, sub], powers.p_uav[sub],
                      gains.h_ue_bs[ue, sub], h_ue_uav,
                      # a stack's (T, 1, P) backhaul gains as (T, P)
                      gains.h_uav_bs[..., sub].reshape(h_ue_uav.shape),
                      sc.snr_thresholds, sc.noise_var, sc.ici_power)
    grid = np.zeros(h_ue_uav.shape[:-1] + alloc.shape)
    grid[..., ue, sub] = link.rate
    per_ue = grid.sum(axis=-1)
    if per_ue.ndim == 1:
        return RateReport(per_ue, float(np.dot(weights, per_ue)), link, pairs)
    # one dot per position, which a matrix product would not round alike
    return RateReport(per_ue, np.array([np.dot(weights, r) for r in per_ue]), link, pairs)


_PF_OFFSET = 0.1  # keeps a never-served UE's weight and utility finite


def update_weights(prev_avg_rates) -> np.ndarray:
    """Proportional-fairness weights: inverse average rate, floored by the
    +0.1 regularizer so never-served UEs get weight 10, not infinity.
    They are the gradient of `pf_utility`."""
    avg = np.asarray(prev_avg_rates, dtype=float)
    if np.any(avg < 0):
        raise ValueError("average rates must be nonnegative")
    return 1.0 / (avg + _PF_OFFSET)


def pf_utility(avg_rates) -> float:
    """U = sum_n log(avg rate_n + 0.1), the utility proportional fairness
    ascends: each slot's weighted sum rate under `update_weights` is one
    gradient step on it (Kushner & Whiting 2004)."""
    return float(np.log(np.asarray(avg_rates, dtype=float) + _PF_OFFSET).sum())


def jain_index(avg_rates) -> float:
    r = np.asarray(avg_rates, dtype=float)
    total = r.sum()
    sq = np.dot(r, r)
    if sq == 0.0:
        raise ValueError("jain_index undefined for all-zero rates")
    return float(total * total / (len(r) * sq))
