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
sums it over a slot, and the matching, trajectory and power stages call
it on their own batches of links.  (The power and trajectory stages'
concave surrogates split the same rates into difference-of-concave
pieces of their own.)
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .channel import ChannelGains
from .scenario import Scenario, SnrThresholds


class LinkBudget:
    """Hop SNRs and rates of a batch of links, and on request their
    per-hop thresholds, floor powers and QoS verdicts.  Every argument
    broadcasts: `relay` flags relayed links, powers are watts and gains
    linear."""

    def __init__(self, relay, p_ue, p_uav, h_ue_bs, h_ue_uav, h_uav_bs,
                 thresholds: SnrThresholds, sigma2: float, ici: float):
        self.relay = relay = np.asarray(relay, dtype=bool)
        self.p_ue, self.p_uav, self.h_uav_bs = p_ue, p_uav, h_uav_bs
        self.thr, self.sigma2 = thresholds, sigma2
        self.noise2 = sigma2 + ici  # noise plus interference at the BS
        self.h_hop1 = np.where(relay, h_ue_uav, h_ue_bs)
        g1 = p_ue * self.h_hop1 / sigma2
        g2 = np.where(relay, p_uav * h_uav_bs, p_ue * h_ue_bs) / self.noise2
        self.snr = (g1, g2)
        # relayed: the AF end-to-end SNR over one half slot; direct: each
        # phase's SNR over a half slot
        first = np.where(relay, g1 * g2 / (g1 + g2 + 1.0), g1)
        second = np.where(relay, 0.0, g2)
        self.rate = 0.5 * np.log2(1.0 + first) + 0.5 * np.log2(1.0 + second)

    def thresholds(self) -> tuple[np.ndarray, np.ndarray]:
        """(hop 1, hop 2) SNR floors."""
        thr = self.thr
        return (np.where(self.relay, thr.ue_uav, thr.direct),
                np.where(self.relay, thr.uav_bs, thr.direct))

    def floors(self) -> tuple[np.ndarray, np.ndarray]:
        """Smallest (UE, UAV) powers meeting both hop floors; a direct
        link needs no UAV power, and its interfered phase binds."""
        t1, t2 = self.thresholds()
        hop2 = t2 * self.noise2
        return (np.where(self.relay, t1 * self.sigma2, hop2) / self.h_hop1,
                np.where(self.relay, hop2, 0.0) / self.h_uav_bs)

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
    per_ue_rate: np.ndarray         # (N,)
    per_subchannel_rate: np.ndarray  # (N, K), zero where unassigned
    objective: float                # weights dot per_ue_rate
    link: LinkBudget                # every (UE, subchannel) under the UE's mode


def rate_report(beta: np.ndarray, alloc: np.ndarray, powers: PowerAllocation,
                gains: ChannelGains, weights: np.ndarray, sc: Scenario) -> RateReport:
    """Rates of one slot's assignments, per subchannel, per UE and
    weighted, with the link budget they came from."""
    link = LinkBudget(np.asarray(beta)[:, None] == 1, powers.p_ue, powers.p_uav,
                      gains.h_ue_bs, gains.h_ue_uav, gains.h_uav_bs,
                      sc.snr_thresholds, sc.noise_var, sc.ici_power)
    per_sub = np.where(alloc, link.rate, 0.0)
    per_ue = per_sub.sum(axis=1)
    return RateReport(per_ue, per_sub, float(np.dot(weights, per_ue)), link)


def update_weights(prev_avg_rates) -> np.ndarray:
    """Proportional-fairness weights: inverse average rate, floored by the
    +0.1 regularizer so never-served UEs get weight 10, not infinity."""
    avg = np.asarray(prev_avg_rates, dtype=float)
    if np.any(avg < 0):
        raise ValueError("average rates must be nonnegative")
    return 1.0 / (avg + 0.1)


def jain_index(avg_rates) -> float:
    r = np.asarray(avg_rates, dtype=float)
    total = r.sum()
    sq = np.dot(r, r)
    if sq == 0.0:
        raise ValueError("jain_index undefined for all-zero rates")
    return float(total * total / (len(r) * sq))
