"""Mode selection and subchannel allocation as a many-to-one matching game.

A matching is the package's own `(beta, alloc)` pair: each UE holds one
mode, `beta[n]` (cellular or relay), and the subchannels of row n of
`alloc`; a subchannel has at most one owner, or none (vacant).  One mode
per UE holds by construction.  The game evaluates utilities under
equal-split provisional powers: every UE divides its budget evenly over
its subchannels and the relay budget is divided evenly over the relayed
subchannels.  A swap exchanges the owners of two subchannels, which keeps
those counts, so the split is fixed for a whole run.

Swap approval is one array pass: `swap_approvals` reads a (K, K) table
whose row j scores the owner of subchannel j on every subchannel, and
tests every subchannel pair at once.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from . import link_rate as lr
from .channel import ChannelGains
from .scenario import Scenario

CELLULAR, RELAY = 0, 1


@dataclass(frozen=True)
class MatchingContext:
    """Slot inputs the game scores against."""

    scenario: Scenario
    gains: ChannelGains
    weights: np.ndarray

    @property
    def n_ues(self) -> int:
        return self.gains.h_ue_bs.shape[0]

    @property
    def n_subchannels(self) -> int:
        return self.gains.h_ue_bs.shape[1]

    @cached_property
    def full_budget(self) -> tuple[np.ndarray, np.ndarray]:
        """Weighted rate and QoS verdict of every UE in each mode on every
        subchannel at the full UE and relay budgets, indexed [mode, ue, k]."""
        n, sc = self.n_ues, self.scenario
        utility, feasible = score_rows(self, np.tile(np.arange(n), 2),
                                       np.repeat([False, True], n),
                                       sc.p_ue_max, sc.p_uav_max)
        shape = (2, n, self.n_subchannels)
        return utility.reshape(shape), feasible.reshape(shape)


def score_rows(ctx: MatchingContext, ues, relay, ue_power,
               uav_power: float) -> tuple[np.ndarray, np.ndarray]:
    """Weighted rate and QoS verdict of UE `ues[i]` in mode `relay[i]` on
    every subchannel, one row per entry, from one link-budget evaluation.
    `ue_power` is one UE power per row, or one for all; `uav_power` is
    the relay's power per relayed subchannel."""
    g, sc = ctx.gains, ctx.scenario
    link = lr.LinkBudget(np.asarray(relay, dtype=bool)[:, None],
                         np.asarray(ue_power, dtype=float).reshape(-1, 1), uav_power,
                         g.h_ue_bs[ues], g.h_ue_uav[ues], g.h_uav_bs,
                         sc.snr_thresholds, sc.noise_var, sc.ici_power)
    return ctx.weights[ues, None] * link.rate, link.feasible()


def assignment(modes: np.ndarray, owner: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """`(beta, alloc)` of a per-subchannel owner array; `beta` keeps the
    mode of every UE that holds a subchannel and is 0 elsewhere."""
    alloc = (owner == np.arange(len(modes))[:, None]).astype(int)
    return np.where(alloc.any(axis=1), modes, CELLULAR), alloc


class GameView:
    """Utilities and QoS verdicts of one matching under its equal-split
    powers: table row n scores UE n in its mode on every subchannel, all
    UEs at once, and a last all-zero, all-feasible row is read by vacant
    subchannels as row -1.  `owner` holds the UE on each subchannel of
    the matching, -1 where it is vacant.  Valid across swaps because swaps never change any UE's
    subchannel count or the relay total."""

    def __init__(self, beta: np.ndarray, alloc: np.ndarray, ctx: MatchingContext):
        sc = ctx.scenario
        relay = np.asarray(beta) == RELAY
        relay_total = int(alloc[relay].sum())
        uav_power = sc.p_uav_max / relay_total if relay_total else 0.0
        utility, feasible = score_rows(
            ctx, np.arange(ctx.n_ues), relay,
            sc.p_ue_max / np.maximum(alloc.sum(axis=1), 1), uav_power)
        k_sub = ctx.n_subchannels
        self.utility = np.vstack([utility, np.zeros(k_sub)])
        self.feasible = np.vstack([feasible, np.ones(k_sub, dtype=bool)])
        self.owner = np.where(alloc.any(axis=0), alloc.argmax(axis=0), -1)

    def own(self) -> tuple[np.ndarray, np.ndarray]:
        """Utility and QoS verdict of each subchannel's owner there."""
        k = np.arange(self.owner.size)
        return self.utility[self.owner, k], self.feasible[self.owner, k]

    def system_utility(self) -> float:
        return sum(self.own()[0].tolist())


def swap_approvals(u: np.ndarray, ok: np.ndarray, owner: np.ndarray) -> np.ndarray:
    """(K, K) mask, true at (k1, k2), k1 < k2, where exchanging the
    owners of k1 and k2 is approved, from the owner table: row j of
    `u`/`ok` scores the owner of subchannel j (`owner[j]`, -1 for vacant)
    on every subchannel, as `GameView.utility[owner]` does.

    Approved iff no involved player (either subchannel, either UE) loses
    utility, at least one real UE strictly gains, the two owners differ,
    and the swapped matching stays feasible: QoS on the two re-assigned
    subchannels (the power split, the exclusivity structure and each UE's
    single mode are unchanged by construction)."""
    own = np.diagonal(u)
    u11, u22, u12, u21 = own[:, None], own[None, :], u, u.T
    real = owner >= 0
    # no involved player loses: subchannels k1, k2, then UEs n1, n2
    approved = ~((u21 < u11) | (u12 < u22) | (u12 < u11) | (u21 < u22))
    # some real UE strictly gains
    approved &= (real[:, None] & (u12 > u11)) | (real[None, :] & (u21 > u22))
    # QoS on both re-assigned subchannels, and two distinct owners
    approved &= ok & ok.T
    approved &= owner[:, None] != owner[None, :]
    return np.triu(approved, 1)


@dataclass
class MsmaResult:
    beta: np.ndarray
    alloc: np.ndarray
    n_swaps: int
    swap_gains: list[float]
    utility_trace: list[float]
    examined_per_round: list[int]


def msma_detailed(beta: np.ndarray, alloc: np.ndarray,
                  ctx: MatchingContext) -> MsmaResult:
    """Run rounds of profitable swaps to pairwise stability.

    Deterministic: each round scans the subchannel pairs (k1 < k2) in
    row-major order and executes the first approved swap at or after its
    scan position, then goes on from the next pair, so a round examines
    all K(K-1)/2 pairs.  The approvals come from one mask over the owner
    table (row j: the owner of subchannel j, scored on every subchannel);
    an executed swap exchanges two columns of `alloc`, that is two table
    rows, and the mask is rebuilt."""
    view = GameView(beta, alloc, ctx)
    owner = view.owner.copy()
    u, ok = view.utility[owner], view.feasible[owner]
    trace = [view.system_utility()]
    gains: list[float] = []
    examined_per_round: list[int] = []
    n_sub = owner.size
    changed = True
    while changed:
        changed = False
        at = 0  # scan position, row-major over (k1, k2)
        while True:
            hits = np.flatnonzero(swap_approvals(u, ok, owner).ravel()[at:])
            if not hits.size:
                break
            at += int(hits[0])
            k1, k2 = divmod(at, n_sub)
            gain = float((u[k1, k2] + u[k2, k1]) - (u[k1, k1] + u[k2, k2]))
            for a in (u, ok, owner):
                a[[k1, k2]] = a[[k2, k1]]
            gains.append(gain)
            trace.append(trace[-1] + gain)
            changed = True
            at += 1
        examined_per_round.append(n_sub * (n_sub - 1) // 2)
    return MsmaResult(*assignment(beta, owner), len(gains), gains, trace,
                      examined_per_round)


def init_matching(ctx: MatchingContext,
                  modes: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Greedy feasible start for UEs held to the given modes.

    Subchannels go greedily to the highest-utility feasible UE, each
    candidate scored at the equal split it would hold after taking the
    channel, which is what steers channels away from a single dominant
    UE once its per-channel budget thins out; a UE's row is re-scored
    only when that split changes.  A repair pass drops lowest-utility
    assignments until every survivor meets QoS under the realized equal
    split; dropping only raises the survivors' powers, so it
    terminates."""
    sc = ctx.scenario
    modes = np.asarray(modes, dtype=int)
    relay = modes == RELAY
    counts = np.zeros(ctx.n_ues, dtype=int)
    relay_total = 0
    # value[k, n]: UE n's utility on subchannel k where it meets QoS, else 0
    value = np.zeros((ctx.n_subchannels, ctx.n_ues))

    def rescore(ues: np.ndarray) -> None:
        """Rows at the split each UE would hold after one more subchannel."""
        utility, feasible = score_rows(
            ctx, ues, relay[ues], sc.p_ue_max / (counts[ues] + 1),
            sc.p_uav_max / (relay_total + 1))
        value[:, ues] = np.where(feasible, utility, 0.0).T

    owner = np.full(ctx.n_subchannels, -1)
    stale = np.arange(ctx.n_ues)
    for k in range(ctx.n_subchannels):
        if stale.size:
            rescore(stale)
        # the first UE of highest positive utility among the feasible ones
        n = int(value[k].argmax())
        stale = np.array([], dtype=int)
        if value[k, n] > 0.0:
            owner[k] = n
            counts[n] += 1
            relay_total += int(relay[n])
            # a relayed pick thins the relay split for every relayed UE
            stale = np.flatnonzero(relay) if relay[n] else np.array([n])

    while True:
        beta, alloc = assignment(modes, owner)
        utility_k, feasible_k = GameView(beta, alloc, ctx).own()
        bad = np.flatnonzero(~feasible_k)  # vacant is always feasible
        if not bad.size:
            return beta, alloc
        owner[bad[np.argmin(utility_k[bad])]] = -1
