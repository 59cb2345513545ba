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

Greedy starts read tables too, each built once for the inputs it reads
(`MatchingContext`).  A direct UE's row depends only on its own
subchannel count c (it runs at p_ue_max / c), the direct gains, the
weights and the scenario, so every UE's direct rows at every count it can
reach are built in one link-budget call once per slot: a UAV move leaves
them as they are.  The reach ends where the split falls below the UE's
lowest floor: past it the UE fails QoS on every subchannel and scores
zero, so those counts are never evaluated.  A relayed UE's row also moves
with the relay total and the air gains, so it is scored by
`link_rate.relayed_links` from the relay-hop floors, which are built once
per channel state, whenever a relayed assignment is made or dropped.  The
start's realized rows are the `GameView` the swap game runs on, so a
fresh start is scored once.
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
class DirectRows:
    """Every UE's direct rows at every count it can reach, in one table:
    row `first[n] + c` scores UE n holding c + 1 subchannels (at p_ue_max
    / (c + 1)) for c below `reach[n]`.  `value` is `where(feasible,
    utility, 0)`, what the greedy pass compares."""

    utility: np.ndarray
    feasible: np.ndarray
    value: np.ndarray
    first: np.ndarray
    reach: np.ndarray


def _direct_rows(ctx: "MatchingContext") -> DirectRows:
    """Build `DirectRows`.  A UE's reach ends where its split falls below
    its lowest direct floor, past which it fails QoS everywhere and reads
    an all-zero row; one row of slack is scored past it, capped at K."""
    sc, n_sub = ctx.scenario, ctx.n_subchannels
    floor_ue, _ = lr.floor_signals(False, sc.snr_thresholds, sc.noise_var, sc.ici_power)
    floor = (floor_ue / ctx.gains.h_ue_bs).min(axis=1)
    splits = sc.p_ue_max / np.arange(1, n_sub + 1)
    reach = np.minimum((splits >= floor[:, None]).sum(axis=1) + 1, n_sub)
    holder, count = np.nonzero(np.arange(n_sub) < reach[:, None])
    utility, feasible = score_rows(ctx, holder, False, sc.p_ue_max / (count + 1), 0.0)
    return DirectRows(utility, feasible, np.where(feasible, utility, 0.0),
                      np.cumsum(reach) - reach, reach)


@dataclass(frozen=True)
class MatchingContext:
    """Slot inputs the game scores against, and the tables its greedy
    starts read, each built on first use: the full-budget table, the
    relay-hop floors and the start modes per channel state, and the direct
    rows per slot (`moved` carries them to the slot's next channel
    state)."""

    scenario: Scenario
    gains: ChannelGains
    weights: np.ndarray

    @property
    def n_ues(self) -> int:
        return self.gains.h_ue_bs.shape[0]

    @property
    def n_subchannels(self) -> int:
        return self.gains.h_ue_bs.shape[1]

    def moved(self, gains: ChannelGains) -> "MatchingContext":
        """The context of this slot at the UAV's next channel state.  A move
        changes only the air gains, so the direct rows carry over."""
        ctx = MatchingContext(self.scenario, gains, self.weights)
        if "direct" in vars(self):
            vars(ctx)["direct"] = self.direct
        return ctx

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

    @cached_property
    def direct(self) -> DirectRows:
        """Every UE's direct rows, which read no air gain."""
        return _direct_rows(self)

    @cached_property
    def relay_floors(self) -> tuple[np.ndarray, np.ndarray]:
        """The smallest UE power (N, K) and relay power (K,) that meet each
        relayed link's hop floors."""
        sc, g = self.scenario, self.gains
        ue, uav = lr.floor_signals(True, sc.snr_thresholds, sc.noise_var, sc.ici_power)
        return ue / g.h_ue_uav, uav / g.h_uav_bs

    @cached_property
    def starts(self) -> list[tuple[np.ndarray, np.ndarray, float]]:
        """The relaying matching stage's greedy starts in play order, each
        as (modes, rows, ceiling): scored modes (relay where its
        QoS-feasible full-budget utility sums higher), all-cellular, and
        coverage modes (relay only the UEs with no QoS-feasible direct
        subchannel) if they relay anyone.  Row n holds UE n's entries of
        `where(feasible, utility, 0)` at full budget in its start mode, and
        the ceiling sums each subchannel's largest entry."""
        utility, feasible = self.full_budget
        table = np.where(feasible, utility, 0.0)
        score = table.sum(axis=2)
        modes = [np.where(score[RELAY] > score[CELLULAR], RELAY, CELLULAR),
                 np.full(self.n_ues, CELLULAR)]
        coverage = np.where(feasible[CELLULAR].any(axis=1), CELLULAR, RELAY)
        if coverage.any():
            modes.append(coverage)
        rows = [table[m, np.arange(self.n_ues)] for m in modes]
        return [(m, r, r.max(axis=0).sum()) for m, r in zip(modes, rows)]


def score_rows(ctx: MatchingContext, ues, relay, ue_power,
               uav_power) -> tuple[np.ndarray, np.ndarray]:
    """Weighted rate and QoS verdict of UE `ues[i]` in mode `relay[i]` on
    every subchannel, one row per entry, from one link-budget evaluation.
    `relay`, `ue_power` and `uav_power` (the relay's power per relayed
    subchannel) are one value per row, or one for all."""
    g, sc = ctx.gains, ctx.scenario

    def column(a, dtype=float):
        return np.asarray(a, dtype=dtype).reshape(-1, 1)

    link = lr.LinkBudget(column(relay, bool), column(ue_power), column(uav_power),
                         g.h_ue_bs[ues], g.h_ue_uav[ues], g.h_uav_bs,
                         sc.snr_thresholds, sc.noise_var, sc.ici_power)
    return ctx.weights[ues, None] * link.rate, link.feasible()


def assignment(modes: np.ndarray, owner: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """`(beta, alloc)` of a per-subchannel owner array; `beta` keeps the
    mode of every UE that holds a subchannel and is 0 elsewhere."""
    alloc = (owner == np.arange(len(modes))[:, None]).astype(int)
    return np.where(alloc.any(axis=1), modes, CELLULAR), alloc


@dataclass
class GameView:
    """Utilities and QoS verdicts of one matching under its equal-split
    powers.  `owner` holds the UE on each subchannel, -1 where it is
    vacant; row n of `utility`/`feasible` scores UE n in its mode
    (`modes[n]`) on every subchannel, and a last all-zero, all-feasible
    row is read by vacant subchannels as row -1.  The game reads only the
    owners' rows.  Valid across swaps because swaps never change any UE's
    subchannel count or the relay total."""

    modes: np.ndarray
    owner: np.ndarray
    utility: np.ndarray
    feasible: np.ndarray

    @classmethod
    def of(cls, beta: np.ndarray, alloc: np.ndarray, ctx: MatchingContext) -> "GameView":
        """Score the matching `(beta, alloc)`, every UE in one call."""
        sc = ctx.scenario
        relay = np.asarray(beta) == RELAY
        relay_total = int(alloc[relay].sum())
        uav_power = sc.p_uav_max / relay_total if relay_total else 0.0
        utility, feasible = score_rows(
            ctx, np.arange(ctx.n_ues), relay,
            sc.p_ue_max / np.maximum(alloc.sum(axis=1), 1), uav_power)
        k_sub = ctx.n_subchannels
        return cls(np.asarray(beta), np.where(alloc.any(axis=0), alloc.argmax(axis=0), -1),
                   np.vstack([utility, np.zeros(k_sub)]),
                   np.vstack([feasible, np.ones(k_sub, dtype=bool)]))

    def assignment(self) -> tuple[np.ndarray, np.ndarray]:
        return assignment(self.modes, self.owner)

    def own(self) -> tuple[np.ndarray, np.ndarray]:
        """Utility and QoS verdict of each subchannel's owner there."""
        k = np.arange(self.owner.size)
        return self.utility[self.owner, k], self.feasible[self.owner, k]


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
    examined_per_round: list[int]


def msma_detailed(view: GameView) -> MsmaResult:
    """Run rounds of profitable swaps from the view's matching to pairwise
    stability.

    Deterministic: each round scans the subchannel pairs (k1 < k2) in
    row-major order and executes the first approved swap at or after its
    scan position, then goes on from the next pair, so a round examines
    all K(K-1)/2 pairs.  The approvals come from one mask over the owner
    table (row j: the owner of subchannel j, scored on every subchannel);
    an executed swap exchanges two columns of `alloc`, that is two table
    rows, and the mask is rebuilt."""
    owner = view.owner.copy()
    u, ok = view.utility[owner], view.feasible[owner]
    n_swaps = 0
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
            for a in (u, ok, owner):
                a[[k1, k2]] = a[[k2, k1]]
            n_swaps += 1
            changed = True
            at += 1
        examined_per_round.append(n_sub * (n_sub - 1) // 2)
    return MsmaResult(*assignment(view.modes, owner), n_swaps, examined_per_round)


def init_matching(ctx: MatchingContext, modes: np.ndarray) -> GameView:
    """Greedy feasible start for UEs held to the given modes, returned as
    the view the swap game starts from.

    Subchannels go in order to the first UE of highest positive utility
    among those meeting QoS there, each candidate scored at the equal
    split it would hold after taking the channel, which is what steers
    channels away from a single dominant UE once its per-channel budget
    thins out.  A repair pass then drops lowest-utility assignments until
    every survivor meets QoS under the realized equal split; dropping only
    raises the survivors' powers, so it terminates.

    Both passes read tables.  Direct UE n holding c subchannels runs at
    p_ue_max / c whatever the others hold, so its rows are `ctx.direct`'s,
    built once per slot; in the repair its realized row is its table row
    one count down.  A relayed UE's row also moves with the relay total,
    so `link_rate.relayed_links` scores every relayed row in this call,
    from the relay-hop floors built once per channel state: once at the
    full budgets, once after each relayed pick at the next split (for the
    greedy pass), once at the split held after the pass, and once after
    each relayed drop (for the repair).  The realized rows become the returned view; rows of UEs
    holding nothing may be stale, as the game reads only the owners'
    rows."""
    sc, g, n_ues, n_sub = ctx.scenario, ctx.gains, ctx.n_ues, ctx.n_subchannels
    modes = np.asarray(modes, dtype=int)
    relay = modes == RELAY
    direct, relayed = np.flatnonzero(~relay), np.flatnonzero(relay)
    rows = ctx.direct
    counts = np.zeros(n_ues, dtype=int)
    relay_total = 0

    if relayed.size:
        floor_ue, floor_uav = ctx.relay_floors
        floor_ue, h1, w = floor_ue[relayed], g.h_ue_uav[relayed], ctx.weights[relayed, None]

    def relayed_rows(more):
        """(utility, feasible) of every relayed UE with `more` subchannels
        of its own (at least one) and of the relay beyond those held."""
        own = np.maximum(counts[relayed] + more, 1)
        rate, ok = lr.relayed_links(sc.p_ue_max / own[:, None],
                                    sc.p_uav_max / (relay_total + more), h1, g.h_uav_bs,
                                    floor_ue, floor_uav, sc.noise_var, sc.ici_power)
        return w * rate, ok

    def relayed_cand():
        utility, ok = relayed_rows(1)
        return np.where(ok, utility, 0.0)

    # cand[n]: UE n's utility where it meets QoS, else 0, at the split it
    # would hold after one more subchannel
    cand = np.zeros((n_ues, n_sub))
    cand[direct] = rows.value[rows.first[direct]]
    if relayed.size:
        cand[relayed] = relayed_cand()
    owner = np.full(n_sub, -1)
    for k in range(n_sub):
        n = int(cand[:, k].argmax())
        if cand[n, k] <= 0.0:
            continue
        owner[k] = n
        counts[n] += 1
        if relay[n]:
            # a relayed pick thins the relay split for every relayed UE
            relay_total += 1
            cand[relayed] = relayed_cand()
        elif counts[n] < rows.reach[n]:
            cand[n] = rows.value[rows.first[n] + counts[n]]
        else:
            cand[n] = 0.0

    # realized rows, plus the vacant row -1
    utility = np.zeros((n_ues + 1, n_sub))
    feasible = np.zeros((n_ues + 1, n_sub), dtype=bool)
    feasible[-1] = True

    def realize(ues):
        """Direct UEs' rows at the split they hold (the full budget when
        they hold nothing): their table rows one count down."""
        i = rows.first[ues] + np.maximum(counts[ues] - 1, 0)
        utility[ues], feasible[ues] = rows.utility[i], rows.feasible[i]

    realize(direct)
    if relay_total:
        utility[relayed], feasible[relayed] = relayed_rows(0)
    k_all = np.arange(n_sub)
    while True:
        bad = np.flatnonzero(~feasible[owner, k_all])  # vacant is always feasible
        if not bad.size:
            return GameView(modes, owner, utility, feasible)
        k = bad[np.argmin(utility[owner[bad], bad])]
        n = owner[k]
        owner[k] = -1
        counts[n] -= 1
        if relay[n]:
            relay_total -= 1
            if relay_total:
                utility[relayed], feasible[relayed] = relayed_rows(0)
        else:
            realize(n)
