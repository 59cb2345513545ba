"""Mode selection and subchannel allocation as a many-to-one matching game.

A matching is the package's own `(beta, alloc)` pair: each UE holds one
mode, `beta[n]` (cellular or relay), and the subchannels of row n of
`alloc`; a subchannel has at most one owner, or none (vacant).  One mode
per UE holds by construction.  The game evaluates utilities under
equal-split provisional powers: every UE divides its budget evenly over
its subchannels and the relay budget is divided evenly over the relayed
subchannels.  A swap exchanges the owners of two subchannels, which keeps
those counts, so the split is fixed for a whole run.

Each scan of the swap game builds one array prefilter over the (K, K)
table whose row j scores the owner of subchannel j on every subchannel:
the pairs of distinct owners where no involved player loses and QoS holds
both ways.  The strict-gain test then runs on Python floats over the
surviving pairs, and the prefilter is rebuilt only after a swap.

Greedy starts read tables too, each built once for the inputs it reads
(`MatchingContext`).  A direct UE's row depends only on its own
subchannel count c (it runs at p_ue_max / c), the direct gains, the
weights and the scenario, so every UE's direct rows at every count it can
reach are built in one direct link-budget call once per slot: a UAV move
leaves them as they are.  Each UE's first row runs at the full budget,
so the full-budget table's cellular half and the all-cellular start are
gathered from them.  The reach ends where the split falls below the UE's
lowest floor: past it the UE fails QoS on every subchannel and scores
zero, so those counts are never evaluated.  A relayed UE's row also moves
with the relay total and the air gains, so the greedy pass scores its
candidates lazily, one subchannel at a time, on Python floats
(`link_rate.relayed_column`), and `link_rate.relayed_links` scores only
the realized relayed rows: once after the pass and once per relayed
drop.
The start's realized rows are the `GameView` the swap game runs on, so a
fresh start is scored once.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache, cached_property

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
    floor = ctx.direct_floors.min(axis=1)
    splits = sc.p_ue_max / np.arange(1, n_sub + 1)
    reach = np.minimum((splits >= floor[:, None]).sum(axis=1) + 1, n_sub)
    holder, count = np.nonzero(np.arange(n_sub) < reach[:, None])
    # a direct link reads no air gain, so the air gains are stand-ins
    link = lr.LinkBudget(False, (sc.p_ue_max / (count + 1))[:, None], 0.0,
                         ctx.gains.h_ue_bs[holder], 1.0, 1.0,
                         sc.snr_thresholds, sc.noise_var, sc.ici_power)
    utility, feasible = ctx.weights[holder, None] * link.rate, link.feasible()
    return DirectRows(utility, feasible, np.where(feasible, utility, 0.0),
                      np.cumsum(reach) - reach, reach)


@dataclass(frozen=True)
class MatchingContext:
    """Slot inputs the game scores against, and the tables its greedy
    starts read, each built on first use.  Per slot (`moved` carries them
    to the slot's next channel state): the direct rows and the
    all-cellular start gathered from them.  Per channel state: the
    full-budget table, whose cellular half is gathered from the direct
    rows too, the relay-hop floors and their list forms, and the other
    start modes."""

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
        changes only the air gains, so the per-slot tables built so far,
        which read no air gain, carry over."""
        ctx = MatchingContext(self.scenario, gains, self.weights)
        vars(ctx).update((n, t) for n, t in vars(self).items()
                         if n in ("direct", "cellular_start"))
        return ctx

    @cached_property
    def direct(self) -> DirectRows:
        """Every UE's direct rows, which read no air gain."""
        return _direct_rows(self)

    @property
    def direct_floors(self) -> np.ndarray:
        """The smallest UE power (N, K) that meets each direct link's
        floor."""
        sc = self.scenario
        floor, _ = lr.floor_signals(False, sc.snr_thresholds, sc.noise_var, sc.ici_power)
        return floor / self.gains.h_ue_bs

    @cached_property
    def full_budget(self) -> tuple[np.ndarray, np.ndarray]:
        """Weighted rate and QoS verdict of every UE in each mode on every
        subchannel at the full UE and relay budgets, indexed [mode, ue, k]:
        each UE's first direct row, then one relayed-link call."""
        sc, g, rows = self.scenario, self.gains, self.direct
        rate, ok = lr.relayed_links(sc.p_ue_max, sc.p_uav_max, g.h_ue_uav, g.h_uav_bs,
                                    *self.relay_floors, sc.noise_var, sc.ici_power)
        return (np.array([rows.utility[rows.first], self.weights[:, None] * rate]),
                np.array([rows.feasible[rows.first], ok]))

    @cached_property
    def relay_floors(self) -> tuple[np.ndarray, np.ndarray]:
        """The smallest UE power (N, K) and relay power (K,) that meet each
        relayed link's hop floors."""
        sc, g = self.scenario, self.gains
        ue, uav = lr.floor_signals(True, sc.snr_thresholds, sc.noise_var, sc.ici_power)
        return ue / g.h_ue_uav, uav / g.h_uav_bs

    @cached_property
    def relay_lists(self) -> tuple[list, list, list, list, list]:
        """`h_ue_uav`, `h_uav_bs`, the weights and the relay-hop floors as
        lists of floats, the (N, K) ones by subchannel, as the greedy pass
        reads them."""
        floor_ue, floor_uav = self.relay_floors
        return (self.gains.h_ue_uav.T.tolist(), self.gains.h_uav_bs.tolist(),
                self.weights.tolist(), floor_ue.T.tolist(), floor_uav.tolist())

    @cached_property
    def cellular_start(self) -> tuple[np.ndarray, np.ndarray, float]:
        """The all-cellular start as (modes, rows, ceiling): row n holds UE
        n's first direct row, `where(feasible, utility, 0)` at full budget,
        and the ceiling sums each subchannel's largest entry."""
        rows = self.direct.value[self.direct.first]
        return np.full(self.n_ues, CELLULAR), rows, rows.max(axis=0).sum()

    @cached_property
    def starts(self) -> list[tuple[np.ndarray, np.ndarray, float]]:
        """The relaying matching stage's greedy starts in play order, each
        as `cellular_start` is: scored modes (relay where its QoS-feasible
        full-budget utility sums higher), all-cellular, and coverage modes
        (relay only the UEs with no QoS-feasible direct subchannel) if they
        relay anyone."""
        utility, feasible = self.full_budget
        table = np.where(feasible, utility, 0.0)
        score = table.sum(axis=2)
        modes = [np.where(score[RELAY] > score[CELLULAR], RELAY, CELLULAR)]
        coverage = np.where(feasible[CELLULAR].any(axis=1), CELLULAR, RELAY)
        if coverage.any():
            modes.append(coverage)
        rows = [table[m, np.arange(self.n_ues)] for m in modes]
        starts = [(m, r, r.max(axis=0).sum()) for m, r in zip(modes, rows)]
        return starts[:1] + [self.cellular_start] + starts[1:]


def assignment(modes: np.ndarray, owner: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """`(beta, alloc)` of a per-subchannel owner array; `beta` keeps the
    mode of every UE that holds a subchannel and is 0 elsewhere."""
    alloc = (owner == np.arange(len(modes))[:, None]).astype(int)
    return np.where(alloc.any(axis=1), modes, CELLULAR), alloc


@dataclass
class GameView:
    """Utilities and QoS verdicts of one matching under its equal-split
    powers, as `init_matching` returns it and `msma_detailed` plays it.
    `owner` holds the UE on each subchannel, -1 where it is vacant; row n
    of `utility`/`feasible` scores UE n in its mode (`modes[n]`) on every
    subchannel, and a last all-zero, all-feasible row is read by vacant
    subchannels as row -1.  The game reads only the owners' rows.  Valid
    across swaps because swaps never change any UE's subchannel count or
    the relay total."""

    modes: np.ndarray
    owner: np.ndarray
    utility: np.ndarray
    feasible: np.ndarray


@dataclass
class MsmaResult:
    beta: np.ndarray
    alloc: np.ndarray
    n_swaps: int
    examined_per_round: list[int]


@cache
def _upper(n: int) -> np.ndarray:
    """The (n, n) mask of the pairs k1 < k2, read-only, as every call
    shares it."""
    mask = np.triu(np.ones((n, n), dtype=bool), 1)
    mask.flags.writeable = False
    return mask


def _first_swap(u: np.ndarray, ok: np.ndarray, owner: np.ndarray, at: int) -> int | None:
    """Row-major position k1 * K + k2, at or after `at`, of the first
    approved exchange of the owners of subchannels k1 < k2, or None, from
    the owner table: row j of `u`/`ok` scores the owner of subchannel j
    (`owner[j]`, -1 for vacant) on every subchannel.

    Approved iff no involved player (either subchannel, either UE) loses
    utility, at least one real UE strictly gains, the two owners differ,
    and the swapped matching stays feasible: QoS on the two re-assigned
    subchannels (the power split, the exclusivity structure and each UE's
    single mode are unchanged by construction).  One array pass keeps the
    pairs of distinct owners where nobody loses and QoS holds both ways;
    the strict-gain test runs on floats over those, in scan order.  A
    vacant subchannel's row is all zero, so it never gains."""
    own = np.diagonal(u)
    keep = np.minimum(u, u.T) >= np.maximum(own[:, None], own)
    keep &= ok & ok.T & (owner[:, None] != owner) & _upper(owner.size)
    hits = at + np.flatnonzero(keep.ravel()[at:])
    k1s, k2s = np.divmod(hits, owner.size)
    own = own.tolist()
    for i, k1, k2, u12, u21 in zip(hits.tolist(), k1s.tolist(), k2s.tolist(),
                                   u[k1s, k2s].tolist(), u[k2s, k1s].tolist()):
        if u12 > own[k1] or u21 > own[k2]:
            return i
    return None


def msma_detailed(view: GameView) -> MsmaResult:
    """Run rounds of profitable swaps from the view's matching to pairwise
    stability.

    Deterministic: each round scans the subchannel pairs (k1 < k2) in
    row-major order and executes the first approved swap at or after its
    scan position, then goes on from the next pair, so a round examines
    all K(K-1)/2 pairs.  The approvals come from the owner table (row j:
    the owner of subchannel j, scored on every subchannel), one prefilter
    per scan and a float test on its survivors (`_first_swap`); an executed
    swap exchanges two columns of `alloc`, that is two table rows, and the
    prefilter is rebuilt."""
    owner = view.owner.copy()
    u, ok = view.utility[owner], view.feasible[owner]
    n_swaps = 0
    examined_per_round: list[int] = []
    n_sub = owner.size
    changed = True
    while changed:
        changed = False
        at = 0  # scan position, row-major over (k1, k2)
        while (at := _first_swap(u, ok, owner, at)) is not None:
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

    Direct UE n holding c subchannels runs at p_ue_max / c whatever the
    others hold, so its rows are `ctx.direct`'s, built once per slot: the
    greedy pass takes each subchannel's best direct candidate from them,
    and in the repair a direct UE's realized row is its table row one
    count down.  A relayed UE's row also moves with the relay total, so
    the greedy pass scores the relayed candidates of each subchannel as it
    reaches it (`link_rate.relayed_column`, on floats), and a relayed
    pick re-scores nothing.  A float's last bit can differ from numpy's,
    so two candidates within an ulp of each other could rank otherwise
    than on numpy values; the values are never stored.
    `link_rate.relayed_links` scores only the realized relayed rows: once
    at the split held after the pass, and once after each relayed drop
    (for the repair).  The realized rows become the returned view; rows of
    UEs holding nothing may be stale, as the game reads only the owners'
    rows."""
    sc, g, n_ues, n_sub = ctx.scenario, ctx.gains, ctx.n_ues, ctx.n_subchannels
    modes = np.asarray(modes, dtype=int)
    relay = modes == RELAY
    direct, relayed = np.flatnonzero(~relay), np.flatnonzero(relay)
    rows = ctx.direct
    is_relayed, relayed_ues = relay.tolist(), relayed.tolist()
    # p_next[n]: UE n's power after one more subchannel
    counts, relay_total, p_next = [0] * n_ues, 0, [sc.p_ue_max] * n_ues
    if relayed_ues:
        h_ue_uav, h_uav_bs, weights, floor_ue, floor_uav = ctx.relay_lists

    # cand[n]: direct UE n's utility where it meets QoS, else 0, at the
    # split it would hold after one more subchannel; 0 for relayed UEs
    cand = np.zeros((n_ues, n_sub))
    cand[direct] = rows.value[rows.first[direct]]
    owner = [-1] * n_sub
    for k in range(n_sub):
        n = int(cand[:, k].argmax())
        value = cand[n, k]
        if relayed_ues:
            scores = lr.relayed_column(relayed_ues, weights, p_next,
                                       sc.p_uav_max / (relay_total + 1), h_ue_uav[k],
                                       h_uav_bs[k], floor_ue[k], floor_uav[k],
                                       sc.noise_var, sc.ici_power)
            best = max(scores)
            m = relayed_ues[scores.index(best)]
            if best > value or (best == value and m < n):
                n, value = m, best
        if value <= 0.0:
            continue
        owner[k] = n
        counts[n] += 1
        if is_relayed[n]:
            relay_total += 1  # read by the later subchannels' relayed candidates
            p_next[n] = sc.p_ue_max / (counts[n] + 1)
        elif counts[n] < rows.reach[n]:
            cand[n] = rows.value[rows.first[n] + counts[n]]
        else:
            cand[n] = 0.0
    owner, counts = np.array(owner), np.array(counts)

    # realized rows, plus the vacant row -1
    utility = np.zeros((n_ues + 1, n_sub))
    feasible = np.zeros((n_ues + 1, n_sub), dtype=bool)
    feasible[-1] = True

    def realize(ues):
        """Direct UEs' rows at the split they hold (the full budget when
        they hold nothing): their table rows one count down."""
        i = rows.first[ues] + np.maximum(counts[ues] - 1, 0)
        utility[ues], feasible[ues] = rows.utility[i], rows.feasible[i]

    def realize_relayed():
        """Every relayed UE's row at the split it holds (the full UE budget
        when it holds nothing) and the relay split held."""
        floor_ue, floor_uav = ctx.relay_floors
        rate, ok = lr.relayed_links(sc.p_ue_max / np.maximum(counts[relayed], 1)[:, None],
                                    sc.p_uav_max / relay_total, g.h_ue_uav[relayed], g.h_uav_bs,
                                    floor_ue[relayed], floor_uav, sc.noise_var, sc.ici_power)
        utility[relayed], feasible[relayed] = ctx.weights[relayed, None] * rate, ok

    realize(direct)
    if relay_total:
        realize_relayed()
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
                realize_relayed()
        else:
            realize(n)
