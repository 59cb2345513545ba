"""Mode selection and subchannel allocation as a many-to-one matching game.

Each subchannel holds at most one (UE, mode) pair; a virtual VACANT entry
lets assignments move around.  The game evaluates utilities under equal-split
provisional powers: every active pair divides the UE budget evenly over its
matched subchannels and the relay budget is divided evenly over relay-matched
subchannels.  Swaps preserve those counts, so the split is fixed for a whole
run, which is what makes the brute-force oracle and the algorithm agree on
what a profitable swap is.

Swap approval is one array pass: `swap_approvals` reads a (K, K) table
whose row j scores the pair on subchannel j on every subchannel, and
tests every subchannel pair at once.  Mode consistency needs no per-swap
check: a swap keeps the multiset of pairs, so whether a UE holds one mode
only is the same before and after it.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from . import link_rate as lr
from .channel import ChannelGains
from .scenario import SnrThresholds

VACANT = None

CELLULAR, RELAY = 0, 1


@dataclass(frozen=True)
class McPair:
    ue: int
    mode: int  # 0 cellular, 1 relay


@dataclass
class Matching:
    """Subchannel -> McPair-or-VACANT assignment."""

    assign: list[McPair | None]

    def copy(self) -> "Matching":
        return Matching(list(self.assign))

    def swapped(self, k1: int, k2: int) -> "Matching":
        out = self.copy()
        out.assign[k1], out.assign[k2] = out.assign[k2], out.assign[k1]
        return out

    def counts(self) -> dict[McPair, int]:
        out: dict[McPair, int] = {}
        for pair in self.assign:
            if pair is not VACANT:
                out[pair] = out.get(pair, 0) + 1
        return out

    def relay_total(self) -> int:
        return sum(1 for p in self.assign if p is not VACANT and p.mode == RELAY)

    def mode_consistent(self) -> bool:
        modes: dict[int, int] = {}
        for pair in self.assign:
            if pair is VACANT:
                continue
            if modes.setdefault(pair.ue, pair.mode) != pair.mode:
                return False
        return True

    def to_beta_alloc(self, n_ues: int) -> tuple[np.ndarray, np.ndarray]:
        n_sub = len(self.assign)
        beta = np.zeros(n_ues, dtype=int)
        alloc = np.zeros((n_ues, n_sub), dtype=int)
        for k, pair in enumerate(self.assign):
            if pair is VACANT:
                continue
            alloc[pair.ue, k] = 1
            beta[pair.ue] = pair.mode
        return beta, alloc


@dataclass(frozen=True)
class MatchingContext:
    """Slot inputs the game scores against."""

    weights: np.ndarray
    gains: ChannelGains
    sigma2: float
    ici: float
    thresholds: SnrThresholds
    p_ue_max: float
    p_uav_max: float

    @property
    def n_ues(self) -> int:
        return self.gains.h_ue_bs.shape[0]

    @property
    def n_subchannels(self) -> int:
        return self.gains.h_ue_bs.shape[1]

    def all_pairs(self) -> list[McPair]:
        return [McPair(n, m) for n in range(self.n_ues) for m in (CELLULAR, RELAY)]


def score_rows(ctx: MatchingContext, pairs, ue_power,
               uav_power: float) -> tuple[np.ndarray, np.ndarray]:
    """Weighted rate and QoS verdict of every pair on every subchannel,
    one row per pair, from one link-budget evaluation.  `ue_power` is one
    UE power per pair, or one for all; `uav_power` is the relay's power
    per relayed subchannel."""
    ue = [pair.ue for pair in pairs]
    g = ctx.gains
    relay = np.array([pair.mode == RELAY for pair in pairs], dtype=bool)[:, None]
    link = lr.LinkBudget(relay, np.asarray(ue_power, dtype=float).reshape(-1, 1), uav_power,
                         g.h_ue_bs[ue], g.h_ue_uav[ue], g.h_uav_bs,
                         ctx.thresholds, ctx.sigma2, ctx.ici)
    return ctx.weights[ue, None] * link.rate, link.feasible()


class GameView:
    """Utilities and QoS verdicts of one matching under its equal-split
    powers: one table row per pair over every subchannel, all scored at
    once, and a last all-zero, all-feasible row that VACANT reads as row
    -1.  Valid across swaps because swaps never change any pair's
    subchannel count or the relay total."""

    def __init__(self, matching: Matching, ctx: MatchingContext):
        counts = matching.counts()
        relay_total = matching.relay_total()
        uav_power = ctx.p_uav_max / relay_total if relay_total else 0.0
        pairs = list(counts)
        self._row = {pair: i for i, pair in enumerate(pairs)}
        utility, feasible = score_rows(
            ctx, pairs, [ctx.p_ue_max / counts[p] for p in pairs], uav_power)
        k_sub = ctx.n_subchannels
        self.utility = np.vstack([utility, np.zeros(k_sub)])
        self.feasible = np.vstack([feasible, np.ones(k_sub, dtype=bool)])

    def rows(self, matching: Matching) -> np.ndarray:
        """Table row of the pair on each subchannel, -1 for VACANT."""
        return np.array([self._row.get(p, -1) for p in matching.assign], dtype=int)

    def own(self, matching: Matching) -> tuple[np.ndarray, np.ndarray]:
        """Utility and QoS verdict of each subchannel's own pair there."""
        rows = self.rows(matching)
        k = np.arange(rows.size)
        return self.utility[rows, k], self.feasible[rows, k]

    def system_utility(self, matching: Matching) -> float:
        return sum(self.own(matching)[0].tolist())


def _consistent_slots(psi: Matching) -> np.ndarray:
    """Per subchannel: VACANT, or a pair whose UE holds one mode only.
    A swap keeps the multiset of pairs, so each UE's consistency after
    any swap equals its consistency before it."""
    modes: dict[int, set[int]] = {}
    for pair in psi.assign:
        if pair is not VACANT:
            modes.setdefault(pair.ue, set()).add(pair.mode)
    return np.array([pair is VACANT or len(modes[pair.ue]) == 1
                     for pair in psi.assign], dtype=bool)


def _approvals(u: np.ndarray, ok: np.ndarray, rows: np.ndarray,
               consistent: np.ndarray) -> np.ndarray:
    """Swap approval over every subchannel pair (k1 < k2) from the pair
    table: row j of `u`/`ok` scores the pair on subchannel j (table row
    `rows[j]`, -1 for VACANT) on every subchannel."""
    own = np.diagonal(u)
    u11, u22, u12, u21 = own[:, None], own[None, :], u, u.T
    real = rows >= 0
    # no involved player loses: subchannels k1, k2, then pairs p1, p2
    approved = ~((u21 < u11) | (u12 < u22) | (u12 < u11) | (u21 < u22))
    # some real pair strictly gains
    approved &= (real[:, None] & (u12 > u11)) | (real[None, :] & (u21 > u22))
    # QoS on both re-assigned subchannels, two distinct pairs, and modes
    # that stay consistent
    approved &= ok & ok.T
    approved &= rows[:, None] != rows[None, :]
    approved &= consistent[:, None] & consistent[None, :]
    return np.triu(approved, 1)


def swap_approvals(psi: Matching, view: GameView) -> np.ndarray:
    """(K, K) mask, true at (k1, k2), k1 < k2, where exchanging the
    matches of k1 and k2 is approved; shared by the algorithm, the
    stability audit and the brute-force oracle.

    Approved iff no involved player (either subchannel, either pair)
    loses utility, at least one real pair strictly gains, the two pairs
    differ, and the swapped matching stays feasible: QoS on the two
    re-assigned subchannels and mode consistency of both UEs (the power
    split and the exclusivity structure are unchanged by construction)."""
    rows = view.rows(psi)
    return _approvals(view.utility[rows], view.feasible[rows], rows,
                      _consistent_slots(psi))


@dataclass
class MsmaResult:
    matching: Matching
    n_swaps: int
    swap_gains: list[float]
    utility_trace: list[float]
    examined_per_round: list[int]


def msma_detailed(init: Matching, ctx: MatchingContext) -> MsmaResult:
    """Run rounds of profitable swaps to pairwise stability.

    Deterministic: each round scans the subchannel pairs (k1 < k2) in
    row-major order and executes the first approved swap at or after its
    scan position, then goes on from the next pair, so a round examines
    all K(K-1)/2 pairs.  The approvals come from one mask over the pair
    table (row j: the pair on subchannel j, scored on every subchannel);
    an executed swap exchanges two table rows and the mask is rebuilt.
    The per-UE mode-consistency verdict is computed once, as no swap
    changes the multiset of pairs."""
    psi = init.copy()
    view = GameView(psi, ctx)
    rows = view.rows(psi)
    u, ok = view.utility[rows], view.feasible[rows]
    consistent = _consistent_slots(psi)
    trace = [view.system_utility(psi)]
    gains: list[float] = []
    examined_per_round: list[int] = []
    n_sub = rows.size
    changed = True
    while changed:
        changed = False
        at = 0  # scan position, row-major over (k1, k2)
        while True:
            hits = np.flatnonzero(_approvals(u, ok, rows, consistent).ravel()[at:])
            if not hits.size:
                break
            at += int(hits[0])
            k1, k2 = divmod(at, n_sub)
            gain = float((u[k1, k2] + u[k2, k1]) - (u[k1, k1] + u[k2, k2]))
            # both slots are consistent, so `consistent` needs no swap
            for a in (u, ok, rows):
                a[[k1, k2]] = a[[k2, k1]]
            psi.assign[k1], psi.assign[k2] = psi.assign[k2], psi.assign[k1]
            gains.append(gain)
            trace.append(trace[-1] + gain)
            changed = True
            at += 1
        examined_per_round.append(n_sub * (n_sub - 1) // 2)
    return MsmaResult(psi, len(gains), gains, trace, examined_per_round)


def is_pairwise_stable(psi: Matching, ctx: MatchingContext) -> bool:
    return not swap_approvals(psi, GameView(psi, ctx)).any()


def matching_feasible(psi: Matching, ctx: MatchingContext) -> bool:
    """Mode consistency plus per-assignment QoS under the matching's own
    equal-split powers.  Power caps hold by construction of the split."""
    return psi.mode_consistent() and bool(GameView(psi, ctx).own(psi)[1].all())


def _scored_modes(ctx: MatchingContext) -> dict[int, int]:
    """Pick each UE's mode by total utility over its QoS-feasible
    subchannels at full-budget reference powers."""
    pairs = ctx.all_pairs()
    utility, feasible = score_rows(ctx, pairs, ctx.p_ue_max, ctx.p_uav_max)
    score = dict(zip(pairs, np.where(feasible, utility, 0.0).sum(axis=1)))
    return {n: RELAY if score[McPair(n, RELAY)] > score[McPair(n, CELLULAR)]
            else CELLULAR for n in range(ctx.n_ues)}


def init_matching(ctx: MatchingContext,
                  forced_modes: dict[int, int] | None = None) -> Matching:
    """Greedy feasible start.

    Each UE's mode is fixed first by comparing its total relayed vs direct
    utility over the subchannels where each mode meets QoS at full-budget
    reference powers (callers can pin modes instead via `forced_modes`).
    Subchannels then go greedily to the highest-utility feasible pair of
    the chosen modes, each candidate scored at the equal split it would
    hold after taking the channel, which is what steers channels away
    from a single dominant UE once its per-channel budget thins out; a
    pair's row is re-scored only when that split changes.  A repair pass
    drops lowest-utility assignments until every survivor meets QoS
    under the realized equal split; dropping only raises the survivors'
    powers, so it terminates."""
    modes = dict(forced_modes) if forced_modes is not None else _scored_modes(ctx)
    pairs = [McPair(n, modes[n]) for n in range(ctx.n_ues)]
    counts = [0] * ctx.n_ues
    relay_total = 0
    rows: list = [None] * ctx.n_ues

    def rescore(ues: list[int]) -> None:
        """Rows at the split each UE would hold after one more subchannel."""
        utility, feasible = score_rows(
            ctx, [pairs[n] for n in ues], [ctx.p_ue_max / (counts[n] + 1) for n in ues],
            ctx.p_uav_max / (relay_total + 1))
        for n, u, ok in zip(ues, utility.tolist(), feasible.tolist()):
            rows[n] = (u, ok)

    psi = Matching([VACANT] * ctx.n_subchannels)
    stale = list(range(ctx.n_ues))
    for k in range(ctx.n_subchannels):
        if stale:
            rescore(stale)
        best, best_u = VACANT, 0.0
        for pair, (u, ok) in zip(pairs, rows):
            if ok[k] and u[k] > best_u:
                best, best_u = pair, u[k]
        psi.assign[k] = best
        stale = []
        if best is not VACANT:
            counts[best.ue] += 1
            stale = [best.ue]
            if best.mode == RELAY:
                # the relay split thinned for every relayed pair
                relay_total += 1
                stale = [n for n, pair in enumerate(pairs) if pair.mode == RELAY]

    while True:
        utility, feasible = GameView(psi, ctx).own(psi)
        bad = np.flatnonzero(~feasible)  # VACANT is always feasible
        if not bad.size:
            return psi
        psi.assign[bad[np.argmin(utility[bad])]] = VACANT


def brute_force_stable(ctx: MatchingContext, n_ues: int, n_subchannels: int) -> list[Matching]:
    """All pairwise-stable matchings by exhaustive enumeration.

    A candidate must be mode-consistent and QoS-feasible under its own
    equal-split powers; stability re-uses the same approval predicate the
    algorithm runs, evaluated with the candidate's powers."""
    options: list[McPair | None] = [VACANT] + [McPair(n, m) for n in range(n_ues)
                                               for m in (CELLULAR, RELAY)]
    if len(options) ** n_subchannels > 100_000:
        raise ValueError("instance too large for brute force")
    stable = []
    for combo in itertools.product(options, repeat=n_subchannels):
        psi = Matching(list(combo))
        if not psi.mode_consistent():
            continue
        if not matching_feasible(psi, ctx):
            continue
        if is_pairwise_stable(psi, ctx):
            stable.append(psi)
    return stable
