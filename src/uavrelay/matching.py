"""Mode selection and subchannel allocation as a many-to-one matching game.

Each subchannel holds at most one (UE, mode) pair; a virtual VACANT entry
lets assignments move around.  The game evaluates utilities under equal-split
provisional powers: every active pair divides the UE budget evenly over its
matched subchannels and the relay budget is divided evenly over relay-matched
subchannels.  Swaps preserve those counts, so the split is fixed for a whole
run, which is what makes the brute-force oracle and the algorithm agree on
what a profitable swap is.
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

    def subchannels_of(self, pair: McPair) -> list[int]:
        return [k for k, p in enumerate(self.assign) if p == pair]

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
    powers, every pair's row scored at once and kept as Python lists.
    Valid across swaps because swaps never change any pair's subchannel
    count or the relay total."""

    def __init__(self, matching: Matching, ctx: MatchingContext):
        self.ctx = ctx
        self.counts = matching.counts()
        relay_total = matching.relay_total()
        self.uav_power = ctx.p_uav_max / relay_total if relay_total else 0.0
        pairs = list(self.counts)
        utility, feasible = score_rows(
            ctx, pairs, [ctx.p_ue_max / self.counts[p] for p in pairs], self.uav_power)
        self._utility = dict(zip(pairs, utility.tolist()))
        self._feasible = dict(zip(pairs, feasible.tolist()))

    def utility(self, pair: McPair | None, k: int) -> float:
        return 0.0 if pair is VACANT else self._utility[pair][k]

    def feasible(self, pair: McPair | None, k: int) -> bool:
        return True if pair is VACANT else self._feasible[pair][k]

    def system_utility(self, matching: Matching) -> float:
        return sum(self.utility(p, k) for k, p in enumerate(matching.assign))


def _consistent_after_swap(psi: Matching, k1: int, k2: int) -> bool:
    involved = {p.ue for p in (psi.assign[k1], psi.assign[k2]) if p is not VACANT}
    swapped = psi.swapped(k1, k2)
    for ue in involved:
        modes = {p.mode for p in swapped.assign if p is not VACANT and p.ue == ue}
        if len(modes) > 1:
            return False
    return True


def approve_swap(psi: Matching, k1: int, k2: int, view: GameView) -> bool:
    """Swap approval shared by the algorithm, the stability audit, and the
    brute-force oracle.

    Approved iff, exchanging the matches of k1 and k2: no involved player
    (either subchannel, either pair) loses utility, at least one real pair
    strictly gains, and the swapped matching stays feasible (QoS on the two
    re-assigned subchannels, mode consistency; the power split and the
    exclusivity structure are unchanged by construction)."""
    p1, p2 = psi.assign[k1], psi.assign[k2]
    if p1 == p2:
        return False
    u11, u12 = view.utility(p1, k1), view.utility(p1, k2)
    u22, u21 = view.utility(p2, k2), view.utility(p2, k1)
    if u21 < u11 or u12 < u22:  # subchannels k1, k2 must not lose
        return False
    if u12 < u11 or u21 < u22:  # pairs p1, p2 must not lose
        return False
    strict = (p1 is not VACANT and u12 > u11) or (p2 is not VACANT and u21 > u22)
    if not strict:
        return False
    if not (view.feasible(p1, k2) and view.feasible(p2, k1)):
        return False
    return _consistent_after_swap(psi, k1, k2)


@dataclass
class MsmaResult:
    matching: Matching
    n_swaps: int
    swap_gains: list[float]
    utility_trace: list[float]
    examined_per_round: list[int]


def msma_detailed(init: Matching, ctx: MatchingContext) -> MsmaResult:
    """Run rounds of profitable swaps to pairwise stability.

    Deterministic: subchannel pairs scanned in ascending order, the first
    approved swap executes immediately.  A per-round memo skips configurations
    already tried in the round, mirroring the 'not yet executed' bookkeeping
    of the swap search."""
    psi = init.copy()
    view = GameView(psi, ctx)
    trace = [view.system_utility(psi)]
    gains: list[float] = []
    examined_per_round: list[int] = []
    n_sub = len(psi.assign)
    changed = True
    while changed:
        changed = False
        seen: set[tuple] = set()
        examined = 0
        for k1 in range(n_sub):
            for k2 in range(k1 + 1, n_sub):
                key = (k1, k2, psi.assign[k1], psi.assign[k2])
                if key in seen:
                    continue
                seen.add(key)
                examined += 1
                if approve_swap(psi, k1, k2, view):
                    before = view.utility(psi.assign[k1], k1) + view.utility(psi.assign[k2], k2)
                    after = view.utility(psi.assign[k1], k2) + view.utility(psi.assign[k2], k1)
                    psi.assign[k1], psi.assign[k2] = psi.assign[k2], psi.assign[k1]
                    gains.append(after - before)
                    trace.append(trace[-1] + (after - before))
                    changed = True
        examined_per_round.append(examined)
    return MsmaResult(psi, len(gains), gains, trace, examined_per_round)


def is_pairwise_stable(psi: Matching, ctx: MatchingContext) -> bool:
    view = GameView(psi, ctx)
    n_sub = len(psi.assign)
    return not any(approve_swap(psi, k1, k2, view)
                   for k1 in range(n_sub) for k2 in range(k1 + 1, n_sub))


def matching_feasible(psi: Matching, ctx: MatchingContext) -> bool:
    """Mode consistency plus per-assignment QoS under the matching's own
    equal-split powers.  Power caps hold by construction of the split."""
    if not psi.mode_consistent():
        return False
    view = GameView(psi, ctx)
    return all(view.feasible(p, k) for k, p in enumerate(psi.assign))


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
        view = GameView(psi, ctx)
        bad = [(view.utility(p, k), k) for k, p in enumerate(psi.assign)
               if p is not VACANT and not view.feasible(p, k)]
        if not bad:
            return psi
        _, k_drop = min(bad)
        psi.assign[k_drop] = VACANT


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
