"""Small projected-gradient engine for concave maximization over the
intersection of a ball, halfspaces, and per-variable lower bounds, with an
optional log-barrier pass for smooth nonlinear constraints.

Every subproblem in this package has a handful of variables and a
feasible set with a closed-form projection (a disc, an interval, or a
product of budget blocks), so the engine projects exactly and spends its
effort on a backtracking line search with a sufficient-increase test and
a three-decade barrier schedule with warm starts.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property
from typing import Callable

import numpy as np

Objective = Callable[[np.ndarray], tuple[float, np.ndarray]]


@dataclass
class BarrierTerm:
    """Smooth concave constraints g_i(x) >= 0 entering through a log barrier.

    `fn` returns the values of its m constraint rows and their Jacobian,
    shapes (m,) and (m, d); a scalar value with a gradient of shape (d,)
    is the one-row case.  The barrier adds mu * sum_i log g_i(x).  `tol`
    is the residual allowed on every row when the final point is
    validated (barriers stop strictly inside, but a caller may seed
    exactly on the boundary)."""

    fn: Callable[[np.ndarray], tuple[np.ndarray, np.ndarray]]
    tol: float = 1e-9


@dataclass
class FeasibleSet:
    """Convex feasible region: optional ball, halfspaces a.x <= b, and
    per-variable lower bounds.  Nonlinear concave constraints ride along as
    barrier terms, each carrying one or more constraint rows, and do not
    participate in projection.

    Projection is exact for the three shapes this package builds: a ball
    alone, any set over one variable (an interval), and halfspaces with
    0/1 coefficients and disjoint supports plus optional lower bounds (a
    product of budget blocks).  Any other shape is rejected."""

    ball: tuple[np.ndarray, float] | None = None
    halfspaces: list[tuple[np.ndarray, float]] = field(default_factory=list)
    lower_bounds: np.ndarray | None = None
    barrier_terms: list[BarrierTerm] = field(default_factory=list)

    def project(self, x: np.ndarray) -> np.ndarray:
        """Euclidean projection onto the linear part of the set."""
        return self._projector(np.asarray(x, dtype=float))

    @cached_property
    def _projector(self) -> Callable[[np.ndarray], np.ndarray]:
        sizes = {int(np.size(a)) for a, _ in self.halfspaces}
        if self.ball is not None:
            sizes.add(int(np.size(self.ball[0])))
        if self.lower_bounds is not None:
            sizes.add(int(np.size(self.lower_bounds)))
        if len(sizes) > 1:
            raise ValueError(f"constraints disagree on the dimension: {sorted(sizes)}")
        if not sizes:
            return lambda x: x
        if sizes == {1}:
            return self._interval_projector()
        if self.ball is not None:
            if self.halfspaces or self.lower_bounds is not None:
                raise ValueError("no exact projection for a ball combined with "
                                 "halfspaces or lower bounds")
            return self._project_ball
        return self._block_projector(sizes.pop())

    def _project_ball(self, x: np.ndarray) -> np.ndarray:
        center, radius = self.ball
        d = x - center
        norm = np.linalg.norm(d)
        if norm <= radius:
            return x
        return center + d * (radius / norm)

    def _interval_projector(self) -> Callable[[np.ndarray], np.ndarray]:
        """Clip onto [lo, hi], the intersection of every constraint on the
        single variable.  An empty interval clips to its upper end, which
        `linear_violation` then reports."""
        lo, hi = -math.inf, math.inf
        if self.ball is not None:
            center, radius = float(np.ravel(self.ball[0])[0]), self.ball[1]
            lo, hi = center - radius, center + radius
        for a, b in self.halfspaces:
            a = float(np.ravel(a)[0])
            if a > 0.0:
                hi = min(hi, b / a)
            elif a < 0.0:
                lo = max(lo, b / a)
        if self.lower_bounds is not None:
            lo = max(lo, float(np.ravel(self.lower_bounds)[0]))
        return lambda x: np.array([min(max(float(x[0]), lo), hi)])

    def _block_projector(self, n: int) -> Callable[[np.ndarray], np.ndarray]:
        """Projection onto a product of blocks {x >= lo, sum(x) <= b}, one
        per halfspace; variables outside every halfspace are only floored.

        With floors, a block whose budget binds is projected by
        sort-and-threshold on x - lo (Duchi et al., "Efficient projections
        onto the l1-ball", ICML 2008), all blocks in one vectorized pass.
        Without floors a binding block is shifted evenly onto its budget."""
        members, budgets = [], []
        covered = np.zeros(n, dtype=bool)
        for a, b in self.halfspaces:
            a = np.asarray(a, dtype=float)
            support = np.flatnonzero(a)
            if np.any(a[support] != 1.0) or covered[support].any():
                raise ValueError("no exact projection: halfspaces need 0/1 "
                                 "coefficients and disjoint supports")
            if support.size:
                covered[support] = True
                members.append(support)
                budgets.append(float(b))
        floors = self.lower_bounds
        if not members:
            return (lambda x: x) if floors is None else (lambda x: np.maximum(x, floors))

        idx = np.concatenate(members)
        counts = np.array([m.size for m in members])
        starts = np.concatenate(([0], np.cumsum(counts)[:-1]))
        block = np.repeat(np.arange(len(members)), counts)
        budgets = np.array(budgets)

        if floors is None:
            def shift(x: np.ndarray) -> np.ndarray:
                excess = np.add.reduceat(x[idx], starts) - budgets
                if np.all(excess <= 0.0):
                    return x
                out = x.copy()
                out[idx] -= (np.maximum(excess, 0.0) / counts)[block]
                return out
            return shift

        floors = np.asarray(floors, dtype=float)
        lo = floors[idx]
        spare = budgets - np.add.reduceat(lo, starts)
        rank = np.arange(idx.size) - starts[block] + 1.0
        ends = starts + counts - 1

        def threshold(x: np.ndarray) -> np.ndarray:
            out = np.maximum(x, floors)
            y = x[idx] - lo
            binding = np.add.reduceat(np.maximum(y, 0.0), starts) > spare
            if not binding.any():
                return out
            u = y[np.lexsort((-y, block))]  # descending within each block
            run = np.cumsum(u)
            run -= np.concatenate(([0.0], run[ends[:-1]]))[block]
            kept = np.add.reduceat(u * rank > run - spare[block], starts)
            # with no spare budget theta reaches the top entry: the block sits at its floors
            kept = np.maximum(kept, 1)
            theta = (run[starts + kept - 1] - spare) / kept
            inside = binding[block]
            out[idx[inside]] = lo[inside] + np.maximum(y[inside] - theta[block[inside]], 0.0)
            return out
        return threshold

    def linear_violation(self, x: np.ndarray) -> float:
        """Largest residual over ball, halfspaces, and lower bounds."""
        worst = 0.0
        if self.ball is not None:
            center, radius = self.ball
            worst = max(worst, float(np.linalg.norm(x - center)) - radius)
        for a, b in self.halfspaces:
            worst = max(worst, float(np.dot(a, x)) - b)
        if self.lower_bounds is not None:
            worst = max(worst, float(np.max(self.lower_bounds - x)))
        return worst

    def barrier_violation(self, x: np.ndarray) -> float:
        """Largest residual over every row of every barrier term."""
        worst = 0.0
        for term in self.barrier_terms:
            val, _ = term.fn(x)
            worst = max(worst, -(float(np.min(val)) + term.tol))
        return worst


@dataclass
class Diagnostics:
    iterations: int = 0
    grad_norm: float = math.inf
    converged: bool = False
    reason: str = ""


@dataclass
class SolveResult:
    x: np.ndarray
    value: float
    feasible: bool
    diagnostics: Diagnostics


BARRIER_WEIGHTS = (1e-2, 1e-4, 1e-6)
_MAX_STEP = 1e8


def _ascend(objective: Objective, fset: FeasibleSet, x0: np.ndarray,
            max_iters: int, pg_tol: float) -> tuple[np.ndarray, float, Diagnostics]:
    """Spectral projected gradient ascent with a monotone Armijo search
    along the feasible segment toward the projected trial point."""
    x = fset.project(np.asarray(x0, dtype=float))
    val, grad = objective(x)
    diag = Diagnostics()
    if not math.isfinite(val):
        diag.reason = "start outside objective domain"
        return x, val, diag
    step = 1.0
    for it in range(1, max_iters + 1):
        diag.iterations = it
        trial = fset.project(x + step * grad)
        d = trial - x
        # h(t)/min(t,1) upper-bounds the unit-step residual for any t, so
        # stopping on it never stops earlier than the true criterion would
        pg_norm = float(np.linalg.norm(d)) / min(step, 1.0)
        diag.grad_norm = pg_norm
        if pg_norm < pg_tol:
            diag.converged = True
            diag.reason = "projected gradient below tolerance"
            break
        slope = float(np.dot(grad, d))
        lam, accepted = 1.0, False
        cand_val = -math.inf
        while lam > 1e-13:
            cand = x + lam * d
            cand_val, cand_grad = objective(cand)
            if math.isfinite(cand_val) and cand_val >= val + 1e-4 * lam * slope:
                accepted = True
                break
            lam *= 0.5
        if not accepted or cand_val <= val + 1e-14 * (abs(val) + 1.0):
            diag.converged = True
            diag.reason = "line search stalled"
            break
        s = cand - x
        y = grad - cand_grad  # curvature direction for a concave objective
        sy = float(np.dot(s, y))
        step = min(max(float(np.dot(s, s)) / sy, 1e-12), _MAX_STEP) if sy > 1e-300 \
            else min(step * 2.0, _MAX_STEP)
        x, val, grad = cand, cand_val, cand_grad
    else:
        diag.reason = "iteration cap"
    return x, val, diag


def maximize_concave(objective: Objective, fset: FeasibleSet, x0: np.ndarray,
                     max_iters: int = 500, pg_tol: float = 1e-8) -> SolveResult:
    """Maximize a concave objective over the feasible set.

    Nonlinear barrier terms are folded in through a decreasing-weight
    log-barrier, warm-starting each stage.  The reported value is the plain
    objective at the final point."""
    x0 = fset.project(np.asarray(x0, dtype=float))
    if fset.linear_violation(x0) > 1e-9:
        return SolveResult(x0, -math.inf, False,
                           Diagnostics(reason="no feasible start derivable"))

    if not fset.barrier_terms:
        x, val, diag = _ascend(objective, fset, x0, max_iters, pg_tol)
        return SolveResult(x, val, True, diag)

    def barrier_objective(mu: float) -> Objective:
        def f(x: np.ndarray) -> tuple[float, np.ndarray]:
            val, grad = objective(x)
            if not math.isfinite(val):
                return -math.inf, grad
            for term in fset.barrier_terms:
                g_val, g_jac = term.fn(x)
                g_val = np.asarray(g_val)
                if (g_val <= 0.0).any():
                    return -math.inf, grad
                val += mu * float(np.log(g_val).sum())
                grad = grad + np.dot(mu / g_val, g_jac)
            return val, grad
        return f

    x = x0
    diag = Diagnostics()
    for mu in BARRIER_WEIGHTS:
        x, _, diag = _ascend(barrier_objective(mu), fset, x, max_iters, pg_tol)
    val, _ = objective(x)
    if not math.isfinite(val) or fset.barrier_violation(x) > 0.0:
        return SolveResult(x, val, False,
                           Diagnostics(reason="barrier stage left constraints violated"))
    return SolveResult(x, val, True, diag)


def grad_check(objective: Objective, point, step: float = 1e-6) -> float:
    """Max relative deviation between the analytic gradient and central
    finite differences, normalized by the larger gradient norm."""
    if step <= 0:
        raise ValueError("step must be positive")
    x = np.asarray(point, dtype=float)
    _, analytic = objective(x)
    numeric = np.zeros_like(x)
    for i in range(x.size):
        e = np.zeros_like(x)
        e[i] = step
        up, _ = objective(x + e)
        down, _ = objective(x - e)
        numeric[i] = (up - down) / (2.0 * step)
    scale = max(float(np.linalg.norm(analytic)), float(np.linalg.norm(numeric)), 1e-12)
    return float(np.max(np.abs(analytic - numeric)) / scale)
