"""Small projected-gradient engine for concave maximization over the
two feasible regions this package builds, with an optional log-barrier
pass for smooth nonlinear constraints.

The horizontal trajectory stage moves inside a disc; the power stage
moves over budget blocks with per-variable floors.  Each region has a
closed-form projection, so the engine projects exactly.  The trajectory
stage spends its effort on a backtracking line search with a
sufficient-increase test and a three-decade barrier schedule with warm
starts.  The power stage starts the engine at its surrogate's exact
maximiser, so there the engine only certifies that point: its
projected-gradient test passes at the first iteration.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import Callable

import numpy as np

Objective = Callable[[np.ndarray], tuple[float, np.ndarray]]

# residual allowed on every barrier row when the final point is validated:
# barriers stop strictly inside, but a caller may seed exactly on the boundary
_BARRIER_TOL = 1e-9
_PG_TOL = 1e-8


@dataclass
class BarrierTerm:
    """Smooth concave constraints g_i(x) >= 0 entering through a log barrier.

    `fn` returns the values of its m constraint rows and their Jacobian,
    shapes (m,) and (m, d); a scalar value with a gradient of shape (d,)
    is the one-row case.  The barrier adds mu * sum_i log g_i(x)."""

    fn: Callable[[np.ndarray], tuple[np.ndarray, np.ndarray]]


@dataclass
class FeasibleSet:
    """Convex feasible region in one of two shapes, each projected
    exactly:

    - `ball=(center, radius)`: a disc;
    - `blocks=(block, budgets)` with `floors`: variable i belongs to block
      `block[i]` (ids 0 .. B-1, none empty), x >= floors, and each block
      sums to at most its entry of `budgets`.

    Smooth nonlinear constraints ride along as one optional `barrier`
    term, which carries every row and takes no part in projection."""

    ball: tuple[np.ndarray, float] | None = None
    blocks: tuple[np.ndarray, np.ndarray] | None = None
    floors: np.ndarray | None = None
    barrier: BarrierTerm | None = None

    def project(self, x: np.ndarray) -> np.ndarray:
        """Euclidean projection onto the linear part of the set."""
        return self._projector(np.asarray(x, dtype=float))

    @cached_property
    def _projector(self) -> Callable[[np.ndarray], np.ndarray]:
        if self.ball is not None:
            return self._project_ball
        return self._block_projector()

    def _project_ball(self, x: np.ndarray) -> np.ndarray:
        center, radius = self.ball
        d = x - center
        norm = math.sqrt(float(d @ d))
        if norm <= radius:
            return x
        return center + d * (radius / norm)

    def _block_projector(self) -> Callable[[np.ndarray], np.ndarray]:
        """Projection onto the product of blocks {x >= floors, sum(x) <= b}.

        A block whose budget binds is projected by sort-and-threshold on
        x - floors (Duchi et al., "Efficient projections onto the l1-ball",
        ICML 2008), all blocks in one vectorized pass."""
        block, budgets = self.blocks
        floors = np.asarray(self.floors, dtype=float)
        idx = np.argsort(block, kind="stable")  # the members of each block, in turn
        block = np.asarray(block)[idx]
        counts = np.bincount(block)
        starts = np.concatenate(([0], np.cumsum(counts)[:-1]))
        lo = floors[idx]
        spare = np.asarray(budgets, dtype=float) - np.add.reduceat(lo, starts)
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
        """Largest residual of the region's constraints at `x`; 0 inside."""
        if self.ball is not None:
            center, radius = self.ball
            return max(0.0, float(np.linalg.norm(x - center)) - radius)
        block, budgets = self.blocks
        over = np.bincount(block, x, len(budgets)) - budgets
        return max(0.0, float(np.max(over)), float(np.max(self.floors - x)))

    def barrier_violation(self, x: np.ndarray) -> float:
        """Largest residual over the barrier's rows, beyond `_BARRIER_TOL`."""
        if self.barrier is None:
            return 0.0
        val, _ = self.barrier.fn(x)
        return max(0.0, -(float(np.min(val)) + _BARRIER_TOL))


@dataclass
class Diagnostics:
    iterations: int = 0
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
            max_iters: int) -> tuple[np.ndarray, float, Diagnostics]:
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
        pg_norm = math.sqrt(float(d @ d)) / min(step, 1.0)
        if pg_norm < _PG_TOL:
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
                     max_iters: int = 500) -> SolveResult:
    """Maximize a concave objective over the feasible set.

    The barrier term, if any, is folded in through a decreasing-weight
    log-barrier, warm-starting each stage.  The reported value is the plain
    objective at the final point."""
    x0 = fset.project(np.asarray(x0, dtype=float))
    if fset.linear_violation(x0) > 1e-9:
        return SolveResult(x0, -math.inf, False,
                           Diagnostics(reason="no feasible start derivable"))

    barrier = fset.barrier
    if barrier is None:
        x, val, diag = _ascend(objective, fset, x0, max_iters)
        return SolveResult(x, val, True, diag)

    def barrier_objective(mu: float) -> Objective:
        def f(x: np.ndarray) -> tuple[float, np.ndarray]:
            val, grad = objective(x)
            if not math.isfinite(val):
                return -math.inf, grad
            g_val, g_jac = barrier.fn(x)
            g_val = np.asarray(g_val)
            if (g_val <= 0.0).any():
                return -math.inf, grad
            return val + mu * float(np.log(g_val).sum()), grad + np.dot(mu / g_val, g_jac)
        return f

    x = x0
    diag = Diagnostics()
    for mu in BARRIER_WEIGHTS:
        x, _, diag = _ascend(barrier_objective(mu), fset, x, max_iters)
    val, _ = objective(x)
    if not math.isfinite(val) or fset.barrier_violation(x) > 0.0:
        return SolveResult(x, val, False,
                           Diagnostics(reason="barrier stage left constraints violated"))
    return SolveResult(x, val, True, diag)

