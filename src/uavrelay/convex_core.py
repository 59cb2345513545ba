"""Small ascent engine for concave maximization over the two feasible
regions this package builds.

The horizontal trajectory stage moves inside a disc; the power stage
moves over budget blocks with per-variable floors.  Every iteration
maximizes a quadratic model of the objective over the region, then
searches the segment toward that trial point with a sufficient-increase
test.  The model's curvature decides the trial point:

- an objective that returns its Hessian gets Newton's model.  On the
  disc its maximizer is an exact trust-region step (Moré & Sorensen,
  "Computing a trust region step", SIAM J. Sci. Stat. Comput. 1983),
  solved on scalars in the closed-form eigenbasis of the 2x2 Hessian
  (`_eigh2`), so the disc needs no barrier row, and the ascent stops
  when the model promises less than `_DECREMENT_TOL` (the Newton
  decrement; Boyd & Vandenberghe, *Convex Optimization*, §9.5).  The
  trajectory stage takes this path;
- an objective without one gets the scalar curvature -1/alpha, alpha a
  Barzilai–Borwein step, whose model maximizer is the projected
  gradient step `project(x + alpha grad)` (spectral projected
  gradient).  Each region has a closed-form projection.  The power
  stage takes this path and starts the engine at its surrogate's exact
  maximiser, so there the engine only certifies that point: its
  projected-gradient test passes at the first iteration.

An objective may return -inf outside its domain, as the trajectory's
surrogate does where a hop's surrogate signal, the argument of its log,
is not positive; the search never accepts such a point.  The start must
lie inside the domain.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import Callable

import numpy as np

# x -> (value, gradient), or (value, gradient, Hessian) where the set is a
# disc; the value is -inf outside the objective's domain
Objective = Callable[[np.ndarray], tuple]

_PG_TOL = 1e-8
_DECREMENT_TOL = 1e-12  # absolute increase a Newton model must promise to go on
_TR_ITERS = 50          # cap on the secular-equation iterations of one step
_TR_RTOL = 1e-12        # relative radius error at which a boundary step is kept


@dataclass
class FeasibleSet:
    """Convex feasible region in one of two shapes, each projected
    exactly:

    - `ball=(center, radius)`: a disc;
    - `blocks=(block, budgets)` with `floors`: variable i belongs to block
      `block[i]` (ids 0 .. B-1, none empty), x >= floors, and each block
      sums to at most its entry of `budgets`."""

    ball: tuple[np.ndarray, float] | None = None
    blocks: tuple[np.ndarray, np.ndarray] | None = None
    floors: np.ndarray | None = None

    def project(self, x: np.ndarray) -> np.ndarray:
        """Euclidean projection onto the set."""
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

    @cached_property
    def _block_layout(self) -> tuple[list[float], list[tuple]]:
        """The floors, and each block's members, their floors, its spare
        budget and its budget, on Python floats: gathered once per set,
        for the projection and `linear_violation`."""
        block, budgets = self.blocks
        budgets = np.asarray(budgets, dtype=float)
        spare = budgets - np.bincount(block, self.floors, budgets.size)
        floors = np.asarray(self.floors, dtype=float).tolist()
        members: list[list[int]] = [[] for _ in range(budgets.size)]
        for i, b in enumerate(np.asarray(block).tolist()):
            members[b].append(i)
        return floors, [(mine, [floors[i] for i in mine], room, budget)
                        for mine, room, budget in zip(members, spare.tolist(), budgets.tolist())]

    def _block_projector(self) -> Callable[[np.ndarray], np.ndarray]:
        """Projection onto the product of blocks {x >= floors, sum(x) <= b}.

        A block whose budget binds is projected by sort-and-threshold on
        x - floors (Duchi et al., "Efficient projections onto the l1-ball",
        ICML 2008), one block at a time on Python floats: the power
        stage's blocks hold a few variables each, where numpy's per-call
        overhead costs more than the arithmetic.  Each block's members,
        floors and spare budget are gathered once per set.  A binding
        block of one variable lands on its budget exactly, so points past
        the same budget project to the same point."""
        floors, layout = self._block_layout

        def threshold(x: np.ndarray) -> np.ndarray:
            xs = x.tolist()
            out = [max(v, f) for v, f in zip(xs, floors)]
            for mine, lo, room, budget in layout:
                y = [xs[i] - f for i, f in zip(mine, lo)]
                above = 0.0
                for v in y:
                    if v > 0.0:
                        above += v
                if not above > room:
                    continue
                if len(mine) == 1:
                    out[mine[0]] = max(budget, lo[0])
                    continue
                run, runs, kept = 0.0, [], 0
                for k, v in enumerate(sorted(y, reverse=True), 1):
                    run += v
                    runs.append(run)
                    kept += v * k > run - room
                # with no spare budget theta reaches the top entry: the block sits at its floors
                kept = max(kept, 1)
                theta = (runs[kept - 1] - room) / kept
                for i, f, v in zip(mine, lo, y):
                    out[i] = f + max(v - theta, 0.0)
            return np.array(out)
        return threshold

    def linear_violation(self, x: np.ndarray) -> float:
        """Largest residual of the region's constraints at `x`; 0 inside,
        and on an empty set of blocks.  Blocks are summed in member order
        on Python floats (`_block_layout`)."""
        if self.ball is not None:
            center, radius = self.ball
            return max(0.0, float(np.linalg.norm(x - center)) - radius)
        xs, worst = np.asarray(x, dtype=float).tolist(), 0.0
        for mine, lo, _, budget in self._block_layout[1]:
            total = 0.0
            for i, f in zip(mine, lo):
                total += xs[i]
                worst = max(worst, f - xs[i])
            worst = max(worst, total - budget)
        return worst


@dataclass
class Diagnostics:
    iterations: int = 0
    reason: str = ""


@dataclass
class SolveResult:
    x: np.ndarray
    feasible: bool
    diagnostics: Diagnostics


_MAX_STEP = 1e8


def _eigh2(p: float, r: float, t: float) -> tuple[float, float, float, float]:
    """Eigensystem of the symmetric 2x2 matrix [[p, r], [r, t]] in closed
    form: its eigenvalues lo <= hi, and the unit eigenvector (u, v) of lo;
    (-v, u) is hi's.

    The eigenvector of lo solves the row of m - lo I whose diagonal entry
    is the larger in size, -(|p - t| / 2 + rad), so no entry of it
    cancels: (r, lo - p) when p > t, else (lo - t, r)."""
    mean = 0.5 * (p + t)
    rad = math.hypot(0.5 * (p - t), r)
    lo = mean - rad
    u, v = (r, lo - p) if p > t else (lo - t, r)
    norm = math.hypot(u, v)
    if norm == 0.0:  # a multiple of the identity: every vector is an eigenvector
        return lo, lo, 1.0, 0.0
    return lo, mean + rad, u / norm, v / norm


def _trust_region_point(center: np.ndarray, radius: float, x: np.ndarray,
                        grad: np.ndarray, hess: np.ndarray) -> tuple[np.ndarray, float]:
    """Maximizer z of the model grad.(z - x) + (z - x).hess.(z - x) / 2
    over the disc |z - center| <= radius, and its multiplier lam >= 0.

    With A = -hess and y = z - center, the point solves (A + lam I) y =
    grad + A (x - center), with lam = 0 when that Newton point lies in
    the disc.  Otherwise lam is the root of 1/|y(lam)| = 1/radius, which
    is concave and increasing in lam over A's eigenbasis (`_eigh2`), so
    Newton's method approaches it monotonically from below (Moré &
    Sorensen 1983), from the lower bound max_i |b_i| / radius - a_i.
    Curvature that rounding makes positive is dropped, so the model
    stays concave.  Everything is done on scalars in that eigenbasis."""
    if radius <= 0.0:
        return center.copy(), 0.0
    a1, a2, u, v = _eigh2(-float(hess[0, 0]), -float(hess[0, 1]), -float(hess[1, 1]))
    a1, a2 = max(a1, 0.0), max(a2, 0.0)
    g0, g1 = float(grad[0]), float(grad[1])
    d0, d1 = float(x[0] - center[0]), float(x[1] - center[1])
    # grad + A (x - center) in the basis q1 = (u, v), q2 = (-v, u)
    b1 = u * g0 + v * g1 + a1 * (u * d0 + v * d1)
    b2 = u * g1 - v * g0 + a2 * (u * d1 - v * d0)
    lam = max(0.0, abs(b1) / radius - a1, abs(b2) / radius - a2)
    for _ in range(_TR_ITERS):
        den1, den2 = a1 + lam, a2 + lam
        # a flat direction with no pull stays at the centre's coordinate
        y1 = b1 / den1 if den1 > 0.0 else 0.0
        y2 = b2 / den2 if den2 > 0.0 else 0.0
        norm = math.hypot(y1, y2)
        if norm <= radius * (1.0 + _TR_RTOL):
            break
        # -y . dy/dlam, as dy/dlam = -y / den
        slope = (y1 * y1 / den1 if den1 > 0.0 else 0.0) \
            + (y2 * y2 / den2 if den2 > 0.0 else 0.0)
        lam += (norm - radius) / radius * norm * norm / slope
    if lam > 0.0:
        y1, y2 = y1 * (radius / norm), y2 * (radius / norm)
    return center + np.array((u * y1 - v * y2, v * y1 + u * y2)), lam


def _ascend(objective: Objective, fset: FeasibleSet, x: np.ndarray,
            max_iters: int) -> tuple[np.ndarray, float, Diagnostics]:
    """Monotone ascent: each iteration moves toward the maximizer over
    the set of a quadratic model of the objective, with an Armijo search
    along that segment.  The model is Newton's where the objective
    returns a Hessian (`_trust_region_point`), else the projected
    gradient step of a Barzilai–Borwein length.  The start `x` lies in
    the set, as `maximize_concave` projects it, and in the objective's
    domain."""
    val, grad, *hess = objective(x)
    diag = Diagnostics()
    step = 1.0
    for it in range(1, max_iters + 1):
        diag.iterations = it
        if hess:
            d = _trust_region_point(*fset.ball, x, grad, hess[0])[0] - x
            slope = float(np.dot(grad, d))
            if slope + 0.5 * float(d @ hess[0] @ d) < _DECREMENT_TOL:
                diag.reason = "Newton decrement below tolerance"
                break
        else:
            d = fset.project(x + step * grad) - x
            # h(t)/min(t,1) upper-bounds the unit-step residual for any t, so
            # stopping on it never stops earlier than the true criterion would
            if math.sqrt(float(d @ d)) / min(step, 1.0) < _PG_TOL:
                diag.reason = "projected gradient below tolerance"
                break
            slope = float(np.dot(grad, d))
        lam, accepted = 1.0, False
        cand_val = -math.inf
        while lam > 1e-13:
            cand = x + lam * d
            cand_val, cand_grad, *cand_hess = objective(cand)
            if math.isfinite(cand_val) and cand_val >= val + 1e-4 * lam * slope:
                accepted = True
                break
            lam *= 0.5
        if not accepted or cand_val <= val + 1e-14 * (abs(val) + 1.0):
            diag.reason = "line search stalled"
            break
        if not hess:
            s = cand - x
            y = grad - cand_grad  # curvature direction for a concave objective
            sy = float(np.dot(s, y))
            step = min(max(float(np.dot(s, s)) / sy, 1e-12), _MAX_STEP) if sy > 1e-300 \
                else min(step * 2.0, _MAX_STEP)
        x, val, grad, hess = cand, cand_val, cand_grad, cand_hess
    else:
        diag.reason = "iteration cap"
    return x, val, diag


def maximize_concave(objective: Objective, fset: FeasibleSet, x0: np.ndarray,
                     max_iters: int = 500) -> SolveResult:
    """Maximize a concave objective over the feasible set from `x0`,
    projected onto the set, where the objective must be finite.  The
    result is infeasible when no start lies in the set, or when the final
    value is not finite."""
    x0 = fset.project(np.asarray(x0, dtype=float))
    if fset.linear_violation(x0) > 1e-9:
        return SolveResult(x0, False, Diagnostics(reason="no feasible start derivable"))
    x, val, diag = _ascend(objective, fset, x0, max_iters)
    return SolveResult(x, math.isfinite(val), diag)
