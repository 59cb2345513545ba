import math

import numpy as np
import pytest
from gradcheck import grad_check
from hypothesis import given, settings
from hypothesis import strategies as st

from uavrelay import convex_core
from uavrelay.convex_core import BarrierTerm, FeasibleSet, maximize_concave


def quadratic_around(target, scale=1.0):
    target = np.asarray(target, dtype=float)

    def f(x):
        d = x - target
        return -scale * float(np.dot(d, d)), -2.0 * scale * d

    return f


def capped_simplex_projection(y, budget):
    """Independent oracle: project onto {x >= 0, sum(x) <= budget} by
    bisection on the shift multiplier."""
    y = np.asarray(y, dtype=float)
    if np.sum(np.maximum(y, 0.0)) <= budget:
        return np.maximum(y, 0.0)
    lo, hi = 0.0, float(np.max(y))
    for _ in range(200):
        lam = 0.5 * (lo + hi)
        if np.sum(np.maximum(y - lam, 0.0)) > budget:
            lo = lam
        else:
            hi = lam
    return np.maximum(y - 0.5 * (lo + hi), 0.0)


class TestProjection:
    def test_ball_projection(self):
        fs = FeasibleSet(ball=(np.zeros(2), 1.0))
        assert fs.project(np.array([3.0, 4.0])) == pytest.approx([0.6, 0.8])
        inside = np.array([0.1, -0.2])
        assert fs.project(inside) == pytest.approx(inside)

    def test_halfspace_projection(self):
        # one block with zero floors: the halfspace x1 + x2 <= 1 over x >= 0
        fs = FeasibleSet(blocks=(np.array([0, 0]), np.array([1.0])), floors=np.zeros(2))
        assert fs.project(np.array([1.0, 1.0])) == pytest.approx([0.5, 0.5])

    def test_idempotent(self):
        # one set per shape: a disc, an interval, and budget blocks with floors
        lo = np.array([0.1, 0.0, 0.2, 0.05, -1.0])
        shapes = {
            "ball": FeasibleSet(ball=(np.array([1.0, 0.0]), 2.0)),
            "interval": FeasibleSet(interval=(1.8, 4.0)),
            "blocks": FeasibleSet(blocks=(np.array([0, 1, 0, 1, 2]), np.array([1.0, 0.5, 0.0])),
                                  floors=lo),
        }
        rng = np.random.default_rng(3)
        for name, fs in shapes.items():
            dim = 1 if name == "interval" else 2 if name == "ball" else lo.size
            for _ in range(20):
                p = fs.project(rng.normal(0, 3, dim))
                assert fs.project(p) == pytest.approx(p, abs=1e-12), name
                assert fs.linear_violation(p) <= 1e-9, name

    @given(st.data())
    @settings(max_examples=80, deadline=None)
    def test_budget_blocks_match_bisection_oracle(self, data):
        """Random partitions of up to 9 variables into budget blocks, with
        floors, checked block by block."""
        n = data.draw(st.integers(2, 9))
        drawn = data.draw(st.lists(st.integers(0, 3), min_size=n, max_size=n))
        y = np.array(data.draw(st.lists(st.floats(-3.0, 3.0), min_size=n, max_size=n)))
        lo = np.array(data.draw(st.lists(st.floats(0.0, 0.5), min_size=n, max_size=n)))
        _, block_of = np.unique(drawn, return_inverse=True)  # ids 0 .. B-1
        budgets, expected = [], np.empty(n)
        for b in range(block_of.max() + 1):
            members = block_of == b
            budget = lo[members].sum() + data.draw(st.floats(0.0, 4.0))
            budgets.append(budget)
            expected[members] = lo[members] + capped_simplex_projection(
                y[members] - lo[members], budget - lo[members].sum())
        fs = FeasibleSet(blocks=(block_of, np.array(budgets)), floors=lo)
        assert fs.project(y) == pytest.approx(expected, abs=1e-9)

    def test_floors_over_budget_leave_the_set_empty(self):
        fs = FeasibleSet(blocks=(np.array([0, 0, 1]), np.array([0.5, 1.0])),
                         floors=np.array([0.3, 0.4, 0.0]))
        assert fs.linear_violation(fs.project(np.array([1.0, 1.0, 0.5]))) > 1e-9
        res = maximize_concave(quadratic_around([0.0, 0.0, 0.0]), fs,
                               np.array([0.3, 0.4, 0.0]))
        assert not res.feasible
        assert res.diagnostics.reason == "no feasible start derivable"

    def test_interval_clips_to_the_tightest_bounds(self):
        # the altitude stage intersects its bounds into [lo, hi] itself
        # (test_trajectory::test_altitude_interval_matches_the_row_loop)
        fs = FeasibleSet(interval=(1.8, 4.0))
        assert fs.project(np.array([9.0])) == pytest.approx([4.0])
        assert fs.project(np.array([-9.0])) == pytest.approx([1.8])
        assert fs.project(np.array([2.5])) == pytest.approx([2.5])
        assert fs.linear_violation(np.array([1.5])) == pytest.approx(0.3)
        # an empty interval clips to its upper end and reports the gap
        empty = FeasibleSet(interval=(3.0, 2.0))
        assert empty.project(np.array([2.5])) == pytest.approx([2.0])
        assert empty.linear_violation(empty.project(np.array([2.5]))) == pytest.approx(1.0)


class TestMaximizeConcave:
    def test_scalar_quadratic_over_interval(self):
        fs = FeasibleSet(interval=(0.0, 3.0))
        res = maximize_concave(quadratic_around([1.0]), fs, np.array([2.5]))
        assert res.feasible
        assert res.x == pytest.approx([1.0], abs=1e-7)

    def test_quadratic_over_offset_ball(self):
        # maximize -‖x‖² over ball((2,0),1): optimum at the near boundary point
        fs = FeasibleSet(ball=(np.array([2.0, 0.0]), 1.0))
        res = maximize_concave(quadratic_around([0.0, 0.0]), fs, np.array([2.0, 0.5]))
        assert res.x == pytest.approx([1.0, 0.0], abs=1e-6)
        assert res.value == pytest.approx(-1.0, abs=1e-6)

    def test_linear_over_ball_hits_support_point(self):
        c = np.array([3.0, 4.0])

        def f(x):
            return float(np.dot(c, x)), c.copy()

        fs = FeasibleSet(ball=(np.array([1.0, 1.0]), 2.0))
        res = maximize_concave(f, fs, np.array([1.0, 1.0]))
        assert res.x == pytest.approx([1.0 + 2 * 0.6, 1.0 + 2 * 0.8], abs=1e-6)

    def test_interior_optimum_small_gradient(self):
        fs = FeasibleSet(ball=(np.zeros(2), 10.0))
        res = maximize_concave(quadratic_around([0.3, -0.7]), fs, np.array([5.0, 5.0]))
        assert res.x == pytest.approx([0.3, -0.7], abs=1e-7)
        assert res.diagnostics.converged

    def test_infeasible_start_unrecoverable(self):
        # x <= -1 and x >= 1: an empty interval
        fs = FeasibleSet(interval=(1.0, -1.0))
        assert fs.linear_violation(fs.project(np.array([0.0]))) > 1e-9
        res = maximize_concave(quadratic_around([0.0]), fs, np.array([0.0]))
        assert not res.feasible
        assert "feasible" in res.diagnostics.reason

    def test_objective_trace_monotone(self):
        values = []
        target = np.array([2.0, 2.0])

        def tracked(x):
            d = x - target
            v = -float(np.dot(d, d))
            values.append(v)
            return v, -2.0 * d

        fs = FeasibleSet(ball=(np.zeros(2), 1.0))
        maximize_concave(tracked, fs, np.array([-0.5, -0.5]))
        accepted = [values[0]]
        for v in values[1:]:
            if v >= accepted[-1]:
                accepted.append(v)
        # the best-so-far sequence must reach the final solve value
        assert accepted[-1] == pytest.approx(max(values), abs=1e-12)

    def test_barrier_respects_nonlinear_constraint(self):
        # maximize x + y subject to x² + y² <= 1 written as a barrier term
        def ring(x):
            return 1.0 - float(np.dot(x, x)), -2.0 * x

        fs = FeasibleSet(ball=(np.zeros(2), 5.0), barrier=BarrierTerm(ring))

        def f(x):
            return float(x.sum()), np.ones(2)

        res = maximize_concave(f, fs, np.array([0.0, 0.0]))
        assert res.feasible
        root_half = math.sqrt(0.5)
        assert res.x == pytest.approx([root_half, root_half], abs=1e-3)
        assert float(np.dot(res.x, res.x)) <= 1.0 + 1e-9

    def test_barrier_start_on_boundary_fails_cleanly(self):
        def g(x):
            return -1.0, np.zeros(1)  # always violated

        fs = FeasibleSet(interval=(0.0, math.inf), barrier=BarrierTerm(g))
        res = maximize_concave(quadratic_around([1.0]), fs, np.array([0.5]))
        assert not res.feasible


def three_rows(x):
    """Three concave constraints on the plane: a disc, a halfplane and a
    parabola, as values (3,) and Jacobian (3, 2)."""
    values = np.array([1.0 - float(np.dot(x, x)), 0.6 - x[0] + 0.2 * x[1],
                       0.8 - x[1] - x[0] ** 2])
    jac = np.array([-2.0 * x, [-1.0, 0.2], [-2.0 * x[0], -1.0]])
    return values, jac


def scalar_barrier_objective(objective, rows, mu):
    """The barrier objective written out as the plain objective plus one
    scalar log-barrier per constraint row."""
    def f(x):
        val, grad = objective(x)
        values, jac = rows(x)
        for g, dg in zip(values, jac):
            if g <= 0.0:
                return -math.inf, grad
            val += mu * math.log(g)
            grad = grad + (mu / g) * dg
        return val, grad
    return f


class TestVectorBarrier:
    def barrier_objectives(self, fset, monkeypatch):
        """The barrier objectives maximize_concave hands to the inner
        ascent, one per barrier weight."""
        seen = []
        original = convex_core._ascend

        def spy(objective, *args, **kwargs):
            seen.append(objective)
            return original(objective, *args, **kwargs)

        monkeypatch.setattr(convex_core, "_ascend", spy)
        res = maximize_concave(quadratic_around([1.0, 1.0]), fset, np.zeros(2))
        monkeypatch.undo()
        return res, seen

    def test_rows_equal_scalar_terms(self, monkeypatch):
        fset = FeasibleSet(ball=(np.zeros(2), 2.0), barrier=BarrierTerm(three_rows))
        res, seen = self.barrier_objectives(fset, monkeypatch)
        objective = quadratic_around([1.0, 1.0])
        written = [scalar_barrier_objective(objective, three_rows, mu)
                   for mu in convex_core.BARRIER_WEIGHTS]
        assert len(seen) == len(written) == 3
        pts = np.random.default_rng(2).uniform(-0.5, 0.5, (50, 2))
        for fv, fs in zip(seen, written):
            for p in pts:
                (val_v, grad_v), (val_s, grad_s) = fv(p), fs(p)
                assert val_v == pytest.approx(val_s, rel=1e-13, abs=1e-15)
                assert np.allclose(grad_v, grad_s, rtol=1e-13, atol=1e-15)
        # the same weight schedule, warm-started, on the written-out sums
        x = np.zeros(2)
        for f in written:
            x, _, diag = convex_core._ascend(f, fset, x, 500)
        assert res.feasible and diag.reason == res.diagnostics.reason
        # both stop on a stalled line search near the same barrier optimum;
        # summation order alone moves the stopping point
        assert np.allclose(res.x, x, rtol=0.0, atol=1e-4)
        assert res.value == pytest.approx(objective(x)[0], rel=1e-8)
        assert np.all(three_rows(res.x)[0] > 0.0)

    def test_violation_reads_the_worst_row(self):
        def rows(x):
            return np.array([0.5, -0.3, -0.1]), np.zeros((3, 1))

        fs = FeasibleSet(barrier=BarrierTerm(rows))
        assert fs.barrier_violation(np.zeros(1)) == pytest.approx(0.3 - 1e-9, rel=1e-15)
        fine = FeasibleSet(barrier=BarrierTerm(three_rows))
        assert fine.barrier_violation(np.zeros(2)) == 0.0
        # a row on the boundary passes within the validation tolerance
        edge = FeasibleSet(barrier=BarrierTerm(lambda x: (np.array([0.5, -5e-10]),
                                                          np.zeros((2, 1)))))
        assert edge.barrier_violation(np.zeros(1)) == 0.0

    @pytest.mark.parametrize("bad", [0, 1, 2])
    def test_violated_row_fails_cleanly(self, bad):
        def rows(x):
            values, jac = three_rows(x)
            values[bad] = -1.0  # always violated
            jac[bad] = 0.0
            return values, jac

        fs = FeasibleSet(ball=(np.zeros(2), 2.0), barrier=BarrierTerm(rows))
        res = maximize_concave(quadratic_around([1.0, 1.0]), fs, np.zeros(2))
        assert not res.feasible
        assert np.all(np.isfinite(res.x))
        assert "violated" in res.diagnostics.reason


class TestGradCheck:
    def test_exact_quadratic(self):
        assert grad_check(quadratic_around([1.0, -2.0, 0.3]), [0.2, 0.4, 1.0]) < 1e-8

    def test_corrupted_gradient_flagged(self):
        def bad(x):
            d = x - 1.0
            return -float(np.dot(d, d)), -2.0 * d * 1.05

        assert grad_check(bad, [0.3, 0.8]) > 1e-2

    def test_rejects_bad_step(self):
        with pytest.raises(ValueError):
            grad_check(quadratic_around([0.0]), [1.0], step=0.0)
