import math

import numpy as np
import pytest
from gradcheck import grad_check, hess_check
from hypothesis import given, settings
from hypothesis import strategies as st

from uavrelay import convex_core
from uavrelay.convex_core import FeasibleSet, maximize_concave

MU = 1e-6  # the weight of the log barriers that the objectives below carry


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


def reference_block_projector(fs):
    """The block projection with every block in one vectorized pass:
    sort-and-threshold on x - floors, each block's running sums read off
    one cumulative sum over all blocks."""
    block, budgets = fs.blocks
    floors = np.asarray(fs.floors, dtype=float)
    idx = np.argsort(block, kind="stable")  # the members of each block, in turn
    block = np.asarray(block)[idx]
    counts = np.bincount(block)
    starts = np.concatenate(([0], np.cumsum(counts)[:-1]))
    lo = floors[idx]
    spare = np.asarray(budgets, dtype=float) - np.add.reduceat(lo, starts)
    rank = np.arange(idx.size) - starts[block] + 1.0
    ends = starts + counts - 1

    def threshold(x):
        out = np.maximum(x, floors)
        y = x[idx] - lo
        binding = np.add.reduceat(np.maximum(y, 0.0), starts) > spare
        if not binding.any():
            return out
        u = y[np.lexsort((-y, block))]  # descending within each block
        run = np.cumsum(u)
        run -= np.concatenate(([0.0], run[ends[:-1]]))[block]
        kept = np.maximum(np.add.reduceat(u * rank > run - spare[block], starts), 1)
        theta = (run[starts + kept - 1] - spare) / kept
        inside = binding[block]
        out[idx[inside]] = lo[inside] + np.maximum(y[inside] - theta[block[inside]], 0.0)
        return out
    return threshold


def assert_projects_as_reference(fs, x):
    """`fs.project(x)` against `reference_block_projector`, to within
    4 n eps times the sum of |x - floors|, |floors| and the budgets: the
    reference's running sum of a block is a difference of two prefixes of
    a sum over all blocks, so its rounding grows with everything summed
    before the block, and the float form sums each block on its own."""
    got, want = fs.project(x), reference_block_projector(fs)(x)
    scale = np.abs(x - fs.floors).sum() + np.abs(fs.floors).sum() + np.abs(fs.blocks[1]).sum()
    assert np.all(np.abs(got - want) <= 4 * x.size * np.finfo(float).eps * scale)


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
        # one set per shape: a disc, a segment (the 1-D ball [1.8, 4.0]),
        # and budget blocks with floors
        lo = np.array([0.1, 0.0, 0.2, 0.05, -1.0])
        shapes = {
            "ball": FeasibleSet(ball=(np.array([1.0, 0.0]), 2.0)),
            "segment": FeasibleSet(ball=(np.array([2.9]), 1.1)),
            "blocks": FeasibleSet(blocks=(np.array([0, 1, 0, 1, 2]), np.array([1.0, 0.5, 0.0])),
                                  floors=lo),
        }
        rng = np.random.default_rng(3)
        for name, fs in shapes.items():
            dim = lo.size if fs.ball is None else fs.ball[0].size
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
        assert_projects_as_reference(fs, y)

    def test_a_binding_single_member_block_lands_on_its_budget(self):
        # exactly, so that two points past the budget project alike
        budgets = np.array([0.3, 1.0 / 3.0, 0.7])
        fs = FeasibleSet(blocks=(np.array([0, 1, 2, 2]), budgets),
                         floors=np.array([0.1, 0.2, 0.1, 0.1]))
        for scale in (1.0, 2.0, 64.0):
            p = fs.project(scale * np.array([0.5, 0.5, 0.4, 0.4]))
            assert p[:2].tolist() == budgets[:2].tolist()
            assert p[2:].sum() == pytest.approx(0.7, rel=1e-15)

    def test_floors_over_budget_leave_the_set_empty(self):
        fs = FeasibleSet(blocks=(np.array([0, 0, 1]), np.array([0.5, 1.0])),
                         floors=np.array([0.3, 0.4, 0.0]))
        assert fs.linear_violation(fs.project(np.array([1.0, 1.0, 0.5]))) > 1e-9
        res = maximize_concave(quadratic_around([0.0, 0.0, 0.0]), fs,
                               np.array([0.3, 0.4, 0.0]))
        assert not res.feasible
        assert res.diagnostics.reason == "no feasible start derivable"


class TestMaximizeConcave:
    def test_scalar_quadratic_over_interval(self):
        # [0, 3] as a 1-D ball
        fs = FeasibleSet(ball=(np.array([1.5]), 1.5))
        res = maximize_concave(quadratic_around([1.0]), fs, np.array([2.5]))
        assert res.feasible
        assert res.x == pytest.approx([1.0], abs=1e-7)

    def test_quadratic_over_offset_ball(self):
        # maximize -‖x‖² over ball((2,0),1): optimum at the near boundary point
        fs = FeasibleSet(ball=(np.array([2.0, 0.0]), 1.0))
        objective = quadratic_around([0.0, 0.0])
        res = maximize_concave(objective, fs, np.array([2.0, 0.5]))
        assert res.x == pytest.approx([1.0, 0.0], abs=1e-6)
        assert objective(res.x)[0] == pytest.approx(-1.0, abs=1e-6)

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
        assert res.diagnostics.reason == "projected gradient below tolerance"

    def test_infeasible_start_unrecoverable(self):
        # x >= 1 and x <= -1: one block whose floor exceeds its budget
        fs = FeasibleSet(blocks=(np.array([0]), np.array([-1.0])), floors=np.array([1.0]))
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
        # maximize x + y subject to x² + y² <= 1, which the objective
        # carries as its own log barrier, -inf outside
        def f(x):
            room = 1.0 - float(np.dot(x, x))
            if room <= 0.0:
                return -math.inf, np.zeros(2)
            return float(x.sum()) + MU * math.log(room), np.ones(2) - (2.0 * MU / room) * x

        fs = FeasibleSet(ball=(np.zeros(2), 5.0))
        res = maximize_concave(f, fs, np.array([0.0, 0.0]))
        assert res.feasible
        root_half = math.sqrt(0.5)
        assert res.x == pytest.approx([root_half, root_half], abs=1e-3)
        assert float(np.dot(res.x, res.x)) <= 1.0 + 1e-9


def three_rows(x):
    """Three concave constraints on the plane: a disc, a halfplane and a
    parabola, as values (3,), Jacobian (3, 2) and Hessians (3, 2, 2)."""
    values = np.array([1.0 - float(np.dot(x, x)), 0.6 - x[0] + 0.2 * x[1],
                       0.8 - x[1] - x[0] ** 2])
    jac = np.array([-2.0 * x, [-1.0, 0.2], [-2.0 * x[0], -1.0]])
    hess = np.array([-2.0 * np.eye(2), np.zeros((2, 2)), [[-2.0, 0.0], [0.0, 0.0]]])
    return values, jac, hess


def newton_quadratic_around(target):
    """`quadratic_around` with its Hessian, which makes the ascent take
    Newton steps."""
    f = quadratic_around(target)
    return lambda x: (*f(x), -2.0 * np.eye(len(target)))


def scalar_barrier_objective(objective, rows, mu):
    """The barrier objective written out as the plain objective plus one
    scalar log-barrier per constraint row."""
    def f(x):
        val, grad, hess = objective(x)
        for g, dg, h in zip(*rows(x)):
            if g <= 0.0:
                return -math.inf, grad, hess
            val += mu * math.log(g)
            grad = grad + (mu / g) * dg
            hess = hess + (mu / g) * h - (mu / g ** 2) * np.outer(dg, dg)
        return val, grad, hess
    return f


class TestVectorBarrier:
    """Objectives that carry constraint rows as their own log barrier,
    -inf where a row is not positive."""

    def test_newton_ascent_keeps_every_row_positive(self):
        objective = scalar_barrier_objective(newton_quadratic_around([1.0, 1.0]),
                                             three_rows, MU)
        res = maximize_concave(objective, FeasibleSet(ball=(np.zeros(2), 2.0)), np.zeros(2))
        assert res.feasible
        assert res.diagnostics.reason == "Newton decrement below tolerance"
        assert np.all(three_rows(res.x)[0] > 0.0)
        # the unconstrained maximizer (1, 1) lies beyond the parabola row,
        # so the answer presses on that row, short of it by about MU
        assert 0.0 < three_rows(res.x)[0][2] <= 1e-5


def concave_model(seed, dim=2):
    """A random concave quadratic model: gradient and negative definite
    Hessian."""
    rng = np.random.default_rng(seed)
    root = rng.normal(size=(dim, dim))
    return rng.normal(size=dim), -(root @ root.T + 0.1 * np.eye(dim))


class TestTrustRegion:
    """The Newton trial point on a ball, held to the KKT conditions of
    max g.(z - x) + (z - x).H.(z - x) / 2 over |z - c| <= r: stationarity
    g + H (z - x) = lam (z - c), lam >= 0, |z - c| <= r and complementarity
    lam (r - |z - c|) = 0; on a concave model they certify the maximum."""

    def assert_kkt(self, center, radius, x, grad, hess, z, lam):
        y = z - center
        norm = float(np.linalg.norm(y))
        scale = float(np.linalg.norm(grad)) + float(np.linalg.norm(hess)) * radius
        assert lam >= 0.0
        assert norm <= radius * (1.0 + 1e-12)
        assert lam * (radius - norm) <= 1e-9 * scale * radius
        assert np.linalg.norm(grad + hess @ (z - x) - lam * y) <= 1e-9 * scale

        def model(p):
            return float(grad @ (p - x) + 0.5 * (p - x) @ hess @ (p - x))

        # and no point of the ball does better
        for p in ball_samples(center, radius, 200):
            assert model(p) <= model(z) + 1e-12 * scale * radius

    @pytest.mark.parametrize("seed", range(4))
    def test_newton_point_inside_the_disc(self, seed):
        grad, hess = concave_model(seed)
        center, x = np.array([1.0, -2.0]), np.array([1.5, -1.5])
        newton = x - np.linalg.solve(hess, grad)
        radius = 2.0 * float(np.linalg.norm(newton - center)) + 1.0
        z, lam = convex_core._trust_region_point(center, radius, x, grad, hess)
        assert lam == 0.0
        assert z == pytest.approx(newton, rel=1e-12, abs=1e-12)
        self.assert_kkt(center, radius, x, grad, hess, z, lam)

    @pytest.mark.parametrize("seed", range(4))
    def test_newton_point_outside_the_disc(self, seed):
        grad, hess = concave_model(seed)
        center = np.array([1.0, -2.0])
        newton = center - np.linalg.solve(hess, grad)  # from x = center
        radius = 0.3 * float(np.linalg.norm(newton - center))
        x = center + np.array([0.2, -0.1]) * radius  # a start off the centre
        z, lam = convex_core._trust_region_point(center, radius, x, grad, hess)
        assert lam > 0.0
        assert np.linalg.norm(z - center) == pytest.approx(radius, rel=1e-12)
        self.assert_kkt(center, radius, x, grad, hess, z, lam)

    def test_flat_model_reaches_the_support_point(self):
        # no curvature: the Newton point is unbounded and lam = |g| / r
        grad, center = np.array([3.0, 4.0]), np.array([1.0, 1.0])
        z, lam = convex_core._trust_region_point(center, 2.0, center, grad, np.zeros((2, 2)))
        assert z == pytest.approx([2.2, 2.6], rel=1e-12)
        assert lam == pytest.approx(2.5, rel=1e-12)
        self.assert_kkt(center, 2.0, center, grad, np.zeros((2, 2)), z, lam)

    def test_zero_radius_is_a_zero_step(self, monkeypatch):
        grad, hess = concave_model(0)
        center = np.array([4.0, 5.0])

        def no_search(*args):
            raise AssertionError("a zero radius needs no eigen-decomposition")

        monkeypatch.setattr(np.linalg, "eigh", no_search)
        z, lam = convex_core._trust_region_point(center, 0.0, center, grad, hess)
        assert np.array_equal(z, center) and lam == 0.0

        def objective(x):
            return float(grad @ x + 0.5 * x @ hess @ x), grad + hess @ x, hess

        x, _, diag = convex_core._ascend(objective, FeasibleSet(ball=(center, 0.0)),
                                         center.copy(), 50)
        assert np.array_equal(x, center)
        assert (diag.iterations, diag.reason) == (1, "Newton decrement below tolerance")

    def test_newton_ascent_stops_on_the_decrement(self):
        # a concave quadratic in one Newton step, then the certificate
        res = maximize_concave(newton_quadratic_around([0.3, -0.7]),
                               FeasibleSet(ball=(np.zeros(2), 10.0)), np.array([5.0, 5.0]))
        assert res.x == pytest.approx([0.3, -0.7], abs=1e-12)
        assert (res.diagnostics.iterations, res.diagnostics.reason) == \
            (2, "Newton decrement below tolerance")


def numpy_trust_region_point(center, radius, x, grad, hess):
    """The trust-region step on numpy 2-vectors, as the package took it
    before its scalar `_trust_region_point`: the reference for that one.
    Both take the closed-form eigensystem, which `TestClosedFormEigensystem`
    holds to LAPACK's; a near-zero eigenvalue's rounding moves a
    boundary step by more than 1e-12 where lam is small."""
    if radius <= 0.0:
        return center.copy(), 0.0
    lo, hi, u, v = convex_core._eigh2(-float(hess[0, 0]), -float(hess[0, 1]),
                                      -float(hess[1, 1]))
    a, q = np.array([lo, hi]), np.array([[u, -v], [v, u]])
    a = np.maximum(a, 0.0)
    b = q.T @ grad + a * (q.T @ (x - center))
    lam = max(0.0, float(np.max(np.abs(b) / radius - a)))
    for _ in range(convex_core._TR_ITERS):
        den = a + lam
        y = np.divide(b, den, out=np.zeros_like(b), where=den > 0.0)
        norm = math.sqrt(float(y @ y))
        if norm <= radius * (1.0 + convex_core._TR_RTOL):
            break
        dy = np.divide(y, den, out=np.zeros_like(y), where=den > 0.0)
        lam += (norm - radius) / radius * norm * norm / float(y @ dy)
    if lam > 0.0:
        y *= radius / norm
    return center + q @ y, lam


class TestTrustRegionReference:
    """The scalar trust-region step against `numpy_trust_region_point`
    on random 2x2 models whose curvature spans 7 decades: the model
    values agree to 1e-12 of the model's size over the disc, and the
    point stays in the disc to `_TR_RTOL`."""

    KINDS = {
        # eigenvalues of -hess, before scaling
        "definite, interior": lambda rng: rng.uniform(0.1, 10.0, 2),
        "definite, boundary": lambda rng: rng.uniform(0.1, 10.0, 2),
        "one zero eigenvalue": lambda rng: np.array([0.0, rng.uniform(0.1, 10.0)]),
        "positive by rounding": lambda rng: np.array([-1e-17, rng.uniform(0.1, 10.0)]),
    }

    @staticmethod
    def model_value(grad, hess, x, z):
        d = z - x
        return float(grad @ d + 0.5 * d @ hess @ d)

    @pytest.mark.parametrize("kind", list(KINDS))
    @pytest.mark.parametrize("decade", range(-3, 4))
    def test_matches_the_numpy_reference(self, kind, decade):
        rng = np.random.default_rng([decade + 3, list(self.KINDS).index(kind)])
        for _ in range(20):
            angle = rng.uniform(0.0, 2.0 * math.pi)
            q = np.array([[math.cos(angle), -math.sin(angle)],
                          [math.sin(angle), math.cos(angle)]])
            hess = -(q * self.KINDS[kind](rng)) @ q.T * 10.0 ** decade
            hess = 0.5 * (hess + hess.T)
            grad = rng.normal(size=2) * 10.0 ** rng.uniform(-3.0, 4.0)
            newton = float(np.linalg.norm(np.linalg.pinv(hess) @ grad))
            radius = {"definite, interior": 3.0 * newton,
                      "definite, boundary": 0.3 * newton}.get(kind, rng.uniform(0.1, 10.0))
            # coordinates of the radius' size, as the move disc's are
            center = rng.normal(size=2) * radius
            x = center + rng.uniform(-0.3, 0.3, 2) * radius
            z, lam = convex_core._trust_region_point(center, radius, x, grad, hess)
            z_ref, lam_ref = numpy_trust_region_point(center, radius, x, grad, hess)
            assert (lam == 0.0) == (lam_ref == 0.0)
            assert (lam == 0.0) == (kind == "definite, interior")
            got, want = self.model_value(grad, hess, x, z), self.model_value(grad, hess, x, z_ref)
            # relative to the model's size over the disc, which bounds the
            # rounding of its two terms
            size = np.linalg.norm(grad) * 2.0 * radius + np.linalg.norm(hess) * 2.0 * radius ** 2
            assert abs(got - want) <= 1e-12 * size, (kind, got, want)
            assert np.linalg.norm(z - center) <= radius * (1.0 + convex_core._TR_RTOL)

    @pytest.mark.parametrize("decade", range(-3, 4))
    def test_zero_radius_stays_at_the_centre(self, decade):
        grad, hess = concave_model(decade + 3)
        center = np.array([4.0, 5.0])
        z, lam = convex_core._trust_region_point(center, 0.0, center + 1.0,
                                                 grad * 10.0 ** decade, hess * 10.0 ** decade)
        assert np.array_equal(z, center) and lam == 0.0


class TestClosedFormEigensystem:
    """`_eigh2` against LAPACK's `eigh`: eigenvalues within 1e-12 of the
    matrix norm (both are accurate to a few rounding errors of the norm,
    not of a small eigenvalue), residuals |A v - lam v| within 1e-14 of
    it, and an orthonormal basis."""

    def assert_eigensystem(self, m):
        lo, hi, u, v = convex_core._eigh2(float(m[0, 0]), float(m[0, 1]), float(m[1, 1]))
        lam, q = np.array([lo, hi]), np.array([[u, -v], [v, u]])
        ref = np.linalg.eigh(m)[0]
        norm = max(float(np.max(np.abs(ref))), 1e-300)
        assert np.all(np.abs(lam - ref) <= 1e-12 * norm), (m, lam, ref)
        for i in range(2):
            assert np.linalg.norm(m @ q[:, i] - lam[i] * q[:, i]) <= 1e-14 * norm, (m, i)
        assert np.allclose(q.T @ q, np.eye(2), rtol=0.0, atol=1e-15)

    @pytest.mark.parametrize("seed", range(20))
    def test_random_symmetric(self, seed):
        root = np.random.default_rng(seed).normal(size=(2, 2)) * 10.0 ** (seed % 7 - 3)
        self.assert_eigensystem(root + root.T)

    @pytest.mark.parametrize("diag", [(3.0, -2.0), (-2.0, 3.0), (1e-9, 4e3), (4e3, 1e-9)])
    def test_diagonal_in_either_order(self, diag):
        self.assert_eigensystem(np.diag(diag))

    @pytest.mark.parametrize("value", [0.0, 2.5, -7.0])
    def test_repeated_eigenvalue(self, value):
        self.assert_eigensystem(value * np.eye(2))

    @pytest.mark.parametrize("p, t", [(3.0, 1.0), (1.0, 3.0), (-1e4, 2.0), (2.0, -1e4)])
    @pytest.mark.parametrize("sign", [1.0, -1.0])
    def test_near_diagonal(self, p, t, sign):
        r = sign * 1e-12 * abs(p - t)
        self.assert_eigensystem(np.array([[p, r], [r, t]]))

    def test_relay_episode_needs_no_lapack_eigensystem(self, monkeypatch):
        # one relay_mixed episode: every trust-region step it takes is
        # solved in closed form
        from uavrelay import run_episode
        from uavrelay.scenario import Scenario

        steps = []
        original = convex_core._trust_region_point

        def counted(*args):
            steps.append(1)
            return original(*args)

        def no_lapack(*args):
            raise AssertionError("the 2x2 eigensystem is closed-form")

        monkeypatch.setattr(convex_core, "_trust_region_point", counted)
        monkeypatch.setattr(np.linalg, "eigh", no_lapack)
        sc = Scenario(n_ues=5, n_subchannels=10, n_slots=10, d_max=25.0,
                      fading_model="mixed", rng_seed=0).with_positions(0)
        run_episode(sc, "jmstp")
        assert len(steps) > 50


def ball_samples(center, radius, count):
    rng = np.random.default_rng(7)
    ang = rng.uniform(0.0, 2.0 * math.pi, count)
    rad = radius * np.sqrt(rng.uniform(0.0, 1.0, count))
    return center + np.column_stack([rad * np.cos(ang), rad * np.sin(ang)])


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

    def test_hessian_check(self):
        objective = newton_quadratic_around([1.0, -2.0])
        assert hess_check(objective, [0.2, 0.4]) < 1e-8

        def bad(x):
            val, grad, hess = objective(x)
            return val, grad, hess * 1.05

        assert hess_check(bad, [0.2, 0.4]) > 1e-2
        with pytest.raises(ValueError):
            hess_check(objective, [1.0, 1.0], step=0.0)
