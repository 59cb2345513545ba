import copy
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from uavrelay import orchestrator, power_alloc, run_episode
from uavrelay.channel import gain_matrices
from uavrelay.convex_core import Diagnostics, FeasibleSet, SolveResult, maximize_concave
from uavrelay.link_rate import LinkBudget, PowerAllocation, rate_report
from uavrelay.power_alloc import (_FLOOR_MARGIN, PowerProblem, PowerResult,
                                  restore_feasible, scp_power, spread_leftover)
from uavrelay.scenario import Scenario, SnrThresholds, dbm_to_watts

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))
import workloads  # noqa: E402


def mixed_instance():
    sc = Scenario(n_ues=4, n_subchannels=6,
                  snr_thresholds=SnrThresholds(3.0, 3.0, 3.0)).with_positions(3)
    gains = gain_matrices(sc, (150.0, 40.0, 120.0))
    beta = np.array([1, 0, 0, 1])
    alloc = np.zeros((4, 6), dtype=int)
    alloc[0, [0, 1]] = 1
    alloc[1, [2]] = 1
    alloc[2, [3, 4]] = 1
    alloc[3, [5]] = 1
    weights = np.array([1.0, 0.7, 1.3, 2.0])
    return sc, gains, beta, alloc, weights


def random_powers(rng, alloc, beta, sc):
    p_ue = rng.uniform(0.001, sc.p_ue_max, alloc.shape) * alloc
    p_uav = rng.uniform(0.001, sc.p_uav_max / 3, alloc.shape[1]) \
        * (alloc * beta[:, None]).any(axis=0)
    return PowerAllocation(p_ue, p_uav)


def dc_by_ue(prob, x):
    """`dc_terms` at `x` summed per UE: (K_n, M_n) arrays and the terms."""
    terms = prob.dc_terms(x)
    n = prob.alloc.shape[0]
    return (np.bincount(prob.ue_n, terms.k, n),
            np.bincount(prob.ue_n, terms.m, n), terms)


def exact_rates(sc, gains, beta, alloc, powers):
    return rate_report(beta, alloc, powers, gains, np.ones(len(beta)), sc).per_ue_rate


class TestDcSplit:
    def test_identity_random_powers(self):
        sc, gains, beta, alloc, weights = mixed_instance()
        prob = PowerProblem(beta, alloc, gains, weights, sc)
        rng = np.random.default_rng(0)
        for _ in range(100):
            powers = random_powers(rng, alloc, beta, sc)
            k, m, _ = dc_by_ue(prob, prob.pack(powers))
            np.testing.assert_allclose(k - m, exact_rates(sc, gains, beta, alloc, powers),
                                       rtol=1e-10)

    def test_cellular_only_has_no_subtracted_part(self):
        # a direct link's M is its value at zero signal, a constant with no
        # slope, and K - M is still the exact rate
        sc, gains, beta, alloc, weights = mixed_instance()
        prob = PowerProblem(beta, alloc, gains, weights, sc)
        powers = random_powers(np.random.default_rng(1), alloc, beta, sc)
        k, m, terms = dc_by_ue(prob, prob.pack(powers))
        rates = exact_rates(sc, gains, beta, alloc, powers)
        for n in (1, 2):
            assert not terms.m_grad[prob.owner == n].any()
            assert k[n] - m[n] == pytest.approx(rates[n], rel=1e-10)

    def test_gradients_match_central_differences(self):
        sc, gains, beta, alloc, weights = mixed_instance()
        prob = PowerProblem(beta, alloc, gains, weights, sc)
        x0 = prob.pack(random_powers(np.random.default_rng(2), alloc, beta, sc))
        base = prob.dc_terms(x0)
        for i, n in enumerate(prob.owner):
            h = 1e-6 * max(x0[i], 1e-3)
            up, dn = x0.copy(), x0.copy()
            up[i] += h
            dn[i] -= h
            (k_up, m_up, _), (k_dn, m_dn, _) = dc_by_ue(prob, up), dc_by_ue(prob, dn)
            assert (k_up[n] - k_dn[n]) / (2 * h) == pytest.approx(
                base.k_grad[i], rel=1e-4, abs=1e-12)
            assert (m_up[n] - m_dn[n]) / (2 * h) == pytest.approx(
                base.m_grad[i], rel=1e-4, abs=1e-12)

    @given(st.integers(0, 10_000))
    @settings(max_examples=40, deadline=None)
    def test_identity_property(self, draw):
        sc, gains, beta, alloc, weights = mixed_instance()
        prob = PowerProblem(beta, alloc, gains, weights, sc)
        powers = random_powers(np.random.default_rng(draw), alloc, beta, sc)
        k, m, _ = dc_by_ue(prob, prob.pack(powers))
        np.testing.assert_allclose(k - m, exact_rates(sc, gains, beta, alloc, powers),
                                   rtol=1e-10)


LAYOUTS = {"direct": [0, 0, 0, 0], "relay": [1, 1, 1, 1], "mixed": [1, 0, 0, 1]}


def layout_problems():
    """The mixed instance's allocation under all-direct, all-relay and
    mixed modes, trimmed to what floor funding can pay, with the
    restored powers."""
    sc, gains, _, alloc, weights = mixed_instance()
    for name, modes in LAYOUTS.items():
        beta = np.array(modes)
        kept, restored, _ = restore_feasible(beta, alloc, gains, weights, sc)
        assert kept.any(), name
        yield name, PowerProblem(beta, kept, gains, weights, sc), restored


class TestSurrogate:
    def test_tight_at_expansion_and_never_above(self):
        rng = np.random.default_rng(7)
        for name, prob, restored in layout_problems():
            fset = prob.feasible_set()
            lo = prob.qos_floors()
            hi = prob.pack(restored)
            x0 = fset.project(0.5 * (lo + hi))
            surrogate = prob.surrogate(x0)

            exact = prob.true_objective(x0)
            assert abs(surrogate(x0)[0] - exact) <= 1e-12 * max(1.0, abs(exact)), name

            for _ in range(300):
                z = fset.project(lo + rng.uniform(0, 1, prob.n_vars) * (hi - lo + 0.05))
                exact = prob.true_objective(z)
                assert surrogate(z)[0] <= exact + 1e-12 * max(1.0, abs(exact)), name

    def test_direct_only_surrogate_is_the_exact_objective(self):
        # nothing relayed: M is a constant, its tangent is flat, and the
        # surrogate equals the objective everywhere, so one step is exact
        rng = np.random.default_rng(11)
        prob, restored = next((prob, restored) for name, prob, restored
                              in layout_problems() if name == "direct")
        fset = prob.feasible_set()
        lo, hi = prob.qos_floors(), prob.pack(restored)
        x0 = fset.project(0.5 * (lo + hi))
        _, slope = prob.m_tangent(x0)
        assert slope.shape == (prob.n_vars,) and not slope.any()
        surrogate = prob.surrogate(x0)
        for _ in range(100):
            z = fset.project(lo + rng.uniform(0, 1, prob.n_vars) * (hi - lo + 0.05))
            assert surrogate(z)[0] == pytest.approx(prob.true_objective(z), rel=1e-12)

    def test_surrogate_gradient(self):
        from gradcheck import grad_check
        for name, prob, restored in layout_problems():
            x0 = 0.7 * prob.pack(restored)
            assert grad_check(prob.surrogate(x0), x0, step=1e-9) <= 1e-4, name

    def test_pack_unpack_round_trip(self):
        for name, prob, restored in layout_problems():
            x = prob.pack(restored)
            back = prob.unpack(x)
            assert np.array_equal(back.p_ue, restored.p_ue), name
            assert np.array_equal(back.p_uav, restored.p_uav), name
            assert np.array_equal(prob.pack(back), x), name
            assert x.size == prob.n_vars == prob.alloc.sum() + prob.alloc[prob.beta == 1].sum()


ARGMAX_CASES = ("zero_weight", "no_ici", "floors_fill_budget", "slack_block",
                "single_variables")


@st.composite
def argmax_instances(draw, case):
    """A surrogate and its feasible set on up to 4 UEs and 6 subchannels
    in mixed modes, with budgets from 1 to 4 times the largest floor total
    an entity funds, and a start between the floors and twice them.
    `case` forces one shape: UE 0 weightless; no ICI; the budgets equal
    that largest floor total; UE 0 relayed under budgets 1e6 times it,
    so its block has slack; or one variable per block."""
    n, seed = draw(st.integers(1, 4)), draw(st.integers(0, 99))
    k = n if case == "single_variables" else draw(st.integers(n, 6))
    base = Scenario(n_ues=n, n_subchannels=k, fading_model="mixed",
                    rng_seed=seed).with_positions(seed)
    if case == "no_ici":
        base = replace(base, ici_power=0.0)
    gains = gain_matrices(base, base.uav_start, draw(st.integers(0, 3)))
    if case == "single_variables":
        owner = np.array(draw(st.permutations(range(n))))
        beta = (np.arange(n) == draw(st.integers(-1, n - 1))).astype(int)
    else:
        owner = np.array(draw(st.lists(st.integers(-1, n - 1), min_size=k, max_size=k)))
        owner[0] = 0
        beta = np.array(draw(st.lists(st.integers(0, 1), min_size=n, max_size=n)))
    alloc = (owner == np.arange(n)[:, None]).astype(int)
    weights = np.array(draw(st.lists(st.sampled_from((0.0, 0.5, 1.0, 2.0)),
                                     min_size=n, max_size=n)))
    if case == "zero_weight":
        weights[0] = 0.0
    if case == "slack_block":
        beta[0] = 1

    unscaled = PowerProblem(beta, alloc, gains, weights, base)
    floors = unscaled.qos_floors()
    u = unscaled.n_ue_vars
    ue_need = np.bincount(unscaled.ue_n, floors[:u]).max()
    uav_need = np.bincount(np.zeros(floors.size - u, dtype=int), floors[u:]).max(initial=0.0)
    factor = {"floors_fill_budget": 1.0, "slack_block": 1e6}.get(case) \
        or draw(st.floats(1.0, 4.0))
    sc = replace(base, p_ue_max=factor * ue_need,
                 p_uav_max=factor * uav_need if uav_need else base.p_uav_max)
    prob = PowerProblem(beta, alloc, gains, weights, sc)
    fset = prob.feasible_set()
    x0 = fset.project(floors * (1.0 + draw(st.floats(0.0, 1.0))))
    return prob, fset, x0


class TestSurrogateArgmax:
    """`surrogate_argmax` against the KKT conditions and against the
    projected-gradient ascent from the same start."""

    @pytest.mark.parametrize("case", ARGMAX_CASES)
    @given(data=st.data())
    @settings(max_examples=60, deadline=None)
    def test_exact_maximiser(self, case, data):
        prob, fset, x0 = data.draw(argmax_instances(case))
        block, budgets = fset.blocks
        n = budgets.size
        x = prob.surrogate_argmax(x0, fset)
        objective = prob.surrogate(x0)

        # feasible: every floor met, every block within its budget
        assert np.all(x >= fset.floors)
        sums = np.bincount(block, x, n)
        assert np.all(sums <= budgets * (1.0 + 1e-12))

        # no lower than the ascent from the same start, once the ascent's
        # point is pulled back inside the budgets that its projections
        # overrun by rounding (about an ulp of the trial point's size)
        value, grad = objective(x)
        spg = maximize_concave(objective, fset, x0).x
        spare = budgets - np.bincount(block, fset.floors, n)
        above = np.bincount(block, spg - fset.floors, n)
        shrink = np.divide(spare, above, out=np.ones(n), where=above > spare)
        spg_value = objective(fset.floors + (spg - fset.floors) * shrink[block])[0]
        assert value >= spg_value - 1e-12 * max(abs(spg_value), 1.0)

        # KKT: the interior variables of a block share one marginal, zero
        # where the budget has slack, and its variables at their floors
        # have none higher
        _, slope = prob.m_tangent(x0)
        scale = np.abs(grad + slope)  # the marginal of K alone
        for b in range(n):
            mine = block == b
            inside = mine & (x > fset.floors)
            binding = sums[b] >= budgets[b] * (1.0 - 1e-12)
            level = grad[inside].max() if inside.any() else np.inf if binding else 0.0
            tol = 1e-9 * scale[mine].max()
            assert np.all(np.abs(grad[inside] - level) <= tol), b
            assert np.all(grad[mine & ~inside] <= level + tol), b
            if not binding:
                assert abs(level) <= tol, b
        if case == "slack_block":
            assert sums[0] < budgets[0]
        if case == "floors_fill_budget":
            assert np.any(np.isclose(sums, budgets, rtol=1e-12))


class TestWaterStart:
    """Each block's starting multiplier is finite and at or left of its
    root: 0, or a multiplier at which the block is still over its budget
    (up to the water-filling's stop tolerance), so Newton climbs to the
    root without overshooting."""

    @pytest.mark.parametrize("case", ARGMAX_CASES)
    @given(data=st.data())
    @settings(max_examples=60, deadline=None)
    def test_start_is_left_of_the_root(self, case, data):
        prob, fset, x0 = data.draw(argmax_instances(case))
        block, budgets = fset.blocks
        _, slope = prob.m_tangent(x0)
        with np.errstate(divide="ignore", invalid="ignore"):
            lam = prob._water_start(slope, fset)
            _, excess, _ = prob._levels(lam, slope, fset)
        assert np.all(np.isfinite(lam)) and np.all(lam >= 0.0)
        assert np.all((lam == 0.0) | (excess >= -1e-15 * budgets))
        if case == "zero_weight":
            # UE 0's block holds weight nowhere, so the Cauchy-Schwarz
            # bound is 0/0 there; its start is the per-variable one
            assert not prob.weights[prob.owner[block == 0]].any()


class TestScpPower:
    def test_single_cellular_ue_gets_full_budget(self):
        sc = Scenario(n_ues=1, n_subchannels=2,
                      snr_thresholds=SnrThresholds(1.0, 1.0, 1.0),
                      ue_positions=((200.0, 0.0, 0.0),)).with_positions(0)
        gains = gain_matrices(sc, (100.0, 0.0, 100.0))
        res = scp_power(np.array([0]), np.array([[1, 0]]), gains,
                        np.ones(1), sc)
        assert res.powers.p_ue[0, 0] == pytest.approx(sc.p_ue_max, abs=1e-9)
        assert res.powers.p_ue[0, 1] == 0.0
        assert not res.powers.p_uav.any()

    def test_disjoint_cellular_ues_each_hit_cap(self):
        sc = Scenario(n_ues=2, n_subchannels=4,
                      snr_thresholds=SnrThresholds(1.0, 1.0, 1.0),
                      ue_positions=((200.0, 0.0, 0.0),
                                    (-150.0, 80.0, 0.0))).with_positions(0)
        gains = gain_matrices(sc, (100.0, 0.0, 100.0))
        alloc = np.array([[1, 1, 0, 0], [0, 0, 1, 1]])
        res = scp_power(np.array([0, 0]), alloc, gains,
                        np.array([1.0, 2.0]), sc)
        for n in range(2):
            assert res.powers.p_ue[n].sum() == pytest.approx(sc.p_ue_max, abs=1e-9)

    def test_trace_monotone_and_feasible(self):
        sc, gains, beta, alloc, weights = mixed_instance()
        res = scp_power(beta, alloc, gains, weights, sc)
        trace = np.array(res.trace)
        assert np.all(np.diff(trace) >= -1e-9 * np.maximum(1.0, np.abs(trace[:-1])))
        assert res.converged and not res.dropped
        prob = PowerProblem(beta, res.alloc, gains, weights, sc)
        x = prob.pack(res.powers)
        assert prob.feasible_set().linear_violation(x) <= 1e-9
        assert np.all(x - prob.qos_floors() >= -1e-12)
        assert res.objective == pytest.approx(prob.true_objective(x), rel=1e-12)

    def test_weight_scaling_leaves_argmax_unchanged(self):
        sc, gains, beta, alloc, weights = mixed_instance()
        res_a = scp_power(beta, alloc, gains, weights, sc)
        res_b = scp_power(beta, alloc, gains, 7.3 * weights, sc)
        np.testing.assert_allclose(res_a.powers.p_ue, res_b.powers.p_ue,
                                   rtol=1e-6, atol=1e-12)
        np.testing.assert_allclose(res_a.powers.p_uav, res_b.powers.p_uav,
                                   rtol=1e-6, atol=1e-12)

    def test_feasible_init_is_the_starting_point(self):
        sc, gains, beta, alloc, weights = mixed_instance()
        _, restored, _ = restore_feasible(beta, alloc, gains, weights, sc)
        init = restored.copy()
        init.p_ue *= 0.9
        init.p_uav *= 0.9
        prob = PowerProblem(beta, alloc, gains, weights, sc)
        start_obj = prob.true_objective(prob.pack(init))
        res = scp_power(beta, alloc, gains, weights, sc, init=init)
        assert res.trace[0] == pytest.approx(start_obj, rel=1e-12)
        assert res.objective >= start_obj - 1e-12

    def test_infeasible_init_is_repaired(self):
        sc, gains, beta, alloc, weights = mixed_instance()
        bad = PowerAllocation(np.full(alloc.shape, 2 * sc.p_ue_max) * alloc,
                              np.zeros(alloc.shape[1]))
        res = scp_power(beta, alloc, gains, weights, sc, init=bad)
        prob = PowerProblem(beta, res.alloc, gains, weights, sc)
        assert prob.feasible_set().linear_violation(prob.pack(res.powers)) <= 1e-9
        assert res.converged

    def test_infeasible_inner_solve_is_not_converged(self, monkeypatch):
        def infeasible(objective, fset, x0, max_iters=500):
            return SolveResult(x0, False, Diagnostics(reason="no feasible start derivable"))

        monkeypatch.setattr(power_alloc, "maximize_concave", infeasible)
        sc, gains, beta, alloc, weights = mixed_instance()
        _, restored, _ = restore_feasible(beta, alloc, gains, weights, sc)
        res = scp_power(beta, alloc, gains, weights, sc, init=restored)
        assert not res.converged
        assert res.iterations == 1
        np.testing.assert_array_equal(res.powers.p_ue, restored.p_ue)

    def test_stops_on_the_slot_loops_absolute_tolerance(self, monkeypatch):
        # a stop looser than the slot loop's hands that loop power gains it
        # counts as progress: every converged stop with a relayed variable
        # ends on a step that gains less than `tolerances.bcd`, or on a
        # step that dropped and so is not in the trace.  A direct-only
        # stop takes one exact step, and a run from its answer gains nothing
        calls = []

        def recorded(*args, **kwargs):
            res = scp_power(*args, **kwargs)
            calls.append((args, res))
            return res

        monkeypatch.setattr(orchestrator, "scp_power", recorded)
        stops = {True: [], False: []}
        for algorithm, n_ues, n_sub, least in (("cellular", 20, 40, 10.0),
                                               ("jmstp", 5, 10, 1.0)):
            sc = Scenario(n_ues=n_ues, n_subchannels=n_sub, n_slots=2, d_max=25.0,
                          fading_model="mixed", rng_seed=1).with_positions(1)
            log = run_episode(sc, algorithm)
            assert min(sol.objective for sol in log.slots) > least
            for args, res in calls:
                if res.converged and res.iterations:
                    stops[bool(res.alloc[args[0] == 1].any())].append((args, res))
            calls.clear()
        assert stops[True] and stops[False]
        for _, res in stops[True]:
            on_drop = len(res.trace) == res.iterations
            assert on_drop or res.trace[-1] - res.trace[-2] < sc.tolerances.bcd
        for (beta, _, gains, weights, sc), res in stops[False]:
            assert res.iterations == 1
            again = scp_power(beta, res.alloc, gains, weights, sc, init=res.powers)
            assert again.objective - res.objective == 0.0
            np.testing.assert_array_equal(again.powers.p_ue, res.powers.p_ue)
            np.testing.assert_array_equal(again.powers.p_uav, res.powers.p_uav)

    def test_empty_allocation(self):
        sc = Scenario(n_ues=2, n_subchannels=4).with_positions(0)
        gains = gain_matrices(sc, (100.0, 0.0, 120.0))
        res = scp_power(np.zeros(2, dtype=int), np.zeros((2, 4), dtype=int),
                        gains, np.ones(2), sc)
        assert res.objective == 0.0
        assert not res.powers.p_ue.any() and not res.powers.p_uav.any()


def reference_scp_power(beta, alloc, gains, weights, sc, init=None):
    """`scp_power` written out: the plain SCP loop, each step the
    certified water-filling point, and after each kept step that gains
    eps on a problem with a relayed variable, the walk x + tau*(x+ - x),
    tau = 2, 4, ..., 64, one projection and one exact objective per
    trial, kept while the objective strictly rises and cut where a
    projection repeats the last kept point.  Returns the result, the
    problem with its feasible set, and every kept point."""
    alloc = np.asarray(alloc, dtype=int)
    dropped = []
    start = None
    if init is not None:
        prob = PowerProblem(beta, alloc, gains, weights, sc)
        if prob.n_vars:
            fset = prob.feasible_set()
            x = fset.project(prob.pack(init))
            if fset.linear_violation(x) <= 1e-9:
                start = x
    if start is None:
        alloc, powers, dropped = restore_feasible(beta, alloc, gains, weights, sc)
        prob = PowerProblem(beta, alloc, gains, weights, sc)
        if prob.n_vars == 0:
            empty = PowerResult(prob.unpack(np.zeros(0)), alloc, dropped, 0.0, 0, True)
            return empty, prob, None, []
        fset = prob.feasible_set()
        start = prob.pack(powers)

    eps = sc.tolerances.bcd
    relayed = bool(prob.relay.any())
    x, obj = start, prob.true_objective(start)
    trace, kept = [obj], []
    converged, it = False, 0
    for it in range(1, power_alloc._MAX_OUTER + 1):
        tangent = prob.m_tangent(x)
        res = maximize_concave(prob.surrogate(x, tangent), fset,
                               prob.surrogate_argmax(x, fset, tangent),
                               max_iters=power_alloc._INNER_ITERS)
        if not res.feasible:
            break
        plain = prob.true_objective(res.x)
        if plain < obj - 1e-9 * max(1.0, abs(obj)):
            converged = True
            break
        point, value = res.x, plain
        if relayed and plain - obj >= eps:
            for k in range(1, 7):
                trial = fset.project(x + 2.0 ** k * (res.x - x))
                if np.array_equal(trial, point):
                    break
                trial_value = prob.true_objective(trial)
                if trial_value <= value:
                    break
                point, value = trial, trial_value
        trace.append(value)
        kept.append(point)
        gain = value - obj
        x, obj = point, value
        if gain < eps or not relayed:
            converged = True
            break
    result = PowerResult(prob.unpack(x), alloc, dropped, obj, it, converged, trace)
    return result, prob, fset, kept


def counted_objective(monkeypatch):
    """Count every exact objective that any `PowerProblem` prices."""
    calls = []
    priced = PowerProblem.true_objective

    def counted(self, x):
        calls.append(1)
        return priced(self, x)

    monkeypatch.setattr(PowerProblem, "true_objective", counted)
    return calls


@pytest.fixture(scope="module")
def panel_power_solves():
    """Every `scp_power` call over perfbench's relay_mixed (jmstp) and
    random_cold (random) panels, episodes 0-9: (workload, episode, args,
    kwargs, result), the inputs copied as they were passed."""
    solves = []
    with pytest.MonkeyPatch.context() as mp:
        for name in ("relay_mixed", "random_cold"):
            w = workloads.WORKLOADS[name]
            for episode, sc in enumerate(workloads.panel(w)):
                def recorded(*args, **kwargs):
                    inputs = copy.deepcopy((args, kwargs))
                    res = scp_power(*args, **kwargs)
                    solves.append((name, episode, *inputs, res))
                    return res

                mp.setattr(orchestrator, "scp_power", recorded)
                run_episode(sc, w.algorithm)
    return solves


def assert_same_result(got, want):
    for a, b in ((got.powers.p_ue, want.powers.p_ue), (got.powers.p_uav, want.powers.p_uav),
                 (got.alloc, want.alloc)):
        assert a.dtype == b.dtype and a.tobytes() == b.tobytes()
    assert got.dropped == want.dropped
    assert got.objective == want.objective
    assert got.trace == want.trace
    assert (got.iterations, got.converged) == (want.iterations, want.converged)


class TestOverrelaxedStep:
    """Each kept step that gains eps on a problem with a relayed variable
    is walked on through its doublings while the exact objective strictly
    rises; `scp_power` answers bit for bit as the loop written out in
    `reference_scp_power`, with the same exact objectives priced."""

    @staticmethod
    def check(calls, args, kwargs):
        """Run both on the inputs, `calls` counting the exact objectives
        priced (`counted_objective`); return the result and its count."""
        before = len(calls)
        got = scp_power(*args, **kwargs)
        priced = len(calls) - before
        want, prob, fset, kept = reference_scp_power(*args, **kwargs)
        assert len(calls) - before == 2 * priced
        assert_same_result(got, want)
        floors = prob.qos_floors()
        for x in kept:
            assert fset.linear_violation(x) <= 1e-9
            assert np.all(x >= floors)
        return got, priced

    def test_mixed_instance(self, monkeypatch):
        sc, gains, beta, alloc, weights = mixed_instance()
        args = (beta, alloc, gains, weights, sc)
        calls = counted_objective(monkeypatch)
        self.check(calls, args, {})
        # from the QoS floors the steps gain eps, and the walk prices trials
        prob = PowerProblem(beta, alloc, gains, weights, sc)
        got, priced = self.check(calls, args, {"init": prob.unpack(prob.qos_floors())})
        assert got.converged and got.iterations > 1
        assert priced > got.iterations + 1

    def test_a_repeated_projection_ends_the_walk_unpriced(self, monkeypatch):
        # one relayed link, each power alone in its budget block, where the
        # projection is the clip onto [floor, budget] and exact: doublings
        # past both budgets project onto the same point, which ends the walk
        def clip(fset, x):
            block, budgets = fset.blocks
            assert np.all(np.bincount(block) == 1)
            return np.clip(x, fset.floors, budgets[block])

        monkeypatch.setattr(FeasibleSet, "project", clip)
        sc, gains, beta, alloc, weights = mixed_instance()
        alloc = np.zeros_like(alloc)
        alloc[0, 0] = 1
        prob = PowerProblem(beta, alloc, gains, weights, sc)
        got, _ = self.check(counted_objective(monkeypatch), (beta, alloc, gains, weights, sc),
                            {"init": prob.unpack(prob.qos_floors())})
        np.testing.assert_array_equal(prob.pack(got.powers), [sc.p_ue_max, sc.p_uav_max])

    def test_panel_solves(self, monkeypatch, panel_power_solves):
        solves = [s for s in panel_power_solves if s[1] < 2]
        assert {s[0] for s in solves} == {"relay_mixed", "random_cold"}
        calls = counted_objective(monkeypatch)
        for _, _, args, kwargs, _ in solves:
            self.check(calls, args, kwargs)

    def test_plateau_ends_the_walk(self, monkeypatch):
        # an exact objective with flat runs: a trial that only ties the
        # kept point ends the walk
        priced = PowerProblem.true_objective
        monkeypatch.setattr(PowerProblem, "true_objective",
                            lambda self, x: round(priced(self, x), 1))
        sc, gains, beta, alloc, weights = mixed_instance()
        self.check(counted_objective(monkeypatch), (beta, alloc, gains, weights, sc), {})

    def test_direct_only_problem_never_extends(self, monkeypatch):
        # its one step gains eps, yet only the start and that step are priced
        sc, gains, _, alloc, weights = mixed_instance()
        beta = np.zeros(4, dtype=int)
        prob = PowerProblem(beta, alloc, gains, weights, sc)
        start = prob.unpack(prob.qos_floors())
        calls = counted_objective(monkeypatch)
        res = scp_power(beta, alloc, gains, weights, sc, init=start)
        assert res.iterations == 1 and res.converged
        assert res.trace[1] - res.trace[0] >= sc.tolerances.bcd
        assert len(calls) == 2


class TestNoSilentOuterCap:
    """Aim 3: no power solve of the relay_mixed or random_cold panels
    stops at `_MAX_OUTER`; every one ends converged below it."""

    def test_every_panel_solve_converges_below_the_cap(self, panel_power_solves):
        assert {(s[0], s[1]) for s in panel_power_solves} == {
            (name, episode) for name in ("relay_mixed", "random_cold") for episode in range(10)}
        capped = [(name, episode, res.iterations)
                  for name, episode, _, _, res in panel_power_solves
                  if not res.converged or res.iterations >= power_alloc._MAX_OUTER]
        assert capped == []


class TestPowerSolveCensus:
    """Each inner power solve starts at the surrogate's exact maximiser,
    so the ascent certifies it at once: on warm-started mixed-fading
    episodes every solve ends on the projected-gradient test at its first
    iteration, never at the iteration cap or on a stalled line search."""

    @pytest.mark.parametrize("algorithm", ["jmstp", "random"])
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_every_solve_is_certified_at_the_first_iteration(self, monkeypatch,
                                                             algorithm, seed):
        stops = []

        def recorded(*args, **kwargs):
            res = maximize_concave(*args, **kwargs)
            stops.append((res.diagnostics.reason, res.diagnostics.iterations))
            return res

        monkeypatch.setattr(power_alloc, "maximize_concave", recorded)
        sc = Scenario(n_ues=5, n_subchannels=10, n_slots=3, d_max=25.0,
                      fading_model="mixed", rng_seed=seed).with_positions(seed)
        run_episode(sc, algorithm)
        assert stops
        assert set(stops) == {("projected gradient below tolerance", 1)}


class TestRestoration:
    def test_ue_floor_overflow_sheds_whole_ue(self):
        sc = Scenario(n_ues=2, n_subchannels=4,
                      p_ue_max=dbm_to_watts(17.0),
                      snr_thresholds=SnrThresholds(3000.0, 3.0, 3.0),
                      ue_positions=((420.0, 0.0, 0.0),
                                    (60.0, 10.0, 0.0))).with_positions(0)
        gains = gain_matrices(sc, (150.0, 0.0, 120.0))
        beta = np.array([0, 0])
        alloc = np.array([[1, 1, 1, 0], [0, 0, 0, 1]])
        # every per-channel floor for the far UE exceeds the cap on its own
        floors = 3000.0 * (sc.noise_var + sc.ici_power) / gains.h_ue_bs[0, :3]
        assert floors.min() > sc.p_ue_max
        new_alloc, powers, dropped = restore_feasible(beta, alloc, gains,
                                                      np.ones(2), sc)
        assert sorted(dropped) == [(0, 0), (0, 1), (0, 2)]
        assert not new_alloc[0].any()
        assert new_alloc[1, 3] == 1
        assert powers.p_ue[1].sum() <= sc.p_ue_max * (1 + 1e-9)

    def test_uav_overflow_releases_lowest_utility_assignment(self):
        base = Scenario(n_ues=2, n_subchannels=4,
                        snr_thresholds=SnrThresholds(3.0, 3.0, 3.0),
                        ue_positions=((400.0, 0.0, 0.0),
                                      (380.0, 60.0, 0.0))).with_positions(0)
        gains = gain_matrices(base, (350.0, 20.0, 120.0))
        # scale the backhaul threshold so four floors overflow but three fit
        floor = 3.0 * (base.noise_var + base.ici_power) / gains.h_uav_bs[0]
        sc = Scenario(n_ues=2, n_subchannels=4,
                      snr_thresholds=SnrThresholds(3.0, 3.0, 0.085 / floor * 3.0),
                      ue_positions=base.ue_positions).with_positions(0)
        gains = gain_matrices(sc, (350.0, 20.0, 120.0))
        beta = np.array([1, 1])
        alloc = np.array([[1, 1, 0, 0], [0, 0, 1, 1]])
        weights = np.array([1.0, 3.0])
        new_alloc, powers, dropped = restore_feasible(beta, alloc, gains,
                                                      weights, sc)
        assert len(dropped) == 1
        assert dropped[0][0] == 0  # the low-weight UE loses a channel
        assert powers.p_uav.sum() <= sc.p_uav_max * (1 + 1e-9)
        assert new_alloc.sum() == 3

    def test_restored_start_meets_floors(self):
        sc, gains, beta, alloc, weights = mixed_instance()
        new_alloc, powers, dropped = restore_feasible(beta, alloc, gains,
                                                      weights, sc)
        assert not dropped
        prob = PowerProblem(beta, new_alloc, gains, weights, sc)
        x = prob.pack(powers)
        assert np.all(x >= prob.qos_floors())
        assert prob.feasible_set().linear_violation(x) <= 1e-9


CAP_TOL = 1e-9


def reference_restore_feasible(beta, alloc, gains, weights, sc):
    """The drop-loop restoration that floor funding by value order
    replaced: fund every assignment at its floor plus a hair, and while an
    entity's floors overflow its budget by more than `CAP_TOL` (the first
    UE over, else the UAV), release its subchannel of least weighted rate
    at floor powers; then spread the leftover budgets."""
    alloc = np.asarray(alloc, dtype=int).copy()
    beta = np.asarray(beta, dtype=int)
    dropped = []
    while True:
        prob = PowerProblem(beta, alloc, gains, weights, sc)
        powers = prob.unpack(prob.qos_floors() * (1.0 + _FLOOR_MARGIN))
        ue_over = np.flatnonzero(powers.p_ue.sum(axis=1) > sc.p_ue_max * (1.0 + CAP_TOL))
        if ue_over.size:
            owned = np.zeros_like(alloc)
            owned[ue_over[0]] = alloc[ue_over[0]]
        elif powers.p_uav.sum() > sc.p_uav_max * (1.0 + CAP_TOL):
            owned = alloc * beta[:, None]
        else:
            break
        report = rate_report(beta, alloc, powers, gains, weights, sc)
        value = np.zeros(alloc.shape)
        value[report.pairs] = weights[report.pairs[0]] * report.link.rate
        n, k = np.argwhere(owned)[np.argmin(value[owned == 1])]
        alloc[n, k] = 0
        dropped.append((int(n), int(k)))
    spread_leftover(prob, powers)
    return alloc, powers, dropped


def full_budget_floors(sc, gains, beta):
    return LinkBudget(beta[:, None] == 1, sc.p_ue_max, sc.p_uav_max, gains.h_ue_bs,
                      gains.h_ue_uav, gains.h_uav_bs, sc.snr_thresholds,
                      sc.noise_var, sc.ici_power).floors()


@st.composite
def funding_instances(draw):
    """Up to 4 UEs on up to 6 subchannels in mixed modes, with each
    budget a fraction from 0.2 to 1.5 of the largest floor total that
    entity would have to fund, and half the time powers held over."""
    n, k, seed = draw(st.integers(1, 4)), draw(st.integers(1, 6)), draw(st.integers(0, 99))
    base = Scenario(n_ues=n, n_subchannels=k, fading_model="mixed",
                    rng_seed=seed).with_positions(seed)
    gains = gain_matrices(base, base.uav_start, draw(st.integers(0, 3)))
    beta = np.array(draw(st.lists(st.integers(0, 1), min_size=n, max_size=n)))
    owner = np.array(draw(st.lists(st.integers(-1, n - 1), min_size=k, max_size=k)))
    alloc = (owner == np.arange(n)[:, None]).astype(int)
    weights = np.array(draw(st.lists(st.sampled_from((0.0, 0.5, 1.0, 2.0)),
                                     min_size=n, max_size=n)))
    floor_ue, floor_uav = full_budget_floors(base, gains, beta)
    ue_need = (floor_ue * alloc).sum(axis=1).max()
    uav_need = (floor_uav * alloc).sum()
    budget = st.floats(0.2, 1.5)
    sc = replace(base, p_ue_max=draw(budget) * ue_need if ue_need else base.p_ue_max,
                 p_uav_max=draw(budget) * uav_need if uav_need else base.p_uav_max)
    held = None
    if draw(st.booleans()):
        # powers held from another channel: from none to twice the floors
        # here, scaled into the budgets (which can sink them below floors)
        scale = st.lists(st.floats(0.0, 2.0), min_size=n * k, max_size=n * k)
        p_ue = floor_ue * alloc * np.reshape(draw(scale), (n, k))
        p_ue *= np.minimum(1.0, sc.p_ue_max / np.maximum(p_ue.sum(axis=1), 1e-300))[:, None]
        p_uav = (floor_uav * alloc).sum(axis=0) * draw(scale)[:k]
        p_uav *= min(1.0, sc.p_uav_max / max(p_uav.sum(), 1e-300))
        held = PowerAllocation(p_ue, p_uav)
    return sc, gains, beta, alloc, weights, held


class TestFundingRule:
    """`restore_feasible` against the drop-loop reference it replaced."""

    @given(funding_instances())
    @settings(max_examples=300, deadline=None)
    def test_against_the_drop_loop(self, instance):
        sc, gains, beta, alloc, weights, held = instance
        got_alloc, got, dropped = restore_feasible(beta, alloc, gains, weights, sc,
                                                   held)

        # where the reference drops nothing and its floors leave room in
        # every budget, funding by value order funds the same start; in
        # the reference's tolerance band above a budget it overruns it
        want_alloc, want, want_dropped = reference_restore_feasible(
            beta, alloc, gains, weights, sc)
        floor_ue, floor_uav = full_budget_floors(sc, gains, beta)
        funded = 1.0 + _FLOOR_MARGIN
        room = ((floor_ue * alloc).sum(axis=1).max() * funded
                <= sc.p_ue_max * (1.0 - 1e-12)
                and (floor_uav * alloc).sum() * funded <= sc.p_uav_max * (1.0 - 1e-12))
        if held is None and not want_dropped and room:
            assert dropped == []
            np.testing.assert_array_equal(got_alloc, want_alloc)
            np.testing.assert_array_equal(got.p_ue, want.p_ue)
            np.testing.assert_array_equal(got.p_uav, want.p_uav)

        # survivors meet their floors, held powers included, and every
        # budget holds
        kept = got_alloc == 1
        assert np.all(got.p_ue[kept] >= floor_ue[kept])
        assert np.all(np.broadcast_to(got.p_uav, alloc.shape)[kept] >= floor_uav[kept])
        assert not got.p_ue[~kept].any()
        assert np.all(got.p_ue.sum(axis=1) <= sc.p_ue_max * (1.0 + 1e-9))
        assert got.p_uav.sum() <= sc.p_uav_max * (1.0 + 1e-9)

        # `dropped` lists exactly the removed pairs, once each
        removed = sorted(map(tuple, np.argwhere((alloc == 1) & ~kept).tolist()))
        assert sorted(dropped) == removed
        assert len(set(dropped)) == len(dropped)
