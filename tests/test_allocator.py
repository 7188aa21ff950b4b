"""Retention learning checks: projection optimality certificates, estimator
statistics against exact enumeration, update arithmetic, greedy finalization."""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp
from scipy.optimize import minimize

from lrsprune import allocator
from lrsprune.allocator import (
    EPSILON,
    PolicyGradientConfig,
    RetentionState,
    finalize_masks,
    init_state,
    log_prob_grad,
    project_to_budget,
    reinforce_step,
    sample_mask,
)
from lrsprune.oracle import exact_expected_loss, exact_expected_loss_grad


def projection_oracle(s, c, budget):
    """Quadratic-programming reference for the budget-box projection."""
    n = s.size
    res = minimize(
        lambda x: 0.5 * float(np.sum((x - s) ** 2)),
        np.clip(s, 0.0, 1.0),
        jac=lambda x: x - s,
        bounds=[(0.0, 1.0)] * n,
        constraints=[{"type": "ineq", "fun": lambda x: budget - c @ x, "jac": lambda x: -c}],
        method="SLSQP",
        options={"maxiter": 500, "ftol": 1e-14},
    )
    assert res.success
    return res.x


def breakpoint_projection(s, c, budget):
    """Sort-based reference for the budget-box projection (the breakpoint
    search of Kiwiel 2008). ``spend(nu) = c . clip(s - nu c, 0, 1)`` is
    linear between consecutive sorted breakpoints (s - 1) / c and s / c, so
    a binary search over them by exact evaluations finds the piece holding
    the root, and that piece's linear equation gives the multiplier."""
    s = np.asarray(s, dtype=np.float64)
    c = np.asarray(c, dtype=np.float64)
    clipped = np.clip(s, 0.0, 1.0)
    if float(c @ clipped) <= budget:
        return clipped

    def spend(nu):
        return float(c @ np.clip(s - nu * c, 0.0, 1.0))

    points = np.unique(np.concatenate([[0.0], (s - 1.0) / c, s / c]))
    points = points[points >= 0.0]
    lo, hi = 0, points.size - 1  # spend(points[lo]) > budget >= spend(points[hi]) == 0
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if spend(points[mid]) > budget:
            lo = mid
        else:
            hi = mid
    x = s - 0.5 * (points[lo] + points[hi]) * c
    upper = x >= 1.0
    free = (x > 0.0) & ~upper
    nu = (c[upper].sum() + c[free] @ s[free] - budget) / (c[free] @ c[free])
    return np.clip(s - nu * c, 0.0, 1.0)


def stage2_projection_input(rng, n, triplets=1, triplet_cost=40.0):
    """Projection input shaped like a Stage 2 step: triplets costing m + n
    ahead of unit-cost sparse entries, probabilities scattered around and
    beyond [0, 1], and a budget below the clipped spend."""
    c = np.concatenate([np.full(triplets, float(triplet_cost)), np.ones(n - triplets)])
    s = np.where(rng.random(n) < 0.5, rng.uniform(-0.2, 1.2, n), rng.normal(0.5, 1.5, n))
    budget = float(rng.uniform(0.2, 0.95) * (c @ np.clip(s, 0.0, 1.0)))
    return s, c, budget


def table_loss(table):
    def loss_fn(bits):
        code = int(np.asarray(bits) @ (1 << np.arange(len(bits))))
        return float(table[code])

    return loss_fn


class TestConfigValidation:
    def test_rejects_bad_values(self):
        with pytest.raises(ValueError):
            PolicyGradientConfig(learning_rate=0.0)
        with pytest.raises(ValueError):
            PolicyGradientConfig(learning_rate=float("inf"))
        with pytest.raises(ValueError):
            PolicyGradientConfig(baseline_beta=1.0)
        with pytest.raises(ValueError):
            PolicyGradientConfig(iterations=0)
        with pytest.raises(ValueError):
            PolicyGradientConfig(window=0)
        with pytest.raises(ValueError):
            PolicyGradientConfig(seed=-1)


class TestInitState:
    def test_feasible_start_unchanged(self):
        state = init_state([1.0, 1.0, 1.0, 1.0], 4.0)
        np.testing.assert_array_equal(state.probs, [0.5, 0.5, 0.5, 0.5])
        assert state.budget == 4.0
        assert state.baseline == 0.0

    def test_infeasible_start_is_projected(self):
        # projecting the 0.5 start onto {x1 + ... + x4 <= 1} lands on 0.25 each
        state = init_state(np.ones(4), 1.0)
        np.testing.assert_allclose(state.probs, [0.25] * 4, atol=1e-9)
        oracle = projection_oracle(np.full(4, 0.5), np.ones(4), 1.0)
        np.testing.assert_allclose(state.probs, oracle, atol=1e-5)

    def test_rejects_bad_inputs(self):
        with pytest.raises(ValueError, match="budget must be positive"):
            init_state([4.0, 1.0], 0.0)
        with pytest.raises(ValueError, match="candidate costs must be positive"):
            init_state([1.0, 0.0], 1.0)
        with pytest.raises(ValueError, match="costs must be a flat vector"):
            init_state([[1.0]], 1.0)


class TestRetentionState:
    @pytest.mark.parametrize(
        "probs, costs, budget",
        [
            ([0.5], [0.0], 1.0),
            ([0.5], [-1.0], 1.0),
            ([0.5], [float("nan")], 1.0),
            ([0.5, 0.5], [1.0], 1.0),
            ([[0.5]], [[1.0]], 1.0),
            ([0.5], [1.0], -1.0),
            ([0.5], [1.0], float("nan")),
            ([0.5], [1.0], float("inf")),
        ],
        ids=[
            "zero cost",
            "negative cost",
            "nan cost",
            "short probs",
            "2-d",
            "negative budget",
            "nan budget",
            "inf budget",
        ],
    )
    def test_rejects_bad_inputs_when_built(self, probs, costs, budget):
        with pytest.raises(ValueError):
            RetentionState(probs=probs, costs=costs, budget=budget)

    def test_derives_what_the_step_needs(self):
        state = RetentionState(probs=[0.5, 1], costs=[2, 3], budget=4)
        assert state.probs.dtype == state.costs.dtype == np.float64
        np.testing.assert_array_equal(state.costs_sq, [4.0, 9.0])
        assert type(state.budget) is float and state.budget == 4.0


class TestSampleMask:
    def test_degenerate_probabilities_exact(self, rng):
        state = RetentionState(probs=np.zeros(6), costs=np.ones(6), budget=6.0)
        np.testing.assert_array_equal(sample_mask(state, rng), np.zeros(6))
        state = RetentionState(probs=np.ones(6), costs=np.ones(6), budget=6.0)
        np.testing.assert_array_equal(sample_mask(state, rng), np.ones(6))
        assert sample_mask(state, rng).dtype == np.int8

    def test_mean_matches_probability(self, rng):
        state = RetentionState(probs=np.array([0.3]), costs=np.ones(1), budget=1.0)
        draws = np.array([sample_mask(state, rng)[0] for _ in range(100_000)])
        assert 0.294 <= draws.mean() <= 0.306

    def test_variance_at_half(self, rng):
        state = RetentionState(probs=np.array([0.5]), costs=np.ones(1), budget=1.0)
        draws = np.array([sample_mask(state, rng)[0] for _ in range(100_000)], dtype=float)
        assert abs(draws.var() - 0.25) <= 0.005


class TestLogProbGrad:
    def test_hand_values(self):
        np.testing.assert_allclose(log_prob_grad([1], [0.5], 0.0), [2.0])
        np.testing.assert_allclose(log_prob_grad([0], [0.5], 0.0), [-2.0])
        np.testing.assert_allclose(log_prob_grad([1], [1.0], 1e-8), [0.0])

    def test_vectorized(self):
        out = log_prob_grad([1, 0], [0.5, 0.5], 0.0)
        np.testing.assert_allclose(out, [2.0, -2.0])


class TestReinforceStep:
    def test_baseline_update_arithmetic(self):
        cfg = PolicyGradientConfig(window=1)
        state = init_state([1.0], 1.0)
        reinforce_step(state, np.array([1]), 1.0, cfg)
        assert state.baseline == pytest.approx(0.1, abs=1e-15)
        # advantage 0.9 pushed the kept-candidate probability down
        expected = 0.5 - cfg.learning_rate * 0.9 * (0.5 / (0.25 + EPSILON))
        assert state.probs[0] == pytest.approx(expected, abs=1e-12)

    def test_zero_advantage_leaves_probs_unchanged(self):
        cfg = PolicyGradientConfig(baseline_beta=0.5, window=1)
        state = init_state([1.0, 1.0], 2.0)
        state.probs = np.array([0.3, 0.6])
        state.baseline = 2.5
        reinforce_step(state, np.array([1, 0]), 2.5, cfg)
        np.testing.assert_array_equal(state.probs, [0.3, 0.6])

    def test_windowed_signal_with_plain_averaging(self):
        cfg = PolicyGradientConfig(baseline_beta=0.0, window=5, learning_rate=1e-9)
        state = init_state([1.0], 1.0)
        seen = []
        for k, loss in enumerate([1.0, 2.0, 3.0, 4.0, 5.0, 6.0], start=1):
            reinforce_step(state, np.array([0]), loss, cfg)
            seen.append(loss)
            assert len(state.recent_losses) == min(k, 5)
            assert state.baseline == pytest.approx(np.mean(seen[-5:]), abs=1e-12)

    def test_single_candidate_learns_to_keep(self):
        # keeping the candidate scores 0, dropping it scores 1
        cfg = PolicyGradientConfig(window=1)
        state = init_state([1.0], 1.0)
        rng = np.random.default_rng(0)
        for _ in range(500):
            bits = sample_mask(state, rng)
            loss = 0.0 if bits[0] else 1.0
            reinforce_step(state, bits, loss, cfg)
        assert state.probs[0] >= 0.95

    def test_budget_respected_after_every_step(self, rng):
        cfg = PolicyGradientConfig(window=1)
        costs = np.array([1.0, 1.0, 1.0])
        state = init_state(costs, 1.5)
        for _ in range(50):
            bits = sample_mask(state, rng)
            loss = float(np.sum(bits))
            reinforce_step(state, bits, loss, cfg)
            assert float(costs @ state.probs) <= 1.5 + 1e-9
            assert np.all(state.probs >= 0.0) and np.all(state.probs <= 1.0)

    @pytest.mark.parametrize("loss", [float("inf"), float("-inf"), float("nan")])
    def test_rejects_non_finite_loss(self, loss):
        state = init_state([1.0, 1.0], 1.0)
        before = state.probs.copy()
        with pytest.raises(ValueError, match="task loss must be finite"):
            reinforce_step(state, np.array([1, 0]), loss, PolicyGradientConfig())
        np.testing.assert_array_equal(state.probs, before)
        assert state.recent_losses == [] and state.baseline == 0.0

    @given(
        probs=hnp.arrays(
            np.float64,
            st.integers(min_value=1, max_value=10),
            elements=st.floats(min_value=0.0, max_value=1.0),
        ),
        loss=st.floats(min_value=-10.0, max_value=10.0),
        learning_rate=st.floats(min_value=0.01, max_value=50.0),
        frac=st.floats(min_value=0.0, max_value=1.2),
        seed=st.integers(min_value=0, max_value=2**16),
    )
    def test_step_projects_like_project_to_budget(self, probs, loss, learning_rate, frac, seed):
        # large steps push every probability out of (0, 1): an empty free set
        n = probs.size
        costs = np.where(np.arange(n) < 2, 48.0, 1.0)
        state = RetentionState(probs=probs, costs=costs, budget=frac * float(costs.sum()))
        bits = np.random.default_rng(seed).integers(0, 2, n).astype(np.int8)
        cfg = PolicyGradientConfig(learning_rate=learning_rate, window=1, baseline_beta=0.5)
        advantage = loss - 0.5 * loss
        grad = log_prob_grad(bits, np.clip(probs, 1e-6, 1.0 - 1e-6), EPSILON)
        expected = project_to_budget(probs - learning_rate * advantage * grad, costs, state.budget)
        reinforce_step(state, bits, loss, cfg)
        assert state.probs.tobytes() == expected.tobytes()


@st.composite
def projection_inputs(draw):
    """(s, c, budget) in one regime of the projection: a feasible clip, a
    binding budget, budget 0, or a start whose free set is empty (every s
    at or beyond a face of the box)."""
    n = draw(st.integers(min_value=1, max_value=12))
    regime = draw(st.sampled_from(["feasible", "binding", "zero", "empty free set"]))
    if regime == "empty free set":
        elements = st.one_of(st.floats(1.0, 3.0), st.floats(-2.0, 0.0))
    else:
        elements = st.floats(-2.0, 3.0)
    s = draw(hnp.arrays(np.float64, n, elements=elements))
    costs = st.one_of(st.sampled_from([1.0, 48.0, 512.0]), st.floats(0.1, 600.0))
    c = draw(hnp.arrays(np.float64, n, elements=costs))
    spend = float(c @ np.clip(s, 0.0, 1.0))
    if regime == "zero":
        return s, c, 0.0
    frac = draw(st.floats(1.0, 2.0) if regime == "feasible" else st.floats(0.01, 0.99))
    return s, c, frac * spend


class TestProjectToBudget:
    def test_feasible_input_only_clipped(self):
        out = project_to_budget([0.3, -0.2, 1.4], np.ones(3), 10.0)
        np.testing.assert_array_equal(out, [0.3, 0.0, 1.0])

    def test_clip_alone_can_satisfy_budget(self):
        out = project_to_budget([1.2, -0.1], np.ones(2), 2.0)
        np.testing.assert_array_equal(out, [1.0, 0.0])

    def test_uniform_overshoot_splits_evenly(self):
        out = project_to_budget([0.8, 0.8, 0.8], np.ones(3), 1.5)
        np.testing.assert_allclose(out, [0.5, 0.5, 0.5], atol=1e-9)

    def test_rejects_bad_inputs(self):
        with pytest.raises(ValueError):
            project_to_budget([0.5], [1.0], -1.0)
        with pytest.raises(ValueError):
            project_to_budget([0.5, 0.5], [1.0], 1.0)
        with pytest.raises(ValueError):
            project_to_budget([0.5], [0.0], 1.0)

    @pytest.mark.parametrize(
        "probs, costs, budget",
        [
            ([float("nan"), 0.5], [1.0, 1.0], 1.0),  # was returned as [nan, 0.5]
            ([0.5, 0.5], [1.0, 1.0], float("nan")),  # was returned unprojected
            ([0.5, 0.5], [1.0, 1.0], float("inf")),
            ([0.5, 0.5], [1.0, float("inf")], 1.0),
            ([0.5, 0.5], [1.0, float("nan")], 1.0),
            ([float("inf"), 0.5], [1.0, 1.0], 1.0),
        ],
        ids=["nan prob", "nan budget", "inf budget", "inf cost", "nan cost", "inf prob"],
    )
    def test_rejects_non_finite_inputs(self, probs, costs, budget):
        with pytest.raises(ValueError, match="finite|positive"):
            project_to_budget(probs, costs, budget)

    @given(projection_inputs())
    def test_step_kernel_returns_the_public_bits(self, inputs):
        s, c, budget = inputs
        state = RetentionState(probs=s, costs=c, budget=budget)
        kernel = allocator._project(state.probs, state.costs, state.costs_sq, state.budget)
        public = project_to_budget(s, c, budget)
        assert kernel.tobytes() == public.tobytes()
        assert float(c @ public) <= budget * (1.0 + 1e-12)
        np.testing.assert_allclose(public, breakpoint_projection(s, c, budget), rtol=0, atol=1e-9)

    def test_matches_quadratic_program(self):
        rng = np.random.default_rng(11)
        for _ in range(5):
            n = int(rng.integers(2, 7))
            s = rng.uniform(-0.5, 1.5, n)
            c = rng.uniform(0.2, 5.0, n)
            budget = float(rng.uniform(0.3, 0.9) * c.sum())
            mine = project_to_budget(s, c, budget)
            oracle = projection_oracle(s, c, budget)
            np.testing.assert_allclose(mine, oracle, atol=2e-5)

    @given(
        s=hnp.arrays(
            np.float64,
            st.integers(min_value=1, max_value=8),
            elements=st.floats(min_value=-2.0, max_value=3.0, allow_nan=False),
        ),
        cost_scale=st.floats(min_value=0.1, max_value=10.0),
        frac=st.floats(min_value=0.05, max_value=1.5),
    )
    def test_kkt_certificate(self, s, cost_scale, frac):
        n = s.size
        c = cost_scale * (1.0 + np.arange(n, dtype=np.float64) % 3)
        budget = float(frac * c.sum())
        x = project_to_budget(s, c, budget)
        assert np.all(x >= 0.0) and np.all(x <= 1.0)
        spend = float(c @ x)
        assert spend <= budget + 1e-9
        clipped = np.clip(s, 0.0, 1.0)
        if float(c @ clipped) <= budget:
            np.testing.assert_array_equal(x, clipped)
            return
        # constraint binds; interior coordinates share one multiplier
        assert abs(spend - budget) <= 1e-9
        interior = (x > 1e-6) & (x < 1.0 - 1e-6)
        if interior.any():
            nus = (s[interior] - x[interior]) / c[interior]
            nu = float(nus[0])
            np.testing.assert_allclose(nus, nu, atol=1e-5)
            assert nu >= -1e-9
            assert np.all(s[x <= 1e-6] - nu * c[x <= 1e-6] <= 1e-5)
            assert np.all(s[x >= 1.0 - 1e-6] - nu * c[x >= 1.0 - 1e-6] >= 1.0 - 1e-5)

    def test_idempotent(self, rng):
        s = rng.uniform(-0.5, 1.5, 6)
        c = rng.uniform(0.5, 3.0, 6)
        budget = 0.4 * float(c.sum())
        once = project_to_budget(s, c, budget)
        twice = project_to_budget(once, c, budget)
        np.testing.assert_allclose(twice, once, atol=1e-9)


class TestProjectionAgainstBreakpointSearch:
    def test_matches_reference_on_stage2_sized_inputs(self):
        rng = np.random.default_rng(5)
        budgets = []
        # (candidates, triplets, m + n): toy layers, toy stacks, 256x256 stacks
        shapes = [(5, 1, 40), (40, 2, 56), (91, 5, 48), (400, 10, 56)]
        shapes += [(3298, 21, 512), (9894, 63, 512), (10_000, 63, 512)]
        for n, triplets, triplet_cost in shapes:
            for _ in range(4):
                s, c, budget = stage2_projection_input(rng, n, triplets, triplet_cost)
                x = project_to_budget(s, c, budget)
                np.testing.assert_allclose(x, breakpoint_projection(s, c, budget), rtol=0, atol=1e-12)
                assert abs(float(c @ x) - budget) <= 1e-12 * budget
                budgets.append(budget)
        assert min(budgets) < 1e2 and max(budgets) > 1.5e4  # the workloads' range

    def test_zero_budget_keeps_nothing(self, rng):
        s, c, _ = stage2_projection_input(rng, 500)
        np.testing.assert_array_equal(project_to_budget(s, c, 0.0), np.zeros(500))
        # a Newton step onto the last breakpoint leaves 2.2e-16 here
        np.testing.assert_array_equal(project_to_budget([1.2], [5.0], 0.0), [0.0])

    def test_cycling_newton_steps_are_bracketed(self):
        # unguarded Newton alternates between nu = 0.2 and nu = 0.25; the
        # root nu = 0.225 lies between them
        s, c = np.array([1.4, -0.2, 0.5]), np.array([2.0, 3.0, 2.0])
        x = project_to_budget(s, c, 2.0)
        np.testing.assert_allclose(x, [0.95, 0.0, 0.05], rtol=0, atol=1e-15)
        np.testing.assert_allclose(x, breakpoint_projection(s, c, 2.0), rtol=0, atol=1e-15)

    def test_single_candidate(self):
        np.testing.assert_allclose(project_to_budget([2.5], [3.0], 1.5), [0.5], rtol=0, atol=1e-15)

    def test_root_on_a_breakpoint(self):
        # nu = 0.25 sends the third coordinate exactly to 0
        x = project_to_budget([0.875, 0.5, 0.25], np.ones(3), 0.875)
        np.testing.assert_array_equal(x, [0.625, 0.25, 0.0])

    def test_probabilities_on_the_box_faces(self, rng):
        s = rng.choice([0.0, 1.0, 0.5, 1.5, -0.5], 200)
        c = np.where(np.arange(200) < 5, 40.0, 1.0)
        budget = 0.5 * float(c @ np.clip(s, 0.0, 1.0))
        x = project_to_budget(s, c, budget)
        np.testing.assert_allclose(x, breakpoint_projection(s, c, budget), rtol=0, atol=1e-12)
        assert abs(float(c @ x) - budget) <= 1e-12 * budget

    def test_equal_costs(self, rng):
        s = rng.normal(0.5, 1.0, 1000)
        c = np.full(1000, 7.0)
        budget = 0.4 * float(c @ np.clip(s, 0.0, 1.0))
        x = project_to_budget(s, c, budget)
        np.testing.assert_allclose(x, breakpoint_projection(s, c, budget), rtol=0, atol=1e-12)
        assert abs(float(c @ x) - budget) <= 1e-12 * budget


class TestFinalizeMasks:
    def test_greedy_skips_unaffordable(self):
        state = RetentionState(
            probs=np.array([0.9, 0.8, 0.7]), costs=np.array([4.0, 1.0, 1.0]), budget=5.0
        )
        np.testing.assert_array_equal(finalize_masks(state), [1, 1, 0])

    def test_full_budget_keeps_everything(self):
        state = RetentionState(
            probs=np.array([0.2, 0.9, 0.5]), costs=np.array([2.0, 3.0, 1.0]), budget=6.0
        )
        np.testing.assert_array_equal(finalize_masks(state), [1, 1, 1])

    def test_zero_budget_keeps_nothing(self):
        state = RetentionState(
            probs=np.array([0.9, 0.9]), costs=np.array([1.0, 1.0]), budget=0.0
        )
        np.testing.assert_array_equal(finalize_masks(state), [0, 0])

    def test_ties_keep_pool_order(self):
        state = RetentionState(
            probs=np.array([0.5, 0.5, 0.5]), costs=np.array([1.0, 1.0, 1.0]), budget=2.0
        )
        np.testing.assert_array_equal(finalize_masks(state), [1, 1, 0])

    def test_selection_invariant_to_probability_scaling(self, rng):
        probs = rng.uniform(0.05, 0.95, 10)
        costs = rng.uniform(1.0, 4.0, 10)
        a = RetentionState(probs=probs, costs=costs, budget=9.0)
        b = RetentionState(probs=0.5 * probs, costs=costs, budget=9.0)
        np.testing.assert_array_equal(finalize_masks(a), finalize_masks(b))

    @given(
        probs=hnp.arrays(
            np.float64,
            st.integers(min_value=1, max_value=10),
            elements=st.floats(min_value=0.0, max_value=1.0, allow_nan=False),
        ),
        frac=st.floats(min_value=0.0, max_value=1.2),
    )
    def test_mask_always_within_budget(self, probs, frac):
        n = probs.size
        costs = 1.0 + np.arange(n, dtype=np.float64) % 4
        budget = float(frac * costs.sum())
        state = RetentionState(probs=probs, costs=costs, budget=budget)
        mask = finalize_masks(state)
        assert set(np.unique(mask)) <= {0, 1}
        assert float(costs @ mask) <= budget + 1e-12


class TestExactExpectedLossGrad:
    def test_constant_loss_has_zero_gradient(self):
        grad = exact_expected_loss_grad([0.3, 0.7], lambda bits: 4.2)
        np.testing.assert_allclose(grad, [0.0, 0.0], atol=1e-12)

    def test_single_candidate_linear_loss(self):
        grad = exact_expected_loss_grad([0.4], lambda bits: 1.0 - float(bits[0]))
        np.testing.assert_allclose(grad, [-1.0], atol=1e-12)

    def test_matches_finite_differences(self):
        table = np.random.default_rng(5).uniform(0.0, 1.0, 8)
        loss_fn = table_loss(table)
        probs = np.array([0.2, 0.5, 0.8])
        grad = exact_expected_loss_grad(probs, loss_fn)
        h = 1e-5
        for k in range(3):
            plus, minus = probs.copy(), probs.copy()
            plus[k] += h
            minus[k] -= h
            fd = (exact_expected_loss(plus, loss_fn) - exact_expected_loss(minus, loss_fn)) / (
                2 * h
            )
            assert grad[k] == pytest.approx(fd, abs=1e-6)

    def test_size_cap(self):
        with pytest.raises(ValueError):
            exact_expected_loss_grad(np.full(17, 0.5), lambda bits: 0.0)


class TestEstimatorStatistics:
    def sample_gradients(self, probs, table, n_draws, delta, seed=123):
        rng = np.random.default_rng(seed)
        bits = (rng.random((n_draws, probs.size)) < probs).astype(np.float64)
        codes = (bits.astype(np.int64) @ (1 << np.arange(probs.size))).astype(np.int64)
        losses = table[codes]
        scores = (bits - probs) / (probs * (1.0 - probs))
        return (losses - delta)[:, None] * scores

    @pytest.mark.parametrize("delta", [0.0, 0.37])
    def test_estimator_mean_matches_exact_gradient(self, delta):
        probs = np.array([0.3, 0.5, 0.7, 0.4])
        table = np.random.default_rng(9).uniform(0.0, 1.0, 16)
        exact = exact_expected_loss_grad(probs, table_loss(table))
        g = self.sample_gradients(probs, table, 200_000, delta)
        mean = g.mean(axis=0)
        se = g.std(axis=0, ddof=1) / np.sqrt(g.shape[0])
        np.testing.assert_array_less(np.abs(mean - exact), 3.0 * se + 1e-12)

    def test_vectorized_scores_match_log_prob_grad(self):
        probs = np.array([0.3, 0.5, 0.7, 0.4])
        bits = np.array([1.0, 0.0, 1.0, 0.0])
        manual = (bits - probs) / (probs * (1.0 - probs))
        np.testing.assert_allclose(manual, log_prob_grad(bits, probs, 0.0), rtol=1e-7)
