"""Exhaustive reference checks: brute-force selection and exact expectations."""

import itertools

import numpy as np
import pytest

from lrsprune.pool import build_pool
from references import brute_force_best_mask, exact_expected_loss, svd


def zeros_count_loss(bits):
    return float(len(bits) - int(np.sum(bits)))


def small_pool():
    rng = np.random.default_rng(6)
    u = np.linalg.qr(rng.standard_normal((6, 1)))[0]
    v = np.linalg.qr(rng.standard_normal((4, 1)))[0]
    s = np.zeros((6, 4))
    s[0, 1], s[2, 3], s[5, 0] = 3.0, -2.0, 1.0
    return build_pool(svd(5.0 * (u @ v.T)), s)


class TestBruteForce:
    def test_full_budget_keeps_everything(self):
        res = brute_force_best_mask(np.ones(4), 4.0, zeros_count_loss)
        np.testing.assert_array_equal(res.best_mask, [1, 1, 1, 1])
        assert res.best_loss == 0.0
        assert res.enumerated == 16
        assert res.feasible == 16

    def test_zero_budget_keeps_nothing(self):
        res = brute_force_best_mask(np.ones(3), 0.0, zeros_count_loss)
        np.testing.assert_array_equal(res.best_mask, [0, 0, 0])
        assert res.feasible == 1
        assert res.enumerated == 8

    def test_feasible_counts_masks_within_budget(self):
        res = brute_force_best_mask(np.ones(2), 1.0, zeros_count_loss)
        assert res.enumerated == 4
        assert res.feasible == 3  # empty mask and the two singletons

    def test_ties_keep_first_enumerated(self):
        res = brute_force_best_mask(np.ones(3), 3.0, lambda bits: 1.0)
        np.testing.assert_array_equal(res.best_mask, [0, 0, 0])

    def test_candidate_cap(self):
        with pytest.raises(ValueError):
            brute_force_best_mask(np.ones(21), 21.0, zeros_count_loss)

    def test_negative_budget_rejected(self):
        with pytest.raises(ValueError):
            brute_force_best_mask(np.ones(2), -1.0, zeros_count_loss)

    def test_accepts_pool_and_pool_lists(self):
        pool = small_pool()
        res = brute_force_best_mask(pool, float(pool.total_cost), zeros_count_loss)
        assert res.best_mask.size == pool.size
        np.testing.assert_array_equal(res.best_mask, np.ones(pool.size))
        res2 = brute_force_best_mask([pool, pool], 2.0, zeros_count_loss)
        assert res2.best_mask.size == 2 * pool.size

    def test_matches_itertools_enumeration(self):
        rng = np.random.default_rng(8)
        n = 8
        costs = rng.integers(1, 4, n).astype(np.float64)
        table = rng.uniform(0.0, 1.0, 2**n)

        def loss_fn(bits):
            return float(table[int(np.asarray(bits) @ (1 << np.arange(n)))])

        budget = 0.5 * float(costs.sum())
        res = brute_force_best_mask(costs, budget, loss_fn)
        best = min(
            (
                (loss_fn(np.array(bits)), bits)
                for bits in itertools.product((0, 1), repeat=n)
                if float(costs @ np.array(bits)) <= budget
            ),
        )
        assert res.best_loss == best[0]
        assert float(costs @ res.best_mask) <= budget

    def test_unconstrained_budget_finds_global_minimum(self):
        rng = np.random.default_rng(12)
        n = 6
        table = rng.uniform(0.0, 1.0, 2**n)

        def loss_fn(bits):
            return float(table[int(np.asarray(bits) @ (1 << np.arange(n)))])

        res = brute_force_best_mask(np.ones(n), float(n), loss_fn)
        assert res.best_loss == float(table.min())


class TestExactExpectedLoss:
    def test_degenerate_probabilities(self):
        assert exact_expected_loss(np.ones(3), zeros_count_loss) == 0.0
        assert exact_expected_loss(np.zeros(3), zeros_count_loss) == 3.0

    def test_uniform_two_candidate_table(self):
        table = {(0, 0): 0.0, (1, 0): 1.0, (0, 1): 2.0, (1, 1): 3.0}

        def loss_fn(bits):
            return table[tuple(int(b) for b in bits)]

        assert exact_expected_loss([0.5, 0.5], loss_fn) == pytest.approx(1.5, abs=1e-12)

    def test_mask_probabilities_sum_to_one(self):
        # expectation of the constant 1 is exactly the total probability mass
        probs = np.array([0.3, 0.8, 0.15, 0.6])
        assert exact_expected_loss(probs, lambda bits: 1.0) == pytest.approx(1.0, abs=1e-12)

    def test_enumeration_cap_and_domain(self):
        with pytest.raises(ValueError):
            exact_expected_loss(np.full(17, 0.5), lambda bits: 0.0)
        with pytest.raises(ValueError):
            exact_expected_loss([1.2], lambda bits: 0.0)
        with pytest.raises(ValueError):
            exact_expected_loss([-0.1], lambda bits: 0.0)

    def test_matches_direct_sum(self):
        rng = np.random.default_rng(10)
        probs = rng.uniform(0.1, 0.9, 5)
        table = rng.uniform(0.0, 2.0, 32)

        def loss_fn(bits):
            return float(table[int(np.asarray(bits) @ (1 << np.arange(5)))])

        direct = 0.0
        for bits in itertools.product((0, 1), repeat=5):
            b = np.array(bits)
            weight = float(np.prod(np.where(b == 1, probs, 1 - probs)))
            direct += weight * loss_fn(b)
        assert exact_expected_loss(probs, loss_fn) == pytest.approx(direct, rel=1e-12)
