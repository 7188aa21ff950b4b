"""Budgeted Bernoulli retention learning.

Every candidate k carries a retention probability s_k, starting at
INITIAL_PROB. One binary mask is sampled per step, its task loss is scored
against a moving baseline, and the probabilities follow the score-function
gradient

    d log p(m) / d s_k = (m_k - s_k) / (s_k (1 - s_k) + eps)

followed by Euclidean projection onto the cost-weighted budget polytope
{ s : sum_k c_k s_k <= K, 0 <= s_k <= 1 }. The final hard selection is a
deterministic greedy sweep in descending-probability order.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

PROB_CLIP = 1e-6  # gradient clearance from the hard 0/1 boundary; sampling is exact
INITIAL_PROB = 0.5  # every candidate's retention probability before the projection
EPSILON = 1e-8  # the eps of the score-function gradient's denominator


@dataclass
class PolicyGradientConfig:
    learning_rate: float = 0.05
    baseline_beta: float = 0.9
    iterations: int = 3  # outer passes over the calibration set
    window: int = 5  # recent losses averaged into the baseline signal
    seed: int = 0

    def __post_init__(self):
        if not (math.isfinite(self.learning_rate) and self.learning_rate > 0):
            raise ValueError("learning_rate must be positive and finite")
        if not 0.0 <= self.baseline_beta < 1.0:
            raise ValueError("baseline_beta must lie in [0, 1)")
        if self.iterations < 1:
            raise ValueError("iterations must be at least 1")
        if self.window < 1:
            raise ValueError("window must be at least 1")
        if self.seed < 0:
            raise ValueError(f"seed must be non-negative, got {self.seed}")


@dataclass
class RetentionState:
    probs: np.ndarray
    costs: np.ndarray
    budget: float
    baseline: float = 0.0
    recent_losses: list = field(default_factory=list, repr=False)


def init_state(pool_costs, budget) -> RetentionState:
    """Every probability at INITIAL_PROB, projected onto the budget."""
    costs = np.asarray(pool_costs, dtype=np.float64)
    if costs.ndim != 1:
        raise ValueError("costs must be a flat vector")
    if np.any(costs <= 0):
        raise ValueError("candidate costs must be positive")
    if not budget > 0:
        raise ValueError(f"budget must be positive, got {budget}")
    probs = project_to_budget(np.full(costs.shape, INITIAL_PROB), costs, budget)
    return RetentionState(probs=probs, costs=costs, budget=float(budget))


def sample_mask(state: RetentionState, rng: np.random.Generator) -> np.ndarray:
    """Independent Bernoulli draw per candidate; p = 0 and p = 1 are exact."""
    return (rng.random(state.probs.size) < state.probs).astype(np.int8)


def log_prob_grad(mask, probs, epsilon: float) -> np.ndarray:
    """Gradient of log p(mask) in the retention probabilities."""
    mask = np.asarray(mask, dtype=np.float64)
    probs = np.asarray(probs, dtype=np.float64)
    return (mask - probs) / (probs * (1.0 - probs) + epsilon)


def reinforce_step(
    state: RetentionState, bits, loss: float, config: PolicyGradientConfig
) -> RetentionState:
    """One update from one scored mask.

    Fold the loss into the moving baseline, move every probability along the
    advantage-weighted score-function gradient and project back onto the
    budget polytope. The state is updated in place and returned.
    """
    probs = np.asarray(state.probs, dtype=np.float64)
    loss = float(loss)
    state.recent_losses.append(loss)
    del state.recent_losses[: -config.window]
    signal = sum(state.recent_losses) / len(state.recent_losses)
    state.baseline = config.baseline_beta * state.baseline + (1.0 - config.baseline_beta) * signal
    advantage = loss - state.baseline
    grad = log_prob_grad(bits, np.minimum(np.maximum(probs, PROB_CLIP), 1.0 - PROB_CLIP), EPSILON)
    state.probs = project_to_budget(
        probs - config.learning_rate * advantage * grad, state.costs, state.budget
    )
    return state


def project_to_budget(probs, costs, budget) -> np.ndarray:
    """Euclidean projection onto { s : costs . s <= budget, 0 <= s <= 1 }.

    If clipping to the box alone is feasible it is returned directly.
    Otherwise the projection is ``clip(s - nu c, 0, 1)`` for the unique
    multiplier nu > 0 with ``spend(nu) = sum_k c_k clip(s_k - nu c_k, 0, 1)
    = budget``. ``spend`` is piecewise linear, so nu is found exactly by
    Newton's method on it (Cominetti, Mascarenhas & Silva 2014): each step
    solves the linear piece at the current nu, which is fixed by the free
    set ``0 < s - nu c < 1`` and the upper set ``s - nu c >= 1``, and the
    iteration stops when a step lands on the piece it was computed from.
    A step that leaves the bracket of the root, or a piece with an empty
    free set, is replaced by a bisection step. There is no tolerance: the
    result meets the budget up to the rounding of its arithmetic.
    """
    s = np.asarray(probs, dtype=np.float64)
    c = np.asarray(costs, dtype=np.float64)
    if s.ndim != 1 or s.shape != c.shape:
        raise ValueError("probs and costs must be flat vectors of equal length")
    if (c <= 0).any():
        raise ValueError("candidate costs must be positive")
    if budget < 0:
        raise ValueError(f"budget must be non-negative, got {budget}")
    budget = float(budget)

    clipped = np.minimum(np.maximum(s, 0.0), 1.0)
    if float(c @ clipped) <= budget:
        return clipped
    if budget == 0.0:  # past the last breakpoint, where a rounded root may not reach
        return np.zeros_like(s)

    c2 = c * c
    lo = 0.0  # spend(lo) > budget
    hi = float(np.max(np.maximum(s, 1.0) / c))  # spend(hi) == 0 < budget
    nu = lo
    piece = None  # (free, upper) sets the current nu was solved from
    for _ in range(200):
        x = s - nu * c
        upper = x >= 1.0
        free = (x > 0.0) & ~upper
        if piece is not None and np.array_equal(free, piece[0]) and np.array_equal(upper, piece[1]):
            break  # nu is the root of its own piece
        gap = float(c @ np.minimum(np.maximum(x, 0.0), 1.0)) - budget
        if gap == 0.0:
            break
        if gap > 0.0:
            lo = nu
        else:
            hi = nu
        slope = float(c2 @ free)
        if slope > 0.0 and lo < (step := nu + gap / slope) < hi:
            nu, piece = step, (free, upper)
        else:
            nu, piece = 0.5 * (lo + hi), None
    else:
        nu = hi  # feasible side of the final bracket
    return np.minimum(np.maximum(s - nu * c, 0.0), 1.0)


def greedy_fill(keys, costs, budget) -> np.ndarray:
    """Hard selection under the budget: candidates are visited by descending
    key (ties keep pool order) and kept whenever their cost still fits."""
    costs = np.asarray(costs, dtype=np.float64)
    mask = np.zeros(costs.size, dtype=np.int8)
    remaining = float(budget)
    for k in np.argsort(-np.asarray(keys), kind="stable"):
        if costs[k] <= remaining:
            mask[k] = 1
            remaining -= float(costs[k])
    return mask


def finalize_masks(state: RetentionState) -> np.ndarray:
    """Deterministic hard selection under the budget: ``greedy_fill`` keyed by
    the retention probabilities. The result always satisfies the hard budget."""
    return greedy_fill(state.probs, state.costs, state.budget)
