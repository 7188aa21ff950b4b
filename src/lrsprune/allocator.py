"""Budgeted Bernoulli retention learning.

Every candidate k carries a retention probability s_k, starting at
INITIAL_PROB. One binary mask is sampled per step, its task loss is scored
against a moving baseline, and the probabilities follow the score-function
gradient

    d log p(m) / d s_k = (m_k - s_k) / (s_k (1 - s_k) + eps)

followed by Euclidean projection onto the cost-weighted budget polytope
{ s : sum_k c_k s_k <= K, 0 <= s_k <= 1 }. ``greedy_fill`` turns any key,
the final probabilities among them, into a hard selection under the budget
by a deterministic sweep in descending-key order.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

PROB_CLIP = 1e-6  # gradient clearance from the hard 0/1 boundary; sampling is exact
INITIAL_PROB = 0.5  # every candidate's retention probability before the projection
EPSILON = 1e-8  # the eps of the score-function gradient's denominator
LEARNING_RATE = 0.05  # step along the advantage-weighted gradient, before the projection
BASELINE_BETA = 0.9  # weight of the old baseline in its moving average
WINDOW = 5  # recent losses averaged into the baseline signal


@dataclass
class PolicyGradientConfig:
    # a budget group takes iterations * calib.n learning steps, each scoring every record
    iterations: int = 3
    seed: int = 0

    def __post_init__(self):
        if self.iterations < 1:
            raise ValueError("iterations must be at least 1")
        if self.seed < 0:
            raise ValueError(f"seed must be non-negative, got {self.seed}")


@dataclass
class RetentionState:
    """Retention probabilities of one budget group. The inputs are checked
    here, once; the steps that update the state check nothing again."""

    probs: np.ndarray
    costs: np.ndarray
    budget: float
    baseline: float = 0.0
    recent_losses: list = field(default_factory=list, repr=False)
    costs_sq: np.ndarray = field(init=False, repr=False)  # c * c, the projection's slopes

    def __post_init__(self):
        self.probs = np.asarray(self.probs, dtype=np.float64)
        self.costs = c = np.asarray(self.costs, dtype=np.float64)
        if c.ndim != 1:
            raise ValueError("costs must be a flat vector")
        if self.probs.shape != c.shape:
            raise ValueError("probs and costs must be flat vectors of equal length")
        if not (c > 0).all():
            raise ValueError("candidate costs must be positive")
        if not (math.isfinite(self.budget) and self.budget >= 0):
            raise ValueError(f"budget must be finite and non-negative, got {self.budget}")
        self.budget = float(self.budget)
        self.costs_sq = c * c


def init_state(pool_costs, budget) -> RetentionState:
    """Every probability at INITIAL_PROB, projected onto the budget."""
    if not budget > 0:
        raise ValueError(f"budget must be positive, got {budget}")
    costs = np.asarray(pool_costs, dtype=np.float64)
    state = RetentionState(probs=np.full(costs.shape, INITIAL_PROB), costs=costs, budget=budget)
    state.probs = _project(state.probs, state.costs, state.costs_sq, state.budget)
    return state


def sample_mask(state: RetentionState, rng: np.random.Generator) -> np.ndarray:
    """Independent Bernoulli draw per candidate; p = 0 and p = 1 are exact.
    The int8 mask is the comparison's bool array viewed, not copied."""
    return np.less(rng.random(state.probs.size), state.probs).view(np.int8)


def log_prob_grad(mask, probs, epsilon: float) -> np.ndarray:
    """Gradient of log p(mask) in the retention probabilities."""
    probs = np.asarray(probs, dtype=np.float64)
    den = probs * (1.0 - probs) + epsilon
    return np.divide(np.subtract(mask, probs, dtype=np.float64), den, out=den)


def reinforce_step(state: RetentionState, bits, loss: float) -> RetentionState:
    """One update from one scored mask.

    Fold the loss into the moving baseline, move every probability along the
    advantage-weighted score-function gradient and project back onto the
    budget polytope. The state is updated in place and returned. A loss that
    is not finite raises ValueError: it would turn every probability NaN.
    """
    loss = float(loss)
    if not math.isfinite(loss):
        raise ValueError(f"task loss must be finite, got {loss}")
    probs = state.probs
    state.recent_losses.append(loss)
    del state.recent_losses[:-WINDOW]
    signal = sum(state.recent_losses) / len(state.recent_losses)
    state.baseline = BASELINE_BETA * state.baseline + (1.0 - BASELINE_BETA) * signal
    advantage = loss - state.baseline
    step = log_prob_grad(bits, np.minimum(np.maximum(probs, PROB_CLIP), 1.0 - PROB_CLIP), EPSILON)
    step *= LEARNING_RATE * advantage
    np.subtract(probs, step, out=step)  # probs - lr * advantage * grad, in the gradient's array
    state.probs = _project(step, state.costs, state.costs_sq, state.budget)
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
    On a piece with an empty free set, where ``spend`` is flat, the step is
    solved from the piece past the next breakpoint toward the root instead.
    A step that leaves the bracket of the root is replaced by a bisection
    step. There is no tolerance: the result meets the budget up to the
    rounding of its arithmetic.

    The inputs are checked as a ``RetentionState`` is, then projected by the
    kernel that ``reinforce_step`` runs unchecked, whose feasibility check
    is its first Newton pass. A NaN or infinite input makes that spend, or
    the bracket, non-finite and raises ValueError.
    """
    state = RetentionState(probs=probs, costs=costs, budget=budget)
    return _project(state.probs, state.costs, state.costs_sq, state.budget)


def _project(s, c, c2, budget: float) -> np.ndarray:
    """``project_to_budget`` on checked inputs, with ``c2 = c * c``."""
    x = s  # s - nu c at nu = 0, bit for bit
    clipped = np.minimum(np.maximum(s, 0.0), 1.0)
    spend = float(c @ clipped)
    if not math.isfinite(spend):
        raise ValueError("probabilities, costs and budget must be finite")
    if spend <= budget:
        return clipped
    if budget == 0.0:  # past the last breakpoint, where a rounded root may not reach
        return np.zeros_like(s)
    lo, hi = 0.0, float((np.maximum(s, 1.0) / c).max())  # spend(lo) > budget > spend(hi) == 0
    if not math.isfinite(hi):
        raise ValueError("probabilities must be finite and costs not vanishingly small")
    nu, piece = lo, None  # the free and upper sets nu was solved from, as bytes
    for _ in range(200):
        upper = x >= 1.0
        free = (x > 0.0) ^ upper  # 0 < x < 1, as x >= 1 implies x > 0
        key = free.tobytes() + upper.tobytes()
        if key == piece:
            return clipped  # nu is the root of its own piece
        gap = spend - budget
        if gap == 0.0:
            return clipped
        if gap > 0.0:
            lo = nu
        else:
            hi = nu
        slope, start = float(c2 @ free), nu
        if slope == 0.0:  # spend is flat up to the next breakpoint toward the root
            if gap > 0.0:  # where the first upper candidates turn free
                points = (s - 1.0) / c
                start = float(points[upper].min())
                free = upper & (points == start)
                upper ^= free
            else:  # where the first lower ones with s > 0 do
                points = s / c
                ahead = ~upper & (s > 0.0)
                start = float(points[ahead].max())
                free = ahead & (points == start)
            key = free.tobytes() + upper.tobytes()  # the piece past that breakpoint
            slope = float(c2 @ free)
        if slope > 0.0 and lo < (step := start + gap / slope) < hi:
            nu, piece = step, key
        else:
            nu, piece = 0.5 * (lo + hi), None
        x = s - nu * c
        clipped = np.minimum(np.maximum(x, 0.0), 1.0)
        spend = float(c @ clipped)
    return np.minimum(np.maximum(s - hi * c, 0.0), 1.0)  # feasible side of the final bracket


def greedy_fill(keys, costs, budget) -> np.ndarray:
    """Hard selection under the budget: candidates are visited by descending
    key (ties keep pool order) and kept whenever their cost still fits.

    Costs are positive integers, so float64 sums of them are exact. Each pass
    drops the candidates that no longer fit alone, then keeps the longest
    prefix of the rest that fits; the first candidate past that prefix fits
    no more. Each pass's misfit costs less than the last one's, so there are
    at most as many passes as distinct costs.
    """
    costs = np.asarray(costs, dtype=np.float64)
    mask = np.zeros(costs.size, dtype=np.int8)
    remaining = float(budget)
    order = np.argsort(-np.asarray(keys), kind="stable")
    while (order := order[costs[order] <= remaining]).size:
        spent = np.cumsum(costs[order])
        n = int(np.searchsorted(spent, remaining, side="right"))
        mask[order[:n]] = 1
        remaining -= float(spent[n - 1])
        order = order[n:]
    return mask

