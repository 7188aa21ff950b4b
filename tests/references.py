"""Reference code that only tests call: exhaustive oracles for small
mask-selection problems, a sign-fixed full SVD and the Frobenius norm, a
plain planted matrix, a heavy-tailed stack, and the default toy model and
single-layer job the tests share.

The oracles enumerate every mask, so they are only practical for pools of a
few dozen candidates at most.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from lrsprune.allocator import PolicyGradientConfig
from lrsprune.calibration import (
    ToyModel,
    _plant_outliers,
    gen_calibration,
    planted_model,
    random_orthonormal,
)
from lrsprune.pipeline import CompressionJob
from lrsprune.pool import CandidatePool
from lrsprune.rpca import SvdFactorization, as_matrix, column_signs, thin_svd

BRUTE_FORCE_CAP = 20
ENUMERATION_CAP = 16

# the default planted toy model's layer shapes
TOY_SHAPES = ((32, 24), (24, 24), (24, 16))


def _costs_of(pool) -> np.ndarray:
    if isinstance(pool, CandidatePool):
        return pool.costs
    if isinstance(pool, (list, tuple)) and pool and isinstance(pool[0], CandidatePool):
        return np.concatenate([p.costs for p in pool])
    return np.asarray(pool, dtype=np.float64)


def _all_masks(n: int, cap: int = ENUMERATION_CAP):
    """All 2^n masks over n <= cap candidates; bit k of the code is candidate k."""
    if n > cap:
        raise ValueError(f"enumeration is capped at {cap} candidates, got {n}")
    return (
        np.fromiter(((code >> k) & 1 for k in range(n)), dtype=np.int8, count=n)
        for code in range(2**n)
    )


@dataclass
class OracleResult:
    best_mask: np.ndarray
    best_loss: float
    enumerated: int  # masks examined, 2**n
    feasible: int  # masks within budget, each scored


def brute_force_best_mask(pool, budget, loss_fn) -> OracleResult:
    """Lowest-loss mask within the budget by full enumeration.

    ``pool`` is a CandidatePool, a sequence of them (masks concatenate in
    sequence order), or a plain cost vector. Ties keep the first minimizer
    in enumeration order, which follows the candidate order bit by bit.
    """
    costs = _costs_of(pool)
    n = int(costs.size)
    masks = _all_masks(n, BRUTE_FORCE_CAP)
    if budget < 0:
        raise ValueError("budget must be non-negative")

    best_mask = None
    best_loss = np.inf
    feasible = 0
    for bits in masks:
        if float(costs @ bits) > budget:
            continue
        feasible += 1
        loss = float(loss_fn(bits))
        if loss < best_loss:
            best_loss = loss
            best_mask = bits
    if best_mask is None:
        # only possible when even the empty mask is infeasible, which it never is
        raise RuntimeError("no feasible mask enumerated")
    return OracleResult(best_mask=best_mask, best_loss=best_loss, enumerated=2**n, feasible=feasible)


def exact_expected_loss(probs, loss_fn) -> float:
    """E[loss(mask)] under independent Bernoulli bits, by full enumeration."""
    probs = np.asarray(probs, dtype=np.float64)
    masks = _all_masks(probs.size)
    if np.any((probs < 0.0) | (probs > 1.0)):
        raise ValueError("probabilities must lie in [0, 1]")
    total = 0.0
    for bits in masks:
        weight = float(np.prod(np.where(bits == 1, probs, 1.0 - probs)))
        if weight == 0.0:
            continue
        total += weight * float(loss_fn(bits))
    return total


def exact_expected_loss_grad(probs, loss_fn) -> np.ndarray:
    """Exact gradient of E[loss(mask)] for independent Bernoulli bits, by full enumeration."""
    probs = np.asarray(probs, dtype=np.float64)
    n = int(probs.size)
    grad = np.zeros(n)
    for bits in _all_masks(n):
        weights = np.where(bits == 1, probs, 1.0 - probs)
        loss = float(loss_fn(bits))
        for k in range(n):
            others = float(np.prod(np.delete(weights, k)))
            grad[k] += loss * others * (1.0 if bits[k] else -1.0)
    return grad


def svd(a) -> SvdFactorization:
    """Full thin SVD with ``column_signs``'s sign convention.

    The largest-magnitude entry of every left singular vector is made
    positive (ties resolved to the lowest row index), so repeated calls on
    bit-identical input return bit-identical factors.
    """
    u, sigma, vh = thin_svd(as_matrix(a))
    signs = column_signs(u)
    return SvdFactorization(
        u=np.ascontiguousarray(u * signs),
        sigma=np.ascontiguousarray(sigma),
        v=np.ascontiguousarray(vh.T * signs),
    )


def frobenius_norm(a) -> float:
    return float(np.linalg.norm(as_matrix(a)))


def planted_matrix(
    rows: int,
    cols: int,
    rank: int,
    rng: np.random.Generator,
    outlier_frac: float = 0.05,
    outlier_scale: float = 10.0,
    scale: float | None = None,
):
    """Ground-truth low-rank plus sparse matrix for recovery experiments.

    The low-rank part is a product of standard-normal factors; outliers sit
    on a uniform random support with exact magnitude
    ``outlier_scale * mean|low_rank|`` and random sign. ``scale`` rescales
    the whole construction.

    Returns:
        (w, l0, s0) with w = l0 + s0.
    """
    if rank < 1 or rank > min(rows, cols):
        raise ValueError("rank must lie in [1, min(rows, cols)]")
    if not 0.0 <= outlier_frac < 1.0:
        raise ValueError("outlier_frac must lie in [0, 1)")
    l0 = rng.standard_normal((rows, rank)) @ rng.standard_normal((cols, rank)).T
    s0 = _plant_outliers(l0, rng, outlier_frac, outlier_scale)
    if scale is not None:
        l0 = l0 * scale
        s0 = s0 * scale
    return l0 + s0, l0, s0


def heavy_matrix(rows: int, cols: int, rng: np.random.Generator) -> np.ndarray:
    """A layer shaped like trained weights rather than planted ones: heavy
    tailed spectrum (Martin & Mahoney 2021) and a few outsized input channels
    (Dettmers et al. 2022).

    An orthonormal basis pair, drawn without the spread cap, carries
    sigma_k proportional to 1/k over the full rank; three input-channel rows
    (rows of ``w``, since a layer computes ``h @ w``) are scaled by 10, and
    the whole matrix is rescaled so ||W||_F^2 = cols.
    """
    r = min(rows, cols)
    u = random_orthonormal(rows, r, rng, spread_cap=None)
    v = random_orthonormal(cols, r, rng, spread_cap=None)
    w = (u / np.arange(1, r + 1)) @ v.T
    w[rng.choice(rows, 3, replace=False)] *= 10.0
    return w * np.sqrt(cols / np.sum(w * w))


def heavy_model(shapes, rng: np.random.Generator) -> ToyModel:
    """Stack of ``heavy_matrix`` layers, drawn in order from one generator."""
    return ToyModel(layers=[heavy_matrix(m, n, rng) for m, n in shapes])


def default_toy_model(rng: np.random.Generator) -> ToyModel:
    """Three planted rectifier layers, 32x24 / 24x24 / 24x16."""
    return planted_model(TOY_SHAPES, rng)


def single_layer_job(seed: int, budget_fraction: float, calib_n: int = 256) -> CompressionJob:
    """One 24x16 layer, planted rank 1 plus 7 graded outliers: at most 12
    candidates, so the exhaustive selection oracle stays cheap."""
    rng = np.random.default_rng(seed)
    model = planted_model(
        [(24, 16)], rng, ranks=[1], outlier_frac=7 / 384, outlier_scale=(6.0, 18.0)
    )
    calib = gen_calibration(model, calib_n, 0.0, rng)
    return CompressionJob(
        model=model,
        calib=calib,
        pg_config=PolicyGradientConfig(seed=seed),
        budget_fraction=budget_fraction,
    )
