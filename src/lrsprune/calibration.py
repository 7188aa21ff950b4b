"""Toy multilayer models, calibration data, and masked-reconstruction losses.

A model is a stack of dense weight matrices applied left to right,
``h <- act(h @ W)``, with the activation between layers only. The task loss
is the squared output error summed over coordinates and averaged over the
calibration records.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .linalg import as_matrix
from .pool import CandidatePool

ACTIVATIONS = ("relu", "identity")

# default planted toy model: shapes, rank rule min(m, n) // 12, 5% outliers,
# per-layer geometric spectrum decays (steep / flat / middling)
TOY_SHAPES = ((32, 24), (24, 24), (24, 16))
TOY_OUTLIER_FRAC = 0.05
TOY_OUTLIER_SCALE = 10.0
TOY_SPECTRUM_DECAYS = (0.85, 0.95, 0.9)


def _forward(weights, activation: str, x: np.ndarray) -> np.ndarray:
    h = x
    last = len(weights) - 1
    for i, w in enumerate(weights):
        h = h @ w
        if i < last and activation == "relu":
            h = np.maximum(h, 0.0)
    return h


@dataclass
class ToyModel:
    layers: list
    activation: str = "relu"

    def __post_init__(self):
        if not self.layers:
            raise ValueError("model needs at least one layer")
        self.layers = [as_matrix(w) for w in self.layers]
        for i in range(len(self.layers) - 1):
            if self.layers[i].shape[1] != self.layers[i + 1].shape[0]:
                raise ValueError(
                    f"layer {i} output dim {self.layers[i].shape[1]} does not feed "
                    f"layer {i + 1} input dim {self.layers[i + 1].shape[0]}"
                )
        if self.activation not in ACTIVATIONS:
            raise ValueError(f"activation must be one of {ACTIVATIONS}")

    @property
    def input_dim(self) -> int:
        return self.layers[0].shape[0]

    @property
    def output_dim(self) -> int:
        return self.layers[-1].shape[1]

    @property
    def dense_params(self) -> int:
        return int(sum(w.size for w in self.layers))

    def forward(self, x) -> np.ndarray:
        x = np.asarray(x, dtype=np.float64)
        return _forward(self.layers, self.activation, x)


@dataclass
class CalibrationSet:
    inputs: np.ndarray  # (n, input_dim)
    targets: np.ndarray  # (n, output_dim)

    def __post_init__(self):
        self.inputs = as_matrix(self.inputs)
        self.targets = as_matrix(self.targets)
        if self.inputs.shape[0] != self.targets.shape[0]:
            raise ValueError("inputs and targets must pair up row by row")

    @property
    def size(self) -> int:
        return int(self.inputs.shape[0])


def gen_calibration(
    model: ToyModel, n: int, noise_sigma: float, rng: np.random.Generator
) -> CalibrationSet:
    """Standard-normal probes with the model's own outputs as targets,
    optionally perturbed by isotropic noise."""
    if n < 1:
        raise ValueError("need at least one calibration record")
    if noise_sigma < 0:
        raise ValueError("noise_sigma must be non-negative")
    x = rng.standard_normal((n, model.input_dim))
    y = model.forward(x)
    if noise_sigma > 0:
        y = y + noise_sigma * rng.standard_normal(y.shape)
    return CalibrationSet(inputs=x, targets=y)


def _output_loss(out: np.ndarray, calib: CalibrationSet) -> float:
    """Mean over records of the squared error of the outputs ``out``, which it overwrites."""
    out -= calib.targets
    out *= out
    return float(np.add.reduce(np.add.reduce(out, axis=1)) / out.shape[0])


def _task_loss(weights, activation: str, calib: CalibrationSet) -> float:
    """Mean over records of the squared output error of a weight stack; overflow does not warn."""
    with np.errstate(over="ignore", invalid="ignore"):
        return _output_loss(_forward(weights, activation, calib.inputs), calib)


def forward_loss(model: ToyModel, calib: CalibrationSet) -> float:
    """Mean over records of the squared output error."""
    return _task_loss(model.layers, model.activation, calib)


def _split(pool: CandidatePool, mask) -> tuple[np.ndarray, np.ndarray]:
    """Kept-triplet and kept-entry flags of a mask over the pool."""
    mask = np.asarray(mask)
    if mask.shape != (pool.size,):
        raise ValueError(f"mask length {mask.shape} does not match pool size {pool.size}")
    t = pool.n_triplets
    return mask[:t] != 0, mask[t:] != 0


def reconstruct(pool: CandidatePool, mask) -> np.ndarray:
    """Dense weight rebuilt from the retained candidates: the product of the
    kept singular triplets, with the kept sparse entries added at their
    positions. Stage 2's group rebuild computes the same values in place."""
    keep_t, keep_e = _split(pool, mask)
    w = pool.triplet_us[:, keep_t] @ pool.triplet_vt[keep_t]
    w.reshape(-1)[pool.entry_flat[keep_e]] += pool.entry_values[keep_e]
    return w


@dataclass
class CompressedLayer:
    """Stored form of one pruned layer: ``u_prime @ v_prime.T + s_masked``."""

    u_prime: np.ndarray  # (rows, r'), columns sqrt(sigma_i) u_i, descending sigma
    v_prime: np.ndarray  # (cols, r')
    s_masked: np.ndarray  # (rows, cols), retained sparse entries only
    mask: np.ndarray
    retained_rank: int

    @property
    def stored_params(self) -> int:
        return int(
            self.u_prime.size + self.v_prime.size + np.count_nonzero(self.s_masked)
        )

    def dense(self) -> np.ndarray:
        return self.u_prime @ self.v_prime.T + self.s_masked


def factorize(pool: CandidatePool, mask) -> CompressedLayer:
    """Split the retained triplets into balanced factors via sqrt(sigma)."""
    keep_t, keep_e = _split(pool, mask)
    root = np.sqrt(pool.svd.sigma[keep_t])
    u_prime = np.ascontiguousarray(pool.svd.u[:, keep_t] * root)
    v_prime = np.ascontiguousarray(pool.svd.v[:, keep_t] * root)
    s_masked = np.zeros(pool.rows * pool.cols)
    s_masked[pool.entry_flat[keep_e]] = pool.entry_values[keep_e]
    return CompressedLayer(
        u_prime=u_prime,
        v_prime=v_prime,
        s_masked=s_masked.reshape(pool.rows, pool.cols),
        mask=np.asarray(mask, dtype=np.int8).copy(),
        retained_rank=int(np.count_nonzero(keep_t)),
    )


def loss_with_masks(model: ToyModel, pools, masks, calib: CalibrationSet) -> float:
    """Task loss with the pooled layers swapped for their masked rebuilds.

    ``pools`` and ``masks`` map layer index to a CandidatePool / mask; layers
    without an entry keep their dense weights.
    """
    if set(pools) != set(masks):
        raise ValueError("pools and masks must cover the same layers")
    weights = list(model.layers)
    for idx, pool in pools.items():
        if not 0 <= idx < len(weights):
            raise ValueError(f"layer index {idx} out of range")
        weights[idx] = reconstruct(pool, masks[idx])
    return _task_loss(weights, model.activation, calib)


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


def _plant_outliers(l0, rng: np.random.Generator, outlier_frac, outlier_scale):
    """Sparse outliers on a uniform random support, random sign.

    Scalar ``outlier_scale`` plants every outlier at exactly that multiple
    of mean|l0|; a ``(lo, hi)`` pair grades the magnitudes evenly across
    that range so the entries have clearly distinguishable importance.
    """
    rows, cols = l0.shape
    s0 = np.zeros((rows, cols))
    n_out = int(round(outlier_frac * rows * cols))
    if n_out:
        flat = rng.choice(rows * cols, size=n_out, replace=False)
        signs = np.where(rng.random(n_out) < 0.5, -1.0, 1.0)
        if np.ndim(outlier_scale) == 0:
            mags = np.full(n_out, float(outlier_scale))
        else:
            lo, hi = outlier_scale
            mags = np.linspace(float(lo), float(hi), n_out)
        s0.flat[flat] = signs * mags * float(np.mean(np.abs(l0)))
    return s0


def random_orthonormal(
    dim: int, rank: int, rng: np.random.Generator, spread_cap: float = 2.0
) -> np.ndarray:
    """Random orthonormal columns (QR of a standard normal draw).

    Low-rank plus sparse separation is well conditioned only when the
    planted subspace is spread out over the coordinates, so draws are
    rejected until every row norm is at most ``spread_cap`` times the
    flat value sqrt(rank / dim).  At these matrix sizes raw gaussian
    draws cross that line often enough to matter, and deterministic
    bases such as cosines are worse still: they concentrate at boundary
    coordinates.  Pass ``spread_cap=None`` to skip the rejection step.
    """
    if not 1 <= rank <= dim:
        raise ValueError("rank must lie in [1, dim]")
    bound = None if spread_cap is None else spread_cap * np.sqrt(rank / dim)
    for _ in range(200):
        q, r = np.linalg.qr(rng.standard_normal((dim, rank)))
        # fix signs so the factor is unique given the draw
        q = q * np.sign(np.diag(r))
        if bound is None or np.max(np.linalg.norm(q, axis=1)) <= bound:
            return q
    raise ValueError(f"no draw met spread cap {spread_cap} for {dim}x{rank}")


def planted_spectrum_matrix(
    rows: int,
    cols: int,
    rank: int,
    rng: np.random.Generator,
    decay: float = 0.8,
    outlier_frac: float = TOY_OUTLIER_FRAC,
    outlier_scale: float = TOY_OUTLIER_SCALE,
):
    """Low-rank plus sparse matrix with a designed singular spectrum.

    The low-rank part is built from random orthonormal factors with
    singular values sigma_k proportional to decay**k, so every planted
    direction carries comparable real mass instead of the lopsided
    spectrum a plain gaussian product gives. Outliers are planted as in
    planted_matrix, then the whole matrix is rescaled so ||W||_F^2 = cols
    (unit average output second moment under standard normal inputs,
    which keeps task losses O(1) per record).

    Returns:
        (w, l0, s0) with w = l0 + s0.
    """
    if not 0.0 < decay <= 1.0:
        raise ValueError("decay must lie in (0, 1]")
    if not 0.0 <= outlier_frac < 1.0:
        raise ValueError("outlier_frac must lie in [0, 1)")
    u = random_orthonormal(rows, rank, rng)
    v = random_orthonormal(cols, rank, rng)
    sigma = decay ** np.arange(rank)
    sigma *= np.sqrt(cols / np.sum(sigma * sigma))
    l0 = (u * sigma) @ v.T
    s0 = _plant_outliers(l0, rng, outlier_frac, outlier_scale)
    w = l0 + s0
    t = np.sqrt(cols / np.sum(w * w))
    return t * w, t * l0, t * s0


def planted_model(
    shapes,
    rng: np.random.Generator,
    ranks=None,
    decays=None,
    outlier_frac: float = TOY_OUTLIER_FRAC,
    outlier_scale: float = TOY_OUTLIER_SCALE,
    activation: str = "relu",
) -> ToyModel:
    """Stack of planted spectrum layers with O(1) activations.

    ``ranks=None`` plants rank min(m, n) // 12; ``decays=None`` cycles
    through TOY_SPECTRUM_DECAYS so adjacent layers get different spectrum
    shapes and cross-layer allocation is non-trivial.
    """
    shapes = [tuple(s) for s in shapes]
    if ranks is None:
        ranks = [max(1, min(m, n) // 12) for m, n in shapes]
    if decays is None:
        decays = [
            TOY_SPECTRUM_DECAYS[i % len(TOY_SPECTRUM_DECAYS)]
            for i in range(len(shapes))
        ]
    if len(ranks) != len(shapes):
        raise ValueError("one rank per layer required")
    if len(decays) != len(shapes):
        raise ValueError("one decay per layer required")
    layers = []
    for (m, n), r, d in zip(shapes, ranks, decays):
        w, _, _ = planted_spectrum_matrix(
            m,
            n,
            r,
            rng,
            decay=d,
            outlier_frac=outlier_frac,
            outlier_scale=outlier_scale,
        )
        layers.append(w)
    return ToyModel(layers=layers, activation=activation)


def default_toy_model(rng: np.random.Generator) -> ToyModel:
    """Three planted rectifier layers, 32x24 / 24x24 / 24x16."""
    return planted_model(TOY_SHAPES, rng)
