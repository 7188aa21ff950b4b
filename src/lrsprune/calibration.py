"""Toy multilayer models, calibration data, and task losses.

A model is a stack of dense weight matrices applied left to right,
``h <- relu(h @ W)``, with the rectifier between layers only. The task loss
of a weight stack, ``stack_loss``, is the squared output error summed over
coordinates and averaged over the calibration records. Masks over candidate
pools are scored by ``loss_with_masks``, which rebuilds the masked layers by
``pool.reconstruct``, and with equal losses by ``MaskedLossEvaluator``, which
scores one group's masks in turn, updating its weights and layer inputs in place.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .pool import reconstruct
from .rpca import as_matrix

# planted layers: 5% outliers at 10x the mean low-rank magnitude, per-layer
# geometric spectrum decays (steep / flat / middling)
TOY_OUTLIER_FRAC = 0.05
TOY_OUTLIER_SCALE = 10.0
TOY_SPECTRUM_DECAYS = (0.85, 0.95, 0.9)


def _forward(weights, h: np.ndarray, acts: list | None = None) -> np.ndarray:
    """Output of the stack ``weights`` on its input ``h``; each later layer's
    input is appended to ``acts`` if given, else dropped once it is read."""
    last = len(weights) - 1
    for k, w in enumerate(weights):
        h = h @ w
        if k < last:
            np.maximum(h, 0.0, out=h)
            if acts is not None:
                acts.append(h)
    return h


@dataclass
class ToyModel:
    layers: list

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
        return _forward(self.layers, np.asarray(x, dtype=np.float64))


@dataclass
class CalibrationSet:
    inputs: np.ndarray  # (n, input_dim)
    targets: np.ndarray  # (n, output_dim)

    def __post_init__(self):
        self.inputs = as_matrix(self.inputs)
        self.targets = as_matrix(self.targets)
        if self.inputs.shape[0] != self.targets.shape[0]:
            raise ValueError("inputs and targets must pair up row by row")
        if self.inputs.shape[0] == 0:
            raise ValueError("calibration set needs at least one record")

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
    if not (math.isfinite(noise_sigma) and noise_sigma >= 0):
        raise ValueError(f"noise_sigma must be non-negative and finite, got {noise_sigma}")
    x = rng.standard_normal((n, model.input_dim))
    y = model.forward(x)
    if noise_sigma > 0:
        y = y + noise_sigma * rng.standard_normal(y.shape)
    return CalibrationSet(inputs=x, targets=y)


def _output_loss(out: np.ndarray, calib: CalibrationSet) -> float:
    """Mean over records of the squared error of the outputs ``out``, which it
    overwrites. The squares are summed in one flat pass, not row by row."""
    out -= calib.targets
    out *= out
    return float(np.add.reduce(out, axis=None) / out.shape[0])


def stack_loss(weights, calib: CalibrationSet) -> float:
    """Mean over records of the squared output error of a weight stack; overflow does not warn."""
    with np.errstate(over="ignore", invalid="ignore"):
        return _output_loss(_forward(weights, calib.inputs), calib)


def forward_loss(model: ToyModel, calib: CalibrationSet) -> float:
    """Mean over records of the squared output error."""
    return stack_loss(model.layers, calib)


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
    return stack_loss(weights, calib)


class MaskedLossEvaluator:
    """Task loss of a mask over a group's concatenated candidates, the layers
    outside the group at ``weights``; each loss is appended to ``history``.

    The group's weights share one flat buffer, one view per layer, and a spare
    last slot that holds 0. Two arrays over the group's mask positions give
    each sparse entry's buffer offset and value; a triplet position points at
    the spare slot with value 0. A changed mask writes back the low-rank
    values under the last kept positions (``w + v - v`` is not ``w`` in
    floating point), recomputes the product of each layer whose triplet bits
    changed, and places all kept entries by one gather, one add and one
    scatter at the kept positions, where the triplets add 0 to the spare
    slot. The forward reruns from the first changed layer on cached layer
    inputs, which the first call fills; a repeated mask returns the last
    loss. Masks are 0/1 int8, read as bool. Weights and losses equal a full
    rebuild by ``reconstruct``.
    """

    def __init__(self, calib: CalibrationSet, weights, pools, group, history):
        self.calib = calib
        self.pools = pools
        self.weights = list(weights)
        self.history = history
        ends = np.cumsum([0] + [pools[i].size for i in group])
        self.slices = {i: slice(int(ends[k]), int(ends[k + 1])) for k, i in enumerate(group)}
        self.costs = np.concatenate([pools[i].costs for i in group])
        at = np.cumsum([0] + [pools[i].rows * pools[i].cols for i in group])
        spare = int(at[-1])
        self._buffer = np.zeros(spare + 1)
        self._layers, offsets, values = [], [], []  # (index, mask slice, t, U sigma, V^T)
        for k, i in enumerate(group):
            pool, sl = pools[i], self.slices[i]
            self.weights[i] = self._buffer[at[k] : at[k + 1]].reshape(pool.rows, pool.cols)
            self._layers.append((i, sl, pool.n_triplets, pool.u * pool.sigma, pool.vt))
            offsets += [np.full(pool.n_triplets, spare), at[k] + pool.entry_flat]
            values += [np.zeros(pool.n_triplets), pool.entry_values]
        self._pos_at, self._pos_values = np.concatenate(offsets), np.concatenate(values)
        self._at, self._under = self._pos_at[:0], self._buffer[:0]  # kept positions, values under
        self._keys = dict.fromkeys(group)  # each layer's last mask bytes; its first t are triplets
        self._acts = [calib.inputs]  # acts[k] is the input of layer k, for k < len(acts)
        self._loss = None

    def loss(self, bits: np.ndarray) -> float:
        if (shape := self.costs.shape) != bits.shape or bits.dtype != np.int8:
            raise ValueError(f"mask must be int8 of shape {shape}, got {bits.dtype} {bits.shape}")
        flags, first = bits.view(np.bool_), None  # nonzero on bool is faster than on int8
        for i, sl, t, us, vt in self._layers:
            key = bits[sl].tobytes()
            last = self._keys[i]
            if key == last:
                continue
            if first is None:
                first = i
                self._buffer[self._at] = self._under
            self._keys[i] = key
            if last is None or key[:t] != last[:t]:
                keep = flags[sl.start : sl.start + t]  # compress: [:, keep] and [keep], faster
                np.matmul(us.compress(keep, 1), vt.compress(keep, 0), out=self.weights[i])
        if first is not None:
            kept = flags.nonzero()[0]
            self._at = at = self._pos_at[kept]
            self._under = under = self._buffer[at]
            self._buffer[at] = under + self._pos_values[kept]
            del self._acts[first + 1 :]
            out = _forward(self.weights[len(self._acts) - 1 :], self._acts[-1], self._acts)
            self._loss = _output_loss(out, self.calib)
        self.history.append(self._loss)
        return self._loss


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
    coordinates.  If all 200 draws miss the cap, as one column of a tall
    layer may, the first with the smallest largest row norm is returned.
    Pass ``spread_cap=None`` to skip the rejection step.
    """
    if not 1 <= rank <= dim:
        raise ValueError("rank must lie in [1, dim]")
    bound = None if spread_cap is None else spread_cap * np.sqrt(rank / dim)
    best, best_spread = None, np.inf
    for _ in range(200):
        q, r = np.linalg.qr(rng.standard_normal((dim, rank)))
        # fix signs so the factor is unique given the draw
        q = q * np.sign(np.diag(r))
        spread = np.max(np.linalg.norm(q, axis=1))
        if bound is None or spread <= bound:
            return q
        if spread < best_spread:
            best, best_spread = q, spread
    return best


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
    spectrum a plain gaussian product gives. Outliers are planted by
    ``_plant_outliers``, then the whole matrix is rescaled so ||W||_F^2 = cols
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
    return ToyModel(layers=layers)

