"""End-to-end two-stage compression of a toy multilayer model.

Stage 1 splits every layer into low-rank plus sparse parts and
enumerates the prunable candidates. Stage 2 is one loop over budget groups
of layers, the same for every selection: each group gets the budget
``floor(budget_fraction * dense parameter count of the group)``, a chooser
picks its mask (learned retention probabilities frozen into a hard
top-probability selection, or a magnitude fill), and the group is rebuilt
from it for the groups after it. Global mode has one group of every layer,
sequential mode one group per layer in order. Reports are built from the
masks; the survivors are factorized only where the factors are returned.

Stage 1 fixes the low-rank and sparse spaces once per job; the learned
selection and the magnitude-threshold baselines all search inside them, in
the same budget groups, so ``ablate_threshold`` computes it once for all
four of its rows.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from functools import partial

import numpy as np

from .allocator import (
    PolicyGradientConfig,
    finalize_masks,
    greedy_fill,
    init_state,
    reinforce_step,
    sample_mask,
)
from .calibration import (
    CalibrationSet,
    ToyModel,
    _output_loss,
    _task_loss,
    default_toy_model,
    factorize,
    forward_loss,
    gen_calibration,
    loss_with_masks,
    reconstruct,
)
from .pool import build_pool, param_count
from .rpca import RpcaConfig, decompose

MODES = ("global", "sequential")
COMPONENT_CHOICES = ("both", "low_rank_only", "sparse_only")


@dataclass
class CompressionJob:
    model: ToyModel
    calib: CalibrationSet
    rpca_config: RpcaConfig = field(default_factory=RpcaConfig)
    pg_config: PolicyGradientConfig = field(default_factory=PolicyGradientConfig)
    budget_fraction: float = 0.5
    mode: str = "global"

    def __post_init__(self):
        if not 0.0 < self.budget_fraction <= 1.0:
            raise ValueError("budget_fraction must lie in (0, 1]")
        if self.mode not in MODES:
            raise ValueError(f"mode must be one of {MODES}")
        dims = (self.model.input_dim, self.model.output_dim)
        if (self.calib.inputs.shape[1], self.calib.targets.shape[1]) != dims:
            raise ValueError(
                f"calibration inputs {self.calib.inputs.shape} and targets "
                f"{self.calib.targets.shape} do not fit a model mapping {dims[0]} to {dims[1]} dims"
            )


@dataclass
class LayerSummary:
    layer_id: int
    rows: int
    cols: int
    rank_l: int  # decomposition rank before pruning
    nnz_s: int  # sparse-part nonzeros before pruning
    sparsity_s: float
    retained_rank: int
    sparse_nnz: int  # sparse entries kept by the final mask
    cost: int  # stored parameters of the final mask


@dataclass
class CompressionReport:
    layers: list[LayerSummary]
    budget: int
    used_cost: int
    dense_loss: float
    rpca_loss: float
    final_loss: float
    rank_distribution: list[int]
    history: list[float]  # every loss evaluated during mask learning
    budget_too_small: bool = False
    mode: str = "global"


@dataclass
class SweepRow:
    lam: float | None  # None = per-layer default weight
    mean_rank_l: float
    mean_sparsity_s: float
    total_nnz_s: int
    final_loss: float


def _budget(job: CompressionJob, layers) -> int:
    """floor(budget_fraction * dense parameter count of the given layers)."""
    return int(np.floor(job.budget_fraction * sum(job.model.layers[i].size for i in layers)))


def _stage1(job: CompressionJob):
    """Decomposition and candidate pool of every layer, each keyed by layer
    index, with the dense and the unpruned-decomposition task losses."""
    results = {i: decompose(w, job.rpca_config) for i, w in enumerate(job.model.layers)}
    pools = {i: build_pool(i, res.factors, res.s) for i, res in results.items()}
    ones = {i: np.ones(pool.size, dtype=np.int8) for i, pool in pools.items()}
    dense_loss = forward_loss(job.model, job.calib)
    return results, pools, dense_loss, loss_with_masks(job.model, pools, ones, job.calib)


class _MaskedLossEvaluator:
    """Task loss of a mask over a group's concatenated candidates, the layers
    outside the group at ``weights``; each loss is appended to ``history``.

    The group's weights share one flat buffer, one view per layer; its sparse
    entries are flat arrays of mask positions, buffer offsets and values. A
    changed mask writes back the low-rank values under the last kept entries
    (``w + v - v`` is not ``w`` in floating point), recomputes the product of
    each layer whose triplet bits changed, and places all kept entries by one
    gather and one scatter. The forward reruns from the first changed layer on
    cached layer inputs, which the first call fills; a repeated mask returns
    the last loss. Weights and losses equal a full rebuild by ``reconstruct``.
    """

    def __init__(self, job, weights, pools, group, history):
        self.relu = job.model.activation == "relu"
        self.calib = job.calib
        self.pools = pools
        self.weights = list(weights)
        self.history = history
        ends = np.cumsum([0] + [pools[i].size for i in group])
        self.slices = {i: slice(int(ends[k]), int(ends[k + 1])) for k, i in enumerate(group)}
        self.costs = np.concatenate([pools[i].costs for i in group])
        at = np.cumsum([0] + [pools[i].rows * pools[i].cols for i in group])
        self._buffer = np.empty(int(at[-1]))
        self._layers, bits, offsets = [], [], []  # (index, mask slice, triplet count, pool)
        for k, i in enumerate(group):
            pool, sl = pools[i], self.slices[i]
            self.weights[i] = self._buffer[at[k] : at[k + 1]].reshape(pool.rows, pool.cols)
            self._layers.append((i, sl, pool.n_triplets, pool))
            bits.append(np.arange(sl.start + pool.n_triplets, sl.stop))
            offsets.append(at[k] + pool.entry_flat)
        self._entry_bits, self._entry_at = np.concatenate(bits), np.concatenate(offsets)
        self._entry_values = np.concatenate([pools[i].entry_values for i in group])
        self._at, self._under = self._entry_at[:0], self._buffer[:0]  # kept entries, values under
        self._keys, self._triplet_keys = dict.fromkeys(group), dict.fromkeys(group)
        self._acts = [job.calib.inputs]  # acts[k] is the input of layer k, for k < len(acts)
        self._loss = None

    def loss(self, bits: np.ndarray) -> float:
        if bits.shape != self.costs.shape:
            raise ValueError(f"mask length {bits.shape} does not match group {self.costs.shape}")
        first = None
        for i, sl, t, pool in self._layers:
            key = bits[sl].tobytes()
            if key == self._keys[i]:
                continue
            if first is None:
                first = i
                self._buffer[self._at] = self._under
            self._keys[i] = key
            triplets = key[: t * bits.itemsize]
            if triplets != self._triplet_keys[i]:
                keep = bits[sl.start : sl.start + t] != 0  # compress: [:, keep] and [keep], faster
                us, vt = pool.triplet_us.compress(keep, 1), pool.triplet_vt.compress(keep, 0)
                np.matmul(us, vt, out=self.weights[i])
                self._triplet_keys[i] = triplets
        if first is not None:
            kept = np.flatnonzero(bits[self._entry_bits] != 0)  # faster than a boolean index
            self._at = at = self._entry_at[kept]
            self._under = under = self._buffer[at]
            self._buffer[at] = under + self._entry_values[kept]
            acts = self._acts
            del acts[first + 1 :]
            h, last = acts[-1], len(self.weights) - 1
            for k in range(len(acts) - 1, last + 1):
                h = h @ self.weights[k]
                if k < last:
                    if self.relu:
                        np.maximum(h, 0.0, out=h)
                    acts.append(h)
            self._loss = _output_loss(h, self.calib)
        self.history.append(self._loss)
        return self._loss


def _learn_masks(evaluator, budget, pg, rng) -> np.ndarray:
    """Learned chooser: sample, score, reinforce, finalize."""
    state = init_state(evaluator.costs, budget)
    with np.errstate(over="ignore", invalid="ignore"):  # reinforce_step rejects such a loss
        for _ in range(pg.iterations * evaluator.calib.size):
            bits = sample_mask(state, rng)
            reinforce_step(state, bits, evaluator.loss(bits), pg)
    return finalize_masks(state)


def _learner(job: CompressionJob):
    """The learned chooser of a job; its generator runs on across groups."""
    return partial(_learn_masks, pg=job.pg_config, rng=np.random.default_rng(job.pg_config.seed))


def _eligible(evaluator, components: str) -> np.ndarray:
    """Positions of the group's candidates in the family ``components``."""
    pools = [evaluator.pools[i] for i in evaluator.slices]
    triplet = np.concatenate([np.arange(pool.size) < pool.n_triplets for pool in pools])
    family = {"both": np.ones_like(triplet), "low_rank_only": triplet, "sparse_only": ~triplet}
    return np.flatnonzero(family[components])


def _magnitude_fill(evaluator, budget, components: str) -> np.ndarray:
    """Threshold chooser: ``greedy_fill`` by descending magnitude over the
    eligible candidate family, no learning."""
    mags = np.concatenate([evaluator.pools[i].magnitudes for i in evaluator.slices])
    sub = _eligible(evaluator, components)
    mask = np.zeros(mags.size, dtype=np.int8)
    mask[sub] = greedy_fill(mags[sub], evaluator.costs[sub], budget)
    return mask


def _select(job: CompressionJob, stage1, choose, components: str = "both"):
    """Stage 2 over a computed Stage 1, by ``choose(evaluator, budget) -> mask``.

    Layers are chosen in budget groups, in order: one group of every layer
    in global mode, one group per layer in sequential mode. Each group has
    its own budget; one below the cheapest candidate of the chooser's
    family ``components`` keeps nothing, and is too small if the group has
    any candidate of that family. Each group is scored with the layers of
    earlier groups rebuilt from their final masks; the report's budget is
    the sum over groups.

    Returns:
        (CompressionReport, dict layer index -> mask)
    """
    results, pools, dense_loss, rpca_loss = stage1
    layers = list(pools)
    groups = [layers] if job.mode == "global" else [[i] for i in layers]
    weights = list(job.model.layers)
    history: list[float] = []
    masks: dict[int, np.ndarray] = {}
    budget, too_small = 0, False
    for group in groups:
        evaluator = _MaskedLossEvaluator(job, weights, pools, group, history)
        costs, group_budget = evaluator.costs, _budget(job, group)
        budget += group_budget
        eligible = costs[_eligible(evaluator, components)]
        if eligible.size == 0 or group_budget < eligible.min():
            too_small = too_small or eligible.size > 0
            mask = np.zeros(costs.size, dtype=np.int8)
        else:
            mask = choose(evaluator, group_budget)
        for i, sl in evaluator.slices.items():
            masks[i] = mask[sl]
            weights[i] = reconstruct(pools[i], masks[i])

    summaries = [
        LayerSummary(
            layer_id=i,
            rows=pool.rows,
            cols=pool.cols,
            rank_l=results[i].rank_l,
            nnz_s=int(np.count_nonzero(results[i].s)),
            sparsity_s=results[i].sparsity_s,
            retained_rank=int(np.count_nonzero(masks[i][: pool.n_triplets])),
            sparse_nnz=int(np.count_nonzero(masks[i][pool.n_triplets :])),
            cost=param_count(pool, masks[i]),
        )
        for i, pool in pools.items()
    ]
    report = CompressionReport(
        layers=summaries,
        budget=budget,
        used_cost=sum(ls.cost for ls in summaries),
        dense_loss=dense_loss,
        rpca_loss=rpca_loss,
        final_loss=_task_loss(weights, job.model.activation, job.calib),
        rank_distribution=[ls.retained_rank for ls in summaries],
        history=history,
        budget_too_small=too_small,
        mode=job.mode,
    )
    return report, masks


def _factorized(job: CompressionJob, choose, components: str = "both"):
    """Stage 1, then the selection of ``choose`` with every layer factorized."""
    stage1 = _stage1(job)
    report, masks = _select(job, stage1, choose, components)
    return report, {i: factorize(pool, masks[i]) for i, pool in stage1[1].items()}


def run(job: CompressionJob):
    """Compress the job's model.

    Returns:
        (CompressionReport, dict layer index -> CompressedLayer)
    """
    return _factorized(job, _learner(job))


def heuristic_threshold_baseline(job: CompressionJob, components: str = "both"):
    """Magnitude-ranked hard selection in the same budget groups, no learning.

    In each budget group of the learned selection, candidates are visited by
    descending magnitude (singular value for triplets, absolute value for
    sparse entries) by the same greedy fill as the learned selection's final
    pass. ``components`` restricts eligibility to one candidate family:
    "both", "low_rank_only" or "sparse_only".
    """
    if components not in COMPONENT_CHOICES:
        raise ValueError(f"components must be one of {COMPONENT_CHOICES}")
    return _factorized(job, partial(_magnitude_fill, components=components), components)


def ablate_threshold(job: CompressionJob) -> list[tuple[str, CompressionReport]]:
    """The learned selection and the three threshold baselines from one
    Stage 1, all in the same budget groups.

    Rows are ("learned", "threshold", "low_rank_only", "sparse_only"), each
    report equal to its ``run`` or ``heuristic_threshold_baseline`` result.
    """
    stage1 = _stage1(job)
    rows = [("learned", _select(job, stage1, _learner(job))[0])]
    for components in COMPONENT_CHOICES:
        variant = "threshold" if components == "both" else components
        choose = partial(_magnitude_fill, components=components)
        rows.append((variant, _select(job, stage1, choose, components)[0]))
    return rows


def sweep_lambda(job: CompressionJob, lambdas) -> list[SweepRow]:
    """Full compression run per sparsity weight; None selects the default.

    Every weight is checked by ``RpcaConfig`` before the first run. Each
    row aggregates the Stage 1 diagnostics over the layers and
    carries the post-selection task loss.
    """
    configs = [replace(job.rpca_config, lam=lam) for lam in lambdas]
    if not configs:
        raise ValueError("need at least one sparsity weight")
    rows = []
    for cfg in configs:
        report, _ = run(replace(job, rpca_config=cfg))
        rows.append(
            SweepRow(
                lam=cfg.lam,
                mean_rank_l=float(np.mean([ls.rank_l for ls in report.layers])),
                mean_sparsity_s=float(np.mean([ls.sparsity_s for ls in report.layers])),
                total_nnz_s=int(sum(ls.nnz_s for ls in report.layers)),
                final_loss=report.final_loss,
            )
        )
    return rows


def default_job(
    model_seed: int = 0,
    pg_seed: int = 0,
    budget_fraction: float = 0.5,
    calib_n: int = 128,
    calib_noise: float = 0.0,
    mode: str = "global",
    rpca_config: RpcaConfig | None = None,
    pg_config: PolicyGradientConfig | None = None,
) -> CompressionJob:
    """Planted three-layer job with the stock defaults."""
    rng = np.random.default_rng(model_seed)
    model = default_toy_model(rng)
    calib = gen_calibration(model, calib_n, calib_noise, rng)
    return CompressionJob(
        model=model,
        calib=calib,
        rpca_config=rpca_config if rpca_config is not None else RpcaConfig(),
        pg_config=pg_config if pg_config is not None else PolicyGradientConfig(seed=pg_seed),
        budget_fraction=budget_fraction,
        mode=mode,
    )
