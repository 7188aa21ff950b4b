"""End-to-end two-stage compression of a toy multilayer model.

Stage 1 splits every layer into low-rank plus sparse parts and
enumerates the prunable candidates. Stage 2 is one loop over budget groups
of layers, the same for every selection: each group gets the budget
``floor(budget_fraction * dense parameter count of the group)``, a chooser
returns a key, one score per candidate (learned retention probabilities, or
magnitudes), one greedy fill by descending key turns it into the group's
mask, and the group is rebuilt from that mask for the groups after it.
Global mode has one group of every layer, sequential mode one group per
layer in order. Reports are built from the masks; the survivors are
factorized only where the factors are returned.

Stage 1 fixes the low-rank and sparse spaces once per job; the learned
selection and the magnitude-threshold baselines all search inside them, in
the same budget groups, so ``ablate_threshold`` computes it once for all
four of its rows. Stage 2 reads only pools: each layer's split is dropped
once its pool is built, and the rows that keep only triplets or only sparse
entries select, by the same rules, from the full pools cut to one part.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from functools import partial

import numpy as np

from .allocator import (
    PolicyGradientConfig,
    greedy_fill,
    init_state,
    reinforce_step,
    sample_mask,
)
from .calibration import (
    CalibrationSet,
    MaskedLossEvaluator,
    ToyModel,
    forward_loss,
    gen_calibration,
    loss_with_masks,
    planted_model,
    stack_loss,
)
from .matio import MODES, JobConfig
from .pool import build_pool, factorize, param_count, reconstruct
from .rpca import RpcaConfig, decompose


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
    history: list[float]  # every loss evaluated during mask learning
    budget_too_small: bool = False
    mode: str = "global"


def _budget(job: CompressionJob, layers) -> int:
    """floor(budget_fraction * dense parameter count of the given layers)."""
    return int(np.floor(job.budget_fraction * sum(job.model.layers[i].size for i in layers)))


def _stage1(job: CompressionJob):
    """The report's Stage 1 columns and the candidate pool of every layer, keyed
    by layer index, with the dense and the unpruned-decomposition task losses."""
    columns, pools = {}, {}
    for i, w in enumerate(job.model.layers):
        res = decompose(w, job.rpca_config)
        pool = pools[i] = build_pool(res.factors, res.s)
        columns[i] = dict(rank_l=res.rank_l, nnz_s=pool.entry_flat.size, sparsity_s=res.sparsity_s)
        del res  # the split goes before the next layer is split, and before the losses
    ones = {i: np.ones(pool.size, dtype=np.int8) for i, pool in pools.items()}
    dense_loss = forward_loss(job.model, job.calib)
    return columns, pools, dense_loss, loss_with_masks(job.model, pools, ones, job.calib)


def _learned_key(evaluator, budget, pg, rng) -> np.ndarray:
    """Learned key: the retention probabilities after sampling, scoring, reinforcing."""
    state = init_state(evaluator.costs, budget)
    with np.errstate(over="ignore", invalid="ignore"):  # reinforce_step rejects such a loss
        for _ in range(pg.iterations * evaluator.calib.size):
            bits = sample_mask(state, rng)
            reinforce_step(state, bits, evaluator.loss(bits))
    return state.probs


def _learner(job: CompressionJob):
    """The learned chooser of a job; its generator runs on across groups."""
    return partial(_learned_key, pg=job.pg_config, rng=np.random.default_rng(job.pg_config.seed))


def _magnitude_key(evaluator, budget) -> np.ndarray:
    """Threshold key: the candidates' magnitudes, no learning."""
    return np.concatenate([evaluator.pools[i].magnitudes for i in evaluator.slices])


def _select(job: CompressionJob, stage1, choose):
    """Stage 2 over a computed Stage 1, by ``choose(evaluator, budget) -> key``.

    Layers are chosen in budget groups, in order: one group of every layer
    in global mode, one group per layer in sequential mode. Each group has
    its own budget; one below the group's cheapest candidate keeps nothing,
    and is too small if the group has any candidate, and one that covers
    its pools' total cost keeps all of it. Neither calls the chooser, so
    the learner scores no mask there. Otherwise the mask is the one
    ``greedy_fill`` of the chooser's key under the group's costs and budget.
    Each group is scored with the layers of earlier groups rebuilt from
    their final masks; the report's budget is the sum over groups.

    Returns:
        (CompressionReport, dict layer index -> mask)
    """
    columns, pools, dense_loss, rpca_loss = stage1
    groups = [list(pools)] if job.mode == "global" else [[i] for i in pools]
    weights = list(job.model.layers)
    history: list[float] = []
    masks: dict[int, np.ndarray] = {}
    budget, too_small = 0, False
    for group in groups:
        evaluator = MaskedLossEvaluator(job.calib, weights, pools, group, history)
        costs, group_budget = evaluator.costs, _budget(job, group)
        budget += group_budget
        mask = np.zeros(costs.size, dtype=np.int8)
        if costs.size == 0 or group_budget < costs.min():
            too_small = too_small or costs.size > 0
        elif group_budget >= costs.sum():
            mask[:] = 1
        else:
            mask = greedy_fill(choose(evaluator, group_budget), costs, group_budget)
        for i, sl in evaluator.slices.items():
            masks[i] = mask[sl]
            weights[i] = reconstruct(pools[i], masks[i])
        del evaluator  # its weight buffer and cached layer inputs, before the next group

    final_loss = stack_loss(weights, job.calib)
    if not math.isfinite(final_loss):  # no learning step may have scored it
        raise ValueError(f"task loss must be finite, got {final_loss}")
    summaries = [
        LayerSummary(
            layer_id=i,
            rows=pool.rows,
            cols=pool.cols,
            **columns[i],
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
        final_loss=final_loss,
        history=history,
        budget_too_small=too_small,
        mode=job.mode,
    )
    return report, masks


def _factorized(job: CompressionJob, choose):
    """Stage 1, then the selection of ``choose`` with every layer factorized."""
    stage1 = _stage1(job)
    report, masks = _select(job, stage1, choose)
    return report, {i: factorize(pool, masks[i]) for i, pool in stage1[1].items()}


def run(job: CompressionJob):
    """Compress the job's model.

    Returns:
        (CompressionReport, dict layer index -> CompressedLayer)
    """
    return _factorized(job, _learner(job))


def heuristic_threshold_baseline(job: CompressionJob):
    """Magnitude-ranked hard selection in the same budget groups, no learning.

    In each budget group of the learned selection, candidates are visited by
    descending magnitude (singular value for triplets, absolute value for
    sparse entries) by the same greedy fill as the learned selection's final
    pass.
    """
    return _factorized(job, _magnitude_key)


def _family_pools(pools) -> dict[str, dict]:
    """Pools of the family rows, each full pool cut to one part: its
    triplets only, and its sparse entries only."""
    return {
        "low_rank_only": {
            i: replace(p, entry_values=p.entry_values[:0], entry_flat=p.entry_flat[:0])
            for i, p in pools.items()
        },
        "sparse_only": {
            i: replace(p, u=p.u[:, :0], sigma=p.sigma[:0], vt=p.vt[:0]) for i, p in pools.items()
        },
    }


def ablate_threshold(job: CompressionJob) -> list[tuple[str, CompressionReport]]:
    """The learned selection and the three threshold baselines from one
    Stage 1, all in the same budget groups.

    Rows are ("learned", "threshold", "low_rank_only", "sparse_only"): the
    reports of ``run`` and ``heuristic_threshold_baseline``, then the
    threshold over the triplet-only and entry-only pools of the same Stage 1.
    """
    columns, pools, *losses = _stage1(job)
    rows = [("learned", pools, _learner(job)), ("threshold", pools, _magnitude_key)]
    rows += [(name, family, _magnitude_key) for name, family in _family_pools(pools).items()]
    return [(name, _select(job, (columns, p, *losses), choose)[0]) for name, p, choose in rows]


def sweep_lambda(job: CompressionJob, lambdas) -> list[tuple[float | None, CompressionReport]]:
    """Stage 1 and the learned selection per sparsity weight; None selects the default.

    Every weight is checked by ``RpcaConfig`` before the first run. Rows are
    (weight, report) in the order given; no layer is factorized.
    """
    jobs = [replace(job, rpca_config=replace(job.rpca_config, lam=lam)) for lam in lambdas]
    if not jobs:
        raise ValueError("need at least one sparsity weight")
    return [(j.rpca_config.lam, _select(j, _stage1(j), _learner(j))[0]) for j in jobs]


def job_from_config(
    config: JobConfig, model: ToyModel | None = None, calib: CalibrationSet | None = None
) -> CompressionJob:
    """The job a parsed configuration describes, on ``model`` and its ``calib``
    if both are given; if neither is, a planted model of ``config.shapes`` and its
    calibration set are drawn from one generator seeded with ``config.model_seed``."""
    if (model is None) != (calib is None):
        raise ValueError("job_from_config takes model and calib together, or neither")
    if model is None:
        rng = np.random.default_rng(config.model_seed)
        model = planted_model(config.shapes, rng)
        calib = gen_calibration(model, config.calib_n, 0.0, rng)
    return CompressionJob(
        model=model,
        calib=calib,
        rpca_config=config.rpca,
        pg_config=config.pg,
        budget_fraction=config.budget_fraction,
        mode=config.mode,
    )


def default_job(*, pg_seed: int | None = None, **fields) -> CompressionJob:
    """Planted job: ``JobConfig(**fields)``, the stock configuration with the
    given fields (``model_seed``, ``calib_n``, ``budget_fraction``, ``mode``, ...),
    and ``pg_seed``, if given, as the learner's seed."""
    config = JobConfig(**fields)
    if pg_seed is not None:
        config = replace(config, pg=replace(config.pg, seed=pg_seed))
    return job_from_config(config)
