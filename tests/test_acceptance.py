"""Acceptance runs for the headline behaviors, one test per claim.

Each test checks a single end-to-end property at its stated tolerance on a
fixed instance and prints one summary line with the measured numbers when
it passes (visible with -s, or in captured output otherwise). Instances
are sized for a laptop; seeds are frozen so every run sees the same data.
"""

import time
from functools import cache

import numpy as np
import pytest

from lrsprune import (
    CompressionJob,
    PolicyGradientConfig,
    RpcaConfig,
    build_pool,
    decompose,
    default_job,
    default_lambda,
    gen_calibration,
    loss_with_masks,
    planted_model,
    reconstruct,
    run,
)
from lrsprune.cli import main
from lrsprune.pipeline import _budget, _family_pools, _learner, _magnitude_key, _select, _stage1
from references import (
    brute_force_best_mask,
    default_toy_model,
    exact_expected_loss_grad,
    planted_matrix,
    single_layer_job,
)


def announce(name: str, detail: str) -> None:
    print(f"[acceptance] {name}: PASS ({detail})", flush=True)


def test_planted_recovery():
    # 50x40, rank 3, 5% outliers at 10x the mean low-rank magnitude
    w, l0, s0 = planted_matrix(50, 40, 3, np.random.default_rng(0))
    start = time.perf_counter()
    result = decompose(w)
    wall = time.perf_counter() - start
    rel_l = np.linalg.norm(result.l - l0) / np.linalg.norm(l0)
    assert rel_l < 1e-3
    assert np.array_equal(result.s != 0, s0 != 0)
    assert result.iterations < 500
    assert wall < 2.0
    announce(
        "planted_recovery",
        f"rel_l={rel_l:.3e} support=exact iters={result.iterations} wall={wall * 1e3:.1f}ms",
    )


def test_feasibility_tolerance():
    mats = [planted_matrix(50, 40, 3, np.random.default_rng(0))[0]]
    mats.extend(default_toy_model(np.random.default_rng(0)).layers)
    worst = 0.0
    for w in mats:
        result = decompose(w)
        rel = np.linalg.norm(w - result.l - result.s) / np.linalg.norm(w)
        worst = max(worst, rel)
    assert worst <= 1e-7
    announce("feasibility_tolerance", f"runs={len(mats)} worst_rel_residual={worst:.3e}")


def test_estimator_unbiasedness():
    probs = np.array([0.3, 0.5, 0.7, 0.4])
    table = np.random.default_rng(9).random(16)
    weights = 1 << np.arange(4)

    def loss_fn(mask):
        return float(table[int(np.dot(mask, weights))])

    exact = exact_expected_loss_grad(probs, loss_fn)
    draws = 200_000
    rng = np.random.default_rng(123)
    bits = (rng.random((draws, 4)) < probs).astype(np.float64)
    losses = table[bits.astype(np.int64) @ weights]
    scores = (bits - probs) / (probs * (1.0 - probs))
    worst_sigma = 0.0
    for baseline in (0.0, 0.37):
        grads = (losses - baseline)[:, None] * scores
        mean = grads.mean(axis=0)
        se = grads.std(axis=0, ddof=1) / np.sqrt(draws)
        np.testing.assert_array_less(np.abs(mean - exact), 3.0 * se)
        worst_sigma = max(worst_sigma, float(np.max(np.abs(mean - exact) / se)))
    announce(
        "estimator_unbiasedness",
        f"draws={draws} baselines=(0.0, 0.37) worst_dev={worst_sigma:.2f} of 3.00 se",
    )


def test_near_oracle_selection():
    start = time.perf_counter()
    hits = 0
    ratios = []
    for seed in range(10):
        job = single_layer_job(seed, budget_fraction=4 / 384)
        report, _ = run(job)
        result = decompose(job.model.layers[0], job.rpca_config)
        pool = build_pool(result.factors, result.s)
        assert pool.size <= 12
        oracle = brute_force_best_mask(
            pool,
            report.budget,
            lambda mask: loss_with_masks(job.model, {0: pool}, {0: mask}, job.calib),
        )
        ratios.append(report.final_loss / oracle.best_loss)
        hits += report.final_loss <= 1.05 * oracle.best_loss
    wall = time.perf_counter() - start
    assert hits >= 9
    assert wall < 30.0
    announce(
        "near_oracle_selection",
        f"hits={hits}/10 worst_ratio={max(ratios):.4f} wall={wall:.1f}s",
    )


def test_budget_exactness_and_factorization():
    worst_gap = 0.0
    for fraction in (0.25, 0.5, 0.75, 1.0):
        job = default_job(budget_fraction=fraction, calib_n=64)
        report, compressed = run(job)
        recount = sum(layer.stored_params for layer in compressed.values())
        assert recount <= report.budget
        assert recount == report.used_cost
        for i, layer in compressed.items():
            pool_result = decompose(job.model.layers[i], job.rpca_config)
            pool = build_pool(pool_result.factors, pool_result.s)
            rebuilt = layer.u_prime @ layer.v_prime.T + layer.s_masked
            gap = float(np.max(np.abs(rebuilt - reconstruct(pool, layer.mask))))
            worst_gap = max(worst_gap, gap)
            assert gap <= 1e-10
    announce(
        "budget_exactness_and_factorization",
        f"fractions=(0.25,0.5,0.75,1.0) worst_factorization_gap={worst_gap:.3e}",
    )


# the stock toy's pool costs 357: these budgets bind it, the rest cover it
BINDING_FRACTIONS = (0.05, 0.1, 0.15, 0.2)
COVERING_FRACTIONS = (0.25, 0.5, 0.75)


@cache
def threshold_medians(fraction: float) -> dict:
    """Medians of the learned row over pg seeds 0-9 and of the three threshold
    rows on the stock toy, with the pool's total cost and the budget."""
    # Stage 1 depends on the model alone, so one decomposition serves the
    # 10 pg seeds and the three threshold rows
    base = default_job(budget_fraction=fraction)
    columns, pools, *losses = stage1 = _stage1(base)
    learned = []
    for seed in range(10):
        job = default_job(pg_seed=seed, budget_fraction=fraction)
        learned.append(_select(job, stage1, _learner(job))[0].final_loss)
    # the threshold rows hold no sampled state, so one evaluation per row is
    # already the 10-seed median; the family rows select from family pools
    rows = {"threshold": pools, **_family_pools(pools)}
    medians = {
        row: _select(base, (columns, row_pools, *losses), _magnitude_key)[0].final_loss
        for row, row_pools in rows.items()
    }
    return {
        "learned": float(np.median(learned)),
        **medians,
        "pool_cost": sum(pool.total_cost for pool in pools.values()),
        "budget": _budget(base, list(pools)),
    }


COMPARISONS = {
    "learned <= threshold": lambda m: m["learned"] <= m["threshold"],
    "low_rank_only >= learned": lambda m: m["low_rank_only"] >= m["learned"],
    "sparse_only >= learned": lambda m: m["sparse_only"] >= m["learned"],
}
# comparisons that do not hold on the stock toy, each kept as a strict xfail
KNOWN_GAPS = {
    (0.2, "learned <= threshold"): (
        "f=0.2: the learned median 0.289 is above the threshold's 8.5e-8 "
        "(low_rank_only 2.585, sparse_only 1.790)"
    ),
    (0.05, "sparse_only >= learned"): (
        "f=0.05: the sparse_only row's 1.790 is below the learned median 1.839 "
        "(threshold 2.428, low_rank_only 2.445)"
    ),
}


def test_learned_vs_threshold_medians():
    details = []
    for fraction in BINDING_FRACTIONS + COVERING_FRACTIONS:
        m = threshold_medians(fraction)
        assert (m["pool_cost"] > m["budget"]) == (fraction in BINDING_FRACTIONS)
        for name, holds in COMPARISONS.items():
            if (fraction, name) not in KNOWN_GAPS:
                assert holds(m), (fraction, name, m)
        details.append(
            f"f={fraction}: learned={m['learned']:.3e} thresh={m['threshold']:.3e} "
            f"low_rank_only={m['low_rank_only']:.3e} sparse_only={m['sparse_only']:.3e}"
        )
    announce("learned_vs_threshold_medians", "; ".join(details))


@pytest.mark.parametrize(
    "fraction, name",
    [
        pytest.param(*key, marks=pytest.mark.xfail(strict=True, reason=reason))
        for key, reason in KNOWN_GAPS.items()
    ],
)
def test_learned_vs_threshold_known_gap(fraction, name):
    assert COMPARISONS[name](threshold_medians(fraction))


def test_lambda_monotonicity():
    w, _, _ = planted_matrix(50, 40, 3, np.random.default_rng(0))
    lams = sorted([1e-3, 1e-1, default_lambda(50, 40), 1.0])
    nnz = []
    sparsity = []
    for lam in lams:
        result = decompose(w, RpcaConfig(lam=lam))
        nnz.append(int(np.count_nonzero(result.s)))
        sparsity.append(result.sparsity_s)
    assert all(a >= b for a, b in zip(nnz, nnz[1:]))
    assert sparsity[0] < 0.2
    assert sparsity[-1] > 0.95
    announce(
        "lambda_monotonicity",
        f"lams={[round(l, 4) for l in lams]} nnz={nnz} "
        f"sparsity_low={sparsity[0]:.3f} sparsity_high={sparsity[-1]:.3f}",
    )


def test_rank_allocation_across_layers():
    # same shape twice so the budget cannot favor a layer by size alone;
    # the flat-spectrum layer needs more directions than the steep one
    steep, flat = [], []
    for seed in range(10):
        rng = np.random.default_rng(seed)
        model = planted_model([(32, 32), (32, 32)], rng, ranks=[1, 8], decays=[0.9, 0.97])
        calib = gen_calibration(model, 128, 0.0, rng)
        job = CompressionJob(
            model=model,
            calib=calib,
            pg_config=PolicyGradientConfig(seed=seed),
            budget_fraction=0.5,
        )
        report, _ = run(job)
        steep.append(report.layers[0].retained_rank)
        flat.append(report.layers[1].retained_rank)
    med_steep, med_flat = float(np.median(steep)), float(np.median(flat))
    assert med_flat > med_steep
    announce(
        "rank_allocation_across_layers",
        f"median_retained_rank: planted_rank_8={med_flat} planted_rank_1={med_steep}",
    )


def test_deterministic_outputs(tmp_path):
    cfg = tmp_path / "job.cfg"
    cfg.write_text("calib.n = 32\n")
    pairs = []
    for tag in ("a", "b"):
        model_dir = tmp_path / f"model_{tag}"
        out_dir = tmp_path / f"out_{tag}"
        assert main(["gen", "--config", str(cfg), "--out", str(model_dir), "--quiet"]) == 0
        code = main(
            ["compress", str(model_dir), "--config", str(cfg), "--out", str(out_dir), "--quiet"]
        )
        assert code == 0
        pairs.append((model_dir, out_dir))
    (model_a, out_a), (model_b, out_b) = pairs
    checked = 0
    for dir_a, dir_b in ((model_a, model_b), (out_a, out_b)):
        names_a = sorted(p.name for p in dir_a.iterdir())
        assert names_a == sorted(p.name for p in dir_b.iterdir())
        for name in names_a:
            assert (dir_a / name).read_bytes() == (dir_b / name).read_bytes()
            checked += 1
    announce("deterministic_outputs", f"byte_identical_files={checked}")
