"""End-to-end orchestration: budgets, reports, modes, baselines, sweeps."""

from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from lrsprune import pipeline
from lrsprune.allocator import PolicyGradientConfig
from lrsprune.calibration import (
    CalibrationSet,
    ToyModel,
    _task_loss,
    gen_calibration,
    planted_model,
    reconstruct,
)
from lrsprune.oracle import brute_force_best_mask
from lrsprune.pipeline import (
    COMPONENT_CHOICES,
    MODES,
    CompressionJob,
    _MaskedLossEvaluator,
    _stage1,
    ablate_threshold,
    default_job,
    heuristic_threshold_baseline,
    run,
    sweep_lambda,
)
from lrsprune.pool import build_pool
from lrsprune.rpca import RpcaConfig, decompose


@pytest.fixture(scope="module")
def quick_run():
    """Default planted job with a small calibration set, run once."""
    job = default_job(calib_n=32)
    report, compressed = run(job)
    return job, report, compressed


def single_layer_job(seed, budget_fraction, calib_n=256):
    """One 24x16 layer, one planted direction, seven graded outliers."""
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


class TestJobValidation:
    def test_budget_fraction_bounds(self, quick_run):
        job = quick_run[0]
        with pytest.raises(ValueError):
            CompressionJob(model=job.model, calib=job.calib, budget_fraction=0.0)
        with pytest.raises(ValueError):
            CompressionJob(model=job.model, calib=job.calib, budget_fraction=1.5)

    def test_mode_validated(self, quick_run):
        job = quick_run[0]
        with pytest.raises(ValueError):
            CompressionJob(model=job.model, calib=job.calib, mode="parallel")

    def test_calibration_dims_checked_up_front(self, quick_run):
        job = quick_run[0]
        wide = CalibrationSet(
            inputs=np.zeros((4, job.model.input_dim + 1)), targets=job.calib.targets[:4]
        )
        with pytest.raises(ValueError, match=r"inputs \(4, 33\) and targets \(4, 16\)"):
            CompressionJob(model=job.model, calib=wide)
        narrow = CalibrationSet(inputs=job.calib.inputs[:4], targets=np.zeros((4, 3)))
        with pytest.raises(ValueError, match=r"targets \(4, 3\)"):
            CompressionJob(model=job.model, calib=narrow)


class TestRunReport:
    def test_budget_formula(self, quick_run):
        _, report, _ = quick_run
        assert report.budget == int(np.floor(0.5 * (32 * 24 + 24 * 24 + 24 * 16)))

    def test_budget_honored_and_costs_sum(self, quick_run):
        _, report, compressed = quick_run
        assert report.used_cost <= report.budget
        assert report.used_cost == sum(ls.cost for ls in report.layers)
        assert report.used_cost == sum(c.stored_params for c in compressed.values())

    def test_rank_distribution_mirrors_layers(self, quick_run):
        _, report, compressed = quick_run
        assert report.rank_distribution == [ls.retained_rank for ls in report.layers]
        assert report.rank_distribution == [
            compressed[i].retained_rank for i in sorted(compressed)
        ]

    def test_history_records_every_scored_sample(self, quick_run):
        job, report, _ = quick_run
        steps = job.pg_config.iterations * job.calib.size
        assert len(report.history) == steps
        assert all(np.isfinite(h) for h in report.history)

    def test_mode_and_flag_defaults(self, quick_run):
        _, report, _ = quick_run
        assert report.mode == "global"
        assert report.budget_too_small is False
        assert report.dense_loss == 0.0  # noiseless self-targets

    def test_deterministic_given_seeds(self):
        a, _ = run(default_job(calib_n=32))
        b, _ = run(default_job(calib_n=32))
        assert a.final_loss == b.final_loss
        assert a.history == b.history
        assert a.rank_distribution == b.rank_distribution
        assert a.used_cost == b.used_cost


class TestFullBudget:
    def test_everything_retained_matches_stage1(self):
        job = default_job(calib_n=32, budget_fraction=1.0)
        report, compressed = run(job)
        assert report.final_loss <= report.rpca_loss + 1e-9
        for layer in compressed.values():
            assert np.all(layer.mask == 1)

    def test_heuristic_identical_at_full_budget(self):
        job = default_job(calib_n=32, budget_fraction=1.0)
        learned, lc = run(job)
        baseline, bc = heuristic_threshold_baseline(job)
        assert baseline.final_loss == learned.final_loss
        assert baseline.used_cost == learned.used_cost
        for i in lc:
            np.testing.assert_array_equal(lc[i].mask, bc[i].mask)


@st.composite
def below_cheapest_jobs(draw):
    """Small planted chains, with or without sparse outliers and with some
    layers all zero, at a budget fraction that puts the budget of the job,
    and so of every budget group, below its cheapest candidate."""
    dims = draw(st.lists(st.integers(1, 24), min_size=2, max_size=4))
    shapes = list(zip(dims[:-1], dims[1:]))
    rng = np.random.default_rng(draw(st.integers(0, 2**16)))
    outlier_frac = draw(st.sampled_from([0.0, 0.2]))
    planted = planted_model(shapes, rng, ranks=[1] * len(shapes), outlier_frac=outlier_frac)
    zeroed = draw(st.lists(st.booleans(), min_size=len(shapes), max_size=len(shapes)))
    model = ToyModel(layers=[0.0 * w if z else w for w, z in zip(planted.layers, zeroed)])
    job = CompressionJob(
        model=model, calib=gen_calibration(model, 4, 0.0, rng), mode=draw(st.sampled_from(MODES))
    )
    costs = np.concatenate([pool.costs for pool in _stage1(job)[1].values()])
    cheapest = int(costs.min()) if costs.size else model.dense_params
    budget = draw(st.integers(0, min(cheapest, model.dense_params) - 1))
    return replace(job, budget_fraction=(budget + 0.5) / model.dense_params)


class TestBudgetTooSmall:
    @given(job=below_cheapest_jobs())
    def test_budget_below_cheapest_keeps_nothing(self, job):
        pools = _stage1(job)[1]
        report, compressed = run(job)
        assert report.used_cost == 0
        assert report.rank_distribution == [0] * len(pools)
        assert all(not layer.mask.any() for layer in compressed.values())
        assert report.history == []
        assert report.budget_too_small == any(pool.size for pool in pools.values())
        expected = float(np.mean(np.sum(job.calib.targets**2, axis=1)))
        assert report.final_loss == pytest.approx(expected, rel=1e-12)

    def check_triplet_only_pool_below_cheapest(self, rng, mode):
        model = planted_model([(24, 16)], rng, ranks=[1], outlier_frac=0.0)
        calib = gen_calibration(model, 16, 0.0, rng)
        job = CompressionJob(model=model, calib=calib, budget_fraction=0.02, mode=mode)
        report, compressed = run(job)
        # budget 7 cannot afford the only candidate kind (cost 40)
        assert report.budget == 7
        assert report.budget_too_small is True
        assert report.used_cost == 0
        assert report.rank_distribution == [0]
        assert report.history == []
        np.testing.assert_array_equal(compressed[0].mask, 0)
        expected = float(np.mean(np.sum(calib.targets**2, axis=1)))
        assert report.final_loss == pytest.approx(expected, rel=1e-12)

    def test_triplet_only_pool_below_cheapest(self, rng):
        self.check_triplet_only_pool_below_cheapest(rng, "global")

    def test_sequential_triplet_only_pool_below_cheapest(self, rng):
        self.check_triplet_only_pool_below_cheapest(rng, "sequential")

    def test_low_rank_only_row_below_every_triplet(self):
        # per-layer budgets 38/28/19 sit below the triplet costs 56/48/40;
        # sparse entries (cost 1) still fit them
        job = default_job(model_seed=0, budget_fraction=0.05, mode="sequential")
        reports = {c: heuristic_threshold_baseline(job, c)[0] for c in COMPONENT_CHOICES}
        low_rank = reports["low_rank_only"]
        assert [ls.rows + ls.cols for ls in low_rank.layers] == [56, 48, 40]
        assert low_rank.budget == 38 + 28 + 19
        assert low_rank.used_cost == 0
        assert low_rank.budget_too_small is True
        assert reports["both"].budget_too_small is False
        assert reports["sparse_only"].budget_too_small is False
        rows = dict(ablate_threshold(job))
        assert [rows[c].budget_too_small for c in ("low_rank_only", "sparse_only")] == [True, False]


@st.composite
def zero_size_jobs(draw):
    """Two-layer jobs, d0 x d1 feeding d1 x d2, where some d is zero."""
    dims = draw(st.lists(st.integers(0, 5), min_size=3, max_size=3).filter(lambda d: 0 in d))
    rng = np.random.default_rng(draw(st.integers(0, 2**16)))
    model = ToyModel(layers=[rng.standard_normal(dims[:2]), rng.standard_normal(dims[1:])])
    return CompressionJob(
        model=model,
        calib=gen_calibration(model, 4, 0.0, rng),
        pg_config=PolicyGradientConfig(iterations=1),
        budget_fraction=draw(st.floats(0.05, 1.0)),
        mode=draw(st.sampled_from(MODES)),
    )


class TestZeroSizeLayers:
    @given(job=zero_size_jobs())
    def test_budget_kept_and_empty_layers_cost_nothing(self, job):
        reports = [run(job)[0]] + [report for _, report in ablate_threshold(job)]
        for report in reports:
            assert report.used_cost <= report.budget
            for ls in report.layers:
                if ls.rows * ls.cols == 0:
                    assert ls.cost == 0


def reference_threshold_masks(job, components):
    """The magnitude threshold written one candidate object at a time: every
    triplet and sparse entry of every layer in pool order, visited by
    descending magnitude (stable on ties), kept if its family is eligible
    and its cost fits what is left of the global budget. Also returns the
    cost of every candidate together."""
    candidates, masks = [], {}
    for i, w in enumerate(job.model.layers):
        res = decompose(w, job.rpca_config)
        pool = build_pool(i, res.factors, res.s)
        masks[i] = np.zeros(pool.size, dtype=np.int8)
        for k, sigma in enumerate(pool.svd.sigma):
            candidates.append((i, k, "low_rank_only", float(sigma), pool.rows + pool.cols))
        for k, value in enumerate(pool.entry_values):
            candidates.append((i, pool.n_triplets + k, "sparse_only", abs(float(value)), 1))
    remaining = float(np.floor(job.budget_fraction * job.model.dense_params))
    for layer, pos, family, _, cost in sorted(candidates, key=lambda c: -c[3]):
        if components in ("both", family) and cost <= remaining:
            masks[layer][pos] = 1
            remaining -= cost
    return masks, sum(c[4] for c in candidates)


class TestThresholdBaselineReference:
    @pytest.mark.parametrize("fraction", [0.1, 0.15])
    @pytest.mark.parametrize("components", ["both", "low_rank_only", "sparse_only"])
    def test_masks_match_per_candidate_greedy(self, fraction, components):
        job = default_job(budget_fraction=fraction)
        report, compressed = heuristic_threshold_baseline(job, components)
        expected, pool_cost = reference_threshold_masks(job, components)
        assert sorted(compressed) == sorted(expected)
        for i, mask in expected.items():
            np.testing.assert_array_equal(compressed[i].mask, mask)
        assert pool_cost > report.budget >= report.used_cost  # the budget binds


class TestSequentialMode:
    def test_per_layer_budgets(self):
        shapes = ((32, 24), (24, 24), (24, 16))
        job = default_job(calib_n=32, mode="sequential")
        report, _ = run(job)
        assert report.mode == "sequential"
        per_layer = [int(np.floor(0.5 * (m * n))) for m, n in shapes]
        assert report.budget == sum(per_layer)
        for ls, cap in zip(report.layers, per_layer):
            assert ls.cost <= cap
        assert report.used_cost <= report.budget
        # the threshold rows bind the learned row's per-layer budgets too
        per_layer = [int(np.floor(0.15 * (m * n))) for m, n in shapes]
        for variant, report in ablate_threshold(replace(job, budget_fraction=0.15)):
            assert report.budget == sum(per_layer), variant
            for ls, cap in zip(report.layers, per_layer):
                assert ls.cost <= cap, (variant, ls.layer_id)


# which layers of a group each step of the walk changes
WALK = ("all", "last", "first", "none", "first", "none", "last", "all", "none")


class TestIncrementalEvaluator:
    @pytest.mark.parametrize("mode", MODES)
    def test_loss_equals_full_rebuild(self, mode):
        job = default_job(calib_n=32, mode=mode)
        pools = _stage1(job)[1]
        groups = [list(pools)] if mode == "global" else [[i] for i in pools]
        rng = np.random.default_rng(7)
        weights = list(job.model.layers)
        for group in groups:
            history = []
            evaluator = _MaskedLossEvaluator(job, weights, pools, group, history)
            masks = {i: rng.integers(0, 2, pools[i].size).astype(np.int8) for i in group}
            for step, change in enumerate(WALK):
                picked = {"all": group, "last": group[-1:], "first": group[:1], "none": []}
                for i in picked[change]:
                    masks[i] = 1 - masks[i]  # one flipped bit may feed only dead units
                cached = list(evaluator._acts)
                loss = evaluator.loss(np.concatenate([masks[i] for i in group]))
                full = list(weights)
                for i in group:
                    full[i] = reconstruct(pools[i], masks[i])
                assert loss == _task_loss(full, job.model.activation, job.calib), (group, step)
                assert len(history) == step + 1 and history[-1] == loss
                # the inputs of the layers up to the first changed one are reused
                first = picked[change][0] if picked[change] else len(weights) - 1
                kept = evaluator._acts[: first + 1]
                assert all(a is b for a, b in zip(kept, cached)), (group, step)
                if step > 0:
                    assert len(kept) == first + 1
                # and every cached input equals a fresh forward pass, byte for byte
                h, fresh = job.calib.inputs, [job.calib.inputs]
                for w in full[:-1]:
                    h = np.maximum(h @ w, 0.0)
                    fresh.append(h)
                assert len(evaluator._acts) == len(fresh), (group, step)
                assert all(a.tobytes() == b.tobytes() for a, b in zip(evaluator._acts, fresh))
            for i in group:
                weights[i] = full[i]

    @pytest.mark.parametrize("mode", MODES)
    def test_in_place_rebuild_equals_reconstruct(self, mode):
        # per layer, flip only entry bits, only triplet bits, both or neither;
        # in a group of several layers, also change several layers at once,
        # each its own part; the weights are compared byte for byte, since a
        # loss may not see a change that feeds only dead units
        job = default_job(calib_n=32, mode=mode)
        pools = _stage1(job)[1]
        groups = [list(pools)] if mode == "global" else [[i] for i in pools]
        rng = np.random.default_rng(3)
        given = [w.copy() for w in job.model.layers]
        weights = list(job.model.layers)
        for group in groups:
            passed = [w.copy() for w in weights]
            evaluator = _MaskedLossEvaluator(job, weights, pools, group, [])
            masks = {i: rng.integers(0, 2, pools[i].size).astype(np.int8) for i in group}
            parts = ("entries", "triplets", "both", "none", "entries", "entries", "triplets")
            walk = [{}] + [{i: part} for part in parts for i in group]
            if len(group) > 1:  # several layers at once, each changing its own part
                for r in range(len(group)):
                    order = group[r:] + group[:r]
                    walk.append({order[0]: "triplets", order[1]: "entries"})  # the rest: none
                    walk.append(dict(zip(order, ("entries", "triplets", "both"))))
                    walk.append(dict.fromkeys(group, ("triplets", "entries", "both")[r % 3]))
            for step, change in enumerate(walk):
                for i, part in change.items():
                    if part == "none":
                        continue
                    t = pools[i].n_triplets
                    span = {"entries": slice(t, None), "triplets": slice(0, t), "both": slice(None)}
                    bits = masks[i][span[part]]
                    flip = rng.random(bits.size) < 0.5
                    flip[rng.integers(bits.size)] = True
                    bits[flip] ^= 1
                loss = evaluator.loss(np.concatenate([masks[k] for k in group]))
                full = list(weights)
                for k in group:
                    full[k] = reconstruct(pools[k], masks[k])
                    assert evaluator.weights[k].tobytes() == full[k].tobytes(), (group, step)
                assert loss == _task_loss(full, job.model.activation, job.calib), (group, step)
                assert all(a.tobytes() == b.tobytes() for a, b in zip(weights, passed))
                assert all(a.tobytes() == b.tobytes() for a, b in zip(job.model.layers, given))
            for k in group:
                weights[k] = full[k]

    def test_threshold_rows_forward_nothing(self, monkeypatch):
        made = []

        class Recording(pipeline._MaskedLossEvaluator):
            def __init__(self, *args):
                super().__init__(*args)
                made.append(self)

        monkeypatch.setattr(pipeline, "_MaskedLossEvaluator", Recording)
        job = default_job(calib_n=32, mode="sequential", budget_fraction=0.15)
        report, _ = heuristic_threshold_baseline(job)
        assert len(made) == 3 and report.history == []
        assert all(len(evaluator._acts) == 1 for evaluator in made)  # calib.inputs only


class TestNonFiniteLoss:
    def test_overflowing_loss_stops_the_run(self):
        # every target is finite (up to ~3e198), but each squared error overflows
        job = default_job(budget_fraction=0.15)
        model = ToyModel(layers=[w * 1e66 for w in job.model.layers])
        calib = CalibrationSet(inputs=job.calib.inputs, targets=model.forward(job.calib.inputs))
        assert np.isfinite(calib.targets).all() and np.abs(calib.targets).max() > 1e198
        with pytest.raises(ValueError, match="task loss must be finite, got inf"):
            run(CompressionJob(model=model, calib=calib, budget_fraction=0.15))


class TestNearOracle:
    def test_small_pool_close_to_brute_force(self):
        from lrsprune.calibration import loss_with_masks

        job = single_layer_job(0, budget_fraction=4 / 384)
        report, _ = run(job)
        res = decompose(job.model.layers[0], job.rpca_config)
        pool = build_pool(0, res.factors, res.s)
        assert pool.size <= 12

        def loss_fn(bits):
            return loss_with_masks(job.model, {0: pool}, {0: bits}, job.calib)

        oracle = brute_force_best_mask(pool, report.budget, loss_fn)
        assert report.final_loss <= 1.05 * oracle.best_loss


class TestHeuristicBaseline:
    def test_component_restrictions(self):
        job = default_job(calib_n=32)
        l_only, _ = heuristic_threshold_baseline(job, components="low_rank_only")
        assert all(ls.sparse_nnz == 0 for ls in l_only.layers)
        s_only, _ = heuristic_threshold_baseline(job, components="sparse_only")
        assert all(ls.retained_rank == 0 for ls in s_only.layers)
        assert s_only.used_cost <= s_only.budget

    def test_rejects_unknown_components(self):
        job = default_job(calib_n=32)
        with pytest.raises(ValueError):
            heuristic_threshold_baseline(job, components="l")

    def test_deterministic(self):
        job = default_job(calib_n=32)
        a, _ = heuristic_threshold_baseline(job)
        b, _ = heuristic_threshold_baseline(job)
        assert a.final_loss == b.final_loss
        assert a.used_cost == b.used_cost


class TestAblateThreshold:
    @pytest.mark.parametrize("mode", ["global", "sequential"])
    def test_rows_equal_separate_runs(self, mode):
        job = default_job(model_seed=1, pg_seed=1, budget_fraction=0.15, mode=mode)
        learned, _ = run(job)
        expected = [("learned", learned)] + [
            (variant, heuristic_threshold_baseline(job, components=components)[0])
            for variant, components in (
                ("threshold", "both"),
                ("low_rank_only", "low_rank_only"),
                ("sparse_only", "sparse_only"),
            )
        ]
        rows = ablate_threshold(job)
        assert [v for v, _ in rows] == [v for v, _ in expected]
        for (_, got), (_, want) in zip(rows, expected):
            assert (repr(got.final_loss), got.used_cost, got.budget) == (
                repr(want.final_loss),
                want.used_cost,
                want.budget,
            )
            assert got.history == want.history
            assert got.rank_distribution == want.rank_distribution


class TestSweepLambda:
    def test_default_weight_single_row_matches_run(self):
        job = default_job(calib_n=32)
        rows = sweep_lambda(job, [None])
        report, _ = run(job)
        assert len(rows) == 1
        assert rows[0].lam is None
        assert rows[0].final_loss == report.final_loss
        assert rows[0].mean_rank_l == pytest.approx(
            np.mean([ls.rank_l for ls in report.layers])
        )
        assert rows[0].total_nnz_s == sum(ls.nnz_s for ls in report.layers)

    def test_sparse_mass_shrinks_with_weight(self):
        job = default_job(calib_n=32)
        rows = sweep_lambda(job, [0.01, 0.1, 1.0])
        nnz = [r.total_nnz_s for r in rows]
        assert nnz == sorted(nnz, reverse=True)
        sparsity = [r.mean_sparsity_s for r in rows]
        assert sparsity == sorted(sparsity)

    def test_extreme_weight_forces_dense_low_rank(self):
        job = single_layer_job(0, budget_fraction=0.5, calib_n=32)
        auto_row = sweep_lambda(job, [None])[0]
        extreme_row = sweep_lambda(job, [10.0])[0]
        assert extreme_row.mean_sparsity_s >= 0.99
        assert extreme_row.mean_rank_l >= auto_row.mean_rank_l

    def test_empty_list_rejected(self):
        job = default_job(calib_n=32)
        with pytest.raises(ValueError):
            sweep_lambda(job, [])

    def test_bad_weight_rejected_before_any_run(self, monkeypatch):
        job = default_job(calib_n=32)
        calls = []
        monkeypatch.setattr("lrsprune.pipeline.decompose", lambda *a: calls.append(a))
        with pytest.raises(ValueError, match="lam must be positive"):
            sweep_lambda(job, [0.1, None, -0.5])
        assert calls == []
