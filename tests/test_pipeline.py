"""End-to-end orchestration: budgets, reports, modes, baselines, sweeps."""

import ast
import weakref
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from lrsprune import pipeline
from lrsprune.allocator import PolicyGradientConfig
from lrsprune.calibration import (
    CalibrationSet,
    MaskedLossEvaluator,
    ToyModel,
    gen_calibration,
    loss_with_masks,
    planted_model,
    stack_loss,
)
from lrsprune.cli import format_report
from lrsprune.matio import JobConfig, parse_job_config
from lrsprune.pipeline import (
    MODES,
    ROWS,
    CompressionJob,
    CompressionReport,
    _budget,
    ablate_threshold,
    default_job,
    heuristic_threshold_baseline,
    job_from_config,
    run,
    select,
    stage1,
    sweep_lambda,
)
from lrsprune.pool import build_pool, reconstruct
from lrsprune.rpca import RpcaConfig, SvdFactorization, decompose
from references import brute_force_best_mask, single_layer_job


@pytest.fixture(scope="module")
def quick_run():
    """Default planted job with a small calibration set, run once."""
    job = default_job(calib_n=32)
    report, compressed = run(job)
    return job, report, compressed


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

    def test_defaults_are_the_stock_config(self, quick_run):
        # the benchmark builds CompressionJob directly, so it keeps its own copy
        job, stock = quick_run[0], JobConfig()
        bare = CompressionJob(model=job.model, calib=job.calib)
        assert (bare.budget_fraction, bare.mode) == (stock.budget_fraction, stock.mode)
        assert (bare.rpca_config, bare.pg_config) == (stock.rpca, stock.pg)

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


class TestJobFromConfig:
    @pytest.mark.parametrize(
        "text, kwargs",
        [
            ("", {}),
            ("model.seed = 3\n", dict(model_seed=3)),
            ("budget.fraction = 0.15\n", dict(budget_fraction=0.15)),
            ("mode = sequential\n", dict(mode="sequential")),
            (
                "model.seed = 3\npg.seed = 3\nbudget.fraction = 0.15\nmode = sequential\n",
                dict(model_seed=3, pg_seed=3, budget_fraction=0.15, mode="sequential"),
            ),
        ],
    )
    def test_agrees_with_default_job(self, text, kwargs):
        # the CLI builds its jobs from configs, the API from default_job
        got, want = job_from_config(parse_job_config(text)), default_job(**kwargs)
        assert [w.tobytes() for w in got.model.layers] == [w.tobytes() for w in want.model.layers]
        assert got.calib.inputs.tobytes() == want.calib.inputs.tobytes()
        assert got.calib.targets.tobytes() == want.calib.targets.tobytes()
        assert (got.rpca_config, got.pg_config) == (want.rpca_config, want.pg_config)
        assert (got.budget_fraction, got.mode) == (want.budget_fraction, want.mode)

    def test_given_model_and_calibration_are_kept(self, quick_run):
        job = quick_run[0]
        built = job_from_config(parse_job_config("mode = sequential\n"), job.model, job.calib)
        assert built.model is job.model and built.calib is job.calib
        assert built.mode == "sequential"

    def test_model_without_calibration_rejected(self, quick_run):
        with pytest.raises(ValueError, match="model and calib together"):
            job_from_config(JobConfig(), quick_run[0].model)

    def test_calibration_without_model_rejected(self, quick_run):
        with pytest.raises(ValueError, match="model and calib together"):
            job_from_config(JobConfig(), calib=quick_run[0].calib)


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
        ranks = [ls.retained_rank for ls in report.layers]
        line = "rank_distribution\t" + ",".join(map(str, ranks))
        assert line in format_report(report).splitlines()
        assert ranks == [compressed[i].u_prime.shape[1] for i in sorted(compressed)]

    def test_history_records_every_scored_sample(self):
        job = default_job(calib_n=32, budget_fraction=0.15)  # a budget that binds
        report, _ = run(job)
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
        assert a.layers == b.layers
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


class TestCoveredGroup:
    @pytest.mark.parametrize("row", list(ROWS))
    def test_keeps_every_eligible_candidate_without_the_chooser(self, row, monkeypatch):
        # the stock job: a budget of 864 against a pool that costs 357
        job = default_job(calib_n=32)
        computed = stage1(job)
        pools = {i: ROWS[row][0](pool) for i, pool in computed[1].items()}
        assert sum(pool.costs.sum() for pool in pools.values()) <= _budget(job, list(pools))
        calls = []
        for name in ("_learned_key", "_magnitude_key"):
            monkeypatch.setattr(pipeline, name, lambda *args, **kwargs: calls.append(args))
        report, masks = select(job, computed, row)
        assert calls == [] and report.history == [] and report.budget_too_small is False
        for i, pool in pools.items():
            assert masks[i].tobytes() == np.ones(pool.size, dtype=np.int8).tobytes()

    def test_learned_run_scores_no_mask(self, quick_run):
        _, report, compressed = quick_run
        assert report.history == []
        assert all(np.all(layer.mask == 1) for layer in compressed.values())


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
    costs = np.concatenate([pool.costs for pool in stage1(job)[1].values()])
    cheapest = int(costs.min()) if costs.size else model.dense_params
    budget = draw(st.integers(0, min(cheapest, model.dense_params) - 1))
    return replace(job, budget_fraction=(budget + 0.5) / model.dense_params)


class TestBudgetTooSmall:
    @given(job=below_cheapest_jobs())
    def test_budget_below_cheapest_keeps_nothing(self, job):
        pools = stage1(job)[1]
        report, compressed = run(job)
        assert report.used_cost == 0
        assert [ls.retained_rank for ls in report.layers] == [0] * len(pools)
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
        assert [ls.retained_rank for ls in report.layers] == [0]
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
        rows = dict(ablate_threshold(job))
        low_rank = rows["low_rank_only"]
        assert [ls.rows + ls.cols for ls in low_rank.layers] == [56, 48, 40]
        assert low_rank.budget == 38 + 28 + 19
        assert low_rank.used_cost == 0
        assert low_rank.budget_too_small is True
        assert rows["threshold"].budget_too_small is False
        assert rows["sparse_only"].budget_too_small is False
        assert rows["learned"].budget_too_small is False


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
        pool = build_pool(res.factors, res.s)
        masks[i] = np.zeros(pool.size, dtype=np.int8)
        for k, sigma in enumerate(pool.sigma):
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
        # the row over a family's pools keeps what the reference keeps of that
        # family, and the reference keeps nothing of the other family; the
        # threshold row reads both families
        job = default_job(budget_fraction=fraction)
        computed = stage1(job)
        row = "threshold" if components == "both" else components
        report, masks = select(job, computed, row)
        expected, pool_cost = reference_threshold_masks(job, components)
        assert sorted(masks) == sorted(expected)
        for i, mask in expected.items():
            t = computed[1][i].n_triplets
            part, rest = {
                "both": (mask, mask[:0]),
                "low_rank_only": (mask[:t], mask[t:]),
                "sparse_only": (mask[t:], mask[:t]),
            }[components]
            assert masks[i].tobytes() == part.tobytes()
            assert not rest.any()
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
                assert ls.cost <= cap, (variant, ls.layer)


# which layers of a group each step of the walk changes
WALK = ("all", "last", "first", "none", "first", "none", "last", "all", "none")


def walk_in_place(job, pools, rng):
    """Walk each budget group of ``job`` through masks that change per layer
    only entry bits, only triplet bits, both or neither, and in a group of
    several layers several layers at once; after each step every evaluator
    weight equals ``reconstruct`` byte for byte, the loss equals a full
    rebuild's, the spare buffer slot holds +0.0, and the arrays passed in are
    unchanged."""
    groups = [list(pools)] if job.mode == "global" else [[i] for i in pools]
    given = [w.copy() for w in job.model.layers]
    weights = list(job.model.layers)
    for group in groups:
        passed = [w.copy() for w in weights]
        evaluator = MaskedLossEvaluator(job.calib, weights, pools, group, [])
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
                t = pools[i].n_triplets
                span = {"entries": slice(t, None), "triplets": slice(0, t), "both": slice(None)}
                bits = masks[i][span.get(part, slice(0))]
                if bits.size == 0:  # "none", or a part the layer does not have
                    continue
                flip = rng.random(bits.size) < 0.5
                flip[rng.integers(bits.size)] = True
                bits[flip] ^= 1
            loss = evaluator.loss(np.concatenate([masks[k] for k in group]))
            full = list(weights)
            for k in group:
                full[k] = reconstruct(pools[k], masks[k])
                assert evaluator.weights[k].tobytes() == full[k].tobytes(), (group, step)
            assert loss == stack_loss(full, job.calib), (group, step)
            assert evaluator._buffer[-1:].tobytes() == bytes(8), (group, step)  # +0.0
            assert all(a.tobytes() == b.tobytes() for a, b in zip(weights, passed))
            assert all(a.tobytes() == b.tobytes() for a, b in zip(job.model.layers, given))
        for k in group:
            weights[k] = full[k]


class TestIncrementalEvaluator:
    @pytest.mark.parametrize("mode", MODES)
    def test_loss_equals_full_rebuild(self, mode):
        job = default_job(calib_n=32, mode=mode)
        pools = stage1(job)[1]
        groups = [list(pools)] if mode == "global" else [[i] for i in pools]
        rng = np.random.default_rng(7)
        weights = list(job.model.layers)
        for group in groups:
            history = []
            evaluator = MaskedLossEvaluator(job.calib, weights, pools, group, history)
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
                assert loss == stack_loss(full, job.calib), (group, step)
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
        # the weights are compared byte for byte, since a loss may not see a
        # change that feeds only dead units
        job = default_job(calib_n=32, mode=mode)
        pools = stage1(job)[1]
        rng = np.random.default_rng(3)
        walk_in_place(job, pools, rng)
        # a triplet-only, an entry-only and an all-zero layer, whose triplet
        # positions, if any, all point at the spare buffer slot
        none = SvdFactorization(u=np.zeros((24, 0)), sigma=np.zeros(0), v=np.zeros((16, 0)))
        pools = {
            0: ROWS["low_rank_only"][0](pools[0]),
            1: ROWS["sparse_only"][0](pools[1]),
            2: build_pool(none, np.zeros((24, 16))),
        }
        assert pools[0].size == pools[0].n_triplets > 0
        assert pools[1].size > pools[1].n_triplets == 0 and pools[2].size == 0
        walk_in_place(job, pools, rng)

    def test_rejects_masks_it_cannot_read_as_bool(self):
        job = default_job(calib_n=8)
        pools = stage1(job)[1]
        evaluator = MaskedLossEvaluator(job.calib, job.model.layers, pools, list(pools), [])
        ones = np.ones(evaluator.costs.size, dtype=np.int8)
        for bad in (ones.astype(np.int64), ones.astype(bool), ones[1:]):
            with pytest.raises(ValueError, match="mask must be int8 of shape"):
                evaluator.loss(bad)
        assert evaluator.history == []

    def test_threshold_rows_forward_nothing(self, monkeypatch):
        made = []

        class Recording(pipeline.MaskedLossEvaluator):
            def __init__(self, *args):
                super().__init__(*args)
                made.append(self)

        monkeypatch.setattr(pipeline, "MaskedLossEvaluator", Recording)
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
        job = single_layer_job(0, budget_fraction=4 / 384)
        report, _ = run(job)
        res = decompose(job.model.layers[0], job.rpca_config)
        pool = build_pool(res.factors, res.s)
        assert pool.size <= 12

        def loss_fn(bits):
            return loss_with_masks(job.model, {0: pool}, {0: bits}, job.calib)

        oracle = brute_force_best_mask(pool, report.budget, loss_fn)
        assert report.final_loss <= 1.05 * oracle.best_loss


class TestHeuristicBaseline:
    def test_component_restrictions(self):
        rows = dict(ablate_threshold(default_job(calib_n=32)))
        l_only, s_only = rows["low_rank_only"], rows["sparse_only"]
        assert all(ls.sparse_nnz == 0 for ls in l_only.layers)
        assert all(ls.retained_rank == 0 for ls in s_only.layers)
        assert s_only.used_cost <= s_only.budget

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
        separate = {"learned": run, "threshold": heuristic_threshold_baseline}
        expected = [
            (row, separate[row](job)[0] if row in separate else select(job, stage1(job), row)[0])
            for row in ROWS
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
            assert got.layers == want.layers
            assert got.budget_too_small == want.budget_too_small

    def test_every_row_reports_the_stage1_columns_of_the_split(self):
        job = default_job(calib_n=32, budget_fraction=0.15)
        splits = [decompose(w, job.rpca_config) for w in job.model.layers]
        want = [(r.rank_l, int(np.count_nonzero(r.s)), r.sparsity_s) for r in splits]
        for variant, report in ablate_threshold(job):
            got = [(ls.rank_l, ls.nnz_s, ls.sparsity_s) for ls in report.layers]
            assert got == want, variant


class TestStage1:
    def test_each_split_is_dropped_once_its_pool_is_built(self, monkeypatch):
        splits = []  # weak references to the l and s of every split so far

        def recording(w, config):
            assert all(ref() is None for ref in splits)  # before the next layer is split
            res = decompose(w, config)
            splits.extend((weakref.ref(res.l), weakref.ref(res.s)))
            return res

        def checking(*args):
            assert all(ref() is None for ref in splits)  # and before the losses
            return loss_with_masks(*args)

        monkeypatch.setattr(pipeline, "decompose", recording)
        monkeypatch.setattr(pipeline, "loss_with_masks", checking)
        computed = stage1(default_job(calib_n=8))
        assert len(splits) == 2 * len(computed[1])
        assert all(ref() is None for ref in splits)


class TestSelect:
    @pytest.mark.parametrize("mode", MODES)
    def test_each_evaluator_is_dropped_once_its_group_is_chosen(self, mode, monkeypatch):
        evaluators = []  # weak references to every group's evaluator so far

        class Recording(MaskedLossEvaluator):
            def __init__(self, *args):
                assert all(ref() is None for ref in evaluators)  # before the next group's
                super().__init__(*args)
                evaluators.append(weakref.ref(self))

        def checking(weights, calib):
            assert all(ref() is None for ref in evaluators)  # and before the final loss
            return stack_loss(weights, calib)

        monkeypatch.setattr(pipeline, "MaskedLossEvaluator", Recording)
        monkeypatch.setattr(pipeline, "stack_loss", checking)
        job = default_job(calib_n=8, budget_fraction=0.15, mode=mode)
        report, _ = select(job, stage1(job), "threshold")
        assert len(evaluators) == (1 if mode == "global" else len(report.layers))

    @pytest.mark.parametrize("mode", MODES)
    def test_every_chooser_returns_a_key_that_one_fill_turns_into_a_mask(self, mode, monkeypatch):
        job = default_job(budget_fraction=0.15, mode=mode)
        events = []  # ("group", evaluator), ("key", key), ("fill", keys, costs, budget)

        class Recording(MaskedLossEvaluator):
            def __init__(self, *args):
                super().__init__(*args)
                events.append(("group", self))

        def recording(choose):
            def chooser(*args, **kwargs):
                key = choose(*args, **kwargs)
                events.append(("key", key))
                return key

            return chooser

        def fill(keys, costs, budget, greedy_fill=pipeline.greedy_fill):
            events.append(("fill", keys, costs, budget))
            return greedy_fill(keys, costs, budget)

        for name in ("_learned_key", "_magnitude_key"):
            monkeypatch.setattr(pipeline, name, recording(getattr(pipeline, name)))
        monkeypatch.setattr(pipeline, "MaskedLossEvaluator", Recording)
        monkeypatch.setattr(pipeline, "greedy_fill", fill)
        ablate_threshold(job)
        starts = [k for k, event in enumerate(events) if event[0] == "group"] + [len(events)]
        chosen = 0
        for start, end in zip(starts, starts[1:]):
            evaluator, calls = events[start][1], events[start + 1 : end]
            costs, budget = evaluator.costs, _budget(job, list(evaluator.slices))
            if costs.size == 0 or not costs.min() <= budget < costs.sum():
                assert calls == []  # too small or fully covered: neither is called
                continue
            (name, key), (fill_name, keys, fill_costs, fill_budget) = calls
            assert (name, fill_name) == ("key", "fill")
            assert isinstance(key, np.ndarray) and key.dtype == np.float64
            assert key.shape == costs.shape and keys is key
            assert fill_costs is evaluator.costs and fill_budget == budget
            chosen += 1
        groups = 1 if mode == "global" else len(job.model.layers)
        assert chosen >= groups  # the learned row has a chooser call per group at least


class TestFamilyPools:
    @pytest.mark.parametrize("model_seed", [0, 1, 2])
    def test_each_family_pool_is_the_full_pool_cut_to_that_family(self, model_seed):
        pools = stage1(default_job(model_seed=model_seed))[1]
        assert list(ROWS) == ["learned", "threshold", "low_rank_only", "sparse_only"]
        for i, pool in pools.items():
            t = pool.n_triplets
            # the full-pool rows read the Stage 1 pool itself, not a copy
            assert ROWS["learned"][0](pool) is pool and ROWS["threshold"][0](pool) is pool
            low_rank, sparse = ROWS["low_rank_only"][0](pool), ROWS["sparse_only"][0](pool)
            assert (low_rank.n_triplets, low_rank.size) == (t, t)
            assert (sparse.n_triplets, sparse.size) == (0, pool.size - t)
            for family, cut in ((low_rank, slice(0, t)), (sparse, slice(t, pool.size))):
                assert (family.rows, family.cols) == (pool.rows, pool.cols)
                for name in ("costs", "magnitudes"):
                    got, want = getattr(family, name), getattr(pool, name)[cut]
                    assert (got.dtype, got.tobytes()) == (want.dtype, want.tobytes()), name
            for name in ("entry_values", "entry_flat"):
                got, want = getattr(sparse, name), getattr(pool, name)
                assert (got.dtype, got.tobytes()) == (want.dtype, want.tobytes()), name
                assert getattr(low_rank, name).size == 0, name
            for name in ("u", "sigma", "vt"):
                got, want = getattr(low_rank, name), getattr(pool, name)
                assert (got.shape, got.dtype, got.tobytes()) == (want.shape, want.dtype, want.tobytes())
                assert getattr(sparse, name).size == 0, name


class TestSweepLambda:
    @staticmethod
    def _means(report):
        """Mean Stage 1 rank and sparsity over the layers, and the total nonzeros."""
        layers = report.layers
        return (
            np.mean([ls.rank_l for ls in layers]),
            np.mean([ls.sparsity_s for ls in layers]),
            sum(ls.nnz_s for ls in layers),
        )

    def test_default_weight_single_row_matches_run(self, monkeypatch):
        job = default_job(calib_n=32)
        factorized = []
        monkeypatch.setattr(pipeline, "factorize", lambda *args: factorized.append(args))
        rows = sweep_lambda(job, [None])
        assert factorized == []  # the rows keep reports, not factors
        monkeypatch.undo()
        report, _ = run(job)
        assert len(rows) == 1
        lam, swept = rows[0]
        assert lam is None
        assert isinstance(swept, CompressionReport)
        assert swept == report

    def test_rows_in_given_order(self):
        job = default_job(calib_n=32)
        rows = sweep_lambda(job, [1.0, None, 0.01])
        assert [lam for lam, _ in rows] == [1.0, None, 0.01]
        for lam, report in rows:
            want = sweep_lambda(job, [lam])[0][1]
            assert report == want

    def test_sparse_mass_shrinks_with_weight(self):
        job = default_job(calib_n=32)
        rows = sweep_lambda(job, [0.01, 0.1, 1.0])
        nnz = [self._means(report)[2] for _, report in rows]
        assert nnz == sorted(nnz, reverse=True)
        sparsity = [self._means(report)[1] for _, report in rows]
        assert sparsity == sorted(sparsity)

    def test_extreme_weight_forces_dense_low_rank(self):
        job = single_layer_job(0, budget_fraction=0.5, calib_n=32)
        auto_rank, _, _ = self._means(sweep_lambda(job, [None])[0][1])
        extreme_rank, extreme_sparsity, _ = self._means(sweep_lambda(job, [10.0])[0][1])
        assert extreme_sparsity >= 0.99
        assert extreme_rank >= auto_rank

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


def test_no_module_imports_a_private_name_of_a_sibling():
    # each module, and the acceptance tests, reach the modules through their
    # public names only
    private = []
    paths = sorted(Path(pipeline.__file__).parent.glob("*.py"))
    for path in paths + [Path(__file__).with_name("test_acceptance.py")]:
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.ImportFrom) and (
                node.level > 0 or (node.module or "").split(".")[0] == "lrsprune"
            ):
                names = [a.name for a in node.names if a.name.startswith("_")]
                private += [f"{path.name}: {node.module}.{name}" for name in names]
    assert private == []
