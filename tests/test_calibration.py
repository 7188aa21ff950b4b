"""Toy models, planted instances, masked reconstruction, and task losses."""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from lrsprune.calibration import (
    CalibrationSet,
    ToyModel,
    forward_loss,
    gen_calibration,
    loss_with_masks,
    planted_model,
    planted_spectrum_matrix,
    random_orthonormal,
)
from lrsprune.pool import build_pool, factorize, param_count, reconstruct
from lrsprune.rpca import SvdFactorization, decompose
from references import (
    TOY_SHAPES,
    default_toy_model,
    frobenius_norm,
    heavy_matrix,
    heavy_model,
    planted_matrix,
    svd,
)


@pytest.fixture(scope="module")
def planted_pool():
    """Exact ground-truth pool: rank-2 spectrum plus graded sparse entries."""
    rng = np.random.default_rng(2)
    w, l0, s0 = planted_spectrum_matrix(16, 12, 2, rng, decay=0.7, outlier_frac=0.06)
    return build_pool(svd(l0), s0), w, l0, s0


class TestToyModel:
    def test_dimension_chaining_enforced(self):
        with pytest.raises(ValueError):
            ToyModel(layers=[np.zeros((4, 3)), np.zeros((4, 2))])

    def test_needs_layers(self):
        with pytest.raises(ValueError):
            ToyModel(layers=[])

    def test_properties(self):
        model = ToyModel(layers=[np.zeros((4, 3)), np.zeros((3, 2))])
        assert model.input_dim == 4
        assert model.output_dim == 2
        assert model.dense_params == 12 + 6

    def test_forward_rectifier_clips_between_layers(self):
        w1 = np.array([[1.0, -1.0]])
        w2 = np.array([[1.0], [1.0]])
        model = ToyModel(layers=[w1, w2])
        # pre-activation (2, -2) clips to (2, 0); the output layer is not clipped
        np.testing.assert_allclose(model.forward([[2.0]]), [[2.0]])
        np.testing.assert_allclose(model.forward([[-2.0]]), [[2.0]])


class TestCalibration:
    def test_noiseless_targets_have_zero_loss(self, rng):
        model = default_toy_model(rng)
        calib = gen_calibration(model, 16, 0.0, rng)
        assert forward_loss(model, calib) == 0.0

    def test_seeded_generation_is_deterministic(self, rng):
        model = default_toy_model(rng)
        a = gen_calibration(model, 8, 0.1, np.random.default_rng(7))
        b = gen_calibration(model, 8, 0.1, np.random.default_rng(7))
        assert a.inputs.tobytes() == b.inputs.tobytes()
        assert a.targets.tobytes() == b.targets.tobytes()

    def test_noise_variance_reaches_the_loss(self, rng):
        model = default_toy_model(rng)
        sigma = 0.5
        calib = gen_calibration(model, 10_000, sigma, rng)
        expected = sigma * sigma * model.output_dim
        assert forward_loss(model, calib) == pytest.approx(expected, rel=0.1)

    def test_rejects_bad_arguments(self, rng):
        model = default_toy_model(rng)
        with pytest.raises(ValueError):
            gen_calibration(model, 0, 0.0, rng)
        with pytest.raises(ValueError):
            gen_calibration(model, 4, -0.1, rng)
        with pytest.raises(ValueError):
            CalibrationSet(inputs=np.zeros((3, 2)), targets=np.zeros((4, 2)))

    def test_empty_set_rejected(self):
        with pytest.raises(ValueError, match="at least one record"):
            CalibrationSet(inputs=np.zeros((0, 2)), targets=np.zeros((0, 3)))

    @pytest.mark.parametrize("sigma", [float("nan"), float("inf")])
    def test_non_finite_noise_rejected(self, sigma, rng):
        # NaN fails both `< 0` and `> 0`, so without the check it meant no noise
        model = default_toy_model(rng)
        with pytest.raises(ValueError, match="non-negative and finite"):
            gen_calibration(model, 4, sigma, rng)

    def test_forward_loss_hand_value(self):
        model = ToyModel(layers=[np.eye(2)])
        calib = CalibrationSet(
            inputs=np.array([[1.0, 0.0], [0.0, 2.0]]),
            targets=np.array([[0.0, 0.0], [0.0, 0.0]]),
        )
        # per-record squared errors 1 and 4, averaged
        assert forward_loss(model, calib) == pytest.approx(2.5, abs=1e-15)

    @pytest.mark.parametrize("n, shapes", [(128, TOY_SHAPES), (7, [(5, 3)]), (300, [(40, 1)])])
    def test_forward_loss_equals_the_per_record_sum(self, n, shapes, rng):
        # the loss sums all squared errors in one flat pass; summing each
        # record first is another order, so they agree to the summation bound
        model = planted_model(shapes, rng)
        x = rng.standard_normal((n, model.input_dim))
        calib = CalibrationSet(inputs=x, targets=rng.standard_normal((n, model.output_dim)))
        diff = model.forward(x) - calib.targets
        per_record = float(np.mean(np.sum(diff * diff, axis=1)))
        bound = diff.size * np.finfo(np.float64).eps * per_record
        assert abs(forward_loss(model, calib) - per_record) <= bound


class TestReconstruct:
    def test_full_mask_restores_both_parts(self, planted_pool):
        pool, _, l0, s0 = planted_pool
        out = reconstruct(pool, np.ones(pool.size))
        assert frobenius_norm(out - (l0 + s0)) <= 1e-9

    def test_zero_mask_is_zero(self, planted_pool):
        pool, _, _, _ = planted_pool
        np.testing.assert_array_equal(reconstruct(pool, np.zeros(pool.size)), 0.0)

    def test_single_triplet_outer_product(self, planted_pool):
        pool, _, _, _ = planted_pool
        mask = np.zeros(pool.size)
        mask[0] = 1
        top = pool.sigma[0] * np.outer(pool.u[:, 0], pool.vt[0])
        np.testing.assert_allclose(reconstruct(pool, mask), top, atol=1e-12)

    def test_entries_only_restore_sparse_part_exactly(self, planted_pool):
        pool, _, _, s0 = planted_pool
        mask = np.zeros(pool.size)
        mask[pool.n_triplets :] = 1
        np.testing.assert_array_equal(reconstruct(pool, mask), s0)

    def test_mask_length_checked(self, planted_pool):
        pool, _, _, _ = planted_pool
        with pytest.raises(ValueError):
            reconstruct(pool, np.ones(pool.size + 2))


def explicit_rebuild(pool, mask):
    """(u[:, idx] * sigma) @ vt[idx] plus the kept sparse entries, from
    the pool's triplets and entry lists."""
    t = pool.n_triplets
    keep_t, keep_e = mask[:t] != 0, mask[t:] != 0
    out = (pool.u[:, keep_t] * pool.sigma[keep_t]) @ pool.vt[keep_t]
    rows, cols = np.divmod(pool.entry_flat[keep_e], pool.cols)
    out[rows, cols] += pool.entry_values[keep_e]
    return out


IDENTITY_POOLS = ("toy", "planted256", "no_triplets", "no_entries", "nothing", "1x1")


@pytest.fixture(scope="module")
def identity_pools():
    rng = np.random.default_rng(4)
    _, l0, s0 = planted_spectrum_matrix(16, 12, 2, rng, decay=0.7, outlier_frac=0.06)
    _, l1, s1 = planted_matrix(256, 256, 8, rng)
    no_triplets = SvdFactorization(u=np.zeros((2, 0)), sigma=np.zeros(0), v=np.zeros((3, 0)))
    one = decompose(rng.standard_normal((1, 1)))
    return {
        "toy": build_pool(svd(l0), s0),
        "planted256": build_pool(svd(l1), s1),
        "no_triplets": build_pool(no_triplets, np.array([[0.0, -2.0, 0.0], [1.0, 0.0, 0.0]])),
        "no_entries": build_pool(svd(l0), np.zeros_like(l0)),
        "nothing": build_pool(svd(np.zeros((5, 3))), np.zeros((5, 3))),
        "1x1": build_pool(one.factors, one.s),
    }


class TestReconstructIdentity:
    """The masked rebuild equals the explicit sum of the kept candidates,
    byte for byte."""

    @pytest.mark.parametrize("name", IDENTITY_POOLS)
    def test_random_and_extreme_masks(self, identity_pools, name):
        pool = identity_pools[name]
        rng = np.random.default_rng(7)
        masks = [np.zeros(pool.size, dtype=np.int8), np.ones(pool.size, dtype=np.int8)]
        masks += [(rng.random(pool.size) < p).astype(np.int8) for p in (0.1, 0.5, 0.9)]
        for mask in masks:
            out = reconstruct(pool, mask)
            expected = explicit_rebuild(pool, mask)
            assert out.shape == expected.shape == (pool.rows, pool.cols)
            assert out.tobytes() == expected.tobytes()


class TestFactorize:
    def test_identity_against_reconstruct(self, planted_pool, rng):
        pool, _, _, _ = planted_pool
        for _ in range(20):
            mask = (rng.random(pool.size) < 0.5).astype(np.int8)
            layer = factorize(pool, mask)
            gap = layer.u_prime @ layer.v_prime.T + layer.s_masked - reconstruct(pool, mask)
            assert np.max(np.abs(gap)) <= 1e-10

    def test_no_triplets_kept(self, planted_pool):
        pool, _, _, _ = planted_pool
        mask = np.zeros(pool.size)
        mask[pool.n_triplets :] = 1
        layer = factorize(pool, mask)
        assert layer.u_prime.shape == (pool.rows, 0)
        assert layer.v_prime.shape == (pool.cols, 0)
        dense = layer.u_prime @ layer.v_prime.T + layer.s_masked
        np.testing.assert_array_equal(dense, layer.s_masked)

    def test_square_root_balanced_factors(self):
        u = np.zeros((6, 1))
        v = np.zeros((5, 1))
        u[0, 0] = 1.0
        v[1, 0] = 1.0
        pool = build_pool(svd(4.0 * (u @ v.T)), np.zeros((6, 5)))
        layer = factorize(pool, np.ones(pool.size))
        assert np.linalg.norm(layer.u_prime[:, 0]) == pytest.approx(2.0, abs=1e-12)
        assert np.linalg.norm(layer.v_prime[:, 0]) == pytest.approx(2.0, abs=1e-12)

    @given(bits=st.lists(st.integers(min_value=0, max_value=1), min_size=8, max_size=8))
    def test_stored_params_match_cost_accounting(self, bits):
        rng = np.random.default_rng(4)
        w, l0, s0 = planted_spectrum_matrix(10, 8, 1, rng, outlier_frac=0.08)
        pool = build_pool(svd(l0), s0)
        if pool.size != len(bits):
            bits = (bits * pool.size)[: pool.size]
        mask = np.array(bits)
        layer = factorize(pool, mask)
        assert layer.stored_params == param_count(pool, mask)


class TestLossWithMasks:
    def test_full_masks_match_manual_rebuild(self, rng):
        model = default_toy_model(rng)
        calib = gen_calibration(model, 16, 0.0, rng)
        pools = {}
        for i, w in enumerate(model.layers):
            from lrsprune.rpca import decompose

            res = decompose(w)
            pools[i] = build_pool(res.factors, res.s)
        masks = {i: np.ones(pools[i].size, dtype=np.int8) for i in pools}
        got = loss_with_masks(model, pools, masks, calib)
        rebuilt = ToyModel(layers=[reconstruct(pools[i], masks[i]) for i in range(3)])
        assert got == pytest.approx(forward_loss(rebuilt, calib), rel=1e-12)

    def test_zero_masks_leave_pure_target_energy(self, rng):
        model = default_toy_model(rng)
        calib = gen_calibration(model, 16, 0.0, rng)
        pools = {
            i: build_pool(svd(model.layers[i]), np.zeros_like(model.layers[i]))
            for i in range(3)
        }
        masks = {i: np.zeros(pools[i].size, dtype=np.int8) for i in pools}
        got = loss_with_masks(model, pools, masks, calib)
        expected = float(np.mean(np.sum(calib.targets**2, axis=1)))
        assert got == pytest.approx(expected, rel=1e-12)

    def test_partial_coverage_keeps_other_layers_dense(self, rng):
        model = default_toy_model(rng)
        calib = gen_calibration(model, 16, 0.0, rng)
        pool = build_pool(svd(model.layers[1]), np.zeros_like(model.layers[1]))
        got = loss_with_masks(model, {1: pool}, {1: np.ones(pool.size)}, calib)
        # full mask on one layer reproduces that layer, so the loss stays tiny
        assert got <= 1e-12

    def test_key_mismatch_rejected(self, rng):
        model = default_toy_model(rng)
        calib = gen_calibration(model, 4, 0.0, rng)
        pool = build_pool(svd(model.layers[0]), np.zeros_like(model.layers[0]))
        with pytest.raises(ValueError):
            loss_with_masks(model, {0: pool}, {1: np.ones(pool.size)}, calib)
        with pytest.raises(ValueError):
            loss_with_masks(model, {5: pool}, {5: np.ones(pool.size)}, calib)


class TestPlantedMatrix:
    def test_sum_and_support(self, rng):
        w, l0, s0 = planted_matrix(30, 20, 3, rng)
        np.testing.assert_array_equal(w, l0 + s0)
        assert np.count_nonzero(s0) == round(0.05 * 600)
        assert np.linalg.matrix_rank(l0) == 3

    def test_scalar_scale_plants_exact_magnitudes(self, rng):
        _, l0, s0 = planted_matrix(20, 20, 2, rng, outlier_frac=0.1, outlier_scale=8.0)
        vals = np.abs(s0[s0 != 0.0])
        expected = 8.0 * float(np.mean(np.abs(l0)))
        np.testing.assert_allclose(vals, expected, rtol=1e-12)

    def test_graded_scale_spans_the_range(self, rng):
        _, l0, s0 = planted_matrix(
            20, 20, 2, rng, outlier_frac=0.1, outlier_scale=(4.0, 12.0)
        )
        vals = np.sort(np.abs(s0[s0 != 0.0]))
        mean_abs = float(np.mean(np.abs(l0)))
        np.testing.assert_allclose(
            vals, np.linspace(4.0, 12.0, vals.size) * mean_abs, rtol=1e-12
        )

    def test_scale_parameter(self, rng):
        w1, l1, s1 = planted_matrix(10, 8, 1, np.random.default_rng(3), scale=None)
        w2, l2, s2 = planted_matrix(10, 8, 1, np.random.default_rng(3), scale=2.0)
        np.testing.assert_allclose(l2, 2.0 * l1)
        np.testing.assert_allclose(s2, 2.0 * s1)

    def test_rejects_bad_arguments(self, rng):
        with pytest.raises(ValueError):
            planted_matrix(4, 4, 0, rng)
        with pytest.raises(ValueError):
            planted_matrix(4, 4, 5, rng)
        with pytest.raises(ValueError):
            planted_matrix(4, 4, 1, rng, outlier_frac=1.0)


class TestPlantedSpectrumMatrix:
    def test_total_energy_normalized(self, rng):
        w, _, _ = planted_spectrum_matrix(24, 16, 2, rng)
        assert float(np.sum(w * w)) == pytest.approx(16.0, abs=1e-9)

    def test_low_rank_part_has_exact_rank(self, rng):
        _, l0, _ = planted_spectrum_matrix(24, 16, 3, rng, outlier_frac=0.0)
        sig = np.linalg.svd(l0, compute_uv=False)
        assert sig[2] > 0
        assert sig[3] < 1e-12 * sig[0]

    def test_spectrum_follows_decay(self, rng):
        _, l0, _ = planted_spectrum_matrix(24, 16, 3, rng, decay=0.6, outlier_frac=0.0)
        sig = np.linalg.svd(l0, compute_uv=False)[:3]
        np.testing.assert_allclose(sig[1:] / sig[:-1], 0.6, rtol=1e-9)

    def test_parts_sum(self, rng):
        w, l0, s0 = planted_spectrum_matrix(16, 12, 2, rng)
        np.testing.assert_allclose(w, l0 + s0, atol=1e-15)

    def test_rejects_bad_decay(self, rng):
        with pytest.raises(ValueError):
            planted_spectrum_matrix(8, 6, 1, rng, decay=0.0)

    def test_rejects_all_outliers(self, rng):
        with pytest.raises(ValueError, match=r"outlier_frac must lie in \[0, 1\)"):
            planted_spectrum_matrix(8, 6, 1, rng, outlier_frac=1.0)


class TestHeavyMatrix:
    @pytest.mark.parametrize("shape", [(128, 128), (64, 96), (96, 64)])
    def test_three_outsized_rows_on_a_one_over_k_spectrum(self, shape):
        w = heavy_matrix(*shape, np.random.default_rng(0))
        assert float(np.sum(w * w)) == pytest.approx(shape[1], rel=1e-12)
        # the three largest rows stand out; scaled back by 10, they leave
        # sigma_k proportional to 1/k over the full rank
        top = np.argsort(np.linalg.norm(w, axis=1))[-3:]
        others = np.delete(np.linalg.norm(w, axis=1), top)
        assert np.linalg.norm(w[top], axis=1).min() > 2 * others.max()
        base = w.copy()
        base[top] /= 10.0
        sig = np.linalg.svd(base, compute_uv=False)
        np.testing.assert_allclose(sig * np.arange(1, sig.size + 1), sig[0], rtol=1e-10)

    def test_stack_draws_its_layers_in_order(self):
        model = heavy_model([(32, 24), (24, 16)], np.random.default_rng(3))
        rng = np.random.default_rng(3)
        first, second = heavy_matrix(32, 24, rng), heavy_matrix(24, 16, rng)
        assert model.layers[0].tobytes() == first.tobytes()
        assert model.layers[1].tobytes() == second.tobytes()


class TestRandomOrthonormal:
    def test_columns_orthonormal(self, rng):
        q = random_orthonormal(16, 3, rng)
        np.testing.assert_allclose(q.T @ q, np.eye(3), atol=1e-12)

    def test_spread_cap_honored(self):
        for seed in range(10):
            q = random_orthonormal(24, 2, np.random.default_rng(seed), spread_cap=2.0)
            bound = 2.0 * np.sqrt(2 / 24)
            assert float(np.max(np.linalg.norm(q, axis=1))) <= bound + 1e-12

    def test_uncapped_path(self, rng):
        q = random_orthonormal(8, 2, rng, spread_cap=None)
        np.testing.assert_allclose(q.T @ q, np.eye(2), atol=1e-12)

    def test_deterministic_given_seed(self):
        a = random_orthonormal(12, 2, np.random.default_rng(5))
        b = random_orthonormal(12, 2, np.random.default_rng(5))
        assert a.tobytes() == b.tobytes()

    @pytest.mark.parametrize("seed", range(4))
    def test_single_column_of_tall_layer(self, seed):
        # the cap 2/sqrt(128) is rarely met by one random unit vector, so the
        # least spread of the draws is returned instead of an error
        q = random_orthonormal(128, 1, np.random.default_rng(seed))
        assert q.shape == (128, 1)
        np.testing.assert_allclose(np.linalg.norm(q), 1.0, atol=1e-12)
        again = random_orthonormal(128, 1, np.random.default_rng(seed))
        assert q.tobytes() == again.tobytes()

    @pytest.mark.parametrize("seed", range(4))
    def test_thin_layer_stack_plants(self, seed):
        # the 128x16 layer plants rank min(128, 16) // 12 = 1, so its left
        # factor is one 128-row column that rarely meets the spread cap
        model = planted_model([(128, 16), (16, 8)], np.random.default_rng(seed))
        assert [w.shape for w in model.layers] == [(128, 16), (16, 8)]
        assert all(np.isfinite(w).all() for w in model.layers)

    def test_fallback_is_least_spread_draw(self):
        seed, dim = 0, 128
        rng = np.random.default_rng(seed)
        draws = []
        for _ in range(200):
            q, r = np.linalg.qr(rng.standard_normal((dim, 1)))
            draws.append(q * np.sign(np.diag(r)))
        spreads = [np.max(np.abs(q)) for q in draws]
        assert min(spreads) > 2.0 / np.sqrt(dim)  # no draw meets the cap
        got = random_orthonormal(dim, 1, np.random.default_rng(seed))
        assert got.tobytes() == draws[int(np.argmin(spreads))].tobytes()

    def test_rank_bounds(self, rng):
        with pytest.raises(ValueError):
            random_orthonormal(4, 0, rng)
        with pytest.raises(ValueError):
            random_orthonormal(4, 5, rng)


class TestPlantedModel:
    def test_default_toy_shape_and_size(self, rng):
        model = default_toy_model(rng)
        assert [w.shape for w in model.layers] == list(TOY_SHAPES)
        assert model.dense_params == 32 * 24 + 24 * 24 + 24 * 16

    def test_rank_rule_floor(self, rng):
        # min(m, n) // 12 with a floor of one planted direction; without
        # outliers each layer is exactly its planted low-rank part
        model = planted_model([(24, 36), (36, 8)], rng, outlier_frac=0.0)
        assert np.linalg.matrix_rank(model.layers[0]) == 2
        assert np.linalg.matrix_rank(model.layers[1]) == 1

    def test_explicit_ranks_validated(self, rng):
        with pytest.raises(ValueError):
            planted_model([(8, 6), (6, 4)], rng, ranks=[1])
        with pytest.raises(ValueError):
            planted_model([(8, 6), (6, 4)], rng, decays=[0.9])

    def test_deterministic_given_seed(self):
        a = planted_model([(8, 6), (6, 4)], np.random.default_rng(1))
        b = planted_model([(8, 6), (6, 4)], np.random.default_rng(1))
        for wa, wb in zip(a.layers, b.layers):
            assert wa.tobytes() == wb.tobytes()


def test_top_direction_beats_smaller_alone(rng):
    # single linear layer: keeping the largest direction can never lose to
    # keeping a smaller one alone
    w, l0, _ = planted_spectrum_matrix(16, 12, 2, rng, decay=0.7, outlier_frac=0.0)
    model = ToyModel(layers=[l0])
    calib = gen_calibration(model, 256, 0.0, rng)
    pool = build_pool(svd(l0), np.zeros_like(l0))
    assert pool.n_triplets == 2
    top, second = np.zeros(pool.size), np.zeros(pool.size)
    top[0] = 1
    second[1] = 1
    loss_top = loss_with_masks(model, {0: pool}, {0: top}, calib)
    loss_second = loss_with_masks(model, {0: pool}, {0: second}, calib)
    assert loss_top <= loss_second
