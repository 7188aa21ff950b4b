"""Candidate enumeration: families, costs, deterministic ordering, recounts."""

import dataclasses

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from lrsprune.calibration import planted_model, planted_spectrum_matrix
from lrsprune.pool import build_pool, factorize, param_count, reconstruct
from lrsprune.rpca import SvdFactorization, decompose
from references import default_toy_model, planted_matrix, svd


def rank2_plus_entries():
    """10x6 layer with two planted singular directions and 7 sparse entries."""
    rng = np.random.default_rng(3)
    q1, _ = np.linalg.qr(rng.standard_normal((10, 2)))
    q2, _ = np.linalg.qr(rng.standard_normal((6, 2)))
    l = (q1 * np.array([5.0, 2.0])) @ q2.T
    s = np.zeros((10, 6))
    coords = [(0, 0), (1, 3), (2, 5), (4, 1), (6, 2), (7, 4), (9, 0)]
    for k, (r, c) in enumerate(coords):
        s[r, c] = (-1.0) ** k * (10.0 - k)
    return l, s


class TestBuildPool:
    def test_empty_parts_make_empty_pool(self):
        pool = build_pool(svd(np.zeros((5, 4))), np.zeros((5, 4)))
        assert pool.size == 0
        assert pool.n_triplets == 0
        assert pool.total_cost == 0
        assert pool.costs.shape == (0,)

    def test_rank2_with_seven_entries(self):
        l, s = rank2_plus_entries()
        pool = build_pool(svd(l), s)
        assert pool.n_triplets == 2
        assert pool.size == 9
        assert pool.u.shape == (10, 2) and pool.vt.shape == (2, 6)
        assert all(c == 16 for c in pool.costs[:2])
        assert pool.entry_values.size == 7
        assert all(c == 1 for c in pool.costs[2:])
        assert pool.total_cost == 2 * 16 + 7 == 39

    def test_triplets_sorted_by_descending_sigma(self):
        l, s = rank2_plus_entries()
        pool = build_pool(svd(l), s)
        sig = list(pool.magnitudes[: pool.n_triplets])
        assert sig == sorted(sig, reverse=True)
        np.testing.assert_allclose(sig, [5.0, 2.0], rtol=1e-12)

    def test_entries_sorted_by_descending_magnitude(self):
        l, s = rank2_plus_entries()
        pool = build_pool(svd(l), s)
        mags = list(pool.magnitudes[pool.n_triplets :])
        assert mags == sorted(mags, reverse=True)
        assert mags[0] == 10.0 and mags[-1] == 4.0

    def test_magnitude_ties_break_by_row_then_col(self):
        s = np.zeros((3, 6))
        s[1, 3] = 2.0
        s[0, 5] = -2.0
        s[0, 2] = 2.0
        pool = build_pool(svd(np.zeros((3, 6))), s)
        assert list(zip(*np.divmod(pool.entry_flat, pool.cols))) == [(0, 2), (0, 5), (1, 3)]

    def test_recounts_match_decomposition_diagnostics(self, rng):
        w, _, _ = planted_matrix(30, 20, 2, rng)
        res = decompose(w)
        pool = build_pool(res.factors, res.s)
        assert pool.n_triplets == res.rank_l
        nnz = int(np.count_nonzero(res.s))
        assert pool.size - pool.n_triplets == nnz
        assert pool.total_cost == res.rank_l * (30 + 20) + nnz

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ValueError):
            build_pool(svd(np.zeros((3, 3))), np.zeros((3, 4)))

    def test_deterministic(self):
        l, s = rank2_plus_entries()
        p1, p2 = build_pool(svd(l), s), build_pool(svd(l), s)
        for name in ("costs", "magnitudes", "entry_flat"):
            assert getattr(p1, name).tobytes() == getattr(p2, name).tobytes()
        assert p1.entry_values.tobytes() == p2.entry_values.tobytes()
        assert p1.sigma.tobytes() == p2.sigma.tobytes()


def held_arrays(obj):
    """Every array ``obj`` holds, in nested dataclasses too."""
    for value in vars(obj).values():
        if isinstance(value, np.ndarray):
            yield value
        elif dataclasses.is_dataclass(value):
            yield from held_arrays(value)


def test_pools_store_each_candidate_once():
    # the full pools of the 3x256^2 stack of model seed 0: 21 triplets and
    # 3,277 entries per layer; a triplet is U column, sigma and V^T row, an
    # entry its value and flat position, and nothing else is stored
    model = planted_model([(256, 256)] * 3, np.random.default_rng(0))
    total = 0
    for i, w in enumerate(model.layers):
        res = decompose(w)
        pool = build_pool(res.factors, res.s)
        assert (pool.n_triplets, pool.size) == (21, 3298)
        total += sum(a.nbytes for a in held_arrays(pool))
    assert total == 3 * (21 * (256 + 1 + 256) + 3277 * 2) * 8 == 415_848


class TestDegenerateLayers:
    """decompose -> build_pool on layers with one row, one entry or no mass."""

    @pytest.mark.parametrize("shape", [(1, 1), (1, 7), (7, 1)])
    def test_thin_layers(self, shape, rng):
        w = rng.standard_normal(shape)
        res = decompose(w)
        pool = build_pool(res.factors, res.s)
        assert (pool.rows, pool.cols) == shape
        assert pool.n_triplets == res.rank_l <= 1
        assert pool.total_cost == param_count(pool, np.ones(pool.size))
        np.testing.assert_allclose(
            reconstruct(pool, np.ones(pool.size)), res.l + res.s, rtol=0, atol=1e-12
        )

    def test_all_zero_layer(self):
        res = decompose(np.zeros((5, 3)))
        f = res.factors
        assert (f.u.shape, f.sigma.shape, f.v.shape) == ((5, 0), (0,), (3, 0))
        pool = build_pool(f, res.s)
        assert pool.size == 0 and pool.total_cost == 0
        np.testing.assert_array_equal(reconstruct(pool, np.zeros(0)), np.zeros((5, 3)))

    def test_empty_factors_give_an_empty_pool(self):
        empty = SvdFactorization(u=np.zeros((4, 0)), sigma=np.zeros(0), v=np.zeros((6, 0)))
        pool = build_pool(empty, np.zeros((4, 6)))
        assert pool.size == 0 and pool.n_triplets == 0 and pool.total_cost == 0
        layer = factorize(pool, np.zeros(0, dtype=np.int8))
        assert layer.u_prime.shape == (4, 0) and layer.v_prime.shape == (6, 0)
        assert layer.stored_params == 0

    def test_empty_factors_keep_sparse_entries(self):
        empty = SvdFactorization(u=np.zeros((2, 0)), sigma=np.zeros(0), v=np.zeros((3, 0)))
        s = np.array([[0.0, -2.0, 0.0], [1.0, 0.0, 0.0]])
        pool = build_pool(empty, s)
        assert pool.n_triplets == 0 and pool.size == 2 and pool.total_cost == 2
        np.testing.assert_array_equal(reconstruct(pool, np.ones(2)), s)


class TestParamCount:
    def test_zero_mask(self):
        l, s = rank2_plus_entries()
        pool = build_pool(svd(l), s)
        assert param_count(pool, np.zeros(pool.size)) == 0

    def test_full_mask(self):
        l, s = rank2_plus_entries()
        pool = build_pool(svd(l), s)
        assert param_count(pool, np.ones(pool.size)) == pool.total_cost

    def test_single_triplet(self):
        l, s = rank2_plus_entries()
        pool = build_pool(svd(l), s)
        mask = np.zeros(pool.size)
        mask[0] = 1
        assert param_count(pool, mask) == 16

    def test_wrong_length_rejected(self):
        l, s = rank2_plus_entries()
        pool = build_pool(svd(l), s)
        with pytest.raises(ValueError):
            param_count(pool, np.zeros(pool.size + 1))

    @given(bits=st.lists(st.integers(min_value=0, max_value=1), min_size=9, max_size=9))
    def test_equals_cost_dot_mask(self, bits):
        l, s = rank2_plus_entries()
        pool = build_pool(svd(l), s)
        mask = np.array(bits)
        assert param_count(pool, mask) == int(pool.costs @ mask)


class TestTripletsAreTheReportedRank:
    """A pool offers exactly the triplets Stage 1's ``rank_l`` counts."""

    def test_tall_reference_layer(self):
        # its 54th triplet, at sigma = 2.4e-10 sigma_1, lies below RANK_CUTOFF: no candidate
        w = planted_spectrum_matrix(256, 96, 24, np.random.default_rng(4))[0]
        res = decompose(w)
        assert build_pool(res.factors, res.s).n_triplets == res.rank_l == 53

    def test_toy_layers_and_the_256_stack(self):
        toys = [default_toy_model(np.random.default_rng(seed)) for seed in range(10)]
        layers = [w for toy in toys for w in toy.layers]
        layers += planted_model([(256, 256)] * 3, np.random.default_rng(0)).layers
        for i, w in enumerate(layers):
            res = decompose(w)
            assert build_pool(res.factors, res.s).n_triplets == res.rank_l, i


def test_costs_are_the_one_cost_rule():
    """``total_cost`` and ``param_count`` are sums of ``costs``."""
    rng = np.random.default_rng(7)
    l, s = rank2_plus_entries()
    empty = SvdFactorization(u=np.zeros((4, 0)), sigma=np.zeros(0), v=np.zeros((6, 0)))
    for pool in (build_pool(svd(l), s), build_pool(empty, np.zeros((4, 6)))):
        assert pool.total_cost == pool.costs.sum()
        masks = [np.zeros(pool.size), np.ones(pool.size)]
        masks += [rng.integers(0, 2, pool.size, dtype=np.int8) for _ in range(20)]
        for mask in masks:
            assert param_count(pool, mask) == pool.costs[mask != 0].sum()
