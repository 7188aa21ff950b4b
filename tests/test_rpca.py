"""Solver checks: proximal steps against closed forms, recovery on planted
ground truth, scale covariance, the feasibility stopping rule, and the
truncated SVT against a full-SVD reference."""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from lrsprune import rpca
from lrsprune.calibration import (
    planted_model,
    planted_spectrum_matrix,
)
from lrsprune.rpca import (
    MU_CAP_FACTOR,
    MAX_ITERS,
    RANK_CUTOFF,
    RHO,
    NonConvergenceError,
    RpcaConfig,
    SvdError,
    SvdFactorization,
    as_matrix,
    column_signs,
    decompose,
    default_lambda,
    soft_threshold,
    svt,
)
from references import default_toy_model, frobenius_norm, heavy_model, planted_matrix, svd


def full_svd_ialm(w, config=RpcaConfig()):
    """The same ADMM with a full SVD in every SVT step, and rank_l from svd(l).

    Returns (iterations, rank_l, l, s).
    """
    lam = default_lambda(*w.shape)
    scale = np.linalg.norm(w)
    w_top = np.linalg.norm(w, 2)
    mu = 1.25 / w_top
    mu_cap = MU_CAP_FACTOR * mu
    y = w / max(w_top, np.abs(w).max() / lam)
    s = np.zeros_like(w)
    for it in range(1, MAX_ITERS + 1):
        u, sig, vt = np.linalg.svd(w - s + y / mu, full_matrices=False)
        l = (u * np.maximum(sig - 1.0 / mu, 0.0)) @ vt
        s = soft_threshold(w - l + y / mu, lam / mu)
        gap = w - l - s
        y = y + mu * gap
        mu = min(RHO * mu, mu_cap)
        if np.linalg.norm(gap) / scale <= config.tol:
            break
    sig = np.linalg.svd(l, compute_uv=False)
    return it, int(np.count_nonzero(sig > RANK_CUTOFF * sig[0])), l, s


def full_svt(a, tau):
    u, sig, vt = np.linalg.svd(a, full_matrices=False)
    return (u * np.maximum(sig - tau, 0.0)) @ vt


def gapped_matrix(rng):
    """A 200x160 matrix with 30 singular values in [2, 10] and 10 at 1e-3.

    Returns (a, sigma)."""
    u, _ = np.linalg.qr(rng.standard_normal((200, 40)))
    v, _ = np.linalg.qr(rng.standard_normal((160, 40)))
    sigma = np.concatenate([np.linspace(10.0, 2.0, 30), np.full(10, 1e-3)])
    return (u * sigma) @ v.T, sigma


def named_layer(name):
    """Toy layer 1 and planted 256x256 layer 1 of model seed 0, or the first
    heavy 128x128 layer of seed 0."""
    rng = np.random.default_rng(0)
    if name == "toy1":
        return default_toy_model(rng).layers[1]
    if name == "256x256":
        return planted_model([(256, 256)] * 2, rng).layers[1]
    if name == "heavy128":
        return heavy_model([(128, 128)] * 3, rng).layers[0]
    raise KeyError(name)


def three_qr_top_triplets(a, k, rng, start=None):
    """``rpca._top_triplets`` with a QR of ``a.T @ q`` inside the power
    iteration, as a reference for the two-QR range finder."""
    block = rng.standard_normal((a.shape[1], k))
    if start is not None:
        j = min(k, start.shape[1])
        block[:, :j] = start[:, :j]
    q = np.linalg.qr(a @ block)[0]
    for _ in range(rpca.POWER_ITERS):
        q = np.linalg.qr(a.T @ q)[0]
        q = np.linalg.qr(a @ q)[0]
    b = a.T @ q
    x = rpca._gram_eigh(b)[1]
    v, sigma = rpca._unit_columns(b @ x)
    order = np.argsort(-sigma, kind="stable")
    return SvdFactorization(u=q @ x[:, order], sigma=sigma[order], v=v[:, order])


@pytest.fixture
def range_finder_calls(monkeypatch):
    """Counts the truncated steps, so a test can show it left the full-SVD path."""
    calls = []
    original = rpca._top_triplets

    def counted(a, k, rng, start=None):
        calls.append(k)
        return original(a, k, rng, start)

    monkeypatch.setattr(rpca, "_top_triplets", counted)
    return calls


class TestDefaultLambda:
    def test_values(self):
        assert default_lambda(100, 64) == 0.1
        assert default_lambda(16, 16) == 0.25
        assert default_lambda(1, 1) == 1.0

    def test_rejects_bad_dims(self):
        with pytest.raises(ValueError):
            default_lambda(0, 5)


class TestShrinkage:
    def test_svt_shrink(self):
        f, _ = svt(np.diag([1.2, 0.5, 0.3]), 0.5, 3, None)
        np.testing.assert_array_equal(f.sigma, [0.7])

    def test_soft_threshold(self):
        np.testing.assert_array_equal(
            soft_threshold([-1.2, 0.4, 0.0, 2.0], 0.5), [-0.7, 0.0, 0.0, 1.5]
        )

    def test_soft_threshold_zeros_are_positive(self, rng):
        x = np.concatenate([rng.standard_normal(1000), [0.5, -0.5, 0.0, -0.0, 0.25, -0.25]])
        got = soft_threshold(x, 0.5)
        small = np.abs(x) <= 0.5
        assert np.all(got[small] == 0.0) and not np.any(np.signbit(got[small]))
        want = np.sign(x) * np.maximum(np.abs(x) - 0.5, 0.0)
        assert got[~small].tobytes() == want[~small].tobytes()


def update_l(w, s, y, mu):
    """Low-rank step on the full-SVD path: SVT with threshold 1/mu of ``w - s + y/mu``."""
    f, _ = svt(w - s + y / mu, 1.0 / mu, min(w.shape), None)
    return (f.u * f.sigma) @ f.v.T


def update_s(w, l, y, mu, lam):
    """Sparse step: soft threshold lambda/mu applied to ``w - l + y/mu``."""
    return soft_threshold(w - l + y / mu, lam / mu)


class TestUpdateSteps:
    def test_update_l_zero(self):
        z = np.zeros((3, 4))
        np.testing.assert_array_equal(update_l(z, z, z, 1.0), z)

    def test_update_l_diagonal(self):
        w = np.diag([3.0, 2.0, 1.0])
        z = np.zeros_like(w)
        np.testing.assert_allclose(update_l(w, z, z, 1.0), np.diag([2.0, 1.0, 0.0]), atol=1e-12)

    def test_update_l_huge_mu_is_identity(self, rng):
        w = rng.standard_normal((6, 5))
        z = np.zeros_like(w)
        assert frobenius_norm(update_l(w, z, z, 1e12) - w) <= 1e-10

    def test_update_l_shrinks_singular_values_exactly(self, rng):
        # definitional check: output spectrum is the input spectrum minus 1/mu
        w = rng.standard_normal((7, 5))
        z = np.zeros_like(w)
        mu = 2.0
        out_sigma = svd(update_l(w, z, z, mu)).sigma
        expected = np.maximum(svd(w).sigma - 1.0 / mu, 0.0)
        np.testing.assert_allclose(out_sigma, expected, atol=1e-10)

    def test_update_s_zero(self):
        z = np.zeros((2, 3))
        np.testing.assert_array_equal(update_s(z, z, z, 1.0, 0.5), z)

    def test_update_s_below_threshold_vanishes(self, rng):
        w = 0.01 * rng.standard_normal((4, 4))
        z = np.zeros_like(w)
        np.testing.assert_array_equal(update_s(w, z, z, 1.0, 0.5), z)

    def test_update_s_hand_value(self):
        w = np.array([[2.0, -0.1]])
        z = np.zeros_like(w)
        np.testing.assert_array_equal(update_s(w, z, z, 1.0, 0.5), [[1.5, 0.0]])


class TestConfigValidation:
    def test_rejects_bad_values(self):
        with pytest.raises(ValueError):
            RpcaConfig(lam=0.0)
        with pytest.raises(ValueError):
            RpcaConfig(lam=float("inf"))
        with pytest.raises(ValueError):
            RpcaConfig(tol=0.0)


class TestDecompose:
    def test_zero_matrix(self, monkeypatch):
        # returned before W's spectrum, which an all-zero matrix does not need
        monkeypatch.setattr(rpca, "_gram_eigh", None)
        res = decompose(np.zeros((4, 6)))
        np.testing.assert_array_equal(res.l, np.zeros((4, 6)))
        np.testing.assert_array_equal(res.s, np.zeros((4, 6)))
        assert res.iterations == 0
        assert res.residual == 0.0
        assert res.residual_history == []
        assert res.rank_l == 0
        assert res.sparsity_s == 1.0

    def test_rank_one_clean_matrix(self, rng):
        # bounded-magnitude factors keep every coordinate of the singular
        # vectors well under the auto sparsity weight, so the optimum of the
        # convex program is the pure low-rank split for any draw
        x = rng.uniform(0.5, 1.5, 20) * rng.choice([-1.0, 1.0], 20)
        y = rng.uniform(0.5, 1.5, 15) * rng.choice([-1.0, 1.0], 15)
        w = np.outer(x, y)
        res = decompose(w)
        assert frobenius_norm(res.l - w) / frobenius_norm(w) < 1e-4
        assert res.sparsity_s >= 0.99
        assert res.rank_l == 1

    def test_planted_recovery(self, rng):
        w, l0, s0 = planted_matrix(50, 40, 3, rng)
        res = decompose(w)
        assert frobenius_norm(res.l - l0) / frobenius_norm(l0) < 1e-3
        assert frobenius_norm(res.s - s0) / frobenius_norm(s0) < 1e-3
        # exact support recovery of the sparse part
        assert np.array_equal(res.s != 0.0, s0 != 0.0)
        assert res.iterations < 500
        assert res.rank_l == 3

    def test_feasibility_and_history(self, rng):
        w, _, _ = planted_matrix(30, 20, 2, rng)
        cfg = RpcaConfig()
        res = decompose(w, cfg)
        assert frobenius_norm(w - res.l - res.s) / frobenius_norm(w) <= cfg.tol
        assert len(res.residual_history) == res.iterations
        assert res.residual_history[-1] == res.residual

    def test_scale_covariance(self, rng):
        w, _, _ = planted_matrix(24, 18, 2, rng)
        base = decompose(w)
        for c in (2.0, 10.0):
            scaled = decompose(c * w)
            np.testing.assert_allclose(scaled.l, c * base.l, rtol=1e-8, atol=1e-10)
            np.testing.assert_allclose(scaled.s, c * base.s, rtol=1e-8, atol=1e-10)
            assert scaled.iterations == base.iterations

    @pytest.mark.parametrize("layer", ["toy1", "256x256"])
    def test_tiny_scales_give_the_unit_scale_split(self, layer):
        """The stopping rule is relative to ||W||_F with no floor, and the
        solver runs on W divided by a power of two that brings max|W| into
        [1/2, 1), so a layer scaled far below or above 1 takes the same steps
        as at unit scale, also where W's squares, which its Gram matrix
        holds, would leave the normal float range (below about 1e-154, or
        about 1e154 and above).
        """
        w = named_layer(layer)
        base = decompose(w)
        for c in (1e-20, 1e-100, 1e-150, 1e-160, 1e-300, 1e160, 1e300):
            scaled = decompose(c * w)
            assert (scaled.iterations, scaled.rank_l) == (base.iterations, base.rank_l), c
            assert np.array_equal(scaled.s != 0.0, base.s != 0.0), c
            assert np.linalg.norm(scaled.l / c - base.l) <= 1e-14 * np.linalg.norm(base.l), c

    def test_overflowing_split_raises(self):
        """Near the float maximum L can exceed max|W| where S takes an outlier,
        and scaling it back overflows: that raises, naming max|W|, instead of
        returning inf parts."""
        w = named_layer("toy1")
        with pytest.raises(ValueError, match=r"max\|W\| = 1e\+308"):
            decompose(w * (1e308 / np.abs(w).max()))

    @pytest.mark.parametrize("layer", ["toy1", "256x256"])
    def test_powers_of_two_scale_exactly(self, layer):
        w = named_layer(layer)
        base = decompose(w)
        for j in (600, 3, -3, -600):
            scaled = decompose(np.ldexp(w, j))
            for part in ("l", "s"):
                assert getattr(scaled, part).tobytes() == np.ldexp(getattr(base, part), j).tobytes()
            assert scaled.factors.sigma.tobytes() == np.ldexp(base.factors.sigma, j).tobytes()
            for part in ("u", "v"):
                assert getattr(scaled.factors, part).tobytes() == getattr(base.factors, part).tobytes()
            assert scaled.residual_history == base.residual_history
            assert (scaled.iterations, scaled.rank_l) == (base.iterations, base.rank_l)

    def test_sparsity_monotone_in_lambda(self, rng):
        w, _, _ = planted_matrix(30, 24, 2, rng)
        lams = [1e-3, 1e-2, default_lambda(30, 24), 0.5, 1.0]
        assert lams == sorted(lams)
        nnz = [np.count_nonzero(decompose(w, RpcaConfig(lam=lam)).s) for lam in lams]
        assert all(a >= b for a, b in zip(nnz, nnz[1:]))

    def test_non_convergence_error_carries_fields(self, rng, monkeypatch):
        w, _, _ = planted_matrix(50, 40, 3, rng)
        monkeypatch.setattr(rpca, "MAX_ITERS", 3)
        with pytest.raises(NonConvergenceError) as info:
            decompose(w)
        err = info.value
        assert err.iterations == 3
        assert err.residual > err.tol
        assert "3 iterations" in str(err)

    @given(
        a=st.tuples(
            st.integers(min_value=2, max_value=8), st.integers(min_value=2, max_value=8)
        ).flatmap(
            lambda mn: hnp.arrays(
                np.float64,
                mn,
                elements=st.floats(min_value=-100.0, max_value=100.0, allow_nan=False),
            )
        )
    )
    def test_feasibility_property(self, a):
        cfg = RpcaConfig()
        res = decompose(a, cfg)
        scale = frobenius_norm(a)
        if scale == 0.0:
            assert res.iterations == 0
        else:
            assert frobenius_norm(a - res.l - res.s) / scale <= cfg.tol * (1 + 1e-12)
            assert len(res.residual_history) == res.iterations


def first_step(w):
    """decompose(w) stopped after its first ADMM step, whose residual it is
    given as tol: (the step's factors, its SVT reference by np.linalg.svd as
    (shrunk sigma, L), the dual start's denominator d, and sigma_1)."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(rpca, "MAX_ITERS", 1)
        with pytest.raises(NonConvergenceError) as info:
            decompose(w)
        assert info.value.iterations == 1
        res = decompose(w, RpcaConfig(tol=info.value.residual))
    assert res.iterations == 1 and res.residual_history == [info.value.residual]
    lam = default_lambda(*w.shape)
    w_top = np.linalg.norm(w, 2)
    mu = 1.25 / w_top
    d = max(w_top, np.abs(w).max() / lam)
    u, sig, vt = np.linalg.svd(w - np.zeros_like(w) + (w / d) / mu, full_matrices=False)
    keep = sig > 1.0 / mu
    shrunk = sig[keep] - 1.0 / mu
    return res.factors, (shrunk, (u[:, keep] * shrunk) @ vt[keep]), d, w_top


class TestFirstStep:
    @pytest.mark.parametrize(
        "make, branch",
        [
            (lambda rng: default_toy_model(np.random.default_rng(0)).layers[0], "max"),
            (lambda rng: planted_model([(256, 256)] * 3, np.random.default_rng(0)).layers[0], "max"),
            (lambda rng: planted_model([(96, 256)], np.random.default_rng(0)).layers[0], "max"),
            (lambda rng: planted_model([(256, 96)], np.random.default_rng(0)).layers[0], "max"),
            (lambda rng: np.ones((40, 30)) + 1e-3 * rng.standard_normal((40, 30)), "sigma"),
        ],
        ids=["toy0", "256x256", "96x256", "256x96", "ones-plus-noise"],
    )
    def test_equals_the_svt_of_its_input(self, make, branch, rng):
        # w - s + y/mu with s = 0 and y = w/d, d = max(sigma_1, max|w|/lambda)
        w = make(rng)
        f, (sigma, l), d, w_top = first_step(w)
        assert (d == w_top) == (branch == "sigma")
        assert f.rank == sigma.size > 0
        np.testing.assert_allclose(f.sigma, sigma, rtol=1e-12, atol=0)
        assert frobenius_norm((f.u * f.sigma) @ f.v.T - l) <= 1e-12 * frobenius_norm(l)

    def test_one_by_one(self):
        for x in (3.0, -2.5):
            res = decompose([[x]])
            assert res.iterations == 1 and res.rank_l == 1
            np.testing.assert_allclose(res.l + res.s, [[x]], rtol=1e-12, atol=0)
            assert ((res.factors.u * res.factors.sigma) @ res.factors.v.T).tobytes() == res.l.tobytes()

    def test_range_finder_calls_on_the_stack(self, range_finder_calls):
        # the 3x256^2 stack of model seed 0: step 1 calls no range finder, and
        # every later step one, plus one per doubling (four here, in the
        # second and third steps), so 60 calls for 59 ADMM steps
        layers = planted_model([(256, 256)] * 3, np.random.default_rng(0)).layers
        steps = sum(decompose(w).iterations for w in layers)
        assert len(range_finder_calls) <= steps + 1


class TestTruncatedSvt:
    @pytest.mark.parametrize(
        "make, retries",
        [
            (lambda rng: planted_spectrum_matrix(256, 256, 21, rng)[0], True),
            (lambda rng: planted_matrix(128, 96, 6, rng)[0], False),
            (lambda rng: planted_spectrum_matrix(192, 256, 16, rng)[0], False),
        ],
        ids=["256x256-rank21", "128x96-rank6", "192x256-rank16"],
    )
    def test_matches_full_svd_ialm(self, make, retries, rng, range_finder_calls):
        w = make(rng)
        res = decompose(w)
        iterations, rank_l, l, s = full_svd_ialm(w)
        # the first step takes W's SVD, every later one the range finder
        assert len(range_finder_calls) >= res.iterations - 1
        if retries:
            # more range-finder calls than SVT steps: some step doubled its k
            assert len(range_finder_calls) > res.iterations - 1
        assert res.iterations == iterations
        assert res.rank_l == rank_l
        assert np.array_equal(res.s != 0.0, s != 0.0)
        assert frobenius_norm(res.l - l) <= 1e-6 * frobenius_norm(l)

    def test_doubles_until_the_threshold_is_crossed(self, rng, range_finder_calls):
        # 30 survivors against a first guess of 4: 14, 18, 26 computed values
        # all lie above tau before 42 reach below it
        a, sigma = gapped_matrix(rng)
        f, _ = svt(a, 1.0, 4, np.random.default_rng(1))
        assert range_finder_calls == [14, 18, 26, 42]
        assert f.rank == 30
        np.testing.assert_allclose(f.sigma, sigma[:30] - 1.0, rtol=0, atol=1e-10)
        np.testing.assert_allclose((f.u * f.sigma) @ f.v.T, full_svt(a, 1.0), rtol=0, atol=1e-10)

    @pytest.mark.parametrize("start", ["top-right-vectors", "unrelated"])
    def test_start_block_keeps_the_survivors(self, start, rng):
        a, sigma = gapped_matrix(rng)
        if start == "top-right-vectors":
            block = np.linalg.svd(a)[2][:40].T
        else:
            block, _ = np.linalg.qr(rng.standard_normal((160, 40)))
        f, _ = svt(a, 1.0, 4, np.random.default_rng(1), block)
        assert f.rank == 30
        np.testing.assert_allclose(f.sigma, sigma[:30] - 1.0, rtol=0, atol=1e-10)
        np.testing.assert_allclose((f.u * f.sigma) @ f.v.T, full_svt(a, 1.0), rtol=0, atol=1e-10)

    def test_start_block_draws_as_many_numbers(self, rng):
        # the generator stream after a step does not depend on its start block
        a = rng.standard_normal((60, 50))
        start, _ = np.linalg.qr(rng.standard_normal((50, 5)))
        cold, warm = np.random.default_rng(2), np.random.default_rng(2)
        rpca._top_triplets(a, 12, cold)
        rpca._top_triplets(a, 12, warm, start)
        assert cold.random() == warm.random()

    def test_each_attempt_starts_from_the_last_block(self, rng, monkeypatch):
        # the first range-finder call starts from the first step's own right
        # singular vectors, as many as it reads; across doublings and ADMM
        # iterations alike, every later one starts from the right block the
        # call before returned
        calls, spectra = [], []
        original, original_eigh = rpca._top_triplets, rpca._gram_eigh

        def spy(a, k, rng, start=None):
            f = original(a, k, rng, start)
            calls.append((k, start, f.v))
            return f

        def recording(m):
            spectra.append(original_eigh(m))
            return spectra[-1]

        monkeypatch.setattr(rpca, "_top_triplets", spy)
        monkeypatch.setattr(rpca, "_gram_eigh", recording)
        w = planted_spectrum_matrix(256, 256, 21, rng)[0]
        res = decompose(w)
        assert len(calls) > res.iterations - 1  # a step doubled
        k, start, _ = calls[0]
        v = spectra[0][1]  # the first step's eigenvectors of w.T @ w: W's right vectors
        assert start.shape == (256, k)
        assert start.tobytes() == v[:, :k].tobytes()
        # its leading columns span the leading right subspace of np.linalg.svd(w):
        # the sine of the largest principal angle is the residual of the projection
        vt = np.linalg.svd(w)[2][:21]
        assert np.linalg.norm(start[:, :21] - vt.T @ (vt @ start[:, :21]), 2) <= 1e-10
        assert all(start is v for (_, start, _), (_, _, v) in zip(calls[1:], calls))

    def test_range_finder_makes_two_qrs(self, rng, monkeypatch):
        # one for the test block's image, one for the power iteration's
        shapes, original = [], np.linalg.qr
        monkeypatch.setattr(
            np.linalg, "qr", lambda m, *args, **kw: shapes.append(m.shape) or original(m, *args, **kw)
        )
        assert rpca.POWER_ITERS == 1
        rpca._top_triplets(rng.standard_normal((60, 50)), 12, np.random.default_rng(1))
        assert shapes == [(60, 12), (60, 12)]

    @pytest.mark.parametrize("layer", ["256x256", "heavy128"])
    def test_two_qrs_give_the_three_qr_split(self, layer, monkeypatch):
        # the heavy layer is compared with the three-QR range finder, not with
        # full_svd_ialm: there the kept Ritz values, which the acceptance rule
        # does not certify, put either finder's L some 1e-5 from the full SVD's
        w = named_layer(layer)

        def split(finder):
            calls = []
            with monkeypatch.context() as m:
                m.setattr(rpca, "_top_triplets", lambda *args: calls.append(args[1]) or finder(*args))
                return decompose(w), calls

        got, got_calls = split(rpca._top_triplets)
        want, want_calls = split(three_qr_top_triplets)
        assert got_calls == want_calls and got_calls
        assert (got.iterations, got.rank_l) == (want.iterations, want.rank_l)
        assert np.array_equal(got.s != 0.0, want.s != 0.0)
        assert frobenius_norm(got.l - want.l) <= 1e-12 * frobenius_norm(want.l)

    @pytest.mark.parametrize("k", [30, 40, 45])
    def test_ritz_values_match_linalg_svd(self, k, rng):
        # 45 columns exceed the rank, 40: five Ritz values round to zero
        a, _ = gapped_matrix(rng)
        f = rpca._top_triplets(a, k, np.random.default_rng(1))
        want = np.linalg.svd(a, compute_uv=False)[:k]
        np.testing.assert_allclose(f.sigma, want, rtol=0, atol=1e-10 * want[0])
        # u = q x is orthonormal to rounding; v = b x / sigma to about eps sigma_1 / sigma
        np.testing.assert_allclose(f.u.T @ f.u, np.eye(k), rtol=0, atol=1e-14)
        np.testing.assert_allclose(f.v.T @ f.v, np.eye(k), rtol=0, atol=1e-10)

    def test_exactly_rank_deficient_block(self, rng, range_finder_calls):
        # rank 3 against 14 range-finder columns: eleven Ritz values round to
        # zero, with unit right vectors orthogonal to the resolved ones, which
        # lie in a's null space; the first attempt is certified
        u, _ = np.linalg.qr(rng.standard_normal((256, 3)))
        v, _ = np.linalg.qr(rng.standard_normal((256, 3)))
        a = (u * [5.0, 3.0, 2.0]) @ v.T
        f, block = svt(a, 0.5, 4, np.random.default_rng(1))
        assert range_finder_calls == [14]
        assert f.rank == 3
        np.testing.assert_allclose(f.sigma, [4.5, 2.5, 1.5], rtol=0, atol=1e-12)
        np.testing.assert_allclose((f.u * f.sigma) @ f.v.T, full_svt(a, 0.5), rtol=0, atol=1e-12)
        # dividing b @ x by its norms alone gives 3e-13 and 6e-14 here
        assert np.all(np.isfinite(block))
        np.testing.assert_allclose(block.T @ block, np.eye(14), rtol=0, atol=1e-14)
        assert np.linalg.norm(a @ block[:, 3:], 2) <= 1e-14

    def test_zero_columns_come_out_unit(self):
        # a zero column has no direction of its own: it must not stay zero,
        # or its residual a @ v - 0 u would read 0 whatever a is
        mx = np.zeros((6, 3))
        mx[:, 0] = [3.0, 0.0, 4.0, 0.0, 0.0, 0.0]
        mx[:, 2] = 1e-20
        out, norms = rpca._unit_columns(mx)
        np.testing.assert_array_equal(norms[:2], [5.0, 0.0])
        np.testing.assert_allclose(out[:, 0], mx[:, 0] / 5.0, rtol=0, atol=1e-15)
        np.testing.assert_allclose(out.T @ out, np.eye(3), rtol=0, atol=1e-15)

    def test_flat_spectrum_is_not_truncated_early(self, rng):
        # no gap: the range finder's values near tau are unresolved, so the
        # step ends exact rather than dropping survivors
        a = rng.standard_normal((160, 120))
        sig = np.linalg.svd(a, compute_uv=False)
        tau = float(sig[39] + sig[40]) / 2
        f, _ = svt(a, tau, 10, np.random.default_rng(1))
        assert f.rank == 40
        np.testing.assert_allclose((f.u * f.sigma) @ f.v.T, full_svt(a, tau), rtol=0, atol=1e-10)

    def test_small_matrix_takes_the_full_svd(self, rng, range_finder_calls):
        a = rng.standard_normal((40, 30))
        f, _ = svt(a, 1.0, 5, None)
        assert range_finder_calls == []
        np.testing.assert_allclose((f.u * f.sigma) @ f.v.T, full_svt(a, 1.0), rtol=0, atol=1e-12)

    @pytest.mark.parametrize("shape", [(256, 256), (30, 20)])
    def test_factors_multiply_to_l_byte_for_byte(self, shape, rng):
        rank = max(1, min(shape) // 12)
        res = decompose(planted_spectrum_matrix(*shape, rank, rng)[0])
        f = res.factors
        assert ((f.u * f.sigma) @ f.v.T).tobytes() == res.l.tobytes()
        assert f.rank >= res.rank_l
        assert np.all(f.sigma > 0.0)

    def test_repeat_calls_byte_identical(self, rng):
        w, _, _ = planted_spectrum_matrix(256, 256, 21, rng)
        first, second = decompose(w), decompose(w)
        for part in ("l", "s"):
            assert getattr(first, part).tobytes() == getattr(second, part).tobytes()


def linalg_svt(a, tau, k, rng, start=None):
    """``svt`` with every full-SVD step taken by the reference ``svd``: every column
    signed, then cut to the survivors, and the signed right vectors returned
    as the start block. The range-finder path is ``svt``'s own, its survivors
    signed as ``svd`` signs them."""
    a = as_matrix(a)
    while 2 * (k + rpca.OVERSAMPLE) < min(a.shape):
        f = rpca._top_triplets(a, k + rpca.OVERSAMPLE, rng, start)
        svp = int(np.count_nonzero(f.sigma > tau))
        if svp < f.rank:
            r = a @ f.v[:, svp] - f.sigma[svp] * f.u[:, svp]
            if f.sigma[svp] + np.linalg.norm(r) <= tau:
                break
        k *= 2
        start = f.v
    else:
        f = svd(a)
    svp = int(np.count_nonzero(f.sigma > tau))
    signs = column_signs(f.u[:, :svp])  # all +1 after svd
    shrunk = SvdFactorization(
        u=np.ascontiguousarray(f.u[:, :svp] * signs),
        sigma=np.maximum(f.sigma[:svp] - tau, 0.0),
        v=np.ascontiguousarray(f.v[:, :svp] * signs),
    )
    return shrunk, f.v


def reference_layers():
    """(id, layer): the toy layers of model seed 0, whose steps all take the
    full SVD, and three planted layers whose second step starts the range
    finder from W's right singular vectors (the 256x256 one is layer 1 of the
    3x256^2 stack of model seed 0); the 256x96 layer takes the full SVD in
    later steps, between range-finder steps."""
    toy = default_toy_model(np.random.default_rng(0)).layers
    return [
        *((f"toy{i}", w) for i, w in enumerate(toy)),
        ("256x256", planted_model([(256, 256)] * 2, np.random.default_rng(0)).layers[1]),
        ("192x256", planted_spectrum_matrix(192, 256, 16, np.random.default_rng(4), 0.99)[0]),
        ("256x96", planted_spectrum_matrix(256, 96, 24, np.random.default_rng(4))[0]),
    ]


class TestFullSvdStep:
    @pytest.mark.parametrize("shape", [(32, 24), (24, 24), (24, 16), (40, 30), (6, 9)])
    @pytest.mark.parametrize("survivors", ["none", "some", "all"])
    def test_equals_linalg_svd_cut_to_the_survivors(self, shape, survivors, rng):
        a = rng.standard_normal(shape)
        sigma = np.linalg.svd(a, compute_uv=False)
        tau = {"none": sigma[0] + 1.0, "some": (sigma[1] + sigma[2]) / 2, "all": 0.0}[survivors]
        f, block = svt(a, tau, min(shape), None)
        full = svd(a)
        svp = {"none": 0, "some": 2, "all": sigma.size}[survivors]
        assert f.rank == svp
        assert f.u.tobytes() == np.ascontiguousarray(full.u[:, :svp]).tobytes()
        assert f.sigma.tobytes() == np.maximum(full.sigma[:svp] - tau, 0.0).tobytes()
        assert f.v.tobytes() == np.ascontiguousarray(full.v[:, :svp]).tobytes()
        assert f.u.flags.c_contiguous and f.v.flags.c_contiguous
        # the start block is every right vector as the backend returns it, unsigned
        assert np.array_equal(block, np.linalg.svd(a, full_matrices=False)[2].T)

    def test_backend_failure_raises_svd_error(self, rng, monkeypatch):
        def fail(*args, **kwargs):
            raise np.linalg.LinAlgError("SVD did not converge")

        monkeypatch.setattr(np.linalg, "svd", fail)
        with pytest.raises(SvdError, match="did not converge"):
            svt(rng.standard_normal((8, 6)), 0.5, 6, None)

    def test_eigensolver_failure_raises_svd_error(self, rng, monkeypatch):
        def fail(*args, **kwargs):
            raise np.linalg.LinAlgError("Eigenvalues did not converge")

        monkeypatch.setattr(np.linalg, "eigh", fail)
        with pytest.raises(SvdError, match="did not converge"):
            decompose(rng.standard_normal((8, 6)))

    @pytest.mark.parametrize("name, w", [pytest.param(*c, id=c[0]) for c in reference_layers()])
    def test_decompose_equals_the_linalg_svd_reference(self, name, w, monkeypatch):
        with monkeypatch.context() as m:
            m.setattr(rpca, "svt", linalg_svt)
            expected = decompose(w)
        steps, last = [], []  # per SVT step, its paths: "rf" range finder, "full" SVD
        original_svt, original_rf, original_full = rpca.svt, rpca._top_triplets, rpca.thin_svd

        def counted_svt(*args):
            steps.append([])
            out = original_svt(*args)
            last[:] = [out[0]]
            return out

        monkeypatch.setattr(rpca, "svt", counted_svt)
        monkeypatch.setattr(
            rpca, "_top_triplets", lambda *args: steps[-1].append("rf") or original_rf(*args)
        )
        monkeypatch.setattr(
            rpca, "thin_svd", lambda a: steps[-1].append("full") or original_full(a)
        )
        res = decompose(w)
        for part in ("l", "s"):
            assert getattr(res, part).tobytes() == getattr(expected, part).tobytes(), part
        assert res.residual_history == expected.residual_history
        for part in ("u", "sigma", "v"):
            got, want = getattr(res.factors, part), getattr(expected.factors, part)
            assert got.tobytes() == want.tobytes() and got.shape == want.shape, part
            # and they are the last step's, as it returned them
            assert got.tobytes() == getattr(last[0], part).tobytes(), part
        # the first step takes W's SVD and calls no svt
        assert res.iterations == expected.iterations == len(steps) + 1
        if name.startswith("toy"):
            assert all(step == ["full"] for step in steps)
        else:
            # the second step starts the range finder from W's right vectors
            assert steps[0][0] == "rf"
        if name == "256x96":
            # a full-SVD step hands its block to the range finder of the next
            assert any(a[-1] == "full" and b[0] == "rf" for a, b in zip(steps, steps[1:]))
