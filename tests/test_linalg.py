"""Dense kernels checked against closed forms and independent recomputations."""

import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from lrsprune.rpca import as_matrix
from references import frobenius_norm, svd

small_dims = st.integers(min_value=1, max_value=12)
finite_entries = st.floats(min_value=-1e3, max_value=1e3, allow_nan=False, width=64)


def small_matrices():
    return small_dims.flatmap(
        lambda m: small_dims.flatmap(
            lambda n: hnp.arrays(np.float64, (m, n), elements=finite_entries)
        )
    )


class TestAsMatrix:
    def test_coerces_nested_lists(self):
        m = as_matrix([[1, 2], [3, 4]])
        assert m.dtype == np.float64
        assert m.flags["C_CONTIGUOUS"]
        assert m.shape == (2, 2)

    def test_rejects_wrong_ndim(self):
        with pytest.raises(ValueError):
            as_matrix([1.0, 2.0])
        with pytest.raises(ValueError):
            as_matrix(np.zeros((2, 2, 2)))

    def test_rejects_non_finite(self):
        with pytest.raises(ValueError):
            as_matrix([[1.0, np.nan]])
        with pytest.raises(ValueError):
            as_matrix([[np.inf, 0.0]])


class TestSvd:
    def test_identity_singular_values(self):
        f = svd(np.eye(3))
        np.testing.assert_allclose(f.sigma, [1.0, 1.0, 1.0], rtol=0, atol=1e-14)
        np.testing.assert_allclose((f.u * f.sigma) @ f.v.T, np.eye(3), atol=1e-14)

    def test_diagonal_singular_values_descend(self):
        f = svd(np.diag([3.0, 2.0, 1.0]))
        np.testing.assert_allclose(f.sigma, [3.0, 2.0, 1.0], rtol=0, atol=1e-14)
        assert f.rank == 3

    def test_reconstruction_random(self, rng):
        a = rng.standard_normal((8, 5))
        f = svd(a)
        assert frobenius_norm((f.u * f.sigma) @ f.v.T - a) < 1e-9

    def test_sign_convention_positive_anchor(self, rng):
        a = rng.standard_normal((7, 4))
        f = svd(a)
        anchors = np.max(np.abs(f.u), axis=0)
        picked = f.u[np.argmax(np.abs(f.u), axis=0), np.arange(f.u.shape[1])]
        np.testing.assert_allclose(picked, anchors)

    def test_bit_determinism(self, rng):
        a = rng.standard_normal((9, 6))
        f1, f2 = svd(a), svd(a)
        assert f1.u.tobytes() == f2.u.tobytes()
        assert f1.sigma.tobytes() == f2.sigma.tobytes()
        assert f1.v.tobytes() == f2.v.tobytes()

    def test_large_reconstruction(self):
        a = np.random.default_rng(7).standard_normal((256, 256))
        f = svd(a)
        err = frobenius_norm((f.u * f.sigma) @ f.v.T - a)
        assert err <= 1e-8 * frobenius_norm(a)

    @given(a=small_matrices())
    def test_reconstruction_property(self, a):
        f = svd(a)
        scale = max(1.0, frobenius_norm(a))
        assert frobenius_norm((f.u * f.sigma) @ f.v.T - a) <= 1e-8 * scale
        assert np.all(f.sigma >= 0.0)
        assert np.all(np.diff(f.sigma) <= 1e-12 * scale)

    @given(a=small_matrices())
    def test_left_factor_orthonormal(self, a):
        f = svd(a)
        gram = f.u.T @ f.u
        np.testing.assert_allclose(gram, np.eye(gram.shape[0]), atol=1e-8)


class TestFrobeniusNorm:
    def test_zero(self):
        assert frobenius_norm(np.zeros((3, 5))) == 0.0

    def test_three_four_five(self):
        assert frobenius_norm([[3.0, 4.0]]) == 5.0

    def test_against_scalar_sum(self, rng):
        a = rng.standard_normal((6, 6))
        oracle = math.sqrt(sum(float(x) ** 2 for x in a.ravel()))
        assert frobenius_norm(a) == pytest.approx(oracle, rel=1e-12)


def spectral_norm(a) -> float:
    """Largest singular value; 0 for a zero-size or all-zero matrix."""
    m = as_matrix(a)
    return float(np.linalg.norm(m, 2)) if m.size else 0.0


class TestSpectralNorm:
    def test_zero(self):
        assert spectral_norm(np.zeros((4, 3))) == 0.0

    def test_diagonal(self):
        assert spectral_norm(np.diag([3.0, 2.0, 1.0])) == pytest.approx(3.0, rel=1e-9)

    def test_rank_one_closed_form(self, rng):
        x = rng.standard_normal(10)
        y = rng.standard_normal(8)
        oracle = np.linalg.norm(x) * np.linalg.norm(y)
        assert spectral_norm(np.outer(x, y)) == pytest.approx(oracle, rel=1e-8)

    def test_against_svd_tall_and_wide(self, rng):
        a = rng.standard_normal((6, 4))
        top = float(np.linalg.svd(a, compute_uv=False)[0])
        assert spectral_norm(a) == pytest.approx(top, rel=1e-8)
        assert spectral_norm(a.T) == pytest.approx(top, rel=1e-8)


@given(a=small_matrices())
def test_norm_ordering(a):
    scale = max(1.0, frobenius_norm(a))
    nuc, fro, top = float(np.linalg.norm(a, "nuc")), frobenius_norm(a), spectral_norm(a)
    assert nuc + 1e-9 * scale >= fro
    assert fro + 1e-9 * scale >= top
    assert top >= 0.0
