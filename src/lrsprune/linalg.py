"""Dense linear algebra kernels shared by the decomposition and pruning stages.

All matrices are float64, C-order, finite. ``as_matrix`` is the single
validation choke point; every public op routes its inputs through it.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


class SvdError(Exception):
    """The SVD backend failed to produce a factorization."""


def as_matrix(a) -> np.ndarray:
    """Coerce ``a`` to a 2-D float64 C-order array with finite entries."""
    m = np.ascontiguousarray(a, dtype=np.float64)
    if m.ndim != 2:
        raise ValueError(f"expected a 2-D matrix, got ndim={m.ndim}")
    if not np.all(np.isfinite(m)):
        raise ValueError("matrix entries must be finite")
    return m


@dataclass
class SvdFactorization:
    """Thin SVD ``a = u @ diag(sigma) @ v.T`` with sigma non-negative, descending."""

    u: np.ndarray  # (m, r)
    sigma: np.ndarray  # (r,)
    v: np.ndarray  # (n, r)

    @property
    def rank(self) -> int:
        return int(self.sigma.size)


def svd(a) -> SvdFactorization:
    """Full thin SVD with a fixed sign convention.

    The largest-magnitude entry of every left singular vector is made
    positive (ties resolved to the lowest row index), so repeated calls on
    bit-identical input return bit-identical factors.

    Raises:
        SvdError: if the backend does not converge.
    """
    u, sigma, vh = thin_svd(as_matrix(a))
    signs = column_signs(u)
    return SvdFactorization(
        u=np.ascontiguousarray(u * signs),
        sigma=np.ascontiguousarray(sigma),
        v=np.ascontiguousarray(vh.T * signs),
    )


def thin_svd(m: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``np.linalg.svd(m, full_matrices=False)`` as it comes, signs unfixed, on a
    checked matrix.

    Raises:
        SvdError: if the backend does not converge.
    """
    try:
        return np.linalg.svd(m, full_matrices=False)
    except np.linalg.LinAlgError as exc:
        raise SvdError(f"svd of shape {m.shape} did not converge: {exc}") from exc


def column_signs(u: np.ndarray) -> np.ndarray:
    """``svd``'s sign convention: per column of ``u``, the sign that makes its
    largest-magnitude entry positive (ties to the lowest row; +1 for a zero
    column). Each column's sign depends on that column alone."""
    signs = np.sign(u[np.argmax(np.abs(u), axis=0), np.arange(u.shape[1])])
    signs[signs == 0.0] = 1.0
    return signs


def frobenius_norm(a) -> float:
    return float(np.linalg.norm(as_matrix(a)))
