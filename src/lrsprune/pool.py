"""Candidate pools over a low-rank plus sparse split, and masks over them.

Each singular triplet of the low-rank part and each exactly-nonzero entry of
the sparse part is an independently prunable candidate. Keeping a triplet of
an m x n layer stores one column of U and one of V, so it costs m + n
parameters; a sparse entry costs 1. ``costs`` is the one place that says so.

A pool is a set of flat arrays in one deterministic candidate order:
triplets by descending singular value, then sparse entries by descending
magnitude with (row, col) breaking ties; a mask over the pool has one bit
per position. The triplets kept are those Stage 1's ``rank_l`` counts, with
sigma above ``rpca.RANK_CUTOFF * sigma_1``, a prefix of the descending
spectrum: with ``t = n_triplets``, position ``k < t`` is the triplet
``(u[:, k], sigma[k], vt[k])``, and position ``k >= t`` is the entry with
value ``entry_values[k - t]`` at ``entry_flat[k - t] = row * cols + col`` of
the flattened matrix. Each is stored once; ``costs`` and ``magnitudes``
(sigma for a triplet, |value| for an entry) are computed from them. A mask
keeps the candidates under its nonzero bits: ``param_count`` sums their
costs, ``reconstruct`` rebuilds the dense weight and ``factorize`` stores
them as a ``CompressedLayer``.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .rpca import RANK_CUTOFF, SvdFactorization, as_matrix


@dataclass
class CandidatePool:
    rows: int
    cols: int
    u: np.ndarray = field(repr=False)  # (rows, t), the kept triplets' U columns
    sigma: np.ndarray = field(repr=False)  # (t,), descending
    vt: np.ndarray = field(repr=False)  # (t, cols), C-contiguous: row k is V column k
    entry_values: np.ndarray = field(repr=False)
    entry_flat: np.ndarray = field(repr=False)  # row * cols + col

    @property
    def n_triplets(self) -> int:
        return int(self.sigma.size)

    @property
    def size(self) -> int:
        return self.n_triplets + int(self.entry_values.size)

    @property
    def costs(self) -> np.ndarray:
        """float64, one per candidate: rows + cols per triplet, 1 per entry."""
        triplet = float(self.rows + self.cols)
        return np.concatenate([np.full(self.n_triplets, triplet), np.ones(self.entry_values.size)])

    @property
    def magnitudes(self) -> np.ndarray:
        return np.concatenate([self.sigma, np.abs(self.entry_values)])

    @property
    def total_cost(self) -> int:
        """Stored parameters when every candidate is kept."""
        return int(self.costs.sum())


def build_pool(f: SvdFactorization, s) -> CandidatePool:
    """Enumerate the candidates of one decomposed layer.

    ``f`` factors the low-rank part, singular values descending (for
    instance ``RpcaResult.factors``); ``s`` is the sparse part.
    """
    s = as_matrix(s)
    rows, cols = f.u.shape[0], f.v.shape[0]
    if (rows, cols) != s.shape:
        raise ValueError(f"part shapes differ: {(rows, cols)} vs {s.shape}")

    t = int(np.count_nonzero(f.sigma > RANK_CUTOFF * f.sigma[0])) if f.sigma.size else 0

    flat = np.flatnonzero(s)  # row-major, so a stable sort keeps ties in (row, col) order
    flat = flat[np.argsort(-np.abs(s.flat[flat]), kind="stable")]

    return CandidatePool(
        rows=rows,
        cols=cols,
        u=f.u[:, :t],
        sigma=f.sigma[:t],
        vt=np.ascontiguousarray(f.v[:, :t].T),
        entry_values=s.flat[flat],
        entry_flat=flat,
    )


def _split(pool: CandidatePool, mask) -> tuple[np.ndarray, np.ndarray]:
    """Kept-triplet and kept-entry flags of a mask over the pool."""
    mask = np.asarray(mask)
    if mask.shape != (pool.size,):
        raise ValueError(f"mask length {mask.shape} does not match pool size {pool.size}")
    t = pool.n_triplets
    return mask[:t] != 0, mask[t:] != 0


def param_count(pool: CandidatePool, mask) -> int:
    """Stored parameters of the mask: the summed costs of the kept candidates."""
    return int(pool.costs[np.concatenate(_split(pool, mask))].sum())


def reconstruct(pool: CandidatePool, mask) -> np.ndarray:
    """Dense weight rebuilt from the retained candidates: the product of the
    kept singular triplets, with the kept sparse entries added at their
    positions. Stage 2's group rebuild computes the same values in place."""
    keep_t, keep_e = _split(pool, mask)
    w = (pool.u[:, keep_t] * pool.sigma[keep_t]) @ pool.vt[keep_t]
    w.reshape(-1)[pool.entry_flat[keep_e]] += pool.entry_values[keep_e]
    return w


@dataclass
class CompressedLayer:
    """Stored form of one pruned layer: ``u_prime @ v_prime.T + s_masked``."""

    u_prime: np.ndarray  # (rows, r'), columns sqrt(sigma_i) u_i, descending sigma
    v_prime: np.ndarray  # (cols, r')
    s_masked: np.ndarray  # (rows, cols), retained sparse entries only
    mask: np.ndarray

    @property
    def stored_params(self) -> int:
        return int(self.u_prime.size + self.v_prime.size + np.count_nonzero(self.s_masked))

    def dense(self) -> np.ndarray:
        return self.u_prime @ self.v_prime.T + self.s_masked


def factorize(pool: CandidatePool, mask) -> CompressedLayer:
    """Split the retained triplets into balanced factors via sqrt(sigma)."""
    keep_t, keep_e = _split(pool, mask)
    root = np.sqrt(pool.sigma[keep_t])
    u_prime = np.ascontiguousarray(pool.u[:, keep_t] * root)
    v_prime = np.ascontiguousarray(pool.vt[keep_t].T * root)
    s_masked = np.zeros(pool.rows * pool.cols)
    s_masked[pool.entry_flat[keep_e]] = pool.entry_values[keep_e]
    return CompressedLayer(
        u_prime=u_prime,
        v_prime=v_prime,
        s_masked=s_masked.reshape(pool.rows, pool.cols),
        mask=np.asarray(mask, dtype=np.int8).copy(),
    )
