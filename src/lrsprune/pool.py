"""Prunable-candidate enumeration over a low-rank plus sparse decomposition.

Each singular triplet of the low-rank part and each exactly-nonzero entry of
the sparse part is an independently prunable candidate. Keeping a triplet of
an m x n layer stores one column of U and one of V, so it costs m + n
parameters; a sparse entry costs 1.

A pool is a set of flat arrays in one deterministic candidate order:
triplets by descending singular value, then sparse entries by descending
magnitude with (row, col) breaking ties. ``costs`` and ``magnitudes`` (sigma
for a triplet, |value| for an entry) span the whole order; a mask over the
pool has one bit per position. Triplets with sigma above
``SIGMA_CUTOFF * sigma_1`` are kept, and as sigma descends they are a
prefix: with ``t = n_triplets``, position ``k < t`` is column k of ``svd``
(which holds those t triplets only), and position ``k >= t`` is the entry
with value ``entry_values[k - t]`` at ``entry_flat[k - t] = row * cols +
col`` of the flattened matrix.

For the masked rebuild the pool also holds the kept triplets as
``triplet_us`` (column k is sigma_k times its U column) and ``triplet_vt``
(row k is its V column).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .linalg import SvdFactorization, as_matrix

SIGMA_CUTOFF = 1e-12  # triplets with sigma <= SIGMA_CUTOFF * sigma_1 are dropped


@dataclass
class CandidatePool:
    layer_id: int | str
    rows: int
    cols: int
    svd: SvdFactorization  # the kept triplets of the low-rank part
    costs: np.ndarray = field(repr=False)  # float64, one per candidate
    magnitudes: np.ndarray = field(repr=False)
    entry_values: np.ndarray = field(repr=False)
    triplet_us: np.ndarray = field(repr=False)  # (rows, t)
    triplet_vt: np.ndarray = field(repr=False)  # (t, cols), C-contiguous
    entry_flat: np.ndarray = field(repr=False)  # row * cols + col

    @property
    def size(self) -> int:
        return int(self.costs.size)

    @property
    def n_triplets(self) -> int:
        return self.svd.rank

    @property
    def total_cost(self) -> int:
        """Stored parameters when every candidate is kept."""
        return int(self.costs.sum())


def build_pool(layer_id, f: SvdFactorization, s) -> CandidatePool:
    """Enumerate the candidates of one decomposed layer.

    ``f`` factors the low-rank part, singular values descending (for
    instance ``RpcaResult.factors``); ``s`` is the sparse part.
    """
    s = as_matrix(s)
    rows, cols = f.u.shape[0], f.v.shape[0]
    if (rows, cols) != s.shape:
        raise ValueError(f"part shapes differ: {(rows, cols)} vs {s.shape}")

    t = int(np.count_nonzero(f.sigma > SIGMA_CUTOFF * f.sigma[0])) if f.sigma.size else 0
    svd = SvdFactorization(u=f.u[:, :t], sigma=f.sigma[:t], v=f.v[:, :t])

    rr, cc = np.nonzero(s)
    vals = s[rr, cc]
    order = np.lexsort((cc, rr, -np.abs(vals)))
    rr, cc, vals = rr[order], cc[order], vals[order]

    return CandidatePool(
        layer_id=layer_id,
        rows=rows,
        cols=cols,
        svd=svd,
        costs=np.concatenate([np.full(t, float(rows + cols)), np.ones(vals.size)]),
        magnitudes=np.concatenate([svd.sigma, np.abs(vals)]),
        entry_values=np.ascontiguousarray(vals),
        triplet_us=svd.u * svd.sigma,
        triplet_vt=np.ascontiguousarray(svd.v.T),
        entry_flat=rr * cols + cc,
    )


def param_count(pool: CandidatePool, mask) -> int:
    """Stored parameters of the mask: sum of selected candidate costs."""
    mask = np.asarray(mask)
    if mask.shape != (pool.size,):
        raise ValueError(f"mask length {mask.shape} does not match pool size {pool.size}")
    return int(pool.costs @ (mask != 0))
