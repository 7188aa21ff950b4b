"""Prunable-candidate enumeration over a low-rank plus sparse decomposition.

Each singular triplet of the low-rank part and each exactly-nonzero entry of
the sparse part is an independently prunable candidate. Keeping a triplet of
an m x n layer stores one column of U and one of V, so it costs m + n
parameters; a sparse entry costs 1.

A pool is a set of flat arrays in one deterministic candidate order:
triplets by descending singular value, then sparse entries by descending
magnitude with (row, col) breaking ties. ``costs`` and ``magnitudes`` (sigma
for a triplet, |value| for an entry) span the whole order; a mask over the
pool has one bit per position. With ``t = n_triplets``, position ``k < t``
is the triplet in column ``triplet_index[k]`` of ``svd.u`` / ``svd.v`` with
singular value ``triplet_sigma[k]``, and position ``k >= t`` is the entry at
``(entry_rows[k - t], entry_cols[k - t])`` with value ``entry_values[k - t]``.

For the masked rebuild the pool also holds the kept triplets as
``triplet_us`` (column k is ``triplet_sigma[k]`` times its U column) and
``triplet_vt`` (row k is its V column), and each entry's position in the
flattened matrix as ``entry_flat``.
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
    svd: SvdFactorization  # factorization of the low-rank part
    total_cost: int
    costs: np.ndarray = field(repr=False)  # float64, one per candidate
    magnitudes: np.ndarray = field(repr=False)
    triplet_index: np.ndarray = field(repr=False)
    triplet_sigma: np.ndarray = field(repr=False)
    entry_rows: np.ndarray = field(repr=False)
    entry_cols: np.ndarray = field(repr=False)
    entry_values: np.ndarray = field(repr=False)
    triplet_us: np.ndarray = field(repr=False)  # (rows, t)
    triplet_vt: np.ndarray = field(repr=False)  # (t, cols), C-contiguous
    entry_flat: np.ndarray = field(repr=False)  # row * cols + col

    @property
    def size(self) -> int:
        return int(self.costs.size)

    @property
    def n_triplets(self) -> int:
        return int(self.triplet_index.size)


def build_pool(layer_id, f: SvdFactorization, s) -> CandidatePool:
    """Enumerate the candidates of one decomposed layer.

    ``f`` factors the low-rank part, singular values descending (for
    instance ``RpcaResult.factors``); ``s`` is the sparse part.
    """
    s = as_matrix(s)
    rows, cols = f.u.shape[0], f.v.shape[0]
    if (rows, cols) != s.shape:
        raise ValueError(f"part shapes differ: {(rows, cols)} vs {s.shape}")

    if f.sigma.size and f.sigma[0] > 0.0:
        keep = np.flatnonzero(f.sigma > SIGMA_CUTOFF * f.sigma[0])
    else:
        keep = np.array([], dtype=np.intp)
    sigma = np.ascontiguousarray(f.sigma[keep])

    rr, cc = np.nonzero(s)
    vals = s[rr, cc]
    order = np.lexsort((cc, rr, -np.abs(vals)))
    rr, cc, vals = rr[order], cc[order], vals[order]

    costs = np.concatenate([np.full(keep.size, float(rows + cols)), np.ones(vals.size)])
    return CandidatePool(
        layer_id=layer_id,
        rows=rows,
        cols=cols,
        svd=f,
        total_cost=(rows + cols) * keep.size + vals.size,
        costs=costs,
        magnitudes=np.concatenate([sigma, np.abs(vals)]),
        triplet_index=keep,
        triplet_sigma=sigma,
        entry_rows=rr,
        entry_cols=cc,
        entry_values=np.ascontiguousarray(vals),
        triplet_us=f.u[:, keep] * sigma,
        triplet_vt=np.ascontiguousarray(f.v[:, keep].T),
        entry_flat=rr * cols + cc,
    )


def param_count(pool: CandidatePool, mask) -> int:
    """Stored parameters of the mask: sum of selected candidate costs."""
    mask = np.asarray(mask)
    if mask.shape != (pool.size,):
        raise ValueError(f"mask length {mask.shape} does not match pool size {pool.size}")
    return int(pool.costs @ (mask != 0))
