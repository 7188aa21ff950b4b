"""Prunable-candidate enumeration over a low-rank plus sparse decomposition.

Each singular triplet of the low-rank part and each exactly-nonzero entry of
the sparse part is an independently prunable candidate. Keeping a triplet of
an m x n layer stores one column of U and one of V, so it costs m + n
parameters; a sparse entry costs 1.

A pool is a set of flat arrays in one deterministic candidate order:
triplets by descending singular value, then sparse entries by descending
magnitude with (row, col) breaking ties; a mask over the pool has one bit
per position. Triplets with sigma above ``SIGMA_CUTOFF * sigma_1`` are kept,
and as sigma descends they are a prefix: with ``t = n_triplets``, position
``k < t`` is the triplet ``(u[:, k], sigma[k], vt[k])``, and position
``k >= t`` is the entry with value ``entry_values[k - t]`` at
``entry_flat[k - t] = row * cols + col`` of the flattened matrix. Each
triplet and each entry is stored once; ``costs`` and ``magnitudes`` (sigma
for a triplet, |value| for an entry) are computed from them over the whole
order.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .rpca import SvdFactorization, as_matrix

SIGMA_CUTOFF = 1e-12  # triplets with sigma <= SIGMA_CUTOFF * sigma_1 are dropped


@dataclass
class CandidatePool:
    layer_id: int | str
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
        """float64, one per candidate."""
        triplet = float(self.rows + self.cols)
        return np.concatenate([np.full(self.n_triplets, triplet), np.ones(self.entry_values.size)])

    @property
    def magnitudes(self) -> np.ndarray:
        return np.concatenate([self.sigma, np.abs(self.entry_values)])

    @property
    def total_cost(self) -> int:
        """Stored parameters when every candidate is kept."""
        return (self.rows + self.cols) * self.n_triplets + int(self.entry_values.size)


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

    rr, cc = np.nonzero(s)
    vals = s[rr, cc]
    order = np.lexsort((cc, rr, -np.abs(vals)))
    rr, cc, vals = rr[order], cc[order], vals[order]

    return CandidatePool(
        layer_id=layer_id,
        rows=rows,
        cols=cols,
        u=f.u[:, :t],
        sigma=f.sigma[:t],
        vt=np.ascontiguousarray(f.v[:, :t].T),
        entry_values=np.ascontiguousarray(vals),
        entry_flat=rr * cols + cc,
    )


def _split(pool: CandidatePool, mask) -> tuple[np.ndarray, np.ndarray]:
    """Kept-triplet and kept-entry flags of a mask over the pool."""
    mask = np.asarray(mask)
    if mask.shape != (pool.size,):
        raise ValueError(f"mask length {mask.shape} does not match pool size {pool.size}")
    t = pool.n_triplets
    return mask[:t] != 0, mask[t:] != 0


def param_count(pool: CandidatePool, mask) -> int:
    """Stored parameters of the mask: rows + cols per kept triplet, 1 per kept entry."""
    keep_t, keep_e = _split(pool, mask)
    return (pool.rows + pool.cols) * int(np.count_nonzero(keep_t)) + int(np.count_nonzero(keep_e))
