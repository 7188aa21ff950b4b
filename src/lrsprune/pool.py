"""Prunable-candidate enumeration over a low-rank plus sparse decomposition.

Each singular triplet of the low-rank part and each exactly-nonzero entry of
the sparse part is an independently prunable candidate. Keeping a triplet of
an m x n layer stores one column of U and one of V, so it costs m + n
parameters; a sparse entry costs 1.

Candidate order is deterministic: triplets by descending singular value,
then sparse entries by descending magnitude with (row, col) breaking ties.
Masks over a pool index into ``candidates`` in exactly this order.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum

import numpy as np

from .linalg import SvdFactorization, as_matrix

SIGMA_CUTOFF = 1e-12  # triplets with sigma <= SIGMA_CUTOFF * sigma_1 are dropped


class CandidateKind(Enum):
    SINGULAR_TRIPLET = "singular_triplet"
    SPARSE_ENTRY = "sparse_entry"


@dataclass
class Candidate:
    kind: CandidateKind
    index: int | tuple[int, int]  # triplet position, or (row, col) of the entry
    magnitude: float  # sigma_i, or |value| for an entry
    cost: int


@dataclass
class CandidatePool:
    layer_id: int | str
    rows: int
    cols: int
    svd: SvdFactorization  # factorization of the low-rank part
    sparse_entries: list[tuple[int, int, float]]  # in candidate order
    candidates: list[Candidate]
    total_cost: int
    # flat views used by reconstruction; aligned with candidate order
    triplet_index: np.ndarray = field(repr=False, default=None)
    triplet_sigma: np.ndarray = field(repr=False, default=None)
    entry_rows: np.ndarray = field(repr=False, default=None)
    entry_cols: np.ndarray = field(repr=False, default=None)
    entry_values: np.ndarray = field(repr=False, default=None)

    @property
    def size(self) -> int:
        return len(self.candidates)

    @property
    def n_triplets(self) -> int:
        return int(self.triplet_index.size)

    def costs(self) -> np.ndarray:
        return np.array([c.cost for c in self.candidates], dtype=np.float64)


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
    triplet_cost = rows + cols
    candidates = [
        Candidate(CandidateKind.SINGULAR_TRIPLET, int(i), float(f.sigma[i]), triplet_cost)
        for i in keep
    ]

    rr, cc = np.nonzero(s)
    vals = s[rr, cc]
    order = np.lexsort((cc, rr, -np.abs(vals)))
    rr, cc, vals = rr[order], cc[order], vals[order]
    entries = [(int(r), int(c), float(v)) for r, c, v in zip(rr, cc, vals)]
    candidates += [
        Candidate(CandidateKind.SPARSE_ENTRY, (r, c), abs(v), 1) for r, c, v in entries
    ]

    return CandidatePool(
        layer_id=layer_id,
        rows=rows,
        cols=cols,
        svd=f,
        sparse_entries=entries,
        candidates=candidates,
        total_cost=triplet_cost * len(keep) + len(entries),
        triplet_index=keep,
        triplet_sigma=np.ascontiguousarray(f.sigma[keep]),
        entry_rows=rr,
        entry_cols=cc,
        entry_values=np.ascontiguousarray(vals),
    )


def param_count(pool: CandidatePool, mask) -> int:
    """Stored parameters of the mask: sum of selected candidate costs."""
    mask = np.asarray(mask)
    if mask.shape != (pool.size,):
        raise ValueError(f"mask length {mask.shape} does not match pool size {pool.size}")
    costs = np.array([c.cost for c in pool.candidates], dtype=np.int64)
    return int(costs @ (mask != 0))
