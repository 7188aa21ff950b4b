"""Robust decomposition of a dense matrix into low-rank plus sparse parts.

The solver is an inexact augmented Lagrangian ADMM. With a penalty mu that
starts at 1.25/||W||_2 and grows by RHO per iteration, and a running
multiplier Y, it alternates

    L <- SVT_{1/mu}(W - S + Y/mu)          singular value thresholding
    S <- soft_{lambda/mu}(W - L + Y/mu)    entrywise soft thresholding
    Y <- Y + mu (W - L - S)

and stops once the relative feasibility residual
``||W - L - S||_F / ||W||_F`` drops to the configured tolerance.

The first step needs no SVT call. With S = 0 and the dual start
Y = W / d, d = max(||W||_2, max|W| / lambda), its input is exactly c W with
c = 1 + 1/(d mu), so W's spectrum, which also gives ||W||_2, yields its
triplets: W's, with the values scaled by c. The spectrum comes from one
symmetric eigendecomposition of the smaller Gram matrix, W^T W, or W W^T
when rows < cols; the vectors of W's other side are formed for the
survivors only. W's leading right singular vectors, as many as the second
step's first range-finder attempt reads, are that step's start block.

Every later SVT step computes only the triplets that can survive (Lin, Chen
& Ma 2010, section 4). The predicted survivor count ``k`` starts at
INITIAL_RANK, the guess the first step's survivor count ``svp`` is compared
with; it becomes ``svp + 1`` if ``svp < k``, else ``svp`` plus RANK_STEP of
the smaller dimension. A randomized range finder (Halko, Martinsson & Tropp
2011) with OVERSAMPLE extra columns, POWER_ITERS (one) power iteration and
a generator seeded in ``decompose`` yields the top triplets, by
Rayleigh-Ritz from the eigendecomposition of the small ``B^T B``,
``B = A^T Q``. It takes two QRs per call: ``Q = qr(A Omega)``, then
``Q = qr(A (A^T Q))``, with no QR of ``A^T Q`` between. That spans the
same subspace in exact arithmetic; in floating point the unnormalized
``A A^T Q`` loses only directions below about ``sqrt(eps) sigma_1``
(1.5e-8 sigma_1), while the smallest threshold the solver applies,
``1 / mu_cap``, is ``sigma_1 / (1.25 MU_CAP_FACTOR)`` = 8e-8 sigma_1, so
no survivor lies below that floor, and the acceptance rule below still
certifies every cut. It is warm-started (ibid., section 4.5): the
right block of the last attempt, all its columns rather than the shrunk
survivors, replaces the leading columns of the Gaussian test block, both
in the next attempt of a step and in the first attempt of the
next ADMM iteration; the generator still draws a full block, so its stream
does not depend on the start. Exactness rule: a step is accepted only when
the first computed value at or below the threshold stays there when widened
by the residual of its pair; otherwise ``k`` doubles. Once ``k + OVERSAMPLE``
reaches half the smaller dimension the step takes the full SVD, so small
layers always take the exact path. ``RpcaResult.factors`` holds the last
step's shrunk factorization, whose product is ``l``.

The solver runs on ``W / 2^e``, with ``e`` the binary exponent of ``max|W|``,
and scales ``l``, ``s`` and the singular values back by ``2^e``. Powers of two
scale exactly, so ``decompose(2^j W)`` is ``2^j decompose(W)`` byte for byte,
and at any finite scale no square in W's Gram matrix leaves the normal float
range unless it does at unit scale.

Stage 1 is the only code that makes factorizations, so this module also
holds what the others read of one: ``SvdFactorization``, its sign
convention ``column_signs``, ``SvdError`` and the matrix check ``as_matrix``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

RHO = 1.5  # penalty growth factor per ADMM iteration
MAX_ITERS = 500  # ADMM iterations before NonConvergenceError
MU_CAP_FACTOR = 1e7  # penalty stops growing at MU_CAP_FACTOR times its start
RANK_CUTOFF = 1e-9  # rank_l counts singular values above RANK_CUTOFF * sigma_1
INITIAL_RANK = 10  # the guess the first step's survivor count is compared with
RANK_STEP = 0.05  # rank growth, as a fraction of the smaller dimension
OVERSAMPLE = 10  # range-finder columns beyond the predicted rank
POWER_ITERS = 1  # range-finder power iterations


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
    """The sign convention of every factorization Stage 1 returns: per column
    of ``u``, the sign that makes its largest-magnitude entry positive (ties
    to the lowest row; +1 for a zero column). Each column's sign depends on
    that column alone, so fixed factors are bit-identical on bit-identical input."""
    signs = np.sign(u[np.argmax(np.abs(u), axis=0), np.arange(u.shape[1])])
    signs[signs == 0.0] = 1.0
    return signs


class NonConvergenceError(Exception):
    """The ADMM loop hit the iteration cap above tolerance."""

    def __init__(self, iterations: int, residual: float, tol: float):
        self.iterations = iterations
        self.residual = residual
        self.tol = tol
        super().__init__(
            f"no convergence after {iterations} iterations: relative residual "
            f"{residual:.3e} exceeds tol {tol:.3e}"
        )


@dataclass
class RpcaConfig:
    """Solver knobs. ``lam=None`` selects the default 1/sqrt(max(m, n))."""

    lam: float | None = None
    tol: float = 1e-7

    def __post_init__(self):
        if self.lam is not None and not (math.isfinite(self.lam) and self.lam > 0):
            raise ValueError("lam must be positive and finite")
        if not 0 < self.tol < 1:
            raise ValueError("tol must lie in (0, 1)")


@dataclass
class RpcaResult:
    l: np.ndarray
    s: np.ndarray
    iterations: int
    residual: float  # final relative feasibility residual
    residual_history: list[float]
    rank_l: int
    sparsity_s: float  # fraction of exactly-zero entries in s
    factors: SvdFactorization  # shrunk last SVT step; l == (u * sigma) @ v.T


def default_lambda(rows: int, cols: int) -> float:
    """Sparsity weight 1 / sqrt(max(rows, cols))."""
    if rows < 1 or cols < 1:
        raise ValueError("matrix dimensions must be positive")
    return 1.0 / float(np.sqrt(max(rows, cols)))


def svt_shrink(sigma, tau: float) -> np.ndarray:
    """max(sigma - tau, 0) on each singular value."""
    return np.maximum(np.asarray(sigma, dtype=np.float64) - tau, 0.0)


def soft_threshold(x, tau: float, out: np.ndarray | None = None) -> np.ndarray:
    """sign(x) * max(|x| - tau, 0), entrywise, computed as ``x - clip(x, -tau, tau)``
    in two passes: +0.0 where |x| <= tau, and elsewhere the same rounding as
    the product form. Written into ``out`` if given, which must not share
    memory with ``x``."""
    x = np.asarray(x, dtype=np.float64)
    out = np.clip(x, -tau, tau, out=out)
    return np.subtract(x, out, out=out)


def _gram_eigh(m: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Singular values of ``m``, descending, and the matching eigenvectors of
    ``m.T @ m``, which are ``m``'s right singular vectors.

    A value is ``sqrt(max(lambda, 0))``, so one below ``sqrt(eps) sigma_1``
    carries the eigensolver's absolute error.

    Raises:
        SvdError: if the eigensolver does not converge.
    """
    try:
        lam, x = np.linalg.eigh(m.T @ m)
    except np.linalg.LinAlgError as exc:
        raise SvdError(f"eigh of the Gram matrix of shape {m.shape} did not converge: {exc}") from exc
    return np.sqrt(np.maximum(lam[::-1], 0.0)), x[:, ::-1]


def _unit_columns(mx: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The columns of ``mx`` scaled to unit norm, and their norms.

    For ``mx = m @ x`` with ``x`` eigenvectors of ``m.T @ m``, these are the
    singular vectors on ``m``'s other side and their values. Division keeps
    them orthonormal to working accuracy only while the norm exceeds
    ``sqrt(eps)`` times the largest. A column at or below that, a zero one
    included, is replaced by the matching column of a QR of the columns above
    it followed by the ones below: finite, of unit norm and orthogonal to the
    resolved ones, so a residual computed from it never reads 0 by accident.
    """
    norms = np.sqrt(np.einsum("ij,ij->j", mx, mx))
    live = norms > np.sqrt(np.finfo(np.float64).eps) * norms.max()
    if live.all():
        return mx / norms, norms
    out = np.empty_like(mx)
    out[:, live] = mx[:, live] / norms[live]
    q, r = np.linalg.qr(np.concatenate([out[:, live], mx[:, ~live]], axis=1))
    n = int(np.count_nonzero(live))
    out[:, ~live] = q[:, n:] * np.where(np.diag(r)[n:] < 0.0, -1.0, 1.0)
    return out, norms


def _top_triplets(
    a: np.ndarray, k: int, rng: np.random.Generator, start: np.ndarray | None = None
) -> SvdFactorization:
    """Leading ``k`` singular triplets of ``a`` from a randomized range finder.

    The leading columns of ``start``, if given, replace the first columns of
    the Gaussian test block, which still draws ``(cols, k)`` numbers. The
    Rayleigh-Ritz step factors ``q.T @ a = x diag(sigma) v.T`` from the
    eigenvectors ``x`` of the small ``b.T @ b``, ``b = a.T @ q``: ``v`` is ``b @ x``
    with unit columns, ``sigma`` their norms, and ``u = q @ x``, sorted by
    descending value and signed as the eigensolver returns ``x``.
    """
    block = rng.standard_normal((a.shape[1], k))
    if start is not None:
        j = min(k, start.shape[1])
        block[:, :j] = start[:, :j]
    q = np.linalg.qr(a @ block)[0]
    for _ in range(POWER_ITERS):  # a.T @ q needs no QR of its own (module docstring)
        q = np.linalg.qr(a @ (a.T @ q))[0]
    b = a.T @ q
    x = _gram_eigh(b)[1]
    v, sigma = _unit_columns(b @ x)
    order = np.argsort(-sigma, kind="stable")
    return SvdFactorization(u=q @ x[:, order], sigma=sigma[order], v=v[:, order])


def _shrunk_survivors(u, sigma, v, tau: float) -> SvdFactorization:
    """The leading triplets of ``(u, sigma, v)`` whose values exceed ``tau``,
    signed by ``column_signs``, fixed on them only, and shrunk by ``tau``.
    ``u`` and ``v`` need only hold the survivors' columns."""
    svp = int(np.count_nonzero(sigma > tau))
    signs = column_signs(u[:, :svp])
    return SvdFactorization(
        u=np.ascontiguousarray(u[:, :svp] * signs),
        sigma=svt_shrink(sigma[:svp], tau),
        v=np.ascontiguousarray(v[:, :svp] * signs),
    )


def _predicted_rank(svp: int, k: int, small: int) -> int:
    """The next SVT step's survivor guess, after a step kept ``svp`` against the
    guess ``k``, for a matrix whose smaller dimension is ``small``."""
    return svp + 1 if svp < k else min(svp + round(RANK_STEP * small), small)


def svt(
    a, tau: float, k: int, rng: np.random.Generator | None, start: np.ndarray | None = None
) -> tuple[SvdFactorization, np.ndarray]:
    """Singular value thresholding: the triplets of ``a`` above ``tau``, shrunk by ``tau``.

    ``k`` is the predicted number of survivors. While ``k + OVERSAMPLE`` stays
    below half the smaller dimension, the triplets come from the range finder
    drawing on ``rng`` and starting from ``start``, and ``k`` doubles, each
    attempt starting from the right block of the one before, until the first
    computed value at or below ``tau`` stays there when widened by its
    residual; otherwise they come from the full SVD, which needs no ``rng``.
    Either path fixes ``column_signs``'s sign convention on the survivors
    only, so the full path's factors equal those of ``thin_svd(a)`` signed by
    ``column_signs`` and cut to them, byte for byte, and returns every right
    singular vector it computed unsigned, as ``np.linalg.svd`` or the range
    finder gives them; a start column's sign does not change the range
    finder's basis.

    The acceptance rule certifies the survivor set, not the kept values: it
    guarantees that no singular value above ``tau`` is missed, but the kept
    triplets carry the range finder's error. The final ``L`` of the nine
    planted 256x256 layers of model seeds 0-2 lies within 5.4e-9 of the
    full-SVD inexact ALM's.

    Returns:
        (shrunk survivors, every right singular vector computed by the last
        attempt), the latter a start block for the next call
    """
    a = as_matrix(a)
    while 2 * (k + OVERSAMPLE) < min(a.shape):
        f = _top_triplets(a, k + OVERSAMPLE, rng, start)
        svp = int(np.count_nonzero(f.sigma > tau))
        if svp < f.rank:
            r = a @ f.v[:, svp] - f.sigma[svp] * f.u[:, svp]
            if f.sigma[svp] + np.linalg.norm(r) <= tau:
                break
        k *= 2
        start = f.v
    else:
        u, sigma, vh = thin_svd(a)
        f = SvdFactorization(u=u, sigma=sigma, v=vh.T)
    return _shrunk_survivors(f.u, f.sigma, f.v, tau), f.v


def decompose(w, config: RpcaConfig | None = None) -> RpcaResult:
    """Split ``w`` into a low-rank ``l`` plus an entrywise-sparse ``s``.

    Args:
        w: dense real matrix.
        config: solver knobs; defaults are used when omitted.

    Returns:
        RpcaResult with the two parts, the per-iteration relative residual
        history, diagnostics (rank of l, zero fraction of s) and the
        factorization of l.

    Raises:
        NonConvergenceError: the residual stayed above ``config.tol`` for
            ``MAX_ITERS`` iterations.
        ValueError: an entry of ``w`` is not finite, or a part scaled back
            overflows (``l`` may exceed max|W| where ``s`` takes an outlier).
    """
    w = as_matrix(w)
    config = config if config is not None else RpcaConfig()
    rows, cols = w.shape
    w_max = float(np.abs(w).max()) if w.size else 0.0
    if w_max == 0.0:  # all-zero or zero-size, where default_lambda is undefined
        zero = np.zeros_like(w)
        return RpcaResult(
            l=zero,
            s=zero.copy(),
            iterations=0,
            residual=0.0,
            residual_history=[],
            rank_l=0,
            sparsity_s=1.0,
            factors=SvdFactorization(
                u=np.zeros((rows, 0)), sigma=np.zeros(0), v=np.zeros((cols, 0))
            ),
        )

    # run on w / 2^e, whose largest entry lies in [1/2, 1): exact, and W's
    # scale alone can then neither overflow nor underflow its Gram matrix
    e = int(np.frexp(w_max)[1])
    w = np.ldexp(w, -e)
    w_max = math.ldexp(w_max, -e)
    lam = config.lam if config.lam is not None else default_lambda(rows, cols)
    scale = float(np.linalg.norm(w))
    small = min(rows, cols)
    # W's spectrum from its smaller Gram matrix: x holds W's right singular
    # vectors if rows >= cols, else its left ones
    tall = rows >= cols
    sigma, x = _gram_eigh(w if tall else w.T)
    mu = 1.25 / float(sigma[0])
    mu_cap = MU_CAP_FACTOR * mu
    # dual-feasible start for the multiplier
    d = max(float(sigma[0]), w_max / lam)
    y = w / d
    # the first SVT input, w - 0 + y/mu, is c w: its step takes W's triplets
    # scaled by c, and the next step starts from W's leading right singular
    # vectors, as many as its first range-finder attempt reads
    sigma *= 1.0 + 1.0 / (d * mu)
    svp = int(np.count_nonzero(sigma > 1.0 / mu))
    k = _predicted_rank(svp, INITIAL_RANK, small)
    width = min(k + OVERSAMPLE, small)
    if tall:
        v, block = x[:, :svp], x[:, :width]
        u = _unit_columns(w @ v)[0]
    else:
        u, block = x[:, :svp], _unit_columns(w.T @ x[:, :width])[0]
        v = block[:, :svp]
    factors = _shrunk_survivors(u, sigma, v, 1.0 / mu)
    del x, u, v  # the second step reads only the block

    rng = np.random.default_rng(0)
    s, gap, y_mu, a = np.zeros_like(w), np.empty_like(w), np.empty_like(w), np.empty_like(w)
    history: list[float] = []
    residual = float("inf")
    iterations = MAX_ITERS
    for it in range(1, MAX_ITERS + 1):
        np.divide(y, mu, out=y_mu)
        if it > 1:
            np.subtract(w, s, out=a)
            a += y_mu
            factors, block = svt(a, 1.0 / mu, k, rng, block)
            k = _predicted_rank(factors.rank, k, small)
        l = (factors.u * factors.sigma) @ factors.v.T
        np.subtract(w, l, out=gap)
        soft_threshold(np.add(gap, y_mu, out=a), lam / mu, out=s)
        gap -= s
        y += np.multiply(gap, mu, out=a)
        mu = min(RHO * mu, mu_cap)
        residual = float(np.linalg.norm(gap)) / scale
        history.append(residual)
        if residual <= config.tol:
            iterations = it
            break
    else:
        raise NonConvergenceError(MAX_ITERS, residual, config.tol)

    with np.errstate(over="ignore"):  # an overflow is raised below, not warned
        sig, l, s = (np.ldexp(part, e, out=part) for part in (factors.sigma, l, s))
    if not (np.isfinite(sig).all() and np.isfinite(l).all() and np.isfinite(s).all()):
        raise ValueError(f"max|W| = {math.ldexp(w_max, e):.6g}: the split overflows when scaled back")
    rank_l = int(np.count_nonzero(sig > RANK_CUTOFF * sig[0])) if sig.size else 0
    return RpcaResult(
        l=l,
        s=s,
        iterations=iterations,
        residual=residual,
        residual_history=history,
        rank_l=rank_l,
        sparsity_s=float(np.mean(s == 0.0)),
        factors=factors,
    )
