"""A fixed CPU kernel timed next to every job.

On a 2-vCPU virtual machine shared with other tenants, the same work runs
at speeds that differ by up to 1.5x for minutes at a time, so no statistic
over one run's jobs makes absolute job times repeat from run to run.
Dividing a job's wall time by this kernel's wall time, measured just before
and just after the job, cancels most of that drift. The kernel mixes what
the jobs do: LAPACK SVDs, small BLAS products and Python-level loops over
small arrays. It never calls lrsprune, so a change to the program moves only
the numerator.
"""

from __future__ import annotations

import time

import numpy as np

_RNG = np.random.default_rng(20250506)
_A = _RNG.standard_normal((48, 48))
_B = _RNG.standard_normal((48, 48)) / 7.0
_C = _RNG.standard_normal((96, 96))


def reference_s() -> float:
    """Wall seconds of one run of the fixed kernel (about 10 ms)."""
    start = time.perf_counter()
    np.linalg.svd(_C)
    x = _A
    acc = 0.0
    for k in range(32):
        s = np.linalg.svd(x, compute_uv=False)
        x = np.clip(x @ _B + _A, -3.0, 3.0)
        acc += float(s[0]) + sum(float(v) for v in x[k % 48, :8])
    if not np.isfinite(acc):
        raise FloatingPointError("reference kernel produced a non-finite value")
    return time.perf_counter() - start
