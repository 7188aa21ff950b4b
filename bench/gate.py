"""Per-job correctness gate, computed with the benchmark's own numpy code.

The gate trusts nothing the job reports about itself: it recounts stored
parameters from the emitted factors and recomputes the task loss with its
own forward pass over ``u' v'^T + s_masked``.
"""

from __future__ import annotations

import math
import struct

import numpy as np

LOSS_RTOL = 1e-9  # the factored and the dense rebuild differ by rounding only
_HEADER = struct.Struct("<4sIQQ")  # .capm: magic, version, rows, cols


def read_capm(path) -> np.ndarray:
    """Read a .capm matrix file independently of lrsprune.matio."""
    with open(path, "rb") as fh:
        data = fh.read()
    magic, _, rows, cols = _HEADER.unpack_from(data)
    if magic != b"CAPM" or len(data) != _HEADER.size + 8 * rows * cols:
        raise ValueError(f"{path}: not a well-formed .capm file")
    return np.frombuffer(data, dtype="<f8", offset=_HEADER.size).reshape(rows, cols)


def recomputed_loss(layers, inputs: np.ndarray, targets: np.ndarray) -> float:
    """Mean squared output error of the stored model, ReLU between layers."""
    h = inputs
    for k, (u, v, s) in enumerate(layers):
        h = h @ (u @ v.T + s)
        if k < len(layers) - 1:
            h = np.maximum(h, 0.0)
    diff = h - targets
    return float(np.mean(np.sum(diff * diff, axis=1)))


def check(outcome) -> list[str]:
    """Problems found in one job's outputs; empty when the job is correct.

    Factor checks apply when the job's factors are at hand (``layers`` is
    not None); the other checks apply to every job.
    """
    if outcome.exit_code != 0:
        return [f"exit code {outcome.exit_code}"]
    problems = []
    scalars = [outcome.final_loss] + [row[3] for row in outcome.extra_rows]
    if outcome.threshold_loss is not None:
        scalars.append(outcome.threshold_loss)
    if not all(math.isfinite(x) for x in scalars):
        problems.append("non-finite loss")
    if outcome.used_cost > outcome.budget:
        problems.append(f"used_cost {outcome.used_cost} exceeds budget {outcome.budget}")
    for name, used, budget, _ in outcome.extra_rows:
        if used > budget:
            problems.append(f"{name}: used_cost {used} exceeds budget {budget}")
    if outcome.layers is None:
        return problems
    if not all(np.all(np.isfinite(a)) for layer in outcome.layers for a in layer):
        problems.append("non-finite factor entries")
    recount = sum(u.size + v.size + int(np.count_nonzero(s)) for u, v, s in outcome.layers)
    if recount != outcome.used_cost:
        problems.append(f"used_cost {outcome.used_cost} but the factors store {recount}")
    loss = recomputed_loss(outcome.layers, outcome.inputs, outcome.targets)
    if not math.isclose(loss, outcome.final_loss, rel_tol=LOSS_RTOL, abs_tol=1e-12):
        problems.append(f"final_loss {outcome.final_loss!r} but recomputed {loss!r}")
    return problems
