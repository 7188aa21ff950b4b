"""Span tracing from outside the program.

The tracer rebinds the module attributes that lrsprune's callers look up
(``lrsprune.pipeline.decompose``, ``lrsprune.rpca.svd``, ...) to timing
wrappers, and restores them afterwards; ``src/`` is never edited. A target
whose module or attribute no longer exists is skipped and reported as
absent, so the traced run survives refactors that merge or delete helpers.

A span has a name, a start, an end, the index of its parent span (-1 at
the root), the id of the job it belongs to and, for some names, attributes
such as a call's flop count. Spans stay in memory until ``write`` at the end.
"""

from __future__ import annotations

import gzip
import hashlib
import importlib
import json
import os
import time
from array import array

import numpy as np


def _svd_attrs(args, kwargs, result):
    rows, cols = np.shape(args[0])
    return {"flops": rows * cols * min(rows, cols)}


def _decompose_attrs(args, kwargs, result):
    w = np.ascontiguousarray(args[0])
    config = args[1] if len(args) > 1 else kwargs.get("config")
    return {
        "layer": hashlib.blake2b(w.tobytes(), digest_size=8).hexdigest() + str(w.shape),
        "lam": getattr(config, "lam", None),
        "iterations": int(result.iterations),
        "residual": float(result.residual),
    }


def _pool_attrs(args, kwargs, result):
    return {"candidates": int(result.size), "total_cost": int(result.total_cost)}


def _run_attrs(args, kwargs, result):
    report = result[0]
    return {"budget": int(report.budget), "loss_evals": len(report.history)}


def _write_attrs(args, kwargs, result):
    return {"bytes": os.path.getsize(args[0])}


def _report_attrs(args, kwargs, result):
    return {"bytes": len(result.encode())}


# (module, attribute callers look up, span name, annotator); the same span
# name appears twice where two modules import the same function by name
TARGETS = [
    ("lrsprune.rpca", "svd", "linalg.svd", _svd_attrs),
    ("lrsprune.pool", "svd", "linalg.svd", _svd_attrs),
    ("lrsprune.pipeline", "decompose", "rpca.decompose", _decompose_attrs),
    ("lrsprune.pipeline", "build_pool", "pool.build_pool", _pool_attrs),
    ("lrsprune.pipeline", "init_state", "allocator.init_state", None),
    ("lrsprune.pipeline", "reinforce_step", "allocator.reinforce_step", None),
    ("lrsprune.allocator", "project_to_budget", "allocator.project_to_budget", None),
    ("lrsprune.pipeline", "finalize_masks", "allocator.finalize_masks", None),
    ("lrsprune.pipeline", "reconstruct", "calibration.reconstruct", None),
    ("lrsprune.calibration", "reconstruct", "calibration.reconstruct", None),
    ("lrsprune.pipeline", "factorize", "calibration.factorize", None),
    ("lrsprune.pipeline", "loss_with_masks", "calibration.loss_with_masks", None),
    ("lrsprune.pipeline", "forward_loss", "calibration.forward_loss", None),
    ("lrsprune.pipeline", "run", "pipeline.run", _run_attrs),
    ("lrsprune.cli", "run", "pipeline.run", _run_attrs),
    ("lrsprune.cli", "heuristic_threshold_baseline", "pipeline.baseline", _run_attrs),
    ("lrsprune.cli", "read_matrix", "matio.read_matrix", None),
    ("lrsprune.cli", "write_matrix", "matio.write_matrix", _write_attrs),
    ("lrsprune.cli", "format_report", "cli.format_report", _report_attrs),
]


class Tracer:
    """Spans held column-wise, so that tracing adds no container object per
    span for the garbage collector to scan."""

    def __init__(self):
        self.names: list[str] = []
        self.starts = array("d")
        self.ends = array("d")
        self.parents = array("q")
        self.jobs = array("q")
        self.attrs: dict[int, dict] = {}
        self.absent: list[str] = []
        self._stack: list[int] = []
        self._job = -1
        self._saved: list[tuple] = []

    def _open(self, name: str) -> int:
        k = len(self.names)
        self.names.append(name)
        self.parents.append(self._stack[-1] if self._stack else -1)
        self.jobs.append(self._job)
        self.ends.append(0.0)
        self._stack.append(k)
        self.starts.append(time.perf_counter())
        return k

    def _close(self, k: int) -> None:
        self.ends[k] = time.perf_counter()
        self._stack.pop()

    def _wrap(self, fn, name: str, annotate):
        def traced(*args, **kwargs):
            k = self._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(k)
            if annotate is not None:
                self.attrs[k] = annotate(args, kwargs, result)
            return result

        return traced

    def install(self) -> None:
        """Rebind every target that exists; list the others in ``absent``."""
        absent = []
        for module_name, attr, span_name, annotate in TARGETS:
            try:
                module = importlib.import_module(module_name)
            except ImportError:
                module = None
            original = getattr(module, attr, None)
            if not callable(original):
                absent.append(f"{module_name}.{attr}")
                continue
            self._saved.append((module, attr, original))
            setattr(module, attr, self._wrap(original, span_name, annotate))
        self.absent = absent

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._saved):
            setattr(module, attr, original)
        self._saved.clear()

    def traced_job(self, job: int, fn, *args):
        """Run ``fn(*args)`` as job ``job`` under a root span, wrappers installed."""
        self.install()
        self._job = job
        k = self._open("job")
        try:
            return fn(*args)
        finally:
            self._close(k)
            self.uninstall()

    def spans(self) -> list[tuple]:
        """Every span as ``(name, start, end, parent, job, attrs)``."""
        return [
            (name, self.starts[k], self.ends[k], self.parents[k], self.jobs[k], self.attrs.get(k))
            for k, name in enumerate(self.names)
        ]

    def write(self, path) -> None:
        """All spans as gzipped column-wise JSON."""
        names = sorted(set(self.names))
        code = {n: k for k, n in enumerate(names)}
        columns = {
            "names": names,
            "name": [code[n] for n in self.names],
            "start": self.starts.tolist(),
            "end": self.ends.tolist(),
            "parent": self.parents.tolist(),
            "job": self.jobs.tolist(),
            "attrs": self.attrs,
        }
        with gzip.open(path, "wt", compresslevel=1) as fh:
            json.dump(columns, fh)
