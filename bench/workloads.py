"""The benchmark's seeded compression workloads.

A workload turns a job index into inputs (``prepare``, untimed), runs one
compression job on them (``execute``, the timed part), and reads back what
the job emitted (``collect``, untimed). Job ``i``'s model seed and pg seed
come from the workload seed alone, so the same seed gives the same inputs;
the program sees only those generated inputs.

Every instance's budget is below its pool's total cost, so the selection
binds and Stage 2 has a real choice to make.
"""

from __future__ import annotations

import hashlib
import shutil
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import lrsprune
from lrsprune import cli, pipeline

from gate import read_capm

JOB_STREAM = 0  # SeedSequence spawn-key stream for measured jobs
SETUP_STREAM = 1  # stream for the warm-up jobs of setup
REPEAT_TAG = "repeat"


def job_seeds(workload_seed: int, stream: int, index: int) -> tuple[int, int]:
    """(model seed, pg seed) of one job, derived from the workload seed.

    Warm-up jobs are the exception: every seed warms up on the same fixed
    instances, so that set-up time measures set-up rather than how hard one
    drawn model happens to be.
    """
    entropy = 0 if stream == SETUP_STREAM else workload_seed
    ss = np.random.SeedSequence(entropy, spawn_key=(stream, index))
    model_seed, pg_seed = ss.generate_state(2)
    return int(model_seed), int(pg_seed)


@dataclass
class Outcome:
    """What one job emitted, in the form the correctness gate checks."""

    exit_code: int
    budget: int
    used_cost: int
    final_loss: float
    layers: list | None  # (u', v', s_masked) per layer; None if none emitted
    inputs: np.ndarray | None  # calibration set the gate recomputes the loss on
    targets: np.ndarray | None
    digest: str  # sha256 over every output byte
    dense_params: int
    threshold_loss: float | None = None
    # (name, used_cost, budget, final_loss) of extra selections in the output
    extra_rows: list = field(default_factory=list)


def _digest(chunks) -> str:
    h = hashlib.sha256()
    for chunk in chunks:
        h.update(chunk)
    return h.hexdigest()


def _files_digest(directory: Path) -> str:
    files = sorted(p for p in directory.iterdir() if p.is_file())
    return _digest(p.name.encode() + b"\0" + p.read_bytes() for p in files)


def _parse_report_tsv(text: str) -> dict:
    summary = {}
    for line in text.split("\n\n", 1)[1].splitlines():
        key, _, value = line.partition("\t")
        summary[key] = value
    return {
        "budget": int(summary["budget"]),
        "used_cost": int(summary["used_cost"]),
        "final_loss": float(summary["final_loss"]),
    }


def _threshold_loss(job) -> float:
    report, _ = lrsprune.heuristic_threshold_baseline(job)
    return float(report.final_loss)


class ToyGlobal:
    """The default toy model compressed through ``lrsprune compress``."""

    name = "toy-global"
    config = (
        "model.shapes = 32x24,24x24,24x16\n"
        "calib.n = 128\n"
        "pg.iterations = 3\n"
        "budget.fraction = 0.15\n"
    )
    deep_jobs = None  # the threshold baseline is cheap at this size: every job

    def __init__(self, workdir: Path, seed: int):
        self.workdir = workdir
        self.seed = seed
        self.config_path = workdir / "toy-global.cfg"
        self.config_path.write_text(self.config)

    def prepare(self, stream: int, index: int, tag: str = ""):
        model_seed, pg_seed = job_seeds(self.seed, stream, index)
        model_dir = self.workdir / f"in-{stream}-{index}{tag}"
        argv = ["gen", "--out", str(model_dir), "--config", str(self.config_path)]
        rc = cli.main(argv + ["--seed", str(model_seed), "--quiet"])
        if rc != 0:
            raise RuntimeError(f"gen exited with {rc}")
        out_dir = self.workdir / f"out-{stream}-{index}{tag}"
        return model_dir, out_dir, pg_seed

    def execute(self, inputs):
        model_dir, out_dir, pg_seed = inputs
        argv = ["compress", str(model_dir), "--out", str(out_dir)]
        argv += ["--config", str(self.config_path), "--seed", str(pg_seed), "--quiet"]
        return cli.main(argv)

    def collect(self, inputs, rc, deep: bool) -> Outcome:
        model_dir, out_dir, _ = inputs
        if rc != 0:
            return _failed(rc)
        weights = []
        while (model_dir / f"layer{len(weights)}.weight.capm").exists():
            weights.append(read_capm(model_dir / f"layer{len(weights)}.weight.capm"))
        x = read_capm(model_dir / "calib.inputs.capm")
        y = read_capm(model_dir / "calib.targets.capm")
        layers = [
            tuple(read_capm(out_dir / f"layer{i}.{part}.capm") for part in ("uprime", "vprime", "smasked"))
            for i in range(len(weights))
        ]
        report = _parse_report_tsv((out_dir / "report.tsv").read_text())
        threshold = None
        if deep:
            job = lrsprune.CompressionJob(
                model=lrsprune.ToyModel(layers=weights),
                calib=lrsprune.CalibrationSet(inputs=x, targets=y),
                budget_fraction=0.15,
            )
            threshold = _threshold_loss(job)
        return Outcome(
            exit_code=rc,
            layers=layers,
            inputs=x,
            targets=y,
            digest=_files_digest(out_dir),
            dense_params=int(sum(w.size for w in weights)),
            threshold_loss=threshold,
            **report,
        )

    def discard(self, inputs) -> None:
        for directory in inputs[:2]:
            shutil.rmtree(directory, ignore_errors=True)


class Stack256Global:
    """Three planted 256x256 layers compressed through ``lrsprune.run``."""

    name = "stack256-global"
    shapes = [(256, 256)] * 3
    # the threshold baseline redoes all of Stage 1 (~1.5 s); across models its
    # loss varies by a few percent only, so a few jobs pin the median
    deep_jobs = 3

    def __init__(self, workdir: Path, seed: int):
        self.seed = seed

    def prepare(self, stream: int, index: int, tag: str = ""):
        model_seed, pg_seed = job_seeds(self.seed, stream, index)
        rng = np.random.default_rng(model_seed)
        model = lrsprune.planted_model(self.shapes, rng)
        calib = lrsprune.gen_calibration(model, 128, 0.0, rng)
        return lrsprune.CompressionJob(
            model=model,
            calib=calib,
            pg_config=lrsprune.PolicyGradientConfig(iterations=1, seed=pg_seed),
            budget_fraction=0.1,
        )

    def execute(self, job):
        # looked up at call time so a traced run sees the rebound name
        return pipeline.run(job)

    def collect(self, job, result, deep: bool) -> Outcome:
        report, compressed = result
        layers = [
            (compressed[i].u_prime, compressed[i].v_prime, compressed[i].s_masked)
            for i in sorted(compressed)
        ]
        history = np.asarray(report.history, dtype=np.float64)
        summary = f"{report.budget} {report.used_cost} {report.final_loss!r}".encode()
        digest = _digest([summary, history.tobytes()] + [a.tobytes() for lay in layers for a in lay])
        return Outcome(
            exit_code=0,
            budget=int(report.budget),
            used_cost=int(report.used_cost),
            final_loss=float(report.final_loss),
            layers=layers,
            inputs=job.calib.inputs,
            targets=job.calib.targets,
            digest=digest,
            dense_params=int(job.model.dense_params),
            threshold_loss=_threshold_loss(job) if deep else None,
        )

    def discard(self, job) -> None:
        pass


class ToySeqAblate:
    """``lrsprune ablate-threshold`` on the default toy in sequential mode."""

    name = "toy-seq-ablate"
    shapes = [(32, 24), (24, 24), (24, 16)]
    fraction = 0.15
    # ablate-threshold emits losses and costs but no factors; on the first jobs
    # the learned selection is re-run through the API, must agree with the
    # table, and its factors go through the gate
    deep_jobs = 3

    def __init__(self, workdir: Path, seed: int):
        self.workdir = workdir
        self.seed = seed
        self.dense_params = sum(m * n for m, n in self.shapes)
        self.layer_budgets = sum(int(np.floor(self.fraction * m * n)) for m, n in self.shapes)
        self.global_budget = int(np.floor(self.fraction * self.dense_params))

    def prepare(self, stream: int, index: int, tag: str = ""):
        model_seed, pg_seed = job_seeds(self.seed, stream, index)
        config_path = self.workdir / f"cfg-{stream}-{index}{tag}.cfg"
        shapes = ",".join(f"{m}x{n}" for m, n in self.shapes)
        config_path.write_text(
            f"model.seed = {model_seed}\npg.seed = {pg_seed}\nmodel.shapes = {shapes}\n"
            f"budget.fraction = {self.fraction}\nmode = sequential\n"
        )
        out_dir = self.workdir / f"out-{stream}-{index}{tag}"
        return config_path, out_dir, model_seed, pg_seed

    def execute(self, inputs):
        config_path, out_dir, _, _ = inputs
        return cli.main(
            ["ablate-threshold", "--config", str(config_path), "--out", str(out_dir), "--quiet"]
        )

    def collect(self, inputs, rc, deep: bool) -> Outcome:
        config_path, out_dir, model_seed, pg_seed = inputs
        if rc != 0:
            return _failed(rc)
        rows = {}
        for line in (out_dir / "ablation.tsv").read_text().splitlines()[1:]:
            _, variant, loss, used = line.split("\t")
            rows[variant] = (float(loss), int(used))
        learned_loss, learned_used = rows.pop("learned")
        outcome = Outcome(
            exit_code=rc,
            budget=self.layer_budgets,
            used_cost=learned_used,
            final_loss=learned_loss,
            layers=None,
            inputs=None,
            targets=None,
            digest=_files_digest(out_dir),
            dense_params=self.dense_params,
            threshold_loss=rows["threshold"][0],
            extra_rows=[(name, used, self.global_budget, loss) for name, (loss, used) in rows.items()],
        )
        if deep:
            job = lrsprune.default_job(
                model_seed=model_seed, pg_seed=pg_seed, budget_fraction=self.fraction, mode="sequential"
            )
            report, compressed = lrsprune.run(job)
            if (repr(float(report.final_loss)), report.used_cost, report.budget) != (
                repr(learned_loss),
                learned_used,
                self.layer_budgets,
            ):
                raise RuntimeError(
                    f"ablation table learned row ({learned_loss!r}, {learned_used}) differs from "
                    f"the API run ({report.final_loss!r}, {report.used_cost}, budget {report.budget})"
                )
            outcome.layers = [
                (compressed[i].u_prime, compressed[i].v_prime, compressed[i].s_masked)
                for i in sorted(compressed)
            ]
            outcome.inputs, outcome.targets = job.calib.inputs, job.calib.targets
        return outcome

    def discard(self, inputs) -> None:
        inputs[0].unlink(missing_ok=True)
        shutil.rmtree(inputs[1], ignore_errors=True)


WORKLOADS = {w.name: w for w in (ToyGlobal, Stack256Global, ToySeqAblate)}


def _failed(rc: int) -> Outcome:
    return Outcome(
        exit_code=rc,
        budget=0,
        used_cost=0,
        final_loss=float("nan"),
        layers=None,
        inputs=None,
        targets=None,
        digest="",
        dense_params=0,
    )
