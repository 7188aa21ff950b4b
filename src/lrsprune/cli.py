"""Command line front end.

Subcommands:
    gen               write planted toy model weights and calibration data
    decompose         split one matrix file into low-rank and sparse parts
    compress          run the full two-stage pipeline over a model directory
    sweep-lambda      Stage 1 diagnostics and final loss per sparsity weight
    ablate-threshold  learned selection vs magnitude-threshold baselines
    export            dump a matrix file as full-precision decimal text

Exit codes: 0 success, 2 usage or configuration error, 3 malformed matrix
file, 4 solver non-convergence (ADMM or SVD), 5 filesystem error.
"""

from __future__ import annotations

import argparse
import os
import shutil
import sys
import tempfile
from dataclasses import replace
from pathlib import Path

import numpy as np

from .calibration import CalibrationSet, ToyModel, gen_calibration, planted_model
from .linalg import SvdError
from .matio import (
    ConfigError,
    JobConfig,
    MatrixFormatError,
    format_matrix_text,
    load_job_config,
    parse_job_config,
    read_matrix,
    write_matrix,
)
from .pipeline import CompressionJob, ablate_threshold, run, sweep_lambda
from .rpca import NonConvergenceError, decompose


def _fmt(x: float) -> str:
    return repr(float(x))


def format_report(report) -> str:
    """Stable tab-separated rendering: per-layer table, then a summary block."""
    lines = ["layer\trows\tcols\trank_l\tnnz_s\tsparsity_s\tretained_rank\tsparse_nnz\tcost"]
    for ls in report.layers:
        lines.append(
            f"{ls.layer_id}\t{ls.rows}\t{ls.cols}\t{ls.rank_l}\t{ls.nnz_s}\t"
            f"{_fmt(ls.sparsity_s)}\t{ls.retained_rank}\t{ls.sparse_nnz}\t{ls.cost}"
        )
    lines.append("")
    lines.append(f"mode\t{report.mode}")
    lines.append(f"budget\t{report.budget}")
    lines.append(f"used_cost\t{report.used_cost}")
    lines.append(f"dense_loss\t{_fmt(report.dense_loss)}")
    lines.append(f"rpca_loss\t{_fmt(report.rpca_loss)}")
    lines.append(f"final_loss\t{_fmt(report.final_loss)}")
    lines.append(f"budget_too_small\t{int(report.budget_too_small)}")
    lines.append("rank_distribution\t" + ",".join(str(r) for r in report.rank_distribution))
    lines.append("history\t" + ",".join(_fmt(h) for h in report.history))
    return "\n".join(lines) + "\n"


def _load_config(args) -> JobConfig:
    config = load_job_config(args.config) if args.config is not None else parse_job_config("")
    if getattr(args, "seed", None) is None:
        return config
    if args.seed < 0:
        raise ConfigError(f"--seed: must be non-negative, got {args.seed}")
    return replace(config, model_seed=args.seed, pg=replace(config.pg, seed=args.seed))


def _job(config: JobConfig, model: ToyModel, calib: CalibrationSet) -> CompressionJob:
    return CompressionJob(
        model=model,
        calib=calib,
        rpca_config=config.rpca,
        pg_config=config.pg,
        budget_fraction=config.budget_fraction,
        mode=config.mode,
    )


def _synthetic(config: JobConfig) -> tuple[ToyModel, CalibrationSet]:
    rng = np.random.default_rng(config.model_seed)
    model = planted_model(config.shapes, rng)
    return model, gen_calibration(model, config.calib_n, config.calib_noise, rng)


def _say(args, text: str) -> None:
    if not args.quiet:
        print(text)


def cmd_gen(args) -> int:
    model, calib = _synthetic(_load_config(args))
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    for i, w in enumerate(model.layers):
        path = out / f"layer{i}.weight.capm"
        write_matrix(path, w)
        _say(args, str(path))
    write_matrix(out / "calib.inputs.capm", calib.inputs)
    write_matrix(out / "calib.targets.capm", calib.targets)
    _say(args, str(out / "calib.inputs.capm"))
    _say(args, str(out / "calib.targets.capm"))
    return 0


def cmd_decompose(args) -> int:
    config = _load_config(args)
    w = read_matrix(args.matrix)
    result = decompose(w, config.rpca)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    stem = Path(args.matrix).stem
    write_matrix(out / f"{stem}.l.capm", result.l)
    write_matrix(out / f"{stem}.s.capm", result.s)
    diag = "".join(
        f"{k}\t{_fmt(r)}\n" for k, r in enumerate(result.residual_history, start=1)
    )
    (out / f"{stem}.diagnostics.txt").write_text(diag)
    _say(
        args,
        f"iterations={result.iterations} residual={_fmt(result.residual)} "
        f"rank_l={result.rank_l} sparsity_s={_fmt(result.sparsity_s)}",
    )
    return 0


def _read_model_dir(model_dir: Path) -> tuple[ToyModel, CalibrationSet]:
    weights = []
    i = 0
    while (model_dir / f"layer{i}.weight.capm").exists():
        weights.append(read_matrix(model_dir / f"layer{i}.weight.capm"))
        i += 1
    if not weights:
        raise FileNotFoundError(f"{model_dir / 'layer0.weight.capm'} not found")
    inputs = read_matrix(model_dir / "calib.inputs.capm")
    targets = read_matrix(model_dir / "calib.targets.capm")
    return ToyModel(layers=weights), CalibrationSet(inputs=inputs, targets=targets)


def cmd_compress(args) -> int:
    config = _load_config(args)
    model, calib = _read_model_dir(Path(args.model_dir))
    report, compressed = run(_job(config, model, calib))
    out = Path(args.out)
    out.parent.mkdir(parents=True, exist_ok=True)
    # every output is written into a sibling temporary directory first, so a
    # failure never leaves a partial output directory behind; the directory
    # is made by mkdir, inside the private holder, to get the usual mode
    holder = Path(tempfile.mkdtemp(prefix=f".{out.name}.", dir=out.parent))
    try:
        tmp = holder / "out"
        tmp.mkdir()
        for i in sorted(compressed):
            layer = compressed[i]
            write_matrix(tmp / f"layer{i}.uprime.capm", layer.u_prime)
            write_matrix(tmp / f"layer{i}.vprime.capm", layer.v_prime)
            write_matrix(tmp / f"layer{i}.smasked.capm", layer.s_masked)
        (tmp / "report.tsv").write_text(format_report(report))
        if out.exists():
            for path in sorted(tmp.iterdir()):
                os.replace(path, out / path.name)
        else:
            tmp.rename(out)
    finally:
        shutil.rmtree(holder, ignore_errors=True)
    _say(
        args,
        f"budget={report.budget} used={report.used_cost} "
        f"dense_loss={_fmt(report.dense_loss)} final_loss={_fmt(report.final_loss)}",
    )
    return 0


def _parse_lambdas(text: str) -> list[float | None]:
    out: list[float | None] = []
    for token in text.split(","):
        token = token.strip()
        if token == "auto":
            out.append(None)
        elif token:
            try:
                out.append(float(token))
            except ValueError as exc:
                raise ConfigError(f"bad lambda {token!r}") from exc
    if not out:
        raise ConfigError("need at least one lambda")
    return out


def _write_table(args, lines: list[str], name: str) -> None:
    table = "\n".join(lines) + "\n"
    if args.out is not None:
        out = Path(args.out)
        out.mkdir(parents=True, exist_ok=True)
        (out / name).write_text(table)
    _say(args, table.rstrip("\n"))


def cmd_sweep_lambda(args) -> int:
    config = _load_config(args)
    lambdas = _parse_lambdas(args.lambdas)
    rows = sweep_lambda(_job(config, *_synthetic(config)), lambdas)
    lines = ["lambda\trank_l\tsparsity_s\tfinal_loss\ttotal_nnz_s"]
    for row in rows:
        label = "auto" if row.lam is None else _fmt(row.lam)
        lines.append(
            f"{label}\t{_fmt(row.mean_rank_l)}\t{_fmt(row.mean_sparsity_s)}\t"
            f"{_fmt(row.final_loss)}\t{row.total_nnz_s}"
        )
    _write_table(args, lines, "sweep.tsv")
    return 0


def cmd_ablate_threshold(args) -> int:
    config = _load_config(args)
    lines = ["fraction\tvariant\tfinal_loss\tused_cost"]
    for variant, report in ablate_threshold(_job(config, *_synthetic(config))):
        lines.append(
            f"{_fmt(config.budget_fraction)}\t{variant}\t"
            f"{_fmt(report.final_loss)}\t{report.used_cost}"
        )
    _write_table(args, lines, "ablation.tsv")
    return 0


def cmd_export(args) -> int:
    print(format_matrix_text(read_matrix(args.matrix)), end="")
    return 0


def _common(sub, out_required: bool = False) -> None:
    sub.add_argument("--config", metavar="PATH", default=None, help="job configuration file")
    sub.add_argument("--seed", type=int, default=None, help="override model.seed and pg.seed")
    sub.add_argument(
        "--out", metavar="DIR", required=out_required, default=None, help="output directory"
    )
    sub.add_argument("--quiet", action="store_true", help="suppress normal output")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="lrsprune",
        description="low-rank plus sparse weight decomposition with budgeted mask learning",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen", help="write a planted toy model and calibration data")
    _common(p, out_required=True)
    p.set_defaults(func=cmd_gen)

    p = sub.add_parser("decompose", help="split a matrix file into low-rank plus sparse parts")
    p.add_argument("matrix", help="input matrix file")
    _common(p, out_required=True)
    p.set_defaults(func=cmd_decompose)

    p = sub.add_parser("compress", help="two-stage compression of a model directory")
    p.add_argument("model_dir", help="directory holding layer*.weight.capm and calib files")
    _common(p, out_required=True)
    p.set_defaults(func=cmd_compress)

    p = sub.add_parser("sweep-lambda", help="diagnostics per sparsity weight")
    p.add_argument("--lambdas", required=True, metavar="CSV", help="comma list, e.g. 0.01,auto,1")
    _common(p)
    p.set_defaults(func=cmd_sweep_lambda)

    p = sub.add_parser("ablate-threshold", help="learned vs magnitude-threshold selection")
    _common(p)
    p.set_defaults(func=cmd_ablate_threshold)

    p = sub.add_parser("export", help="print a matrix file as decimal text")
    p.add_argument("matrix", help="input matrix file")
    p.set_defaults(func=cmd_export)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 0 if exc.code in (0, None) else 2
    try:
        return args.func(args)
    except (ConfigError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except MatrixFormatError as exc:
        print(f"format error: {exc}", file=sys.stderr)
        return 3
    except (NonConvergenceError, SvdError) as exc:
        print(f"solver error: {exc}", file=sys.stderr)
        return 4
    except OSError as exc:
        print(f"io error: {exc}", file=sys.stderr)
        return 5
