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
import functools
import os
import re
import shutil
import sys
import tempfile
from dataclasses import replace
from pathlib import Path

import numpy as np

from .calibration import CalibrationSet, ToyModel
from .matio import (
    KEYS,
    ConfigError,
    JobConfig,
    MatrixFormatError,
    format_matrix_text,
    load_job_config,
    read_matrix,
    write_matrix,
)
from .pipeline import ablate_threshold, job_from_config, run, sweep_lambda
from .rpca import NonConvergenceError, SvdError, decompose


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
    lines.append("rank_distribution\t" + ",".join(str(ls.retained_rank) for ls in report.layers))
    lines.append("history\t" + ",".join(_fmt(h) for h in report.history))
    return "\n".join(lines) + "\n"


def _load_config(args) -> JobConfig:
    config = load_job_config(args.config) if args.config is not None else JobConfig()
    if getattr(args, "seed", None) is None:
        return config
    if args.seed < 0:
        raise ConfigError(f"--seed: must be non-negative, got {args.seed}")
    return replace(config, model_seed=args.seed, pg=replace(config.pg, seed=args.seed))


def _say(args, text: str) -> None:
    if not args.quiet:
        print(text)


# a model directory holds layer<k>.weight.capm for k = 0, 1, ..., written without
# leading zeros, and the calibration pair; compress writes three factor files per layer
LAYER = r"layer(?:0|[1-9][0-9]*)"
WEIGHT = ".weight.capm"
INPUTS, TARGETS = "calib.inputs.capm", "calib.targets.capm"
FACTORS = (".uprime.capm", ".vprime.capm", ".smasked.capm")


def _publish(out: Path, files: dict, family: tuple[str, ...] = ()) -> None:
    """Write ``files`` (name to matrix or text) into ``out``, all or nothing.

    They are first written into a directory made by mkdir (for the usual mode)
    inside a private sibling of ``out``, which is then renamed to ``out``. If
    ``out`` exists, they move into it one by one; of its other files, only the
    ``layer<k><suffix>`` ones with a suffix in ``family`` are removed.
    """
    out.parent.mkdir(parents=True, exist_ok=True)
    tmp = Path(tempfile.mkdtemp(prefix=f".{out.name}.", dir=out.parent)) / "out"
    try:
        tmp.mkdir()
        for name, data in files.items():
            if isinstance(data, str):
                (tmp / name).write_text(data)
            else:
                write_matrix(tmp / name, data)
        if not out.exists():
            tmp.rename(out)
            return
        for name in files:
            os.replace(tmp / name, out / name)
        for path in sorted(out.iterdir()):
            match = re.fullmatch(LAYER + r"(\..+)", path.name)
            if match and match[1] in family and path.name not in files:
                path.unlink()
    finally:
        shutil.rmtree(tmp.parent, ignore_errors=True)


def cmd_gen(args) -> int:
    job = job_from_config(_load_config(args))
    files = {f"layer{i}{WEIGHT}": w for i, w in enumerate(job.model.layers)}
    files |= {INPUTS: job.calib.inputs, TARGETS: job.calib.targets}
    _publish(Path(args.out), files, (WEIGHT,))
    for name in files:
        _say(args, str(Path(args.out) / name))
    return 0


def cmd_decompose(args) -> int:
    config = _load_config(args)
    result = decompose(read_matrix(args.matrix), config.rpca)
    stem = Path(args.matrix).stem
    diag = "".join(
        f"{k}\t{_fmt(r)}\n" for k, r in enumerate(result.residual_history, start=1)
    )
    files = {f"{stem}.l.capm": result.l, f"{stem}.s.capm": result.s}
    _publish(Path(args.out), files | {f"{stem}.diagnostics.txt": diag})
    _say(
        args,
        f"iterations={result.iterations} residual={_fmt(result.residual)} "
        f"rank_l={result.rank_l} sparsity_s={_fmt(result.sparsity_s)}",
    )
    return 0


def _read_model_dir(model_dir: Path) -> tuple[ToyModel, CalibrationSet]:
    """The n ``layer<k>`` weights, numbered 0..n-1, and the calibration pair. Reading raises
    FileNotFoundError at the first number missing, ``layer0`` where there is no weight."""
    weight_file = re.compile(LAYER + re.escape(WEIGHT))
    n = sum(bool(weight_file.fullmatch(p.name)) for p in model_dir.glob(f"layer*{WEIGHT}"))
    weights = [read_matrix(model_dir / f"layer{k}{WEIGHT}") for k in range(max(n, 1))]
    inputs = read_matrix(model_dir / INPUTS)
    targets = read_matrix(model_dir / TARGETS)
    return ToyModel(layers=weights), CalibrationSet(inputs=inputs, targets=targets)


def cmd_compress(args) -> int:
    config = _load_config(args)
    model, calib = _read_model_dir(Path(args.model_dir))
    report, compressed = run(job_from_config(config, model, calib))
    files = {}
    for i, layer in sorted(compressed.items()):
        factors = (layer.u_prime, layer.v_prime, layer.s_masked)
        files |= {f"layer{i}{suffix}": m for suffix, m in zip(FACTORS, factors)}
    files["report.tsv"] = format_report(report)
    _publish(Path(args.out), files, FACTORS)
    _say(
        args,
        f"budget={report.budget} used={report.used_cost} "
        f"dense_loss={_fmt(report.dense_loss)} final_loss={_fmt(report.final_loss)}",
    )
    return 0


def _parse_lambdas(text: str) -> list[float | None]:
    """Each non-empty comma-separated value, read as the ``rpca.lambda`` key is."""
    parse, out = KEYS["rpca.lambda"][2], []
    for token in filter(None, (t.strip() for t in text.split(","))):
        try:
            out.append(parse(token))
        except ValueError as exc:
            raise ConfigError(f"bad lambda {token!r}") from exc
    if not out:
        raise ConfigError("need at least one lambda")
    return out


def _write_table(args, lines: list[str], name: str) -> None:
    table = "\n".join(lines) + "\n"
    if args.out is not None:
        _publish(Path(args.out), {name: table})
    _say(args, table.rstrip("\n"))


def cmd_sweep_lambda(args) -> int:
    config, lambdas = _load_config(args), _parse_lambdas(args.lambdas)
    lines = ["lambda\trank_l\tsparsity_s\tfinal_loss\ttotal_nnz_s"]
    for lam, report in sweep_lambda(job_from_config(config), lambdas):
        label, layers = "auto" if lam is None else _fmt(lam), report.layers
        lines.append(
            f"{label}\t{_fmt(np.mean([ls.rank_l for ls in layers]))}\t"
            f"{_fmt(np.mean([ls.sparsity_s for ls in layers]))}\t{_fmt(report.final_loss)}\t"
            f"{sum(ls.nnz_s for ls in layers)}"
        )
    _write_table(args, lines, "sweep.tsv")
    return 0


def cmd_ablate_threshold(args) -> int:
    config = _load_config(args)
    lines = ["fraction\tvariant\tfinal_loss\tused_cost"]
    for variant, report in ablate_threshold(job_from_config(config)):
        lines.append(
            f"{_fmt(config.budget_fraction)}\t{variant}\t"
            f"{_fmt(report.final_loss)}\t{report.used_cost}"
        )
    _write_table(args, lines, "ablation.tsv")
    return 0


def cmd_export(args) -> int:
    print(format_matrix_text(read_matrix(args.matrix)), end="")
    return 0


def _common(sub, out_required: bool = False, seed: bool = True) -> None:
    sub.add_argument("--config", metavar="PATH", default=None, help="job configuration file")
    if seed:
        sub.add_argument("--seed", type=int, default=None, help="override model.seed and pg.seed")
    sub.add_argument(
        "--out", metavar="DIR", required=out_required, default=None, help="output directory"
    )
    sub.add_argument("--quiet", action="store_true", help="suppress normal output")


@functools.cache  # parsing reads the parser and never changes it
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
    _common(p, out_required=True, seed=False)
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
    except (ConfigError, ValueError, MemoryError) as exc:
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
