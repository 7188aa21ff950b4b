"""File formats, job configuration parsing, and the command line surface."""

import dataclasses
import struct
import typing
import warnings
from pathlib import Path

import numpy as np
import pytest

from lrsprune import cli, pipeline, rpca
from lrsprune.calibration import ToyModel
from lrsprune.cli import format_report, main
from lrsprune.matio import (
    KEYS,
    ConfigError,
    JobConfig,
    MatrixFormatError,
    format_matrix_text,
    parse_job_config,
    read_matrix,
    write_matrix,
)
from lrsprune.rpca import RpcaConfig
from references import default_toy_model


class TestMatrixContainer:
    def test_round_trip_bit_identical(self, tmp_path, rng):
        a = rng.standard_normal((5, 7))
        path = tmp_path / "a.capm"
        write_matrix(path, a)
        back = read_matrix(path)
        assert back.tobytes() == a.tobytes()
        assert back.dtype == np.float64

    def test_rewrite_is_byte_identical(self, tmp_path, rng):
        a = rng.standard_normal((4, 4))
        p1, p2 = tmp_path / "x1.capm", tmp_path / "x2.capm"
        write_matrix(p1, a)
        write_matrix(p2, a)
        assert p1.read_bytes() == p2.read_bytes()

    def test_header_size_and_payload_length(self, tmp_path):
        path = tmp_path / "m.capm"
        write_matrix(path, np.zeros((3, 2)))
        data = path.read_bytes()
        assert data[:4] == b"CAPM"
        assert len(data) == 24 + 3 * 2 * 8

    def test_bad_magic_rejected(self, tmp_path):
        path = tmp_path / "bad.capm"
        write_matrix(path, np.zeros((2, 2)))
        data = bytearray(path.read_bytes())
        data[:4] = b"NOPE"
        path.write_bytes(bytes(data))
        with pytest.raises(MatrixFormatError):
            read_matrix(path)

    def test_bad_version_rejected(self, tmp_path):
        path = tmp_path / "v2.capm"
        write_matrix(path, np.zeros((2, 2)))
        data = bytearray(path.read_bytes())
        data[4] = 2
        path.write_bytes(bytes(data))
        with pytest.raises(MatrixFormatError):
            read_matrix(path)

    def test_truncation_rejected(self, tmp_path):
        path = tmp_path / "short.capm"
        write_matrix(path, np.zeros((2, 2)))
        path.write_bytes(path.read_bytes()[:-8])
        with pytest.raises(MatrixFormatError):
            read_matrix(path)
        path.write_bytes(b"CA")
        with pytest.raises(MatrixFormatError):
            read_matrix(path)

    def test_non_finite_payload_rejected(self, tmp_path):
        path = tmp_path / "nan.capm"
        a = np.zeros((2, 2))
        write_matrix(path, a)
        data = bytearray(path.read_bytes())
        data[24:32] = np.array([np.nan]).tobytes()
        path.write_bytes(bytes(data))
        with pytest.raises(MatrixFormatError):
            read_matrix(path)

    def test_text_export_full_precision(self, rng):
        a = rng.standard_normal((2, 3))
        text = format_matrix_text(a)
        lines = text.strip().splitlines()
        assert lines[0] == "# 2 x 3"
        parsed = np.array([[float(x) for x in line.split("\t")] for line in lines[1:]])
        assert parsed.tobytes() == a.tobytes()


def readme_config_block() -> str:
    """The README's fenced block of documented config keys."""
    fenced = (Path(__file__).resolve().parents[1] / "README.md").read_text().split("```")[1::2]
    return next(block for block in fenced if block.lstrip().startswith("model.seed = "))


def flat_fields(config: JobConfig) -> dict:
    """Every setting of a config, keyed by (section, field) as in ``KEYS``."""
    flat = {("job", name): value for name, value in vars(config).items()}
    for section in ("rpca", "pg"):
        solver = flat.pop(("job", section))
        flat.update({(section, name): value for name, value in vars(solver).items()})
    return flat


# one valid non-default value per config key: the line, and the field it sets
KEY_CASES = [
    ("model.seed = 4", "job", "model_seed", 4),
    ("model.shapes = 8x6", "job", "shapes", [(8, 6)]),
    ("calib.n = 16", "job", "calib_n", 16),
    ("rpca.lambda = 0.2", "rpca", "lam", 0.2),
    ("rpca.tol = 1e-5", "rpca", "tol", 1e-5),
    ("pg.iterations = 2", "pg", "iterations", 2),
    ("pg.seed = 3", "pg", "seed", 3),
    ("budget.fraction = 0.15", "job", "budget_fraction", 0.15),
    ("mode = sequential", "job", "mode", "sequential"),
]


# the learner's hyperparameters, the calibration noise and the ADMM iteration cap
# are constants, not keys
REMOVED_KEY_LINES = [
    "pg.lr = 0.05",
    "pg.lr = 0",
    "pg.lr = inf",
    "pg.beta = 0.9",
    "pg.beta = 1",
    "pg.window = 5",
    "calib.noise = 0",
    "calib.noise = -1",
    "calib.noise = inf",
    "rpca.max_iters = 500",
    "rpca.max_iters = 50",
    "rpca.max_iters = 0",
]


class TestJobConfig:
    def test_defaults(self):
        s = parse_job_config("")
        assert s.model_seed == 0
        assert s.shapes == [(32, 24), (24, 24), (24, 16)]
        assert s.calib_n == 128
        assert s.rpca.lam is None
        assert s.rpca.tol == 1e-7
        assert s.pg.iterations == 3
        assert s.pg.seed == 0
        assert s.budget_fraction == 0.5
        assert s.mode == "global"

    def test_every_documented_key_parses(self):
        # the README's config block names every key once, each at its default
        text = readme_config_block()
        keys = [line.partition("=")[0].strip() for line in text.strip().splitlines()]
        assert sorted(keys) == sorted(KEYS)
        assert parse_job_config(text) == JobConfig()

    @pytest.mark.parametrize("line, section, name, expected", KEY_CASES)
    def test_each_key_sets_its_field_only(self, line, section, name, expected):
        got, stock = flat_fields(parse_job_config(line)), flat_fields(JobConfig())
        assert {field for field in stock if got[field] != stock[field]} == {(section, name)}
        assert got[section, name] == expected

    def test_every_key_has_a_case(self):
        assert sorted(case[0].partition(" =")[0] for case in KEY_CASES) == sorted(KEYS)

    def test_repeated_key_rejected(self):
        with pytest.raises(ConfigError, match="^line 3: duplicate key 'budget.fraction'$"):
            parse_job_config("budget.fraction = 0.15\nmode = global\nbudget.fraction = 0.5\n")

    def test_comments_and_blanks_ignored(self):
        s = parse_job_config("# heading\n\ncalib.n = 16  # trailing\n")
        assert s.calib_n == 16

    def test_unknown_key_rejected(self):
        for line in ["calib.m = 4", *REMOVED_KEY_LINES]:
            with pytest.raises(ConfigError, match="^line 1: unknown key "):
                parse_job_config(line)

    def test_malformed_lines_rejected(self):
        with pytest.raises(ConfigError):
            parse_job_config("calib.n 4")
        with pytest.raises(ConfigError):
            parse_job_config("calib.n =")

    def test_typed_validation(self):
        with pytest.raises(ConfigError):
            parse_job_config("calib.n = 0")
        with pytest.raises(ConfigError):
            parse_job_config("budget.fraction = 0")
        with pytest.raises(ConfigError):
            parse_job_config("budget.fraction = 1.2")
        with pytest.raises(ConfigError):
            parse_job_config("mode = parallel")
        with pytest.raises(ConfigError):
            parse_job_config("rpca.lambda = -0.1")
        with pytest.raises(ConfigError, match="^model.shapes: bad shape '8by6', expected ROWSxCOLS$"):
            parse_job_config("model.shapes = 8by6")
        with pytest.raises(ConfigError, match="^model.seed: "):
            parse_job_config("model.seed = -1")
        with pytest.raises(ConfigError, match="^model.shapes: bad shape '8xa': invalid literal"):
            parse_job_config("model.shapes = 8xa")
        with pytest.raises(ConfigError, match="^calib.n: cannot parse 'abc'$"):
            parse_job_config("calib.n = abc")

    @pytest.mark.parametrize(
        "line, section",
        [
            ("rpca.tol = 2", "rpca"),
            ("rpca.lambda = inf", "rpca"),
            ("pg.seed = -1", "pg"),
        ],
    )
    def test_solver_ranges_checked_by_their_configs(self, line, section):
        with pytest.raises(ConfigError, match=f"^{section}: "):
            parse_job_config(line)

    def test_lambda_auto_and_numeric(self):
        assert parse_job_config("rpca.lambda = auto").rpca.lam is None
        assert parse_job_config("rpca.lambda = 0.2").rpca.lam == 0.2


TINY_CONFIG = "model.shapes = 12x8,8x6\ncalib.n = 16\n"


@pytest.fixture
def tiny_config(tmp_path):
    path = tmp_path / "job.cfg"
    path.write_text(TINY_CONFIG)
    return path


@pytest.fixture
def model_dir(tmp_path, tiny_config):
    out = tmp_path / "model"
    assert main(["gen", "--config", str(tiny_config), "--out", str(out), "--quiet"]) == 0
    return out


class TestGen:
    def test_writes_expected_files(self, model_dir):
        assert read_matrix(model_dir / "layer0.weight.capm").shape == (12, 8)
        assert read_matrix(model_dir / "layer1.weight.capm").shape == (8, 6)
        assert read_matrix(model_dir / "calib.inputs.capm").shape == (16, 12)
        assert read_matrix(model_dir / "calib.targets.capm").shape == (16, 6)

    def test_rerun_byte_identical(self, tmp_path, tiny_config, model_dir):
        again = tmp_path / "model2"
        assert main(["gen", "--config", str(tiny_config), "--out", str(again), "--quiet"]) == 0
        for name in (
            "layer0.weight.capm",
            "layer1.weight.capm",
            "calib.inputs.capm",
            "calib.targets.capm",
        ):
            assert (model_dir / name).read_bytes() == (again / name).read_bytes()

    def test_seed_override_changes_data(self, tmp_path, tiny_config, model_dir):
        other = tmp_path / "model5"
        code = main(
            ["gen", "--config", str(tiny_config), "--seed", "5", "--out", str(other), "--quiet"]
        )
        assert code == 0
        assert (other / "layer0.weight.capm").read_bytes() != (
            model_dir / "layer0.weight.capm"
        ).read_bytes()

    def test_out_of_range_config_exit_code(self, tmp_path, capsys):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text(TINY_CONFIG + "rpca.tol = 2\n")
        out = tmp_path / "model"
        assert main(["gen", "--config", str(cfg), "--out", str(out), "--quiet"]) == 2
        assert "rpca: tol must lie in (0, 1)" in capsys.readouterr().err
        assert not out.exists()
        cfg.write_text("model.shapes = 8x0\n")
        assert main(["gen", "--config", str(cfg), "--out", str(out), "--quiet"]) == 2
        assert "model.shapes: dimensions must be positive, got '8x0'" in capsys.readouterr().err
        assert not out.exists()

    def test_unallocatable_job_exit_code(self, tmp_path, monkeypatch, capsys):
        def too_large(*args, **kwargs):
            raise MemoryError("Unable to allocate 745. GiB")

        monkeypatch.setattr(pipeline, "planted_model", too_large)
        out = tmp_path / "model"
        assert main(["gen", "--out", str(out), "--quiet"]) == 2
        assert capsys.readouterr().err == "error: Unable to allocate 745. GiB\n"
        assert not out.exists()

    @pytest.mark.parametrize(
        "line, flags, named",
        [
            ("pg.seed = -1", [], "pg: seed"),
            ("model.seed = -1", [], "model.seed"),
            ("", ["--seed", "-2"], "--seed"),
        ],
    )
    def test_negative_seed_named_before_stage1(
        self, tmp_path, monkeypatch, capsys, line, flags, named
    ):
        monkeypatch.setattr(pipeline, "decompose", None)  # any Stage 1 call would fail
        cfg = tmp_path / "seed.cfg"
        cfg.write_text(TINY_CONFIG + line + "\n")
        assert main(["ablate-threshold", "--config", str(cfg), "--quiet"] + flags) == 2
        assert f"error: {named}" in capsys.readouterr().err


class TestDecompose:
    def test_splits_and_reports(self, tmp_path, model_dir, capsys):
        out = tmp_path / "parts"
        src = model_dir / "layer0.weight.capm"
        assert main(["decompose", str(src), "--out", str(out)]) == 0
        w = read_matrix(src)
        l = read_matrix(out / "layer0.weight.l.capm")
        s = read_matrix(out / "layer0.weight.s.capm")
        cfg = RpcaConfig()
        assert np.linalg.norm(w - l - s) <= cfg.tol * np.linalg.norm(w) * (1 + 1e-12)
        diag = (out / "layer0.weight.diagnostics.txt").read_text().strip().splitlines()
        said = capsys.readouterr().out
        assert f"iterations={len(diag)}" in said

    def test_corrupt_magic_exit_code(self, tmp_path, model_dir):
        src = model_dir / "layer0.weight.capm"
        bad = tmp_path / "bad.capm"
        data = bytearray(src.read_bytes())
        data[:4] = b"XXXX"
        bad.write_bytes(bytes(data))
        assert main(["decompose", str(bad), "--out", str(tmp_path / "o")]) == 3

    @pytest.mark.parametrize("command", ["export", "decompose"])
    def test_unshapeable_header_exit_code(self, tmp_path, capsys, command):
        # an empty payload matches each header; 2**40 x 0 shapes, but exporting it takes minutes
        bad = tmp_path / "huge.capm"
        out = tmp_path / "o"
        flags = ["--out", str(out)] if command == "decompose" else []
        for rows in (2**62, 2**40, 2**20 + 1):
            bad.write_bytes(b"CAPM" + struct.pack("<IQQ", 1, rows, 0))
            assert main([command, str(bad)] + flags) == 3
            said = capsys.readouterr()
            assert said.err.startswith(f"format error: {bad}: empty {rows}x0 has a dimension above")
            assert said.out == ""
            assert not out.exists()
        bad.write_bytes(b"CAPM" + struct.pack("<IQQ", 1, 0, 2**20))
        assert read_matrix(bad).shape == (0, 2**20)

    def test_missing_file_exit_code(self, tmp_path):
        missing = tmp_path / "nope.capm"
        assert main(["decompose", str(missing), "--out", str(tmp_path / "o")]) == 5

    def test_non_convergence_exit_code(self, tmp_path, model_dir, monkeypatch):
        cfg = tmp_path / "hard.cfg"
        cfg.write_text(TINY_CONFIG)
        monkeypatch.setattr(rpca, "MAX_ITERS", 2)
        src = model_dir / "layer0.weight.capm"
        assert main(["decompose", str(src), "--config", str(cfg), "--out", str(tmp_path / "o")]) == 4

    def test_svd_failure_exit_code(self, tmp_path, model_dir, monkeypatch, capsys):
        def fail(*args, **kwargs):
            raise np.linalg.LinAlgError("SVD did not converge")

        monkeypatch.setattr(np.linalg, "svd", fail)
        src = model_dir / "layer0.weight.capm"
        assert main(["decompose", str(src), "--out", str(tmp_path / "o")]) == 4
        said = capsys.readouterr().err
        assert said.startswith("solver error: ") and "did not converge" in said
        assert "Traceback" not in said

    def test_overflowing_split_exit_code(self, tmp_path, capsys):
        w = default_toy_model(np.random.default_rng(0)).layers[1]
        src = tmp_path / "huge.capm"
        write_matrix(src, w * (1e308 / np.abs(w).max()))
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert main(["decompose", str(src), "--out", str(tmp_path / "o")]) == 2
        assert not [c for c in caught if issubclass(c.category, RuntimeWarning)]
        assert "max|W| = 1e+308" in capsys.readouterr().err

    def test_seed_is_not_an_option(self, tmp_path, model_dir, capsys):
        src = model_dir / "layer0.weight.capm"
        assert main(["decompose", str(src), "--seed", "1", "--out", str(tmp_path / "o")]) == 2
        assert "--seed" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    def test_two_layers_into_one_directory_keep_both_splits(self, tmp_path, model_dir):
        out = tmp_path / "parts"
        for i in range(2):
            src = model_dir / f"layer{i}.weight.capm"
            assert main(["decompose", str(src), "--out", str(out), "--quiet"]) == 0
        parts = ("l.capm", "s.capm", "diagnostics.txt")
        assert sorted(p.name for p in out.iterdir()) == sorted(
            f"layer{i}.weight.{part}" for i in range(2) for part in parts
        )

    def test_unknown_config_key_exit_code(self, tmp_path, model_dir, capsys):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("rpca.mu = 3\n")
        src = model_dir / "layer0.weight.capm"
        assert main(["decompose", str(src), "--config", str(cfg), "--out", str(tmp_path / "o")]) == 2
        out = tmp_path / "z"
        for line in REMOVED_KEY_LINES:
            cfg.write_text(line + "\n")
            argv = ["compress", str(model_dir), "--config", str(cfg), "--out", str(out), "--quiet"]
            assert main(argv) == 2
            assert "line 1: unknown key" in capsys.readouterr().err
            assert not out.exists()

    def test_iteration_cap_is_no_config_key(self, tmp_path, model_dir, capsys):
        cfg, out = tmp_path / "cap.cfg", tmp_path / "capped"
        cfg.write_text("rpca.max_iters = 500\n")
        argv = ["compress", str(model_dir), "--config", str(cfg), "--out", str(out)]
        assert main(argv) == 2
        assert "line 1: unknown key 'rpca.max_iters'" in capsys.readouterr().err
        assert not out.exists()

    def test_repeated_config_key_exit_code(self, tmp_path, model_dir, capsys):
        cfg = tmp_path / "twice.cfg"
        cfg.write_text("budget.fraction = 0.15\nbudget.fraction = 0.5\n")
        out = tmp_path / "z"
        argv = ["compress", str(model_dir), "--config", str(cfg), "--out", str(out), "--quiet"]
        assert main(argv) == 2
        assert "line 2: duplicate key 'budget.fraction'" in capsys.readouterr().err
        assert not out.exists()


class TestCompress:
    def test_outputs_and_recount(self, tmp_path, tiny_config, model_dir):
        out = tmp_path / "z"
        code = main(
            ["compress", str(model_dir), "--config", str(tiny_config), "--out", str(out), "--quiet"]
        )
        assert code == 0
        report = (out / "report.tsv").read_text().splitlines()
        summary = dict(
            line.split("\t", 1) for line in report if line and not line[0].isdigit() and "\t" in line
        )
        recount = 0
        for i in range(2):
            u = read_matrix(out / f"layer{i}.uprime.capm")
            v = read_matrix(out / f"layer{i}.vprime.capm")
            s = read_matrix(out / f"layer{i}.smasked.capm")
            recount += u.size + v.size + int(np.count_nonzero(s))
        assert recount == int(summary["used_cost"])
        assert int(summary["used_cost"]) <= int(summary["budget"])

    def test_rerun_byte_identical(self, tmp_path, tiny_config, model_dir):
        out1, out2 = tmp_path / "c1", tmp_path / "c2"
        for out in (out1, out2):
            code = main(
                [
                    "compress",
                    str(model_dir),
                    "--config",
                    str(tiny_config),
                    "--out",
                    str(out),
                    "--quiet",
                ]
            )
            assert code == 0
        assert (out1 / "report.tsv").read_bytes() == (out2 / "report.tsv").read_bytes()
        for name in ("layer0.uprime.capm", "layer1.vprime.capm", "layer0.smasked.capm"):
            assert (out1 / name).read_bytes() == (out2 / name).read_bytes()

    def test_existing_output_files_replaced(self, tmp_path, tiny_config, model_dir):
        out = tmp_path / "z"
        out.mkdir()
        (out / "report.tsv").write_text("stale\n")
        (out / "keep.txt").write_text("unrelated\n")
        argv = ["compress", str(model_dir), "--config", str(tiny_config), "--out", str(out)]
        assert main(argv + ["--quiet"]) == 0
        assert (out / "report.tsv").read_text().startswith("layer\t")
        assert (out / "keep.txt").read_text() == "unrelated\n"
        assert read_matrix(out / "layer1.smasked.capm").shape == (8, 6)
        assert sorted(p.name for p in tmp_path.iterdir()) == sorted(["job.cfg", "model", "z"])

    def test_overflowing_loss_exit_code(self, tmp_path, capsys):
        # the default toy with every layer scaled by 1e66: finite targets,
        # but every task loss overflows to inf
        job = pipeline.default_job()
        model = ToyModel(layers=[w * 1e66 for w in job.model.layers])
        model_dir = tmp_path / "model"
        model_dir.mkdir()
        for i, w in enumerate(model.layers):
            write_matrix(model_dir / f"layer{i}.weight.capm", w)
        write_matrix(model_dir / "calib.inputs.capm", job.calib.inputs)
        write_matrix(model_dir / "calib.targets.capm", model.forward(job.calib.inputs))
        out = tmp_path / "o"
        assert main(["compress", str(model_dir), "--out", str(out), "--quiet"]) == 2
        assert "task loss must be finite" in capsys.readouterr().err
        assert not out.exists()

    def test_missing_model_dir_exit_code(self, tmp_path):
        assert main(["compress", str(tmp_path / "void"), "--out", str(tmp_path / "o")]) == 5

    def test_gap_in_layer_numbers_exit_code(self, tmp_path, capsys):
        # a three-layer model without its middle layer is not a one-layer model
        cfg = tmp_path / "gap.cfg"
        cfg.write_text("model.shapes = 12x8,8x8,8x8\n")
        model, out = tmp_path / "model", tmp_path / "o"
        assert main(["gen", "--config", str(cfg), "--out", str(model), "--quiet"]) == 0
        (model / "layer1.weight.capm").unlink()
        assert main(["compress", str(model), "--config", str(cfg), "--out", str(out)]) == 5
        assert "layer1.weight.capm" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize(
        "stray",
        ["layer01.weight.capm", "layer\u0661.weight.capm"],
        ids=["leading_zero", "non_ascii_digit"],
    )
    def test_non_canonical_layer_name_is_no_layer(self, tmp_path, tiny_config, model_dir, stray):
        # the file neither counts as a layer nor changes the outputs
        argv = ["--config", str(tiny_config), "--quiet"]
        out, stray_out = tmp_path / "o", tmp_path / "o_stray"
        assert main(["compress", str(model_dir), "--out", str(out), *argv]) == 0
        (model_dir / stray).write_bytes((model_dir / "layer1.weight.capm").read_bytes())
        assert main(["compress", str(model_dir), "--out", str(stray_out), *argv]) == 0
        written = {p.name: p.read_bytes() for p in out.iterdir()}
        assert {p.name: p.read_bytes() for p in stray_out.iterdir()} == written

    def test_gen_keeps_non_canonical_layer_names(self, tmp_path, tiny_config):
        model = tmp_path / "model"
        model.mkdir()
        (model / "layer00.weight.capm").write_bytes(b"not written by gen")
        assert main(["gen", "--config", str(tiny_config), "--out", str(model), "--quiet"]) == 0
        assert (model / "layer00.weight.capm").read_bytes() == b"not written by gen"
        assert (model / "layer0.weight.capm").exists()

    def test_empty_calibration_exit_code(self, tmp_path, tiny_config, model_dir, capsys):
        write_matrix(model_dir / "calib.inputs.capm", np.zeros((0, 12)))
        write_matrix(model_dir / "calib.targets.capm", np.zeros((0, 6)))
        out = tmp_path / "o"
        argv = ["compress", str(model_dir), "--config", str(tiny_config), "--out", str(out)]
        assert main(argv + ["--quiet"]) == 2
        assert "at least one record" in capsys.readouterr().err
        assert not out.exists()

    def test_calibration_dim_mismatch_exit_code(self, tmp_path, tiny_config, model_dir, capsys):
        write_matrix(model_dir / "calib.inputs.capm", np.zeros((16, 5)))
        out = tmp_path / "o"
        argv = ["compress", str(model_dir), "--config", str(tiny_config), "--out", str(out)]
        assert main(argv + ["--quiet"]) == 2
        said = capsys.readouterr().err
        assert "inputs (16, 5)" in said and "targets (16, 6)" in said
        assert not out.exists()


SHRINKING = ("12x8,8x6,6x6,6x6", "12x8,8x6,6x6")  # a model of four layers, then of three
THREE_LAYER_MODEL = [
    "calib.inputs.capm",
    "calib.targets.capm",
    "layer0.weight.capm",
    "layer1.weight.capm",
    "layer2.weight.capm",
]


def _shapes_config(tmp_path: Path, shapes: str) -> Path:
    cfg = tmp_path / "job.cfg"
    cfg.write_text(f"model.shapes = {shapes}\ncalib.n = 16\n")
    return cfg


def _tree(root: Path) -> dict:
    """Every path under root, with the bytes of each file."""
    return {p: p.read_bytes() if p.is_file() else None for p in sorted(root.rglob("*"))}


def _report_layers(out: Path) -> list[str]:
    table = (out / "report.tsv").read_text().split("\n\n")[0]
    return [line.split("\t")[0] for line in table.splitlines()[1:]]


# every subcommand that writes --out: its arguments before --config, and the
# write that test_failed_write_leaves_no_output makes fail
OUT_COMMANDS = {
    "gen": (["gen"], 3),
    "decompose": (["decompose", "{model}/layer0.weight.capm"], 3),
    "compress": (["compress", "{model}"], 3),
    "sweep-lambda": (["sweep-lambda", "--lambdas", "0.01,auto"], 1),
    "ablate-threshold": (["ablate-threshold"], 1),
}


class TestOutputsAllOrNothing:
    @pytest.mark.parametrize("existing", [False, True], ids=["new_out", "existing_out"])
    @pytest.mark.parametrize(
        "command, failing",
        list(OUT_COMMANDS.values()),
        ids=list(OUT_COMMANDS),
    )
    def test_failed_write_leaves_no_output(
        self, tmp_path, tiny_config, model_dir, monkeypatch, command, failing, existing
    ):
        out = tmp_path / "z"
        if existing:
            out.mkdir()
            (out / "keep.txt").write_text("unrelated\n")
        calls = []

        def fails_part_way(real):
            def write(path, data, *rest):
                calls.append(path)
                if len(calls) == failing:
                    Path(path).write_bytes(b"partial")
                    raise OSError("disk full")
                return real(path, data, *rest)

            return write

        monkeypatch.setattr(cli, "write_matrix", fails_part_way(cli.write_matrix))
        monkeypatch.setattr(Path, "write_text", fails_part_way(Path.write_text))
        before = _tree(tmp_path)
        argv = [arg.format(model=model_dir) for arg in command]
        argv += ["--config", str(tiny_config), "--out", str(out), "--quiet"]
        assert main(argv) == 5
        assert len(calls) == failing
        assert _tree(tmp_path) == before

    @pytest.mark.parametrize(
        "command", [args for args, _ in OUT_COMMANDS.values()], ids=list(OUT_COMMANDS)
    )
    def test_missing_config_exit_code(self, tmp_path, model_dir, capsys, command):
        missing, out = tmp_path / "nope.cfg", tmp_path / "z"
        before = _tree(tmp_path)
        argv = [arg.format(model=model_dir) for arg in command]
        assert main(argv + ["--config", str(missing), "--out", str(out)]) == 5
        said = capsys.readouterr().err
        assert said.startswith("io error: ") and str(missing) in said
        assert _tree(tmp_path) == before

    def test_gen_with_fewer_layers_removes_stale_weights(self, tmp_path, capsys):
        model = tmp_path / "model"
        for shapes in SHRINKING:
            cfg = _shapes_config(tmp_path, shapes)
            assert main(["gen", "--config", str(cfg), "--out", str(model), "--quiet"]) == 0
        assert sorted(p.name for p in model.iterdir()) == THREE_LAYER_MODEL
        out = tmp_path / "z"
        assert main(["compress", str(model), "--config", str(cfg), "--out", str(out)]) == 0
        assert " dense_loss=0.0 " in capsys.readouterr().out
        assert _report_layers(out) == ["0", "1", "2"]

    def test_compress_with_fewer_layers_removes_stale_factors(self, tmp_path):
        out = tmp_path / "z"
        for shapes in SHRINKING:
            cfg = _shapes_config(tmp_path, shapes)
            model = tmp_path / f"model{shapes.count(',') + 1}"
            assert main(["gen", "--config", str(cfg), "--out", str(model), "--quiet"]) == 0
            argv = ["compress", str(model), "--config", str(cfg), "--out", str(out), "--quiet"]
            assert main(argv) == 0
        assert sorted(p.name for p in out.iterdir()) == sorted(
            [f"layer{i}.{kind}.capm" for i in range(3) for kind in ("uprime", "vprime", "smasked")]
            + ["report.tsv"]
        )
        assert _report_layers(out) == ["0", "1", "2"]

    def test_each_command_removes_only_its_own_files(self, tmp_path):
        # gen and compress share one directory: each removes only the stale
        # layers of its own kind, and compress keeps the model it read
        model = tmp_path / "model"

        def model_files():
            kept = [*model.glob("layer*.weight.capm"), *model.glob("calib.*.capm")]
            return {p.name: p.read_bytes() for p in kept}

        for shapes in SHRINKING:
            cfg = _shapes_config(tmp_path, shapes)
            assert main(["gen", "--config", str(cfg), "--out", str(model), "--quiet"]) == 0
            written = model_files()
            argv = ["compress", str(model), "--config", str(cfg), "--out", str(model), "--quiet"]
            assert main(argv) == 0
            assert model_files() == written
        assert sorted(written) == THREE_LAYER_MODEL
        assert not list(model.glob("layer3.*"))
        assert _report_layers(model) == ["0", "1", "2"]


class TestSweepLambdaCommand:
    def test_table_shape_and_auto_label(self, tmp_path, tiny_config, capsys):
        out = tmp_path / "sweep"
        code = main(
            [
                "sweep-lambda",
                "--lambdas",
                "0.05,auto,1",
                "--config",
                str(tiny_config),
                "--out",
                str(out),
            ]
        )
        assert code == 0
        table = (out / "sweep.tsv").read_text().splitlines()
        assert table[0] == "lambda\trank_l\tsparsity_s\tfinal_loss\ttotal_nnz_s"
        assert len(table) == 4
        assert table[2].startswith("auto\t")
        assert capsys.readouterr().out.strip().splitlines()[0] == table[0]

    @pytest.mark.parametrize(
        "lambdas, labels", [(",auto", ["auto"]), ("0.1,,auto", ["0.1", "auto"])]
    )
    def test_empty_token_next_to_auto(self, tmp_path, tiny_config, lambdas, labels):
        out = tmp_path / "sweep"
        argv = ["sweep-lambda", "--lambdas", lambdas, "--config", str(tiny_config)]
        assert main(argv + ["--out", str(out), "--quiet"]) == 0
        table = (out / "sweep.tsv").read_text().splitlines()
        assert [line.split("\t")[0] for line in table[1:]] == labels

    def test_empty_and_bad_lambda_lists(self, tiny_config):
        assert main(["sweep-lambda", "--lambdas", "", "--config", str(tiny_config)]) == 2
        assert main(["sweep-lambda", "--lambdas", "abc", "--config", str(tiny_config)]) == 2
        assert main(["sweep-lambda", "--lambdas", "-0.5", "--config", str(tiny_config)]) == 2


class TestAblateThresholdCommand:
    def test_four_variant_rows(self, tmp_path, tiny_config):
        out = tmp_path / "ab"
        code = main(
            ["ablate-threshold", "--config", str(tiny_config), "--out", str(out), "--quiet"]
        )
        assert code == 0
        table = (out / "ablation.tsv").read_text().splitlines()
        assert table[0] == "fraction\tvariant\tfinal_loss\tused_cost"
        variants = [line.split("\t")[1] for line in table[1:]]
        assert variants == ["learned", "threshold", "low_rank_only", "sparse_only"]

    def test_stage1_once_per_layer(self, tmp_path, monkeypatch):
        calls = {"decompose": 0, "build_pool": 0, "forward_loss": 0, "factorize": 0}

        def counting(name):
            real = getattr(pipeline, name)

            def wrapped(*args, **kwargs):
                calls[name] += 1
                return real(*args, **kwargs)

            return wrapped

        for name in calls:
            monkeypatch.setattr(pipeline, name, counting(name))
        cfg = tmp_path / "toy.cfg"
        cfg.write_text("budget.fraction = 0.15\nmode = sequential\n")
        argv = ["ablate-threshold", "--config", str(cfg), "--quiet"]
        assert main(argv) == 0
        # one Stage 1 with its dense loss, whose pools the family rows cut;
        # the rows keep reports, not factors
        assert calls == {"decompose": 3, "build_pool": 3, "forward_loss": 1, "factorize": 0}

    def test_full_budget_learned_equals_threshold(self, tmp_path):
        cfg = tmp_path / "full.cfg"
        cfg.write_text(TINY_CONFIG + "budget.fraction = 1.0\n")
        out = tmp_path / "ab1"
        assert main(["ablate-threshold", "--config", str(cfg), "--out", str(out), "--quiet"]) == 0
        rows = {
            line.split("\t")[1]: float(line.split("\t")[2])
            for line in (out / "ablation.tsv").read_text().splitlines()[1:]
        }
        assert rows["learned"] == rows["threshold"]
        # excluding a component family keeps its loss at or above the combined rows
        assert rows["low_rank_only"] >= rows["threshold"]
        assert rows["sparse_only"] >= rows["threshold"]


class TestExportCommand:
    def test_round_trips_through_text(self, model_dir, capsys):
        src = model_dir / "layer1.weight.capm"
        assert main(["export", str(src)]) == 0
        text = capsys.readouterr().out
        lines = text.strip().splitlines()
        parsed = np.array([[float(x) for x in line.split("\t")] for line in lines[1:]])
        assert parsed.tobytes() == read_matrix(src).tobytes()


class TestUsageErrors:
    def test_no_arguments(self):
        assert main([]) == 2

    def test_unknown_subcommand(self):
        assert main(["frobnicate"]) == 2

    def test_missing_required_flag(self):
        assert main(["gen"]) == 2

    def test_help_exits_clean(self):
        assert main(["--help"]) == 0


def test_format_report_is_stable_text(quick_report):
    text = format_report(quick_report)
    assert text == format_report(quick_report)
    lines = text.splitlines()
    assert lines[0] == "layer\trows\tcols\trank_l\tnnz_s\tsparsity_s\tretained_rank\tsparse_nnz\tcost"
    assert any(line.startswith("final_loss\t") for line in lines)


def test_format_report_header_is_layer_summary_fields(quick_report):
    header = format_report(quick_report).splitlines()[0]
    assert header.split("\t") == [f.name for f in dataclasses.fields(pipeline.LayerSummary)]


@pytest.mark.parametrize(
    "mode, fraction, too_small",
    [("global", 0.5, False), ("sequential", 0.5, False), ("sequential", 0.001, True)],
)
def test_format_report_parses_back_to_the_report(mode, fraction, too_small):
    report, _ = pipeline.run(pipeline.default_job(calib_n=8, mode=mode, budget_fraction=fraction))
    assert report.budget_too_small is too_small
    lines = format_report(report).splitlines()
    n = len(report.layers)
    # each cell parses by its field's type: int, or float for sparsity_s
    column_type = typing.get_type_hints(pipeline.LayerSummary)
    names = lines[0].split("\t")
    for line, ls in zip(lines[1 : 1 + n], report.layers, strict=True):
        cells = zip(names, line.split("\t"), strict=True)
        assert tuple(column_type[name](c) for name, c in cells) == dataclasses.astuple(ls)
    assert lines[1 + n] == ""
    summary = dict(line.split("\t") for line in lines[2 + n :])
    assert list(summary) == [*cli.SUMMARY, "rank_distribution", "history"]
    assert summary["mode"] == report.mode
    for name in ("budget", "used_cost"):
        assert int(summary[name]) == getattr(report, name)
    for name in ("dense_loss", "rpca_loss", "final_loss"):
        assert float(summary[name]) == getattr(report, name)
    assert summary["budget_too_small"] == ("1" if too_small else "0")
    ranks = [ls.retained_rank for ls in report.layers]
    assert [int(r) for r in summary["rank_distribution"].split(",")] == ranks
    assert [float(h) for h in filter(None, summary["history"].split(","))] == report.history


@pytest.mark.parametrize(
    "value, text",
    [
        (1 / 3, "0.3333333333333333"),
        (2.0, "2.0"),
        (np.float64(1e-300), "1e-300"),
        (np.float32(0.5), "0.5"),
        (True, "1"),
        (False, "0"),
        (np.bool_(True), "1"),
        (np.bool_(False), "0"),
        (7, "7"),
        (np.int64(-3), "-3"),
        ("sequential", "sequential"),
    ],
)
def test_fmt_is_the_one_cell_rule(value, text):
    assert cli._fmt(value) == text


@pytest.fixture(scope="module")
def quick_report():
    from lrsprune.pipeline import default_job, run

    report, _ = run(default_job(calib_n=8))
    return report
