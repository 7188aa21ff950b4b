"""File formats, job configuration parsing, and the command line surface."""

import numpy as np
import pytest

from lrsprune import cli, pipeline
from lrsprune.calibration import ToyModel
from lrsprune.cli import format_report, main
from lrsprune.matio import (
    CONFIG_DEFAULTS,
    ConfigError,
    MatrixFormatError,
    format_matrix_text,
    parse_job_config,
    read_matrix,
    write_matrix,
)
from lrsprune.rpca import RpcaConfig


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


class TestJobConfig:
    def test_defaults(self):
        s = parse_job_config("")
        assert s.model_seed == 0
        assert s.shapes == [(32, 24), (24, 24), (24, 16)]
        assert s.calib_n == 128
        assert s.calib_noise == 0.0
        assert s.rpca.lam is None
        assert s.rpca.tol == 1e-7
        assert s.rpca.max_iters == 500
        assert s.pg.learning_rate == 0.05
        assert s.pg.baseline_beta == 0.9
        assert s.pg.iterations == 3
        assert s.pg.window == 5
        assert s.pg.seed == 0
        assert s.budget_fraction == 0.5
        assert s.mode == "global"

    def test_every_documented_key_parses(self):
        text = "\n".join(f"{k} = {v}" for k, v in CONFIG_DEFAULTS.items())
        assert parse_job_config(text) == parse_job_config("")

    def test_comments_and_blanks_ignored(self):
        s = parse_job_config("# heading\n\ncalib.n = 16  # trailing\n")
        assert s.calib_n == 16

    def test_unknown_key_rejected(self):
        with pytest.raises(ConfigError):
            parse_job_config("calib.m = 4")

    def test_malformed_lines_rejected(self):
        with pytest.raises(ConfigError):
            parse_job_config("calib.n 4")
        with pytest.raises(ConfigError):
            parse_job_config("calib.n =")

    def test_typed_validation(self):
        with pytest.raises(ConfigError):
            parse_job_config("calib.n = 0")
        with pytest.raises(ConfigError):
            parse_job_config("calib.noise = -1")
        with pytest.raises(ConfigError):
            parse_job_config("calib.noise = inf")
        with pytest.raises(ConfigError):
            parse_job_config("budget.fraction = 0")
        with pytest.raises(ConfigError):
            parse_job_config("budget.fraction = 1.2")
        with pytest.raises(ConfigError):
            parse_job_config("mode = parallel")
        with pytest.raises(ConfigError):
            parse_job_config("pg.beta = 1")
        with pytest.raises(ConfigError):
            parse_job_config("rpca.lambda = -0.1")
        with pytest.raises(ConfigError):
            parse_job_config("model.shapes = 8by6")
        with pytest.raises(ConfigError, match="^model.seed: "):
            parse_job_config("model.seed = -1")

    @pytest.mark.parametrize(
        "line, section",
        [
            ("rpca.tol = 2", "rpca"),
            ("rpca.max_iters = 0", "rpca"),
            ("pg.beta = 1", "pg"),
            ("pg.lr = 0", "pg"),
            ("pg.lr = inf", "pg"),
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

    def test_missing_file_exit_code(self, tmp_path):
        missing = tmp_path / "nope.capm"
        assert main(["decompose", str(missing), "--out", str(tmp_path / "o")]) == 5

    def test_non_convergence_exit_code(self, tmp_path, model_dir):
        cfg = tmp_path / "hard.cfg"
        cfg.write_text(TINY_CONFIG + "rpca.max_iters = 2\n")
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

    def test_unknown_config_key_exit_code(self, tmp_path, model_dir):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("rpca.mu = 3\n")
        src = model_dir / "layer0.weight.capm"
        assert main(["decompose", str(src), "--config", str(cfg), "--out", str(tmp_path / "o")]) == 2


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

    def test_failed_write_leaves_no_output(self, tmp_path, tiny_config, model_dir, monkeypatch):
        real, calls = cli.write_matrix, []

        def third_fails(path, w):
            calls.append(path)
            if len(calls) == 3:
                raise OSError("disk full")
            real(path, w)

        monkeypatch.setattr(cli, "write_matrix", third_fails)
        before = sorted(tmp_path.iterdir())
        out = tmp_path / "z"
        argv = ["compress", str(model_dir), "--config", str(tiny_config), "--out", str(out)]
        assert main(argv + ["--quiet"]) == 5
        assert len(calls) == 3
        assert not out.exists()
        assert sorted(tmp_path.iterdir()) == before

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

    def test_calibration_dim_mismatch_exit_code(self, tmp_path, tiny_config, model_dir, capsys):
        write_matrix(model_dir / "calib.inputs.capm", np.zeros((16, 5)))
        out = tmp_path / "o"
        argv = ["compress", str(model_dir), "--config", str(tiny_config), "--out", str(out)]
        assert main(argv + ["--quiet"]) == 2
        said = capsys.readouterr().err
        assert "inputs (16, 5)" in said and "targets (16, 6)" in said
        assert not out.exists()


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
        calls = {"decompose": 0, "forward_loss": 0, "factorize": 0}

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
        # one Stage 1 with its dense loss; the rows keep reports, not factors
        assert calls == {"decompose": 3, "forward_loss": 1, "factorize": 0}

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
    assert lines[0].startswith("layer\trows\tcols")
    assert any(line.startswith("final_loss\t") for line in lines)


@pytest.fixture(scope="module")
def quick_report():
    from lrsprune.pipeline import default_job, run

    report, _ = run(default_job(calib_n=8))
    return report
