"""End-to-end CLI behavior: pipelines, exit codes, and idempotent output."""

import re
import shlex
from pathlib import Path

import numpy as np
import pytest

import mgnet3d as mg
from mgnet3d import cli
from mgnet3d.cli import main

from helpers import count_worker_handoffs


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def deterministic(text):
    return "\n".join(l for l in text.splitlines() if not l.startswith("time="))


@pytest.fixture(scope="module")
def dataset(tmp_path_factory):
    out = tmp_path_factory.mktemp("clidata")
    mg.synth_generate(out, n_subjects_per_class=4, scans_per_subject=1,
                      size=10, effect_size=1.0, noise_std=0.1, seed=6)
    return out / "manifest.csv"


@pytest.fixture(scope="module")
def small_cfg(tmp_path_factory):
    path = tmp_path_factory.mktemp("cfg") / "small.cfg"
    path.write_text(
        "# reduced model for desk-scale runs\n"
        "num_grids=2\n"
        "smoothing_iters=1\n"
        "feature_channels=4\n"
        "data_channels=4\n"
        "learning_rate=0.02\n"
        "batch_size=2\n"
        "epochs=2\n"
        "log_every=0\n"
    )
    return str(path)


@pytest.fixture(scope="module")
def large_inputs(tmp_path_factory):
    # At c=16, the 20^3 grid's conv adjoints hand kernel gradients to the
    # adjoint worker thread.
    out = tmp_path_factory.mktemp("large")
    mg.synth_generate(out, n_subjects_per_class=4, scans_per_subject=1,
                      size=20, effect_size=1.0, noise_std=0.1, seed=6)
    cfg = out / "wide.cfg"
    cfg.write_text("num_grids=2\nsmoothing_iters=1\nfeature_channels=16\ndata_channels=16\n"
                   "learning_rate=0.02\nbatch_size=2\nepochs=1\nlog_every=0\n")
    return out / "manifest.csv", cfg


class TestSynth:
    def test_writes_dataset_and_reports(self, capsys, tmp_path):
        code, out, _ = run(
            capsys, "synth", "--out", str(tmp_path / "d"),
            "--subjects-per-class", "3", "--scans-per-subject", "2",
            "--size", "8", "--seed-data", "4",
        )
        assert code == 0
        assert "seed_data=4" in out
        assert "subjects=6 scans=12 geometry=1x8x8x8" in out
        manifest = mg.load_manifest(tmp_path / "d" / "manifest.csv")
        assert len(manifest.records) == 12

    def test_idempotent_given_seed(self, capsys, tmp_path):
        args = ["synth", "--subjects-per-class", "2", "--scans-per-subject", "1",
                "--size", "8", "--seed-data", "9"]
        code1, out1, _ = run(capsys, *args, "--out", str(tmp_path / "a"))
        code2, out2, _ = run(capsys, *args, "--out", str(tmp_path / "b"))
        assert code1 == code2 == 0
        a = (tmp_path / "a" / "manifest.csv").read_bytes()
        b = (tmp_path / "b" / "manifest.csv").read_bytes()
        assert a == b
        for rec in mg.load_manifest(tmp_path / "a" / "manifest.csv").records:
            twin = str(rec.volume_path).replace("/a/", "/b/")
            assert Path(rec.volume_path).read_bytes() == Path(twin).read_bytes()


class TestSplit:
    def test_writes_folds(self, capsys, dataset, tmp_path):
        code, out, _ = run(capsys, "split", "--manifest", str(dataset),
                           "--k", "2", "--seed-split", "3", "--out", str(tmp_path))
        assert code == 0
        assert "seed_split=3" in out
        loaded = mg.FoldAssignment.load(tmp_path / "folds.csv")
        assert loaded.k == 2
        reread = mg.FoldAssignment.load(tmp_path / "folds.csv")
        assert reread.folds == loaded.folds

    def test_k_too_large_is_usage_error(self, capsys, dataset, tmp_path):
        code, _, err = run(capsys, "split", "--manifest", str(dataset),
                           "--k", "40", "--seed-split", "0", "--out", str(tmp_path))
        assert code == 2
        assert "error:" in err


class TestTrainEval:
    @pytest.fixture(scope="class")
    def trained(self, tmp_path_factory, dataset, small_cfg):
        out = tmp_path_factory.mktemp("run")
        assert main(["split", "--manifest", str(dataset), "--k", "2",
                     "--seed-split", "3", "--out", str(out)]) == 0
        code = main([
            "train", "--manifest", str(dataset), "--folds", str(out / "folds.csv"),
            "--fold", "0", "--out", str(out), "--config", small_cfg,
            "--seed-model", "1", "--seed-train", "2",
        ])
        assert code == 0
        return out

    def test_train_artifacts(self, trained):
        assert (trained / "checkpoint.mgn3").exists()
        history = (trained / "history.log").read_text()
        assert history.startswith("epoch=0 loss=")
        assert "time=" not in history
        summary = (trained / "summary.txt").read_text()
        assert "final_loss=" in summary and "accuracy=" in summary
        assert not list(trained.glob(".*.tmp"))

    def test_train_deterministic_artifacts(self, trained, dataset, small_cfg, tmp_path):
        rerun = tmp_path / "rerun"
        code = main([
            "train", "--manifest", str(dataset), "--folds", str(trained / "folds.csv"),
            "--fold", "0", "--out", str(rerun), "--config", small_cfg,
            "--seed-model", "1", "--seed-train", "2",
        ])
        assert code == 0
        assert (rerun / "checkpoint.mgn3").read_bytes() == (trained / "checkpoint.mgn3").read_bytes()
        assert (rerun / "history.log").read_bytes() == (trained / "history.log").read_bytes()

    def test_eval_prints_metric_block(self, capsys, trained, dataset):
        code, out, _ = run(capsys, "eval", "--checkpoint", str(trained / "checkpoint.mgn3"),
                           "--manifest", str(dataset),
                           "--folds", str(trained / "folds.csv"), "--fold", "0")
        assert code == 0
        for key in ("accuracy=", "auc=", "sensitivity=", "specificity=",
                    "tp=", "tn=", "fp=", "fn="):
            assert key in out

    @pytest.mark.parametrize("lone", ["--fold", "--folds"])
    def test_eval_lone_fold_flag_exit_2(self, capsys, trained, dataset, lone):
        value = "0" if lone == "--fold" else str(trained / "folds.csv")
        code, out, err = run(capsys, "eval", "--checkpoint", str(trained / "checkpoint.mgn3"),
                             "--manifest", str(dataset), lone, value)
        assert code == 2
        assert out == ""
        assert "--folds" in err and "--fold" in err

    def test_eval_geometry_mismatch_exit_3(self, capsys, trained, tmp_path):
        # Spatial extents are free for a fully convolutional model, so the
        # real geometry conflict is a channel mismatch.
        other = tmp_path / "other"
        mg.synth_generate(other, 2, 1, 8, 1.0, 0.1, seed=0)
        rng = np.random.default_rng(0)
        for rec in mg.load_manifest(other / "manifest.csv").records:
            mg.save_volume(rec.volume_path, rng.normal(size=(2, 8, 8, 8)).astype(np.float32))
        code, _, err = run(capsys, "eval", "--checkpoint", str(trained / "checkpoint.mgn3"),
                           "--manifest", str(other / "manifest.csv"))
        assert code == 3
        assert "channel" in err

    def test_divergent_training_exit_4(self, dataset, trained, tmp_path, small_cfg):
        code = main([
            "train", "--manifest", str(dataset), "--folds", str(trained / "folds.csv"),
            "--fold", "0", "--out", str(tmp_path / "x"), "--config", small_cfg,
            "--seed-model", "1", "--seed-train", "2", "--epochs", "4",
            "--config", small_cfg,
        ])
        # sanity: baseline exits 0; now poison the learning rate via config
        assert code == 0
        bad_cfg = tmp_path / "bad.cfg"
        bad_cfg.write_text(Path(small_cfg).read_text().replace(
            "learning_rate=0.02", "learning_rate=1e12"))
        code = main([
            "train", "--manifest", str(dataset), "--folds", str(trained / "folds.csv"),
            "--fold", "0", "--out", str(tmp_path / "y"), "--config", str(bad_cfg),
            "--epochs", "4",
        ])
        assert code == 4


class TestParams:
    def test_tiny_config_prints_276(self, capsys, tmp_path):
        cfg = tmp_path / "tiny.cfg"
        cfg.write_text("num_grids=1\nsmoothing_iters=1\nfeature_channels=2\ndata_channels=2\n")
        code, out, _ = run(capsys, "params", "--config", str(cfg))
        assert code == 0
        assert "params_total=276" in out

    def test_default_config_reports_reduction(self, capsys):
        code, out, _ = run(capsys, "params")
        assert code == 0
        lines = dict(l.split("=", 1) for l in out.splitlines() if "=" in l)
        total = int(lines["params_total"])
        assert total < 8_288_290
        assert int(lines["reference_mgnet3d"]) == 6_202_754
        assert int(lines["reference_resnet3d"]) == 8_288_290
        assert int(lines["delta_vs_mgnet3d"]) == total - 6_202_754
        assert int(lines["delta_vs_resnet3d"]) == total - 8_288_290

    def test_same_config_twice_identical_output(self, capsys):
        _, out1, _ = run(capsys, "params")
        _, out2, _ = run(capsys, "params")
        assert out1 == out2


class TestCv:
    def test_cv_report(self, capsys, dataset, small_cfg, tmp_path):
        code, out, _ = run(capsys, "cv", "--manifest", str(dataset), "--k", "2",
                           "--config", small_cfg, "--out", str(tmp_path),
                           "--seed-model", "1", "--seed-train", "2", "--seed-split", "3")
        assert code == 0
        assert "fold=0" in out and "fold=1" in out
        assert "mean_accuracy=" in out and "std_auc=" in out
        report = (tmp_path / "cv_report.txt").read_text()
        assert "seed_model=1" in report
        assert "time=" not in report
        lines = report.splitlines()
        losses = [l.split("=", 1)[1] for l in lines if l.startswith("final_loss=")]
        assert len(losses) == 2
        assert all(np.isfinite(float(v)) for v in losses)
        for fold in range(2):
            assert lines[lines.index(f"fold={fold}") + 1].startswith("final_loss=")
        assert any(l.startswith("mean_final_loss=") for l in lines)
        assert any(l.startswith("std_final_loss=") for l in lines)
        assert "folds=2" in lines
        assert any(l.startswith("mean_accuracy=") for l in lines)

    def test_out_is_a_file_exits_3_before_training(self, capsys, dataset, small_cfg, tmp_path):
        blocker = tmp_path / "report"
        blocker.write_text("")
        code, out, err = run(capsys, "cv", "--manifest", str(dataset), "--k", "2",
                             "--config", small_cfg, "--out", str(blocker))
        assert code == 3
        assert "File exists" in err
        assert "fold=" not in out

    def test_workers_identical_report_on_large_maps(self, capsys, monkeypatch, large_inputs,
                                                    tmp_path):
        # With two fold threads, one fold's adjoint can find the adjoint
        # worker taken by the other's and run inline instead.
        manifest, cfg = large_inputs
        handoffs = count_worker_handoffs(monkeypatch)
        reports = []
        for workers in ("1", "2"):
            out = tmp_path / f"workers{workers}"
            code, _, err = run(capsys, "cv", "--manifest", str(manifest), "--k", "2",
                               "--config", str(cfg), "--out", str(out), "--workers", workers,
                               "--seed-model", "1", "--seed-train", "2", "--seed-split", "3")
            assert code == 0, err
            reports.append((out / "cv_report.txt").read_bytes())
        assert handoffs
        assert reports[0] == reports[1]


class TestErrors:
    def test_unknown_config_key_exit_2(self, capsys, tmp_path):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("numgrids=5\n")
        code, _, err = run(capsys, "params", "--config", str(cfg))
        assert code == 2
        assert "unknown config key" in err

    def test_missing_manifest_exit_2(self, capsys):
        code, _, err = run(capsys, "cv", "--k", "2")
        assert code == 2
        assert "manifest" in err

    def test_corrupt_checkpoint_exit_3(self, capsys, tmp_path, dataset):
        bad = tmp_path / "bad.mgn3"
        bad.write_bytes(b"MGNX" + b"\x00" * 16)
        code, _, err = run(capsys, "eval", "--checkpoint", str(bad),
                           "--manifest", str(dataset))
        assert code == 3

    def test_bad_flag_exit_2(self, dataset):
        with pytest.raises(SystemExit) as excinfo:
            main(["cv", "--manifest", str(dataset), "--bogus-flag"])
        assert excinfo.value.code == 2

    def test_non_utf8_config_exit_2(self, capsys, tmp_path):
        cfg = tmp_path / "latin1.cfg"
        cfg.write_bytes("# caf\xe9\nnum_grids=2\n".encode("latin-1"))
        code, _, err = run(capsys, "params", "--config", str(cfg))
        assert code == 2
        assert "not UTF-8" in err

    def test_refused_allocation_exit_3(self, capsys, tmp_path):
        # A 10^6 x 10^8 x 27 input kernel is within numpy's size range but
        # asks for petabytes, refused before any page is touched.
        cfg = tmp_path / "huge.cfg"
        cfg.write_text("feature_channels=1000000\ndata_channels=1000000\ninput_channels=100000000\n")
        code, out, err = run(capsys, "params", "--config", str(cfg))
        assert code == 3
        assert out == ""
        assert err.startswith("error: ") and err.count("\n") == 1

    @pytest.mark.parametrize("command", ["params", "cv"])
    @pytest.mark.parametrize(
        "lines,tensor",
        [
            (f"feature_channels={10**18}\ndata_channels={10**18}\n", "input_kernel"),
            (f"num_classes={10**22}\n", "head.weight"),
            (f"input_channels={10**21}\n", "input_kernel"),
        ],
    )
    def test_tensor_beyond_numpy_sizes_exit_2(self, capsys, tmp_path, dataset, command, lines, tensor):
        # numpy cannot size these tensors at all, so build would raise its
        # ValueError; the config is refused before any output.
        cfg = tmp_path / "huge.cfg"
        cfg.write_text(lines)
        argv = ["--config", str(cfg)]
        if command == "cv":
            argv += ["--manifest", str(dataset), "--k", "2", "--out", str(tmp_path / "cv")]
        code, out, err = run(capsys, command, *argv)
        assert code == 2
        assert out == ""
        assert err.startswith(f"error: {tensor} of shape") and err.count("\n") == 1
        assert not (tmp_path / "cv").exists()

    @pytest.mark.parametrize("grids", ["34", "10000000000000000000"])
    def test_more_grids_than_halvings_exit_2(self, capsys, tmp_path, grids):
        # Refused before smoothing_iters is expanded to one entry per grid.
        cfg = tmp_path / "grids.cfg"
        cfg.write_text(f"num_grids={grids}\n")
        code, out, err = run(capsys, "params", "--config", str(cfg))
        assert code == 2
        assert out == ""
        assert err == f"error: num_grids must be from 1 to 33, got {grids}\n"

    def test_more_smoothing_passes_than_max_exit_2(self, capsys, tmp_path):
        # Refused before build allocates one smoother kernel per pass.
        cfg = tmp_path / "passes.cfg"
        cfg.write_text("num_grids=2\nsmoothing_iters=2,65\nfeature_channels=2\ndata_channels=2\n")
        code, out, err = run(capsys, "params", "--config", str(cfg))
        assert code == 2
        assert out == ""
        assert err == "error: smoothing_iters must all be from 1 to 64, got (2, 65)\n"

    def test_synth_extent_beyond_u32_exit_2(self, capsys, tmp_path):
        out_dir = tmp_path / "out"
        code, out, err = run(capsys, "synth", "--out", str(out_dir), "--size", "4294967296")
        assert code == 2
        assert out == ""
        assert err.startswith("error: volume size") and err.count("\n") == 1
        assert not out_dir.exists()

    def test_synth_without_subjects_exit_2(self, capsys, tmp_path):
        out_dir = tmp_path / "out"
        code, out, err = run(capsys, "synth", "--out", str(out_dir), "--subjects-per-class", "0")
        assert code == 2
        assert out == ""
        assert err.startswith("error: n_subjects_per_class") and err.count("\n") == 1
        assert not out_dir.exists()

    def test_unreadable_config_exit_2(self, capsys, tmp_path):
        # A directory cannot be read as a file, whoever runs the test.
        code, out, err = run(capsys, "params", "--config", str(tmp_path))
        assert code == 2
        assert out == ""
        assert err == f"error: cannot read config file {tmp_path}: Is a directory\n"

    @pytest.mark.parametrize("error,expected", [
        (mg.ConfigError, 2),
        (mg.ArgumentError, 2),
        (mg.StateError, 2),
        (mg.ShapeError, 3),
        (mg.FormatError, 3),
        (mg.DataError, 3),
        (mg.DivergenceError, 4),
        (OSError, 3),
    ])  # fmt: skip
    def test_error_class_sets_exit_code(self, capsys, monkeypatch, error, expected):
        def failing_command(args):
            raise error("boom")

        monkeypatch.setattr(cli, "cmd_params", failing_command)
        code, out, err = run(capsys, "params")
        assert code == expected
        assert out == ""
        assert err == "error: boom\n"

    def test_non_utf8_manifest_exit_3(self, capsys, tmp_path, dataset):
        bad = tmp_path / "manifest.csv"
        bad.write_bytes(dataset.read_bytes().replace(b"\n", b"\xff\n", 2))
        code, out, err = run(capsys, "split", "--manifest", str(bad), "--k", "2", "--out", str(tmp_path))
        assert code == 3
        assert out == ""
        assert "manifest is not UTF-8" in err
        assert not (tmp_path / "folds.csv").exists()

    def test_non_utf8_folds_exit_3(self, capsys, tmp_path, dataset, small_cfg):
        assert main(["split", "--manifest", str(dataset), "--k", "2", "--out", str(tmp_path)]) == 0
        folds = tmp_path / "folds.csv"
        folds.write_bytes(folds.read_bytes().replace(b"\n", b"\xff\n", 2))
        capsys.readouterr()
        code, _, err = run(capsys, "train", "--manifest", str(dataset), "--folds", str(folds),
                           "--fold", "0", "--config", small_cfg, "--out", str(tmp_path / "run"))
        assert code == 3
        assert "folds file is not UTF-8" in err
        assert not (tmp_path / "run").exists()

    @pytest.mark.parametrize("argv", [
        ["split", "--k", "1"],
        ["train", "--fold", "7"],
        ["cv", "--k", "2", "--workers", "0"],
    ])
    def test_usage_error_exits_before_any_output(self, capsys, tmp_path, dataset, argv):
        assert main(["split", "--manifest", str(dataset), "--k", "2", "--out", str(tmp_path)]) == 0
        capsys.readouterr()
        out_dir = tmp_path / "out"
        argv = argv + ["--manifest", str(dataset), "--out", str(out_dir)]
        if argv[0] == "train":
            argv += ["--folds", str(tmp_path / "folds.csv")]
        try:
            code = main(argv)
        except SystemExit as exc:  # a flag value the parser refuses
            code = exc.code
        assert code == 2
        assert capsys.readouterr().out == ""
        assert not out_dir.exists()

    @pytest.mark.parametrize("argv", [
        ["synth", "--seed-data", "-1"],
        ["split", "--k", "2", "--seed-split", "-1"],
        ["train", "--seed-model", "-1"],
        ["cv", "--seed-train", "-1"],
    ])
    def test_negative_seed_flag_exit_2(self, capsys, tmp_path, argv):
        with pytest.raises(SystemExit) as excinfo:
            main(argv + ["--out", str(tmp_path / "out")])
        assert excinfo.value.code == 2
        assert "non_negative_int" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("key", ["seed_data", "seed_split", "seed_model", "seed_train"])
    def test_negative_seed_config_exit_2(self, capsys, tmp_path, key):
        cfg = tmp_path / "seed.cfg"
        cfg.write_text(f"{key}=-1\n")
        code, out, err = run(capsys, "synth", "--config", str(cfg), "--out", str(tmp_path / "out"))
        assert code == 2
        assert out == ""
        assert f"{cfg}:1: bad value '-1' for key {key!r}" in err

    @pytest.mark.parametrize("value", ["2,", ",2", "1,,2"])
    def test_empty_smoothing_iters_item_exit_2(self, capsys, tmp_path, value):
        cfg = tmp_path / "iters.cfg"
        cfg.write_text(f"num_grids=2\nsmoothing_iters={value}\n")
        code, out, err = run(capsys, "params", "--config", str(cfg))
        assert code == 2
        assert out == ""
        assert f"{cfg}:2: bad value {value!r} for key 'smoothing_iters'" in err

    def test_duplicate_config_key_exit_2(self, capsys, tmp_path):
        cfg = tmp_path / "dup.cfg"
        cfg.write_text("num_grids=1\nsmoothing_iters=1\nnum_grids=2\n")
        code, out, err = run(capsys, "params", "--config", str(cfg))
        assert code == 2
        assert out == ""
        assert f"{cfg}:3: duplicate key 'num_grids'" in err

    def test_volume_extents_overflowing_int64_exit_3(self, capsys, tmp_path):
        data = tmp_path / "data"
        mg.synth_generate(data, 2, 1, 4, 1.0, 0.1, seed=0)
        ckpt = tmp_path / "model.mgn3"
        mg.save_checkpoint(mg.build(mg.MgNetConfig(num_grids=1, feature_channels=2, data_channels=2)), ckpt)
        for record in mg.load_manifest(data / "manifest.csv").records:
            with open(record.volume_path, "wb") as fh:
                # One channel, as the model reads, and 2**63 voxels.
                fh.write(b"VOL3" + np.asarray([1, 1] + [2**21] * 3, dtype="<u4").tobytes())
        code, out, err = run(capsys, "eval", "--checkpoint", str(ckpt),
                             "--manifest", str(data / "manifest.csv"))
        assert code == 3
        assert out == ""
        assert "header declares 9223372036854775808" in err

    def test_non_finite_eval_logits_exit_4(self, capsys, tmp_path, dataset):
        # Blown-up weights overflow float32 inside the forward pass; pytest
        # turns any numpy RuntimeWarning into an error.
        params = mg.build(mg.MgNetConfig(num_grids=2, smoothing_iters=1, feature_channels=4, data_channels=4))
        for tensor in params.tensors():
            tensor.data *= 1e12
        ckpt = tmp_path / "blown.mgn3"
        mg.save_checkpoint(params, ckpt)
        code, out, err = run(capsys, "eval", "--checkpoint", str(ckpt), "--manifest", str(dataset))
        assert code == 4
        assert out == ""
        first = mg.load_manifest(dataset).records[0]
        assert f"non-finite logits [nan, nan] for scan {first.subject_id}/{first.scan_id}" in err

    @pytest.mark.parametrize("flag", ["--effect-size", "--noise-std"])
    @pytest.mark.parametrize("value", ["nan", "inf"])
    def test_non_finite_synth_parameter_exit_2(self, capsys, tmp_path, flag, value):
        out_dir = tmp_path / "out"
        code, _, err = run(capsys, "synth", "--out", str(out_dir), "--size", "4",
                           "--subjects-per-class", "1", "--scans-per-subject", "1", flag, value)
        assert code == 2
        assert "must be finite" in err
        assert not out_dir.exists()

    @pytest.mark.parametrize("flag,value", [("--noise-std", "1e300"), ("--effect-size", "1e39")])
    def test_synth_volume_beyond_float32_exit_2(self, capsys, tmp_path, flag, value):
        # Every later command would refuse the non-finite voxels; synth
        # refuses them first, without numpy's cast warning.
        out_dir = tmp_path / "out"
        code, out, err = run(capsys, "synth", "--out", str(out_dir), "--size", "8",
                             "--subjects-per-class", "2", "--scans-per-subject", "1", flag, value)
        assert code == 2
        assert out == ""
        assert "beyond float32's range" in err and err.count("\n") == 1
        assert not (out_dir / "manifest.csv").exists()

    @pytest.mark.parametrize("value", ["nan", "inf"])
    def test_non_finite_learning_rate_exit_2(self, capsys, tmp_path, dataset, value):
        cfg = tmp_path / "lr.cfg"
        cfg.write_text(f"learning_rate={value}\n")
        code, _, err = run(capsys, "cv", "--manifest", str(dataset), "--k", "2",
                           "--config", str(cfg))
        assert code == 2
        assert "learning_rate must be finite" in err

    @pytest.mark.parametrize("key", ["out", "manifest", "checkpoint", "folds"])
    @pytest.mark.parametrize("command", ["cv", "synth", "split", "eval", "train"])
    def test_nul_path_in_config_exit_2(self, capsys, tmp_path, command, key):
        cfg = tmp_path / "nul.cfg"
        cfg.write_text(f"{key}=a\0b\n")
        code, out, err = run(capsys, command, "--config", str(cfg))
        assert code == 2
        assert out == ""
        assert f"{cfg}:1: bad value 'a\\x00b' for key {key!r}" in err

    @pytest.mark.parametrize("argv", [
        ["params", "--config", "a\0b"],
        ["synth", "--out", "a\0b"],
        ["eval", "--checkpoint", "a\0b"],
    ])
    def test_nul_path_flag_exit_2(self, capsys, argv):
        with pytest.raises(SystemExit) as excinfo:
            main(argv)
        assert excinfo.value.code == 2
        assert "invalid path_text value" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["split", "cv"])
    def test_nul_volume_path_in_manifest_exit_3(self, capsys, tmp_path, dataset, command):
        bad = tmp_path / "manifest.csv"
        bad.write_bytes(dataset.read_bytes().replace(b".vol", b"\0.vol", 1))
        code, out, err = run(capsys, command, "--manifest", str(bad), "--k", "2",
                             "--out", str(tmp_path / "out"))
        assert code == 3
        assert out == ""
        assert "contains a NUL byte" in err
        assert not (tmp_path / "out").exists()


class TestMixedGeometry:
    """A manifest whose volumes differ in geometry is refused where it is read."""

    @pytest.fixture(scope="class")
    def inputs(self, tmp_path_factory):
        root = tmp_path_factory.mktemp("mixed")
        manifest = mg.synth_generate(root / "data", n_subjects_per_class=2, scans_per_subject=1,
                                     size=8, effect_size=1.0, noise_std=0.1, seed=0)
        assert main(["split", "--manifest", str(root / "data" / "manifest.csv"), "--k", "2",
                     "--out", str(root)]) == 0
        mg.save_checkpoint(mg.build(mg.MgNetConfig(num_grids=1, feature_channels=2, data_channels=2)),
                           root / "model.mgn3")
        last = manifest.records[-1].volume_path
        mg.save_volume(last, np.ones((1, 8, 8, 10), dtype=np.float32))
        return root, last

    @pytest.mark.parametrize("command", ["split", "train", "eval", "cv"])
    def test_exit_3_before_any_output(self, capsys, tmp_path, inputs, command):
        root, last = inputs
        capsys.readouterr()
        out_dir = tmp_path / "out"
        argv = {
            "split": ["--k", "2", "--out", str(out_dir)],
            "train": ["--folds", str(root / "folds.csv"), "--fold", "0", "--out", str(out_dir)],
            "eval": ["--checkpoint", str(root / "model.mgn3")],
            "cv": ["--k", "2", "--out", str(out_dir)],
        }[command]
        code, out, err = run(capsys, command, "--manifest", str(root / "data" / "manifest.csv"), *argv)
        assert code == 3
        assert out == ""
        assert f"volume {last} has geometry (1, 8, 8, 10)" in err
        assert not out_dir.exists()


class TestChannelMismatch:
    """Volumes with channels the model does not read are refused before any output."""

    @pytest.fixture(scope="class")
    def inputs(self, tmp_path_factory):
        root = tmp_path_factory.mktemp("channels")
        manifest = mg.synth_generate(root / "data", n_subjects_per_class=2, scans_per_subject=1,
                                     size=8, effect_size=1.0, noise_std=0.1, seed=0)
        rng = np.random.default_rng(0)
        for rec in manifest.records:
            mg.save_volume(rec.volume_path, rng.normal(size=(2, 8, 8, 8)).astype(np.float32))
        assert main(["split", "--manifest", str(root / "data" / "manifest.csv"), "--k", "2",
                     "--out", str(root)]) == 0
        mg.save_checkpoint(mg.build(mg.MgNetConfig(num_grids=1, feature_channels=2, data_channels=2)),
                           root / "model.mgn3")
        return root

    @pytest.mark.parametrize("command", ["train", "eval", "cv"])
    def test_exit_3_before_any_output(self, capsys, tmp_path, inputs, command):
        capsys.readouterr()
        out_dir = tmp_path / "out"
        argv = {
            "train": ["--folds", str(inputs / "folds.csv"), "--fold", "0", "--out", str(out_dir)],
            "eval": ["--checkpoint", str(inputs / "model.mgn3")],
            "cv": ["--k", "2", "--out", str(out_dir)],
        }[command]
        code, out, err = run(capsys, command, "--manifest", str(inputs / "data" / "manifest.csv"), *argv)
        assert code == 3
        assert out == ""
        assert "model expects 1 input channel(s), volumes have 2" in err
        assert not out_dir.exists()


class TestBinaryHead:
    """A head that is not binary is refused before any training."""

    @pytest.fixture
    def three_class_cfg(self, tmp_path, small_cfg):
        cfg = tmp_path / "three.cfg"
        cfg.write_text(Path(small_cfg).read_text() + "num_classes=3\n")
        return str(cfg)

    def test_cv_exit_2_before_any_fold(self, capsys, monkeypatch, dataset, three_class_cfg, tmp_path):
        steps = []
        monkeypatch.setattr(mg.training, "sgd_step", lambda *args: steps.append(args))
        code, out, err = run(capsys, "cv", "--manifest", str(dataset), "--k", "2",
                             "--config", three_class_cfg, "--out", str(tmp_path / "cv"))
        assert code == 2
        assert steps == []
        assert "binary head" in err
        assert "fold=" not in out
        assert not (tmp_path / "cv" / "cv_report.txt").exists()

    def test_train_exit_2_without_checkpoint(self, capsys, dataset, three_class_cfg, tmp_path):
        assert main(["split", "--manifest", str(dataset), "--k", "2", "--out", str(tmp_path)]) == 0
        capsys.readouterr()
        run_dir = tmp_path / "run"
        code, out, err = run(capsys, "train", "--manifest", str(dataset),
                             "--folds", str(tmp_path / "folds.csv"), "--fold", "0",
                             "--config", three_class_cfg, "--out", str(run_dir))
        assert code == 2
        assert "binary head" in err
        assert "epoch=" not in out and "fold=" not in out
        assert not (run_dir / "checkpoint.mgn3").exists()
        assert not (run_dir / "history.log").exists()


def test_readme_commands_parse():
    # Every `mgnet3d` line of the README's bash blocks (continuations
    # joined) parses, and each config file it names, relative to the
    # checkout, loads. The README tours every command.
    repo = Path(__file__).resolve().parents[1]
    commands = []
    for block in re.findall(r"```bash\n(.*?)```", (repo / "README.md").read_text(encoding="utf-8"), re.S):
        for line in block.replace("\\\n", " ").splitlines():
            argv = shlex.split(line, comments=True)
            if argv[:1] == ["mgnet3d"]:
                commands.append(argv[1:])
    parser = cli.build_parser()
    for argv in commands:
        try:
            args = parser.parse_args(argv)
        except SystemExit:
            pytest.fail(f"README command does not parse: mgnet3d {shlex.join(argv)}")
        if args.config:
            assert cli.parse_config_file(repo / args.config)
    assert {argv[0] for argv in commands} == {"synth", "split", "train", "eval", "params", "cv"}
