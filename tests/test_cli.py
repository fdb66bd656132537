"""End-to-end CLI behavior: pipelines, exit codes, and idempotent output."""

import numpy as np
import pytest

import mgnet3d as mg
from mgnet3d.cli import main


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
            assert open(rec.volume_path, "rb").read() == open(twin, "rb").read()


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
        bad_cfg.write_text(open(small_cfg).read().replace(
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
