"""Acceptance gate: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -s`` to see the lines as they
appear; without ``-s`` pytest captures them per test.
"""

import time
from contextlib import contextmanager
from pathlib import Path

import numpy as np
import pytest

import mgnet3d as mg
from mgnet3d import MgNetConfig, Tensor, TrainConfig
from mgnet3d.cli import main

from helpers import (
    auc_pairs_reference,
    check_gradients,
    f64_tensor,
    max_rel_err,
    numerical_gradient,
    params_to_f64,
)


@contextmanager
def criterion(number: int, name: str):
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE {number} {name}: FAIL")
        raise
    print(f"ACCEPTANCE {number} {name}: PASS")


@pytest.fixture(scope="module")
def separable_dataset(tmp_path_factory):
    """20 subjects per class, 2 scans each, 16^3, strong spherical effect."""
    out = tmp_path_factory.mktemp("accept_data")
    return mg.synth_generate(out, n_subjects_per_class=20, scans_per_subject=2,
                             size=16, effect_size=1.0, noise_std=0.1, seed=7)


@pytest.fixture(scope="module")
def quick_dataset(tmp_path_factory):
    """Small dataset for the determinism and round-trip criteria."""
    out = tmp_path_factory.mktemp("accept_quick")
    return mg.synth_generate(out, n_subjects_per_class=4, scans_per_subject=1,
                             size=10, effect_size=1.0, noise_std=0.1, seed=6)


REDUCED_MODEL = dict(num_grids=3, smoothing_iters=2, feature_channels=16,
                     data_channels=16, input_channels=1, num_classes=2)


def test_criterion_1_gradient_suite(rng):
    """Every differentiable op plus the end-to-end tiny model matches
    float64 central differences (step 1e-3) below 1e-3 relative error."""
    t0 = time.perf_counter()
    with criterion(1, "gradient suite"):
        # per-op checks on random small tensors
        x = f64_tensor(rng, (2, 4, 5, 4))
        for stride, ksize, padding in ((1, 3, 1), (2, 1, 0)):
            k = f64_tensor(rng, (3, 2, ksize, ksize, ksize), scale=0.5)
            w = rng.normal(
                size=(3,)
                + tuple((n + 2 * padding - ksize) // stride + 1 for n in (4, 5, 4))
            )
            check_gradients(lambda: mg.weighted_sum(mg.conv3d(x, k, stride), w), [x, k])

        r = Tensor(rng.normal(size=(2, 3, 3, 3)) + 0.2 * np.sign(rng.normal(size=(2, 3, 3, 3))),
                   requires_grad=True, dtype=np.float64)
        wr = rng.normal(size=r.shape)
        check_gradients(lambda: mg.weighted_sum(mg.relu(r), wr), [r])

        a, b = f64_tensor(rng, (3, 4)), f64_tensor(rng, (3, 4))
        wab = rng.normal(size=(3, 4))
        check_gradients(lambda: mg.weighted_sum(mg.add(a, b), wab), [a, b])
        check_gradients(lambda: mg.weighted_sum(mg.sub(a, b), wab), [a, b])

        p = f64_tensor(rng, (2, 3, 4, 3))
        wp = rng.normal(size=p.shape)
        check_gradients(lambda: mg.weighted_sum(mg.avg_pool3d(p), wp), [p])

        g = f64_tensor(rng, (3, 4, 4, 4))
        wg = rng.normal(size=(3,))
        check_gradients(lambda: mg.weighted_sum(mg.global_avg_pool(g), wg), [g])

        xv, wl, bl = f64_tensor(rng, (4,)), f64_tensor(rng, (3, 4)), f64_tensor(rng, (3,))
        wv = rng.normal(size=(3,))
        check_gradients(lambda: mg.weighted_sum(mg.linear(xv, wl, bl), wv), [xv, wl, bl])

        logits = f64_tensor(rng, (3,))
        check_gradients(lambda: mg.softmax_cross_entropy(logits, 1), [logits])

        cn = f64_tensor(rng, (2, 3, 3, 3))
        wc = rng.normal(size=cn.shape)
        check_gradients(lambda: mg.weighted_sum(mg.channel_norm(cn), wc), [cn])

        sv = f64_tensor(rng, (5,))
        ws = rng.normal(size=(5,))
        check_gradients(lambda: mg.weighted_sum(mg.scale(sv, 1.7), ws), [sv])
        check_gradients(lambda: mg.reduce_sum(sv), [sv])

        # end-to-end tiny model: J=2, one smoothing pass, 2 channels, 5^3
        cfg = MgNetConfig(num_grids=2, smoothing_iters=1, feature_channels=2,
                          data_channels=2, seed=1)
        params = params_to_f64(mg.build(cfg))
        for t in (params.by_name[name] for name in ("input_kernel", "level1.smoother1",
                                                     "level2.smoother1", "level1.prolongation")):
            t.data = np.abs(t.data) + 0.05
        volume = Tensor(np.abs(np.random.default_rng(1001).normal(size=(1, 5, 5, 5))) + 0.5,
                        dtype=np.float64)
        tensors = list(params.tensors())
        check_gradients(
            lambda: mg.softmax_cross_entropy(mg.forward(params, volume), 1), tensors
        )
        elapsed = time.perf_counter() - t0
        assert elapsed < 60.0, f"gradient suite took {elapsed:.1f}s"


def test_criterion_2_shape_chain():
    """J=5 on a [1,91,109,91] volume halves every extent per level and ends
    in two logits; the structural check itself stays under a second."""
    with criterion(2, "shape chain"):
        expected = [(91, 109, 91), (46, 55, 46), (23, 28, 23), (12, 14, 12), (6, 7, 6)]
        t0 = time.perf_counter()
        chain = mg.level_shapes(MgNetConfig(), (91, 109, 91))
        structural_elapsed = time.perf_counter() - t0
        assert chain == expected
        assert structural_elapsed < 1.0
        # Confirm a real forward pass realizes the same chain: the grids of
        # its recorded maps, in the order they first appear. Channel counts
        # are free here; one channel keeps the full-geometry pass cheap
        # while exercising every level.
        cfg = MgNetConfig(num_grids=5, smoothing_iters=2, feature_channels=1,
                          data_channels=1, seed=0)
        params = mg.build(cfg)
        volume = Tensor(np.random.default_rng(0).normal(size=(1, 91, 109, 91)).astype(np.float32))
        with mg.record() as tape:
            logits = mg.forward(params, volume)
        assert list(dict.fromkeys(op.out.shape[1:] for op in tape.ops if op.out.ndim == 4)) == expected
        assert logits.shape == (2,)


def test_criterion_3_parameter_reduction(capsys):
    """Default configuration counts strictly fewer parameters than the 3D
    residual-network reference, and the CLI prints both deltas."""
    with criterion(3, "parameter reduction"):
        assert main(["params"]) == 0
        out = capsys.readouterr().out
        lines = dict(l.split("=", 1) for l in out.splitlines() if "=" in l)
        total = int(lines["params_total"])
        assert total < 8_288_290
        assert total == mg.param_count(mg.build(MgNetConfig()))
        assert int(lines["delta_vs_mgnet3d"]) == total - 6_202_754
        assert int(lines["delta_vs_resnet3d"]) == total - 8_288_290


def test_criterion_4_synthetic_learning(separable_dataset):
    """Reduced model (J=3, c=16), 2-fold CV on the separable dataset:
    mean accuracy >= 0.95 and mean AUC >= 0.98 within 30 epochs."""
    with criterion(4, "synthetic learning"):
        t0 = time.perf_counter()
        cfg = MgNetConfig(seed=0, **REDUCED_MODEL)
        tc = TrainConfig(learning_rate=0.1, batch_size=2, epochs=30, seed=0, log_every=0)
        assert tc.epochs <= 30
        assignment = mg.stratified_group_kfold(separable_dataset, 2, 11)
        result = mg.cross_validate(cfg, separable_dataset, assignment, tc)
        elapsed = time.perf_counter() - t0
        print(f"time={elapsed:.1f} criterion=4 "
              + " ".join(f"{k}={v:.4f}" for k, v in result.summary.items()))
        assert result.summary["mean_accuracy"] >= 0.95
        assert result.summary["mean_auc"] >= 0.98
        assert elapsed < 900.0


def test_criterion_5_ablation_harness(separable_dataset, tmp_path, capsys):
    """The same synthetic CV run executes with and without average pooling,
    both producing complete reports with finite training loss."""
    with criterion(5, "ablation harness"):
        manifest_path = Path(separable_dataset.records[0].volume_path).parent / "manifest.csv"
        cfg_path = tmp_path / "reduced.cfg"
        cfg_path.write_text(
            "num_grids=3\nsmoothing_iters=2\nfeature_channels=16\ndata_channels=16\n"
            "learning_rate=0.1\nbatch_size=2\nepochs=4\nlog_every=0\n"
        )
        reports = {}
        for arm, extra in (("pooled", []), ("no_pool", ["--no-avg-pool"])):
            out_dir = tmp_path / arm
            code = main(["cv", "--manifest", str(manifest_path), "--k", "2",
                         "--config", str(cfg_path), "--out", str(out_dir),
                         "--seed-model", "0", "--seed-train", "0", "--seed-split", "11",
                         *extra])
            captured = capsys.readouterr()
            assert code == 0, captured.err
            reports[arm] = (out_dir / "cv_report.txt").read_text()
        for arm, report in reports.items():
            for key in ("fold=0", "fold=1", "accuracy=", "auc=", "sensitivity=",
                        "specificity=", "tp=", "tn=", "fp=", "fn=",
                        "mean_accuracy=", "std_specificity="):
                assert key in report, (arm, key)
        assert reports["pooled"] != reports["no_pool"]


def test_criterion_6_leakage_and_stratification():
    """100 random seeds, randomized manifests: no subject in two folds,
    per-class fold sizes within one subject of each other."""
    with criterion(6, "leakage and stratification"):
        for seed in range(100):
            seeder = np.random.default_rng(seed)
            n0 = int(seeder.integers(3, 41))
            n1 = int(seeder.integers(3, 41))
            records = []
            for label, count in ((0, n0), (1, n1)):
                for i in range(count):
                    sid = f"c{label}s{i:03d}"
                    for j in range(int(seeder.integers(1, 5))):
                        records.append(mg.VolumeRecord(sid, f"s{j}", label, f"/x/{sid}{j}"))
            manifest = mg.Manifest(records)
            k = int(seeder.integers(2, min(10, min(n0, n1)) + 1))
            assignment = mg.stratified_group_kfold(manifest, k, seed)
            subjects = manifest.subjects()
            assert set(assignment.folds) == set(subjects)
            for label in (0, 1):
                sizes = [sum(1 for s in assignment.subjects_in(f) if subjects[s] == label)
                         for f in range(k)]
                assert max(sizes) - min(sizes) <= 1, (seed, label, sizes)
            for fold in range(k):
                train, test = assignment.split_records(manifest, fold)
                train_subjects = {r.subject_id for r in train}
                test_subjects = {r.subject_id for r in test}
                assert not (train_subjects & test_subjects), (seed, fold)


def test_criterion_7_auc_oracle_equivalence():
    """Sweep AUC equals the brute-force pair statistic to 1e-12 on 1,000
    random tie-bearing instances, and the worked example is exact."""
    with criterion(7, "auc oracle equivalence"):
        assert mg.roc_auc([0, 0, 1, 1], [0.1, 0.4, 0.35, 0.8]) == 0.75
        gen = np.random.default_rng(2024)
        for _ in range(1000):
            n = int(gen.integers(2, 201))
            labels = gen.integers(0, 2, size=n)
            if labels.min() == labels.max():
                labels[0] = 1 - labels[0]
            if gen.random() < 0.5:
                scores = np.round(gen.normal(size=n), 1)  # heavy ties
            else:
                scores = gen.normal(size=n)
            got = mg.roc_auc(labels.tolist(), scores.tolist())
            want = auc_pairs_reference(labels.tolist(), scores.tolist())
            assert abs(got - want) <= 1e-12


def test_criterion_8_determinism(quick_dataset, tmp_path, capsys):
    """Identical seeds give byte-identical CV reports, at any worker count."""
    with criterion(8, "determinism"):
        manifest_path = Path(quick_dataset.records[0].volume_path).parent / "manifest.csv"
        cfg_path = tmp_path / "mini.cfg"
        cfg_path.write_text(
            "num_grids=2\nsmoothing_iters=1\nfeature_channels=4\ndata_channels=4\n"
            "learning_rate=0.05\nbatch_size=2\nepochs=2\nlog_every=0\n"
        )
        reports = []
        for name, workers in (("a", 1), ("b", 1), ("c", 2)):
            out_dir = tmp_path / name
            code = main(["cv", "--manifest", str(manifest_path), "--k", "2",
                         "--config", str(cfg_path), "--out", str(out_dir),
                         "--workers", str(workers),
                         "--seed-model", "5", "--seed-train", "6", "--seed-split", "7"])
            captured = capsys.readouterr()
            assert code == 0, captured.err
            assert all(l.startswith("time=") or "=" in l
                       for l in captured.out.splitlines() if l)
            reports.append((out_dir / "cv_report.txt").read_bytes())
        assert reports[0] == reports[1] == reports[2]


def test_criterion_9_round_trips(quick_dataset, tmp_path, rng):
    """VOL3 and MGN3 files survive save/load bitwise; a loaded checkpoint
    evaluates identically to the in-memory model."""
    with criterion(9, "round trips"):
        volume = rng.normal(size=(2, 5, 6, 7)).astype(np.float32)
        vol_path = tmp_path / "v.vol"
        mg.save_volume(vol_path, volume)
        assert mg.load_volume(vol_path).data.tobytes() == volume.tobytes()

        cfg = MgNetConfig(num_grids=2, smoothing_iters=(2, 1), feature_channels=4,
                          data_channels=4, seed=13)
        tc = TrainConfig(learning_rate=0.05, batch_size=2, epochs=2, seed=3, log_every=0)
        params, _ = mg.train(cfg, quick_dataset.records, tc)
        ckpt = tmp_path / "model.mgn3"
        mg.save_checkpoint(params, ckpt)
        loaded = mg.load_checkpoint(ckpt)
        for (name, a), (_, b) in zip(params.named_tensors(), loaded.named_tensors()):
            assert a.data.tobytes() == b.data.tobytes(), name
        before = mg.evaluate(params, quick_dataset.records)
        after = mg.evaluate(loaded, quick_dataset.records)
        assert before == after
