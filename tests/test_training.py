"""Training loop, evaluation, and the cross-validation driver at desk scale."""

import re
from collections import Counter
from dataclasses import FrozenInstanceError

import numpy as np
import pytest

import mgnet3d as mg
from mgnet3d import (
    ArgumentError,
    ConfigError,
    DivergenceError,
    MgNetConfig,
    TrainConfig,
    VolumeRecord,
    Manifest,
)
from mgnet3d.cli import epoch_line

from helpers import count_worker_handoffs, run_worker_jobs_inline


@pytest.fixture(scope="module")
def tiny_dataset(tmp_path_factory):
    out = tmp_path_factory.mktemp("tinydata")
    return mg.synth_generate(out, n_subjects_per_class=4, scans_per_subject=1,
                             size=12, effect_size=1.0, noise_std=0.1, seed=2)


@pytest.fixture(scope="module")
def large_dataset(tmp_path_factory):
    # At c=16, a 20^3 grid's conv adjoints hand kernel gradients to the
    # adjoint worker thread.
    out = tmp_path_factory.mktemp("large")
    return mg.synth_generate(out, n_subjects_per_class=4, scans_per_subject=1,
                             size=20, effect_size=1.0, noise_std=0.1, seed=2)


def tiny_model_config(**overrides):
    base = dict(num_grids=2, smoothing_iters=1, feature_channels=4,
                data_channels=4, seed=5)
    base.update(overrides)
    return MgNetConfig(**base)


class TestTrainConfig:
    @pytest.mark.parametrize("lr", [float("nan"), float("inf"), float("-inf")])
    def test_non_finite_learning_rate_rejected(self, lr):
        with pytest.raises(ConfigError, match="learning_rate must be finite"):
            TrainConfig(learning_rate=lr)

    def test_checked_when_built(self):
        with pytest.raises(ConfigError, match="epochs must be >= 1"):
            TrainConfig(epochs=0)

    def test_frozen(self):
        with pytest.raises(FrozenInstanceError):
            TrainConfig().epochs = 0


class TestTrain:
    def test_zero_lr_leaves_parameters_unchanged(self, tiny_dataset):
        cfg = tiny_model_config()
        initial = mg.build(cfg)
        tc = TrainConfig(learning_rate=0.0, batch_size=2, epochs=2, seed=0, log_every=0)
        params, history = mg.train(cfg, tiny_dataset.records, tc)
        for (name, a), (_, b) in zip(initial.named_tensors(), params.named_tensors()):
            assert np.array_equal(a.data, b.data), name
        assert len(history) == 2

    def test_loss_decreases_on_separable_data(self, tiny_dataset):
        # Full-batch descent: 8 scans per step keeps the trajectory stable.
        cfg = tiny_model_config()
        tc = TrainConfig(learning_rate=0.5, batch_size=8, epochs=20, seed=0, log_every=0)
        _, history = mg.train(cfg, tiny_dataset.records, tc)
        assert history[-1].loss < history[0].loss

    def test_bitwise_reproducible_history(self, tiny_dataset):
        cfg = tiny_model_config()
        tc = TrainConfig(learning_rate=0.02, batch_size=2, epochs=3, seed=9, log_every=0)
        _, h1 = mg.train(cfg, tiny_dataset.records, tc)
        _, h2 = mg.train(cfg, tiny_dataset.records, tc)
        assert [epoch_line(e) for e in h1] == [epoch_line(e) for e in h2]
        tc_other = TrainConfig(learning_rate=0.02, batch_size=2, epochs=3, seed=10, log_every=0)
        _, h3 = mg.train(cfg, tiny_dataset.records, tc_other)
        assert [epoch_line(e) for e in h1] != [epoch_line(e) for e in h3]

    def test_adjoint_worker_does_not_change_parameters(self, large_dataset, monkeypatch):
        cfg = tiny_model_config(feature_channels=16, data_channels=16)
        tc = TrainConfig(learning_rate=0.02, batch_size=2, epochs=1, seed=3, log_every=0)
        handoffs = count_worker_handoffs(monkeypatch)
        threaded, _ = mg.train(cfg, large_dataset.records, tc)
        assert handoffs
        run_worker_jobs_inline(monkeypatch)
        inline, _ = mg.train(cfg, large_dataset.records, tc)
        for (name, a), (_, b) in zip(threaded.named_tensors(), inline.named_tensors()):
            assert a.data.tobytes() == b.data.tobytes(), name

    def test_initial_loss_near_coin_flip(self, tiny_dataset):
        # Balanced data, zero head bias, small weights: mean loss ~ ln 2.
        cfg = tiny_model_config()
        tc = TrainConfig(learning_rate=0.0, batch_size=2, epochs=1, seed=0, log_every=0)
        _, history = mg.train(cfg, tiny_dataset.records, tc)
        assert abs(history[0].loss - np.log(2.0)) < 0.2

    def test_single_class_rejected(self, tiny_dataset):
        positives = [r for r in tiny_dataset.records if r.label == 1]
        with pytest.raises(ArgumentError):
            mg.train(tiny_model_config(), positives, TrainConfig(epochs=1))

    def test_empty_training_set_rejected(self):
        with pytest.raises(ArgumentError):
            mg.train(tiny_model_config(), [], TrainConfig(epochs=1))

    def test_divergence_reports_epoch_and_batch(self, tiny_dataset):
        cfg = tiny_model_config()
        tc = TrainConfig(learning_rate=1e12, batch_size=2, epochs=4, seed=0, log_every=0)
        with pytest.raises(DivergenceError) as excinfo:
            mg.train(cfg, tiny_dataset.records, tc)
        assert re.search(r"at epoch \d+, batch \d+$", str(excinfo.value)), str(excinfo.value)

    def test_overflowing_last_step_raises(self, tiny_dataset):
        # One batch: its loss is checked before the step, which overflows
        # float32 at this learning rate.
        tc = TrainConfig(learning_rate=1e39, batch_size=8, epochs=1, seed=0, log_every=0)
        with pytest.raises(DivergenceError, match="after the last SGD step"):
            mg.train(tiny_model_config(), tiny_dataset.records, tc)

    def test_history_carries_eval_metrics_at_cadence(self, tiny_dataset):
        cfg = tiny_model_config()
        tc = TrainConfig(learning_rate=0.01, batch_size=2, epochs=4, seed=0, log_every=2)
        _, history = mg.train(cfg, tiny_dataset.records, tc, eval_records=tiny_dataset.records)
        flagged = [e.metrics is not None for e in history]
        assert flagged == [False, True, False, True]
        line = epoch_line(history[1])
        assert "acc=" in line and "auc=" in line


class TestEvaluate:
    def test_pure_and_deterministic(self, tiny_dataset):
        params = mg.build(tiny_model_config())
        a = mg.evaluate(params, tiny_dataset.records)
        b = mg.evaluate(params, tiny_dataset.records)
        assert a == b

    def test_counts_sum_to_scans(self, tiny_dataset):
        params = mg.build(tiny_model_config())
        m = mg.evaluate(params, tiny_dataset.records)
        assert m.tp + m.tn + m.fp + m.fn == len(tiny_dataset.records)

    def test_empty_rejected(self):
        params = mg.build(tiny_model_config())
        with pytest.raises(ArgumentError):
            mg.evaluate(params, [])


class TestVolumeLoads:
    """Each train or evaluate call reads each of its scans from disk once."""

    @pytest.fixture
    def loads(self, monkeypatch):
        counts = Counter()
        real = mg.training.load_volume

        def counting(path):
            counts[path] += 1
            return real(path)

        monkeypatch.setattr(mg.training, "load_volume", counting)
        return counts

    def test_train_loads_each_scan_once_and_eval_scans_per_evaluation(self, tiny_dataset, loads):
        train_records, eval_records = tiny_dataset.records[::2], tiny_dataset.records[1::2]
        tc = TrainConfig(learning_rate=0.01, batch_size=2, epochs=3, seed=0, log_every=1)
        mg.train(tiny_model_config(), train_records, tc, eval_records=eval_records)
        assert loads == {**{r.volume_path: 1 for r in train_records},
                         **{r.volume_path: 3 for r in eval_records}}

    def test_evaluate_loads_each_scan_once(self, tiny_dataset, loads):
        params = mg.build(tiny_model_config())
        mg.evaluate(params, tiny_dataset.records)
        assert loads == {r.volume_path: 1 for r in tiny_dataset.records}


class TestCrossValidate:
    def test_two_folds_partition_subjects(self, tiny_dataset):
        cfg = tiny_model_config()
        tc = TrainConfig(learning_rate=0.02, batch_size=2, epochs=2, seed=1, log_every=0)
        assignment = mg.stratified_group_kfold(tiny_dataset, 2, 3)
        result = mg.cross_validate(cfg, tiny_dataset, assignment, tc)
        assert len(result.fold_metrics) == 2
        test_sets = [set(assignment.subjects_in(f)) for f in range(2)]
        assert test_sets[0].isdisjoint(test_sets[1])
        assert test_sets[0] | test_sets[1] == set(tiny_dataset.subjects())
        for key in ("mean_accuracy", "std_accuracy", "mean_auc", "std_auc",
                    "mean_final_loss", "std_final_loss"):
            assert key in result.summary
        assert len(result.final_losses) == 2
        assert all(np.isfinite(loss) for loss in result.final_losses)

    def test_workers_do_not_change_results(self, tiny_dataset):
        cfg = tiny_model_config()
        tc = TrainConfig(learning_rate=0.02, batch_size=2, epochs=2, seed=1, log_every=0)
        assignment = mg.stratified_group_kfold(tiny_dataset, 2, 3)
        serial = mg.cross_validate(cfg, tiny_dataset, assignment, tc, workers=1)
        threaded = mg.cross_validate(cfg, tiny_dataset, assignment, tc, workers=2)
        assert serial.fold_metrics == threaded.fold_metrics
        assert serial.final_losses == threaded.final_losses
        assert all(np.isfinite(loss) for loss in serial.final_losses)
        assert serial.summary == threaded.summary


class TestCheckpointIntegration:
    def test_loaded_checkpoint_evaluates_identically(self, tiny_dataset, tmp_path):
        cfg = tiny_model_config()
        tc = TrainConfig(learning_rate=0.02, batch_size=2, epochs=2, seed=4, log_every=0)
        params, _ = mg.train(cfg, tiny_dataset.records, tc)
        path = tmp_path / "model.mgn3"
        mg.save_checkpoint(params, path)
        loaded = mg.load_checkpoint(path)
        before = mg.evaluate(params, tiny_dataset.records)
        after = mg.evaluate(loaded, tiny_dataset.records)
        assert before == after
