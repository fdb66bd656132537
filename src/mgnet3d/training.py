"""Mini-batch SGD training, evaluation, and the cross-validation driver.

All randomness flows through explicit seeds: the model seed fixes the
initialization, the train seed fixes epoch shuffles, and the split seed
fixes fold membership. Given the three seeds, every reported metric is
bitwise reproducible. Wall-clock timings are kept out of the
deterministic history serialization.
"""

from __future__ import annotations

import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, fields, replace
from typing import Callable, Sequence

import numpy as np

from .data import Manifest, VolumeRecord, FoldAssignment, load_volume, normalize
from .errors import ArgumentError, ConfigError, DivergenceError
from .metrics import EvalMetrics, compute_metrics
from .model import MgNetConfig, MgNetParams, build, forward
from .tensor import Tensor, backward, mean_scalars, record, sgd_step, softmax_cross_entropy

__all__ = [
    "TrainConfig",
    "EpochStats",
    "CvResult",
    "train",
    "evaluate",
    "cross_validate",
    "summarize_folds",
]


@dataclass(frozen=True)
class TrainConfig:
    """Optimization hyperparameters, checked when the config is built.

    ``log_every`` is the epoch cadence for held-out metric evaluation
    when an evaluation set is supplied (0 disables it).
    """

    learning_rate: float = 1e-4
    batch_size: int = 2
    epochs: int = 1
    seed: int = 0
    log_every: int = 1

    def __post_init__(self) -> None:
        if not np.isfinite(self.learning_rate):
            raise ConfigError(f"learning_rate must be finite, got {self.learning_rate}")
        if self.learning_rate < 0:
            raise ConfigError(f"learning_rate must be >= 0, got {self.learning_rate}")
        if self.batch_size < 1:
            raise ConfigError(f"batch_size must be >= 1, got {self.batch_size}")
        if self.epochs < 1:
            raise ConfigError(f"epochs must be >= 1, got {self.epochs}")
        if self.log_every < 0:
            raise ConfigError(f"log_every must be >= 0, got {self.log_every}")
        if self.seed < 0:
            raise ConfigError(f"seed must be non-negative, got {self.seed}")


@dataclass
class EpochStats:
    epoch: int
    loss: float
    metrics: EvalMetrics | None
    wall_seconds: float


def _load_scans(records: Sequence[VolumeRecord]) -> list[Tensor]:
    """Each record's volume, z-scored, in record order."""
    return [Tensor(normalize(load_volume(r.volume_path))) for r in records]


def train(
    model_config: MgNetConfig,
    train_records: Sequence[VolumeRecord],
    train_cfg: TrainConfig,
    eval_records: Sequence[VolumeRecord] | None = None,
    on_epoch: Callable[[EpochStats], None] | None = None,
) -> tuple[MgNetParams, list[EpochStats]]:
    """Run seeded mini-batch SGD; return the final parameters and per-epoch stats.

    Each batch runs every sample's forward pass, averages the
    cross-entropy losses, backpropagates, and applies one SGD step. The
    per-epoch loss is the mean over batch losses. Every training scan is
    loaded and z-scored once, before the first step. A non-finite batch
    loss, or a non-finite parameter after the last step, raises
    DivergenceError.
    """
    if not train_records:
        raise ArgumentError("training set is empty")
    labels = {r.label for r in train_records}
    if labels != {0, 1}:
        raise ArgumentError(f"training set must contain both classes, got labels {sorted(labels)}")
    if model_config.num_classes != 2:
        raise ArgumentError(f"training requires a binary head, model has {model_config.num_classes} classes")

    params = build(model_config)
    scans = _load_scans(train_records)
    rng = np.random.default_rng(train_cfg.seed)
    history: list[EpochStats] = []
    for epoch in range(train_cfg.epochs):
        t0 = time.perf_counter()
        order = rng.permutation(len(train_records))
        batch_losses = []
        for batch_index, start in enumerate(range(0, len(order), train_cfg.batch_size)):
            batch = order[start : start + train_cfg.batch_size]
            # A diverging run overflows before its loss turns non-finite;
            # the DivergenceError below reports it, not numpy warnings.
            with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
                with record():
                    losses = [
                        softmax_cross_entropy(forward(params, scans[i]), train_records[i].label)
                        for i in batch
                    ]
                    loss = mean_scalars(losses)
                value = loss.item()
                if not np.isfinite(value):
                    raise DivergenceError(f"non-finite loss {value} at epoch {epoch}, batch {batch_index}")
                backward(loss)
                sgd_step(params.tensors(), train_cfg.learning_rate)
            batch_losses.append(value)
        epoch_loss = float(np.mean(batch_losses))
        metrics = None
        if (
            eval_records
            and train_cfg.log_every > 0
            and (epoch + 1) % train_cfg.log_every == 0
        ):
            metrics = evaluate(params, eval_records)
        stats = EpochStats(epoch, epoch_loss, metrics, time.perf_counter() - t0)
        history.append(stats)
        if on_epoch is not None:
            on_epoch(stats)
    # Each loss is checked before its step, so the last step is checked here.
    for name, tensor in params.named_tensors():
        if not np.isfinite(tensor.data).all():
            raise DivergenceError(f"non-finite values in {name} after the last SGD step")
    return params, history


def evaluate(params: MgNetParams, records: Sequence[VolumeRecord]) -> EvalMetrics:
    """Per-scan metrics: predicted class is the argmax logit, the score is
    the class-1 softmax probability."""
    if not records:
        raise ArgumentError("evaluation set is empty")
    if params.config.num_classes != 2:
        raise ArgumentError(
            f"evaluation requires a binary head, model has {params.config.num_classes} classes"
        )
    labels, predictions, scores = [], [], []
    for r, scan in zip(records, _load_scans(records)):
        # As in train: a diverged model is a DivergenceError, not numpy warnings.
        with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
            logits = forward(params, scan)
        if not np.isfinite(logits.data).all():
            raise DivergenceError(
                f"non-finite logits {logits.data.tolist()} for scan {r.subject_id}/{r.scan_id}"
            )
        z = logits.data.astype(np.float64)
        z -= z.max()
        ez = np.exp(z)
        labels.append(r.label)
        predictions.append(int(np.argmax(logits.data)))
        scores.append(float(ez[1] / ez.sum()))
    return compute_metrics(labels, predictions, scores)


def _fold_seed(base: int, fold: int) -> int:
    # Stable per-fold derivation so folds train from distinct but
    # reproducible initializations and shuffles.
    return int(np.random.SeedSequence((base, fold)).generate_state(1)[0])


@dataclass
class CvResult:
    """Per-fold held-out metrics and final training losses, in fold order."""

    fold_metrics: list[EvalMetrics]
    final_losses: list[float]
    summary: dict[str, float]


def summarize_folds(
    fold_metrics: Sequence[EvalMetrics], final_losses: Sequence[float]
) -> dict[str, float]:
    """Mean and population std of each float field of ``EvalMetrics``,
    then of the final training loss, across folds."""
    names = [f.name for f in fields(EvalMetrics) if f.type == "float"]
    columns = {name: [getattr(m, name) for m in fold_metrics] for name in names}
    columns["final_loss"] = list(final_losses)
    out: dict[str, float] = {}
    for name, column in columns.items():
        values = np.array(column, dtype=np.float64)
        out[f"mean_{name}"] = float(values.mean())
        out[f"std_{name}"] = float(values.std())
    return out


def cross_validate(
    model_config: MgNetConfig,
    manifest: Manifest,
    assignment: FoldAssignment,
    train_cfg: TrainConfig,
    workers: int = 1,
) -> CvResult:
    """k rounds of train-on-(k-1)-folds / test-on-the-held-out-fold, over
    the folds of ``assignment``.

    Every round trains from a fresh per-fold initialization. Folds may run
    on worker threads; results are ordered by fold index either way, so
    the report is identical at any parallelism setting.
    """
    if workers < 1:
        raise ArgumentError(f"workers must be >= 1, got {workers}")

    def run_fold(fold: int) -> tuple[EvalMetrics, float]:
        train_records, test_records = assignment.split_records(manifest, fold)
        fold_model_cfg = replace(model_config, seed=_fold_seed(model_config.seed, fold))
        fold_train_cfg = replace(train_cfg, seed=_fold_seed(train_cfg.seed, fold))
        params, history = train(fold_model_cfg, train_records, fold_train_cfg)
        return evaluate(params, test_records), history[-1].loss

    if workers > 1:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            folds = list(pool.map(run_fold, range(assignment.k)))
    else:
        folds = [run_fold(fold) for fold in range(assignment.k)]
    fold_metrics = [metrics for metrics, _ in folds]
    final_losses = [loss for _, loss in folds]
    return CvResult(fold_metrics, final_losses, summarize_folds(fold_metrics, final_losses))
