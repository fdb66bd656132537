#!/usr/bin/env python3
"""Run the criterion-4 cross-validation once per parameter nudge and print
one pass/fail line per run.

Each nudge is a ``PARAM:INDEX:ULPS`` triple, for example
``input_kernel:0:+1`` or ``level1.smoother2:200:+1``: after every fold
builds its fresh parameters, entry INDEX (flat, C order) of PARAM is
moved ULPS float32 steps with ``np.nextafter``. ULPS 0 is the unnudged
baseline. A run passes when mean accuracy >= 0.95 and mean AUC >= 0.98,
the thresholds of ``tests/test_acceptance.py::test_criterion_4_synthetic_learning``.

The defaults are that criterion's recipe: synthetic data seed 7, 20
subjects per class, 2 scans each, 16^3; the J=3, c=16 model with seed 0;
learning rate 0.1, batch 2, 30 epochs, train seed 0; k=2, split seed 11.
A full-size run takes minutes, so the script is kept out of the test suite.

    python scripts/nudge_ensemble.py input_kernel:0:0 input_kernel:0:+1
"""

import argparse
import sys
import tempfile
from dataclasses import dataclass

import numpy as np

import mgnet3d as mg

PASS_ACCURACY = 0.95
PASS_AUC = 0.98
MODEL = dict(num_grids=3, smoothing_iters=2, feature_channels=16, data_channels=16, seed=0)


@dataclass(frozen=True)
class Nudge:
    param: str
    index: int
    ulps: int

    def __str__(self) -> str:
        return f"{self.param}:{self.index}:{self.ulps:+d}"


def parse_nudge(text: str) -> Nudge:
    try:
        param, index, ulps = text.rsplit(":", 2)
        return Nudge(param, int(index), int(ulps))
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected PARAM:INDEX:ULPS, got {text!r}") from None


def nudged_build(nudge: Nudge, real_build):
    """``real_build`` with one parameter entry moved by ``nudge.ulps`` float32 steps."""

    def build(config):
        params = real_build(config)
        flat = params.by_name[nudge.param].data.reshape(-1)
        toward = np.float32(np.inf if nudge.ulps > 0 else -np.inf)
        for _ in range(abs(nudge.ulps)):
            flat[nudge.index] = np.nextafter(flat[nudge.index], toward)
        return params

    return build


def check(nudge: Nudge, sizes: dict[str, int]) -> str | None:
    """Why ``nudge`` names no parameter entry, or None."""
    if nudge.param not in sizes:
        return f"unknown parameter {nudge.param!r}; known: {', '.join(sizes)}"
    if not 0 <= nudge.index < sizes[nudge.param]:
        return f"index {nudge.index} out of range for {nudge.param} of {sizes[nudge.param]} entries"
    return None


def run(nudge: Nudge, manifest, train_cfg) -> str:
    """One cross-validation under ``nudge``, as one report line."""
    real_build = mg.training.build
    mg.training.build = nudged_build(nudge, real_build)
    try:
        result = mg.cross_validate(mg.MgNetConfig(**MODEL), manifest, k=2,
                                   train_cfg=train_cfg, split_seed=11)
    except mg.DivergenceError as exc:
        return f"nudge={nudge} result=FAIL error={exc}"
    finally:
        mg.training.build = real_build
    fields = [f"nudge={nudge}"]
    for fold, (metrics, loss) in enumerate(zip(result.fold_metrics, result.final_losses)):
        fields.append(f"fold{fold}_accuracy={metrics.accuracy:.4f} fold{fold}_final_loss={loss:.4g}")
    accuracy, auc = result.summary["mean_accuracy"], result.summary["mean_auc"]
    passed = accuracy >= PASS_ACCURACY and auc >= PASS_AUC
    fields.append(f"mean_accuracy={accuracy:.4f} mean_auc={auc:.4f} result={'PASS' if passed else 'FAIL'}")
    return " ".join(fields)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("nudges", nargs="+", type=parse_nudge, metavar="PARAM:INDEX:ULPS")
    parser.add_argument("--size", type=int, default=16)
    parser.add_argument("--subjects-per-class", type=int, default=20)
    parser.add_argument("--epochs", type=int, default=30)
    parser.add_argument("--learning-rate", type=float, default=0.1)
    args = parser.parse_args()

    sizes = {name: t.size for name, t in mg.build(mg.MgNetConfig(**MODEL)).named_tensors()}
    for nudge in args.nudges:
        problem = check(nudge, sizes)
        if problem is not None:
            print(f"error: {nudge}: {problem}", file=sys.stderr)
            return 2

    train_cfg = mg.TrainConfig(learning_rate=args.learning_rate, batch_size=2,
                               epochs=args.epochs, seed=0, log_every=0)
    with tempfile.TemporaryDirectory(prefix="mgnet3d_nudge_") as work:
        manifest = mg.synth_generate(work, n_subjects_per_class=args.subjects_per_class,
                                     scans_per_subject=2, size=args.size,
                                     effect_size=1.0, noise_std=0.1, seed=7)
        for nudge in args.nudges:
            print(run(nudge, manifest, train_cfg), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
