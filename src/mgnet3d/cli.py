"""Command-line interface.

Subcommands: ``synth`` (generate a synthetic dataset), ``split`` (write a
subject-grouped stratified fold assignment), ``train`` (fit one
cross-validation round), ``eval`` (score a checkpoint), ``params``
(parameter accounting), and ``cv`` (full cross-validation).

Configuration is a flat ``key=value`` file merged with command-line
flags; flags win. Unknown keys are rejected. All randomness funnels
through named seeds that are echoed in the output, so any reported row
can be reproduced from its header. Output is byte-identical across runs
with fixed seeds and inputs, except wall-clock lines, which always start
with ``time=``.

Exit codes: 0 success, 2 argument/config error, 3 data/format error,
4 numeric divergence.
"""

from __future__ import annotations

import argparse
import sys
import time
from pathlib import Path

from .data import FoldAssignment, load_manifest, stratified_group_kfold, synth_generate
from .errors import (
    ArgumentError,
    ConfigError,
    DataError,
    DivergenceError,
    FormatError,
    ShapeError,
    StateError,
)
from .metrics import EvalMetrics
from .model import (
    MgNetConfig,
    build,
    load_checkpoint,
    param_breakdown,
    param_count,
    save_checkpoint,
)
from .training import TrainConfig, cross_validate, evaluate, train

__all__ = ["main", "entrypoint", "REFERENCE_MGNET3D_PARAMS", "REFERENCE_RESNET3D_PARAMS"]

# Published reference budgets for the original 3DMgNet and a 3D ResNet-18
# baseline, used by `params` to report deltas.
REFERENCE_MGNET3D_PARAMS = 6_202_754
REFERENCE_RESNET3D_PARAMS = 8_288_290

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_DATA = 3
EXIT_DIVERGED = 4


def _parse_bool(text: str) -> bool:
    lowered = text.strip().lower()
    if lowered in ("1", "true", "yes", "on"):
        return True
    if lowered in ("0", "false", "no", "off"):
        return False
    raise ConfigError(f"expected a boolean, got {text!r}")


def _parse_iters(text: str):
    parts = [p for p in text.split(",") if p]
    values = tuple(int(p) for p in parts)
    return values[0] if len(values) == 1 else values


_CONFIG_SCHEMA = {
    # model
    "num_grids": int,
    "smoothing_iters": _parse_iters,
    "feature_channels": int,
    "data_channels": int,
    "input_channels": int,
    "num_classes": int,
    "use_avg_pool": _parse_bool,
    "use_channel_norm": _parse_bool,
    # training
    "learning_rate": float,
    "batch_size": int,
    "epochs": int,
    "log_every": int,
    # seeds
    "seed_model": int,
    "seed_train": int,
    "seed_split": int,
    "seed_data": int,
    # paths and protocol
    "manifest": str,
    "folds": str,
    "checkpoint": str,
    "out": str,
    "k": int,
    "fold": int,
    "workers": int,
}


def parse_config_file(path) -> dict:
    """Read a flat key=value configuration file; unknown keys are rejected."""
    settings: dict = {}
    try:
        text = Path(path).read_text()
    except FileNotFoundError:
        raise ConfigError(f"config file not found: {path}") from None
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"{path}:{lineno}: expected key=value, got {raw!r}")
        key, value = (part.strip() for part in line.split("=", 1))
        if key not in _CONFIG_SCHEMA:
            raise ConfigError(f"{path}:{lineno}: unknown config key {key!r}")
        try:
            settings[key] = _CONFIG_SCHEMA[key](value)
        except ConfigError:
            raise
        except ValueError:
            raise ConfigError(f"{path}:{lineno}: bad value {value!r} for key {key!r}") from None
    return settings


_FLAG_TO_KEY = {
    "manifest": "manifest",
    "folds": "folds",
    "fold": "fold",
    "k": "k",
    "seed_model": "seed_model",
    "seed_train": "seed_train",
    "seed_split": "seed_split",
    "seed_data": "seed_data",
    "checkpoint": "checkpoint",
    "out": "out",
    "workers": "workers",
    "epochs": "epochs",
}


def _resolve(args) -> dict:
    """Merged settings: schema defaults < config file < explicit flags."""
    settings = {
        "seed_model": 0,
        "seed_train": 0,
        "seed_split": 0,
        "seed_data": 0,
        "k": 10,
        "workers": 1,
    }
    if getattr(args, "config", None):
        settings.update(parse_config_file(args.config))
    for attr, key in _FLAG_TO_KEY.items():
        value = getattr(args, attr, None)
        if value is not None:
            settings[key] = value
    if getattr(args, "no_avg_pool", False):
        settings["use_avg_pool"] = False
    return settings


def _model_config(settings: dict) -> MgNetConfig:
    kwargs = {}
    for name in (
        "num_grids",
        "smoothing_iters",
        "feature_channels",
        "data_channels",
        "input_channels",
        "num_classes",
        "use_avg_pool",
        "use_channel_norm",
    ):
        if name in settings:
            kwargs[name] = settings[name]
    return MgNetConfig(seed=settings["seed_model"], **kwargs)


def _train_config(settings: dict) -> TrainConfig:
    kwargs = {}
    for name in ("learning_rate", "batch_size", "epochs", "log_every"):
        if name in settings:
            kwargs[name] = settings[name]
    cfg = TrainConfig(seed=settings["seed_train"], **kwargs)
    cfg.validate()
    return cfg


def _require(settings: dict, key: str, flag: str) -> object:
    if key not in settings:
        raise ConfigError(f"{key} is required (flag {flag} or config key {key!r})")
    return settings[key]


def _fmt(value) -> str:
    return repr(float(value))


def metrics_lines(m: EvalMetrics) -> list[str]:
    return [
        f"accuracy={_fmt(m.accuracy)}",
        f"auc={_fmt(m.auc)}",
        f"sensitivity={_fmt(m.sensitivity)}",
        f"specificity={_fmt(m.specificity)}",
        f"tp={m.tp}",
        f"tn={m.tn}",
        f"fp={m.fp}",
        f"fn={m.fn}",
    ]


def _summary_lines(summary: dict[str, float]) -> list[str]:
    return [f"{key}={_fmt(value)}" for key, value in summary.items()]


def _parse_size(text: str):
    parts = text.lower().split("x")
    try:
        values = [int(p) for p in parts]
    except ValueError:
        raise ConfigError(f"bad --size value {text!r}; expected N or DxHxW") from None
    if len(values) == 1:
        return values[0]
    if len(values) == 3:
        return tuple(values)
    raise ConfigError(f"bad --size value {text!r}; expected N or DxHxW")


def cmd_synth(args) -> int:
    settings = _resolve(args)
    out_dir = Path(_require(settings, "out", "--out"))
    print(f"seed_data={settings['seed_data']}")
    manifest = synth_generate(
        out_dir,
        n_subjects_per_class=args.subjects_per_class,
        scans_per_subject=args.scans_per_subject,
        size=_parse_size(args.size),
        effect_size=args.effect_size,
        noise_std=args.noise_std,
        seed=settings["seed_data"],
    )
    subjects = manifest.subjects()
    class1 = sum(subjects.values())
    geometry = "x".join(str(v) for v in manifest.geometry)
    print(f"manifest={out_dir / 'manifest.csv'}")
    print(f"subjects={len(subjects)} scans={len(manifest.records)} geometry={geometry}")
    print(f"class0_subjects={len(subjects) - class1} class1_subjects={class1}")
    return EXIT_OK


def cmd_split(args) -> int:
    settings = _resolve(args)
    manifest = load_manifest(_require(settings, "manifest", "--manifest"), resolve_geometry=False)
    out_dir = Path(_require(settings, "out", "--out"))
    out_dir.mkdir(parents=True, exist_ok=True)
    print(f"seed_split={settings['seed_split']}")
    assignment = stratified_group_kfold(manifest, settings["k"], settings["seed_split"])
    folds_path = out_dir / "folds.csv"
    assignment.save(folds_path)
    print(f"folds={folds_path}")
    subjects = manifest.subjects()
    for fold in range(assignment.k):
        members = assignment.subjects_in(fold)
        positives = sum(subjects[s] for s in members)
        print(f"fold={fold} subjects={len(members)} class0={len(members) - positives} class1={positives}")
    return EXIT_OK


def cmd_train(args) -> int:
    settings = _resolve(args)
    manifest = load_manifest(_require(settings, "manifest", "--manifest"))
    assignment = FoldAssignment.load(_require(settings, "folds", "--folds"))
    fold = int(_require(settings, "fold", "--fold"))
    out_dir = Path(_require(settings, "out", "--out"))
    out_dir.mkdir(parents=True, exist_ok=True)
    model_cfg = _model_config(settings)
    train_cfg = _train_config(settings)
    print(f"seed_model={settings['seed_model']}")
    print(f"seed_train={settings['seed_train']}")

    train_records, eval_records = assignment.split_records(manifest, fold)

    def on_epoch(stats) -> None:
        print(stats.line())
        print(f"time={stats.wall_seconds:.3f} epoch={stats.epoch}")

    t0 = time.perf_counter()
    params, history = train(
        model_cfg,
        train_records,
        train_cfg,
        eval_records=eval_records or None,
        geometry=manifest.geometry,
        on_epoch=on_epoch,
    )
    checkpoint_path = out_dir / "checkpoint.mgn3"
    save_checkpoint(params, checkpoint_path)
    history_path = out_dir / "history.log"
    history_path.write_text("\n".join(history.lines()) + "\n")

    summary_lines = [
        f"fold={fold}",
        f"epochs={train_cfg.epochs}",
        f"final_loss={_fmt(history.final_loss())}",
    ]
    if eval_records:
        final_metrics = history.epochs[-1].metrics
        if final_metrics is None:
            final_metrics = evaluate(params, eval_records, geometry=manifest.geometry)
        summary_lines.extend(metrics_lines(final_metrics))
    (out_dir / "summary.txt").write_text("\n".join(summary_lines) + "\n")

    print(f"checkpoint={checkpoint_path}")
    print(f"history={history_path}")
    for line in summary_lines:
        print(line)
    print(f"time={time.perf_counter() - t0:.3f} total")
    return EXIT_OK


def cmd_eval(args) -> int:
    settings = _resolve(args)
    params = load_checkpoint(_require(settings, "checkpoint", "--checkpoint"))
    manifest = load_manifest(_require(settings, "manifest", "--manifest"))
    records = manifest.records
    folds, fold = settings.get("folds"), settings.get("fold")
    if (folds is None) != (fold is None):
        raise ConfigError("eval takes --folds and --fold together (config keys folds, fold), not one alone")
    if folds is not None:
        assignment = FoldAssignment.load(folds)
        _, records = assignment.split_records(manifest, int(fold))
    metrics = evaluate(params, records, geometry=manifest.geometry)
    print(f"scans={len(records)}")
    for line in metrics_lines(metrics):
        print(line)
    return EXIT_OK


def cmd_params(args) -> int:
    settings = _resolve(args)
    params = build(_model_config(settings))
    for name, count in param_breakdown(params):
        print(f"params_{name}={count}")
    total = param_count(params)
    print(f"params_total={total}")
    print(f"reference_mgnet3d={REFERENCE_MGNET3D_PARAMS}")
    print(f"delta_vs_mgnet3d={total - REFERENCE_MGNET3D_PARAMS}")
    print(f"reference_resnet3d={REFERENCE_RESNET3D_PARAMS}")
    print(f"delta_vs_resnet3d={total - REFERENCE_RESNET3D_PARAMS}")
    return EXIT_OK


def cmd_cv(args) -> int:
    settings = _resolve(args)
    manifest = load_manifest(_require(settings, "manifest", "--manifest"))
    model_cfg = _model_config(settings)
    train_cfg = _train_config(settings)
    seed_lines = [
        f"seed_model={settings['seed_model']}",
        f"seed_train={settings['seed_train']}",
        f"seed_split={settings['seed_split']}",
    ]
    for line in seed_lines:
        print(line)
    t0 = time.perf_counter()
    result = cross_validate(
        model_cfg,
        manifest,
        settings["k"],
        train_cfg,
        split_seed=settings["seed_split"],
        workers=settings["workers"],
    )
    report_lines = list(seed_lines)
    for fold, (metrics, loss) in enumerate(zip(result.fold_metrics, result.final_losses)):
        report_lines.append(f"fold={fold}")
        report_lines.append(f"final_loss={_fmt(loss)}")
        report_lines.extend(metrics_lines(metrics))
    report_lines.append(f"folds={len(result.fold_metrics)}")
    report_lines.extend(_summary_lines(result.summary))
    for line in report_lines[len(seed_lines) :]:
        print(line)
    if settings.get("out"):
        out_dir = Path(settings["out"])
        out_dir.mkdir(parents=True, exist_ok=True)
        report_path = out_dir / "cv_report.txt"
        report_path.write_text("\n".join(report_lines) + "\n")
        print(f"report={report_path}")
    print(f"time={time.perf_counter() - t0:.3f} total")
    return EXIT_OK


def _add_common(parser: argparse.ArgumentParser, *names: str) -> None:
    specs = {
        "config": (str, "flat key=value configuration file"),
        "manifest": (str, "dataset manifest CSV"),
        "folds": (str, "fold assignment CSV"),
        "fold": (int, "fold index"),
        "k": (int, "number of folds"),
        "seed_model": (int, "initialization seed"),
        "seed_train": (int, "shuffle seed"),
        "seed_split": (int, "fold assignment seed"),
        "seed_data": (int, "dataset generation seed"),
        "checkpoint": (str, "checkpoint path"),
        "out": (str, "output directory"),
        "workers": (int, "parallel fold workers"),
        "epochs": (int, "training epochs"),
    }
    for name in names:
        typ, help_text = specs[name]
        parser.add_argument(f"--{name.replace('_', '-')}", type=typ, default=None, help=help_text)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="mgnet3d",
        description="Multigrid convolutional network for volumetric binary classification.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("synth", help="generate a synthetic labeled dataset")
    _add_common(p, "config", "out", "seed_data")
    p.add_argument("--subjects-per-class", type=int, default=10)
    p.add_argument("--scans-per-subject", type=int, default=2)
    p.add_argument("--size", type=str, default="16", help="cubic extent N or DxHxW")
    p.add_argument("--effect-size", type=float, default=1.0)
    p.add_argument("--noise-std", type=float, default=0.1)
    p.set_defaults(func=cmd_synth)

    p = sub.add_parser("split", help="write a subject-grouped stratified fold assignment")
    _add_common(p, "config", "manifest", "k", "seed_split", "out")
    p.set_defaults(func=cmd_split)

    p = sub.add_parser("train", help="train on all folds except one")
    _add_common(
        p, "config", "manifest", "folds", "fold", "out", "seed_model", "seed_train", "epochs"
    )
    p.add_argument("--no-avg-pool", action="store_true", help="disable coarse-grid average pooling")
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("eval", help="evaluate a checkpoint on listed scans")
    _add_common(p, "config", "checkpoint", "manifest", "folds", "fold")
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("params", help="report the exact parameter count")
    _add_common(p, "config")
    p.add_argument("--no-avg-pool", action="store_true", help="disable coarse-grid average pooling")
    p.set_defaults(func=cmd_params)

    p = sub.add_parser("cv", help="run full cross-validation")
    _add_common(
        p,
        "config",
        "manifest",
        "k",
        "out",
        "seed_model",
        "seed_train",
        "seed_split",
        "workers",
        "epochs",
    )
    p.add_argument("--no-avg-pool", action="store_true", help="disable coarse-grid average pooling")
    p.set_defaults(func=cmd_cv)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except DivergenceError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DIVERGED
    except (FormatError, DataError, ShapeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DATA
    except (ConfigError, ArgumentError, StateError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DATA


def entrypoint() -> None:
    raise SystemExit(main())
