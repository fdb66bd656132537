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

Exit codes: 0 on success; on failure, the ``exit_code`` of the
``mgnet3d.errors`` class raised, or 3 for an operating-system error, an
allocation the system refuses (``MemoryError``) or a size beyond an
index's range (``OverflowError``).
"""

from __future__ import annotations

import argparse
import sys
import time
from dataclasses import fields
from pathlib import Path

from .data import FoldAssignment, atomic_write, load_manifest, stratified_group_kfold, synth_generate
from .errors import ConfigError, MgnetError, ShapeError
from .metrics import EvalMetrics
from .model import (
    MgNetConfig,
    build,
    field_parsers,
    load_checkpoint,
    param_breakdown,
    param_count,
    parse_key_values,
    save_checkpoint,
)
from .training import EpochStats, TrainConfig, cross_validate, evaluate, train

__all__ = ["main", "entrypoint", "REFERENCE_MGNET3D_PARAMS", "REFERENCE_RESNET3D_PARAMS"]

# Published reference budgets for the original 3DMgNet and a 3D ResNet-18
# baseline, used by `params` to report deltas.
REFERENCE_MGNET3D_PARAMS = 6_202_754
REFERENCE_RESNET3D_PARAMS = 8_288_290

EXIT_OK = 0
EXIT_OS_ERROR = 3


def non_negative_int(text: str) -> int:
    value = int(text)
    if value < 0:
        raise ValueError(f"expected a non-negative integer, got {value}")
    return value


def positive_int(text: str) -> int:
    value = int(text)
    if value < 1:
        raise ValueError(f"expected a positive integer, got {value}")
    return value


def path_text(text: str) -> str:
    """A file or directory name; the system calls refuse one with a NUL byte."""
    if "\0" in text:
        raise ValueError(f"path {text!r} contains a NUL byte")
    return text


# Run-protocol keys: (value parser, default, flag help). The model and
# training keys are the MgNetConfig and TrainConfig fields; each class's
# ``seed`` comes from its seed_* key here.
_PROTOCOL_KEYS = {
    "seed_model": (non_negative_int, 0, "initialization seed"),
    "seed_train": (non_negative_int, 0, "shuffle seed"),
    "seed_split": (non_negative_int, 0, "fold assignment seed"),
    "seed_data": (non_negative_int, 0, "dataset generation seed"),
    "manifest": (path_text, None, "dataset manifest CSV"),
    "folds": (path_text, None, "fold assignment CSV"),
    "checkpoint": (path_text, None, "checkpoint path"),
    "out": (path_text, None, "output directory"),
    "k": (int, 10, "number of folds"),
    "fold": (int, None, "fold index"),
    "workers": (positive_int, 1, "parallel fold workers"),
}


def _field_keys(cls) -> dict:
    return {name: parse for name, parse in field_parsers(cls).items() if name != "seed"}


_CONFIG_SCHEMA = {
    **_field_keys(MgNetConfig),
    **_field_keys(TrainConfig),
    **{key: parse for key, (parse, _, _) in _PROTOCOL_KEYS.items()},
}


def parse_config_file(path) -> dict:
    """Read a flat key=value configuration file; unknown keys are rejected."""
    try:
        text = Path(path).read_text(encoding="utf-8")
    except FileNotFoundError:
        raise ConfigError(f"config file not found: {path}") from None
    except OSError as exc:
        raise ConfigError(f"cannot read config file {path}: {exc.strerror or exc}") from None
    except UnicodeDecodeError as exc:
        raise ConfigError(f"{path}: config file is not UTF-8: {exc}") from None
    return parse_key_values(text, _CONFIG_SCHEMA, f"{path}:")


def _resolve(args) -> dict:
    """Merged settings: protocol defaults < config file < explicit flags."""
    settings = {key: default for key, (_, default, _) in _PROTOCOL_KEYS.items() if default is not None}
    if getattr(args, "config", None):
        settings.update(parse_config_file(args.config))
    for key in _CONFIG_SCHEMA:  # each flag is named after its key
        value = getattr(args, key, None)
        if value is not None:
            settings[key] = value
    if getattr(args, "no_avg_pool", False):
        settings["use_avg_pool"] = False
    return settings


def _config(cls, settings: dict, seed_key: str):
    """The MgNetConfig or TrainConfig that the settings describe."""
    names = _field_keys(cls)
    return cls(seed=settings[seed_key], **{k: v for k, v in settings.items() if k in names})


def _flag(key: str) -> str:
    """The command-line flag named after a settings key."""
    return f"--{key.replace('_', '-')}"


def _require(settings: dict, key: str) -> object:
    if key not in settings:
        raise ConfigError(f"{key} is required (flag {_flag(key)} or config key {key!r})")
    return settings[key]


def _check_channels(manifest, config: MgNetConfig) -> None:
    """Refuse, before any output, volumes whose channels the model does not read."""
    if manifest.geometry and manifest.geometry[0] != config.input_channels:
        expected, channels = config.input_channels, manifest.geometry[0]
        raise ShapeError(f"model expects {expected} input channel(s), volumes have {channels}")


def _float_repr(v: float) -> str:
    return repr(float(v))


def epoch_line(stats: EpochStats) -> str:
    parts = [f"epoch={stats.epoch}", f"loss={_float_repr(stats.loss)}"]
    if stats.metrics is not None:
        parts.append(f"acc={_float_repr(stats.metrics.accuracy)}")
        parts.append(f"auc={_float_repr(stats.metrics.auc)}")
    return " ".join(parts)


def metrics_lines(m: EvalMetrics) -> list[str]:
    values = ((f.name, getattr(m, f.name)) for f in fields(m))
    return [f"{name}={_float_repr(v) if isinstance(v, float) else v}" for name, v in values]


def _summary_lines(summary: dict[str, float]) -> list[str]:
    return [f"{key}={_float_repr(value)}" for key, value in summary.items()]


def _write_lines(path: Path, lines: list[str]) -> None:
    with atomic_write(path) as fh:
        fh.write(("\n".join(lines) + "\n").encode("utf-8"))


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
    out_dir = Path(_require(settings, "out"))
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
    print(f"seed_data={settings['seed_data']}")
    print(f"manifest={out_dir / 'manifest.csv'}")
    print(f"subjects={len(subjects)} scans={len(manifest.records)} geometry={geometry}")
    print(f"class0_subjects={len(subjects) - class1} class1_subjects={class1}")
    return EXIT_OK


def cmd_split(args) -> int:
    settings = _resolve(args)
    manifest = load_manifest(_require(settings, "manifest"))
    assignment = stratified_group_kfold(manifest, settings["k"], settings["seed_split"])
    out_dir = Path(_require(settings, "out"))
    out_dir.mkdir(parents=True, exist_ok=True)
    print(f"seed_split={settings['seed_split']}")
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
    manifest = load_manifest(_require(settings, "manifest"))
    assignment = FoldAssignment.load(_require(settings, "folds"))
    fold = int(_require(settings, "fold"))
    train_records, eval_records = assignment.split_records(manifest, fold)
    model_cfg = _config(MgNetConfig, settings, "seed_model")
    train_cfg = _config(TrainConfig, settings, "seed_train")
    _check_channels(manifest, model_cfg)
    out_dir = Path(_require(settings, "out"))
    out_dir.mkdir(parents=True, exist_ok=True)
    print(f"seed_model={settings['seed_model']}")
    print(f"seed_train={settings['seed_train']}")

    def on_epoch(stats) -> None:
        print(epoch_line(stats))
        print(f"time={stats.wall_seconds:.3f} epoch={stats.epoch}")

    t0 = time.perf_counter()
    params, history = train(
        model_cfg, train_records, train_cfg, eval_records=eval_records or None, on_epoch=on_epoch
    )
    checkpoint_path = out_dir / "checkpoint.mgn3"
    save_checkpoint(params, checkpoint_path)
    history_path = out_dir / "history.log"
    _write_lines(history_path, [epoch_line(e) for e in history])

    summary_lines = [
        f"fold={fold}",
        f"epochs={train_cfg.epochs}",
        f"final_loss={_float_repr(history[-1].loss)}",
    ]
    if eval_records:
        final_metrics = history[-1].metrics
        if final_metrics is None:
            final_metrics = evaluate(params, eval_records)
        summary_lines.extend(metrics_lines(final_metrics))
    _write_lines(out_dir / "summary.txt", summary_lines)

    print(f"checkpoint={checkpoint_path}")
    print(f"history={history_path}")
    for line in summary_lines:
        print(line)
    print(f"time={time.perf_counter() - t0:.3f} total")
    return EXIT_OK


def cmd_eval(args) -> int:
    settings = _resolve(args)
    params = load_checkpoint(_require(settings, "checkpoint"))
    manifest = load_manifest(_require(settings, "manifest"))
    _check_channels(manifest, params.config)
    records = manifest.records
    folds, fold = settings.get("folds"), settings.get("fold")
    if (folds is None) != (fold is None):
        raise ConfigError("eval takes --folds and --fold together (config keys folds, fold), not one alone")
    if folds is not None:
        assignment = FoldAssignment.load(folds)
        _, records = assignment.split_records(manifest, int(fold))
    metrics = evaluate(params, records)
    print(f"scans={len(records)}")
    for line in metrics_lines(metrics):
        print(line)
    return EXIT_OK


def cmd_params(args) -> int:
    settings = _resolve(args)
    params = build(_config(MgNetConfig, settings, "seed_model"))
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
    manifest = load_manifest(_require(settings, "manifest"))
    # A fold count the dataset cannot split exits before any directory or output.
    assignment = stratified_group_kfold(manifest, settings["k"], settings["seed_split"])
    model_cfg = _config(MgNetConfig, settings, "seed_model")
    train_cfg = _config(TrainConfig, settings, "seed_train")
    _check_channels(manifest, model_cfg)
    out = settings.get("out")
    if out:
        Path(out).mkdir(parents=True, exist_ok=True)
    seed_lines = [
        f"seed_model={settings['seed_model']}",
        f"seed_train={settings['seed_train']}",
        f"seed_split={settings['seed_split']}",
    ]
    for line in seed_lines:
        print(line)
    t0 = time.perf_counter()
    result = cross_validate(model_cfg, manifest, assignment, train_cfg, workers=settings["workers"])
    report_lines = list(seed_lines)
    for fold, (metrics, loss) in enumerate(zip(result.fold_metrics, result.final_losses)):
        report_lines.append(f"fold={fold}")
        report_lines.append(f"final_loss={_float_repr(loss)}")
        report_lines.extend(metrics_lines(metrics))
    report_lines.append(f"folds={len(result.fold_metrics)}")
    report_lines.extend(_summary_lines(result.summary))
    for line in report_lines[len(seed_lines) :]:
        print(line)
    if out:
        report_path = Path(out) / "cv_report.txt"
        _write_lines(report_path, report_lines)
        print(f"report={report_path}")
    print(f"time={time.perf_counter() - t0:.3f} total")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="mgnet3d",
        description="Multigrid convolutional network for volumetric binary classification.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    train_keys = _field_keys(TrainConfig)
    commands = (
        ("synth", cmd_synth, "generate a synthetic labeled dataset", ("out", "seed_data")),
        ("split", cmd_split, "write a subject-grouped stratified fold assignment",
         ("manifest", "k", "seed_split", "out")),
        ("train", cmd_train, "train on all folds except one",
         ("manifest", "folds", "fold", "out", "seed_model", "seed_train", "epochs")),
        ("eval", cmd_eval, "evaluate a checkpoint on listed scans",
         ("checkpoint", "manifest", "folds", "fold")),
        ("params", cmd_params, "report the exact parameter count", ()),
        ("cv", cmd_cv, "run full cross-validation",
         ("manifest", "k", "out", "seed_model", "seed_train", "seed_split", "workers", "epochs")),
    )  # fmt: skip
    for name, func, help_text, keys in commands:
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--config", type=path_text, default=None, help="flat key=value configuration file")
        for key in keys:
            if key in train_keys:
                parse, flag_help = train_keys[key], f"training {key.replace('_', ' ')}"
            else:
                parse, _, flag_help = _PROTOCOL_KEYS[key]
            p.add_argument(_flag(key), type=parse, default=None, help=flag_help)
        if name in ("train", "params", "cv"):
            p.add_argument("--no-avg-pool", action="store_true", help="disable coarse-grid average pooling")
        if name == "synth":
            p.add_argument("--subjects-per-class", type=int, default=10)
            p.add_argument("--scans-per-subject", type=int, default=2)
            p.add_argument("--size", type=str, default="16", help="cubic extent N or DxHxW")
            p.add_argument("--effect-size", type=float, default=1.0)
            p.add_argument("--noise-std", type=float, default=0.1)
        p.set_defaults(func=func)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (MgnetError, OSError, MemoryError, OverflowError) as exc:
        print(f"error: {str(exc) or type(exc).__name__}", file=sys.stderr)
        return exc.exit_code if isinstance(exc, MgnetError) else EXIT_OS_ERROR


def entrypoint() -> None:
    raise SystemExit(main())
