"""The multigrid classification network.

A volume is lifted into a data map, then processed on a hierarchy of
grids. On each grid a few smoothing passes extract features by reducing
the residual between the data map and the operator applied to the
feature map; stride-2 transfer convolutions then move both maps to the
next coarser grid. The coarsest feature map is globally pooled and fed
to an affine softmax head.

Stride-1 kernels are 3x3x3, and conv3d pads them by one voxel so both
maps stay on their grid. The stride-2 grid-transfer kernels are 1x1x1
(pure channel reprojection); they produce the coarse extent ceil(n/2) of
``level_shapes``, as a padded 3x3x3 stride-2 convolution would, while
keeping the parameter budget well below a comparable 3D residual network.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields
from pathlib import Path
from typing import Iterator

import numpy as np

from .data import atomic_write
from .errors import ConfigError, FormatError
from .tensor import (
    Tensor,
    add,
    avg_pool3d,
    channel_norm,
    conv3d,
    global_avg_pool,
    linear,
    relu,
    sub,
)

__all__ = [
    "MgNetConfig",
    "MgNetParams",
    "build",
    "smooth",
    "restrict",
    "forward",
    "level_shapes",
    "param_count",
    "param_breakdown",
    "save_checkpoint",
    "load_checkpoint",
]

CHECKPOINT_MAGIC = b"MGN3"
CHECKPOINT_VERSION = 1
SMOOTHER_KERNEL_SIZE = 3
TRANSFER_KERNEL_SIZE = 1
# VOL3 extents are u32, and by level_shapes 32 transfers bring any of them
# to 1, so a grid past the 33rd would only repeat a 1x1x1 map.
MAX_GRIDS = 33
# The paper runs 2 smoothing passes per grid. Each pass adds a smoother
# kernel and two 3x3x3 convs per grid to every forward and keeps a feature
# map on the tape, so 64 passes is already 32x the paper's network per
# grid. A larger count is refused before `build` allocates a kernel per pass.
MAX_SMOOTHING_ITERS = 64


@dataclass(frozen=True)
class MgNetConfig:
    """Architecture hyperparameters, checked when the config is built.

    ``smoothing_iters`` may be one int (applied to every grid) or one int
    per grid; it is stored as one int per grid. ``feature_channels`` and
    ``data_channels`` must agree so the operator kernels can map between
    the two spaces on every grid.
    """

    num_grids: int = 5
    smoothing_iters: int | tuple[int, ...] = 2
    feature_channels: int = 128
    data_channels: int = 128
    input_channels: int = 1
    num_classes: int = 2
    use_avg_pool: bool = True
    use_channel_norm: bool = False
    seed: int = 0

    def __post_init__(self) -> None:
        # Checked before smoothing_iters is expanded to one int per grid.
        if not 1 <= self.num_grids <= MAX_GRIDS:
            raise ConfigError(f"num_grids must be from 1 to {MAX_GRIDS}, got {self.num_grids}")
        if isinstance(self.smoothing_iters, (int, np.integer)):
            iters = (int(self.smoothing_iters),) * int(self.num_grids)
        else:
            iters = tuple(int(v) for v in self.smoothing_iters)
        object.__setattr__(self, "smoothing_iters", iters)
        if len(self.smoothing_iters) != self.num_grids:
            raise ConfigError(
                f"smoothing_iters has {len(self.smoothing_iters)} entries for {self.num_grids} grids"
            )
        if any(not 1 <= v <= MAX_SMOOTHING_ITERS for v in self.smoothing_iters):
            raise ConfigError(
                f"smoothing_iters must all be from 1 to {MAX_SMOOTHING_ITERS}, got {self.smoothing_iters}"
            )
        for name in ("feature_channels", "data_channels", "input_channels", "num_classes"):
            if getattr(self, name) < 1:
                raise ConfigError(f"{name} must be >= 1, got {getattr(self, name)}")
        if self.feature_channels != self.data_channels:
            raise ConfigError(
                "feature_channels and data_channels must match: the operator kernels map "
                f"feature maps into data space on every grid (got {self.feature_channels} "
                f"and {self.data_channels})"
            )
        if self.seed < 0:
            raise ConfigError(f"seed must be non-negative, got {self.seed}")
        # build draws each tensor in float64; numpy cannot size a larger one.
        for name, shape, _ in _kernel_specs(self):
            if math.prod(shape) * 8 > np.iinfo(np.intp).max:
                raise ConfigError(f"{name} of shape {shape} is too large for numpy to allocate")


@dataclass
class MgNetParams:
    """Every learnable tensor, keyed by its ``_kernel_specs`` name, in that order."""

    config: MgNetConfig
    by_name: dict[str, Tensor]

    def named_tensors(self) -> Iterator[tuple[str, Tensor]]:
        return iter(self.by_name.items())

    def tensors(self) -> Iterator[Tensor]:
        return iter(self.by_name.values())


def _kernel_specs(config: MgNetConfig) -> Iterator[tuple[str, tuple[int, ...], int | None]]:
    """(name, shape, fan_in) per tensor in traversal order; fan_in None means zero-init.

    The only statement of the layout: ``MgNetParams`` keys, init draws,
    MGN3 order, SGD and counting follow it. The coarsest grid has no
    transfer kernels. Entries are yielded one at a time, so a reader can
    stop at the first one it cannot match.
    """
    cu, cf = config.feature_channels, config.data_channels
    k3, k1 = SMOOTHER_KERNEL_SIZE, TRANSFER_KERNEL_SIZE
    yield "input_kernel", (cf, config.input_channels, k3, k3, k3), config.input_channels * k3**3
    for i in range(1, config.num_grids + 1):
        yield f"level{i}.operator", (cf, cu, k3, k3, k3), cu * k3**3
        for j in range(1, config.smoothing_iters[i - 1] + 1):
            yield f"level{i}.smoother{j}", (cu, cf, k3, k3, k3), cf * k3**3
        if i < config.num_grids:
            yield f"level{i}.prolongation", (cu, cu, k1, k1, k1), cu * k1**3
            yield f"level{i}.restriction", (cf, cf, k1, k1, k1), cf * k1**3
    yield "head.weight", (config.num_classes, cu), cu
    yield "head.bias", (config.num_classes,), None


def build(config: MgNetConfig) -> MgNetParams:
    """Allocate and seed every learnable tensor.

    Kernels draw from U[-s, s] with s = sqrt(1 / fan_in) and fan_in =
    in_channels * kernel_volume; the head bias starts at zero. Draws
    happen in ``_kernel_specs`` order, so identical seeds give bitwise
    identical parameters.
    """
    rng = np.random.default_rng(config.seed)
    by_name = {}
    for name, shape, fan_in in _kernel_specs(config):
        if fan_in is None:
            values = np.zeros(shape, dtype=np.float32)
        else:
            bound = float(np.sqrt(1.0 / fan_in))
            values = rng.uniform(-bound, bound, size=shape).astype(np.float32)
        by_name[name] = Tensor(values, requires_grad=True)
    return MgNetParams(config, by_name)


def _activate(x: Tensor, use_channel_norm: bool) -> Tensor:
    return relu(channel_norm(x)) if use_channel_norm else relu(x)


def smooth(
    u: Tensor,
    f: Tensor,
    operator_kernel: Tensor,
    smoother_kernel: Tensor,
    use_channel_norm: bool = False,
) -> Tensor:
    """One smoothing pass: u + act(smoother * act(f - operator * u)).

    A zero residual is a strict fixed point: the activation zeroes it and
    the correction vanishes, returning u unchanged.
    """
    residual = sub(f, conv3d(u, operator_kernel))
    correction = conv3d(_activate(residual, use_channel_norm), smoother_kernel)
    return add(u, _activate(correction, use_channel_norm))


def restrict(
    u: Tensor,
    f: Tensor,
    operator: Tensor,
    prolongation: Tensor,
    restriction: Tensor,
    next_operator: Tensor,
    use_avg_pool: bool,
) -> tuple[Tensor, Tensor]:
    """Move the feature map and the data map to the next coarser grid.

    ``operator``, ``prolongation`` and ``restriction`` are this grid's
    kernels; ``next_operator`` is the coarser grid's operator kernel. The
    coarse data map is assembled from the pre-pooling coarse feature
    map; average pooling (when enabled) is applied afterwards. Both
    outputs share the coarse spatial shape.
    """
    u_coarse = conv3d(u, prolongation, stride=2)
    residual = sub(f, conv3d(u, operator))
    f_coarse = add(
        conv3d(residual, restriction, stride=2),
        conv3d(u_coarse, next_operator),
    )
    if use_avg_pool:
        u_coarse = avg_pool3d(u_coarse)
    return u_coarse, f_coarse


def level_shapes(config: MgNetConfig, spatial) -> list[tuple[int, int, int]]:
    """Spatial extents on each grid, finest to coarsest: each transfer
    halves every extent, rounding up."""
    shapes = [tuple(int(n) for n in spatial)]
    for _ in range(1, config.num_grids):
        shapes.append(tuple((n + 1) // 2 for n in shapes[-1]))
    return shapes


def forward(params: MgNetParams, volume: Tensor) -> Tensor:
    """Run the full multigrid pass and return class logits."""
    cfg = params.config
    p = params.by_name
    f = _activate(conv3d(volume, p["input_kernel"]), cfg.use_channel_norm)
    # MgNet starts from u0 = 0. The first pass's residual f - A*u0 is then f
    # exactly and u0 + v is v, so that pass runs without the operator conv.
    # A one-grid, one-pass network reads its operator nowhere else; it keeps
    # the conv so the kernel still receives its (zero) gradient.
    u = None
    if cfg.num_grids == 1 and cfg.smoothing_iters[0] == 1:
        u = Tensor(
            np.zeros((cfg.feature_channels,) + volume.shape[1:], dtype=volume.data.dtype),
            dtype=volume.data.dtype,
        )
    for i in range(1, cfg.num_grids + 1):
        operator = p[f"level{i}.operator"]
        for j in range(1, cfg.smoothing_iters[i - 1] + 1):
            smoother = p[f"level{i}.smoother{j}"]
            if u is None:
                v = conv3d(_activate(f, cfg.use_channel_norm), smoother)
                u = _activate(v, cfg.use_channel_norm)
            else:
                u = smooth(u, f, operator, smoother, cfg.use_channel_norm)
        if i < cfg.num_grids:
            u, f = restrict(
                u, f, operator, p[f"level{i}.prolongation"], p[f"level{i}.restriction"],
                p[f"level{i + 1}.operator"], cfg.use_avg_pool,
            )
    return linear(global_avg_pool(u), p["head.weight"], p["head.bias"])


def param_count(params: MgNetParams) -> int:
    """Exact number of learnable scalars."""
    return sum(t.size for t in params.tensors())


def param_breakdown(params: MgNetParams) -> list[tuple[str, int]]:
    """Subtotals per component: input kernel, each level, head."""
    groups: dict[str, int] = {}
    for name, t in params.named_tensors():
        key = name.split(".")[0] if name.startswith(("level", "head")) else name
        groups[key] = groups.get(key, 0) + t.size
    return list(groups.items())


def _parse_bool(text: str) -> bool:
    lowered = text.strip().lower()
    if lowered in ("1", "true", "yes", "on"):
        return True
    if lowered in ("0", "false", "no", "off"):
        return False
    raise ConfigError(f"expected a boolean, got {text!r}")


def _parse_iters(text: str) -> int | tuple[int, ...]:
    values = tuple(int(p) for p in text.split(","))
    return values[0] if len(values) == 1 else values


# A config field's annotation (a string under postponed evaluation) picks
# how its value is read from and written to key=value text.
_VALUE_CODECS = {
    "int": (int, str),
    "float": (float, str),
    "bool": (_parse_bool, lambda v: str(int(v))),
    "int | tuple[int, ...]": (_parse_iters, lambda v: ",".join(str(i) for i in v)),
}


def field_parsers(cls) -> dict:
    """Value parser per field of a config dataclass, in field order."""
    return {f.name: _VALUE_CODECS[f.type][0] for f in fields(cls)}


def parse_key_values(text: str, schema: dict, where: str) -> Iterator[tuple[int, str, object]]:
    """Yield (line number, key, parsed value) per ``key=value`` line of text.

    ``#`` starts a comment, blank lines are skipped and both sides are
    stripped. A line without ``=``, a key missing from ``schema``, a key
    seen before or a value its parser rejects raises ConfigError prefixed
    with ``where`` and the line number.
    """
    seen = set()
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"{where}{lineno}: expected key=value, got {raw!r}")
        key, value = (part.strip() for part in line.split("=", 1))
        if key not in schema:
            raise ConfigError(f"{where}{lineno}: unknown config key {key!r}")
        if key in seen:
            raise ConfigError(f"{where}{lineno}: duplicate key {key!r}")
        seen.add(key)
        try:
            parsed = schema[key](value)
        except ConfigError:
            raise
        except ValueError:
            raise ConfigError(f"{where}{lineno}: bad value {value!r} for key {key!r}") from None
        yield lineno, key, parsed


def _config_to_bytes(config: MgNetConfig) -> bytes:
    lines = [f"{f.name}={_VALUE_CODECS[f.type][1](getattr(config, f.name))}" for f in fields(config)]
    return ("\n".join(lines) + "\n").encode("utf-8")


def _config_from_bytes(blob: bytes) -> MgNetConfig:
    schema = field_parsers(MgNetConfig)
    try:
        values = {key: value for _, key, value in parse_key_values(blob.decode("utf-8"), schema, "line ")}
        if values.keys() != schema.keys():
            raise ConfigError(f"missing keys {sorted(schema.keys() - values.keys())}")
        return MgNetConfig(**values)
    except UnicodeDecodeError as exc:
        raise FormatError(f"checkpoint config block is not UTF-8: {exc}") from None
    except ConfigError as exc:
        raise FormatError(f"invalid checkpoint config: {exc}") from None


def save_checkpoint(params: MgNetParams, path) -> None:
    """Serialize parameters: magic, version, config block, then each tensor
    as (rank u32, extents u32 x rank, little-endian f32 payload) in
    ``named_tensors`` order."""
    with atomic_write(path) as fh:
        fh.write(CHECKPOINT_MAGIC)
        fh.write(np.asarray([CHECKPOINT_VERSION], dtype="<u4").tobytes())
        blob = _config_to_bytes(params.config)
        fh.write(np.asarray([len(blob)], dtype="<u4").tobytes())
        fh.write(blob)
        for _, t in params.named_tensors():
            fh.write(np.asarray([t.ndim], dtype="<u4").tobytes())
            fh.write(np.asarray(t.shape, dtype="<u4").tobytes())
            fh.write(t.data.astype("<f4", copy=False).tobytes())


def load_checkpoint(path) -> MgNetParams:
    """Read a checkpoint, validating magic, version, and structural
    consistency with the embedded config."""
    raw = Path(path).read_bytes()
    pos = 0

    def take(n: int, what: str) -> bytes:
        nonlocal pos
        if pos + n > len(raw):
            raise FormatError(f"{path}: truncated while reading {what}")
        chunk = raw[pos : pos + n]
        pos += n
        return chunk

    magic = take(4, "magic")
    if magic != CHECKPOINT_MAGIC:
        raise FormatError(f"{path}: bad magic {magic!r}, expected {CHECKPOINT_MAGIC!r}")
    version = int(np.frombuffer(take(4, "version"), dtype="<u4")[0])
    if version != CHECKPOINT_VERSION:
        raise FormatError(f"{path}: unsupported checkpoint version {version}")
    blob_len = int(np.frombuffer(take(4, "config length"), dtype="<u4")[0])
    config = _config_from_bytes(take(blob_len, "config block"))

    by_name = {}
    for name, shape, _ in _kernel_specs(config):
        rank = int(np.frombuffer(take(4, f"{name} rank"), dtype="<u4")[0])
        if rank != len(shape):
            raise FormatError(f"{path}: tensor {name} has rank {rank}, expected {len(shape)}")
        extents = tuple(int(v) for v in np.frombuffer(take(4 * rank, f"{name} extents"), dtype="<u4"))
        if extents != shape:
            raise FormatError(f"{path}: tensor {name} has shape {extents}, expected {shape}")
        count = math.prod(shape)
        payload = take(4 * count, f"{name} payload")
        data = np.frombuffer(payload, dtype="<f4").reshape(shape).copy()
        if not np.isfinite(data).all():
            raise FormatError(f"{path}: tensor {name} contains non-finite values")
        by_name[name] = Tensor(data, requires_grad=True)
    if pos != len(raw):
        raise FormatError(f"{path}: {len(raw) - pos} trailing bytes after last tensor")
    return MgNetParams(config, by_name)
