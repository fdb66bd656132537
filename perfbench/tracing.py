"""Traced CLI run: wrap the public functions of each mgnet3d layer in spans.

Run as ``python3 perfbench/tracing.py SPANS.json -- <mgnet3d CLI arguments>``
with ``src`` on ``PYTHONPATH``. The program itself is not modified: the
wrappers replace module attributes at the places the program looks them
up (the tensor ops as bound in ``mgnet3d.model`` and ``mgnet3d.training``,
the model, data, training and metrics functions as bound in their
callers). Spans are kept in memory and written to SPANS.json when the
command ends; the process exits with the command's exit code.

Backward time is attributed per op by wrapping the adjoint of every op on
the tape that ``record()`` yields. Each recorded step becomes a
``training.step`` span that opens with the tape and closes when the SGD
step returns. Grid levels are inferred from spatial shape.
"""

from __future__ import annotations

import functools
import json
import os
import statistics
import sys
import time
from contextlib import contextmanager
from pathlib import Path

# The benchmark's own modules sit next to this file.
sys.path.insert(0, str(Path(__file__).resolve().parent))

from stats import conv3d_cost, nearest_rank, self_times, tail_percentile  # noqa: E402

# Tape adjoints are closures named after the op that made them; these map
# op names to the groups the per-layer metrics report.
_OP_GROUPS = {
    "relu": "pointwise",
    "add": "pointwise",
    "sub": "pointwise",
    "scale": "pointwise",
    "channel_norm": "pointwise",
    "mean_scalars": "pointwise",
    "avg_pool3d": "avg_pool3d",
    "global_avg_pool": "head",
    "linear": "head",
    "softmax_cross_entropy": "head",
}
_MODEL_OPS = ("relu", "add", "sub", "channel_norm", "avg_pool3d", "global_avg_pool", "linear")
_TRAINING_OPS = ("softmax_cross_entropy", "mean_scalars")

MAX_LEVELS = 5


class Tracer:
    """Spans as [name, start, end, parent index or -1, attrs]."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.levels: dict[tuple, int] = {}
        self.step: int | None = None

    def open(self, name: str, attrs: dict | None = None) -> int:
        idx = len(self.spans)
        parent = self.stack[-1] if self.stack else -1
        self.spans.append([name, time.perf_counter(), None, parent, attrs or {}])
        self.stack.append(idx)
        return idx

    def close(self, idx: int) -> None:
        self.spans[idx][2] = time.perf_counter()
        if self.stack.pop() != idx:
            raise RuntimeError(f"span {self.spans[idx][0]} closed out of order")

    @contextmanager
    def span(self, name: str, attrs: dict | None = None):
        idx = self.open(name, attrs)
        try:
            yield
        finally:
            self.close(idx)

    def level(self, spatial) -> int:
        return self.levels.get(tuple(spatial), 0)

    def conv_attrs(self, x, kernel, stride: int, padding: int) -> dict:
        k = kernel.shape[2]
        return {
            "kind": "conv3d_k3" if k == 3 and stride == 1 else f"conv3d_k{k}s{stride}",
            "level": self.level(x.shape[1:]),
            "x": list(x.shape),
            "k": list(kernel.shape),
            "stride": stride,
            "padding": padding,
            "x_grad": bool(x.requires_grad),
        }

    def write(self, path) -> None:
        Path(path).write_text(json.dumps({"spans": self.spans}))


def _wrap(module, name: str, span_name: str, tracer: Tracer, attrs=None) -> None:
    fn = getattr(module, name)

    @functools.wraps(fn)
    def traced(*args, **kwargs):
        idx = tracer.open(span_name, attrs(*args, **kwargs) if attrs else None)
        try:
            return fn(*args, **kwargs)
        finally:
            tracer.close(idx)

    setattr(module, name, traced)


def install(tracer: Tracer) -> None:
    """Replace the public functions of every layer with span-recording wrappers."""
    import mgnet3d.cli as cli
    import mgnet3d.model as model
    import mgnet3d.training as training

    def conv_attrs(x, kernel, stride=1, padding=1):
        return dict(tracer.conv_attrs(x, kernel, stride, padding), dir="fwd")

    def fwd_attrs(*args, **kwargs):
        return {"dir": "fwd"}

    _wrap(model, "conv3d", "tensor.conv3d", tracer, conv_attrs)
    for name in _MODEL_OPS:
        _wrap(model, name, f"tensor.{name}", tracer, fwd_attrs)
    for name in _TRAINING_OPS:
        _wrap(training, name, f"tensor.{name}", tracer, fwd_attrs)
    _wrap(training, "backward", "tensor.backward", tracer)
    _wrap(model, "smooth", "model.smooth", tracer, lambda u, *a, **k: {"level": tracer.level(u.shape[1:])})
    _wrap(model, "restrict", "model.restrict", tracer, lambda u, *a, **k: {"level": tracer.level(u.shape[1:])})

    def forward_attrs(params, volume, *a, **k):
        shapes = model.level_shapes(params.config, volume.shape[1:])
        tracer.levels = {shape: i for i, shape in enumerate(shapes, start=1)}
        return None

    _wrap(training, "forward", "model.forward", tracer, forward_attrs)
    _wrap(cli, "save_checkpoint", "model.save_checkpoint", tracer)
    _wrap(training, "load_volume", "data.load_volume", tracer, lambda path: {"bytes": os.path.getsize(path)})
    _wrap(training, "normalize", "data.normalize", tracer)
    _wrap(training, "compute_metrics", "metrics.compute_metrics", tracer)
    for module in (cli, training):
        _wrap(module, "train", "training.train", tracer)
        _wrap(module, "evaluate", "training.evaluate", tracer)
    _wrap(cli, "main", "cli.main", tracer)

    real_record = training.record
    real_sgd_step = training.sgd_step

    @contextmanager
    def record():
        tracer.step = tracer.open("training.step")
        with real_record() as tape:
            yield tape
        # A child span, so the tracer's own bookkeeping stays out of the
        # step's self time.
        with tracer.span("trace.wrap_tape"):
            out_bytes = sum(op.out.data.nbytes for op in tape.ops)
            tracer.spans[tracer.step][4].update(tape_ops=len(tape.ops), tape_bytes=out_bytes)
            for i, op in enumerate(tape.ops):
                tape.ops[i] = op._replace(adjoint=_timed_adjoint(tracer, op))

    def sgd_step(params, lr):
        with tracer.span("tensor.sgd_step"):
            real_sgd_step(params, lr)
        if tracer.step is not None:
            tracer.close(tracer.step)
            tracer.step = None

    training.record = record
    training.sgd_step = sgd_step


def _timed_adjoint(tracer: Tracer, op):
    name = op.adjoint.__qualname__.split(".")[0]
    if name == "conv3d":
        x, kernel = op.inputs
        stride = 1 if x.shape[1:] == op.out.shape[1:] else 2
        attrs = tracer.conv_attrs(x, kernel, stride, 1 if kernel.shape[2] == 3 else 0)
    else:
        attrs = {}
    attrs.update(dir="bwd")
    adjoint = op.adjoint

    def timed(g):
        with tracer.span(f"tensor.{name}", attrs):
            adjoint(g)

    return timed


# --- aggregation -----------------------------------------------------------


def _ms(seconds: float) -> float:
    return seconds * 1e3


def _median_ms(durations) -> float:
    return _ms(statistics.median(durations)) if durations else 0.0


def layer_metrics(spans: list[list], host: dict) -> dict[str, float]:
    """Per-layer metrics of one traced command from its spans.

    ``host`` carries the measured roofline references ``gemm_gflops`` and
    ``copy_gbps``. Metrics of layers that did not run are reported as 0.
    """
    durations = [s[2] - s[1] for s in spans]
    selfs = self_times([(s[1], s[2], s[3]) for s in spans])
    by_name: dict[str, list[int]] = {}
    for i, s in enumerate(spans):
        by_name.setdefault(s[0], []).append(i)

    def dur(name, pred=lambda a: True):
        return [durations[i] for i in by_name.get(name, []) if pred(spans[i][4])]

    forwards = len(by_name.get("model.forward", []))
    per_scan = max(forwards, 1)
    out: dict[str, float] = {}

    convs = by_name.get("tensor.conv3d", [])
    first_conv = convs[0] if convs else None
    out["tensor.conv3d.calls"] = sum(1 for i in convs if spans[i][4]["dir"] == "fwd")
    out["tensor.first_call_ms"] = _ms(durations[first_conv]) if first_conv is not None else 0.0
    for kind, levels in (("conv3d_k3", MAX_LEVELS), ("conv3d_k1s2", MAX_LEVELS - 1)):
        for direction in ("fwd", "bwd"):
            for level in range(1, levels + 1):
                picked = [
                    i
                    for i in convs
                    if spans[i][4]["kind"] == kind
                    and spans[i][4]["level"] == level
                    and spans[i][4]["dir"] == direction
                ]
                out[f"tensor.{kind}.{direction}_ms.l{level}"] = _median_ms([durations[i] for i in picked])
                if kind != "conv3d_k3":
                    continue
                flops = nbytes = seconds = 0.0
                for i in picked:
                    if i == first_conv:
                        continue  # carries the one-off BLAS start-up
                    a = spans[i][4]
                    cost = conv3d_cost(a["x"], a["k"], a["stride"], a["padding"], a["x_grad"])
                    flops += cost[f"{direction}_flops"]
                    nbytes += cost[f"{direction}_bytes"]
                    seconds += durations[i]
                gflops = flops / seconds / 1e9 if seconds else 0.0
                out[f"tensor.{kind}.{direction}_gflops.l{level}"] = gflops
                # Roofline bound: the lower of the GEMM probe and copy
                # bandwidth times the computed operations per byte.
                bound = min(host["gemm_gflops"], host["copy_gbps"] * flops / nbytes) if nbytes else 0.0
                out[f"tensor.{kind}.{direction}_roofline_frac.l{level}"] = gflops / bound if bound else 0.0
                if direction == "fwd":
                    out[f"tensor.{kind}.ops_per_byte.l{level}"] = flops / nbytes if nbytes else 0.0

    for group in ("pointwise", "avg_pool3d", "head"):
        names = [f"tensor.{op}" for op, g in _OP_GROUPS.items() if g == group]
        for direction in ("fwd", "bwd"):
            total = sum(sum(dur(n, lambda a: a.get("dir") == direction)) for n in names)
            out[f"tensor.{group}.{direction}_ms"] = _ms(total) / per_scan
    out["tensor.backward_ms"] = _median_ms(dur("tensor.backward"))
    out["tensor.sgd_step_ms"] = _median_ms(dur("tensor.sgd_step"))
    steps = by_name.get("training.step", [])
    out["tensor.tape_ops"] = statistics.median([spans[i][4]["tape_ops"] for i in steps]) if steps else 0
    out["tensor.tape_mb"] = (
        statistics.median([spans[i][4]["tape_bytes"] for i in steps]) / 2**20 if steps else 0.0
    )

    out["model.forward_ms"] = _median_ms(dur("model.forward"))
    for level in range(1, MAX_LEVELS + 1):
        out[f"model.smooth_ms.l{level}"] = _median_ms(dur("model.smooth", lambda a: a["level"] == level))
    for level in range(1, MAX_LEVELS):
        out[f"model.restrict_ms.l{level}"] = _median_ms(dur("model.restrict", lambda a: a["level"] == level))
    out["model.checkpoint_save_ms"] = _median_ms(dur("model.save_checkpoint"))

    loads = by_name.get("data.load_volume", [])
    out["data.load_volume_ms"] = _median_ms(dur("data.load_volume"))
    out["data.load_volume_mb"] = sum(spans[i][4]["bytes"] for i in loads) / 2**20
    out["data.normalize_ms"] = _median_ms(dur("data.normalize"))
    out["data.cache_hit_ratio"] = 1.0 - len(loads) / forwards if forwards else 0.0

    step_ms = [_ms(durations[i]) for i in steps]
    out["training.step_count"] = len(step_ms)
    out["training.step_ms_p50"] = nearest_rank(sorted(step_ms), 50.0)[0] if step_ms else 0.0
    pct, tail = tail_percentile(step_ms) if step_ms else (0.0, 0.0)
    out["training.step_ms_ptail"] = tail
    out["training.step_ptail_pct"] = pct
    out["training.loop_self_ms"] = statistics.median([_ms(selfs[i]) for i in steps]) if steps else 0.0
    out["training.train_s"] = sum(dur("training.train"))
    out["training.evaluate_s"] = sum(dur("training.evaluate"))

    out["metrics.compute_metrics_ms"] = _median_ms(dur("metrics.compute_metrics"))
    out["cli.self_ms"] = sum(_ms(selfs[i]) for i in by_name.get("cli.main", []))
    return out


def main(argv: list[str]) -> int:
    if len(argv) < 2 or argv[1] != "--":
        print("usage: tracing.py SPANS.json -- <mgnet3d CLI arguments>", file=sys.stderr)
        return 2
    tracer = Tracer()
    install(tracer)
    import mgnet3d.cli as cli

    try:
        return cli.main(argv[2:])
    finally:
        tracer.write(argv[0])


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
