"""Dense tensors with reverse-mode automatic differentiation.

Feature maps are stored channels-first as ``[channels, depth, height,
width]`` and convolution kernels as ``[out_channels, in_channels, kd, kh,
kw]``. Values are float32 by default; float64 tensors run the exact same
code paths so numerical oracles can check gradients at higher precision.

Differentiation is driven by an execution tape: :func:`record` opens a
tape, every operation that touches a gradient-requiring tensor appends
its adjoint closure, and :func:`backward` replays the tape in exact
reverse execution order. A tensor consumed by several operations
accumulates one adjoint contribution per consumer.

All operations are deterministic: each output element is produced by a
fixed reduction order, so identical inputs give bitwise-identical
outputs.
"""

from __future__ import annotations

import threading
from contextlib import contextmanager
from typing import Callable, Iterable, NamedTuple, Sequence

import numpy as np

from .errors import ArgumentError, ShapeError, StateError

__all__ = [
    "Tensor",
    "Tape",
    "record",
    "no_grad",
    "backward",
    "sgd_step",
    "conv3d",
    "conv_output_extent",
    "relu",
    "add",
    "sub",
    "scale",
    "avg_pool3d",
    "global_avg_pool",
    "linear",
    "softmax_cross_entropy",
    "channel_norm",
    "reduce_sum",
    "weighted_sum",
    "mean_scalars",
]


class Tensor:
    """A dense multi-axis array, optionally tracked for differentiation."""

    __slots__ = ("data", "grad", "requires_grad", "_tape")

    def __init__(self, data, requires_grad: bool = False, dtype=np.float32):
        self.data = np.asarray(data, dtype=dtype)
        self.grad: np.ndarray | None = None
        self.requires_grad = bool(requires_grad)
        self._tape: Tape | None = None

    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    @property
    def ndim(self) -> int:
        return self.data.ndim

    @property
    def size(self) -> int:
        return self.data.size

    @property
    def dtype(self) -> np.dtype:
        return self.data.dtype

    def item(self) -> float:
        if self.data.size != 1:
            raise ArgumentError(f"item() needs a single-element tensor, got shape {self.shape}")
        return float(self.data.reshape(())[()])

    def __repr__(self) -> str:
        flag = ", requires_grad=True" if self.requires_grad else ""
        return f"Tensor(shape={self.shape}, dtype={self.data.dtype}{flag})"


class _TapeOp(NamedTuple):
    out: Tensor
    inputs: tuple[Tensor, ...]
    adjoint: Callable[[np.ndarray], None]


class Tape:
    """Ordered record of executed operations.

    ``ops`` grows in execution order; :meth:`backward` walks it strictly in
    reverse, so every consumer of a tensor propagates its adjoint before
    the producer runs.
    """

    def __init__(self) -> None:
        self.ops: list[_TapeOp] = []

    def backward(self, root: Tensor) -> None:
        if root.data.size != 1:
            raise ArgumentError(f"backward root must be a scalar, got shape {root.shape}")
        root.grad = np.ones_like(root.data)
        for op in reversed(self.ops):
            if op.out.grad is not None:
                op.adjoint(op.out.grad)
        # Tensors that fed recorded operations but lie off the path to the
        # root still finish with a concrete zero gradient. Each output also
        # lets go of this tape: output -> tape -> op -> output is a cycle, and
        # breaking it frees the tape and every activation it saved as soon
        # as the caller drops the root, not at the next cyclic collection.
        for op in self.ops:
            for t in op.inputs:
                if t.requires_grad and t.grad is None:
                    t.grad = np.zeros_like(t.data)
            op.out._tape = None


# Recording context is per thread, so parallel workers (e.g. concurrent
# cross-validation folds) never see each other's tapes.
_tls = threading.local()


def _tape_stack() -> list[Tape | None]:
    stack = getattr(_tls, "stack", None)
    if stack is None:
        stack = _tls.stack = []
    return stack


def _active_tape() -> Tape | None:
    stack = _tape_stack()
    return stack[-1] if stack else None


@contextmanager
def record():
    """Open a fresh tape; operations inside are recorded for backward()."""
    tape = Tape()
    stack = _tape_stack()
    stack.append(tape)
    try:
        yield tape
    finally:
        stack.pop()


@contextmanager
def no_grad():
    """Disable recording inside an enclosing record() block."""
    stack = _tape_stack()
    stack.append(None)
    try:
        yield
    finally:
        stack.pop()


def backward(loss: Tensor) -> None:
    """Populate ``grad`` on every tensor the recorded graph reaches from ``loss``.

    Gradient buffers accumulate, so a tensor consumed by k operations ends
    with the sum of k adjoint contributions. Tensors that fed the tape but
    do not influence the loss end with an explicit zero gradient. A tape
    runs once; afterwards it is freed together with the root.
    """
    if loss.data.size != 1:
        raise ArgumentError(f"backward root must be a scalar, got shape {loss.shape}")
    tape = loss._tape
    if tape is None:
        raise ArgumentError("backward root was not produced under record(), or its tape has run")
    tape.backward(loss)


def _attach(out: Tensor, inputs: Sequence[Tensor], adjoint: Callable[[np.ndarray], None]) -> Tensor:
    tape = _active_tape()
    if tape is not None and any(t.requires_grad for t in inputs):
        out.requires_grad = True
        out._tape = tape
        tape.ops.append(_TapeOp(out, tuple(inputs), adjoint))
    return out


def _accumulate(t: Tensor, g: np.ndarray) -> None:
    if t.grad is None:
        t.grad = np.zeros_like(t.data)
    t.grad += g


def conv_output_extent(n: int, kernel: int, stride: int, padding: int) -> int:
    """Output length along one axis: floor((n + 2*padding - kernel)/stride) + 1."""
    return (n + 2 * padding - kernel) // stride + 1


def conv3d(x: Tensor, kernel: Tensor, stride: int = 1, padding: int = 1) -> Tensor:
    """Cross-correlate a ``[c_in,D,H,W]`` map with a ``[c_out,c_in,k,k,k]`` kernel.

    Zero padding of width ``padding`` is applied on every spatial face.
    Each output voxel is the exact triple sum over the k**3 neighborhood,
    with zeros outside bounds. Differentiable with respect to both the
    input and the kernel.
    """
    if x.ndim != 4:
        raise ShapeError(f"conv3d input must be [c,D,H,W], got shape {x.shape}")
    if kernel.ndim != 5:
        raise ShapeError(f"conv3d kernel must be [c_out,c_in,kd,kh,kw], got shape {kernel.shape}")
    c_out, kc, kd, kh, kw = kernel.shape
    if not (kd == kh == kw):
        raise ShapeError(f"conv3d kernel must be cubic, got shape {kernel.shape}")
    if stride not in (1, 2):
        raise ArgumentError(f"conv3d stride must be 1 or 2, got {stride}")
    if padding < 0:
        raise ArgumentError(f"conv3d padding must be >= 0, got {padding}")
    c_in, d, h, w = x.shape
    if kc != c_in:
        raise ShapeError(f"kernel expects {kc} input channels, input has {c_in}")
    out_sp = tuple(conv_output_extent(n, kd, stride, padding) for n in (d, h, w))
    if min(out_sp) < 1:
        raise ShapeError(f"conv3d output extent would be non-positive: {out_sp} from input {x.shape}")

    xp = np.pad(x.data, ((0, 0),) + ((padding, padding),) * 3) if padding else x.data
    kdata = kernel.data
    dtype = x.data.dtype
    offsets = [(a, b, c) for a in range(kd) for b in range(kh) for c in range(kw)]

    def tap(arr: np.ndarray, a: int, b: int, c: int) -> np.ndarray:
        return arr[
            :,
            a : a + stride * (out_sp[0] - 1) + 1 : stride,
            b : b + stride * (out_sp[1] - 1) + 1 : stride,
            c : c + stride * (out_sp[2] - 1) + 1 : stride,
        ]

    # The engine runs a stride-1 convolution on ``src`` and keeps every
    # ``step``-th output. A 1x1x1 kernel reads only the voxels it outputs,
    # so it subsamples its input instead and runs on the coarse grid.
    if kd == 1:
        src, step = np.ascontiguousarray(tap(xp, 0, 0, 0)), 1
    else:
        src, step = xp, stride
    sd, sh, sw = src.shape[1:]
    full = (sd - kd + 1, sh - kh + 1, sw - kw + 1)
    # Output voxel (i, j, l) sits at flat index q = i*sh*sw + j*sw + l of a
    # buffer laid out on src's H x W plane, and tap (a, b, c) reads src's
    # flat index q + shift. Each tap is then one GEMM on a contiguous window
    # of the flattened map; the window's columns with j or l past the
    # output extent wrap across rows and are cropped away.
    n = (full[0] - 1) * sh * sw + (full[1] - 1) * sw + full[2]
    shifts = [a * sh * sw + b * sw + c for a, b, c in offsets]

    def crop(buf: np.ndarray) -> np.ndarray:
        grid = buf.reshape(buf.shape[0], full[0], sh, sw)
        return grid[:, ::step, : full[1] : step, : full[2] : step]

    # Taps are summed in offsets order, and each tap's product is one GEMM
    # over the input channels: the float32 sums of a per-tap loop over
    # strided copies, so the outputs agree bit for bit. That loop starts
    # from zeros; adding +0 at the crop turns the -0 a first product can
    # leave into its +0 and changes nothing else. numpy's matmul has no
    # BLAS path for an inner extent of 1; a broadcast product rounds the
    # same single term.
    xf = src.reshape(c_in, -1)
    fwd_product = np.multiply if c_in == 1 else np.matmul
    taps = kdata.transpose(2, 3, 4, 0, 1).reshape(len(offsets), c_out, c_in).copy()
    acc = np.empty((c_out, full[0] * sh * sw), dtype=dtype)
    fwd_product(taps[0], xf[:, :n], out=acc[:, :n])
    part = np.empty((c_out, n), dtype=dtype)
    for t, s in enumerate(shifts[1:], start=1):
        fwd_product(taps[t], xf[:, s : s + n], out=part)
        acc[:, :n] += part
    result = Tensor(crop(acc) + dtype.type(0), dtype=dtype)

    def adjoint(g: np.ndarray) -> None:
        if kernel.requires_grad:
            gk = np.empty_like(kdata)
            for a, b, c in offsets:
                gk[:, :, a, b, c] = np.tensordot(g, tap(xp, a, b, c), axes=([1, 2, 3], [1, 2, 3]))
            _accumulate(kernel, gk)
        if x.requires_grad:
            # The output gradient on the flat layout, zero on the columns the
            # crop drops (wrapped ones, and the odd ones of stride 2) so that
            # they add exact zeros. A 1x1x1 kernel's crop keeps every column.
            if g.shape[1:] == (full[0], sh, sw):
                g_ext = g.reshape(c_out, -1)
            else:
                g_ext = np.zeros((c_out, full[0] * sh * sw), dtype=g.dtype)
                crop(g_ext)[...] = g
            taps_t = kdata.transpose(2, 3, 4, 1, 0).reshape(len(offsets), c_in, c_out).copy()
            bwd_product = np.multiply if c_out == 1 else np.matmul
            gsrc = np.zeros((c_in, sd * sh * sw), dtype=g.dtype)
            bwd_product(taps_t[0], g_ext[:, :n], out=gsrc[:, :n])
            part = np.empty((c_in, n), dtype=g.dtype)
            for t, s in enumerate(shifts[1:], start=1):
                bwd_product(taps_t[t], g_ext[:, :n], out=part)
                gsrc[:, s : s + n] += part
            gsrc = gsrc.reshape(c_in, sd, sh, sw)
            if kd == 1 and not padding:
                # A grid transfer read a strided subset of x: add into those
                # voxels, not through a zero-filled buffer of the fine grid.
                if x.grad is None:
                    x.grad = np.zeros_like(x.data)
                tap(x.grad, 0, 0, 0)[...] += gsrc
                return
            if kd == 1:
                gxp = np.zeros_like(xp)
                tap(gxp, 0, 0, 0)[...] += gsrc
            else:
                gxp = gsrc
            if padding:
                gxp = gxp[:, padding : padding + d, padding : padding + h, padding : padding + w]
            _accumulate(x, gxp)

    return _attach(result, (x, kernel), adjoint)


def relu(x: Tensor) -> Tensor:
    """Elementwise max(x, 0); the adjoint passes gradient only where x > 0."""
    out = Tensor(np.maximum(x.data, 0), dtype=x.data.dtype)

    def adjoint(g: np.ndarray) -> None:
        _accumulate(x, g * (x.data > 0))

    return _attach(out, (x,), adjoint)


def add(a: Tensor, b: Tensor) -> Tensor:
    if a.shape != b.shape:
        raise ShapeError(f"add needs matching shapes, got {a.shape} and {b.shape}")
    out = Tensor(a.data + b.data, dtype=a.data.dtype)

    def adjoint(g: np.ndarray) -> None:
        if a.requires_grad:
            _accumulate(a, g)
        if b.requires_grad:
            _accumulate(b, g)

    return _attach(out, (a, b), adjoint)


def sub(a: Tensor, b: Tensor) -> Tensor:
    if a.shape != b.shape:
        raise ShapeError(f"sub needs matching shapes, got {a.shape} and {b.shape}")
    out = Tensor(a.data - b.data, dtype=a.data.dtype)

    def adjoint(g: np.ndarray) -> None:
        if a.requires_grad:
            _accumulate(a, g)
        if b.requires_grad:
            _accumulate(b, -g)

    return _attach(out, (a, b), adjoint)


def scale(x: Tensor, factor: float) -> Tensor:
    """Multiply by a plain scalar constant."""
    out = Tensor(x.data * factor, dtype=x.data.dtype)

    def adjoint(g: np.ndarray) -> None:
        _accumulate(x, g * factor)

    return _attach(out, (x,), adjoint)


_POOL_COUNT_CACHE: dict[tuple, np.ndarray] = {}


def _axis_window_sizes(n: int) -> np.ndarray:
    idx = np.arange(n)
    lo = np.maximum(idx - 1, 0)
    hi = np.minimum(idx + 1, n - 1)
    return (hi - lo + 1).astype(np.float64)


def _pool_counts(spatial: tuple[int, int, int], dtype) -> np.ndarray:
    key = (*spatial, np.dtype(dtype).str)
    cached = _POOL_COUNT_CACHE.get(key)
    if cached is None:
        sd, sh, sw = (_axis_window_sizes(n) for n in spatial)
        cached = (sd[:, None, None] * sh[None, :, None] * sw[None, None, :]).astype(dtype)
        _POOL_COUNT_CACHE[key] = cached
    return cached


def _box_sum(arr: np.ndarray) -> np.ndarray:
    """Sum of the 3x3x3 neighborhood around each voxel, zeros outside bounds."""
    _, d, h, w = arr.shape
    ap = np.pad(arr, ((0, 0), (1, 1), (1, 1), (1, 1)))
    out = np.zeros_like(arr)
    for a in range(3):
        for b in range(3):
            for c in range(3):
                out += ap[:, a : a + d, b : b + h, c : c + w]
    return out


def avg_pool3d(x: Tensor) -> Tensor:
    """Shape-preserving 3x3x3 mean with stride 1.

    Each output voxel averages only its in-bounds neighbors (the divisor
    is the count of valid elements), so constant maps are fixed points.
    """
    if x.ndim != 4:
        raise ShapeError(f"avg_pool3d input must be [c,D,H,W], got shape {x.shape}")
    counts = _pool_counts(x.shape[1:], x.data.dtype)
    out = Tensor(_box_sum(x.data) / counts, dtype=x.data.dtype)

    def adjoint(g: np.ndarray) -> None:
        # Window membership is symmetric, so the adjoint is the box sum of
        # the count-scaled gradient.
        _accumulate(x, _box_sum(g / counts))

    return _attach(out, (x,), adjoint)


def global_avg_pool(x: Tensor) -> Tensor:
    """Per-channel mean over all spatial positions: [c,D,H,W] -> [c]."""
    if x.ndim != 4:
        raise ShapeError(f"global_avg_pool input must be [c,D,H,W], got shape {x.shape}")
    n = x.data[0].size
    out = Tensor(x.data.mean(axis=(1, 2, 3)), dtype=x.data.dtype)

    def adjoint(g: np.ndarray) -> None:
        _accumulate(x, np.broadcast_to((g / n)[:, None, None, None], x.data.shape))

    return _attach(out, (x,), adjoint)


def linear(x: Tensor, weight: Tensor, bias: Tensor) -> Tensor:
    """Affine map y = W x + b for a feature vector x."""
    if x.ndim != 1 or weight.ndim != 2 or bias.ndim != 1:
        raise ShapeError(
            f"linear expects x [c], W [k,c], b [k]; got {x.shape}, {weight.shape}, {bias.shape}"
        )
    k, c = weight.shape
    if x.shape != (c,) or bias.shape != (k,):
        raise ShapeError(
            f"linear extents disagree: x {x.shape}, W {weight.shape}, b {bias.shape}"
        )
    out = Tensor(weight.data @ x.data + bias.data, dtype=x.data.dtype)

    def adjoint(g: np.ndarray) -> None:
        if weight.requires_grad:
            _accumulate(weight, np.outer(g, x.data))
        if x.requires_grad:
            _accumulate(x, weight.data.T @ g)
        if bias.requires_grad:
            _accumulate(bias, g)

    return _attach(out, (x, weight, bias), adjoint)


def softmax_cross_entropy(logits: Tensor, label: int) -> Tensor:
    """Negative log softmax probability of the true class.

    Uses the max-subtraction trick for stability. The adjoint is
    softmax(logits) - onehot(label).
    """
    if logits.ndim != 1:
        raise ShapeError(f"softmax_cross_entropy expects a logit vector, got shape {logits.shape}")
    k = logits.shape[0]
    label = int(label)
    if not 0 <= label < k:
        raise ArgumentError(f"label {label} out of range for {k} classes")
    z = logits.data - logits.data.max()
    ez = np.exp(z)
    total = ez.sum()
    loss = np.log(total) - z[label]
    out = Tensor(np.asarray(loss, dtype=logits.data.dtype), dtype=logits.data.dtype)

    def adjoint(g: np.ndarray) -> None:
        p = ez / total
        p = p.copy()
        p[label] -= 1.0
        _accumulate(logits, g * p)

    return _attach(out, (logits,), adjoint)


def channel_norm(x: Tensor, eps: float = 1e-5) -> Tensor:
    """Standardize each channel over its spatial extent (zero mean, unit variance).

    Per-sample statistics; this is the optional normalization stage that
    can be composed with the activation.
    """
    if x.ndim != 4:
        raise ShapeError(f"channel_norm input must be [c,D,H,W], got shape {x.shape}")
    mu = x.data.mean(axis=(1, 2, 3), keepdims=True)
    centered = x.data - mu
    var = np.mean(centered * centered, axis=(1, 2, 3), keepdims=True)
    inv = 1.0 / np.sqrt(var + eps)
    y = centered * inv
    out = Tensor(y, dtype=x.data.dtype)

    def adjoint(g: np.ndarray) -> None:
        gm = g.mean(axis=(1, 2, 3), keepdims=True)
        gy = np.mean(g * y, axis=(1, 2, 3), keepdims=True)
        _accumulate(x, inv * (g - gm - y * gy))

    return _attach(out, (x,), adjoint)


def reduce_sum(x: Tensor) -> Tensor:
    """Sum of all elements, as a scalar tensor."""
    out = Tensor(np.asarray(x.data.sum(), dtype=x.data.dtype), dtype=x.data.dtype)

    def adjoint(g: np.ndarray) -> None:
        _accumulate(x, np.broadcast_to(g, x.data.shape))

    return _attach(out, (x,), adjoint)


def weighted_sum(x: Tensor, weights: np.ndarray) -> Tensor:
    """Dot product with a constant weight array of the same shape."""
    w = np.asarray(weights, dtype=x.data.dtype)
    if w.shape != x.data.shape:
        raise ShapeError(f"weights shape {w.shape} must match tensor shape {x.shape}")
    out = Tensor(np.asarray((x.data * w).sum(), dtype=x.data.dtype), dtype=x.data.dtype)

    def adjoint(g: np.ndarray) -> None:
        _accumulate(x, g * w)

    return _attach(out, (x,), adjoint)


def mean_scalars(terms: Sequence[Tensor]) -> Tensor:
    """Mean of scalar tensors, accumulated in the given order."""
    if not terms:
        raise ArgumentError("mean_scalars needs at least one term")
    acc = terms[0]
    for t in terms[1:]:
        acc = add(acc, t)
    return scale(acc, 1.0 / len(terms))


def sgd_step(params: Iterable[Tensor], lr: float) -> None:
    """In-place p <- p - lr * grad for every parameter, then clear gradients.

    Every parameter must carry a populated gradient; the whole update is
    rejected before any tensor is touched otherwise.
    """
    if lr < 0:
        raise ArgumentError(f"learning rate must be non-negative, got {lr}")
    plist = list(params)
    for i, p in enumerate(plist):
        if p.grad is None:
            raise StateError(f"parameter {i} (shape {p.shape}) has no gradient; run backward first")
    for p in plist:
        p.data -= lr * p.grad
        p.grad = None
