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

import contextvars
import math
import threading
from concurrent.futures import Future, ThreadPoolExecutor
from contextlib import contextmanager
from typing import Callable, Iterable, NamedTuple, Sequence

import numpy as np

from .errors import ArgumentError, ShapeError, StateError

__all__ = [
    "Tensor",
    "record",
    "backward",
    "sgd_step",
    "conv3d",
    "relu",
    "add",
    "sub",
    "scale",
    "avg_pool3d",
    "global_avg_pool",
    "linear",
    "softmax_cross_entropy",
    "channel_norm",
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

    def _value(self) -> np.ndarray:
        if self.data is None:
            raise StateError("backward released this tensor's value; read it before calling backward")
        return self.data

    @property
    def shape(self) -> tuple[int, ...]:
        return self._value().shape

    @property
    def ndim(self) -> int:
        return self._value().ndim

    @property
    def size(self) -> int:
        return self._value().size

    @property
    def dtype(self) -> np.dtype:
        return self._value().dtype

    def item(self) -> float:
        if self.size != 1:
            raise ArgumentError(f"item() needs a single-element tensor, got shape {self.shape}")
        return float(self.data.reshape(())[()])

    def __repr__(self) -> str:
        flag = ", requires_grad=True" if self.requires_grad else ""
        value = "released" if self.data is None else f"shape={self.shape}, dtype={self.dtype}"
        return f"Tensor({value}{flag})"


class _TapeOp(NamedTuple):
    out: Tensor
    inputs: tuple[Tensor, ...]
    adjoint: Callable[[np.ndarray], None]


class Tape:
    """Ordered record of executed operations.

    ``ops`` grows in execution order; :func:`backward` pops it strictly in
    reverse, so every consumer of a tensor propagates its adjoint before
    the producer runs, and leaves it empty.
    """

    def __init__(self) -> None:
        self.ops: list[_TapeOp] = []


# The open tape is per thread, so parallel workers (e.g. concurrent
# cross-validation folds) never see each other's tapes.
_tls = threading.local()


@contextmanager
def record():
    """Open a fresh tape; operations inside are recorded for backward()."""
    tape, outer = Tape(), getattr(_tls, "tape", None)
    _tls.tape = tape
    try:
        yield tape
    finally:
        _tls.tape = outer


def backward(loss: Tensor) -> None:
    """Populate ``grad`` on every leaf the recorded graph reaches from ``loss``.

    Leaves are the tensors no recorded operation produced: parameters and
    inputs. Gradient buffers accumulate, so a leaf consumed by k operations
    ends with the sum of k adjoint contributions. An op whose output got no
    gradient is off the path to the root and is skipped, so a leaf that only
    such ops read keeps ``grad`` None.
    Intermediate tensors and the root end with ``grad`` None: each one's
    gradient is dropped as soon as its producer has consumed it. A tape
    runs once: backward consumes it.

    When backward starts, every tensor the tape recorded except the root
    has its ``data`` released (set to None, and its shape, dtype and item()
    raise StateError); only the arrays an adjoint captured stay alive.
    Read recorded values before calling backward. Leaves and the root keep
    theirs.
    """
    tape = loss._tape
    if tape is None:
        raise ArgumentError("backward root was not produced under record(), or its tape has run")
    if loss.data.size != 1:
        raise ArgumentError(f"backward root must be a scalar, got shape {loss.shape}")
    loss.grad = np.ones_like(loss.data)
    # Each adjoint holds the arrays it reads; the tape lets go of the rest.
    for op in tape.ops:
        if op.out is not loss:
            op.out.data = None
    # The walk pops each op off the tape, so its adjoint closure and the
    # arrays it saved are freed before the next adjoint runs, and its output
    # lets go of the tape (output -> tape -> op -> output is a cycle).
    while tape.ops:
        op = tape.ops.pop()
        op.out._tape = None
        if op.out.grad is not None:
            op.adjoint(op.out.grad)
            op.out.grad = None


def _attach(value, inputs: Sequence[Tensor], adjoint: Callable[[np.ndarray], None]) -> Tensor:
    """An op's output: ``value`` in its first input's dtype, recorded with
    ``adjoint`` if a tape is open and an input takes a gradient."""
    out = Tensor(value, dtype=inputs[0].dtype)
    tape = getattr(_tls, "tape", None)
    if tape is not None and any(t.requires_grad for t in inputs):
        out.requires_grad = True
        out._tape = tape
        tape.ops.append(_TapeOp(out, tuple(inputs), adjoint))
    return out


def _accumulate(t: Tensor, g: np.ndarray, owned: bool = False) -> None:
    """Add the contribution ``g`` to ``t.grad``, if ``t`` takes a gradient.

    A first contribution never becomes ``t.grad`` as handed in (an adjoint
    may pass one array to several inputs), and adding +0 turns a -0 into
    +0, as a zero start would. ``g`` has t's shape and dtype, so a first
    contribution reads neither from ``t.data``, which backward may have
    released. ``owned`` says ``g`` is a fresh array that nothing else
    holds: it is then made +0 in place and kept, instead of copied.
    """
    if not t.requires_grad:
        return
    if t.grad is None:
        zero = g.dtype.type(0)
        if owned:
            g += zero
            t.grad = g
        else:
            t.grad = np.add(g, zero)
    else:
        t.grad += g


def _pad(arr: np.ndarray, widths: Sequence[int]) -> np.ndarray:
    """``arr`` inside a border of zeros ``widths[i]`` wide on both sides of
    axis i: the array np.pad returns, without its per-call Python overhead.
    """
    out = np.zeros([n + 2 * p for n, p in zip(arr.shape, widths)], dtype=arr.dtype)
    out[tuple(slice(p, p + n) for n, p in zip(arr.shape, widths))] = arr
    return out


# Widest tile of `_correlate`, in output columns. A tile's accumulator and
# operand windows stay in cache across its taps. The width is set in
# columns, not bytes: narrower tiles made wide channel counts slower, and
# 768-column tiles at c=32 changed the float32 rounding of BLAS. A 16x16
# GEMM took 3x as long at 4096-5146 columns as at 2573-3000.
_TILE_COLUMNS = 3072


def _tiles(n: int, width: int) -> list[tuple[int, int]]:
    """``range(n)`` cut into ceil(n / width) balanced (start, stop) tiles:
    none wider than ``width``, and widths differing by at most one."""
    count = -(-n // width)
    edges = [k * n // count for k in range(count + 1)]
    return list(zip(edges[:-1], edges[1:]))


def _correlate(arr: np.ndarray, taps: np.ndarray, offsets: Sequence[tuple[int, int, int]], padding: int):
    """``out[:, i, j, l] = sum_t taps[t] @ padded[:, i + a, j + b, l + c]`` with
    ``(a, b, c) = offsets[t]``, on ``arr`` zero-padded by ``padding``: tap 0
    first, the others added in order. Voxel (i, j, l) is flat column
    q = i*Hp*Wp + j*Wp + l of the padded layout and tap t reads column
    q + s_t, so each tap is one GEMM on a contiguous window. The n columns
    run in ceil(n / _TILE_COLUMNS) balanced tiles, none wider than
    _TILE_COLUMNS; each sums its taps in buffers that are contiguous
    prefixes of one scratch array and is stored once, and the columns that
    wrap across rows are cropped.
    """
    d, h, w = arr.shape[1:]
    hp, wp = h + 2 * padding, w + 2 * padding
    flat = _pad(arr, (0, padding, padding, padding)).reshape(arr.shape[0], -1)
    if taps.shape[2] == 1:
        # numpy's matmul has no BLAS path for an inner extent of 1, and its
        # broadcast product copies its operands on tiles narrower than 2731
        # columns. With a zero channel the product is a BLAS GEMM that still
        # rounds its one term once; a -0 term comes out +0, as in a sum
        # from zeros.
        flat = np.concatenate([flat, np.zeros_like(flat)])
        taps = np.concatenate([taps, np.zeros_like(taps)], axis=2)
    n = (d - 1) * hp * wp + (h - 1) * wp + w
    shifts = [a * hp * wp + b * wp + c for a, b, c in offsets]
    rows = taps.shape[1]
    out = np.empty((rows, d * hp * wp), dtype=arr.dtype)
    tiles = _tiles(n, _TILE_COLUMNS)
    acc, part = np.empty((2, rows * max(j1 - j0 for j0, j1 in tiles)), dtype=arr.dtype)
    for j0, j1 in tiles:
        size = rows * (j1 - j0)
        tile_acc, tile_part = acc[:size].reshape(rows, -1), part[:size].reshape(rows, -1)
        np.matmul(taps[0], flat[:, shifts[0] + j0 : shifts[0] + j1], out=tile_acc)
        for t in range(1, len(shifts)):
            np.matmul(taps[t], flat[:, shifts[t] + j0 : shifts[t] + j1], out=tile_part)
            tile_acc += tile_part
        out[:, j0:j1] = tile_acc
    return out.reshape(-1, d, hp, wp)[:, :, :h, :w]


# One thread runs conv3d kernel adjoints beside the input adjoints. The
# executor starts it on the first submit, so runs that never reach it
# start no thread. The lock is held while it has a job.
_adjoint_worker = ThreadPoolExecutor(max_workers=1, thread_name_prefix="mgnet3d-adjoint")
_adjoint_worker_busy = threading.Lock()

# A hand-off costs 0.4-1 ms of thread wake-ups and GIL switches,
# so only a kernel gradient of at least this many multiply-adds
# (c_out*c_in*k^3 per output voxel) goes to the worker. Both adjoints of a
# 3x3x3 conv, handed off against inline, on a 2-core host: 1.7-2.5x the
# time at c=4 on 8^3-16^3 (<= 1.8e6), 1.3x at c=4 on 20^3 (3.5e6), 0.96x at
# c=4 on 34^3 (1.7e7), 0.94x at c=8 on 20^3 (1.4e7), 1.02-1.10x at c=16 on
# 16^3 (2.8e7), 0.73x at c=16 on 18^3 (4.0e7) and 0.56x at c=16 on
# 46x55x46.
_HANDOFF_MACS = 3 * 10**7


def _hand_off(fn: Callable, *args) -> Future | None:
    """Start ``fn(*args)`` on the adjoint worker and return its future, or
    return None if the worker has a job (a concurrent cross-validation
    fold's): the caller then runs ``fn`` itself instead of queueing. The job
    runs in a copy of the caller's context, because a pool thread does not
    inherit its np.errstate. It frees the worker before its result is set,
    so the caller's next adjoint finds the worker idle.
    """
    if not _adjoint_worker_busy.acquire(blocking=False):
        return None

    def job(context: contextvars.Context):
        try:
            return context.run(fn, *args)
        finally:
            _adjoint_worker_busy.release()

    return _adjoint_worker.submit(job, contextvars.copy_context())


def conv3d(x: Tensor, kernel: Tensor, stride: int = 1) -> Tensor:
    """Cross-correlate a ``[c_in,D,H,W]`` map with a ``[c_out,c_in,k,k,k]`` kernel.

    The kernel sets the padding. Stride 1 is the same-size convolution: an
    odd kernel on x zero-padded by k // 2 on every spatial face, so the
    output keeps x's extent. Stride 2 is the grid transfer only: a 1x1x1
    kernel on every second voxel, so each extent n becomes ceil(n/2). Each
    output voxel is the exact triple sum over the k**3 neighborhood, with
    zeros outside bounds. Differentiable with respect to both the input
    and the kernel.
    """
    if x.ndim != 4 or 0 in x.shape[1:]:
        raise ShapeError(f"conv3d input must be a [c,D,H,W] map with no zero extent, got shape {x.shape}")
    if kernel.ndim != 5:
        raise ShapeError(f"conv3d kernel must be [c_out,c_in,kd,kh,kw], got shape {kernel.shape}")
    c_out, kc, kd, kh, kw = kernel.shape
    if not (kd == kh == kw) or kd % 2 == 0:
        raise ShapeError(f"conv3d kernel must be cubic and of odd size, got shape {kernel.shape}")
    if stride not in (1, 2):
        raise ArgumentError(f"conv3d stride must be 1 or 2, got {stride}")
    if stride == 2 and kd != 1:
        raise ArgumentError(f"conv3d stride 2 needs a 1x1x1 kernel, got k={kd}")
    c_in, d, h, w = x.shape
    if kc != c_in:
        raise ShapeError(f"kernel expects {kc} input channels, input has {c_in}")

    kdata = kernel.data
    dtype = x.data.dtype
    offsets = [(a, b, c) for a in range(kd) for b in range(kh) for c in range(kw)]

    # The engine runs a same-size convolution on ``view``: x, or for a grid
    # transfer the voxels it outputs. Each tap's product is one GEMM over
    # the input channels, summed in offsets order: the float32 sums of a
    # per-tap loop over strided copies from zeros. Adding +0 turns the -0
    # a first product can leave into that loop's +0.
    coarse = (slice(None),) + (slice(None, None, stride),) * 3
    view = x.data[coarse]
    out_sp = view.shape[1:]
    padding = kd // 2
    taps = kdata.transpose(2, 3, 4, 0, 1).reshape(len(offsets), c_out, c_in).copy()
    value = _correlate(view, taps, offsets, padding) + dtype.type(0)

    def kernel_grad(g: np.ndarray) -> np.ndarray:
        # Per tap, gk = g [c_out, oD*oH*oW] @ window [oD*oH*oW, c_in]. The
        # windows come from a channels-last padded copy of view, so a copy
        # moves whole c_in rows; it is built here, not kept on the tape. Each
        # GEMM's operands are those of a per-tap tensordot, and so is its
        # rounding.
        src_cl = _pad(view.transpose(1, 2, 3, 0), (padding, padding, padding, 0))
        # With one output row BLAS runs a matrix-vector product and splits
        # its D*H*W sum across threads; a zero second row keeps it the GEMM
        # of wider kernels, whose sums match at 1 and 2 BLAS threads up to
        # c=16 but not at c >= 24.
        g_rows = g.reshape(c_out, -1)
        if c_out == 1:
            g_rows = np.concatenate([g_rows, np.zeros_like(g_rows)])
        gk = np.empty_like(kdata)
        # One slab per (b, c): the padded planes cut to the rows and columns
        # that taps (., b, c) read. Tap (a, b, c) reads the contiguous run of
        # the slab's rows from plane a on, so a 3x3x3 kernel makes 9 copies
        # instead of 27.
        plane = out_sp[1] * out_sp[2]
        slab = np.empty(src_cl.shape[:1] + out_sp[1:] + (c_in,), dtype=dtype)
        rows = slab.reshape(-1, c_in)
        for b in range(kh):
            for c in range(kw):
                np.copyto(slab, src_cl[:, b : b + out_sp[1], c : c + out_sp[2]])
                for a in range(kd):
                    gk[:, :, a, b, c] = np.dot(g_rows, rows[a * plane : (a + out_sp[0]) * plane])[:c_out]
        return gk

    def src_grad(g: np.ndarray) -> np.ndarray:
        # Output voxel i read x at i + o_t - padding, so x's voxel m gets
        # taps[t].T @ g at m - o_t + padding: g correlated with the
        # transposed taps at the mirrored offsets k - 1 - o_t, in tap order.
        mirrored = [(kd - 1 - a, kd - 1 - b, kd - 1 - c) for a, b, c in offsets]
        return _correlate(g, taps.transpose(0, 2, 1).copy(), mirrored, padding)

    def adjoint(g: np.ndarray) -> None:
        # On a large enough conv, the kernel gradient is computed on the
        # idle adjoint worker while this thread runs the input gradient.
        # Both only read g, x and the kernel; each gradient is added on
        # this thread, so float32 results are those of the inline path.
        # Otherwise each helper's scratch buffers are freed when it
        # returns, before the next one allocates its own.
        pending = None
        if kernel.requires_grad:
            if x.requires_grad and c_out * c_in * kd**3 * math.prod(out_sp) >= _HANDOFF_MACS:
                pending = _hand_off(kernel_grad, g)
            if pending is None:
                _accumulate(kernel, kernel_grad(g), owned=True)
        if x.requires_grad:
            gsrc = src_grad(g)
            if stride == 2:
                # A grid transfer read a strided subset of x: add into those
                # voxels, not through a zero-filled buffer of the fine grid.
                if x.grad is None:
                    x.grad = np.zeros((c_in, d, h, w), dtype)
                x.grad[coarse] += gsrc
            else:
                _accumulate(x, gsrc)
        if pending is not None:
            _accumulate(kernel, pending.result(), owned=True)

    return _attach(value, (x, kernel), adjoint)


def relu(x: Tensor) -> Tensor:
    """Elementwise max(x, 0); the adjoint passes gradient only where x > 0.

    The adjoint masks by the output: max(x, 0) > 0 exactly where x > 0,
    for -0 and NaN too, and the output is what the next op keeps anyway.
    """
    y = np.maximum(x.data, 0)

    def adjoint(g: np.ndarray) -> None:
        _accumulate(x, g * (y > 0), owned=True)

    return _attach(y, (x,), adjoint)


def add(a: Tensor, b: Tensor) -> Tensor:
    if a.shape != b.shape:
        raise ShapeError(f"add needs matching shapes, got {a.shape} and {b.shape}")

    def adjoint(g: np.ndarray) -> None:
        _accumulate(a, g)
        _accumulate(b, g)

    return _attach(a.data + b.data, (a, b), adjoint)


def sub(a: Tensor, b: Tensor) -> Tensor:
    if a.shape != b.shape:
        raise ShapeError(f"sub needs matching shapes, got {a.shape} and {b.shape}")

    def adjoint(g: np.ndarray) -> None:
        _accumulate(a, g)
        _accumulate(b, -g)

    return _attach(a.data - b.data, (a, b), adjoint)


def scale(x: Tensor, factor: float) -> Tensor:
    """Multiply by a plain scalar constant."""

    def adjoint(g: np.ndarray) -> None:
        # numpy < 2 promotes a 0-d float32 times a Python float to float64.
        _accumulate(x, np.asarray(g * factor, dtype=g.dtype))

    return _attach(x.data * factor, (x,), adjoint)


def _box_sum(arr: np.ndarray) -> np.ndarray:
    """Sum of the 3x3x3 neighborhood around each voxel, zeros outside bounds.

    The flat layout of conv3d, with the channels laid end to end: on the
    whole padded map flattened, neighbor (a, b, c) of every voxel of every
    channel is one contiguous window at shift a*Hp*Wp + b*Wp + c. The
    windows are added in (a, b, c) order into a contiguous accumulator,
    and +0 is added at the crop, so the sums are those of a loop from
    zeros. The accumulator runs in balanced tiles of at most
    ch * _TILE_COLUMNS elements, each summing all windows while it stays
    in cache. The elements that wrap across rows, planes or channels are
    cropped.
    """
    ch, d, h, w = arr.shape
    hp, wp = h + 2, w + 2
    flat = _pad(arr, (0, 1, 1, 1)).reshape(-1)
    shifts = [a * hp * wp + b * wp + c for a in range(3) for b in range(3) for c in range(3)]
    n = flat.size - shifts[-1]
    acc = np.empty_like(flat)
    for j0, j1 in _tiles(n, ch * _TILE_COLUMNS):
        tile = acc[j0:j1]
        np.copyto(tile, flat[j0:j1])
        for s in shifts[1:]:
            tile += flat[s + j0 : s + j1]
    return acc.reshape(ch, d + 2, hp, wp)[:, :d, :h, :w] + arr.dtype.type(0)


def avg_pool3d(x: Tensor) -> Tensor:
    """Shape-preserving 3x3x3 mean with stride 1.

    Each output voxel averages only its in-bounds neighbors (the divisor
    is the count of valid elements), so constant maps are fixed points.
    """
    if x.ndim != 4:
        raise ShapeError(f"avg_pool3d input must be [c,D,H,W], got shape {x.shape}")
    counts = _box_sum(np.ones((1,) + x.shape[1:], x.data.dtype))

    def adjoint(g: np.ndarray) -> None:
        # Window membership is symmetric, so the adjoint is the box sum of
        # the count-scaled gradient.
        _accumulate(x, _box_sum(g / counts))

    return _attach(_box_sum(x.data) / counts, (x,), adjoint)


def global_avg_pool(x: Tensor) -> Tensor:
    """Per-channel mean over all spatial positions: [c,D,H,W] -> [c]."""
    if x.ndim != 4:
        raise ShapeError(f"global_avg_pool input must be [c,D,H,W], got shape {x.shape}")
    shape = x.shape
    n = x.data[0].size

    def adjoint(g: np.ndarray) -> None:
        _accumulate(x, np.broadcast_to((g / n)[:, None, None, None], shape))

    return _attach(x.data.mean(axis=(1, 2, 3)), (x,), adjoint)


def linear(x: Tensor, weight: Tensor, bias: Tensor) -> Tensor:
    """Affine map y = W x + b for a feature vector x."""
    if weight.ndim != 2 or x.shape != weight.shape[1:] or bias.shape != weight.shape[:1]:
        raise ShapeError(
            f"linear expects x [c], W [k,c], b [k]; got {x.shape}, {weight.shape}, {bias.shape}"
        )
    xv, w = x.data, weight.data

    def adjoint(g: np.ndarray) -> None:
        _accumulate(weight, np.outer(g, xv))
        _accumulate(x, w.T @ g)
        _accumulate(bias, g)

    return _attach(w @ xv + bias.data, (x, weight, bias), adjoint)


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

    def adjoint(g: np.ndarray) -> None:
        p = ez / total
        p[label] -= 1.0
        _accumulate(logits, g * p)

    return _attach(np.log(total) - z[label], (logits,), adjoint)


# Added to each channel's variance in channel_norm, so a constant channel
# maps to zeros instead of dividing by zero.
_NORM_EPS = 1e-5


def channel_norm(x: Tensor) -> Tensor:
    """Standardize each channel over its spatial extent (zero mean, unit variance).

    Per-sample statistics; this is the optional normalization stage that
    can be composed with the activation.
    """
    if x.ndim != 4:
        raise ShapeError(f"channel_norm input must be [c,D,H,W], got shape {x.shape}")
    mu = x.data.mean(axis=(1, 2, 3), keepdims=True)
    centered = x.data - mu
    var = np.mean(centered * centered, axis=(1, 2, 3), keepdims=True)
    inv = 1.0 / np.sqrt(var + _NORM_EPS)
    y = centered * inv

    def adjoint(g: np.ndarray) -> None:
        gm = g.mean(axis=(1, 2, 3), keepdims=True)
        gy = np.mean(g * y, axis=(1, 2, 3), keepdims=True)
        _accumulate(x, inv * (g - gm - y * gy))

    return _attach(y, (x,), adjoint)


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
