"""Shared test oracles, independent of the library's execution paths.

The convolution and pooling references are direct per-voxel summation
loops in float64. Gradient checks run the library's own code on float64
tensors and compare against central finite differences; the scalar they
differentiate comes from the loss probes ``reduce_sum`` and
``weighted_sum``, two recorded ops that only the tests use.
"""

from __future__ import annotations

import numpy as np

from mgnet3d import (
    MgNetParams,
    ShapeError,
    Tensor,
    backward,
    channel_norm,
    conv3d,
    global_avg_pool,
    linear,
    record,
    relu,
    restrict,
    smooth,
)
from mgnet3d.tensor import _accumulate, _attach


def reduce_sum(x: Tensor) -> Tensor:
    """Sum of all elements, as a scalar tensor: a loss probe for gradient checks."""
    shape = x.shape

    def adjoint(g: np.ndarray) -> None:
        _accumulate(x, np.broadcast_to(g, shape))

    return _attach(x.data.sum(), (x,), adjoint)


def weighted_sum(x: Tensor, weights: np.ndarray) -> Tensor:
    """Dot product with a constant weight array of the same shape: a scalar
    loss whose gradient with respect to ``x`` is ``weights``."""
    w = np.asarray(weights, dtype=x.data.dtype)
    if w.shape != x.data.shape:
        raise ShapeError(f"weights shape {w.shape} must match tensor shape {x.shape}")

    def adjoint(g: np.ndarray) -> None:
        _accumulate(x, g * w)

    return _attach((x.data * w).sum(), (x,), adjoint)


def conv3d_reference(x: np.ndarray, kernel: np.ndarray, stride: int, padding: int) -> np.ndarray:
    """Direct triple-sum convolution oracle over the zero-padded neighborhood."""
    x = np.asarray(x, dtype=np.float64)
    kernel = np.asarray(kernel, dtype=np.float64)
    c_in, d, h, w = x.shape
    c_out, _, kd, kh, kw = kernel.shape
    xp = np.pad(x, ((0, 0),) + ((padding, padding),) * 3)
    od = (d + 2 * padding - kd) // stride + 1
    oh = (h + 2 * padding - kh) // stride + 1
    ow = (w + 2 * padding - kw) // stride + 1
    out = np.zeros((c_out, od, oh, ow))
    for o in range(c_out):
        for zd in range(od):
            for zh in range(oh):
                for zw in range(ow):
                    patch = xp[
                        :,
                        zd * stride : zd * stride + kd,
                        zh * stride : zh * stride + kh,
                        zw * stride : zw * stride + kw,
                    ]
                    out[o, zd, zh, zw] = float((patch * kernel[o]).sum())
    return out


def conv3d_taps_reference(
    x: np.ndarray, kernel: np.ndarray, g: np.ndarray, stride: int, padding: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Tap-loop convolution in the input's precision: (output, input gradient,
    kernel gradient) for the output gradient ``g``.

    One tensordot per kernel tap over a strided copy of the padded input,
    summed onto a zero start in (a, b, c) order, the forward; the input
    adjoint scatter-adds each tap's transposed product in the same order.
    This fixes the float32 rounding that ``conv3d`` must reproduce exactly.
    """
    c_in, d, h, w = x.shape
    k = kernel.shape[2]
    out_sp = tuple((n + 2 * padding - k) // stride + 1 for n in (d, h, w))
    xp = np.pad(x, ((0, 0),) + ((padding, padding),) * 3)
    offsets = [(a, b, c) for a in range(k) for b in range(k) for c in range(k)]

    def tap(arr, a, b, c):
        return arr[
            :,
            a : a + stride * (out_sp[0] - 1) + 1 : stride,
            b : b + stride * (out_sp[1] - 1) + 1 : stride,
            c : c + stride * (out_sp[2] - 1) + 1 : stride,
        ]

    out = np.zeros((kernel.shape[0],) + out_sp, dtype=x.dtype)
    gk = np.empty_like(kernel)
    gxp = np.zeros_like(xp)
    for a, b, c in offsets:
        out += np.tensordot(kernel[:, :, a, b, c], tap(xp, a, b, c), axes=(1, 0))
        gk[:, :, a, b, c] = np.tensordot(g, tap(xp, a, b, c), axes=([1, 2, 3], [1, 2, 3]))
        tap(gxp, a, b, c)[...] += np.tensordot(kernel[:, :, a, b, c], g, axes=(0, 0))
    gx = gxp[:, padding : padding + d, padding : padding + h, padding : padding + w]
    return out, gx, gk


def forward_zero_guess_reference(params: MgNetParams, volume: Tensor) -> Tensor:
    """The multigrid pass with every smoothing pass run by ``smooth``, the
    first on an explicit zero feature map, operator conv included.

    ``forward`` skips that conv (f - A*0 is f, 0 + v is v) and must give the
    same float32 logits and gradients bit for bit.
    """
    cfg = params.config

    def act(x: Tensor) -> Tensor:
        return relu(channel_norm(x)) if cfg.use_channel_norm else relu(x)

    p = params.by_name
    f = act(conv3d(volume, p["input_kernel"]))
    u = Tensor(np.zeros((cfg.feature_channels,) + volume.shape[1:], dtype=volume.dtype), dtype=volume.dtype)
    for i in range(1, cfg.num_grids + 1):
        operator = p[f"level{i}.operator"]
        for j in range(1, cfg.smoothing_iters[i - 1] + 1):
            u = smooth(u, f, operator, p[f"level{i}.smoother{j}"], cfg.use_channel_norm)
        if i < cfg.num_grids:
            u, f = restrict(
                u, f, operator, p[f"level{i}.prolongation"], p[f"level{i}.restriction"],
                p[f"level{i + 1}.operator"], cfg.use_avg_pool,
            )
    return linear(global_avg_pool(u), p["head.weight"], p["head.bias"])


def avg_pool3d_reference(x: np.ndarray) -> np.ndarray:
    """Direct window-average oracle with a valid-count divisor."""
    x = np.asarray(x, dtype=np.float64)
    c, d, h, w = x.shape
    out = np.zeros_like(x)
    for ch in range(c):
        for zd in range(d):
            for zh in range(h):
                for zw in range(w):
                    window = x[
                        ch,
                        max(zd - 1, 0) : min(zd + 1, d - 1) + 1,
                        max(zh - 1, 0) : min(zh + 1, h - 1) + 1,
                        max(zw - 1, 0) : min(zw + 1, w - 1) + 1,
                    ]
                    out[ch, zd, zh, zw] = window.mean()
    return out


def box_sum_reference(arr: np.ndarray) -> np.ndarray:
    """3x3x3 neighborhood sums as 27 strided adds into zeros, in (a, b, c)
    order: the float sums avg_pool3d must reproduce bit for bit."""
    _, d, h, w = arr.shape
    ap = np.pad(arr, ((0, 0), (1, 1), (1, 1), (1, 1)))
    out = np.zeros_like(arr)
    for a in range(3):
        for b in range(3):
            for c in range(3):
                out += ap[:, a : a + d, b : b + h, c : c + w]
    return out


def auc_pairs_reference(labels, scores) -> float:
    """Brute-force all-pairs AUC: wins count 1, ties count 0.5."""
    labels = list(labels)
    scores = list(scores)
    pos = [s for l, s in zip(labels, scores) if l == 1]
    neg = [s for l, s in zip(labels, scores) if l == 0]
    total = 0.0
    for sp in pos:
        for sn in neg:
            if sp > sn:
                total += 1.0
            elif sp == sn:
                total += 0.5
    return total / (len(pos) * len(neg))


def numerical_gradient(fn, tensors, step: float = 1e-3):
    """Central finite differences of fn() w.r.t. each tensor, elementwise."""
    grads = []
    for t in tensors:
        flat = t.data.reshape(-1)
        grad = np.zeros_like(t.data).reshape(-1)
        for i in range(flat.size):
            original = flat[i]
            flat[i] = original + step
            hi = fn()
            flat[i] = original - step
            lo = fn()
            flat[i] = original
            grad[i] = (hi - lo) / (2.0 * step)
        grads.append(grad.reshape(t.data.shape))
    return grads


def max_rel_err(analytic: np.ndarray, numeric: np.ndarray) -> float:
    a = np.asarray(analytic, dtype=np.float64)
    n = np.asarray(numeric, dtype=np.float64)
    denom = np.maximum(np.maximum(np.abs(a), np.abs(n)), 1e-6)
    return float((np.abs(a - n) / denom).max())


def check_gradients(build_loss, tensors, step: float = 1e-3, tol: float = 1e-3) -> float:
    """Assert analytic gradients match central differences; returns worst error.

    ``build_loss`` must rebuild the loss from the given tensors on every
    call (the finite-difference side evaluates it outside any tape).
    """
    with record():
        loss = build_loss()
    backward(loss)
    analytic = [t.grad.copy() for t in tensors]
    for t in tensors:
        t.grad = None
    numeric = numerical_gradient(lambda: float(build_loss().data), tensors, step)
    worst = max(max_rel_err(a, n) for a, n in zip(analytic, numeric))
    assert worst < tol, f"gradient mismatch: max relative error {worst:.3e} >= {tol}"
    return worst


def f64_tensor(rng: np.random.Generator, shape, scale: float = 1.0, requires_grad: bool = True) -> Tensor:
    return Tensor(
        rng.normal(scale=scale, size=shape).astype(np.float64),
        requires_grad=requires_grad,
        dtype=np.float64,
    )


def params_to_f64(params: MgNetParams) -> MgNetParams:
    """Deep copy of a parameter set in float64 for high-precision checks."""
    by_name = {
        name: Tensor(t.data.astype(np.float64), requires_grad=True, dtype=np.float64)
        for name, t in params.named_tensors()
    }
    return MgNetParams(params.config, by_name)


def count_worker_handoffs(monkeypatch) -> list:
    """Make every conv3d adjoint that hands its kernel gradient to the
    adjoint worker append to the returned list."""
    from mgnet3d import tensor

    handoffs, submit = [], tensor._adjoint_worker.submit

    def counting_submit(*args):
        handoffs.append(1)
        return submit(*args)

    monkeypatch.setattr(tensor._adjoint_worker, "submit", counting_submit)
    return handoffs


def run_worker_jobs_inline(monkeypatch) -> None:
    """Make the conv3d adjoint worker run each job on the thread that hands
    it off, before that thread goes on: the same helpers on the same
    operands, one after the other."""
    from concurrent.futures import Future

    from mgnet3d import tensor

    def submit(fn, *args):
        done = Future()
        done.set_result(fn(*args))
        return done

    monkeypatch.setattr(tensor._adjoint_worker, "submit", submit)
