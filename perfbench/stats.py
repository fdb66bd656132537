"""Arithmetic shared by the benchmark runner and the traced run.

Everything here is pure: span self time, the tail-percentile rule, the
conv FLOP and byte counts computed from shapes, and the quartile spread
used to judge whether repeated runs agree.
"""

from __future__ import annotations

import math
import statistics
from typing import Sequence

# Percentiles considered for the reported tail, lowest first.
TAIL_LADDER = (50.0, 75.0, 90.0, 95.0, 99.0, 99.9)
TAIL_MIN_BEYOND = 10


def self_times(spans: Sequence[tuple[float, float, int]]) -> list[float]:
    """Self time of each span given as (start, end, parent index or -1).

    A span's self time is its duration minus the part of its interval
    that the union of its direct children covers.
    """
    children: list[list[tuple[float, float]]] = [[] for _ in spans]
    for start, end, parent in spans:
        if parent >= 0:
            children[parent].append((start, end))
    out = []
    for (start, end, _), kids in zip(spans, children):
        covered = 0.0
        cursor = start
        for k_start, k_end in sorted(kids):
            lo, hi = max(k_start, cursor), min(k_end, end)
            if hi > lo:
                covered += hi - lo
                cursor = hi
        out.append((end - start) - covered)
    return out


def nearest_rank(sorted_values: Sequence[float], pct: float) -> tuple[float, int]:
    """Nearest-rank percentile of sorted values and the count strictly beyond its rank."""
    n = len(sorted_values)
    # Rounding first keeps e.g. 99.9% of 10000 at rank 9990, not 9991.
    rank = max(1, math.ceil(round(pct * n / 100.0, 9)))
    return sorted_values[rank - 1], n - rank


def tail_percentile(samples: Sequence[float]) -> tuple[float, float]:
    """(percentile, value): the highest ladder percentile with at least
    TAIL_MIN_BEYOND samples beyond it.

    With fewer than 2 * TAIL_MIN_BEYOND samples no percentile qualifies,
    and the median is returned so the caller can still report the value
    together with its percentile and sample count.
    """
    if not samples:
        raise ValueError("tail_percentile needs at least one sample")
    ordered = sorted(samples)
    best = (50.0, nearest_rank(ordered, 50.0)[0])
    for pct in TAIL_LADDER:
        value, beyond = nearest_rank(ordered, pct)
        if beyond >= TAIL_MIN_BEYOND:
            best = (pct, value)
    return best


def conv_extent(n: int, kernel: int, stride: int, padding: int) -> int:
    return (n + 2 * padding - kernel) // stride + 1


def conv3d_cost(
    in_shape: Sequence[int],
    kernel_shape: Sequence[int],
    stride: int,
    padding: int,
    input_grad: bool = True,
    itemsize: int = 4,
) -> dict[str, int]:
    """FLOPs and bytes of one conv3d call, computed from shapes.

    FLOPs count one multiply and one add per kernel tap per output voxel,
    padded taps included. Bytes count each operand read or written once
    (compulsory traffic): forward reads x and the kernel and writes y;
    backward reads the output gradient and x and writes the kernel
    gradient, and when x needs a gradient also reads the kernel and
    writes the input gradient.
    """
    c_in, d, h, w = in_shape
    c_out, _, k, _, _ = kernel_shape
    out_voxels = math.prod(conv_extent(n, k, stride, padding) for n in (d, h, w))
    macs = c_out * c_in * k**3 * out_voxels
    x_bytes = itemsize * c_in * d * h * w
    k_bytes = itemsize * c_out * c_in * k**3
    y_bytes = itemsize * c_out * out_voxels
    extra = k_bytes + x_bytes if input_grad else 0
    return {
        "fwd_flops": 2 * macs,
        "fwd_bytes": x_bytes + k_bytes + y_bytes,
        "bwd_flops": 2 * macs * (2 if input_grad else 1),
        "bwd_bytes": y_bytes + x_bytes + k_bytes + extra,
    }


def quartile_spread(values: Sequence[float]) -> float:
    """Distance between the first and third quartile as a share of the median."""
    q1, median, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / median
