"""Unit tests for the benchmark's own arithmetic.

Run from the root of a checkout: ``python3 -m pytest perfbench -q``.
"""

import itertools
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))

from stats import conv3d_cost, nearest_rank, quartile_spread, self_times, tail_percentile  # noqa: E402


def test_self_time_subtracts_union_of_direct_children():
    spans = [
        (0.0, 10.0, -1),  # root
        (1.0, 3.0, 0),
        (2.0, 4.0, 0),  # overlaps the previous child: counted once
        (6.0, 7.0, 0),
        (6.2, 6.7, 3),  # grandchild: only reduces its own parent
        (9.5, 11.0, 0),  # runs past the root's end: clipped
    ]
    got = self_times(spans)
    assert got[0] == pytest.approx(10.0 - (3.0 + 1.0 + 0.5))
    assert got[1] == pytest.approx(2.0)
    assert got[3] == pytest.approx(0.5)
    assert got[4] == pytest.approx(0.5)


def test_self_time_of_leaf_is_its_duration():
    assert self_times([(2.0, 5.5, -1)]) == [pytest.approx(3.5)]


@pytest.mark.parametrize(
    "n, expected",
    [
        (19, (50.0, 10.0)),  # no percentile has 10 beyond it: median reported
        (20, (50.0, 10.0)),  # p50 is rank 10, 10 beyond
        (39, (50.0, 20.0)),  # p75 is rank 30, only 9 beyond
        (40, (75.0, 30.0)),
        (100, (90.0, 90.0)),  # p95 would leave 5 beyond
        (1000, (99.0, 990.0)),  # p99.9 would leave 1 beyond
        (10000, (99.9, 9990.0)),
    ],
)
def test_tail_percentile_is_highest_with_ten_beyond(n, expected):
    samples = [float(v) for v in range(n, 0, -1)]  # order must not matter
    assert tail_percentile(samples) == expected


def test_nearest_rank_counts_samples_beyond():
    assert nearest_rank([1.0, 2.0, 3.0, 4.0], 50.0) == (2.0, 2)
    assert nearest_rank([1.0, 2.0, 3.0, 4.0], 99.0) == (4.0, 0)


def _hand_count_macs(in_shape, kernel_shape, stride, padding):
    """Multiply-adds by enumerating every output voxel and kernel tap."""
    c_in, d, h, w = in_shape
    c_out, _, k, _, _ = kernel_shape
    extents = [(n + 2 * padding - k) // stride + 1 for n in (d, h, w)]
    macs = 0
    for _ in itertools.product(range(c_out), *(range(e) for e in extents)):
        macs += c_in * k**3
    return macs


def test_conv_cost_3x3x3_stride1_matches_hand_count():
    # x [2,4,4,4], kernel [3,2,3,3,3], padding 1: output [3,4,4,4].
    cost = conv3d_cost((2, 4, 4, 4), (3, 2, 3, 3, 3), stride=1, padding=1)
    assert _hand_count_macs((2, 4, 4, 4), (3, 2, 3, 3, 3), 1, 1) == 10368
    assert cost["fwd_flops"] == 2 * 10368
    # x 2*64 + kernel 3*2*27 + y 3*64 = 482 floats.
    assert cost["fwd_bytes"] == 4 * 482
    assert cost["bwd_flops"] == 4 * 10368
    # read g, x, kernel (192 + 128 + 162); write gk, gx (162 + 128).
    assert cost["bwd_bytes"] == 4 * 772


def test_conv_cost_without_input_gradient():
    cost = conv3d_cost((1, 4, 4, 4), (3, 1, 3, 3, 3), stride=1, padding=1, input_grad=False)
    assert cost["bwd_flops"] == cost["fwd_flops"] == 2 * 3 * 27 * 64
    # read g (192), x (64); write gk (81).
    assert cost["bwd_bytes"] == 4 * (192 + 64 + 81)


def test_conv_cost_1x1x1_stride2_matches_hand_count():
    # x [2,5,5,5], kernel [3,2,1,1,1], stride 2: output [3,3,3,3].
    cost = conv3d_cost((2, 5, 5, 5), (3, 2, 1, 1, 1), stride=2, padding=0)
    assert _hand_count_macs((2, 5, 5, 5), (3, 2, 1, 1, 1), 2, 0) == 162
    assert cost["fwd_flops"] == 324
    assert cost["fwd_bytes"] == 4 * (250 + 6 + 81)


def test_quartile_spread_is_relative_to_median():
    assert quartile_spread([10.0] * 10) == 0.0
    assert quartile_spread([9.0, 10.0, 10.0, 11.0]) == pytest.approx((10.75 - 9.25) / 10.0)
