"""Forward semantics of the tensor engine operations."""

import gc
import weakref

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import mgnet3d as mg
from mgnet3d import ArgumentError, ShapeError, StateError, Tensor

from helpers import avg_pool3d_reference, conv3d_reference, conv3d_taps_reference


def t(arr, dtype=np.float32, requires_grad=False):
    return Tensor(np.asarray(arr, dtype=dtype), requires_grad=requires_grad)


class TestConv3d:
    def test_identity_kernel(self, rng):
        x = t(rng.normal(size=(2, 4, 5, 6)).astype(np.float32))
        k = np.zeros((2, 2, 3, 3, 3), dtype=np.float32)
        k[0, 0, 1, 1, 1] = 1.0
        k[1, 1, 1, 1, 1] = 1.0
        y = mg.conv3d(x, t(k), stride=1, padding=1)
        assert np.array_equal(y.data, x.data)

    def test_all_ones_counts_padded_neighbors(self):
        # Integer sums of ones are exact in float32 regardless of order.
        x = t(np.ones((1, 3, 3, 3)))
        k = t(np.ones((1, 1, 3, 3, 3)))
        y = mg.conv3d(x, k, stride=1, padding=1).data
        assert y[0, 1, 1, 1] == 27.0  # center
        assert y[0, 0, 1, 1] == 18.0  # face center
        assert y[0, 0, 0, 1] == 12.0  # edge center
        assert y[0, 0, 0, 0] == 8.0  # corner
        expected = conv3d_reference(x.data, k.data, stride=1, padding=1)
        assert np.array_equal(y.astype(np.float64), expected)

    def test_stride2_output_shape(self, rng):
        x = t(rng.normal(size=(2, 5, 5, 5)))
        k = t(rng.normal(size=(4, 2, 3, 3, 3)))
        y = mg.conv3d(x, k, stride=2, padding=1)
        assert y.shape == (4, 3, 3, 3)

    @pytest.mark.parametrize("stride", [1, 2])
    @pytest.mark.parametrize("ksize,padding", [(3, 1), (1, 0)])
    def test_matches_reference(self, rng, stride, ksize, padding):
        x = rng.normal(size=(3, 4, 5, 3)).astype(np.float32)
        k = rng.normal(size=(2, 3, ksize, ksize, ksize)).astype(np.float32)
        got = mg.conv3d(t(x), t(k), stride=stride, padding=padding).data
        want = conv3d_reference(x, k, stride, padding)
        assert np.abs(got - want).max() < 1e-5

    def test_channel_mismatch(self, rng):
        x = t(rng.normal(size=(2, 3, 3, 3)))
        k = t(rng.normal(size=(1, 3, 3, 3, 3)))
        with pytest.raises(ShapeError):
            mg.conv3d(x, k)

    def test_bad_stride(self, rng):
        x = t(rng.normal(size=(1, 3, 3, 3)))
        k = t(rng.normal(size=(1, 1, 3, 3, 3)))
        with pytest.raises(ArgumentError):
            mg.conv3d(x, k, stride=3)

    def test_linearity(self, rng):
        x = rng.normal(size=(2, 4, 4, 4)).astype(np.float32)
        y = rng.normal(size=(2, 4, 4, 4)).astype(np.float32)
        k = t(rng.normal(size=(3, 2, 3, 3, 3)).astype(np.float32))
        alpha, beta = 0.7, -1.3
        lhs = mg.conv3d(t(alpha * x + beta * y), k).data
        rhs = alpha * mg.conv3d(t(x), k).data + beta * mg.conv3d(t(y), k).data
        assert np.abs(lhs - rhs).max() < 1e-5

    @given(n=st.integers(min_value=1, max_value=24), stride=st.sampled_from([1, 2]))
    def test_shape_law(self, n, stride):
        x = Tensor(np.ones((1, n, 3, 4), dtype=np.float32))
        k = Tensor(np.ones((1, 1, 3, 3, 3), dtype=np.float32))
        y = mg.conv3d(x, k, stride=stride, padding=1)
        assert y.shape[1] == (n + 2 - 3) // stride + 1
        assert y.shape[2] == (3 + 2 - 3) // stride + 1
        assert y.shape[3] == (4 + 2 - 3) // stride + 1

    def test_deterministic(self, rng):
        x = rng.normal(size=(4, 6, 6, 6)).astype(np.float32)
        k = rng.normal(size=(4, 4, 3, 3, 3)).astype(np.float32)
        a = mg.conv3d(t(x), t(k)).data
        b = mg.conv3d(t(x), t(k)).data
        assert np.array_equal(a, b)

    def test_finite_on_finite_input(self, rng):
        x = rng.normal(size=(3, 5, 5, 5)).astype(np.float32)
        k = rng.normal(size=(3, 3, 3, 3, 3)).astype(np.float32)
        assert np.isfinite(mg.conv3d(t(x), t(k)).data).all()


class TestConv3dFloat32Rounding:
    """``conv3d`` must round exactly like the tap-loop reference.

    A tolerance is not enough here: nudging one input-kernel weight by
    1 ulp turns the criterion-4 learning run from 2/2 healthy folds into
    one collapsed fold (mean accuracy 0.75 < 0.95). An engine that sums
    the same float32 terms in another order, such as one im2col GEMM with
    K = 27 * c_in, changes results that the acceptance suite pins.
    """

    @pytest.mark.parametrize(
        "c_in,c_out,spatial,ksize,stride,padding",
        [
            (16, 16, (16, 16, 16), 3, 1, 1),
            (16, 16, (23, 28, 23), 3, 1, 1),
            (1, 16, (16, 16, 16), 3, 1, 1),
            (16, 16, (23, 28, 23), 1, 2, 0),
            (16, 16, (5, 7, 3), 1, 2, 0),
            (3, 4, (5, 6, 7), 3, 2, 1),
            (3, 4, (5, 6, 7), 1, 2, 1),
        ],
    )
    @pytest.mark.parametrize("held", [False, True])
    def test_bitwise_equal_to_tap_loop(
        self, rng, c_in, c_out, spatial, ksize, stride, padding, held
    ):
        x = rng.normal(size=(c_in,) + spatial).astype(np.float32)
        bound = np.sqrt(1.0 / (c_in * ksize**3))
        k = rng.uniform(-bound, bound, size=(c_out, c_in) + (ksize,) * 3).astype(np.float32)
        out_sp = tuple(mg.conv_output_extent(n, ksize, stride, padding) for n in spatial)
        g = rng.normal(size=(c_out,) + out_sp).astype(np.float32)
        want_out, want_gx, want_gk = conv3d_taps_reference(x, k, g, stride, padding)

        xt, kt = t(x, requires_grad=True), t(k, requires_grad=True)
        # A gradient the input already holds (another consumer's) is added to.
        earlier = rng.normal(size=x.shape).astype(np.float32) if held else np.zeros_like(x)
        if held:
            xt.grad = earlier.copy()
        with mg.record():
            y = mg.conv3d(xt, kt, stride=stride, padding=padding)
            loss = mg.weighted_sum(y, g)
        mg.backward(loss)
        assert y.dtype == xt.grad.dtype == kt.grad.dtype == np.float32
        assert np.array_equal(y.data, want_out)
        assert np.array_equal(xt.grad, earlier + want_gx)
        assert np.array_equal(kt.grad, want_gk)


class TestElementwise:
    def test_relu_examples(self):
        assert np.array_equal(mg.relu(t([-1.0, 0.0, 2.0])).data, [0.0, 0.0, 2.0])
        x = t([0.5, 0.0, 3.0])
        assert np.array_equal(mg.relu(x).data, x.data)

    def test_add_sub(self, rng):
        a = t(rng.normal(size=(2, 3, 3, 3)))
        assert np.array_equal(mg.sub(a, a).data, np.zeros_like(a.data))
        zero = t(np.zeros_like(a.data))
        assert np.array_equal(mg.add(a, zero).data, a.data)

    def test_shape_mismatch(self):
        with pytest.raises(ShapeError):
            mg.add(t(np.zeros((2, 1, 1, 1))), t(np.zeros((1, 1, 1, 1))))
        with pytest.raises(ShapeError):
            mg.sub(t(np.zeros(3)), t(np.zeros(4)))

    def test_scale_and_sums(self, rng):
        x = t(rng.normal(size=(5,)))
        assert np.allclose(mg.scale(x, 2.0).data, 2.0 * x.data)
        assert mg.reduce_sum(x).item() == pytest.approx(float(x.data.sum()))
        w = rng.normal(size=(5,)).astype(np.float32)
        assert mg.weighted_sum(x, w).item() == pytest.approx(float((x.data * w).sum()))

    def test_mean_scalars(self):
        terms = [t(1.0), t(2.0), t(6.0)]
        assert mg.mean_scalars(terms).item() == pytest.approx(3.0)


class TestAvgPool:
    def test_constant_fixed_point(self):
        x = t(np.full((2, 4, 5, 3), 3.25))
        assert np.array_equal(mg.avg_pool3d(x).data, x.data)

    def test_single_voxel_spreads(self):
        x = np.zeros((1, 5, 5, 5), dtype=np.float32)
        x[0, 2, 2, 2] = 27.0
        y = mg.avg_pool3d(t(x)).data
        neighborhood = y[0, 1:4, 1:4, 1:4]
        assert np.array_equal(neighborhood, np.ones((3, 3, 3), dtype=np.float32))
        assert y.sum() == 27.0  # interior windows are all full
        assert np.array_equal(
            y.astype(np.float64), avg_pool3d_reference(x)
        )

    def test_corner_divisor(self, rng):
        x = rng.normal(size=(1, 3, 3, 3)).astype(np.float32)
        y = mg.avg_pool3d(t(x)).data
        corner = x[0, :2, :2, :2].mean(dtype=np.float64)
        assert abs(y[0, 0, 0, 0] - corner) < 1e-6
        assert np.abs(y.astype(np.float64) - avg_pool3d_reference(x)).max() < 1e-6

    @pytest.mark.parametrize("shape", [(1, 1, 1, 1), (2, 2, 3, 1), (1, 4, 2, 5)])
    def test_matches_reference_edge_shapes(self, rng, shape):
        x = rng.normal(size=shape).astype(np.float32)
        got = mg.avg_pool3d(t(x)).data.astype(np.float64)
        assert np.abs(got - avg_pool3d_reference(x)).max() < 1e-6

    def test_bounds_and_linearity(self, rng):
        x = rng.normal(size=(2, 4, 4, 4)).astype(np.float32)
        y = mg.avg_pool3d(t(x)).data
        assert y.min() >= x.min() - 1e-6 and y.max() <= x.max() + 1e-6
        z = rng.normal(size=x.shape).astype(np.float32)
        lhs = mg.avg_pool3d(t(2.0 * x - 0.5 * z)).data
        rhs = 2.0 * y - 0.5 * mg.avg_pool3d(t(z)).data
        assert np.abs(lhs - rhs).max() < 1e-5


class TestGlobalAvgPool:
    def test_constant_per_channel(self):
        x = np.stack([np.full((3, 3, 3), 1.5), np.full((3, 3, 3), -2.0)])
        assert np.array_equal(mg.global_avg_pool(t(x)).data, [1.5, -2.0])

    def test_arithmetic_mean(self):
        x = np.arange(1, 25, dtype=np.float32).reshape(1, 2, 3, 4)
        assert mg.global_avg_pool(t(x)).data[0] == pytest.approx(12.5)


class TestLinear:
    def test_identity(self, rng):
        x = t(rng.normal(size=(3,)))
        y = mg.linear(x, t(np.eye(3)), t(np.zeros(3)))
        assert np.allclose(y.data, x.data)

    def test_worked_matvec(self):
        y = mg.linear(t([1.0, 2.0]), t([[1.0, 1.0], [0.0, 1.0]]), t([0.0, 1.0]))
        assert np.array_equal(y.data, [3.0, 3.0])

    def test_shape_mismatch(self):
        with pytest.raises(ShapeError):
            mg.linear(t([1.0, 2.0]), t(np.eye(3)), t(np.zeros(3)))


class TestSoftmaxCrossEntropy:
    def test_uniform_logits(self):
        for label in (0, 1):
            loss = mg.softmax_cross_entropy(t([0.0, 0.0]), label)
            assert loss.item() == pytest.approx(np.log(2.0), abs=1e-6)

    def test_saturated_correct_class(self):
        assert mg.softmax_cross_entropy(t([100.0, 0.0]), 0).item() < 1e-10

    def test_label_out_of_range(self):
        with pytest.raises(ArgumentError):
            mg.softmax_cross_entropy(t([0.0, 0.0]), 2)
        with pytest.raises(ArgumentError):
            mg.softmax_cross_entropy(t([0.0, 0.0]), -1)


class TestChannelNorm:
    def test_standardizes_channels(self, rng):
        x = rng.normal(loc=3.0, scale=2.5, size=(3, 4, 4, 4)).astype(np.float32)
        y = mg.channel_norm(t(x)).data
        means = y.mean(axis=(1, 2, 3))
        stds = y.std(axis=(1, 2, 3))
        assert np.abs(means).max() < 1e-5
        assert np.abs(stds - 1.0).max() < 1e-2  # eps keeps std slightly under 1

    def test_zero_input_stays_zero(self):
        x = t(np.zeros((2, 3, 3, 3)))
        assert np.array_equal(mg.channel_norm(x).data, x.data)


class TestSgdStep:
    def make_param(self, value, grad):
        p = Tensor(np.asarray(value, dtype=np.float32), requires_grad=True)
        p.grad = np.asarray(grad, dtype=np.float32)
        return p

    def test_zero_gradient_is_noop(self):
        p = self.make_param([1.0, -2.0], [0.0, 0.0])
        mg.sgd_step([p], lr=0.5)
        assert np.array_equal(p.data, [1.0, -2.0])
        assert p.grad is None

    def test_worked_update(self):
        p = self.make_param([1.0], [0.5])
        mg.sgd_step([p], lr=0.1)
        assert p.data[0] == pytest.approx(0.95)

    def test_two_steps_equal_one_at_summed_displacement(self):
        # Closed form: constant gradient g for two steps moves 2*lr*g.
        p1 = self.make_param([1.0, 2.0], [0.25, -0.5])
        mg.sgd_step([p1], lr=0.1)
        p1.grad = np.asarray([0.25, -0.5], dtype=np.float32)
        mg.sgd_step([p1], lr=0.1)
        p2 = self.make_param([1.0, 2.0], [0.25, -0.5])
        mg.sgd_step([p2], lr=0.2)
        assert np.allclose(p1.data, p2.data, atol=1e-7)

    def test_missing_gradient(self):
        p = Tensor(np.zeros(2), requires_grad=True)
        with pytest.raises(StateError):
            mg.sgd_step([p], lr=0.1)

    def test_negative_lr_rejected(self):
        p = self.make_param([1.0], [1.0])
        with pytest.raises(ArgumentError):
            mg.sgd_step([p], lr=-0.1)


class TestTapeSemantics:
    def test_tape_records_execution_order(self, rng):
        x = Tensor(rng.normal(size=(3,)).astype(np.float32), requires_grad=True)
        with mg.record() as tape:
            a = mg.relu(x)
            b = mg.scale(a, 2.0)
            c = mg.reduce_sum(b)
        assert [op.out for op in tape.ops] == [a, b, c]

    def test_backward_without_record(self):
        x = Tensor(np.asarray(1.0), requires_grad=True)
        with pytest.raises(ArgumentError):
            mg.backward(x)

    def test_non_scalar_root(self, rng):
        x = Tensor(rng.normal(size=(3,)).astype(np.float32), requires_grad=True)
        with mg.record():
            y = mg.relu(x)
        with pytest.raises(ArgumentError):
            mg.backward(y)

    def test_finished_tape_is_freed_without_gc(self, rng):
        # Each output references its tape; once backward has run, dropping
        # the root must free the tape and its saved activations by
        # reference counting alone.
        x = Tensor(rng.normal(size=(2, 4, 4, 4)).astype(np.float32))
        k = Tensor(rng.normal(size=(2, 2, 3, 3, 3)).astype(np.float32), requires_grad=True)
        gc.disable()
        try:
            with mg.record() as tape:
                loss = mg.reduce_sum(mg.relu(mg.conv3d(x, k)))
            freed = weakref.ref(tape)
            del tape
            mg.backward(loss)
            del loss
            assert freed() is None
        finally:
            gc.enable()
        assert k.grad is not None

    def test_no_grad_suppresses_recording(self, rng):
        x = Tensor(rng.normal(size=(3,)).astype(np.float32), requires_grad=True)
        with mg.record() as tape:
            with mg.no_grad():
                mg.relu(x)
        assert tape.ops == []
