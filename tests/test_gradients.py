"""Finite-difference validation of every differentiable operation.

All checks run in float64 on both sides: the analytic gradients come from
the library's own backward pass on float64 tensors, the numeric side from
central differences with step 1e-3.
"""

import numpy as np
import pytest

import mgnet3d as mg
from mgnet3d import Tensor, backward, record

from helpers import check_gradients, f64_tensor, params_to_f64, reduce_sum, weighted_sum


def away_from_kinks(arr, margin=0.05):
    """Push values away from zero so ReLU finite differences stay clean."""
    return arr + margin * np.sign(arr) + (arr == 0) * margin


class TestOpGradients:
    @pytest.mark.parametrize("stride,ksize,padding", [(1, 3, 1), (2, 1, 0), (1, 1, 0)])
    def test_conv3d(self, rng, stride, ksize, padding):
        x = f64_tensor(rng, (2, 4, 5, 4))
        k = f64_tensor(rng, (3, 2, ksize, ksize, ksize), scale=0.5)
        w = rng.normal(size=(3,) + tuple((n + 2 * padding - ksize) // stride + 1 for n in (4, 5, 4)))
        check_gradients(lambda: weighted_sum(mg.conv3d(x, k, stride), w), [x, k])

    def test_relu(self, rng):
        data = away_from_kinks(rng.normal(size=(3, 4, 4, 4)))
        x = Tensor(data, requires_grad=True, dtype=np.float64)
        w = rng.normal(size=x.shape)
        check_gradients(lambda: weighted_sum(mg.relu(x), w), [x])

    def test_relu_worked_example(self):
        x = Tensor(np.asarray([-1.0, 2.0]), requires_grad=True, dtype=np.float64)
        with record():
            loss = reduce_sum(mg.relu(x))
        backward(loss)
        assert np.array_equal(x.grad, [0.0, 1.0])

    def test_add_sub_signs(self, rng):
        a = f64_tensor(rng, (3, 3))
        b = f64_tensor(rng, (3, 3))
        with record():
            loss = reduce_sum(mg.sub(a, b))
        backward(loss)
        assert np.array_equal(a.grad, np.ones((3, 3)))
        assert np.array_equal(b.grad, -np.ones((3, 3)))
        a.grad = b.grad = None
        w = rng.normal(size=(3, 3))
        check_gradients(lambda: weighted_sum(mg.add(a, b), w), [a, b])

    def test_avg_pool3d(self, rng):
        x = f64_tensor(rng, (2, 3, 4, 3))
        w = rng.normal(size=x.shape)
        check_gradients(lambda: weighted_sum(mg.avg_pool3d(x), w), [x])

    def test_global_avg_pool(self, rng):
        x = f64_tensor(rng, (2, 3, 3, 3))
        w = rng.normal(size=(2,))
        check_gradients(lambda: weighted_sum(mg.global_avg_pool(x), w), [x])

    def test_global_avg_pool_sum_gradient(self, rng):
        x = f64_tensor(rng, (2, 3, 4, 5))
        with record():
            loss = reduce_sum(mg.global_avg_pool(x))
        backward(loss)
        assert np.allclose(x.grad, 1.0 / (3 * 4 * 5))

    def test_linear(self, rng):
        x = f64_tensor(rng, (4,))
        w = f64_tensor(rng, (3, 4))
        b = f64_tensor(rng, (3,))
        wt = rng.normal(size=(3,))
        worst = check_gradients(lambda: weighted_sum(mg.linear(x, w, b), wt), [x, w, b])
        assert worst < 1e-3

    def test_softmax_cross_entropy(self, rng):
        logits = f64_tensor(rng, (4,))
        check_gradients(lambda: mg.softmax_cross_entropy(logits, 2), [logits])

    def test_softmax_adjoint_formula(self):
        logits = Tensor(np.asarray([1.0, 2.0]), requires_grad=True, dtype=np.float64)
        with record():
            loss = mg.softmax_cross_entropy(logits, 1)
        backward(loss)
        z = np.exp([1.0, 2.0])
        softmax = z / z.sum()
        assert np.allclose(logits.grad, softmax - np.asarray([0.0, 1.0]), atol=1e-12)

    def test_channel_norm(self, rng):
        x = f64_tensor(rng, (2, 3, 3, 3))
        w = rng.normal(size=x.shape)
        check_gradients(lambda: weighted_sum(mg.channel_norm(x), w), [x])

    def test_scale_and_sums(self, rng):
        x = f64_tensor(rng, (5,))
        w = rng.normal(size=(5,))
        check_gradients(lambda: weighted_sum(mg.scale(x, -1.7), w), [x])
        check_gradients(lambda: reduce_sum(x), [x])


class TestGraphGradients:
    def test_sum_gives_ones(self, rng):
        x = f64_tensor(rng, (3, 4))
        with record():
            loss = reduce_sum(x)
        backward(loss)
        assert np.array_equal(x.grad, np.ones((3, 4)))

    def test_composite_pipeline(self, rng):
        x = f64_tensor(rng, (1, 4, 4, 4), requires_grad=False)
        k = f64_tensor(rng, (2, 1, 3, 3, 3), scale=0.5)
        w = f64_tensor(rng, (2, 2), scale=0.5)
        b = f64_tensor(rng, (2,), scale=0.5)

        def loss():
            h = mg.relu(mg.conv3d(x, k))
            h = mg.avg_pool3d(h)
            return mg.softmax_cross_entropy(mg.linear(mg.global_avg_pool(h), w, b), 1)

        check_gradients(loss, [k, w, b])

    def test_tensor_used_twice_sums_both_paths(self, rng):
        x = f64_tensor(rng, (1, 3, 3, 3))
        k1 = f64_tensor(rng, (1, 1, 3, 3, 3), scale=0.5)
        k2 = f64_tensor(rng, (1, 1, 3, 3, 3), scale=0.5)
        w = rng.normal(size=(1, 3, 3, 3))

        def loss():
            return weighted_sum(mg.add(mg.conv3d(x, k1), mg.conv3d(x, k2)), w)

        check_gradients(loss, [x, k1, k2])
        # Direct accumulation: y = x + x doubles the incoming gradient.
        z = f64_tensor(rng, (4,))
        with record():
            total = reduce_sum(mg.add(z, z))
        backward(total)
        assert np.array_equal(z.grad, 2.0 * np.ones(4))

    def test_unreachable_parameter_gets_no_grad(self, rng):
        x = f64_tensor(rng, (3,))
        orphan = f64_tensor(rng, (3,))
        with record():
            mg.relu(orphan)  # recorded, but not part of the loss
            loss = reduce_sum(mg.relu(x))
        backward(loss)
        assert orphan.grad is None
        with pytest.raises(mg.StateError):
            mg.sgd_step([x, orphan], lr=0.1)

    def test_end_to_end_tiny_model(self):
        # Central differences are only valid away from ReLU kinks, so the
        # test point is conditioned: positive kernels on the fine-grid
        # paths and a positive volume keep every activation input either
        # exactly zero (stable under the step) or beyond an asserted
        # margin. The margin is checked below, so the point cannot rot.
        cfg = mg.MgNetConfig(
            num_grids=2,
            smoothing_iters=1,
            feature_channels=2,
            data_channels=2,
            input_channels=1,
            num_classes=2,
            seed=1,
        )
        params = params_to_f64(mg.build(cfg))
        for name in ("input_kernel", "level1.smoother1", "level2.smoother1", "level1.prolongation"):
            t = params.by_name[name]
            t.data = np.abs(t.data) + 0.05
        vol_rng = np.random.default_rng(1001)
        volume = Tensor(np.abs(vol_rng.normal(size=(1, 5, 5, 5))) + 0.5, dtype=np.float64)
        tensors = list(params.tensors())

        def loss():
            return mg.softmax_cross_entropy(mg.forward(params, volume), 1)

        with record() as tape:
            probe = loss()
        # Read before backward, which releases the recorded values.
        margins = []
        for op in tape.ops:
            if "relu" in op.adjoint.__qualname__:
                magnitudes = np.abs(op.inputs[0].data)
                nonzero = magnitudes[magnitudes > 0]
                if nonzero.size:
                    margins.append(float(nonzero.min()))
        backward(probe)
        assert min(margins) > 0.02, "test point drifted onto a ReLU kink"
        assert all(t.grad is not None and np.abs(t.grad).max() > 1e-4 for t in tensors)
        for t in tensors:
            t.grad = None

        worst = check_gradients(loss, tensors)
        assert worst < 1e-3
