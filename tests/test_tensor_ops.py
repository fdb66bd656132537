"""Forward semantics of the tensor engine operations."""

import gc
import os
import subprocess
import sys
import textwrap
import threading
import tracemalloc
import warnings
import weakref
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import mgnet3d as mg
from mgnet3d import ArgumentError, ShapeError, StateError, Tensor

from helpers import (
    avg_pool3d_reference,
    box_sum_reference,
    conv3d_reference,
    conv3d_taps_reference,
    count_worker_handoffs,
    reduce_sum,
    run_worker_jobs_inline,
    weighted_sum,
)


SRC = str(Path(__file__).resolve().parents[1] / "src")


def t(arr, dtype=np.float32, requires_grad=False):
    return Tensor(np.asarray(arr, dtype=dtype), requires_grad=requires_grad)


class TestConv3d:
    def test_identity_kernel(self, rng):
        x = t(rng.normal(size=(2, 4, 5, 6)).astype(np.float32))
        k = np.zeros((2, 2, 3, 3, 3), dtype=np.float32)
        k[0, 0, 1, 1, 1] = 1.0
        k[1, 1, 1, 1, 1] = 1.0
        y = mg.conv3d(x, t(k))
        assert np.array_equal(y.data, x.data)

    def test_all_ones_counts_padded_neighbors(self):
        # Integer sums of ones are exact in float32 regardless of order.
        x = t(np.ones((1, 3, 3, 3)))
        k = t(np.ones((1, 1, 3, 3, 3)))
        y = mg.conv3d(x, k).data
        assert y[0, 1, 1, 1] == 27.0  # center
        assert y[0, 0, 1, 1] == 18.0  # face center
        assert y[0, 0, 0, 1] == 12.0  # edge center
        assert y[0, 0, 0, 0] == 8.0  # corner
        expected = conv3d_reference(x.data, k.data, stride=1, padding=1)
        assert np.array_equal(y.astype(np.float64), expected)

    def test_stride2_output_shape(self, rng):
        x = t(rng.normal(size=(2, 5, 5, 5)))
        k = t(rng.normal(size=(4, 2, 1, 1, 1)))
        y = mg.conv3d(x, k, stride=2)
        assert y.shape == (4, 3, 3, 3)

    @pytest.mark.parametrize("ksize,padding,stride", [(3, 1, 1), (1, 0, 1), (1, 0, 2)])
    def test_matches_reference(self, rng, stride, ksize, padding):
        x = rng.normal(size=(3, 4, 5, 3)).astype(np.float32)
        k = rng.normal(size=(2, 3, ksize, ksize, ksize)).astype(np.float32)
        got = mg.conv3d(t(x), t(k), stride=stride).data
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

    def test_stride2_needs_1x1x1_kernel(self, rng):
        # Stride 2 is the grid transfer; no other kernel runs at stride 2.
        x = t(rng.normal(size=(2, 5, 5, 5)))
        k = t(rng.normal(size=(3, 2, 3, 3, 3)))
        with pytest.raises(ArgumentError, match="stride 2"):
            mg.conv3d(x, k, stride=2)

    @pytest.mark.parametrize("ksize", [2, 4])
    def test_even_kernel(self, rng, ksize):
        # Zero padding k // 2 keeps the extent only for an odd kernel.
        x = t(rng.normal(size=(2, 5, 5, 5)))
        k = t(rng.normal(size=(3, 2) + (ksize,) * 3))
        for stride in (1, 2):
            with pytest.raises(ShapeError, match="odd size"):
                mg.conv3d(x, k, stride=stride)

    @pytest.mark.parametrize("shape", [(2, 0, 5, 5), (2, 5, 5, 0)])
    def test_zero_extent(self, shape):
        k = t(np.ones((3, 2, 3, 3, 3)))
        for stride, kernel in ((1, k), (2, t(np.ones((3, 2, 1, 1, 1))))):
            with pytest.raises(ShapeError, match="zero extent"):
                mg.conv3d(t(np.ones(shape)), kernel, stride=stride)

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
        # Stride 1 runs the 3x3x3 same conv, stride 2 the grid transfer.
        ksize, padding = (3, 1) if stride == 1 else (1, 0)
        x = Tensor(np.ones((1, n, 3, 4), dtype=np.float32))
        k = Tensor(np.ones((1, 1) + (ksize,) * 3, dtype=np.float32))
        y = mg.conv3d(x, k, stride=stride)
        for got, extent in zip(y.shape[1:], (n, 3, 4)):
            assert got == (extent + 2 * padding - ksize) // stride + 1

    @given(
        spatial=st.tuples(*[st.integers(min_value=1, max_value=6)] * 3),
        c_in=st.integers(min_value=1, max_value=4),
        c_out=st.integers(min_value=1, max_value=4),
        ksize_stride=st.sampled_from([(1, 2), (3, 1), (5, 1)]),
        seed=st.integers(min_value=0, max_value=2**32 - 1),
    )
    def test_input_adjoint_is_the_transpose(self, spatial, c_in, c_out, ksize_stride, seed):
        # <conv3d(x), g> = <x, x.grad>: the input adjoint's mirrored-offset
        # correlation is the transpose of the forward, edges included.
        ksize, stride = ksize_stride
        r = np.random.default_rng(seed)
        x = Tensor(r.normal(size=(c_in,) + spatial), requires_grad=True, dtype=np.float64)
        k = Tensor(r.normal(size=(c_out, c_in) + (ksize,) * 3), dtype=np.float64)
        with mg.record():
            y = mg.conv3d(x, k, stride=stride)
            g = r.normal(size=y.shape)
            loss = weighted_sum(y, g)
        lhs, lhs_scale = np.sum(y.data * g), np.abs(y.data * g).sum()
        mg.backward(loss)
        rhs = np.sum(x.data * x.grad)
        scale = max(lhs_scale, np.abs(x.data * x.grad).sum())
        assert abs(lhs - rhs) <= 1e-12 * scale, (lhs, rhs)

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
            (3, 4, (5, 6, 7), 3, 1, 1),
            (3, 4, (5, 6, 7), 1, 2, 0),
            (16, 16, (46, 55, 46), 3, 1, 1),
            (64, 64, (12, 12, 12), 3, 1, 1),
            # The finest transfer of a 46x55x46 model: four column tiles.
            (16, 16, (46, 55, 46), 1, 2, 0),
            # Several column tiles of unequal width (see _correlate):
            # 18,169 columns in 5 tiles.
            (8, 8, (25, 25, 25), 3, 1, 1),
            (32, 32, (46, 55, 46), 3, 1, 1),
            # Maps one voxel wide: the input adjoint's GEMMs have one
            # column, or a few columns wrapped across rows.
            (16, 16, (1, 1, 1), 3, 1, 1),
            (2, 3, (1, 4, 1), 3, 1, 1),
            (2, 2, (3, 1, 5), 5, 1, 2),
            # Just above 2T columns: 6,148 in three tiles of unequal width.
            (16, 16, (8, 29, 23), 3, 1, 1),
            # 18,666 columns in 7 tiles at c=32.
            (32, 32, (24, 28, 24), 3, 1, 1),
        ],
    )
    @pytest.mark.parametrize("held", [False, True])
    def test_bitwise_equal_to_tap_loop(
        self, rng, c_in, c_out, spatial, ksize, stride, padding, held
    ):
        self.check(rng, c_in, c_out, spatial, ksize, stride, padding, held)

    def test_lift_conv_of_46x55x46_model(self, rng):
        # 41 tiles of products with one input channel. The volume takes no
        # gradient, and a single-row input adjoint is not pinned (README,
        # Tensor engine).
        self.check(rng, 1, 16, (46, 55, 46), 3, 1, 1, held=False, input_grad=False)

    # Maps of n = kT - 1 and kT + 1 flat columns (n = (D-1)*Hp*Wp +
    # (H-1)*Wp + W, T = _TILE_COLUMNS): the last column of k tiles, and the
    # first of k + 1 tiles of unequal width. The 1->4 conv runs the
    # one-input-channel product; its single-row input adjoint is not pinned.
    TILE_EDGES = {
        (63, 5, 5): (1, -1),
        (25, 3, 23): (1, 1),
        (1, 5, 1227): (2, -1),
        (1, 9, 681): (2, 1),
        (79, 7, 11): (3, -1),
        (63, 5, 19): (3, 1),
    }

    @pytest.mark.parametrize("spatial", list(TILE_EDGES))
    @pytest.mark.parametrize("c_in,c_out", [(2, 2), (1, 4)])
    def test_tile_edges(self, rng, spatial, c_in, c_out):
        d, h, w = spatial
        n = (d - 1) * (h + 2) * (w + 2) + (h - 1) * (w + 2) + w
        tiles, off = self.TILE_EDGES[spatial]
        assert n == tiles * mg.tensor._TILE_COLUMNS + off
        self.check(rng, c_in, c_out, spatial, 3, 1, 1, held=False, input_grad=c_in > 1)

    def check(self, rng, c_in, c_out, spatial, ksize, stride, padding, held, input_grad=True):
        x = rng.normal(size=(c_in,) + spatial).astype(np.float32)
        bound = np.sqrt(1.0 / (c_in * ksize**3))
        k = rng.uniform(-bound, bound, size=(c_out, c_in) + (ksize,) * 3).astype(np.float32)
        out_sp = tuple((n + 2 * padding - ksize) // stride + 1 for n in spatial)
        g = rng.normal(size=(c_out,) + out_sp).astype(np.float32)
        want_out, want_gx, want_gk = conv3d_taps_reference(x, k, g, stride, padding)

        xt, kt = t(x, requires_grad=input_grad), t(k, requires_grad=True)
        # A gradient the input already holds (another consumer's) is added to.
        earlier = rng.normal(size=x.shape).astype(np.float32) if held else np.zeros_like(x)
        if held:
            xt.grad = earlier.copy()
        with mg.record():
            y = mg.conv3d(xt, kt, stride=stride)
            loss = weighted_sum(y, g)
        # Read y before backward, which releases it.
        assert y.dtype == np.float32
        assert np.array_equal(y.data, want_out)
        mg.backward(loss)
        assert kt.grad.dtype == np.float32
        assert np.array_equal(kt.grad, want_gk)
        if input_grad:
            assert xt.grad.dtype == np.float32
            assert np.array_equal(xt.grad, earlier + want_gx)


class TestConv3dThreadIndependence:
    def test_one_output_channel_kernel_gradient(self):
        # A single-row kernel adjoint would be a matrix-vector BLAS call
        # whose D*H*W sum is split across BLAS threads.
        script = textwrap.dedent(
            """
            import hashlib
            import numpy as np
            import mgnet3d as mg
            rng = np.random.default_rng(3)
            x = mg.Tensor(rng.normal(size=(16, 32, 32, 32)).astype(np.float32))
            k = mg.Tensor(rng.normal(size=(1, 16, 3, 3, 3)).astype(np.float32), requires_grad=True)
            with mg.record() as tape:
                mg.conv3d(x, k)
            tape.ops[0].adjoint(rng.normal(size=(1, 32, 32, 32)).astype(np.float32))
            print(hashlib.sha256(k.grad.tobytes()).hexdigest())
            """
        )
        hashes = []
        for threads in ("1", "2"):
            env = dict(os.environ, OPENBLAS_NUM_THREADS=threads, OMP_NUM_THREADS=threads)
            env["PYTHONPATH"] = os.pathsep.join(filter(None, [SRC, env.get("PYTHONPATH")]))
            done = subprocess.run(
                [sys.executable, "-c", script], env=env, capture_output=True, text=True, timeout=300
            )
            assert done.returncode == 0, done.stderr
            hashes.append(done.stdout.strip())
        assert hashes[0] == hashes[1]


class TestConv3dAdjointWorker:
    """An adjoint that needs both gradients, of a conv whose kernel gradient
    is large enough (c=16 at 20^3 here), queues the kernel's on the one
    adjoint worker thread."""

    def adjoint(self, x, k, g):
        """Run one conv3d adjoint with x and the kernel requiring gradients."""
        xt, kt = t(x, requires_grad=True), t(k, requires_grad=True)
        with mg.record() as tape:
            mg.conv3d(xt, kt)
        tape.ops[0].adjoint(g)
        return xt, kt

    def case(self, rng, channels=16, spatial=(20, 20, 20)):
        x = rng.normal(size=(channels,) + spatial).astype(np.float32)
        k = (0.05 * rng.normal(size=(channels, channels, 3, 3, 3))).astype(np.float32)
        g = rng.normal(size=x.shape).astype(np.float32)
        return x, k, g

    @pytest.mark.parametrize("channels,spatial", [(24, (46, 55, 46)), (64, (23, 28, 23))])
    def test_kernel_gradient_equals_inline(self, rng, monkeypatch, channels, spatial):
        # At these widths the kernel gradient's rounding depends on the BLAS
        # thread count, so a worker thread that split its GEMMs differently
        # would show here.
        x, k, g = self.case(rng, channels, spatial)
        handoffs = count_worker_handoffs(monkeypatch)
        _, threaded = self.adjoint(x, k, g)
        assert handoffs == [1]
        kt = t(k, requires_grad=True)
        with mg.record() as tape:
            mg.conv3d(t(x), kt)
        tape.ops[0].adjoint(g)
        assert threaded.grad.tobytes() == kt.grad.tobytes()

    def test_small_conv_runs_inline(self, rng, monkeypatch):
        # c=16 at 16^3 is below the hand-off's break-even.
        handoffs = count_worker_handoffs(monkeypatch)
        self.adjoint(*self.case(rng, 16, (16, 16, 16)))
        assert handoffs == []

    def test_error_state_reaches_the_worker(self, rng, monkeypatch):
        # A diverging run overflows under the training step's np.errstate;
        # the worker's GEMMs must stay as silent as the caller's.
        x = np.full((16, 20, 20, 20), 1e30, dtype=np.float32)
        k = (0.1 * rng.normal(size=(16, 16, 3, 3, 3))).astype(np.float32)
        handoffs = count_worker_handoffs(monkeypatch)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with np.errstate(over="ignore"):
                _, kt = self.adjoint(x, k, x.copy())
        assert handoffs == [1]
        assert np.isinf(kt.grad).all()

    def test_concurrent_callers(self, rng, monkeypatch):
        # More callers than cores, switching often, as cv fold threads do:
        # every caller hands off and queues on the one worker, and must get
        # the gradients of a hand-off run on its own thread.
        cases = [self.case(rng) for _ in range(4)]
        with monkeypatch.context() as m:
            run_worker_jobs_inline(m)
            want = [[a.grad.tobytes() for a in self.adjoint(*case)] for case in cases]
        handoffs = count_worker_handoffs(monkeypatch)
        got = [None] * len(cases)

        def caller(i):
            got[i] = [a.grad.tobytes() for a in self.adjoint(*cases[i])]

        callers = [threading.Thread(target=caller, args=(i,)) for i in range(len(cases))]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for th in callers:
                th.start()
            for th in callers:
                th.join(timeout=120)
        finally:
            sys.setswitchinterval(interval)
        assert not any(th.is_alive() for th in callers)
        assert handoffs == [1] * len(cases)
        assert got == want

    def test_thread_starts_on_first_handoff(self):
        script = textwrap.dedent(
            """
            import threading
            import numpy as np
            import mgnet3d as mg

            def adjoint(n):
                x = mg.Tensor(np.ones((16, n, n, n), np.float32), requires_grad=True)
                k = mg.Tensor(np.ones((16, 16, 3, 3, 3), np.float32), requires_grad=True)
                with mg.record() as tape:
                    mg.conv3d(x, k)
                tape.ops[0].adjoint(np.ones((16, n, n, n), np.float32))
                return threading.active_count()

            print(threading.active_count(), adjoint(16), adjoint(20))
            """
        )
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [SRC, env.get("PYTHONPATH")]))
        done = subprocess.run(
            [sys.executable, "-c", script], env=env, capture_output=True, text=True, timeout=300
        )
        # The idle worker does not hold up interpreter exit.
        assert done.returncode == 0, done.stderr
        assert done.stderr == ""
        # At c=16 a 16^3 adjoint runs inline and a 20^3 one hands off.
        assert done.stdout.split() == ["1", "1", "2"]


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
        assert reduce_sum(x).item() == pytest.approx(float(x.data.sum()))
        w = rng.normal(size=(5,)).astype(np.float32)
        assert weighted_sum(x, w).item() == pytest.approx(float((x.data * w).sum()))

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

    @pytest.mark.parametrize("shape", [(1, 1, 1, 1), (2, 2, 3, 4), (3, 5, 9, 7), (16, 8, 8, 8),
                                       (2, 16, 16, 16), (16, 4, 4, 4), (1, 4, 2, 5)])
    def test_bitwise_equal_to_strided_box_sum(self, rng, shape):
        x = rng.normal(size=shape).astype(np.float32)
        x.flat[::5] = -0.0
        x.flat[::7] = 1e-40  # subnormal
        g = rng.normal(size=shape).astype(np.float32)
        counts = box_sum_reference(np.ones((1,) + shape[1:], dtype=np.float32))
        xt = t(x, requires_grad=True)
        with mg.record():
            y = mg.avg_pool3d(xt)
            loss = weighted_sum(y, g)
        assert y.data.tobytes() == (box_sum_reference(x) / counts).tobytes()
        mg.backward(loss)
        assert xt.grad.tobytes() == box_sum_reference(g / counts).tobytes()

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
            c = reduce_sum(b)
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
                loss = reduce_sum(mg.relu(mg.conv3d(x, k)))
            freed = weakref.ref(tape)
            del tape
            mg.backward(loss)
            del loss
            assert freed() is None
        finally:
            gc.enable()
        assert k.grad is not None

    def test_first_gradient_is_fresh_positive_zero(self, rng):
        # A -0 first contribution lands as +0, as it would on a zero start.
        x = Tensor(np.ones(3, dtype=np.float32), requires_grad=True)
        with mg.record():
            loss = weighted_sum(x, np.array([-0.0, 1.0, -0.0]))
        mg.backward(loss)
        assert np.array_equal(x.grad, [0.0, 1.0, 0.0])
        assert not np.signbit(x.grad).any()
        # add's adjoint hands one array to both inputs; each gets its own.
        a = Tensor(rng.normal(size=(2, 3)).astype(np.float32), requires_grad=True)
        b = Tensor(rng.normal(size=(2, 3)).astype(np.float32), requires_grad=True)
        with mg.record():
            loss = reduce_sum(mg.add(a, b))
        mg.backward(loss)
        assert np.array_equal(a.grad, np.ones((2, 3))) and np.array_equal(b.grad, a.grad)
        assert not np.shares_memory(a.grad, b.grad)
        # relu keeps its own masked product as a first gradient: a negative
        # g on a masked voxel gives -0 there, which must still land as +0.
        r = Tensor(np.array([-1.0, 2.0, -3.0, 4.0], dtype=np.float32), requires_grad=True)
        with mg.record():
            y = mg.relu(r)
            loss = weighted_sum(y, np.array([-1.0, -2.0, 5.0, 3.0]))
        mg.backward(loss)
        assert np.array_equal(r.grad, [0.0, -2.0, 0.0, 3.0])
        assert not np.signbit(r.grad[[0, 2]]).any()
        assert r.grad.dtype == np.float32

    def test_gradient_lifetime(self, rng):
        # Leaves keep their gradients, a leaf off the path to the root gets
        # none, and every recorded output (the root included) ends with
        # none: each is dropped once its producer has consumed it.
        x = Tensor(rng.normal(size=(2, 4, 4, 4)).astype(np.float32), requires_grad=True)
        k = Tensor(rng.normal(size=(2, 2, 3, 3, 3)).astype(np.float32), requires_grad=True)
        orphan = Tensor(rng.normal(size=(3,)).astype(np.float32), requires_grad=True)
        with mg.record() as tape:
            off_path = mg.relu(orphan)
            h = mg.relu(mg.conv3d(x, k))
            loss = reduce_sum(h)
        outputs = [op.out for op in tape.ops]
        mg.backward(loss)
        assert x.grad is not None and np.abs(x.grad).max() > 0
        assert k.grad is not None and np.abs(k.grad).max() > 0
        assert orphan.grad is None
        with pytest.raises(StateError):
            mg.sgd_step([x, k, orphan], lr=0.1)
        assert len(outputs) == 4 and tape.ops == []
        assert all(out.grad is None for out in outputs)
        assert off_path.grad is None and h.grad is None and loss.grad is None

    def test_backward_releases_recorded_values(self, rng):
        # Only the arrays an adjoint captured outlive the start of backward;
        # leaves and the root keep their values.
        x = Tensor(rng.normal(size=(2, 4, 4, 4)).astype(np.float32), requires_grad=True)
        k = Tensor(rng.normal(size=(2, 2, 3, 3, 3)).astype(np.float32), requires_grad=True)
        w = Tensor(rng.normal(size=(2, 2)).astype(np.float32), requires_grad=True)
        b = Tensor(np.zeros(2, dtype=np.float32))
        leaves = [(t, t.data.copy()) for t in (x, k, w, b)]
        with mg.record() as tape:
            h = mg.avg_pool3d(mg.relu(mg.conv3d(x, k)))
            logits = mg.linear(mg.global_avg_pool(h), w, b)
            loss = mg.softmax_cross_entropy(logits, 1)
        outputs = [op.out for op in tape.ops]
        value = loss.item()
        mg.backward(loss)
        assert len(outputs) == 6 and outputs[-1] is loss
        assert all(out.data is None for out in outputs[:-1])
        assert loss.item() == value
        for leaf, data in leaves:
            assert np.array_equal(leaf.data, data)
        assert all(t.grad is not None for t in (x, k, w))

    def test_released_value_names_the_release(self, rng):
        x = Tensor(rng.normal(size=(1,)).astype(np.float32), requires_grad=True)
        with mg.record():
            y = mg.relu(x)
            loss = reduce_sum(y)
        mg.backward(loss)
        assert y.data is None
        for read in (lambda: y.shape, lambda: y.ndim, lambda: y.size, lambda: y.dtype, y.item):
            with pytest.raises(StateError, match="backward released"):
                read()
        assert repr(y) == "Tensor(released, requires_grad=True)"

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_relu_output_mask_is_input_mask(self, dtype):
        # The adjoint masks by relu's output; max(x, 0) > 0 exactly where
        # x > 0, on signed zeros, infinities, NaN and subnormals too.
        info = np.finfo(dtype)
        values = np.array([0.0, -0.0, np.inf, -np.inf, np.nan, -np.nan, info.smallest_subnormal,
                           -info.smallest_subnormal, info.tiny, -info.tiny, 1.0, -1.0], dtype=dtype)
        assert np.array_equal(np.maximum(values, 0) > 0, values > 0)
        x = Tensor(values, requires_grad=True, dtype=dtype)
        with mg.record():
            loss = weighted_sum(mg.relu(x), np.arange(1, values.size + 1))
        mg.backward(loss)
        assert np.array_equal(x.grad, np.arange(1, values.size + 1) * (values > 0))

    def test_backward_consumes_the_tape(self, rng):
        # Each op leaves the tape as its adjoint runs, so when the first
        # op's adjoint runs, a later output that only the tape held is
        # already freed, with its array. The probe wraps an adjoint as
        # perfbench does.
        x = Tensor(rng.normal(size=(4,)).astype(np.float32), requires_grad=True)
        with mg.record() as tape:
            y = mg.scale(mg.relu(x), 2.0)
            loss = reduce_sum(mg.scale(y, 3.0))
        later = weakref.ref(y.data)
        del y
        seen = []
        first = tape.ops[0]

        def probe(g, adjoint=first.adjoint):
            seen.append(later())
            adjoint(g)

        tape.ops[0] = first._replace(adjoint=probe)
        del first
        mg.backward(loss)
        assert len(seen) == 1 and seen[0] is None
        assert tape.ops == []
        assert np.array_equal(x.grad, 6.0 * (x.data > 0))
        with pytest.raises(ArgumentError):
            mg.backward(loss)


class TestBackwardMemory:
    """A chain of relu(conv3d) layers, c=8 at 24^3, measured with tracemalloc
    (numpy reports its buffers to it)."""

    channels, extent = 8, 24

    def run_chain(self, depth: int) -> tuple[float, int, int]:
        """(memory the forward holds / the tape's output bytes, backward's
        peak above the memory held when the first adjoint runs, memory the
        graph holds then)."""
        rng = np.random.default_rng(5)
        c, n = self.channels, self.extent
        tracemalloc.start()
        try:
            x = t(rng.normal(size=(c, n, n, n)), requires_grad=True)
            kernels = [t(0.1 * rng.normal(size=(c, c, 3, 3, 3)), requires_grad=True) for _ in range(depth)]
            before = tracemalloc.get_traced_memory()[0]
            with mg.record() as tape:
                h = x
                for k in kernels:
                    h = mg.relu(mg.conv3d(h, k))
                loss = reduce_sum(h)
            held = tracemalloc.get_traced_memory()[0] - before
            out_bytes = sum(op.out.data.nbytes for op in tape.ops)
            first = tape.ops[-1]
            at_first = []

            def probe(g, adjoint=first.adjoint):
                at_first.append(tracemalloc.get_traced_memory()[0])
                tracemalloc.reset_peak()
                adjoint(g)

            tape.ops[-1] = first._replace(adjoint=probe)
            mg.backward(loss)
            extra = tracemalloc.get_traced_memory()[1] - at_first[0]
        finally:
            tracemalloc.stop()
        assert x.grad is not None and all(k.grad is not None for k in kernels)
        return held / out_bytes, extra, at_first[0] - before

    def test_tape_holds_its_outputs_and_no_padded_copies(self):
        ratio, _, _ = self.run_chain(12)
        assert ratio <= 1.1

    def test_backward_peak_does_not_grow_with_depth(self):
        # Above the memory held when the first adjoint runs, backward peaks
        # at its adjoints' transient buffers: 2.96 activations at depths 1,
        # 3, 6 and 12. An adjoint that kept a scratch buffer alive would
        # raise the peak with every layer.
        activation = 4 * self.channels * self.extent**3
        _, shallow, _ = self.run_chain(3)
        _, deep, _ = self.run_chain(12)
        assert deep - shallow <= activation, (shallow / activation, deep / activation)
        assert max(shallow, deep) <= 3.25 * activation, (shallow / activation, deep / activation)

    def test_backward_keeps_only_what_adjoints_read(self):
        # When backward starts, each conv output is released: relu's adjoint
        # masks by relu's output, which the next conv's adjoint reads too.
        # So one activation per layer stays, not two.
        depth, activation = 12, 4 * self.channels * self.extent**3
        _, _, held = self.run_chain(depth)
        assert held <= (depth + 1.5) * activation, held / activation


class TestConv3dMemory:
    """Transient memory of one 3x3x3 conv3d (c=8 at 24^3, padding 1), in
    activations of its output, measured with tracemalloc. Each direction is
    one same-size correlation: it holds its padded operand (x in the
    forward, g in the input adjoint) and its output on the padded H x W
    layout, then the output buffer and the cropped copy (the forward's
    value, the input's gradient). The tile accumulator and per-tap product
    buffer are one column tile each, not a whole map. The forward peaks at
    2.94 activations, the input adjoint at 2.94. When the kernel takes a gradient
    too (at c=16, where it goes to the adjoint worker), the kernel
    adjoint's channels-last padded input and its slab buffer are held at
    the same time."""

    extent = 24

    def operands(self, rng, c=8, kernel_grad=False):
        n = self.extent
        x = t(rng.normal(size=(c, n, n, n)), requires_grad=True)
        k = t(0.1 * rng.normal(size=(c, c, 3, 3, 3)), requires_grad=kernel_grad)
        return x, k, 4 * c * n**3

    def test_forward_peak(self, rng):
        x, k, activation = self.operands(rng)
        tracemalloc.start()
        try:
            start = tracemalloc.get_traced_memory()[0]
            y = mg.conv3d(x, k)
            peak = tracemalloc.get_traced_memory()[1] - start
        finally:
            tracemalloc.stop()
        assert y.data.nbytes == activation
        assert peak <= 3.25 * activation, peak / activation

    def adjoint_peak(self, rng, c=8, kernel_grad=False):
        """Peak of one adjoint above its start, in activations."""
        x, k, activation = self.operands(rng, c, kernel_grad)
        g = rng.normal(size=x.shape).astype(np.float32)
        with mg.record() as tape:
            mg.conv3d(x, k)
        tracemalloc.start()
        try:
            start = tracemalloc.get_traced_memory()[0]
            tape.ops[0].adjoint(g)
            extra = tracemalloc.get_traced_memory()[1] - start
        finally:
            tracemalloc.stop()
        assert x.grad is not None and (k.grad is not None) == kernel_grad
        return extra / activation

    def test_input_adjoint_peak(self, rng):
        ratio = self.adjoint_peak(rng)
        assert ratio <= 3.0, ratio

    def test_both_adjoints_peak(self, rng, monkeypatch):
        handoffs = count_worker_handoffs(monkeypatch)
        ratio = self.adjoint_peak(rng, c=16, kernel_grad=True)
        assert handoffs == [1]
        assert ratio <= 5.5, ratio
