"""Architecture construction, forward pass structure, parameter accounting,
and checkpoint serialization."""

import hashlib
import tracemalloc
from dataclasses import FrozenInstanceError

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import mgnet3d as mg
from mgnet3d import ConfigError, FormatError, MgNetConfig, ShapeError, Tensor

from helpers import conv3d_reference, forward_zero_guess_reference


def tiny_config(**overrides):
    base = dict(
        num_grids=2,
        smoothing_iters=1,
        feature_channels=2,
        data_channels=2,
        input_channels=1,
        num_classes=2,
        seed=3,
    )
    base.update(overrides)
    return MgNetConfig(**base)


def expected_param_count(num_grids, iters, channels, input_channels, classes):
    """Closed form for the realized architecture: 3x3x3 smoothing kernels,
    1x1x1 stride-2 transfer kernels."""
    c2 = channels * channels
    total = 27 * channels * input_channels          # input lift
    total += 27 * c2 * num_grids                    # operator kernels
    total += 27 * c2 * sum(iters)                   # smoother kernels
    total += 2 * c2 * (num_grids - 1)               # transfer kernels (1x1x1)
    total += classes * channels + classes           # head
    return total


class TestConfig:
    def test_defaults(self):
        cfg = MgNetConfig()
        assert cfg.num_grids == 5
        assert cfg.smoothing_iters == (2, 2, 2, 2, 2)
        assert cfg.feature_channels == cfg.data_channels == 128
        assert cfg.use_avg_pool

    @pytest.mark.parametrize(
        "overrides",
        [
            {"num_grids": 0},
            {"smoothing_iters": (1,)},
            {"smoothing_iters": 0},
            {"feature_channels": 0},
            {"feature_channels": 4, "data_channels": 8},
            {"num_classes": 0},
            {"seed": -1},
            {"num_grids": 34},
            {"smoothing_iters": (2, 65)},
            {"smoothing_iters": 10**19},
        ],
    )
    def test_invalid(self, overrides):
        with pytest.raises(ConfigError):
            tiny_config(**overrides)

    def test_frozen(self):
        with pytest.raises(FrozenInstanceError):
            tiny_config().num_grids = 0


class TestBuild:
    def test_same_seed_bitwise_identical(self):
        a = mg.build(tiny_config())
        b = mg.build(tiny_config())
        for (name, ta), (_, tb) in zip(a.named_tensors(), b.named_tensors()):
            assert np.array_equal(ta.data, tb.data), name

    def test_single_grid_structure(self):
        params = mg.build(MgNetConfig(num_grids=1, smoothing_iters=1,
                                      feature_channels=2, data_channels=2, seed=0))
        names = [name for name, _ in params.named_tensors()]
        assert names == ["input_kernel", "level1.operator", "level1.smoother1", "head.weight", "head.bias"]

    def test_initialization_bounds(self):
        params = mg.build(tiny_config(feature_channels=4, data_channels=4))
        cfg = params.config
        bounds = {
            "input_kernel": (cfg.input_channels * 27) ** -0.5,
            "operator": (cfg.feature_channels * 27) ** -0.5,
            "smoother": (cfg.data_channels * 27) ** -0.5,
            "prolongation": cfg.feature_channels**-0.5,
            "restriction": cfg.data_channels**-0.5,
            "head.weight": cfg.feature_channels**-0.5,
        }
        for name, t in params.named_tensors():
            if name == "head.bias":
                assert np.array_equal(t.data, np.zeros_like(t.data))
                continue
            key = next(k for k in bounds if k in name)
            assert np.abs(t.data).max() <= bounds[key], name

    def test_kernel_shapes(self):
        params = mg.build(tiny_config(feature_channels=3, data_channels=3, smoothing_iters=2))
        k3, k1 = (3, 3, 3, 3, 3), (3, 3, 1, 1, 1)
        assert {name: t.shape for name, t in params.named_tensors()} == {
            "input_kernel": (3, 1, 3, 3, 3),
            "level1.operator": k3, "level1.smoother1": k3, "level1.smoother2": k3,
            "level1.prolongation": k1, "level1.restriction": k1,
            "level2.operator": k3, "level2.smoother1": k3, "level2.smoother2": k3,
            "head.weight": (2, 3),
            "head.bias": (2,),
        }


class TestSmooth:
    def test_zero_residual_is_fixed_point(self, rng):
        params = mg.build(tiny_config())
        operator, smoother = params.by_name["level1.operator"], params.by_name["level1.smoother1"]
        u = Tensor(rng.normal(size=(2, 4, 4, 4)).astype(np.float32))
        f = mg.conv3d(u, operator)  # residual is exactly zero
        out = mg.smooth(u, f, operator, smoother)
        assert np.array_equal(out.data, u.data)

    def test_zero_u_nonnegative_f(self, rng):
        params = mg.build(tiny_config())
        operator, smoother = params.by_name["level1.operator"], params.by_name["level1.smoother1"]
        u = Tensor(np.zeros((2, 4, 4, 4), dtype=np.float32))
        f = Tensor(np.abs(rng.normal(size=(2, 4, 4, 4))).astype(np.float32))
        out = mg.smooth(u, f, operator, smoother)
        want = mg.relu(mg.conv3d(mg.relu(f), smoother)).data
        assert np.array_equal(out.data, want)

    def test_nonpositive_residual_is_identity(self, rng):
        params = mg.build(tiny_config())
        operator, smoother = params.by_name["level1.operator"], params.by_name["level1.smoother1"]
        u = Tensor(np.abs(rng.normal(size=(2, 4, 4, 4))).astype(np.float32))
        f = Tensor(mg.conv3d(u, operator).data - 1.0)  # residual <= -1
        out = mg.smooth(u, f, operator, smoother)
        assert np.array_equal(out.data, u.data)

    def test_matches_op_composition(self, rng):
        params = mg.build(tiny_config())
        operator, smoother = params.by_name["level1.operator"], params.by_name["level1.smoother1"]
        u = Tensor(rng.normal(size=(2, 4, 4, 4)).astype(np.float32))
        f = Tensor(rng.normal(size=(2, 4, 4, 4)).astype(np.float32))
        out = mg.smooth(u, f, operator, smoother)
        composed = mg.add(
            u,
            mg.relu(
                mg.conv3d(
                    mg.relu(mg.sub(f, mg.conv3d(u, operator))),
                    smoother,
                )
            ),
        )
        assert np.array_equal(out.data, composed.data)
        # Independent float64 oracle for the same composition.
        a = operator.data
        b = smoother.data
        residual = f.data.astype(np.float64) - conv3d_reference(u.data, a, 1, 1)
        oracle = u.data.astype(np.float64) + np.maximum(
            conv3d_reference(np.maximum(residual, 0), b, 1, 1), 0
        )
        assert np.abs(out.data - oracle).max() < 1e-5


RESTRICT_KERNELS = ("level1.operator", "level1.prolongation", "level1.restriction", "level2.operator")


class TestRestrict:
    def test_coarse_shapes(self, rng):
        params = mg.build(tiny_config())
        kernels = [params.by_name[name] for name in RESTRICT_KERNELS]
        u = Tensor(rng.normal(size=(2, 5, 5, 5)).astype(np.float32))
        f = Tensor(rng.normal(size=(2, 5, 5, 5)).astype(np.float32))
        u2, f2 = mg.restrict(u, f, *kernels, use_avg_pool=True)
        assert u2.shape == (2, 3, 3, 3)
        assert f2.shape == (2, 3, 3, 3)

    def test_91_to_46(self):
        # ceil(n/2): what a padded 3x3x3 stride-2 conv, (91 + 2 - 3) // 2 + 1, gives too.
        assert mg.level_shapes(tiny_config(), (91, 90, 1)) == [(91, 90, 1), (46, 45, 1)]

    def test_matches_composition_without_pooling(self, rng):
        params = mg.build(tiny_config())
        kernels = [params.by_name[name] for name in RESTRICT_KERNELS]
        u = Tensor(rng.normal(size=(2, 5, 5, 5)).astype(np.float32))
        f = Tensor(rng.normal(size=(2, 5, 5, 5)).astype(np.float32))
        u2, f2 = mg.restrict(u, f, *kernels, use_avg_pool=False)
        operator, prolongation, restriction, next_operator = kernels
        u2_ref = mg.conv3d(u, prolongation, stride=2)
        residual = mg.sub(f, mg.conv3d(u, operator))
        f2_ref = mg.add(
            mg.conv3d(residual, restriction, stride=2),
            mg.conv3d(u2_ref, next_operator),
        )
        assert np.array_equal(u2.data, u2_ref.data)
        assert np.array_equal(f2.data, f2_ref.data)

    def test_pooling_applies_after_coarse_data_map(self, rng):
        # The coarse data map must be built from the pre-pooling features.
        params = mg.build(tiny_config())
        kernels = [params.by_name[name] for name in RESTRICT_KERNELS]
        u = Tensor(rng.normal(size=(2, 5, 5, 5)).astype(np.float32))
        f = Tensor(rng.normal(size=(2, 5, 5, 5)).astype(np.float32))
        u_pool, f_pool = mg.restrict(u, f, *kernels, use_avg_pool=True)
        u_raw, f_raw = mg.restrict(u, f, *kernels, use_avg_pool=False)
        assert np.array_equal(f_pool.data, f_raw.data)
        assert np.array_equal(u_pool.data, mg.avg_pool3d(u_raw).data)


class TestForward:
    def test_zero_volume_gives_head_bias(self, rng):
        params = mg.build(tiny_config())
        params.by_name["head.bias"].data = rng.normal(size=2).astype(np.float32)
        logits = mg.forward(params, Tensor(np.zeros((1, 5, 5, 5), dtype=np.float32)))
        assert np.array_equal(logits.data, params.by_name["head.bias"].data)

    def test_finite_logits(self, rng):
        params = mg.build(tiny_config())
        volume = Tensor(rng.normal(size=(1, 6, 7, 5)).astype(np.float32))
        logits = mg.forward(params, volume)
        assert logits.shape == (2,)
        assert np.isfinite(logits.data).all()

    def test_trace_records_level_shapes(self, rng):
        cfg = tiny_config(num_grids=3, smoothing_iters=(1, 1, 1))
        params = mg.build(cfg)
        with mg.record() as tape:
            mg.forward(params, Tensor(rng.normal(size=(1, 9, 7, 5)).astype(np.float32)))
        trace = list(dict.fromkeys(op.out.shape[1:] for op in tape.ops if op.out.ndim == 4))
        assert trace == [(9, 7, 5), (5, 4, 3), (3, 2, 2)]
        assert trace == mg.level_shapes(cfg, (9, 7, 5))

    def test_channel_mismatch(self, rng):
        params = mg.build(tiny_config())
        with pytest.raises(ShapeError):
            mg.forward(params, Tensor(rng.normal(size=(2, 5, 5, 5)).astype(np.float32)))

    def test_avg_pool_toggle_changes_values_not_shapes(self, rng):
        volume = Tensor(rng.normal(size=(1, 6, 6, 6)).astype(np.float32))
        with_pool = mg.forward(mg.build(tiny_config(use_avg_pool=True)), volume)
        without = mg.forward(mg.build(tiny_config(use_avg_pool=False)), volume)
        assert with_pool.shape == without.shape
        assert not np.array_equal(with_pool.data, without.data)

    def test_channel_norm_variant_runs(self, rng):
        params = mg.build(tiny_config(use_channel_norm=True))
        volume = Tensor(rng.normal(size=(1, 5, 5, 5)).astype(np.float32))
        logits = mg.forward(params, volume)
        assert np.isfinite(logits.data).all()

    def test_default_geometry_shape_chain(self):
        chain = mg.level_shapes(MgNetConfig(), (91, 109, 91))
        assert chain == [
            (91, 109, 91),
            (46, 55, 46),
            (23, 28, 23),
            (12, 14, 12),
            (6, 7, 6),
        ]


class TestTapeOpNames:
    def test_adjoints_are_named_after_tensor_ops(self, rng):
        # Per-op backward timing (perfbench/tracing.py) names each tape op
        # by the function its adjoint closure was defined in.
        params = mg.build(tiny_config(use_avg_pool=True, use_channel_norm=True))
        volumes = [Tensor(rng.normal(size=(1, 6, 7, 5)).astype(np.float32)) for _ in range(2)]
        with mg.record() as tape:
            loss = mg.mean_scalars([mg.softmax_cross_entropy(mg.forward(params, v), 1) for v in volumes])
        names = {op.adjoint.__qualname__.split(".")[0] for op in tape.ops}
        assert {"conv3d", "avg_pool3d", "channel_norm", "softmax_cross_entropy"} <= names
        assert names <= set(mg.tensor.__all__), names - set(mg.tensor.__all__)
        mg.backward(loss)


class TestZeroInitialGuess:
    """``forward`` skips the operator conv on u0 = 0; nothing else may change."""

    @pytest.mark.parametrize("num_grids,iters", [(3, 2), (1, 1)])
    @pytest.mark.parametrize("use_avg_pool", [True, False])
    @pytest.mark.parametrize("use_channel_norm", [False, True])
    def test_bitwise_equal_to_explicit_zero_guess(
        self, rng, num_grids, iters, use_avg_pool, use_channel_norm
    ):
        cfg = MgNetConfig(num_grids=num_grids, smoothing_iters=iters, feature_channels=4,
                          data_channels=4, use_avg_pool=use_avg_pool,
                          use_channel_norm=use_channel_norm, seed=5)
        volume = Tensor(rng.normal(size=(1, 9, 10, 8)).astype(np.float32))
        runs = []
        for run in (mg.forward, forward_zero_guess_reference):
            params = mg.build(cfg)
            with mg.record():
                logits = run(params, volume)
                loss = mg.softmax_cross_entropy(logits, 1)
            values = logits.data  # read before backward releases it
            mg.backward(loss)
            runs.append((values, dict(params.named_tensors())))
        (got, got_params), (want, want_params) = runs
        assert got.tobytes() == want.tobytes()
        for name, t in got_params.items():
            assert t.grad.tobytes() == want_params[name].grad.tobytes(), name


class TestParamCount:
    def test_worked_tiny_example(self):
        cfg = MgNetConfig(num_grids=1, smoothing_iters=1, feature_channels=2,
                          data_channels=2, input_channels=1, num_classes=2, seed=0)
        params = mg.build(cfg)
        # input lift 54 + operator 108 + smoother 108 + head 6
        assert mg.param_count(params) == 276

    @given(
        num_grids=st.integers(min_value=1, max_value=4),
        channels=st.integers(min_value=1, max_value=6),
        iters=st.integers(min_value=1, max_value=3),
        classes=st.integers(min_value=1, max_value=3),
    )
    def test_matches_closed_form(self, num_grids, channels, iters, classes):
        cfg = MgNetConfig(
            num_grids=num_grids,
            smoothing_iters=iters,
            feature_channels=channels,
            data_channels=channels,
            num_classes=classes,
            seed=0,
        )
        params = mg.build(cfg)
        assert mg.param_count(params) == expected_param_count(
            num_grids, cfg.smoothing_iters, channels, 1, classes
        )

    def test_invariant_under_seed(self):
        a = mg.build(tiny_config(seed=0))
        b = mg.build(tiny_config(seed=99))
        assert mg.param_count(a) == mg.param_count(b)

    def test_default_config_totals(self):
        params = mg.build(MgNetConfig(seed=0))
        total = mg.param_count(params)
        assert total == expected_param_count(5, (2,) * 5, 128, 1, 2)
        assert total == 6_770_306
        breakdown = dict(mg.param_breakdown(params))
        assert breakdown["input_kernel"] == 27 * 128
        assert breakdown["head"] == 2 * 128 + 2
        assert sum(breakdown.values()) == total


GOLDEN_CONFIG_BLOCK = (
    b"num_grids=2\nsmoothing_iters=2,1\nfeature_channels=2\ndata_channels=2\n"
    b"input_channels=1\nnum_classes=2\nuse_avg_pool=0\nuse_channel_norm=0\nseed=11\n"
)


# sha256 of the MGN3 file of build(MgNetConfig(num_grids=3,
# smoothing_iters=(2, 1, 2), feature_channels=4, data_channels=4, seed=3)):
# init draws, tensor order and encoding all feed it.
GOLDEN_CHECKPOINT_SHA256 = "2af29d6f4d927314663c70fd066c5f85f003a69b347a84e1dbe4af64ff6c9cb7"


def config_block(raw: bytes) -> bytes:
    """The config block of an MGN3 file: after magic, version and its u32 length."""
    return raw[12 : 12 + int.from_bytes(raw[8:12], "little")]


def with_config_block(raw: bytes, block: bytes) -> bytes:
    rest = raw[12 + len(config_block(raw)) :]
    return raw[:8] + len(block).to_bytes(4, "little") + block + rest


@pytest.fixture(scope="module")
def saved_checkpoint(tmp_path_factory):
    path = tmp_path_factory.mktemp("fuzz") / "model.mgn3"
    mg.save_checkpoint(mg.build(tiny_config(smoothing_iters=(2, 1), use_avg_pool=False, seed=11)), path)
    return path, path.read_bytes()


class TestCheckpoint:
    def test_config_block_golden_bytes(self, tmp_path):
        path = tmp_path / "model.mgn3"
        mg.save_checkpoint(mg.build(tiny_config(smoothing_iters=(2, 1), use_avg_pool=False, seed=11)), path)
        assert config_block(path.read_bytes()) == GOLDEN_CONFIG_BLOCK

    def test_golden_checkpoint_bytes(self, tmp_path):
        path = tmp_path / "model.mgn3"
        cfg = MgNetConfig(num_grids=3, smoothing_iters=(2, 1, 2), feature_channels=4, data_channels=4, seed=3)
        mg.save_checkpoint(mg.build(cfg), path)
        assert hashlib.sha256(path.read_bytes()).hexdigest() == GOLDEN_CHECKPOINT_SHA256

    @settings(max_examples=300)
    @given(data=st.data())
    def test_corrupted_bytes_load_or_raise_format_error(self, saved_checkpoint, data):
        path, raw = saved_checkpoint
        # Half the substitutions land in the magic, version, config block
        # and first tensor header, where most of the parsing happens.
        index = st.integers(0, 200) | st.integers(0, len(raw) - 1)
        corrupted = bytearray(raw)
        for i, value in data.draw(st.lists(st.tuples(index, st.integers(0, 255)), max_size=4)):
            corrupted[i] = value
        keep = data.draw(st.just(len(raw)) | st.integers(0, len(raw)))
        path.write_bytes(bytes(corrupted[:keep]))
        try:
            loaded = mg.load_checkpoint(path)
        except FormatError:
            return
        for name, t in loaded.named_tensors():
            assert t.data.dtype == np.float32 and np.isfinite(t.data).all(), name

    @pytest.mark.parametrize(
        "block",
        [
            GOLDEN_CONFIG_BLOCK.replace(b"seed=11\n", b""),
            GOLDEN_CONFIG_BLOCK + b"dropout=0\n",
            GOLDEN_CONFIG_BLOCK + b"num_grids=2\n",
            GOLDEN_CONFIG_BLOCK.replace(b"seed=11", b"seed=\xff"),
            GOLDEN_CONFIG_BLOCK.replace(b"num_grids=2", b"num_grids=two"),
            GOLDEN_CONFIG_BLOCK.replace(b"use_avg_pool=0", b"use_avg_pool=2"),
            GOLDEN_CONFIG_BLOCK.replace(b"seed=11", b"seed"),
        ],
        ids=["missing", "extra", "duplicate", "non_utf8", "bad_int", "bad_bool", "no_equals"],
    )
    def test_malformed_config_block(self, tmp_path, block):
        path = tmp_path / "model.mgn3"
        mg.save_checkpoint(mg.build(tiny_config(smoothing_iters=(2, 1), use_avg_pool=False, seed=11)), path)
        path.write_bytes(with_config_block(path.read_bytes(), block))
        with pytest.raises(FormatError, match="config"):
            mg.load_checkpoint(path)

    def test_round_trip_bitwise(self, rng, tmp_path):
        params = mg.build(tiny_config(smoothing_iters=(2, 1), use_avg_pool=False, seed=11))
        path = tmp_path / "model.mgn3"
        mg.save_checkpoint(params, path)
        loaded = mg.load_checkpoint(path)
        assert loaded.config == params.config
        for (name, a), (_, b) in zip(params.named_tensors(), loaded.named_tensors()):
            assert a.data.tobytes() == b.data.tobytes(), name

    def test_failed_save_keeps_old_file(self, tmp_path, monkeypatch):
        path = tmp_path / "model.mgn3"
        mg.save_checkpoint(mg.build(tiny_config(seed=11)), path)
        old = path.read_bytes()
        params = mg.build(tiny_config(seed=12))
        first = next(params.named_tensors())

        def failing_named_tensors():
            yield first
            raise OSError("no space left on device")

        monkeypatch.setattr(params, "named_tensors", failing_named_tensors)
        with pytest.raises(OSError, match="no space"):
            mg.save_checkpoint(params, path)
        assert path.read_bytes() == old
        assert [p.name for p in tmp_path.iterdir()] == ["model.mgn3"]

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "bad.mgn3"
        params = mg.build(tiny_config())
        mg.save_checkpoint(params, path)
        raw = bytearray(path.read_bytes())
        raw[:4] = b"MGNX"
        path.write_bytes(bytes(raw))
        with pytest.raises(FormatError):
            mg.load_checkpoint(path)

    def test_truncated(self, tmp_path):
        path = tmp_path / "model.mgn3"
        params = mg.build(tiny_config())
        mg.save_checkpoint(params, path)
        raw = path.read_bytes()
        path.write_bytes(raw[: len(raw) - 10])
        with pytest.raises(FormatError):
            mg.load_checkpoint(path)

    def test_extent_product_overflowing_int64(self, tmp_path):
        # 2**31 * 2**31 * 27 wraps to a negative count in int64.
        path = tmp_path / "model.mgn3"
        mg.save_checkpoint(mg.build(tiny_config()), path)
        raw = path.read_bytes()
        block = config_block(raw)
        for old in (b"feature_channels=2\n", b"data_channels=2\n", b"input_channels=1\n"):
            assert old in block
            block = block.replace(old, old.split(b"=")[0] + b"=2147483648\n")
        head = with_config_block(raw, block)[: 12 + len(block)]
        path.write_bytes(head + np.asarray([5, 2**31, 2**31, 3, 3, 3], dtype="<u4").tobytes() + bytes(64))
        with pytest.raises(FormatError, match="truncated while reading input_kernel payload"):
            mg.load_checkpoint(path)

    def test_truncated_after_config_of_many_grids(self, tmp_path):
        # A config of more grids than halvings (10^5, or more than an index
        # holds) is refused before its per-grid pass counts or its kernel
        # layout are expanded.
        path = tmp_path / "model.mgn3"
        for grids in (b"100000", b"10000000000000000000"):
            block = GOLDEN_CONFIG_BLOCK.replace(b"num_grids=2\nsmoothing_iters=2,1",
                                                b"num_grids=" + grids + b"\nsmoothing_iters=2")
            path.write_bytes(b"MGN3" + np.asarray([1, len(block)], dtype="<u4").tobytes() + block)
            tracemalloc.start()
            try:
                with pytest.raises(FormatError, match="invalid checkpoint config: num_grids"):
                    mg.load_checkpoint(path)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak < 16 * 2**20

    def test_truncated_after_config_of_many_passes(self, tmp_path):
        # A pass count past MAX_SMOOTHING_ITERS is refused before the kernel
        # layout is walked, not read as a truncated file.
        path = tmp_path / "model.mgn3"
        block = GOLDEN_CONFIG_BLOCK.replace(b"smoothing_iters=2,1", b"smoothing_iters=2,10000000000000000000")
        path.write_bytes(b"MGN3" + np.asarray([1, len(block)], dtype="<u4").tobytes() + block)
        tracemalloc.start()
        try:
            with pytest.raises(FormatError, match="invalid checkpoint config: smoothing_iters"):
                mg.load_checkpoint(path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 16 * 2**20

    def test_trailing_bytes(self, tmp_path):
        path = tmp_path / "model.mgn3"
        params = mg.build(tiny_config())
        mg.save_checkpoint(params, path)
        path.write_bytes(path.read_bytes() + b"\x00\x00")
        with pytest.raises(FormatError):
            mg.load_checkpoint(path)

    def test_loaded_model_forward_matches(self, rng, tmp_path):
        params = mg.build(tiny_config(seed=21))
        path = tmp_path / "model.mgn3"
        mg.save_checkpoint(params, path)
        loaded = mg.load_checkpoint(path)
        volume = Tensor(rng.normal(size=(1, 5, 5, 5)).astype(np.float32))
        assert np.array_equal(mg.forward(params, volume).data, mg.forward(loaded, volume).data)
