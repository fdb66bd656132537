"""Fuzzed input files through the CLI.

Byte substitutions and truncations of a VOL3 volume, the manifest, the
fold file and a config file are fed through ``main()``. Each run must end
with an exit code, 0 or a rejection (2 or 3), never a traceback, and each
file's loader may raise only an ``MgnetError`` or an ``OSError``.
"""

import contextlib
import io
import os
import shutil
import tempfile

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import mgnet3d as mg
from mgnet3d import FoldAssignment, MgnetError
from mgnet3d.cli import main, parse_config_file

# Bytes a text mutation writes: NUL, CSV and config punctuation, digits,
# signs, letters and a byte that is not UTF-8. There is no '/' or '.', so a
# mutated path in a config file stays inside the run's working directory.
TEXT_BYTES = st.sampled_from(b"\x00\xff\r\n,\"=# -019aeEx")

EVAL = ("eval", "--checkpoint", "model.mgn3", "--manifest", "data/manifest.csv")


@pytest.fixture(scope="module")
def inputs(tmp_path_factory):
    """A 4-scan 4^3 dataset, its fold file, a one-grid checkpoint and a
    train config, all named relative to the returned directory."""
    root = tmp_path_factory.mktemp("fuzz")
    mg.synth_generate(root / "data", n_subjects_per_class=2, scans_per_subject=1,
                      size=4, effect_size=1.0, noise_std=0.1, seed=2)
    config = mg.MgNetConfig(num_grids=1, smoothing_iters=1, feature_channels=2, data_channels=2)
    mg.save_checkpoint(mg.build(config), root / "model.mgn3")
    (root / "run.cfg").write_text(
        "num_grids=1\nsmoothing_iters=1\nfeature_channels=2\ndata_channels=2\n"
        "batch_size=2\nepochs=1\nlog_every=0\n"
        "manifest=data/manifest.csv\nfolds=folds.csv\nfold=0\nout=run\n"
    )
    with contextlib.redirect_stdout(io.StringIO()):
        assert main(["split", "--manifest", str(root / "data" / "manifest.csv"),
                     "--k", "2", "--out", str(root)]) == 0
    return root


def mutate(data, raw: bytes, values, head: int) -> bytes:
    """Up to four substituted bytes, half of them in the first ``head``
    bytes, then a truncation in half the examples."""
    index = st.integers(0, min(head, len(raw) - 1)) | st.integers(0, len(raw) - 1)
    out = bytearray(raw)
    for i, value in data.draw(st.lists(st.tuples(index, values), max_size=4)):
        out[i] = value
    keep = data.draw(st.just(len(raw)) | st.integers(0, len(raw)))
    return bytes(out[:keep])


@contextlib.contextmanager
def corrupted(inputs, data, name: str, values=TEXT_BYTES, head: int = 64):
    """A copy of the inputs, with ``name`` mutated, as the working directory."""
    cwd = os.getcwd()
    with tempfile.TemporaryDirectory(dir=inputs) as work:
        shutil.copytree(inputs / "data", os.path.join(work, "data"))
        for file in ("folds.csv", "model.mgn3", "run.cfg"):
            shutil.copy(inputs / file, work)
        path = os.path.join(work, name)
        with open(path, "rb") as fh:
            raw = fh.read()
        with open(path, "wb") as fh:
            fh.write(mutate(data, raw, values, head))
        os.chdir(work)
        try:
            yield path
        finally:
            os.chdir(cwd)


def run_quietly(*argv) -> int:
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        return main(list(argv))


def loads_or_rejects(loader, path) -> None:
    try:
        loader(path)
    except (MgnetError, OSError):
        pass


@settings(max_examples=100)
@given(data=st.data(), scan=st.integers(0, 3))
def test_volume(inputs, data, scan):
    name = f"data/{['nc000', 'nc001', 'ad000', 'ad001'][scan]}_s0.vol"
    with corrupted(inputs, data, name, values=st.integers(0, 255), head=24) as path:
        loads_or_rejects(mg.load_volume, path)
        assert run_quietly(*EVAL) in (0, 3)


@settings(max_examples=100)
@given(data=st.data())
def test_manifest(inputs, data):
    with corrupted(inputs, data, "data/manifest.csv") as path:
        loads_or_rejects(mg.load_manifest, path)
        assert run_quietly("split", "--manifest", path, "--k", "2", "--out", "split") in (0, 2, 3)
        assert run_quietly(*EVAL, "--folds", "folds.csv", "--fold", "0") in (0, 2, 3)


@settings(max_examples=100)
@given(data=st.data())
def test_folds(inputs, data):
    with corrupted(inputs, data, "folds.csv") as path:
        loads_or_rejects(FoldAssignment.load, path)
        assert run_quietly(*EVAL, "--folds", path, "--fold", "0") in (0, 2, 3)


@settings(max_examples=100)
@given(data=st.data())
def test_config(inputs, data):
    with corrupted(inputs, data, "run.cfg", head=256) as path:
        loads_or_rejects(parse_config_file, path)
        assert run_quietly("train", "--config", path) in (0, 2, 3)
