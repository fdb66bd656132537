"""Smoke runs of scripts/nudge_ensemble.py, of the benchmark and of its
tracer, at a tiny size."""

import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import mgnet3d as mg
from mgnet3d.cli import main

REPO = Path(__file__).resolve().parents[1]
TINY = ["--size", "8", "--subjects-per-class", "3", "--epochs", "1"]


def run_python(*argv):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(REPO / "src"), env.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, *map(str, argv)],
        env=env,
        capture_output=True,
        text=True,
        timeout=300,
    )


def test_nudge_ensemble_prints_one_result_per_nudge():
    done = run_python(REPO / "scripts" / "nudge_ensemble.py", "input_kernel:0:0",
                      "level1.smoother2:200:+1", *TINY)
    assert done.returncode == 0, done.stderr
    lines = done.stdout.splitlines()
    assert [line.split()[0] for line in lines] == ["nudge=input_kernel:0:+0",
                                                   "nudge=level1.smoother2:200:+1"]
    assert all(re.search(r" result=(PASS|FAIL)$", line) for line in lines), lines


@pytest.mark.parametrize("nudge", ["bogus:0:+1", "head.bias:2:+1"])
def test_nudge_ensemble_rejects_unknown_entry_before_any_run(nudge):
    done = run_python(REPO / "scripts" / "nudge_ensemble.py", "input_kernel:0:0", nudge, *TINY)
    assert done.returncode == 2
    assert done.stdout == ""
    assert done.stderr.startswith(f"error: {nudge}:")


def test_tracer_reads_the_tape_of_a_tiny_train(tmp_path):
    # perfbench/tracing.py sizes each step's tape and times each adjoint
    # from the tape that record() yields, before backward runs.
    mg.synth_generate(tmp_path, n_subjects_per_class=3, scans_per_subject=1,
                      size=8, effect_size=1.0, noise_std=0.1, seed=1)
    assert main(["split", "--manifest", str(tmp_path / "manifest.csv"), "--k", "2",
                 "--out", str(tmp_path)]) == 0
    cfg = tmp_path / "tiny.cfg"
    cfg.write_text("num_grids=2\nsmoothing_iters=1\nfeature_channels=4\ndata_channels=4\n"
                   "batch_size=2\nepochs=1\nlog_every=0\n")
    spans_path = tmp_path / "spans.json"
    done = run_python(REPO / "perfbench" / "tracing.py", spans_path, "--", "train",
                      "--manifest", tmp_path / "manifest.csv", "--folds", tmp_path / "folds.csv",
                      "--fold", "0", "--config", cfg, "--out", tmp_path / "run")
    assert done.returncode == 0, done.stderr
    spans = json.loads(spans_path.read_text())["spans"]
    steps = [attrs for name, _, _, _, attrs in spans if name == "training.step"]
    assert steps and all(step["tape_bytes"] > 0 for step in steps)
    # The per-layer metrics are named by conv kind and grid level: both
    # convs the model builds must carry a level, forward and backward.
    convs = [attrs for name, _, _, _, attrs in spans if name == "tensor.conv3d"]
    for kind in ("conv3d_k3", "conv3d_k1s2"):
        for direction in ("fwd", "bwd"):
            picked = [a for a in convs if a["kind"] == kind and a["dir"] == direction]
            assert picked and all(a["level"] >= 1 for a in picked), (kind, direction, picked)


def test_benchmark_runs_a_workload_correctly(tmp_path):
    # perfbench/run.py reads src/ and BENCHMARK.json from its working
    # directory and writes its scratch files there, so it runs in a
    # directory of links to the checkout. Each workload runs once.
    for name in ("src", "BENCHMARK.json"):
        (tmp_path / name).symlink_to(REPO / name)
    for workload in ("cv-synth16", "train-gm-half-nopool"):
        done = subprocess.run(
            [sys.executable, str(REPO / "perfbench" / "run.py"), "--workload", workload,
             "--seed", "1", "--seconds", "1", "--trace", "0"],
            cwd=tmp_path,
            capture_output=True,
            text=True,
            timeout=300,
        )
        assert done.returncode == 0, (workload, done.stderr)
        result = json.loads(done.stdout.splitlines()[-1])
        assert result["correct"] is True and result["failed"] == 0, (workload, result)
