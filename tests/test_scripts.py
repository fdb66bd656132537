"""Smoke runs of the experiment scripts in scripts/, at a tiny size."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

REPO = Path(__file__).resolve().parents[1]
TINY = ["--size", "8", "--subjects-per-class", "3", "--epochs", "1"]


def run_script(name, out):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(REPO / "src"), env.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, str(REPO / "scripts" / name), "--out", str(out), *TINY],
        env=env,
        capture_output=True,
        text=True,
        timeout=300,
    )


@pytest.mark.parametrize(
    "script,reports",
    [
        ("run_synthetic_cv.py", ["cv_report.txt"]),
        (
            "ablation_avg_pool.py",
            ["with_average_pooling/cv_report.txt", "without_average_pooling/cv_report.txt"],
        ),
    ],
)
def test_script_writes_reports(tmp_path, script, reports):
    done = run_script(script, tmp_path)
    assert done.returncode == 0, done.stderr
    for report in reports:
        lines = (tmp_path / report).read_text().splitlines()
        assert "folds=2" in lines
        assert any(line.startswith("mean_accuracy=") for line in lines)
