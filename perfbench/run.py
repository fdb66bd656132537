"""mgnet3d benchmark: one workload, run end to end through the public CLI.

Usage, from the root of a source checkout:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

The benchmark generates the workload's inputs from ``--seed`` (set-up,
repeated and timed), then runs ``python -m mgnet3d <command>`` in a fresh
process, one command at a time (a closed loop with one client), until
``--seconds`` would be exceeded. Every command's output is checked. With
``--trace 0`` the last stdout line reports the end-to-end metrics; with
``--trace 1`` it runs one untraced and one traced command (see tracing.py)
and reports the per-layer metrics instead. Workloads, metrics and their
rationale are described in perfbench/README.md.
"""

from __future__ import annotations

import argparse
import copy
import json
import math
import os
import platform
import re
import shutil
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from pathlib import Path

sys.dont_write_bytecode = True
BENCH_DIR = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH_DIR))

import numpy as np  # noqa: E402

ROOT = Path.cwd()
SRC = ROOT / "src"
WORK_ROOT = ROOT / ".bench_work"
# Set-up repeats until it has taken SETUP_MIN_S in total (between
# SETUP_MIN_REPS and SETUP_MAX_REPS times); its median is reported.
SETUP_MIN_REPS = 5
SETUP_MAX_REPS = 40
SETUP_MIN_S = 0.5
COMMAND_TIMEOUT_S = 150.0
PRECISION_TOL = 1e-3
SMALL_SCAN = (1, 16, 16, 16)
# Bandwidth probe arrays are at least this many times the last-level cache.
COPY_CACHE_MULTIPLE = 4
L3_FALLBACK_BYTES = 300 * 2**20
GEMM_N = 2048
_TIME_LINE = re.compile(r"^time=([0-9.]+) (total|epoch=\d+)$")

# Workload definitions. Geometry is (D, H, W); model and train settings are
# written to the config file the command reads.
WORKLOADS = {
    "cv-synth16": {
        "command": "cv",
        "synth": {"per_class": 20, "scans": 2, "size": (16, 16, 16)},
        "model": {"num_grids": 3, "smoothing_iters": 2, "feature_channels": 16,
                  "data_channels": 16, "use_avg_pool": 1},
        "train": {"learning_rate": 0.1, "batch_size": 2, "epochs": 1, "log_every": 0},
        "k": 2,
    },
    "train-gm-half-nopool": {
        "command": "train",
        "synth": {"per_class": 4, "scans": 1, "size": (46, 55, 46)},
        "model": {"num_grids": 5, "smoothing_iters": 2, "feature_channels": 16,
                  "data_channels": 16, "use_avg_pool": 0},
        "train": {"batch_size": 2, "epochs": 1, "log_every": 0},
        "k": 2,
    },
}  # fmt: skip


@dataclass
class Inputs:
    """What one set-up produced: the command line and the counts checks need."""

    argv: list[str]
    scans: int
    train_scans: int
    synth_s: float
    checkpoint: Path | None = None


def derive_seeds(seed: int) -> dict[str, int]:
    data, split, model, train = (int(v) for v in np.random.SeedSequence(seed).generate_state(4))
    return {"seed_data": data, "seed_split": split, "seed_model": model, "seed_train": train}


def setup(name: str, work: Path, seeds: dict) -> Inputs:
    """Generate one workload's inputs under ``work``; the program sees only these files."""
    from mgnet3d.data import stratified_group_kfold, synth_generate

    spec = WORKLOADS[name]
    s = spec["synth"]
    t0 = time.perf_counter()
    manifest = synth_generate(
        work / "data", s["per_class"], s["scans"], s["size"], 1.0, 0.1, seeds["seed_data"]
    )
    synth_s = time.perf_counter() - t0
    manifest_path = str(work / "data" / "manifest.csv")
    n = len(manifest.records)
    cfg = work / f"{name}.cfg"
    settings = {**spec["model"], **spec["train"]}
    cfg.write_text("".join(f"{k}={v}\n" for k, v in settings.items()))
    seed_args = ["--seed-model", str(seeds["seed_model"]), "--seed-train", str(seeds["seed_train"])]
    epochs = spec["train"]["epochs"]
    if spec["command"] == "cv":
        k = spec["k"]
        argv = ["cv", "--manifest", manifest_path, "--k", str(k), "--config", str(cfg),
                "--out", str(work / "cv"), "--workers", "1", "--seed-split", str(seeds["seed_split"]),
                *seed_args]  # fmt: skip
        train_scans = (k - 1) * n * epochs
        return Inputs(argv, train_scans + n, train_scans, synth_s)

    assignment = stratified_group_kfold(manifest, spec["k"], seeds["seed_split"])
    assignment.save(work / "folds.csv")
    train_records, eval_records = assignment.split_records(manifest, 0)
    out_dir = work / "run"
    argv = ["train", "--manifest", manifest_path, "--folds", str(work / "folds.csv"), "--fold", "0",
            "--config", str(cfg), "--out", str(out_dir), "--no-avg-pool", *seed_args]  # fmt: skip
    train_scans = len(train_records) * epochs
    return Inputs(argv, train_scans + len(eval_records), train_scans, synth_s, out_dir / "checkpoint.mgn3")


def parse_report(stdout: str) -> tuple[dict[str, list[str]], dict[str, float]]:
    """key=value pairs of a CLI report (repeated keys collect in order) and its time lines."""
    pairs: dict[str, list[str]] = {}
    times = {"total": 0.0, "epochs": 0.0}
    for line in stdout.splitlines():
        timed = _TIME_LINE.match(line)
        if timed:
            times["total" if timed.group(2) == "total" else "epochs"] += float(timed.group(1))
            continue
        for part in line.split():
            if "=" in part:
                key, value = part.split("=", 1)
                pairs.setdefault(key, []).append(value)
    return pairs, times


def _all_finite(values) -> bool:
    try:
        return bool(values) and all(math.isfinite(float(v)) for v in values)
    except ValueError:
        return False


def check_output(name: str, stdout: str, inputs: Inputs) -> str | None:
    """None when the command's report is right, else what is wrong with it."""
    pairs, times = parse_report(stdout)
    spec = WORKLOADS[name]
    if spec["command"] == "cv":
        if not times["total"]:
            return "no `time=<s> total` line"
        folds = [str(f) for f in range(spec["k"])]
        if pairs.get("fold") != folds:
            return f"expected one metric block per fold {folds}, got folds {pairs.get('fold')}"
        for key in ("accuracy", "auc", "sensitivity", "specificity"):
            values = pairs.get(key, [])
            if len(values) != spec["k"] or not _all_finite(values) or not all(0 <= float(v) <= 1 for v in values):
                return f"{key}={values} is not one value in [0, 1] per fold"
            if not _all_finite(pairs.get(f"mean_{key}")):
                return f"mean_{key} is missing or not finite"
        scored = sum(int(v) for key in ("tp", "tn", "fp", "fn") for v in pairs.get(key, []))
        if scored != inputs.scans - inputs.train_scans:
            return f"the folds score {scored} scans, the dataset has {inputs.scans - inputs.train_scans}"
    else:
        if not times["epochs"]:
            return "no `time=<s> epoch=<n>` line"
        if not _all_finite(pairs.get("final_loss")):
            return f"final_loss={pairs.get('final_loss')} is missing or not finite"
        from mgnet3d.errors import MgnetError
        from mgnet3d.model import load_checkpoint

        try:
            params = load_checkpoint(inputs.checkpoint)
        except (MgnetError, OSError) as exc:
            return f"checkpoint does not reload: {exc}"
        if params.config.use_avg_pool:
            return "reloaded checkpoint has pooling on; the workload turns it off"
    return None


def report_body(stdout: str) -> list[str]:
    """The report without its `time=` lines, which alone may vary between runs."""
    return [line for line in stdout.splitlines() if not line.startswith("time=")]


def scans_per_s(name: str, stdout: str, inputs: Inputs) -> float:
    """Model throughput of one command, over the program's own `time=` lines.

    train: training scans per second of epoch time; cv: training plus
    evaluation scan passes per second of cross-validation time.
    """
    _, times = parse_report(stdout)
    if WORKLOADS[name]["command"] == "train":
        return inputs.train_scans / times["epochs"]
    return inputs.scans / times["total"]


def _float64_copy(params):
    high = copy.deepcopy(params)
    for t in high.tensors():
        t.data = t.data.astype(np.float64)
    return high


def precision_error(name: str, inputs: Inputs, seeds: dict) -> float:
    """Relative L2 error of float32 logits against a float64 copy of the same parameters."""
    from mgnet3d.model import MgNetConfig, build, forward, load_checkpoint
    from mgnet3d.tensor import Tensor

    if inputs.checkpoint is not None:
        params = load_checkpoint(inputs.checkpoint)
    else:
        params = build(MgNetConfig(seed=seeds["seed_model"], **WORKLOADS[name]["model"]))
    scan = np.random.default_rng(seeds["seed_data"]).standard_normal(SMALL_SCAN)
    low = forward(params, Tensor(scan)).data.astype(np.float64)
    high = forward(_float64_copy(params), Tensor(scan, dtype=np.float64)).data
    return float(np.linalg.norm(low - high) / np.linalg.norm(high))


def run_command(argv: list[str], work: Path, tag: str) -> dict:
    """Run one command in a fresh process; wall time and peak RSS come from the parent."""
    env = dict(os.environ, PYTHONPATH=str(SRC), PYTHONDONTWRITEBYTECODE="1")
    out_path, err_path = work / f"{tag}.out", work / f"{tag}.err"
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        t0 = time.perf_counter()
        proc = subprocess.Popen(argv, stdout=out, stderr=err, env=env, cwd=ROOT)
        watchdog = threading.Timer(COMMAND_TIMEOUT_S, proc.kill)
        watchdog.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
            proc.returncode = os.waitstatus_to_exitcode(status)
        finally:
            watchdog.cancel()
        wall_s = time.perf_counter() - t0
    return {
        "rc": proc.returncode,
        "wall_s": wall_s,
        "rss_mb": usage.ru_maxrss / 1024.0,  # ru_maxrss is in KiB on Linux
        "stdout": out_path.read_text(),
        "stderr": err_path.read_text(),
    }


def cli_argv(inputs: Inputs) -> list[str]:
    return [sys.executable, "-m", "mgnet3d", *inputs.argv]


def traced_argv(inputs: Inputs, spans_path: Path) -> list[str]:
    return [sys.executable, str(BENCH_DIR / "tracing.py"), str(spans_path), "--", *inputs.argv]


def judge(name: str, result: dict, inputs: Inputs) -> str | None:
    if result["rc"] != 0:
        tail = result["stderr"].strip().splitlines()[-1:] or [""]
        return f"exit code {result['rc']}: {tail[0]}"
    return check_output(name, result["stdout"], inputs)


# --- host facts and roofline probes ----------------------------------------


def host_facts() -> dict:
    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS", "default"),
    }


def l3_bytes() -> int:
    try:
        text = Path("/sys/devices/system/cpu/cpu0/cache/index3/size").read_text().strip()
        units = {"K": 2**10, "M": 2**20, "G": 2**30}
        return int(text[:-1]) * units[text[-1]] if text[-1] in units else int(text)
    except (OSError, ValueError, IndexError):
        return L3_FALLBACK_BYTES


def gemm_gflops(reps: int = 5) -> float:
    """Best float32 np.dot rate on square matrices, after one warm-up call."""
    rng = np.random.default_rng(0)
    a = rng.standard_normal((GEMM_N, GEMM_N), dtype=np.float32)
    b = rng.standard_normal((GEMM_N, GEMM_N), dtype=np.float32)
    np.dot(a, b)
    best = math.inf
    for _ in range(reps):
        t0 = time.perf_counter()
        np.dot(a, b)
        best = min(best, time.perf_counter() - t0)
    return 2 * GEMM_N**3 / best / 1e9


def copy_gbps(array_bytes: int, reps: int = 3) -> float:
    """Best copy bandwidth counting bytes read plus bytes written."""
    src = np.ones(array_bytes // 4, dtype=np.float32)
    dst = np.zeros_like(src)
    best = math.inf
    for _ in range(reps):
        t0 = time.perf_counter()
        np.copyto(dst, src)
        best = min(best, time.perf_counter() - t0)
    return 2 * src.nbytes / best / 1e9


def declared_units(trace: bool) -> dict[str, str]:
    """Metric name -> unit, as BENCHMARK.json declares them for this mode."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def emit(correct: bool, attempted: int, failed: int, metrics: dict[str, float], units: dict) -> None:
    if set(metrics) != set(units):
        raise RuntimeError(f"metrics differ from BENCHMARK.json: {sorted(set(metrics) ^ set(units))}")
    for key, value in metrics.items():
        print(f"metric {key}={value!r} {units[key]}")
    payload = {
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": float(v), "unit": units[k]} for k, v in metrics.items()},
    }
    print(json.dumps(payload), flush=True)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "mgnet3d" / "cli.py").is_file():
        print(f"error: no mgnet3d source tree at {SRC}; run from the root of a checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))

    name, seeds = args.workload, derive_seeds(args.seed)
    facts = host_facts()
    print("host " + " ".join(f"{k}={v}" for k, v in facts.items()))
    spec = WORKLOADS[name]
    print(f"workload name={name} seed={args.seed} " + " ".join(f"{k}={v}" for k, v in seeds.items()))
    print(f"workload spec={json.dumps(spec, sort_keys=True)}")

    WORK_ROOT.mkdir(exist_ok=True)
    work = WORK_ROOT / f"{name}-{args.seed}-{os.getpid()}"
    try:
        return _run(args, name, seeds, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            WORK_ROOT.rmdir()
        except OSError:
            pass


def _run(args, name: str, seeds: dict, work: Path) -> int:
    import mgnet3d.cli  # noqa: F401  (import cost stays out of the set-up timing)

    setup_s, synth_s = [], []

    def time_setups(target: Path) -> Inputs:
        reps = 0
        while reps < SETUP_MAX_REPS and (reps < SETUP_MIN_REPS or sum(setup_s[-reps:]) < SETUP_MIN_S):
            shutil.rmtree(target, ignore_errors=True)
            t0 = time.perf_counter()
            made = setup(name, target, seeds)
            setup_s.append(time.perf_counter() - t0)
            synth_s.append(made.synth_s)
            reps += 1
        return made

    inputs = time_setups(work / "setup")

    problems: list[str] = []
    results: list[dict] = []

    def run_one(argv: list[str], tag: str) -> dict:
        result = run_command(argv, work, tag)
        result["problem"] = judge(name, result, inputs)
        # Fixed seeds and inputs must give the same report every time,
        # traced or not.
        if result["problem"] is None and results and report_body(result["stdout"]) != report_body(results[0]["stdout"]):
            result["problem"] = "report differs from the first command's"
        print(f"command {tag} rc={result['rc']} wall_s={result['wall_s']:.4f} "
              f"rss_mb={result['rss_mb']:.1f} check={result['problem'] or 'ok'}")  # fmt: skip
        results.append(result)
        return result

    if args.trace:
        from tracing import layer_metrics

        plain = run_one(cli_argv(inputs), "untraced")
        spans_path = work / "spans.json"
        traced = run_one(traced_argv(inputs, spans_path), "traced")
        # The probes run after the commands: a child's ru_maxrss starts from
        # the parent's peak RSS, and the copy probe's arrays are large.
        l3 = l3_bytes()
        host = {"gemm_gflops": gemm_gflops(), "copy_gbps": copy_gbps(COPY_CACHE_MULTIPLE * l3)}
        print(f"note conv_flops_and_bytes=computed_from_shapes gemm_probe={GEMM_N}x{GEMM_N}_float32 "
              f"copy_probe_array_mib={COPY_CACHE_MULTIPLE * l3 // 2**20} l3_mib={l3 // 2**20}")  # fmt: skip
        spans = json.loads(spans_path.read_text())["spans"] if spans_path.exists() else []
        if not spans:
            problems.append("traced run wrote no spans")
        metrics = layer_metrics(spans, host)
        metrics["data.synth_s"] = statistics.median(synth_s)
        metrics["host.gemm_gflops"] = host["gemm_gflops"]
        metrics["host.copy_gbps"] = host["copy_gbps"]
        metrics["trace.overhead_frac"] = traced["wall_s"] / plain["wall_s"] - 1.0
    else:
        start = time.perf_counter()
        while True:
            run_one(cli_argv(inputs), f"run{len(results)}")
            elapsed = time.perf_counter() - start
            if elapsed + statistics.median(r["wall_s"] for r in results) > args.seconds:
                break
        # A second batch of set-ups after the commands, so the reported
        # median samples the host at both ends of the run.
        time_setups(work / "setup-late")
        ok = [r for r in results if r["problem"] is None]
        throughput = [scans_per_s(name, r["stdout"], inputs) for r in ok]
        metrics = {
            "setup_s": statistics.median(setup_s),
            "wall_s": statistics.median(r["wall_s"] for r in results),
            "scans_per_s": statistics.median(throughput) if throughput else 0.0,
            "peak_rss_mb": statistics.median(r["rss_mb"] for r in results),
            "ok_frac": len(ok) / len(results),
        }

    from mgnet3d.errors import MgnetError

    try:
        error = precision_error(name, inputs, seeds)
    except (MgnetError, OSError) as exc:
        error = math.nan
        problems.append(f"precision check could not run: {exc}")
    print(f"precision float32_vs_float64_rel_err={error:.3e} tol={PRECISION_TOL}")
    if not error <= PRECISION_TOL:
        problems.append(f"float32 logits differ from float64 by {error:.3e}")
    failed = sum(1 for r in results if r["problem"] is not None)
    for problem in problems + [r["problem"] for r in results if r["problem"]]:
        print(f"problem {problem}")
    emit(failed == 0 and not problems, len(results), failed, metrics, declared_units(bool(args.trace)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
