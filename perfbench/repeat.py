"""Run the benchmark on several seeds and report how steady each metric is.

Usage, from the root of a source checkout:

    python3 perfbench/repeat.py --workload NAME [--runs 10] [--first-seed 1000]

Each run uses the next seed and BENCHMARK.json's run_seconds. For every
end-to-end metric it prints the median, the quartile spread as a share of
the median, and the metric's bound; a spread under a third of the bound
is marked steady. The last stdout line is a JSON summary.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

from stats import quartile_spread  # noqa: E402


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1000)
    args = parser.parse_args()
    bench = json.loads(Path("BENCHMARK.json").read_text())
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}

    values: dict[str, list[float]] = {name: [] for name in bounds}
    for seed in range(args.first_seed, args.first_seed + args.runs):
        cmd = [sys.executable, *bench["command"][1:], "--workload", args.workload, "--seed", str(seed),
               "--seconds", str(bench["run_seconds"]), "--trace", "0"]  # fmt: skip
        proc = subprocess.run(cmd, capture_output=True, text=True, check=False)
        result = json.loads(proc.stdout.strip().splitlines()[-1]) if proc.returncode == 0 else None
        if result is None or not result["correct"]:
            print(f"seed {seed}: failed (exit {proc.returncode})\n{proc.stdout[-2000:]}{proc.stderr[-2000:]}")
            return 1
        for name in bounds:
            values[name].append(result["metrics"][name]["value"])
        print(f"seed {seed}: " + " ".join(f"{n}={v[-1]:.5g}" for n, v in values.items()), flush=True)

    summary = {}
    for name, vals in values.items():
        median = statistics.median(vals)
        spread = quartile_spread(vals) if median else 0.0
        summary[name] = {"median": median, "spread": spread, "bound": bounds[name]}
        verdict = "steady" if spread < bounds[name] / 3 else "NOT steady"
        print(f"{name}: median={median:.6g} spread={spread:.4f} bound={bounds[name]} {verdict}")
    print(json.dumps({"workload": args.workload, "runs": args.runs, "metrics": summary}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
