#!/usr/bin/env python3
"""Short check of the benchmark's output.

    python3 bench/smoke.py

For every workload, runs `bench/run.py --seconds 1` untraced and traced on
two seeds each, and checks that:
- the last line is the result object, with no failed operation;
- every metric BENCHMARK.json names is emitted with its unit;
- every user-facing end-to-end metric the workload has is reported with its unit;
- exact counts repeat across seeds;
- without the package source, the benchmark exits non-zero and prints no result.
Prints each problem and exits 1 if there is any.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SEEDS = (1, 2)

UNITS = {"setup_s": "s", "wall_s": "s", "train_samples_per_s": "1/s", "step_ms_p50": "ms",
         "step_ms_p90": "ms", "eval_samples_per_s": "1/s", "gradcheck_s": "s",
         "peak_rss_mb": "MB", "ops_attempted": "count", "ops_failed_ratio": "ratio"}
COMMON = {"setup_s", "wall_s", "peak_rss_mb", "ops_attempted", "ops_failed_ratio"}
TRAIN = {"train_samples_per_s", "step_ms_p50", "step_ms_p90"}
NAMED = {
    "ablation_train": COMMON | TRAIN | {"eval_samples_per_s"},
    "cli_pipeline": COMMON | {"eval_samples_per_s", "gradcheck_s"},
    "wide_train": COMMON | TRAIN,
}
EXACT_COUNTS = ("tensor.ops_per_sample", "tensor.tapes_per_sample", "diagnostics.loss_evals")


def run(cwd: Path, *args: str) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, "bench/run.py", *args], cwd=cwd, capture_output=True,
                          text=True, timeout=300, check=False)


def check_run(workload: str, seed: int, trace: int, spec: dict, problems: list[str]) -> dict:
    label = f"{workload} seed {seed} trace {trace}"
    proc = run(ROOT, "--workload", workload, "--seed", str(seed), "--seconds", "1",
               "--trace", str(trace))
    if proc.returncode != 0:
        problems.append(f"{label}: exit {proc.returncode}\n{proc.stderr}")
        return {}
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        problems.append(f"{label}: result keys {sorted(result)}")
        return {}
    if not (result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1):
        problems.append(f"{label}: correct {result['correct']}, failed {result['failed']} "
                        f"of {result['attempted']}\n{proc.stdout}")
    wanted = {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}
    got = {k: v["unit"] for k, v in result["metrics"].items()}
    if got != wanted:
        problems.append(f"{label}: metrics/units {got} differ from BENCHMARK.json {wanted}")
    for name, entry in result["metrics"].items():
        if not isinstance(entry["value"], (int, float)):
            problems.append(f"{label}: {name} value {entry['value']!r} is not a number")
    if not trace:
        full = json.loads((ROOT / ".bench_out" / f"{workload}-trace0.json").read_text())
        named = {k: v["unit"] for k, v in full["named"].items()}
        if named != {k: UNITS[k] for k in NAMED[workload]}:
            problems.append(f"{label}: end-to-end report {named}, expected {sorted(NAMED[workload])}")
    return result["metrics"]


def check_bare_directory(problems: list[str]) -> None:
    """Only BENCHMARK.json and bench/: the benchmark must fail without a result."""
    bare = ROOT / ".bench_out" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(ROOT / "bench", bare / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    try:
        proc = run(bare, "--workload", "ablation_train", "--seed", "1", "--seconds", "1",
                   "--trace", "0")
    finally:
        shutil.rmtree(bare)
    if proc.returncode == 0 or '"metrics"' in proc.stdout:
        problems.append(f"bare directory: exit {proc.returncode}, stdout {proc.stdout!r}")


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    problems: list[str] = []
    for workload in NAMED:
        for trace in (0, 1):
            counts = []
            for seed in SEEDS:
                metrics = check_run(workload, seed, trace, spec, problems)
                counts.append({k: metrics[k]["value"] for k in EXACT_COUNTS if k in metrics})
            if counts[0] != counts[1]:
                problems.append(f"{workload}: exact counts differ across seeds: {counts}")
            print(f"checked {workload} trace {trace}", flush=True)
    check_bare_directory(problems)
    for p in problems:
        print("PROBLEM: " + p)
    print("smoke check " + ("FAILED" if problems else "passed"))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
