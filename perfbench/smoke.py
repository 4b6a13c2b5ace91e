#!/usr/bin/env python3
"""Smoke test of the benchmark itself: every workload at minimal length.

    python3 perfbench/smoke.py

For each workload in BENCHMARK.json, an untraced run must pass its output
checks and print every end-to-end metric with its unit, and two traced runs on
different seeds must print every per-layer metric and agree exactly on the
counts that depend only on the workload's shapes. Last, the benchmark must
fail without printing a result where the library's sources are missing.
Exits nonzero on the first problem.
"""

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
REPEATING = ("gradients.fd.forwards", "semantic.topk.useful_ratio", "gaco.regions")


def bench(cwd, workload, seed, trace):
    out = subprocess.run([sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
                          "--seconds", "1", "--trace", str(trace)],
                         cwd=cwd, capture_output=True, text=True, timeout=600)
    return out.returncode, out.stdout.strip().splitlines(), out.stderr


def result(workload, seed, trace):
    code, lines, err = bench(ROOT, workload, seed, trace)
    if code != 0 or not lines:
        sys.exit(f"{workload} seed {seed} trace {trace}: exit {code}\n{err}")
    res = json.loads(lines[-1])
    if sorted(res) != ["attempted", "correct", "failed", "metrics"]:
        sys.exit(f"{workload}: result keys {sorted(res)}")
    if not res["correct"] or res["failed"] or res["attempted"] < 1:
        sys.exit(f"{workload} seed {seed} trace {trace}: checks failed\n{lines[-2]}")
    return res["metrics"]


def expect_metrics(workload, metrics, declared):
    want = {m["name"]: m["unit"] for m in declared}
    if set(metrics) != set(want):
        sys.exit(f"{workload}: metrics {sorted(set(metrics) ^ set(want))} missing or unexpected")
    for name, m in metrics.items():
        if m["unit"] != want[name] or not math.isfinite(m["value"]):
            sys.exit(f"{workload}: {name} = {m}, declared unit {want[name]}")


def main():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    for w in (w["name"] for w in spec["workloads"]):
        expect_metrics(w, result(w, 1, 0), spec["end_to_end"])
        first, second = result(w, 1, 1), result(w, 2, 1)
        expect_metrics(w, first, spec["per_layer"])
        for name in REPEATING:
            if first[name]["value"] != second[name]["value"]:
                sys.exit(f"{w}: {name} read {first[name]['value']} then {second[name]['value']}")
        print(f"{w}: ok " + " ".join(f"{n}={first[n]['value']:.6g}" for n in REPEATING), flush=True)

    bare = HERE / "out" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    (bare / "perfbench").mkdir(parents=True)
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    for f in HERE.glob("*.py"):
        shutil.copy(f, bare / "perfbench")
    code, lines, _ = bench(bare, spec["workloads"][0]["name"], 1, 0)
    shutil.rmtree(bare)
    if code == 0 or (lines and lines[-1].startswith('{"correct"')):
        sys.exit("without the library's sources the benchmark still printed a result")
    print("without sources: fails as it should")


if __name__ == "__main__":
    main()
