"""Run the benchmark over several seeds and record a results file.

    python3 perfbench/collect.py --label seed [--seeds 1-10] [--workloads closure,verify]

For each workload, runs `run.py` once per seed untraced and once traced (the
first seed), from the checkout root, and writes
perfbench/results/BENCH_<label>.json: the git revision, every run's
metrics, and per end-to-end metric the median, quartiles and the spread
(quartile distance over the median) that BENCHMARK.json's bounds are
judged against.
"""
from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

from roadmap_table import revision
from run import HERE
from workloads import WORKLOADS

ROOT = os.path.dirname(HERE)


def one_run(workload: str, seed: int, seconds: int, trace: int) -> dict:
    out = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=300, check=True)
    result = json.loads(out.stdout.strip().splitlines()[-1])
    return {"seed": seed, "correct": result["correct"], "attempted": result["attempted"],
            "failed": result["failed"],
            "metrics": {k: v["value"] for k, v in result["metrics"].items()}}


def summary(runs: list[dict]) -> dict:
    out = {}
    for name in runs[0]["metrics"]:
        values = [r["metrics"][name] for r in runs]
        q1, median, q3 = statistics.quantiles(values, n=4)
        out[name] = {"median": median, "q1": q1, "q3": q3,
                     "spread": (q3 - q1) / median if median else 0.0}
    return out


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--label", required=True)
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--workloads", default=",".join(WORKLOADS))
    args = parser.parse_args()
    first, _, last = args.seeds.partition("-")
    seeds = list(range(int(first), int(last or first) + 1))
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        seconds = json.load(handle)["run_seconds"]
    record = {"revision": revision(), "run_seconds": seconds, "workloads": {}}
    for workload in args.workloads.split(","):
        runs = []
        for seed in seeds:
            runs.append(one_run(workload, seed, seconds, 0))
            print(workload, runs[-1], flush=True)
        traced = one_run(workload, seeds[0], seconds, 1)
        print(workload, "traced", traced, flush=True)
        record["workloads"][workload] = {"summary": summary(runs), "runs": runs,
                                         "traced": traced}
    path = os.path.join(HERE, "results", f"BENCH_{args.label}.json")
    os.makedirs(os.path.dirname(path), exist_ok=True)
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(record, handle, indent=1)
        handle.write("\n")
    for workload, data in record["workloads"].items():
        for name, s in data["summary"].items():
            print(f"{workload:12s} {name:12s} median {s['median']:12.4f} spread {s['spread']:.4f}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
