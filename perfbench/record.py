"""Write a BENCH record: every workload over seeds 1-10, untraced, plus one
traced run per workload, with the machine it ran on.

    python3 perfbench/record.py --out perfbench/BENCH_baseline.json

Each run lasts BENCHMARK.json's run_seconds.  For each end-to-end metric the
record keeps every run's value, the median and the quartiles; the spread
(q3 - q1) / median is what BENCHMARK.json's bounds are checked against.  The
traced run adds the machine-independent counts (state() evaluations per
quantity and per op) next to the per-layer times.  Run it from the
repository root.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys

WORKLOADS = ("sweep-first-order", "sweep-second-order", "cli-configs")
SEEDS = list(range(1, 11))


def bench(workload: str, seed: int, seconds: float, trace: int) -> dict:
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        capture_output=True, text=True, timeout=600,
    )
    if done.returncode != 0:
        raise RuntimeError(f"{workload} seed {seed}: {done.stderr.strip()}")
    return json.loads(done.stdout.splitlines()[-1])


def summarize(runs: list[dict]) -> dict:
    out = {}
    for name, first in runs[0]["metrics"].items():
        values = [r["metrics"][name]["value"] for r in runs]
        q1, median, q3 = statistics.quantiles(values, n=4)
        out[name] = {"unit": first["unit"], "median": median, "q1": q1, "q3": q3,
                     "spread": (q3 - q1) / median, "values": values}
    return out


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", required=True)
    args = parser.parse_args()
    with open("BENCHMARK.json", encoding="utf-8") as fh:
        seconds = json.load(fh)["run_seconds"]
    record = {
        "machine": {"platform": platform.platform(), "cpus": os.cpu_count(),
                    "python": platform.python_version()},
        "seconds": seconds,
        "seeds": SEEDS,
        "workloads": {},
    }
    for workload in WORKLOADS:
        runs = [bench(workload, seed, seconds, 0) for seed in SEEDS]
        traced = bench(workload, 1, seconds, 1)
        summary = summarize(runs)
        record["workloads"][workload] = {
            "correct": all(r["correct"] for r in runs) and traced["correct"],
            "attempted": sum(r["attempted"] for r in runs),
            "failed": sum(r["failed"] for r in runs),
            "end_to_end": summary,
            "per_layer": {k: v["value"] for k, v in traced["metrics"].items()},
        }
        print(workload, "correct" if record["workloads"][workload]["correct"] else "INCORRECT",
              " ".join(f"{k} {v['median']:.5g} ({v['spread']:.3f})" for k, v in summary.items()), flush=True)
    with open(args.out, "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
