#!/usr/bin/env python3
"""Run the benchmark once per seed and report each metric's spread.

    python3 perfbench/spread.py --workload dense --seeds 1-10 --seconds 30
    python3 perfbench/spread.py --workload all --seeds 1-10 --out perfbench/results/set1.json

For each workload and metric this prints the median over the runs and
the distance between the first and third quartile (as
`statistics.quantiles(values, n=4)` gives them) as a share of the
median, and each run's failed share. Runs are sequential, each in a
process of its own. With --out, every run's result is kept as JSON.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

import workloads

RUN = Path(__file__).resolve().parent / "run.py"


def seeds_arg(text: str) -> list[int]:
    if "-" in text:
        low, high = text.split("-")
        return list(range(int(low), int(high) + 1))
    return [int(part) for part in text.split(",")]


def run_once(workload: str, seed: int, seconds: float) -> dict:
    proc = subprocess.run([sys.executable, str(RUN), "--workload", workload, "--seed", str(seed),
                           "--seconds", str(seconds), "--trace", "0"],
                          capture_output=True, text=True, timeout=600)
    if proc.returncode != 0:
        raise SystemExit(f"{workload} seed {seed} exited with {proc.returncode}:\n{proc.stderr}")
    *log, last = proc.stdout.splitlines()
    return {**json.loads(last), "log": log}


def summarize(results: list[dict]) -> dict:
    out = {}
    for name in results[0]["metrics"]:
        values = [r["metrics"][name]["value"] for r in results]
        median = statistics.median(values)
        q1, _, q3 = statistics.quantiles(values, n=4)
        out[name] = {"median": median, "spread": (q3 - q1) / median if median else 0.0,
                     "unit": results[0]["metrics"][name]["unit"]}
    return out


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=(*workloads.WORKLOADS, "all"), default="all")
    parser.add_argument("--seeds", type=seeds_arg, default=seeds_arg("1-10"))
    parser.add_argument("--seconds", type=float, default=30)
    parser.add_argument("--out", type=Path)
    args = parser.parse_args()
    names = list(workloads.WORKLOADS) if args.workload == "all" else [args.workload]
    record = {}
    for name in names:
        results = [run_once(name, seed, args.seconds) for seed in args.seeds]
        shares = sorted({r["failed"] / r["attempted"] for r in results})
        print(f"{name}: {len(results)} runs, failed shares {shares}, "
              f"all correct {all(r['correct'] for r in results)}")
        summary = summarize(results)
        for metric, s in summary.items():
            print(f"  {metric:<42} median {s['median']:>14.4f} {s['unit']:<14} "
                  f"spread {100 * s['spread']:6.2f}%")
        for seed, result in zip(args.seeds, results):
            print(f"  seed {seed}: {result['log'][1].strip()}")
        record[name] = {"seeds": args.seeds, "runs": results, "summary": summary}
        sys.stdout.flush()
    if args.out:
        args.out.parent.mkdir(parents=True, exist_ok=True)
        args.out.write_text(json.dumps(record, indent=1, sort_keys=True))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
