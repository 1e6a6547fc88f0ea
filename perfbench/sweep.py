"""Run run.py over several seeds and summarize each metric's spread.

Usage (from the repository root):

    python3 perfbench/sweep.py --workload pipeline-u8 --seeds 1-10 --seconds 32 \
        [--trace 0|1] [--out results.json]

For every metric it prints the median of the per-run values and the
distance between their first and third quartiles (statistics.quantiles,
n=4) as a share of that median: the spread the benchmark's bounds in
BENCHMARK.json are set against.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def _seeds(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", type=_seeds, default=_seeds("1-10"))
    parser.add_argument("--seconds", type=int, default=32)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", default=None, help="also write every run's result here")
    args = parser.parse_args()
    runs = []
    for seed in args.seeds:
        cmd = [
            sys.executable, os.path.join(HERE, "run.py"),
            "--workload", args.workload, "--seed", str(seed),
            "--seconds", str(args.seconds), "--trace", str(args.trace),
        ]
        proc = subprocess.run(cmd, capture_output=True, text=True, cwd=os.path.dirname(HERE))
        if proc.returncode != 0:
            print(proc.stderr, file=sys.stderr)
            return proc.returncode
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        result["seed"] = seed
        runs.append(result)
        print(f"seed {seed}: correct={result['correct']} attempted={result['attempted']} "
              f"failed={result['failed']}", flush=True)
    summary = {}
    for name in runs[0]["metrics"]:
        values = [r["metrics"][name]["value"] for r in runs]
        q1, q2, q3 = statistics.quantiles(values, n=4)
        spread = (q3 - q1) / q2 if q2 else 0.0
        summary[name] = {"median": q2, "iqr_share": spread, "values": values}
        print(f"{name:34s} median {q2:12.6g} {runs[0]['metrics'][name]['unit']:7s} "
              f"iqr/median {spread:.4f}")
    if args.out:
        with open(args.out, "w", encoding="utf-8") as f:
            json.dump({"workload": args.workload, "runs": runs, "summary": summary}, f, indent=1)
    return 0


if __name__ == "__main__":
    sys.exit(main())
