#!/usr/bin/env python3
"""Run-to-run spread of the end-to-end metrics over several seeds.

Run from the repository root:

    python3 perfbench/steady.py --workload ladder --seeds 1-10

Each seed is one run of ``perfbench/run.py`` in a fresh process, one after
the other.  For every metric the script prints the median over the runs and
the spread: the distance between the first and third quartiles
(``statistics.quantiles(values, n=4)``) as a share of the median, next to a
third of the metric's bound from ``BENCHMARK.json``.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path


def parse_seeds(spec: str) -> list:
    lo, hi = spec.split("-", 1)
    return list(range(int(lo), int(hi) + 1))


def spread(values: list) -> float:
    q1, _q2, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seeds", default="1-10", help="a-b")
    args = ap.parse_args(argv)

    spec = json.loads(Path("BENCHMARK.json").read_text())
    bounds = {m["name"]: m.get("bound") for m in spec["end_to_end"]}
    runs = []
    for seed in parse_seeds(args.seeds):
        cmd = spec["command"] + [
            "--workload", args.workload, "--seed", str(seed),
            "--seconds", str(spec["run_seconds"]), "--trace", "0",
        ]
        proc = subprocess.run(cmd, capture_output=True, text=True, check=False)
        if proc.returncode != 0:
            print(proc.stdout + proc.stderr, file=sys.stderr)
            return 1
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        runs.append(result)
        print(f"seed {seed}: correct={result['correct']} failed={result['failed']}/"
              f"{result['attempted']}", flush=True)

    print(f"{'metric':<24}{'median':>14}{'spread':>10}{'bound/3':>10}")
    for name in runs[0]["metrics"]:
        values = [r["metrics"][name]["value"] for r in runs]
        s = spread(values) if len(values) >= 2 else float("nan")
        b = bounds.get(name)
        mark = "" if b is None or s < b / 3 else "  <-- not steady"
        print(f"{name:<24}{statistics.median(values):>14.6g}{s:>10.4f}"
              f"{'' if b is None else f'{b / 3:.4f}':>10}{mark}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
