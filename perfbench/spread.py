#!/usr/bin/env python3
"""Run the benchmark over several seeds and print each metric's spread.

Usage (from the repository root)::

    python3 perfbench/spread.py --workload roundtrip --seeds 1 2 3 4 5

For every end-to-end metric it prints the median of the per-seed values and
the distance between their first and third quartiles as a share of that
median (``statistics.quantiles(values, n=4)``), next to the metric's bound
from ``BENCHMARK.json``, then the same for the unscaled times of the report
line (``detail.raw``).  Runs are sequential: one benchmark process at a time.
"""
from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def run_once(workload: str, seed: int, seconds: int, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=900, check=True)
    *_, report, result = proc.stdout.strip().splitlines()
    return json.loads(report), json.loads(result)


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", type=int, nargs="+", required=True)
    parser.add_argument("--seconds", type=int, default=spec["run_seconds"])
    args = parser.parse_args(argv)
    values = {m["name"]: [] for m in spec["end_to_end"]}
    raw = {}
    for seed in args.seeds:
        report, result = run_once(args.workload, seed, args.seconds, 0)
        print(json.dumps({"seed": seed, **result}), flush=True)
        if not result["correct"]:
            print(f"seed {seed}: incorrect output", file=sys.stderr)
        for name in values:
            values[name].append(result["metrics"][name]["value"])
        for name, value in report["detail"]["raw"].items():
            raw.setdefault(name, []).append(value)
    for m in spec["end_to_end"]:
        print(f"{m['name']:>14}  {_summary(values[m['name']])} {m['unit']:<5}  "
              f"bound {m['bound']}")
    # The same times before scaling to the nominal host speed.
    for name, vals in raw.items():
        print(f"{'raw ' + name:>14}  {_summary(vals)}")
    return 0


def _summary(vals) -> str:
    med = statistics.median(vals)
    if len(vals) >= 2:
        q1, _, q3 = statistics.quantiles(vals, n=4)
        spread = (q3 - q1) / med
    else:
        spread = float("nan")
    return f"median {med:12.5g}  spread {spread:7.4f}"


if __name__ == "__main__":
    raise SystemExit(main())
