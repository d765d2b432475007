#!/usr/bin/env python3
"""Run one workload on several seeds and report each metric's spread.

Usage, from the root of the checkout::

    python3 benchmarks/spread.py --workload blade_design --seeds 1-10 [--json out.json]

Runs ``benchmarks/run.py`` once per seed with tracing off, one run at a
time, with the ``run_seconds`` of ``BENCHMARK.json``.  For every metric it prints the
median, the first and third quartile (``statistics.quantiles(n=4)``) and
the spread, the distance between the quartiles as a share of the median,
next to the metric's bound.  A run that fails or exits non-zero stops the
script with that run's output.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def seeds_of(text):
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--json", help="write the runs and their summary to this file")
    args = parser.parse_args(argv)

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    runs = []
    for seed in seeds_of(args.seeds):
        cmd = spec["command"] + ["--workload", args.workload, "--seed", str(seed),
                                 "--seconds", str(spec["run_seconds"]),
                                 "--trace", "0"]
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            sys.stdout.write(proc.stdout + proc.stderr)
            return 1
        result = json.loads(lines[-1])
        result["seed"] = seed
        runs.append(result)
        values = " ".join(f"{k}={v['value']:.5g}" for k, v in result["metrics"].items()
                          if k in bounds)
        print(f"seed {seed}: attempted {result['attempted']} failed {result['failed']} "
              f"{values}", flush=True)

    summary = {}
    print(f"{'metric':40s} {'median':>12s} {'q1':>12s} {'q3':>12s} {'spread':>8s} {'bound':>6s}")
    for name in runs[0]["metrics"]:
        values = [r["metrics"][name]["value"] for r in runs]
        q1, med, q3 = statistics.quantiles(values, n=4)
        spread = (q3 - q1) / med if med else float("nan")
        summary[name] = {"median": med, "q1": q1, "q3": q3, "spread": spread,
                         "bound": bounds.get(name)}
        print(f"{name:40s} {med:12.6g} {q1:12.6g} {q3:12.6g} {spread:8.4f} "
              f"{bounds.get(name, float('nan')):6.2f}")
    if args.json:
        Path(args.json).write_text(json.dumps({"workload": args.workload, "runs": runs, "summary": summary},
                                              indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
