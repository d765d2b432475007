#!/usr/bin/env python3
"""Collect a baseline file that later changes diff against.

Usage, from the root of the checkout::

    python3 benchmarks/spread.py --workload element_solve --seeds 1-10 --json es.json
    ...                                    # the same for the other workloads
    python3 benchmarks/baseline.py --out benchmarks/results/BENCH_<n>.json \\
        --spread es.json rc.json bd.json [--notes notes.json]

For every workload it runs ``run.py`` on the default seed with tracing off
and on, and stores both full records.  The ``--spread`` files (written by
``spread.py``) add the medians, quartiles and spreads over several seeds.
``--notes`` is a JSON list of strings stored as they are.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "benchmarks"))

from harness.gate import DEFAULT_SEED  # noqa: E402


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--out", required=True)
    parser.add_argument("--spread", nargs="*", default=[])
    parser.add_argument("--notes")
    args = parser.parse_args(argv)

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    baseline = {"benchmark": spec, "default_seed": DEFAULT_SEED, "workloads": {}}
    for workload in (w["name"] for w in spec["workloads"]):
        entry = baseline["workloads"][workload] = {}
        for trace in (0, 1):
            cmd = spec["command"] + ["--workload", workload, "--seed", str(DEFAULT_SEED),
                                     "--seconds", str(spec["run_seconds"]),
                                     "--trace", str(trace)]
            proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900)
            if proc.returncode != 0:
                sys.stdout.write(proc.stdout + proc.stderr)
                return 1
            record = ROOT / ".bench_out" / f"{workload}-seed{DEFAULT_SEED}-trace{trace}.json"
            entry[f"trace{trace}"] = json.loads(record.read_text())
            print(f"{workload} trace {trace}: done", flush=True)
    for path in args.spread:
        data = json.loads(Path(path).read_text())
        baseline["workloads"][data["workload"]]["seeds"] = {
            "seeds": [run["seed"] for run in data["runs"]], "summary": data["summary"]}
    if args.notes:
        baseline["notes"] = json.loads(Path(args.notes).read_text())
    Path(args.out).parent.mkdir(parents=True, exist_ok=True)
    Path(args.out).write_text(json.dumps(baseline, indent=1) + "\n")
    print(f"wrote {args.out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
