#!/usr/bin/env python3
"""Benchmark of the glauert_bem package built from ``src/`` of this checkout.

Usage, from the root of the checkout::

    python3 benchmarks/run.py --workload element_solve --seed 1 --seconds 30 --trace 0

Workloads: ``element_solve``, ``rotor_cli``, ``blade_design`` (see
``benchmarks/README.md``).  One process is one closed-loop caller; the
package's own ``--jobs`` thread pool is the only concurrency.

``--trace 0`` sets the workload up, then issues the workload's pool of
units in passes, one pass after another, until ``--seconds`` seconds have
passed and the pass in progress is complete.  Each unit's time is its best
over the passes, which keeps slow stretches of a shared machine out of the
figures; ``units_per_s`` and ``unit_ms_p50`` come from these best times.
``setup_s`` is the median of several set-ups, some before the timed phase
and the rest spread over it (their time is left out of the timed phase).
``--trace 1`` runs one untraced pass, runs it again with every public
function of the package wrapped, checks that both passes give identical
outputs, and reports the per-layer metrics.

Both modes check every output with the correctness gate (and, on the
default seed 1, against ``benchmarks/reference/``), print a table and, as
the last line, one JSON object with ``correct``, ``attempted``, ``failed``
and ``metrics``.  The full record (provenance, input shares, sample
counts, set-up times, gate errors) goes to ``.bench_out/``; spans of a traced run to
``.bench_out/spans-<workload>.npz``.  Exit code 0 means the gate passed,
1 that it failed, 2 that the checkout holds no ``src/glauert_bem``.

``--write-reference`` runs every unit of the default seed once and stores
the outputs as the reference (do this only when a change of results is
intended and explained).
"""

from __future__ import annotations

import argparse
import hashlib
import importlib
import json
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from collections import Counter
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".bench_out"
TMP_DIR = ROOT / ".bench_tmp"
SETUP_BEFORE = 3   # set-ups before the timed phase; the run uses the last one's inputs
SETUP_DURING = 12  # set-ups spread evenly over the timed phase, only for setup_s
P90_MIN_UNITS = 100   # so that at least ten samples lie beyond the 90th percentile


def fresh_import():
    """Import glauert_bem from this checkout's src/, dropping any earlier import."""
    for name in [n for n in sys.modules if n == "glauert_bem" or n.startswith("glauert_bem.")]:
        del sys.modules[name]
    bem = importlib.import_module("glauert_bem")
    for layer in ("polar", "model", "solvers", "design", "config", "cli"):
        importlib.import_module(f"glauert_bem.{layer}")
    if Path(bem.__file__).resolve().parent != (SRC / "glauert_bem").resolve():
        raise RuntimeError(f"imported glauert_bem from {bem.__file__}, not from {SRC}")
    return bem


def do_setup(workload, seed, tmp, repeat):
    import numpy as np
    from harness.workloads import WORKLOADS

    t0 = time.perf_counter()
    bem = fresh_import()
    work = tmp / f"setup{repeat}"
    work.mkdir(parents=True)
    inputs = WORKLOADS[workload][0](bem, ROOT, work, np.random.default_rng(seed))
    return inputs, time.perf_counter() - t0


class Run:
    """Outputs of one pass: per issued unit its output, failure flag and wall time."""

    def __init__(self):
        self.records = []  # (unit, output, failed, seconds)
        self.starts = []   # perf_counter() at the start of each record's unit
        self.elapsed = 0.0

    def outputs(self):
        """uid -> canonical output; a repeated unit must reproduce its output."""
        seen, errors = {}, []
        for unit, out, _, _ in self.records:
            if unit.uid in seen:
                if _canon(seen[unit.uid]) != _canon(out):
                    errors.append(f"unit {unit.uid}: output differs between repetitions")
            else:
                seen[unit.uid] = out
        return seen, errors


def _canon(out):
    return json.dumps(out, sort_keys=True)


def run_units(inputs, run_fn, units=None, seconds=None, tracer=None, pauses=0, pause=None,
              speed=None):
    """Closed loop: issue the unit pool in passes for ``seconds``, or replay ``units``.

    A timed run ends with the first pass that completes after ``seconds``,
    so every unit of the pool runs the same number of times.  ``pause()``
    is called between units at up to ``pauses`` even intervals of
    ``seconds``; its time counts neither towards ``seconds`` nor towards
    ``elapsed``.  ``speed``, a ``SpeedLog``, is sampled between units when
    it is due and once after the last unit.
    """
    run = Run()
    pool = inputs.units
    perf = time.perf_counter
    start = perf()
    paused = 0.0
    k = done = 0
    while True:
        if units is not None:
            if k == len(units):
                break
            unit = units[k]
        else:
            unit = pool[k % len(pool)]
        if speed and speed.due(perf()):
            speed.sample()
        handle = tracer.begin_unit(unit.uid) if tracer else None
        t0 = perf()
        out, failed = run_fn(inputs, unit)
        t1 = perf()
        if tracer:
            tracer.end(handle)
        run.records.append((unit, out, failed, t1 - t0))
        run.starts.append(t0)
        k += 1
        if done < pauses and t1 - start - paused >= (done + 1) * seconds / (pauses + 1):
            p0 = perf()
            pause()
            paused += perf() - p0
            done += 1
        if units is None and t1 - start - paused >= seconds and k % len(pool) == 0:
            break
    if speed:
        speed.sample()
    run.elapsed = perf() - start - paused
    return run


# ---------------------------------------------------------------------------
# provenance and input shares


def provenance(workload, seed, seconds, trace):
    import numpy
    import scipy
    from harness.workloads import nproc

    commit = None
    if (ROOT / ".git").exists():
        proc = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              capture_output=True, text=True, timeout=30)
        commit = proc.stdout.strip() or None
    digest = hashlib.sha256()
    for path in sorted((SRC / "glauert_bem").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return {"workload": workload, "seed": seed, "seconds": seconds, "trace": trace,
            "nproc": nproc(), "python": platform.python_version(),
            "numpy": numpy.__version__, "scipy": scipy.__version__,
            "machine": f"{platform.system()} {platform.release()} {platform.machine()}",
            "git_commit": commit,
            "source_sha256": digest.hexdigest()}


def _design_category(inputs, unit, out):
    """Root category at an optimized design (blade_design does not scan for roots)."""
    bem = inputs.bem
    geom, polar, corr = inputs.items[unit.item]
    best = bem.ElementGeometry(lam=geom.lam, r=geom.r, gamma=out["gamma"], chord=out["chord"],
                               blade_count=geom.blade_count, tip_radius=geom.tip_radius)
    state = bem.recover_induction(best, polar, corr, out["phi"])
    return bem.solvers.classify_root(best, polar, corr, state.phi, state)


def input_shares(workload, inputs, run):
    """Measured share of issued units with each input property the workloads vary."""
    multi, branch = {}, {}  # item -> property, for items whose roots the run saw
    for unit, out, _, _ in run.records:
        if unit.item in branch:
            continue
        if workload == "element_solve" and unit.kind == "scan" and out["raised"] is None:
            categories = [root[1] for root in out["roots"]]
            multi[unit.item] = len(categories) > 1
        elif workload == "rotor_cli" and unit.kind == "scan":
            categories = [row[2] for row in out["rows"]]
            multi[unit.item] = max(Counter(row[0] for row in out["rows"]).values(),
                                   default=0) > 1
        elif workload == "blade_design" and out["raised"] is None:
            categories = [_design_category(inputs, unit, out)]
        else:
            continue
        branch[unit.item] = "correction_branch" in categories
    units = [unit for unit, _, _, _ in run.records]
    n = len(units)
    variants = Counter(unit.variant for unit in units)
    return {"units": n,
            "variant": {v: variants[v] / n for v in sorted(variants)},
            "tip_loss_on": sum(u.tip_loss for u in units) / n,
            "roots_known": sum(u.item in branch for u in units) / n,
            "multiple_roots": (sum(multi.get(u.item, False) for u in units) / n
                               if workload != "blade_design" else None),
            "correction_branch_root": sum(branch.get(u.item, False) for u in units) / n}


# ---------------------------------------------------------------------------
# modes


def end_to_end(workload, seed, seconds, tmp):
    from harness.speed import SpeedLog
    from harness.workloads import WORKLOADS

    speed = SpeedLog()
    setup_wall, setup_scaled = [], []

    def setup():
        speed.sample()
        inputs, dt = do_setup(workload, seed, tmp, len(setup_wall))
        speed.sample()
        setup_wall.append(dt)
        setup_scaled.append(dt * speed.scale(speed.times[-1] - dt / 2.0))
        return inputs

    for _ in range(SETUP_BEFORE):
        inputs = setup()
    run = run_units(inputs, WORKLOADS[workload][1], seconds=seconds,
                    pauses=SETUP_DURING, pause=setup, speed=speed)
    while len(setup_wall) < SETUP_BEFORE + SETUP_DURING:  # a unit outlasted an interval
        setup()
    scaled = {}  # uid -> its scaled times over the passes
    for (unit, _, _, dt), t0 in zip(run.records, run.starts):
        scaled.setdefault(unit.uid, []).append(dt * speed.scale(t0))
    unit_s = [statistics.median(times) for times in scaled.values()]
    times_ms = [dt * 1e3 for dt in unit_s]
    n = len(times_ms)
    failed = sum(1 for _, _, f, _ in run.records if f)
    metrics = {
        "units_per_s": (n / sum(unit_s), "1/s", n),
        "unit_ms_p50": (statistics.median(times_ms), "ms", n),
        "setup_s": (statistics.median(setup_scaled), "s", len(setup_scaled)),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB", 1),
    }
    extra = {"failed_frac": (failed / len(run.records), "ratio", len(run.records)),
             "wall_units_per_s": (len(run.records) / run.elapsed, "1/s", len(run.records)),
             "wall_setup_s": (statistics.median(setup_wall), "s", len(setup_wall))}
    if n >= P90_MIN_UNITS:
        extra["unit_ms_p90"] = (statistics.quantiles(times_ms, n=10, method="inclusive")[8],
                                "ms", n)
    info = {"passes": len(run.records) // n, "setup_samples_s": setup_wall,
            "speed_loop_s": {"median": statistics.median(speed.samples),
                             "min": min(speed.samples), "max": max(speed.samples),
                             "samples": len(speed.samples)}}
    return inputs, run, metrics, extra, info


def traced(workload, seed, seconds, tmp):
    from harness import layers
    from harness.speed import SpeedLog
    from harness.tracer import Tracer
    from harness.workloads import WORKLOADS

    inputs, _ = do_setup(workload, seed, tmp, 0)
    run_fn = WORKLOADS[workload][1]
    units = list(inputs.units)
    speed = SpeedLog()
    plain = run_units(inputs, run_fn, units=units, speed=speed)
    tags, results = layers.make_hooks(inputs.bem)
    tracer = Tracer(tags, results)
    tracer.install()
    try:
        run = run_units(inputs, run_fn, units=units, tracer=tracer, speed=speed)
    finally:
        tracer.uninstall()
    mismatch = [f"unit {a[0].uid}: traced output differs from the untraced run"
                for a, b in zip(plain.records, run.records) if _canon(a[1]) != _canon(b[1])]
    plain_s, traced_s = (sum(r[3] * speed.scale(t0) for r, t0 in zip(p.records, p.starts))
                         for p in (plain, run))
    spans = tracer.spans()
    values = layers.layer_metrics(spans, len(units), run.elapsed, traced_s / plain_s - 1.0)
    metrics = {name: (values[name], layers.UNITS[name], len(units)) for name in values}
    OUT_DIR.mkdir(exist_ok=True)
    spans.save(OUT_DIR / f"spans-{workload}.npz")
    info = {"spans": len(spans), "top_self_time": layers.top_self_time(spans, run.elapsed),
            "untraced_s": plain_s, "traced_s": traced_s, "errors": mismatch}
    return inputs, run, metrics, {}, info


# ---------------------------------------------------------------------------


def write_reference(workload, seed, tmp):
    from harness import gate
    from harness.workloads import WORKLOADS

    if seed != gate.DEFAULT_SEED:
        raise SystemExit(f"the reference is made on the default seed {gate.DEFAULT_SEED}")
    inputs, _ = do_setup(workload, seed, tmp, 0)
    run = run_units(inputs, WORKLOADS[workload][1], units=list(inputs.units))
    outputs, errors = run.outputs()
    errors += gate.check_outputs(workload, inputs, outputs, seed=None)
    if errors:
        print("\n".join(errors[:20]), file=sys.stderr)
        return 1
    gate.REFERENCE_DIR.mkdir(exist_ok=True)
    with open(gate.reference_path(workload), "w") as handle:
        json.dump({"workload": workload, "seed": seed,
                   "units": {str(uid): out for uid, out in sorted(outputs.items())}},
                  handle, sort_keys=True, indent=0)
        handle.write("\n")
    print(f"wrote {gate.reference_path(workload)} ({len(outputs)} units)")
    return 0


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=["element_solve", "rotor_cli", "blade_design"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--write-reference", action="store_true")
    args = parser.parse_args(argv)

    if not (SRC / "glauert_bem" / "__init__.py").is_file():
        print(f"error: no glauert_bem package under {SRC}; run from a full checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    from harness import gate

    tmp = TMP_DIR / f"{args.workload}-{args.seed}-{args.trace}-{time.time_ns()}"
    try:
        if args.write_reference:
            return write_reference(args.workload, args.seed, tmp)
        mode = traced if args.trace else end_to_end
        inputs, run, metrics, extra, info = mode(args.workload, args.seed, args.seconds, tmp)
        outputs, errors = run.outputs()
        errors += info.pop("errors", [])
        errors += gate.check_outputs(args.workload, inputs, outputs, args.seed)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
        if TMP_DIR.exists() and not any(TMP_DIR.iterdir()):
            TMP_DIR.rmdir()

    attempted = len(run.records)
    failed = sum(1 for _, _, f, _ in run.records if f)
    record = {"provenance": provenance(args.workload, args.seed, args.seconds, args.trace),
              "input_shares": input_shares(args.workload, inputs, run),
              "correct": not errors, "attempted": attempted, "failed": failed,
              "metrics": {k: {"value": v, "unit": u, "n": n}
                          for k, (v, u, n) in {**metrics, **extra}.items()},
              "errors": errors[:50], **info}
    OUT_DIR.mkdir(exist_ok=True)
    record_path = OUT_DIR / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    record_path.write_text(json.dumps(record, indent=1) + "\n")

    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}  "
          f"units {attempted}  failed {failed}  correct {not errors}")
    print(f"{'metric':48s} {'value':>14s} {'unit':>10s} {'n':>7s}")
    for name, (value, unit, n) in {**metrics, **extra}.items():
        print(f"{name:48s} {value:14.6g} {unit:>10s} {n:7d}")
    if not args.trace and "unit_ms_p90" not in extra:
        print(f"{'unit_ms_p90':48s} {'n/a':>14s} {'ms':>10s} {len(inputs.units):7d}"
              f"  (fewer than {P90_MIN_UNITS} units in the pool)")
    for top in info.get("top_self_time", []):
        print(f"  self {top['name']:40s} {top['self_share']:8.4f} of traced wall, "
              f"{top['calls']} calls")
    for error in errors[:20]:
        print(f"GATE: {error}", file=sys.stderr)
    print(f"record: {record_path.relative_to(ROOT)}")
    result = {k: {"value": v, "unit": u} for k, (v, u, _) in metrics.items()}
    print(json.dumps({"correct": not errors, "attempted": attempted, "failed": failed,
                      "metrics": result}))
    return 0 if not errors else 1


if __name__ == "__main__":
    sys.exit(main())
