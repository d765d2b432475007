#!/usr/bin/env python3
"""Self-test of the benchmark harness (not of glauert_bem itself).

Run from the root of the checkout with ``python3 benchmarks/selftest.py``
(or ``python3 -m pytest benchmarks/selftest.py``).  It checks that

* the tracer rebinds the public functions everywhere and restores every
  attribute and dict entry it patched;
* a different seed changes the generated inputs, and the same seed
  reproduces them;
* the correctness gate rejects deliberately corrupted results;
* the speed scaling follows the loop time measured around a unit;
* ``BENCHMARK.json`` lists exactly the metrics the harness reports.
"""

from __future__ import annotations

import copy
import json
import math
import shutil
import sys
import tempfile
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(HERE), str(ROOT / "src")]

import run as bench  # noqa: E402
from harness import gate, layers  # noqa: E402
from harness.speed import EVERY_S, REFERENCE_S, SpeedLog  # noqa: E402
from harness.tracer import Tracer, leftover_wrappers, package_namespaces  # noqa: E402
from harness.workloads import WORKLOADS, input_fingerprint  # noqa: E402


def _setup(workload, seed, tmp):
    bem = bench.fresh_import()
    work = Path(tempfile.mkdtemp(dir=tmp))
    return WORKLOADS[workload][0](bem, ROOT, work, np.random.default_rng(seed))


def _bindings():
    """Identity of every function-valued name and dict entry in the package."""
    found = {}
    spaces = package_namespaces()
    table = sys.modules["glauert_bem.polar"].PolarTable
    for space in spaces + [table]:
        for key, value in vars(space).items():
            if callable(value):
                found[(space.__name__, key)] = value
            elif isinstance(value, dict) and key != "__builtins__":
                for item, entry in value.items():
                    if callable(entry):
                        found[(space.__name__, key, item)] = entry
    return found


def _tmpdir():
    bench.TMP_DIR.mkdir(exist_ok=True)
    return Path(tempfile.mkdtemp(dir=bench.TMP_DIR))


def test_tracer_restores_every_patch():
    tmp = _tmpdir()
    try:
        inputs = _setup("element_solve", gate.DEFAULT_SEED, tmp)
        bem = inputs.bem
        before = _bindings()
        original_newton = bem.solvers.METHODS["newton"]
        tracer = Tracer(*layers.make_hooks(bem))
        tracer.install()
        try:
            assert bem.solvers.METHODS["newton"] is not original_newton
            assert bem.residual is not tracer.originals["model.residual"]
            assert bem.design.residual is bem.model.residual  # rebound in every namespace
            unit = next(u for u in inputs.units if u.kind == "newton")
            handle = tracer.begin_unit(unit.uid)
            WORKLOADS["element_solve"][1](inputs, unit)
            tracer.end(handle)
        finally:
            tracer.uninstall()
        after = _bindings()
        assert leftover_wrappers() == []
        assert after.keys() == before.keys()
        changed = [key for key in before if after[key] is not before[key]]
        assert changed == [], f"not restored: {changed}"
        spans = tracer.spans()
        names = {spans.names[i] for i in np.unique(spans.name)}
        assert {"bench.unit", "solvers.solve_newton", "model.residual", "polar.cl"} <= names
        assert (spans.self_time <= spans.duration + 1e-12).all()
    finally:
        shutil.rmtree(tmp, ignore_errors=True)


def test_seed_changes_inputs():
    tmp = _tmpdir()
    try:
        for workload in WORKLOADS:
            one = input_fingerprint(_setup(workload, 1, tmp), workload)
            again = input_fingerprint(_setup(workload, 1, tmp), workload)
            two = input_fingerprint(_setup(workload, 2, tmp), workload)
            assert one == again, f"{workload}: same seed, different inputs"
            assert one != two, f"{workload}: seeds 1 and 2 give the same inputs"
    finally:
        shutil.rmtree(tmp, ignore_errors=True)


def _first(inputs, run_fn, kinds, accept):
    for unit in inputs.units:
        if unit.kind in kinds:
            out, _ = run_fn(inputs, unit)
            if accept(out):
                return unit, out
    raise LookupError(f"no unit of kind {kinds} with the wanted output")


def _rejected(workload, inputs, unit, out, seed=gate.DEFAULT_SEED):
    return gate.check_outputs(workload, inputs, {unit.uid: out}, seed)


def test_gate_rejects_corrupted_results():
    tmp = _tmpdir()
    seed = gate.DEFAULT_SEED
    try:
        inputs = _setup("element_solve", seed, tmp)
        run_fn = WORKLOADS["element_solve"][1]
        unit, out = _first(inputs, run_fn, ("newton",), lambda o: o.get("converged"))
        assert _rejected("element_solve", inputs, unit, out) == []
        bad = copy.deepcopy(out)
        bad["state"][0] += 1e-6  # phi off the root
        bad["phi"] += 1e-6
        assert _rejected("element_solve", inputs, unit, bad, seed=None), "invariant missed"
        assert len(_rejected("element_solve", inputs, unit, bad)) >= 2, "reference missed"
        unit, out = _first(inputs, run_fn, ("scan",), lambda o: o.get("roots"))
        bad = copy.deepcopy(out)
        bad["roots"][0][1] = "stall_branch" if out["roots"][0][1] != "stall_branch" \
            else "principal"
        assert _rejected("element_solve", inputs, unit, bad), "category change missed"

        inputs = _setup("blade_design", seed, tmp)
        run_fn = WORKLOADS["blade_design"][1]
        unit, out = _first(inputs, run_fn, ("optimize",), lambda o: o.get("converged"))
        assert _rejected("blade_design", inputs, unit, out) == []
        bad = dict(out, J=out["J_start"] - 1e-3)
        assert _rejected("blade_design", inputs, unit, bad, seed=None), "J loss missed"
        assert _rejected("blade_design", inputs, unit, dict(out, converged=False))
        bad = dict(out, J_start=out["J_start"] * (1.0 + 1e-6))
        assert _rejected("blade_design", inputs, unit, bad, seed=None), "start J missed"
        # a result left at its start, as a too-small adjoint gradient would give:
        # "converged" there is caught by the finite-difference gradient, and
        # a lower J than the reference by the reference
        geom, polar, corr = inputs.items[unit.item]
        start = inputs.bem.solve_element(geom, polar, corr)
        stuck = dict(out, J=out["J_start"], gamma=geom.gamma, chord=geom.chord,
                     phi=start.phi, iterations=1, accepted=0)
        assert any("gradient" in e for e in _rejected("blade_design", inputs, unit, stuck,
                                                      seed=None)), "converged off optimum missed"
        stuck["converged"] = False
        assert _rejected("blade_design", inputs, unit, stuck, seed=None) == []
        assert any("below the reference" in e
                   for e in _rejected("blade_design", inputs, unit, stuck)), "lower J missed"

        inputs = _setup("rotor_cli", seed, tmp)
        unit = next(u for u in inputs.units if u.kind == "sweep" and u.item > 0)
        out, _ = WORKLOADS["rotor_cli"][1](inputs, unit)
        assert _rejected("rotor_cli", inputs, unit, out) == []
        bad = copy.deepcopy(out)
        bad["summary"]["Cp"] += 1e-6
        assert _rejected("rotor_cli", inputs, unit, bad), "Cp change missed"
        assert _rejected("rotor_cli", inputs, unit, dict(out, exit=2), seed=None)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)


def test_speed_scale_follows_the_loop_time():
    log = SpeedLog()
    log.times = [float(t) for t in range(10)]
    log.samples = [1e-4] * 5 + [2e-4] * 5  # the machine halves its speed at t = 5
    assert math.isclose(log.scale(1.5), REFERENCE_S / 1e-4)
    assert math.isclose(log.scale(7.5), REFERENCE_S / 2e-4)
    assert log.due(9.0 + 2 * EVERY_S) and not log.due(9.0 + EVERY_S / 2)


def test_benchmark_json_matches_harness():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == layers.METRICS
    assert {m["name"] for m in spec["end_to_end"]} == {
        "units_per_s", "unit_ms_p50", "setup_s", "peak_rss_mb"}


def main():
    tests = [fn for name, fn in sorted(globals().items()) if name.startswith("test_")]
    try:
        for fn in tests:
            fn()
            print(f"ok  {fn.__name__}")
    finally:
        if bench.TMP_DIR.exists() and not any(bench.TMP_DIR.iterdir()):
            bench.TMP_DIR.rmdir()
    return 0


if __name__ == "__main__":
    sys.exit(main())
