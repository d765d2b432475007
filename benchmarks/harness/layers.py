"""Per-layer metrics computed from the spans of a traced run.

``us`` and ``ms`` metrics are the mean inclusive wall time of one call;
``calls_per_unit`` counts calls per workload unit; ``self_share`` is the
summed self time of a layer's spans over the traced wall time.  A metric
whose function is never called on a workload reads 0.
"""

from __future__ import annotations

import re

import numpy as np

from .tracer import LAYERS
from .workloads import VARIANTS

SOLVER_SPANS = {"usual": "solvers.solve_usual", "fixed": "solvers.solve_fixed_point",
                "newton": "solvers.solve_newton", "bisect": "solvers.solve_bisection"}
CLI_SPANS = {cmd: f"cli.cmd_{cmd}" for cmd in ("solve", "scan", "design", "sweep", "check")}
_FALLBACKS = re.compile(r"(\d+) bisection fallback")


def _metric_table():
    """(name, unit, better) for every per-layer metric, in report order."""
    table = []
    add = lambda name, unit, better: table.append((name, unit, better))  # noqa: E731
    for fn in ("cl", "cd"):
        add(f"polar.{fn}.calls_per_unit", "calls/unit", "lower")
        add(f"polar.{fn}.us", "us", "lower")
    add("polar.cl_prime.us", "us", "lower")
    add("polar.cd_prime.us", "us", "lower")
    add("polar.best_glide_angle.calls_per_unit", "calls/unit", "lower")
    add("polar.best_glide_angle.ms", "ms", "lower")
    add("polar.best_glide_angle.share", "ratio", "lower")
    add("polar.self_share", "ratio", "lower")
    for fn in ("tip_loss_factor", "residual"):
        add(f"model.{fn}.calls_per_unit", "calls/unit", "lower")
        add(f"model.{fn}.us", "us", "lower")
    for variant in VARIANTS:
        add(f"model.residual.{variant}.us", "us", "lower")
    add("model.tau_nu.calls_per_unit", "calls/unit", "lower")
    for variant in VARIANTS:
        add(f"model.tau_nu.{variant}.us", "us", "lower")
    add("model.recover_induction.calls_per_unit", "calls/unit", "lower")
    add("model.recover_induction.us", "us", "lower")
    add("model.self_share", "ratio", "lower")
    for kind in SOLVER_SPANS:
        add(f"solvers.{kind}.ms", "ms", "lower")
        add(f"solvers.{kind}.iterations", "count", "lower")
        add(f"solvers.{kind}.residual_calls", "count", "lower")
        add(f"solvers.{kind}.converged_frac", "ratio", "higher")
    add("solvers.newton.fallbacks", "count", "lower")
    add("solvers.newton.iterations_correction_branch", "count", "lower")
    add("solvers.fixed.grid_time_share", "ratio", "lower")
    add("solvers.scan_roots.ms", "ms", "lower")
    add("solvers.scan_roots.residual_calls", "count", "lower")
    add("solvers.scan_roots.roots", "count", "higher")
    add("solvers.check_existence.ms", "ms", "lower")
    add("solvers.check_appendix_conditions.ms", "ms", "lower")
    add("solvers.self_share", "ratio", "lower")
    add("design.simplified_optimum.calls_per_unit", "calls/unit", "lower")
    add("design.simplified_optimum.ms", "ms", "lower")
    add("design.solve_element.scan.ms", "ms", "lower")
    add("design.solve_element.hint.ms", "ms", "lower")
    add("design.solve_element.hint_hit_ratio", "ratio", "higher")
    add("design.assemble_adjoint.calls_per_unit", "calls/unit", "lower")
    add("design.assemble_adjoint.us", "us", "lower")
    add("design.optimize_element.ms", "ms", "lower")
    add("design.optimize_element.iterations", "count", "lower")
    add("design.optimize_element.accept_ratio", "ratio", "higher")
    add("design.cp_sweep.ms", "ms", "lower")
    add("design.J_lambda.us", "us", "lower")
    add("design.self_share", "ratio", "lower")
    add("config.parse_config.ms", "ms", "lower")
    add("config.self_share", "ratio", "lower")
    for cmd in CLI_SPANS:
        add(f"cli.{cmd}.ms", "ms", "lower")
    add("cli.self_share", "ratio", "lower")
    add("trace.overhead_frac", "ratio", "lower")
    return table


METRICS = _metric_table()
UNITS = {name: unit for name, unit, _ in METRICS}


def make_hooks(bem):
    """Span tags and result recorders for the tracer, bound to ``bem``'s classes.

    ``classify_root`` is taken before the tracer is installed, so the
    recorder calls the original and adds no spans of its own.
    """
    classify_root = bem.solvers.classify_root
    variant_index = {v: i for i, v in enumerate(VARIANTS)}

    def corr_of(args, kwargs):
        return args[2] if len(args) > 2 else kwargs["corr"]

    def variant_tag(args, kwargs):
        return variant_index[corr_of(args, kwargs).variant]

    def hint_tag(args, kwargs):
        hint = args[3] if len(args) > 3 else kwargs.get("phi_hint")
        return 0 if hint is None else 1

    def solver_result(args, kwargs, out, exc):
        """(iterations, converged, fallbacks, converged on a correction-branch root)."""
        if exc is not None:
            return (0, False, 0, False)
        match = _FALLBACKS.search(out.message)
        branch = False
        if out.converged:
            geom = args[0] if args else kwargs["geom"]
            polar = args[1] if len(args) > 1 else kwargs["polar"]
            branch = classify_root(geom, polar, corr_of(args, kwargs), out.state.phi,
                                   out.state) == "correction_branch"
        return (out.iterations, out.converged, int(match.group(1)) if match else 0, branch)

    def scan_result(args, kwargs, out, exc):
        return (0 if exc is not None else len(out.records),)

    def optimize_result(args, kwargs, out, exc):
        return (0, 0) if exc is not None else (out.iterations, out.accepted_steps)

    tags = {"model.residual": variant_tag, "model.tau_nu": variant_tag,
            "design.solve_element": hint_tag}
    results = {span: solver_result for span in SOLVER_SPANS.values()}
    results["solvers.scan_roots"] = scan_result
    results["design.optimize_element"] = optimize_result
    return tags, results


def layer_metrics(t, n_units, wall, overhead):
    """Every per-layer metric from a :class:`SpanTable` of ``n_units`` units."""
    m = {}
    dur = t.duration
    n = len(t)
    rows = t.mask

    def mean(mask, scale):
        return float(dur[mask].mean() * scale) if mask.any() else 0.0

    def per_unit(mask):
        return float(mask.sum()) / n_units

    def results(mask, field):
        return np.array([t.results[r][field] for r in np.nonzero(mask)[0]], dtype=float)

    def avg(values):
        return float(values.mean()) if values.size else 0.0

    layer_of = np.array([LAYERS.index(name.split(".")[0]) if name.split(".")[0] in LAYERS
                         else -1 for name in t.names])
    row_layer = layer_of[t.name] if n else np.zeros(0, int)
    share = {layer: float(t.self_time[row_layer == k].sum()) / wall
             for k, layer in enumerate(LAYERS)}

    for fn in ("cl", "cd"):
        m[f"polar.{fn}.calls_per_unit"] = per_unit(rows(f"polar.{fn}"))
        m[f"polar.{fn}.us"] = mean(rows(f"polar.{fn}"), 1e6)
    m["polar.cl_prime.us"] = mean(rows("polar.cl_prime"), 1e6)
    m["polar.cd_prime.us"] = mean(rows("polar.cd_prime"), 1e6)
    glide = rows("polar.best_glide_angle")
    m["polar.best_glide_angle.calls_per_unit"] = per_unit(glide)
    m["polar.best_glide_angle.ms"] = mean(glide, 1e3)
    m["polar.best_glide_angle.share"] = float(dur[glide].sum()) / wall
    m["polar.self_share"] = share["polar"]

    for fn in ("tip_loss_factor", "residual"):
        m[f"model.{fn}.calls_per_unit"] = per_unit(rows(f"model.{fn}"))
        m[f"model.{fn}.us"] = mean(rows(f"model.{fn}"), 1e6)
    for k, variant in enumerate(VARIANTS):
        m[f"model.residual.{variant}.us"] = mean(rows("model.residual") & (t.tag == k), 1e6)
    m["model.tau_nu.calls_per_unit"] = per_unit(rows("model.tau_nu"))
    for k, variant in enumerate(VARIANTS):
        m[f"model.tau_nu.{variant}.us"] = mean(rows("model.tau_nu") & (t.tag == k), 1e6)
    m["model.recover_induction.calls_per_unit"] = per_unit(rows("model.recover_induction"))
    m["model.recover_induction.us"] = mean(rows("model.recover_induction"), 1e6)
    m["model.self_share"] = share["model"]

    residual = rows("model.residual")
    solver_anc = t.nearest(list(SOLVER_SPANS.values()))
    for kind, span in SOLVER_SPANS.items():
        calls = rows(span)
        m[f"solvers.{kind}.ms"] = mean(calls, 1e3)
        m[f"solvers.{kind}.iterations"] = avg(results(calls, 0))
        inside = residual & (solver_anc >= 0)
        inside[inside] = calls[solver_anc[inside]]
        m[f"solvers.{kind}.residual_calls"] = (float(inside.sum()) / calls.sum()
                                               if calls.any() else 0.0)
        m[f"solvers.{kind}.converged_frac"] = avg(results(calls, 1))
    newton = rows(SOLVER_SPANS["newton"])
    m["solvers.newton.fallbacks"] = avg(results(newton, 2))
    branch = results(newton, 3).astype(bool)
    m["solvers.newton.iterations_correction_branch"] = avg(results(newton, 0)[branch])
    fixed = rows(SOLVER_SPANS["fixed"])
    grid = rows("model.mu_L_c_prime") & (t.parent >= 0)
    grid[grid] = fixed[t.parent[grid]]
    m["solvers.fixed.grid_time_share"] = (float(dur[grid].sum() / dur[fixed].sum())
                                          if fixed.any() else 0.0)
    scan = rows("solvers.scan_roots")
    m["solvers.scan_roots.ms"] = mean(scan, 1e3)
    in_scan = residual & (t.nearest(["solvers.scan_roots"]) >= 0)
    m["solvers.scan_roots.residual_calls"] = (float(in_scan.sum()) / scan.sum()
                                              if scan.any() else 0.0)
    m["solvers.scan_roots.roots"] = avg(results(scan, 0))
    m["solvers.check_existence.ms"] = mean(rows("solvers.check_existence"), 1e3)
    m["solvers.check_appendix_conditions.ms"] = mean(
        rows("solvers.check_appendix_conditions"), 1e3)
    m["solvers.self_share"] = share["solvers"]

    m["design.simplified_optimum.calls_per_unit"] = per_unit(rows("design.simplified_optimum"))
    m["design.simplified_optimum.ms"] = mean(rows("design.simplified_optimum"), 1e3)
    element = rows("design.solve_element")
    hint = element & (t.tag == 1)
    m["design.solve_element.scan.ms"] = mean(element & (t.tag == 0), 1e3)
    m["design.solve_element.hint.ms"] = mean(hint, 1e3)
    scan_parent = t.nearest(["design.solve_element"])[scan]
    scanned = np.zeros(n, bool)
    scanned[scan_parent[scan_parent >= 0]] = True
    m["design.solve_element.hint_hit_ratio"] = (float((hint & ~scanned).sum() / hint.sum())
                                                if hint.any() else 0.0)
    m["design.assemble_adjoint.calls_per_unit"] = per_unit(rows("design.assemble_adjoint"))
    m["design.assemble_adjoint.us"] = mean(rows("design.assemble_adjoint"), 1e6)
    optimize = rows("design.optimize_element")
    m["design.optimize_element.ms"] = mean(optimize, 1e3)
    m["design.optimize_element.iterations"] = avg(results(optimize, 0))
    iterations = results(optimize, 0).sum()
    m["design.optimize_element.accept_ratio"] = (float(results(optimize, 1).sum() / iterations)
                                                 if iterations else 0.0)
    m["design.cp_sweep.ms"] = mean(rows("design.cp_sweep"), 1e3)
    m["design.J_lambda.us"] = mean(rows("design.J_lambda"), 1e6)
    m["design.self_share"] = share["design"]

    m["config.parse_config.ms"] = mean(rows("config.parse_config"), 1e3)
    m["config.self_share"] = share["config"]
    for cmd, span in CLI_SPANS.items():
        m[f"cli.{cmd}.ms"] = mean(rows(span), 1e3)
    m["cli.self_share"] = share["cli"]
    m["trace.overhead_frac"] = overhead
    if list(m) != [name for name, _, _ in METRICS]:
        raise RuntimeError("computed per-layer metrics differ from METRICS")
    return m


def top_self_time(t, wall, count=10):
    """The ``count`` span names with the largest self-time share."""
    totals = np.bincount(t.name, weights=t.self_time, minlength=len(t.names))
    calls = np.bincount(t.name, minlength=len(t.names))
    order = np.argsort(-totals)[:count]
    return [{"name": t.names[k], "self_share": float(totals[k] / wall),
             "calls": int(calls[k])} for k in order if calls[k]]
