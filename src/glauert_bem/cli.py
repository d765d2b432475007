"""Command-line interface.

Usage::

    bem solve  --config run.cfg [--method usual|fixed|newton|bisect|all] [--jobs N] [--out path]
    bem scan   --config run.cfg [--jobs N] [--out path]
    bem design --config run.cfg [--jobs N] [--out path]
    bem sweep  --config run.cfg [--out path]
    bem check  --config run.cfg [--out path]

CSV output uses the shortest round-trip decimal representation of every
float, so identical inputs give byte-identical files.  ``--jobs`` is
accepted for compatibility and has no effect: lambdas run one after
another.  Exit codes: 0 all requested work converged, 1 some
solve/element did not, 2 bad configuration or an output file that cannot
be written (checked before the command runs).  Set BEM_LOG=debug|info for
verbosity.
"""

from __future__ import annotations

import argparse
import logging
import math
import os
import sys

from .config import RunConfig, parse_config
from .design import (
    J_lambda,
    cp_sweep,
    optimize_element,
    simplified_optimum,
)
from .errors import BemError, BracketError, ConfigError
from .model import ElementGeometry, phi_upper
from .solvers import (
    _SCAN_NODES,
    METHODS,
    _attempt,
    _scan_many,
    check_appendix_conditions,
    check_existence,
    classify_root,
)

log = logging.getLogger("bem")

ROW_HEADER = "lambda,phi,alpha,a,a_prime,F,residual,iterations,method,J,root_category"
DESIGN_HEADER = "lambda,gamma,chord,phi_opt,J,mode,converged"
SWEEP_HEADER = "lambda,gamma,chord,phi,a,a_prime,F,residual,J,ok"

EXIT_OK, EXIT_INCOMPLETE, EXIT_CONFIG = 0, 1, 2


def _fmt(value) -> str:
    """Shortest round-trip text for a cell."""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return repr(float(value))  # plain float repr, also for numpy scalars
    return str(value)


def _row(*cells) -> str:
    """One CSV line: the :func:`_fmt` text of each cell."""
    return ",".join(map(_fmt, cells))


def _verdict(name, ok, key, value) -> str:
    """``name PASS|FAIL (key=value)`` of one check; ``(value)`` without a key."""
    detail = f"{key}={_fmt(value)}" if key else _fmt(value)
    return f"{name} {'PASS' if ok else 'FAIL'} ({detail})"


def _cannot_write(out_path, exc: OSError) -> ConfigError:
    return ConfigError(f"cannot write {out_path}: {exc.strerror or exc}")


def _check_writable(out_path):
    """Raise the :class:`ConfigError` of an output file that cannot be
    opened for writing, before any work is done; create no file."""
    existed = os.path.lexists(out_path)
    try:
        with open(out_path, "a"):  # append mode leaves an existing file as it is
            pass
    except OSError as exc:
        raise _cannot_write(out_path, exc) from exc
    if not existed:
        os.remove(out_path)


def _emit(lines, out_path):
    text = "\n".join(lines) + "\n"
    if out_path:
        try:
            with open(out_path, "w", newline="") as handle:
                handle.write(text)
        except OSError as exc:
            raise _cannot_write(out_path, exc) from exc
    else:
        sys.stdout.write(text)


def _element_design(cfg: RunConfig, lam: float):
    """(gamma, chord) for one element, per the configured design mode."""
    if cfg.design_mode == "fixed":
        return cfg.design_gamma, cfg.design_chord
    point = _designed(cfg, lam)
    return point.gamma, point.chord


def _element_geometry(cfg: RunConfig, lam: float) -> ElementGeometry:
    """The element at ``lam`` with its configured design."""
    gamma, chord = _element_design(cfg, lam)
    return ElementGeometry.from_turbine(cfg.turbine, lam, gamma, chord)


def _designed(cfg: RunConfig, lam: float):
    """The simplified optimum at ``lam``; in corrected mode, the configured
    optimizer's result started from it."""
    point = simplified_optimum(lam, cfg.polar, cfg.turbine)
    if cfg.design_mode != "corrected":
        return point
    geom = ElementGeometry.from_turbine(cfg.turbine, lam, point.gamma, point.chord)
    return optimize_element(geom, cfg.polar, cfg.correction, step=cfg.design_step,
                            tol=cfg.design_tol, max_steps=cfg.design_max_steps,
                            lambda_max=cfg.turbine.lambda_max)


def _state_row(cfg, lam, geom, state, iterations, method, category):
    """One ROW_HEADER line for a solved element state."""
    try:
        j = J_lambda(geom, cfg.polar, cfg.correction, state)
    except BemError:
        j = math.nan
    return _row(lam, state.phi, state.phi - geom.gamma, state.a, state.a_prime,
                state.tip_factor, state.residual, iterations, method, j, category)


def _failed_row(lam, method, category, phi=math.nan, iterations=0):
    """One ROW_HEADER line for an element with no solved state."""
    return _row(lam, phi, *[math.nan] * 5, iterations, method, math.nan, category)


def cmd_solve(cfg: RunConfig, method: str, out_path) -> int:
    methods = list(METHODS) if method == "all" else [method]
    lines = [ROW_HEADER]
    all_ok = True
    for lam in cfg.lambdas:
        geom = _attempt(_element_geometry, cfg, lam)
        if isinstance(geom, BemError):
            log.warning("lambda=%g: %s", lam, geom)
            lines.append(_failed_row(lam, "design", "design_failed"))
            all_ok = False
            continue
        for name in methods:
            report = _attempt(METHODS[name], geom, cfg.polar, cfg.correction, cfg.solver)
            if isinstance(report, BemError):
                all_ok = False
                if isinstance(report, BracketError):
                    lines.append(_failed_row(lam, name, "wrong_initial_guess"))
                    continue
                log.warning("lambda=%g method=%s: %s", lam, name, report)
                lines.append(_failed_row(lam, name, "solver_error"))
                continue
            all_ok = all_ok and report.converged
            state = report.state
            if state is None:  # never converged: no state to recover
                lines.append(_failed_row(lam, name, "not_converged", report.phi_star,
                                         report.iterations))
                continue
            category = (classify_root(geom, cfg.polar, cfg.correction, state.phi, state)
                        if report.converged else "not_converged")
            lines.append(_state_row(cfg, lam, geom, state, report.iterations, name, category))
    _emit(lines, out_path)
    return EXIT_OK if all_ok else EXIT_INCOMPLETE


def cmd_scan(cfg: RunConfig, out_path) -> int:
    geoms = [_attempt(_element_geometry, cfg, lam) for lam in cfg.lambdas]  # or design errors
    lines = [ROW_HEADER]
    for lam, geom, roots in zip(cfg.lambdas, geoms,
                                _scan_many(geoms, cfg.polar, cfg.correction, _SCAN_NODES)):
        if isinstance(roots, BemError):
            log.warning("lambda=%g: %s", lam, roots)
            continue
        if not roots.records:
            above = ("" if cfg.correction.is_trivial else
                     f" (it does not look above phi_upper={phi_upper(geom, cfg.polar):g})")
            log.warning("lambda=%g: the scan found no root%s", lam, above)
        lines.extend(_state_row(cfg, lam, geom, rec.state, 0, "scan", rec.category)
                     for rec in roots.records)
    _emit(lines, out_path)
    return EXIT_OK


def cmd_design(cfg: RunConfig, out_path) -> int:
    lines = [DESIGN_HEADER]
    all_ok = True
    mode = "corrected" if cfg.design_mode == "corrected" else "simplified"
    for lam in cfg.lambdas:
        point = _attempt(_designed, cfg, lam)
        if isinstance(point, BemError):
            log.warning("lambda=%g: %s", lam, point)
            lines.append(_row(lam, *[math.nan] * 4, mode, False))
            all_ok = False
            continue
        converged = mode == "simplified" or point.converged
        lines.append(_row(lam, point.gamma, point.chord, point.phi_opt, point.J, mode,
                          converged))
        all_ok = all_ok and converged
    _emit(lines, out_path)
    return EXIT_OK if all_ok else EXIT_INCOMPLETE


def cmd_sweep(cfg: RunConfig, out_path) -> int:
    def design(lam):
        return _element_design(cfg, lam)

    result = cp_sweep(cfg.turbine, cfg.polar, cfg.correction, design,
                      grid_n=cfg.sweep_grid_n)
    lines = [SWEEP_HEADER]
    for elem in result.elements:
        if elem.state is None:
            lines.append(_row(elem.lam, elem.gamma, elem.chord, *[math.nan] * 5, elem.J, False))
            continue
        st = elem.state
        lines.append(_row(elem.lam, elem.gamma, elem.chord, st.phi, st.a, st.a_prime,
                          st.tip_factor, st.residual, elem.J, True))
    summary = [f"Cp={_fmt(result.cp)}"]
    if cfg.sweep_refine:
        fine = cp_sweep(cfg.turbine, cfg.polar, cfg.correction, design,
                        grid_n=2 * cfg.sweep_grid_n)
        summary.append(f"Cp_refined={_fmt(fine.cp)}")
        summary.append(f"Cp_refinement_delta={_fmt(abs(fine.cp - result.cp))}")
    if result.failures:
        summary.append(f"warning: {result.failures} element(s) failed; "
                       "Cp computed with J=0 contributions")
    _emit(lines, out_path)
    for line in summary:
        sys.stdout.write(line + "\n")
    return EXIT_INCOMPLETE if result.failures else EXIT_OK


def cmd_check(cfg: RunConfig, out_path) -> int:
    lines = []
    for lam in cfg.lambdas:
        geom = _attempt(_element_geometry, cfg, lam)
        if isinstance(geom, BemError):
            lines.append(f"lambda={_fmt(lam)} {_verdict('design', False, None, geom)}")
            continue
        ex = check_existence(geom, cfg.polar, cfg.correction)
        if ex.message:  # why a criterion is undecided or not evaluable
            log.warning("lambda=%g: %s", lam, ex.message)
        lines.append(f"lambda={_fmt(lam)} " + " ".join([
            _verdict("interval", ex.interval_ok, "margin", ex.interval_margin),
            _verdict("existence_simplified", ex.simplified_ok, "margin", ex.simplified_margin),
            _verdict("existence_corrected", ex.corrected_ok, "margin", ex.corrected_margin),
            f"upper_is_theta={_fmt(ex.upper_is_theta)}"]))
        ap = check_appendix_conditions(geom, cfg.polar)
        if not ap.applicable:
            lines.append(f"lambda={_fmt(lam)} appendix N/A ({ap.message})")
        else:
            lines.append(f"lambda={_fmt(lam)} appendix " + " ".join([
                _verdict("stability", ap.stability_ok, "margin", ap.stability_margin),
                _verdict("contraction1", ap.contraction1_ok, "value", ap.contraction1_value),
                _verdict("contraction2", ap.contraction2_ok, "value", ap.contraction2_value),
                f"guaranteed={_fmt(ap.guaranteed)}"]))
    _emit(lines, out_path)
    return EXIT_OK


def build_parser():
    parser = argparse.ArgumentParser(prog="bem",
                                     description="Blade element momentum solver")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, desc in [("solve", "solve the flow angle per lambda"),
                       ("scan", "find and classify the roots a grid scan shows, per lambda"),
                       ("design", "twist/chord design per lambda"),
                       ("sweep", "solve a design over a lambda grid and report Cp"),
                       ("check", "existence and convergence condition report")]:
        cmd = sub.add_parser(name, help=desc)
        cmd.add_argument("--config", required=True, help="path to key=value config")
        cmd.add_argument("--out", default=None,
                         help="output file (default: output.path of the config, else stdout)")
        if name == "solve":
            cmd.add_argument("--method", default="all",
                             choices=sorted(METHODS) + ["all"])
        if name in ("solve", "scan", "design"):
            cmd.add_argument("--jobs", type=int, default=1,
                             help="accepted for compatibility; has no effect")
    return parser


_PARSER = build_parser()  # built once: parsing leaves no state in it


def main(argv=None) -> int:
    # the bem log goes once to this call's stderr: a handler of its own, and no
    # propagation to the root logger's handlers, all undone on return
    handler = logging.StreamHandler(sys.stderr)
    handler.setFormatter(logging.Formatter("%(levelname)s %(name)s: %(message)s"))
    level = os.environ.get("BEM_LOG", "warning").upper()
    saved = log.level, log.propagate
    log.setLevel(getattr(logging, level, logging.WARNING))
    log.addHandler(handler)
    log.propagate = False
    try:
        return _run(_PARSER.parse_args(argv))
    finally:
        log.removeHandler(handler)
        log.setLevel(saved[0])
        log.propagate = saved[1]


def _run(args) -> int:
    """The exit code of the subcommand that the parsed ``args`` name."""
    try:
        cfg = parse_config(args.config)
    except ConfigError as exc:
        sys.stderr.write(f"config error: {exc}\n")
        return EXIT_CONFIG

    out = args.out or cfg.output_path
    try:
        if out:
            _check_writable(out)
        if args.command == "solve":
            return cmd_solve(cfg, args.method, out)
        if args.command == "scan":
            return cmd_scan(cfg, out)
        if args.command == "design":
            return cmd_design(cfg, out)
        if args.command == "sweep":
            return cmd_sweep(cfg, out)
        return cmd_check(cfg, out)
    except ConfigError as exc:  # the output file cannot be written
        sys.stderr.write(f"error: {exc}\n")
        return EXIT_CONFIG
    except BemError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return EXIT_INCOMPLETE


if __name__ == "__main__":
    sys.exit(main())
