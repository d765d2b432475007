"""Correctness gate: invariants on every seed, reference on the default seed.

Invariants (every seed):

* a converged solve has ``|state.residual| <= 1e-10``;
* at the returned ``(phi, a, a')`` the three original BEM equations hold.
  Scan roots are polished to machine precision and must meet 1e-8 (the
  bound of acceptance criterion 02).  A solver stops at
  ``|residual| <= 1e-10``, and the equations divide that residual by
  ``sin^2(phi)``, so solver states must meet
  ``max(1e-8, 2e-10 / sin^2(phi))``: looser than 1e-8 only below
  ``sin^2(phi) = 0.02``, with a factor of 2 over the observed
  ``violation * sin^2(phi) / 1e-10`` of at most about 1.0;
* a ``BracketError`` from bisection means the residual really has the same
  sign at both ends of the default bracket;
* an optimized design never has lower ``J`` than its start (criterion 07),
  and its reported ``J`` is the power density of a root at that design;
* a converged optimization stopped where the gradient of its objective,
  taken by central differences and so independent of the adjoint, is at
  most 1.01 times the optimizer's ``tol``;
* CLI exit codes agree with the rows they wrote.

On the default seed the outputs are also compared with the reference
committed under ``reference/``: root counts and categories exactly, ``phi``
to 1e-8 (criterion 03), ``Cp`` and ``Cp_refined`` to 1e-8, CLI exit codes
exactly, and a unit that converged in the reference must still converge.
An optimized design must also reach the reference ``J`` to a relative
1e-6 (it may exceed it): a wrong gradient that stops the optimizer early
would otherwise pass as a fast, converged run.
"""

from __future__ import annotations

import json
import math
from pathlib import Path

from .workloads import DESIGN_SETTINGS, ROOT_CATEGORIES, SOLVER_KINDS

RESIDUAL_TOL = 1e-10
EQUATION_TOL = 1e-8
PHI_TOL = 1e-8
CP_TOL = 1e-8
J_REL_TOL = 1e-6
STATE_SLACK = 2.0  # solver states: violation * sin^2(phi) <= STATE_SLACK * RESIDUAL_TOL
GRAD_SLACK = 1.01  # converged designs: |finite-difference gradient| <= GRAD_SLACK * tol
FD_STEP = 1e-6     # relative to 1 for gamma and to the chord for the chord
DEFAULT_SEED = 1
REFERENCE_DIR = Path(__file__).resolve().parent.parent / "reference"
START_CHECK_EVERY = 10  # blade_design units whose start J is recomputed
CLI_FAILURE_ROWS = ("not_converged", "wrong_initial_guess", "solver_error", "design_failed")


def equation_violation(bem, geom, polar, corr, phi, a, a_prime):
    """Largest residual of the three original flow equations at (phi, a, a')."""
    s, c = math.sin(phi), math.cos(phi)
    f = bem.tip_loss_factor(geom, phi) if corr.tip_loss else 1.0
    quarter = 0.25 * geom.solidity / f
    lift = quarter * polar.cl(phi - geom.gamma)
    drag = quarter * polar.cd(phi - geom.gamma)
    eq1 = math.tan(phi) * geom.lam * (1.0 + a_prime) - (1.0 - a)
    eq2 = (a / (1.0 - a) - (lift * c + drag * s) / (s * s)
           + corr.psi(a - corr.a_c, f) / (1.0 - a) ** 2)
    eq3 = a_prime / (1.0 - a) - (lift * s - drag * c) / (geom.lam * s * s)
    return max(abs(eq1), abs(eq2), abs(eq3))


def state_bound(phi):
    """Bound on the flow-equation violation of a state with |residual| <= 1e-10."""
    return max(EQUATION_TOL, STATE_SLACK * RESIDUAL_TOL / math.sin(phi) ** 2)


def _check_root(bem, geom, polar, corr, phi, a, a_prime, residual, bound, what):
    errors = []
    if not (math.isfinite(residual) and abs(residual) <= RESIDUAL_TOL):
        errors.append(f"{what}: |residual| = {residual!r} > {RESIDUAL_TOL}")
    viol = equation_violation(bem, geom, polar, corr, phi, a, a_prime)
    if not viol <= bound:
        errors.append(f"{what}: flow equations violated by {viol:.3e} > {bound:.3e}")
    return errors


# ---------------------------------------------------------------------------
# invariants


def check_element(inp, unit, out):
    bem = inp.bem
    geom, polar, corr = inp.items[unit.item]
    what = f"unit {unit.uid} ({unit.kind})"
    if out["raised"] is not None:
        if unit.kind == "bisect" and out["raised"] == "BracketError":
            lo, hi = 1e-4, geom.theta
            if (bem.residual(geom, polar, corr, lo) < 0.0) != (
                    bem.residual(geom, polar, corr, hi) < 0.0):
                return [f"{what}: BracketError although the bracket changes sign"]
        return []
    if unit.kind == "scan":
        errors, last = [], -math.inf
        for phi, category, a, a_prime, _, residual in out["roots"]:
            if category not in ROOT_CATEGORIES:
                errors.append(f"{what}: unknown root category {category!r}")
            if not phi > last:
                errors.append(f"{what}: roots not strictly increasing")
            last = phi
            errors += _check_root(bem, geom, polar, corr, phi, a, a_prime, residual,
                                  EQUATION_TOL, f"{what} root {phi!r}")
        return errors
    if not out["converged"]:
        return []
    if out["state"] is None or out["category"] not in ROOT_CATEGORIES:
        return [f"{what}: converged without a classified state"]
    phi, a, a_prime, _, residual = out["state"]
    return _check_root(bem, geom, polar, corr, phi, a, a_prime, residual,
                       state_bound(phi), what)


def check_design(inp, unit, out):
    bem = inp.bem
    geom, polar, corr = inp.items[unit.item]
    what = f"unit {unit.uid} (optimize)"
    if out["raised"] is not None:
        return []
    errors = []
    if not out["J"] >= out["J_start"]:
        errors.append(f"{what}: J {out['J']!r} below its start {out['J_start']!r}")
    if unit.uid % START_CHECK_EVERY == 0:  # the start objective, computed independently
        state = bem.solve_element(geom, polar, corr)
        j0 = bem.J_lambda(geom, polar, corr, state)
        if not abs(j0 - out["J_start"]) <= 1e-12 * max(1.0, abs(j0)):
            errors.append(f"{what}: start J {out['J_start']!r} is not J at the start ({j0!r})")
    if not (out["chord"] > 0.0 and abs(out["gamma"]) < math.pi / 2.0):
        return errors + [f"{what}: design outside its domain"]
    best = bem.ElementGeometry(lam=geom.lam, r=geom.r, gamma=out["gamma"], chord=out["chord"],
                               blade_count=geom.blade_count, tip_radius=geom.tip_radius)
    state = bem.recover_induction(best, polar, corr, out["phi"])
    errors += _check_root(bem, best, polar, corr, state.phi, state.a, state.a_prime,
                          state.residual, state_bound(state.phi), what)
    j = bem.J_lambda(best, polar, corr, state)
    if not abs(j - out["J"]) <= 1e-12 * max(1.0, abs(j)):
        errors.append(f"{what}: reported J {out['J']!r} is not J at its design ({j!r})")
    if out["converged"]:
        grad = fd_gradient(bem, best, polar, corr, out["phi"], inp.extra["lambda_max"])
        if grad is not None and not grad <= GRAD_SLACK * DESIGN_SETTINGS["tol"]:
            errors.append(f"{what}: converged, but the objective's gradient there is "
                          f"{grad:.3e} > {GRAD_SLACK} * tol")
    return errors


def fd_gradient(bem, geom, polar, corr, phi, lambda_max):
    """Norm of the central-difference gradient of the optimizer's objective
    (J scaled as in ``optimize_element``) over (gamma, chord) at ``geom``,
    following the root near ``phi``; None where a neighbour is unsolvable."""
    scale = 8.0 * geom.lam ** 3 / lambda_max ** 2

    def objective(gamma, chord):
        trial = bem.ElementGeometry(lam=geom.lam, r=geom.r, gamma=gamma, chord=chord,
                                    blade_count=geom.blade_count,
                                    tip_radius=geom.tip_radius)
        return scale * bem.J_lambda(trial, polar, corr,
                                    bem.solve_element(trial, polar, corr, phi_hint=phi))

    h_gamma, h_chord = FD_STEP, FD_STEP * geom.chord
    try:
        d_gamma = (objective(geom.gamma + h_gamma, geom.chord)
                   - objective(geom.gamma - h_gamma, geom.chord)) / (2.0 * h_gamma)
        d_chord = (objective(geom.gamma, geom.chord + h_chord)
                   - objective(geom.gamma, geom.chord - h_chord)) / (2.0 * h_chord)
    except bem.BemError:
        return None
    return math.hypot(d_gamma, d_chord)


def check_cli(inp, unit, out):
    _, n_lambda, grid_n = inp.items[unit.item]
    what = f"unit {unit.uid} ({unit.kind} on rotor {unit.item})"
    code, rows = out["exit"], out["rows"]
    if code not in (0, 1):
        return [f"{what}: exit code {code}"]
    if not out["written"]:
        # main() caught a BemError before any output: a failed unit, nothing to check
        return [] if code == 1 else [f"{what}: exit code 0 without output"]
    errors = []
    all_ok = True
    if unit.kind in ("solve", "scan"):
        for lam, method, category, phi, residual in rows:
            if category in ROOT_CATEGORIES:
                if not (math.isfinite(phi) and abs(residual) <= RESIDUAL_TOL):
                    errors.append(f"{what}: root row at lambda={lam!r} has residual "
                                  f"{residual!r}")
            elif unit.kind == "solve" and category in CLI_FAILURE_ROWS:
                all_ok = False
            else:
                errors.append(f"{what}: unexpected category {category!r}")
        if unit.kind == "solve":
            per_lambda = {}
            for row in rows:
                per_lambda.setdefault(row[0], []).append(row[1])
            if len(per_lambda) != n_lambda or any(
                    sorted(m) != sorted(SOLVER_KINDS) for m in per_lambda.values()
                    if m != ["design"]):
                errors.append(f"{what}: expected one row per method and lambda")
    elif unit.kind == "design":
        all_ok = all(row[3] == "true" for row in rows)
        if len(rows) != n_lambda:
            errors.append(f"{what}: {len(rows)} design rows for {n_lambda} lambdas")
    elif unit.kind == "sweep":
        all_ok = all(ok == "true" for _, ok, _ in rows)
        if len(rows) != grid_n:
            errors.append(f"{what}: {len(rows)} sweep rows for grid_n={grid_n}")
        for lam, ok, residual in rows:
            if ok == "true" and not abs(residual) <= RESIDUAL_TOL:
                errors.append(f"{what}: sweep element lambda={lam!r} residual {residual!r}")
        for key in ("Cp", "Cp_refined"):
            if not math.isfinite(out["summary"].get(key, math.nan)):
                errors.append(f"{what}: missing or non-finite {key}")
    else:
        if sum(1 for row in rows if "interval" in row) != n_lambda:
            errors.append(f"{what}: expected one existence line per lambda")
    if (code == 0) != all_ok:
        errors.append(f"{what}: exit code {code} disagrees with its rows")
    return errors


CHECKS = {"element_solve": check_element, "blade_design": check_design,
          "rotor_cli": check_cli}


# ---------------------------------------------------------------------------
# reference comparison


def _close(a, b, tol):
    if isinstance(a, float) and isinstance(b, float) and math.isnan(a) and math.isnan(b):
        return True
    return abs(a - b) <= tol


def compare_element(kind, ref, got):
    if ref["raised"] != got["raised"]:
        return [f"raised {got['raised']!r}, reference {ref['raised']!r}"]
    if ref["raised"] is not None:
        return []
    if kind == "scan":
        cats, ref_cats = [r[1] for r in got["roots"]], [r[1] for r in ref["roots"]]
        if cats != ref_cats:
            return [f"roots {cats}, reference {ref_cats}"]
        return [f"root phi {g[0]!r}, reference {r[0]!r}"
                for g, r in zip(got["roots"], ref["roots"]) if not _close(g[0], r[0], PHI_TOL)]
    if not ref["converged"]:
        return []
    if not got["converged"]:
        return ["no longer converges"]
    errors = []
    if got["category"] != ref["category"]:
        errors.append(f"category {got['category']!r}, reference {ref['category']!r}")
    if not _close(got["phi"], ref["phi"], PHI_TOL):
        errors.append(f"phi {got['phi']!r}, reference {ref['phi']!r}")
    return errors


def compare_design(kind, ref, got):
    if ref["raised"] != got["raised"]:
        return [f"raised {got['raised']!r}, reference {ref['raised']!r}"]
    if ref["raised"] is not None:
        return []
    errors = []
    if ref["converged"] and not got["converged"]:
        errors.append("optimizer no longer converges")
    if not got["J"] >= ref["J"] - J_REL_TOL * abs(ref["J"]):
        errors.append(f"J {got['J']!r} below the reference {ref['J']!r}")
    return errors


def compare_cli(kind, ref, got):
    if ref["exit"] != got["exit"]:
        return [f"exit code {got['exit']}, reference {ref['exit']}"]
    if len(ref["rows"]) != len(got["rows"]):
        return [f"{len(got['rows'])} rows, reference {len(ref['rows'])}"]
    errors = []
    for r, g in zip(ref["rows"], got["rows"]):
        if kind in ("solve", "scan"):
            same = (r[:3] == g[:3]) and _close(g[3], r[3], PHI_TOL)
        elif kind == "design":
            same = r[0] == g[0] and r[3] == g[3] and all(
                _close(g[k], r[k], PHI_TOL) for k in (1, 2))
        elif kind == "sweep":
            same = r[:2] == g[:2]
        else:
            same = r == g
        if not same:
            errors.append(f"row {g}, reference {r}")
    for key, value in ref["summary"].items():
        if not _close(got["summary"].get(key, math.nan), value, CP_TOL):
            errors.append(f"{key} {got['summary'].get(key)!r}, reference {value!r}")
    return errors


COMPARES = {"element_solve": compare_element, "blade_design": compare_design,
            "rotor_cli": compare_cli}


def reference_path(workload):
    return REFERENCE_DIR / f"{workload}.json"


def load_reference(workload):
    with open(reference_path(workload)) as handle:
        data = json.load(handle)
    return {int(uid): out for uid, out in data["units"].items()}


def check_outputs(workload, inp, outputs, seed):
    """Gate a run: ``outputs`` maps uid -> canonical output.  Returns errors."""
    units = {u.uid: u for u in inp.units}
    errors = []
    for uid, out in outputs.items():
        errors += CHECKS[workload](inp, units[uid], out)
    if seed == DEFAULT_SEED:
        reference = load_reference(workload)
        compare = COMPARES[workload]
        for uid, out in outputs.items():
            if uid not in reference:
                errors.append(f"unit {uid}: missing from the reference")
                continue
            errors += [f"unit {uid} ({units[uid].kind}): {e}"
                       for e in compare(units[uid].kind, reference[uid], out)]
    return errors
