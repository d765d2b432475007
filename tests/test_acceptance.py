"""Acceptance suite: one test per shipped correctness criterion.

Each test prints a single PASS/FAIL line (bypassing capture) so the suite
doubles as a checklist.  Tolerances are fixed here, not calibrated.
"""

import math
import time
from dataclasses import replace

import numpy as np
import pytest

from glauert_bem import (
    BracketError,
    CorrectionSpec,
    ElementGeometry,
    TurbineConfig,
    J_lambda,
    assemble_adjoint,
    check_appendix_conditions,
    cp_sweep,
    mu_G,
    optimize_element,
    scan_roots,
    simplified_optimum,
    solve_bisection,
    solve_element,
    solve_fixed_point,
    solve_newton,
    solve_usual,
    synthetic_polar,
    tip_loss_factor,
)
from glauert_bem.model import (
    residual,
    tau_nu,
)
from glauert_bem.solvers import METHODS, SolveOptions

from conftest import rng


def report(announce, num, label, ok, detail):
    announce(f"ACCEPTANCE {num:02d} {label}: {'PASS' if ok else 'FAIL'} ({detail})")
    assert ok, f"criterion {num} {label}: {detail}"


def _golden_max(fn, lo, hi, tol=1e-12):
    g = (math.sqrt(5.0) - 1.0) / 2.0
    x1, x2 = hi - g * (hi - lo), lo + g * (hi - lo)
    f1, f2 = fn(x1), fn(x2)
    while hi - lo > tol:
        if f1 >= f2:
            hi, x2, f2 = x2, x1, f1
            x1 = hi - g * (hi - lo)
            f1 = fn(x1)
        else:
            lo, x1, f1 = x1, x2, f2
            x2 = lo + g * (hi - lo)
            f2 = fn(x2)
    return 0.5 * (lo + hi)


def test_criterion_01_simplified_optimum_identity(announce):
    """Numeric maximization of the power kernel lands on 2 theta / 3."""
    t0 = time.perf_counter()
    gen = rng(101)
    worst = 0.0
    for _ in range(50):
        theta = gen.uniform(0.05, 1.5)
        found = _golden_max(
            lambda p: math.sin(p) ** 2 * math.sin(2.0 * (theta - p)), 1e-9, theta)
        worst = max(worst, abs(found - 2.0 * theta / 3.0))
    elapsed = time.perf_counter() - t0
    report(announce, 1, "simplified-optimum angle identity",
           worst < 1e-8 and elapsed < 1.0,
           f"max deviation {worst:.2e}, {elapsed:.2f} s")


def _system_violation(geom, polar, corr, state):
    """Max violation of the three flow equations at a recovered state; the
    tip factor and the polar are evaluated here, apart from the kernel."""
    phi, a, ap = state.phi, state.a, state.a_prime
    s, c = math.sin(phi), math.cos(phi)
    f = tip_loss_factor(geom, phi) if corr.tip_loss else 1.0
    quarter = 0.25 * geom.solidity / f
    lift = quarter * polar.cl(phi - geom.gamma)
    drag = quarter * polar.cd(phi - geom.gamma)
    eq1 = math.tan(phi) * geom.lam * (1.0 + ap) - (1.0 - a)
    eq2 = (a / (1.0 - a) - (lift * c + drag * s) / (s * s)
           + corr.psi(a - corr.a_c, f) / (1.0 - a) ** 2)
    eq3 = ap / (1.0 - a) - (lift * s - drag * c) / (geom.lam * s * s)
    return max(abs(eq1), abs(eq2), abs(eq3))


def _random_setup(gen):
    variant = gen.choice(["none", "glauert3", "glauert_empirical", "buhl",
                          "wilson_spera"])
    tip = bool(gen.random() < 0.4)
    polar = synthetic_polar("linear_lift", slope=float(gen.uniform(4.0, 8.0)),
                            cd0=float(gen.uniform(0.0, 0.05)),
                            cd2=float(gen.choice([0.0, 0.3])), beta=0.4)
    geom = ElementGeometry(lam=float(gen.uniform(0.6, 4.0)),
                           r=float(gen.uniform(0.3, 0.95)),
                           gamma=float(gen.uniform(-0.1, 0.3)),
                           chord=float(gen.uniform(0.05, 0.6)),
                           blade_count=3, tip_radius=1.0)
    corr = CorrectionSpec(variant=variant, tip_loss=tip)
    return geom, polar, corr


def test_criterion_02_reformulation_equivalence(announce):
    """Scalar-equation roots solve the original system and vice versa."""
    gen = rng(102)
    worst_fwd = 0.0
    worst_rev = 0.0
    checked = 0
    configs = 0
    while configs < 200:
        geom, polar, corr = _random_setup(gen)
        try:
            roots = scan_roots(geom, polar, corr, grid_size=160)
        except Exception:
            continue
        configs += 1
        for rec in roots.records:
            worst_fwd = max(worst_fwd, _system_violation(geom, polar, corr, rec.state))
            checked += 1
        rep = solve_usual(geom, polar, corr, SolveOptions(max_iter=300))
        if rep.converged:
            worst_rev = max(worst_rev, abs(residual(geom, polar, corr, rep.phi_star)))
    ok = worst_fwd < 1e-8 and worst_rev < 1e-8 and checked >= 100
    report(announce, 2, "reformulation equivalence",
           ok, f"{configs} configs, {checked} roots, "
               f"max system violation {worst_fwd:.2e}, "
               f"max fixed-point residual {worst_rev:.2e}")


def test_criterion_03_solver_agreement(announce):
    """All four methods agree at 1e-8 on mutually convergent cases."""
    polar = synthetic_polar("linear_lift", slope=2 * math.pi, cd0=0.01, cd2=0.3,
                            beta=0.4)
    turbine = TurbineConfig(radius=1.2, upstream_speed=1.0, rotation_speed=3.0,
                            lambda_min=0.8, lambda_max=3.0)
    worst_spread = 0.0
    worst_residual = 0.0
    mutual = 0
    for a_c in (1.0 / 3.0, 1.0):
        corr = CorrectionSpec(variant="wilson_spera", a_c=a_c, tip_loss=True)
        for lam in np.linspace(0.8, 2.9, 30):
            point = simplified_optimum(float(lam), polar, turbine)
            geom = ElementGeometry.from_turbine(turbine, float(lam),
                                                point.gamma, point.chord)
            phis = []
            for method in METHODS.values():
                try:
                    rep = method(geom, polar, corr)
                except BracketError:
                    continue
                if rep.converged:
                    phis.append(rep.phi_star)
                    worst_residual = max(worst_residual, abs(rep.state.residual))
            if len(phis) == len(METHODS):
                mutual += 1
                worst_spread = max(worst_spread, max(phis) - min(phis))
    ok = worst_spread < 1e-8 and worst_residual <= 1e-10 and mutual >= 30
    report(announce, 3, "solver agreement",
           ok, f"{mutual}/60 mutually convergent, spread {worst_spread:.2e}, "
               f"max residual {worst_residual:.2e}")


def test_criterion_04_monotone_fixed_point(announce):
    """Damped fixed point decreases monotonically to the largest root."""
    polar = synthetic_polar("linear_lift", slope=2 * math.pi, cd0=0.01, beta=0.4)
    geom = ElementGeometry(lam=1.75, r=1.0, gamma=0.15, chord=0.3)
    corr = CorrectionSpec(variant="none")
    largest = max(r.phi for r in scan_roots(geom, polar, corr).records)
    ok = True
    details = []
    for eps in (0.25, 0.5, 1.0):
        rep = solve_fixed_point(geom, polar, corr, SolveOptions(epsilon=eps))
        phis = rep.phi_history
        monotone = all(b <= a + 1e-12 for a, b in zip(phis, phis[1:]))
        dist = abs(rep.phi_star - largest)
        ok = ok and rep.converged and monotone and phis[0] == geom.theta and dist < 1e-8
        details.append(f"eps={eps}: {rep.iterations} its, dist {dist:.1e}")
    report(announce, 4, "monotone fixed-point convergence", ok, "; ".join(details))


def _decay_slope(geom, polar, corr):
    phis = np.logspace(-6, -4, 25)
    nus = [tau_nu(geom, polar, corr, float(p)) for p in phis]
    return float(np.polyfit(np.log(phis), np.log(nus), 1)[0])


def test_criterion_05_small_angle_decay_exponents(announce):
    """1 - tau(phi) ~ c_D phi^1.5 with drag and ~ c phi drag-free (Wilson/Spera).

    With nu = 1 - a, the axial balance that ``tau`` solves is

        (1 - nu)/nu + w(phi) psi(1 - a_c - nu)/nu^2 = g(phi),
        w(phi) = sin(theta) sin(phi)/cos(theta - phi) ~ tan(theta) phi.

    The weight w is what the README's thrust balance becomes once the
    scalar residual identity is substituted into it (criterion 02 checks
    that the reformulation still solves the original equations).  As
    phi -> 0, nu -> 0 and psi -> P = psi(1 - a_c).  Multiplying by nu^2:

    * drag-free, g ~ tan(theta)/phi: every term is O(phi) when nu = c phi,
      and dominant balance gives tan(theta) c^2 - c - tan(theta) P = 0,
      c = (1 + sqrt(1 + 4 tan^2(theta) P)) / (2 tan(theta)); exponent 1,
      relative correction O(phi).
    * with drag, g ~ mu_D(0) tan(theta)/phi^2: the nu term drops out of
      the leading balance, mu_D(0) nu^2 = P phi^3, so
      c_D = sqrt(P / mu_D(0)) and the exponent is 1.5, with a relative
      correction O(sqrt(phi)) (about 0.007 at phi = 1e-6).

    If w ~ phi^p, the drag exponent is 1 + p/2 and the drag-free one
    (1 + p)/2, so the two always differ by 1/2: the pair (1.5, 0.5) once
    stated here cannot hold together for any weight.  PAPER.md carries
    only the abstract and does not say where 0.5 came from; the README's
    equations govern, and they force exponent 1.  Both constants below
    are written out from the element's data, not read from the program.
    """
    t0 = time.perf_counter()
    corr = CorrectionSpec(variant="wilson_spera")
    cd0 = 0.3
    withdrag = synthetic_polar("linear_lift", slope=2 * math.pi, cd0=cd0, beta=0.4)
    dragfree = synthetic_polar("linear_lift", slope=2 * math.pi, cd0=0.0, beta=0.4)
    geom = ElementGeometry(lam=1.75, r=1.0, gamma=0.0, chord=1.0)
    slope_drag = _decay_slope(geom, withdrag, corr)
    slope_free = _decay_slope(geom, dragfree, corr)

    tan_theta = 1.0 / 1.75                # 1/lambda
    big_p = (1.0 - 1.0 / 3.0) ** 2        # psi(1 - a_c) = (1 - a_c)^2
    sigma = 3 * 1.0 / (2 * math.pi * 1.0)  # B chord / (2 pi r)
    mu_d0 = 0.25 * sigma * cd0            # (sigma/4) C_D(0 - gamma)
    c_free = (1.0 + math.sqrt(1.0 + 4.0 * tan_theta ** 2 * big_p)) / (2.0 * tan_theta)
    c_drag = math.sqrt(big_p / mu_d0)
    phi = 1e-6
    ratio_free = tau_nu(geom, dragfree, corr, phi) / (c_free * phi)
    ratio_drag = tau_nu(geom, withdrag, corr, phi) / (c_drag * phi ** 1.5)
    elapsed = time.perf_counter() - t0

    ok_drag = abs(slope_drag - 1.5) <= 0.05 and abs(ratio_drag - 1.0) <= 0.02
    ok_free = abs(slope_free - 1.0) <= 0.05 and abs(ratio_free - 1.0) <= 1e-4
    ok = ok_drag and ok_free and elapsed < 1.0
    report(announce, 5, "small-angle decay exponents", ok,
           f"drag slope {slope_drag:.3f} (target 1.5+-0.05), "
           f"nu/(c_D phi^1.5) {ratio_drag:.4f} (c_D {c_drag:.5f}); "
           f"drag-free slope {slope_free:.3f} (target 1+-0.05), "
           f"nu/(c phi) {ratio_free:.7f} (c {c_free:.5f}); {elapsed:.2f} s")


def test_criterion_06_adjoint_gradient(announce):
    """Adjoint gradient equals re-solved central differences to 1e-5."""
    gen = rng(106)
    worst = 0.0
    accepted = 0
    attempts = 0
    while accepted < 20 and attempts < 400:
        attempts += 1
        polar = synthetic_polar("linear_lift", slope=2 * math.pi,
                                cd0=float(gen.uniform(0.01, 0.03)),
                                cd2=float(gen.uniform(0.05, 0.4)), beta=0.4)
        tip = bool(gen.random() < 0.5)
        corr = CorrectionSpec(variant="wilson_spera", tip_loss=tip)
        geom = ElementGeometry(lam=float(gen.uniform(1.0, 3.0)),
                               r=float(gen.uniform(0.5, 0.9)),
                               gamma=float(gen.uniform(0.0, 0.15)),
                               chord=float(gen.uniform(0.1, 0.7)),
                               blade_count=3, tip_radius=1.0)
        try:
            roots = scan_roots(geom, polar, corr, grid_size=200)
        except Exception:
            continue
        if len(roots.records) != 1:
            continue  # locally unique solve required
        state = roots.records[0].state
        if abs(state.a - corr.a_c) < 0.02:
            continue  # keep away from the non-differentiable threshold
        adj = assemble_adjoint(geom, polar, corr, state)
        if float(np.hypot(*adj.grad)) < 1e-3:
            continue  # relative comparison needs a nonzero gradient
        h = 1e-6
        fd = []
        for name in ("gamma", "chord"):
            vals = []
            for sign in (+1.0, -1.0):
                shifted = replace(geom, **{name: getattr(geom, name) + sign * h})
                st = solve_element(shifted, polar, corr, phi_hint=state.phi)
                vals.append(J_lambda(shifted, polar, corr, st))
            fd.append((vals[0] - vals[1]) / (2.0 * h))
        rel = np.abs(adj.grad - np.asarray(fd)) / np.maximum(np.abs(fd), 1e-12)
        worst = max(worst, float(rel.max()))
        accepted += 1
    ok = accepted == 20 and worst <= 1e-5
    report(announce, 6, "adjoint gradient vs finite differences", ok,
           f"{accepted} points, worst relative error {worst:.2e}")


def test_criterion_07_optimizer_improves_cp(announce):
    """Gradient ascent from the simplified optimum does not lose power."""
    polar = synthetic_polar("linear_lift", slope=2 * math.pi, cd0=0.01, cd2=0.3,
                            beta=0.4)
    turbine = TurbineConfig(radius=1.2, upstream_speed=1.0, rotation_speed=3.0,
                            lambda_min=1.2, lambda_max=2.6)
    corr = CorrectionSpec(variant="wilson_spera", tip_loss=True)
    grid_n = 6
    lambdas = np.linspace(turbine.lambda_min, turbine.lambda_max, grid_n)
    base, tuned = {}, {}
    improved = 0
    for lam in lambdas:
        point = simplified_optimum(float(lam), polar, turbine)
        base[float(lam)] = (point.gamma, point.chord)
        geom = ElementGeometry.from_turbine(turbine, float(lam),
                                            point.gamma, point.chord)
        result = optimize_element(geom, polar, corr, step=0.25, tol=2e-4,
                                  max_steps=400, lambda_max=turbine.lambda_max)
        tuned[float(lam)] = (result.gamma, result.chord)
        improved += result.accepted_steps > 0
    cp0 = cp_sweep(turbine, polar, corr, lambda l: base[float(l)], grid_n).cp
    cp1 = cp_sweep(turbine, polar, corr, lambda l: tuned[float(l)], grid_n).cp
    ok = cp1 >= cp0 and cp1 > cp0 and improved > 0
    report(announce, 7, "optimizer improves the power coefficient", ok,
           f"Cp {cp0:.6f} -> {cp1:.6f} (+{100 * (cp1 - cp0) / cp0:.2f}%), "
           f"{improved}/{grid_n} elements moved")


def test_criterion_08_multiplicity_taxonomy(announce):
    """Constructed cases produce the three extra-root categories."""
    details = []
    # category 1: affine lift through zero with positive twist
    dragfree = synthetic_polar("linear_lift", slope=2 * math.pi, cd0=0.0, beta=0.4)
    geom1 = ElementGeometry(lam=1.75, r=1.0, gamma=0.15, chord=0.3)
    cats1 = scan_roots(geom1, dragfree, CorrectionSpec()).categories
    ok1 = cats1.count("negative_lift_branch") == 1 and "principal" in cats1
    details.append(f"cat1 {cats1}")

    # category 2: lift drop past stall adds roots at alpha >= alpha_s
    stall = synthetic_polar("linear_lift_with_stall", slope=6.0, alpha_s=0.3,
                            drop=0.5, transition=0.05, cd0=0.012, cd2=0.1)
    geom2 = ElementGeometry(lam=1.0, r=1.0, gamma=0.1, chord=0.8)
    cats2 = scan_roots(geom2, stall, CorrectionSpec()).categories
    ok2 = "stall_branch" in cats2 and "principal" in cats2
    details.append(f"cat2 {cats2}")

    # category 3: high-induction correction creates an extra root near 0
    const = synthetic_polar("constant", level=1.0, cd0=0.01, beta=0.8)
    geom3 = ElementGeometry(lam=2.4, r=1.0, gamma=0.0, chord=0.3058)
    corr3 = CorrectionSpec(variant="wilson_spera", a_c=0.7)
    with_corr = scan_roots(geom3, const, corr3, grid_size=500)
    without = scan_roots(geom3, const, CorrectionSpec(), grid_size=500)
    ok3 = ("correction_branch" in with_corr.categories
           and len(with_corr.records) == len(without.records) + 1)
    details.append(f"cat3 {with_corr.categories} vs plain {without.categories}")

    report(announce, 8, "multiplicity taxonomy", ok1 and ok2 and ok3,
           "; ".join(details))


def test_criterion_09_bisection_contract(announce):
    """Exact width halving and the same-sign abort."""
    polar = synthetic_polar("linear_lift", slope=2 * math.pi, cd0=0.01, beta=0.4)
    geom = ElementGeometry(lam=1.75, r=1.0, gamma=0.05, chord=0.3)
    corr = CorrectionSpec(variant="wilson_spera")
    rep = solve_bisection(geom, polar, corr)
    w0 = geom.theta - 1e-4
    halving = all(w == w0 * 0.5 ** k
                  for k, w in enumerate(rep.native_err_history, start=1))
    try:
        solve_bisection(geom, polar, corr, SolveOptions(bracket_lo=geom.theta - 0.02,
                                                        bracket_hi=geom.theta - 0.01))
        aborted = False
    except BracketError as exc:
        aborted = "wrong initial guess" in str(exc)
    ok = rep.converged and halving and aborted
    report(announce, 9, "bisection contract", ok,
           f"{rep.iterations} iterations, exact halving {halving}, "
           f"same-sign abort {aborted}")


def test_criterion_10_appendix_guarantee(announce):
    """Condition-passing case converges from 20 starts; violating case noted."""
    polar = synthetic_polar("linear_lift", slope=2 * math.pi, cd0=0.0, beta=0.5)
    corr = CorrectionSpec()
    good = ElementGeometry(lam=1.0, r=1.0, gamma=0.35, chord=0.0628)
    rep = check_appendix_conditions(good, polar)
    gen = rng(110)
    good_fail = 0
    for phi0 in gen.uniform(good.gamma, good.theta, size=20):
        r = solve_usual(good, polar, corr, SolveOptions(phi0=float(phi0)))
        good_fail += not r.converged
    ok = rep.guaranteed and good_fail == 0

    bad = ElementGeometry(lam=1.0, r=1.0, gamma=0.35, chord=2.0)
    bad_rep = check_appendix_conditions(bad, polar)
    bad_fail = 0
    for phi0 in gen.uniform(bad.gamma, bad.theta, size=20):
        r = solve_usual(bad, polar, corr, SolveOptions(phi0=float(phi0), max_iter=800))
        bad_fail += not r.converged
    # expected-instability evidence: documented, not asserted as must-fail
    report(announce, 10, "guaranteed-convergence conditions", ok,
           f"passing case 20/20 converged; violating case "
           f"(contraction values {bad_rep.contraction1_value:.1f}, "
           f"{bad_rep.contraction2_value:.1f}) saw {bad_fail}/20 non-convergent starts")
