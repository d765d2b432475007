import math
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from scipy.optimize import brentq

from glauert_bem import solvers
from glauert_bem import (
    BemError,
    BracketError,
    CorrectionSpec,
    DomainError,
    ElementGeometry,
    FlowState,
    HypothesisError,
    PolarTable,
    TurbineConfig,
    ValidationError,
    bracket_via_psi0,
    check_appendix_conditions,
    check_existence,
    mu_G,
    residual,
    scan_roots,
    solve_bisection,
    solve_fixed_point,
    solve_newton,
    solve_usual,
    load_polar,
    synthetic_polar,
)
from glauert_bem.model import (
    CORRECTION_VARIANTS,
    _residual_grid,
    mu_G_prime,
    mu_L,
    phi_upper,
    recover_induction,
)
from glauert_bem.design import simplified_optimum, solve_element
from glauert_bem.solvers import (
    METHODS,
    SolveOptions,
    _brentq,
    _residual_safe,
    _scan_domain,
    _scan_many,
    classify_root,
    fixed_point_rate_bound,
    grid_I_plus,
)

from conftest import make_geom, rng, trivial, wilson


def test_solve_options_validation():
    with pytest.raises(ValidationError):
        SolveOptions(tol=0.0)
    with pytest.raises(ValidationError):
        SolveOptions(epsilon=1.5)
    with pytest.raises(ValidationError):
        SolveOptions(bracket_lo=0.5, bracket_hi=0.1)


@pytest.mark.parametrize("field", ["tol", "phi_tol", "phi0", "bracket_lo", "bracket_hi"])
@pytest.mark.parametrize("value", [math.nan, math.inf])
def test_solve_options_reject_non_finite_numbers(field, value):
    # a NaN tolerance would never stop an iteration
    with pytest.raises(ValidationError):
        SolveOptions(**{field: value})


def test_solve_options_reject_a_zero_iteration_limit():
    with pytest.raises(ValidationError) as info:
        SolveOptions(max_iter=0)
    assert type(info.value) is ValidationError and str(info.value) == (
        "max_iter must be an integer >= 1")


def test_solve_options_reject_a_nan_iteration_limit_and_take_numpy_ints():
    # NaN passed a `max_iter < 1` check, and no iteration count ever equals it;
    # an infinite or fractional cap is no count either
    for value in (math.nan, math.inf, -math.inf, 2.5, 0, np.float64(1.5)):
        with pytest.raises(ValidationError) as info:
            SolveOptions(max_iter=value)
        assert type(info.value) is ValidationError and str(info.value) == (
            "max_iter must be an integer >= 1")
    for value in (np.int64(3), np.int32(3), 3.0, np.float64(3.0)):
        max_iter = SolveOptions(max_iter=value).max_iter
        assert type(max_iter) is int and max_iter == 3
    assert SolveOptions(max_iter=3.0) == SolveOptions(max_iter=3)


def test_an_endless_usual_solve_is_refused_before_it_starts():
    # the plain model's usual procedure from theta does not converge on this
    # element (the simplified optimum at lambda 0.5, its chord doubled): it runs
    # to any finite cap, and an infinite cap once let it run without end
    polar = load_polar(Path(__file__).resolve().parents[1] / "demo" / "polar.csv")
    tb = TurbineConfig(radius=1.1, upstream_speed=1.0, rotation_speed=3.0, lambda_min=0.3)
    start = simplified_optimum(0.5, polar, tb)
    geom = ElementGeometry.from_turbine(tb, 0.5, start.gamma, 2.0 * start.chord)
    report = solve_usual(geom, polar, CorrectionSpec("none"), SolveOptions(max_iter=2000))
    assert (report.converged, report.iterations, report.message) == (
        False, 2000, "max_iter reached")
    with pytest.raises(ValidationError, match="^max_iter must be an integer >= 1$"):
        SolveOptions(max_iter=math.inf)


# ---------------------------------------------------------------------------
# usual procedure


def test_usual_first_iterate_is_theta(linear_polar):
    geom = make_geom(gamma=0.05)
    report = solve_usual(geom, linear_polar, wilson(), SolveOptions(max_iter=1))
    assert abs(report.phi_history[0] - geom.theta) < 1e-15


def test_usual_converges_on_guaranteed_case():
    polar = synthetic_polar("linear_lift", slope=2 * math.pi, cd0=0.0, beta=0.5)
    geom = ElementGeometry(lam=1.0, r=1.0, gamma=0.35, chord=0.0628)
    assert check_appendix_conditions(geom, polar).guaranteed
    report = solve_usual(geom, polar, trivial())
    assert report.converged
    assert abs(residual(geom, polar, trivial(), report.phi_star)) <= 1e-10
    roots = scan_roots(geom, polar, trivial())
    positive = [r for r in roots.records if r.phi > 0]
    assert len(positive) == 1  # unique solution under the guarantee conditions
    assert abs(report.phi_star - positive[0].phi) < 1e-8


def test_usual_oscillates_on_stall_polar(stall_polar):
    # period-two cycle: reported as non-convergence, never raised
    geom = make_geom(lam=2.0, gamma=0.1, chord=1.6)
    report = solve_usual(geom, stall_polar, trivial(), SolveOptions(max_iter=400))
    assert not report.converged
    assert report.iterations == 400
    assert "max_iter" in report.message
    # the same configuration is perfectly solvable by bracketing
    assert solve_bisection(geom, stall_polar, trivial()).converged


# ---------------------------------------------------------------------------
# damped fixed point


def test_fixed_point_zero_iterations_from_a_root(linear_polar):
    geom = make_geom(gamma=0.05)
    corr = wilson()
    star = solve_bisection(geom, linear_polar, corr).phi_star
    report = solve_fixed_point(geom, linear_polar, corr, SolveOptions(phi0=star))
    assert report.converged
    assert report.iterations == 0
    assert abs(report.state.residual) <= SolveOptions().tol


@pytest.mark.parametrize("epsilon", [0.25, 0.5, 1.0])
def test_fixed_point_monotone_to_largest_root(epsilon, linear_polar):
    # no active correction, non-decreasing mu curves, phi0 = theta
    geom = make_geom(gamma=0.15, chord=0.3)
    corr = trivial()
    report = solve_fixed_point(geom, linear_polar, corr, SolveOptions(epsilon=epsilon))
    assert report.converged
    phis = report.phi_history
    assert phis[0] == geom.theta
    assert all(b <= a + 1e-12 for a, b in zip(phis, phis[1:]))
    largest = max(r.phi for r in scan_roots(geom, linear_polar, corr).records)
    assert abs(report.phi_star - largest) < 1e-8


def test_fixed_point_rate_bound_case():
    # steep lift and small theta put the iteration in the geometric-rate regime
    polar = synthetic_polar("linear_lift", slope=2 * math.pi, cd0=0.01, beta=0.4)
    geom = make_geom(lam=5.0, gamma=0.05, chord=2 * math.pi * 0.16 / 3)
    corr = trivial()
    bound = fixed_point_rate_bound(geom, polar, corr)
    assert bound.applies
    assert 0.0 < bound.factor < 1.0
    report = solve_fixed_point(geom, polar, corr)
    assert report.converged
    star = report.phi_star
    for k, phi in enumerate(report.phi_history):
        assert abs(phi - star) <= bound.factor ** k * bound.initial + 1e-12


def test_fixed_point_rate_bound_factor_reads_epsilon():
    # the element of test_fixed_point_rate_bound_case damped by epsilon = 0.05, where the
    # undamped factor 0.885 failed at k = 7 (an error ratio of 0.962); the iterates are
    # checked against the bound as an example of the property test below
    polar = synthetic_polar("linear_lift", slope=2 * math.pi, cd0=0.01, beta=0.4)
    geom = make_geom(lam=5.0, gamma=0.05, chord=2 * math.pi * 0.16 / 3)
    bound = fixed_point_rate_bound(geom, polar, trivial(), epsilon=0.05)
    undamped = fixed_point_rate_bound(geom, polar, trivial())
    assert bound.applies and bound.factor > 0.99
    assert 1.0 - bound.factor == pytest.approx(0.05 * (1.0 - undamped.factor), rel=1e-12)
    assert bound.initial == pytest.approx(undamped.initial, rel=1e-12)


def test_fixed_point_rate_bound_raises_the_fixed_points_hypothesis_error():
    # constant lift and no drag: rho_eps's denominator is 0 at max I+ = beta
    polar = synthetic_polar("constant", level=1.0, cd0=0.0, beta=0.05)
    geom = ElementGeometry(lam=1.75, r=1.0, gamma=0.0, chord=0.1)
    corr = CorrectionSpec()
    with pytest.raises(HypothesisError, match="rho_eps denominator <= 0") as bound:
        fixed_point_rate_bound(geom, polar, corr)
    with pytest.raises(HypothesisError) as solve:
        solve_fixed_point(geom, polar, corr, SolveOptions(phi0=phi_upper(geom, polar)))
    assert str(bound.value) == str(solve.value)


@pytest.mark.parametrize("variant", [v for v in CORRECTION_VARIANTS if v != "none"])
def test_fixed_point_rate_bound_applies_to_the_plain_momentum_law_only(variant):
    # the margin leaves out psi's slope, so a corrected law gets no rate
    polar = synthetic_polar("linear_lift", slope=2 * math.pi, cd0=0.01, beta=0.4)
    geom = make_geom(lam=5.0, gamma=0.05, chord=2 * math.pi * 0.16 / 3)
    assert fixed_point_rate_bound(geom, polar, trivial()).applies
    assert not fixed_point_rate_bound(geom, polar, CorrectionSpec(variant)).applies


@settings(max_examples=200, deadline=None, database=None)
@given(slope=st.floats(2.0, 7.0), cd0=st.floats(0.0, 0.03), cd2=st.floats(0.0, 0.3),
       beta=st.floats(0.15, 0.6), lam=st.floats(0.3, 8.0), gamma=st.floats(-0.1, 0.3),
       chord=st.floats(0.02, 0.6), r=st.floats(0.3, 0.95), tip=st.booleans(),
       epsilon=st.floats(0.0, 1.0, exclude_min=True))
# |phi^0 - phi*| = 0.1434 > |phi^1| = 0.0920, which bounded it before
@example(slope=5.1398, cd0=0.0139, cd2=0.003, beta=0.3081, lam=5.267, gamma=0.0171,
         chord=0.3892, r=1.0, tip=False, epsilon=1.0)
# test_fixed_point_rate_bound_factor_reads_epsilon's element
@example(slope=2 * math.pi, cd0=0.01, cd2=0.0, beta=0.4, lam=5.0, gamma=0.05,
         chord=2 * math.pi * 0.16 / 3, r=1.0, tip=False, epsilon=0.05)
def test_fixed_point_iterates_keep_within_the_rate_bound(slope, cd0, cd2, beta, lam, gamma,
                                                         chord, r, tip, epsilon):
    polar = synthetic_polar("linear_lift", slope=slope, cd0=cd0, cd2=cd2, beta=beta)
    geom = ElementGeometry(lam=lam, r=r, gamma=gamma, chord=chord, blade_count=3,
                           tip_radius=1.0 if tip else None)
    corr = CorrectionSpec("none", tip_loss=tip)
    bound = fixed_point_rate_bound(geom, polar, corr, epsilon)
    if not bound.applies:
        return
    top = float(grid_I_plus(geom, polar)[-1])  # the bound's start
    report = solve_fixed_point(geom, polar, corr, SolveOptions(epsilon=epsilon, phi0=top))
    if not report.converged:
        return
    star = report.phi_star
    for k, phi in enumerate(report.phi_history):
        assert abs(phi - star) <= bound.factor ** k * bound.initial + 1e-12, k


def test_fixed_point_hypothesis_error_is_named():
    # constant lift: max mu_L' = 0; no drag; below the mu_G crest the
    # damping denominator vanishes
    polar = synthetic_polar("constant", level=1.0, cd0=0.0)
    geom = make_geom(gamma=0.05, chord=0.1)
    with pytest.raises(HypothesisError, match="rho_eps"):
        solve_fixed_point(geom, polar, trivial(), SolveOptions(phi0=0.05))


# ---------------------------------------------------------------------------
# Newton


def test_newton_zero_steps_from_root(linear_polar):
    geom = make_geom(gamma=0.05)
    corr = wilson()
    star = solve_bisection(geom, linear_polar, corr).phi_star
    report = solve_newton(geom, linear_polar, corr, SolveOptions(phi0=star))
    assert report.converged and report.iterations == 0


def test_newton_quadratic_near_root(dragfree_polar):
    # exact residual slope here (no correction active): true Newton
    geom = make_geom(gamma=0.15, chord=0.3)
    corr = trivial()
    oracle = solve_bisection(geom, dragfree_polar, corr,
                             SolveOptions(tol=1e-13, phi_tol=5e-15)).phi_star
    report = solve_newton(geom, dragfree_polar, corr,
                          SolveOptions(phi0=oracle + 0.01))
    assert report.converged
    assert report.iterations <= 6
    assert abs(report.phi_star - oracle) < 1e-9
    errs = [abs(p - oracle) for p in report.phi_history]
    # quadratic contraction while above rounding noise
    for e_prev, e_next in zip(errs, errs[1:]):
        if e_prev > 1e-6:
            assert e_next <= 50.0 * e_prev ** 2


def test_newton_with_active_correction_still_converges(linear_polar):
    geom = make_geom(gamma=0.05, chord=0.3)
    corr = wilson()
    oracle = solve_bisection(geom, linear_polar, corr,
                             SolveOptions(tol=1e-13, phi_tol=5e-15)).phi_star
    report = solve_newton(geom, linear_polar, corr, SolveOptions(phi0=oracle + 0.01))
    assert report.converged
    assert abs(report.phi_star - oracle) < 1e-8


def test_newton_quadratic_on_a_correction_branch_root(linear_polar):
    # the exact slope differentiates mu_G^c, high-induction term included
    geom = make_geom(gamma=0.05, chord=0.3)
    corr = wilson()
    oracle = solve_bisection(geom, linear_polar, corr,
                             SolveOptions(tol=1e-13, phi_tol=5e-15)).phi_star
    assert recover_induction(geom, linear_polar, corr, oracle).a > corr.a_c
    report = solve_newton(geom, linear_polar, corr, SolveOptions(phi0=oracle + 0.01))
    assert report.converged and "fallback" not in report.message
    assert report.iterations <= 4
    errs = [abs(p - oracle) for p in report.phi_history]
    for e_prev, e_next in zip(errs, errs[1:]):
        if e_prev > 1e-6:
            assert e_next <= 50.0 * e_prev ** 2


def _flat_slope_angle(geom, polar):
    """phi where the residual slope of the drag-free trivial model vanishes."""
    slope = 0.25 * geom.solidity * polar.cl_prime(0.3 - geom.gamma)  # linear lift
    lo, hi = 1e-4, 0.3
    for _ in range(60):
        mid = 0.5 * (lo + hi)
        if mu_G_prime(geom.theta, mid) > slope:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def test_newton_flat_slope_falls_back_to_bisection(dragfree_polar):
    geom = make_geom(gamma=0.15, chord=0.3)
    corr = trivial()
    phi0 = _flat_slope_angle(geom, dragfree_polar)
    report = solve_newton(geom, dragfree_polar, corr, SolveOptions(phi0=phi0))
    assert report.converged
    assert "fallback" in report.message


# ---------------------------------------------------------------------------
# bisection


def test_bisection_iteration_count_matches_halving(linear_polar):
    geom = make_geom(gamma=0.05)
    corr = wilson()
    opts = SolveOptions()
    report = solve_bisection(geom, linear_polar, corr, opts)
    assert report.converged
    full_depth = math.ceil(math.log2((geom.theta - 1e-4) / opts.phi_tol))
    assert 20 <= report.iterations <= full_depth + 1


def test_bisection_same_sign_bracket_aborts(linear_polar):
    geom = make_geom(gamma=0.05)
    with pytest.raises(BracketError, match="wrong initial guess"):
        solve_bisection(geom, linear_polar, wilson(),
                        SolveOptions(bracket_lo=geom.theta - 0.02,
                                     bracket_hi=geom.theta - 0.01))


def test_bracket_defaults_to_theta_and_an_empty_one_is_a_wrong_initial_guess(linear_polar):
    geom = make_geom(gamma=0.05)
    assert SolveOptions().bracket(geom, linear_polar, wilson()) == (1e-4, geom.theta)
    assert SolveOptions(bracket_lo=0.2, bracket_hi=0.3).bracket(geom, linear_polar,
                                                            wilson()) == (0.2, 0.3)
    opts = SolveOptions(bracket_lo=geom.theta + 0.01)  # no bracket_hi: (lo, theta) is empty
    for solve in (solve_newton, solve_bisection):
        with pytest.raises(BracketError, match="wrong initial guess: empty bracket"):
            solve(geom, linear_polar, wilson(), opts)


def test_bisection_undefined_bracket_end_is_a_wrong_initial_guess(linear_polar):
    # at phi = 1.5 the angle of attack lies beyond the sampled polar
    geom = make_geom(gamma=0.05)
    with pytest.raises(DomainError):
        residual(geom, linear_polar, wilson(), 1.5)
    with pytest.raises(BracketError, match="wrong initial guess"):
        solve_bisection(geom, linear_polar, wilson(),
                        SolveOptions(bracket_lo=0.1, bracket_hi=1.5))


def test_bisection_width_halves_exactly(linear_polar):
    geom = make_geom(gamma=0.05)
    report = solve_bisection(geom, linear_polar, wilson())
    w0 = geom.theta - 1e-4
    for k, width in enumerate(report.native_err_history, start=1):
        assert width == w0 * 0.5 ** k  # exact float equality


def test_bisection_stops_on_phi_tol_at_the_last_brackets_midpoint(linear_polar):
    # the bracket falls below phi_tol = 1e-3 long before a midpoint has |residual| <= 1e-15
    geom, corr, phi_tol = make_geom(gamma=0.05), wilson(), 1e-3
    report = solve_bisection(geom, linear_polar, corr, SolveOptions(tol=1e-15, phi_tol=phi_tol))
    lo, width, mids, widths = 1e-4, geom.theta - 1e-4, [], []
    below = residual(geom, linear_polar, corr, lo) < 0.0
    while width > phi_tol:  # the halving written out: keep the half with the sign change
        width *= 0.5
        mids.append(lo + width)
        widths.append(width)
        if (residual(geom, linear_polar, corr, mids[-1]) < 0.0) == below:
            lo = mids[-1]
    assert (report.phi_history, report.native_err_history) == (mids, widths)
    assert (report.iterations, report.converged, report.message) == (len(mids), False, "")
    assert report.phi_star == lo + 0.5 * width
    assert report.state == recover_induction(geom, linear_polar, corr, lo + 0.5 * width)
    assert abs(report.state.residual) > 1e-15


def test_bisection_immediate_when_root_at_midpoint(linear_polar):
    geom = make_geom(gamma=0.05)
    corr = wilson()
    star = solve_bisection(geom, linear_polar, corr).phi_star
    report = solve_bisection(geom, linear_polar, corr,
                             SolveOptions(bracket_lo=star - 0.05, bracket_hi=star + 0.05))
    assert report.converged
    assert report.iterations <= 2


# ---------------------------------------------------------------------------
# stop rules shared by the four methods


@pytest.mark.parametrize("method", sorted(METHODS))
def test_max_iter_stop_is_reported_alike(method, linear_polar):
    report = METHODS[method](make_geom(gamma=0.05), linear_polar, wilson(),
                             SolveOptions(max_iter=2))
    assert not report.converged
    assert report.iterations == 2
    assert report.message == "max_iter reached"
    if method == "usual":  # no momentum inversion after the last iterate
        assert len(report.native_err_history) == report.iterations - 1
    if method == "bisect":  # the midpoint of the last bracket, not the last midpoint
        half = 0.5 * report.native_err_history[-1]
        assert abs(abs(report.phi_star - report.phi_history[-1]) - half) <= 1e-15


@pytest.mark.parametrize("method", sorted(METHODS))
def test_a_fractional_max_iter_bounds_the_count(method, linear_polar):
    # the cap once fired only where the count equalled it, so 2.5 never stopped
    # a solve whose residual stays above tol; a fractional cap is now refused
    # before any solve, and a whole float bounds the count as its int does
    with pytest.raises(ValidationError, match="^max_iter must be an integer >= 1$"):
        METHODS[method](make_geom(gamma=0.05), linear_polar, wilson(),
                        SolveOptions(tol=1e-300, max_iter=2.5))
    report = METHODS[method](make_geom(gamma=0.05), linear_polar, wilson(),
                             SolveOptions(tol=1e-300, max_iter=3.0))
    assert (report.converged, report.iterations, report.message) == (False, 3, "max_iter reached")
    if method == "bisect":  # the midpoint of the last bracket, not the last midpoint
        half = 0.5 * report.native_err_history[-1]
        assert abs(abs(report.phi_star - report.phi_history[-1]) - half) <= 1e-15


@pytest.mark.parametrize("method", ["fixed", "newton"])
def test_undefined_residual_at_iterate_stops(method, linear_polar):
    # phi0 = 1.5 puts the angle of attack beyond the sampled polar
    report = METHODS[method](make_geom(gamma=0.05), linear_polar, wilson(),
                             SolveOptions(phi0=1.5))
    assert not report.converged
    assert report.iterations == 0
    assert report.phi_history == [1.5]
    assert report.message.startswith("diverged: residual undefined at iterate")


def test_unsafe_newton_step_without_bracket_stops(dragfree_polar):
    geom = make_geom(gamma=0.15, chord=0.3)
    phi0 = _flat_slope_angle(geom, dragfree_polar)
    lo, hi = geom.theta - 0.02, geom.theta - 0.01
    assert (residual(geom, dragfree_polar, trivial(), lo) < 0.0) == \
        (residual(geom, dragfree_polar, trivial(), hi) < 0.0)
    report = solve_newton(geom, dragfree_polar, trivial(),
                          SolveOptions(phi0=phi0, bracket_lo=lo, bracket_hi=hi))
    assert not report.converged
    assert report.iterations == 0
    assert report.phi_star == phi0
    assert report.message == "diverged: unsafe Newton step and no bracket to fall back on"


def test_newton_fallback_follows_the_bracket_past_zero(linear_polar):
    # the trivial residual is defined beyond (0, pi/2): a fallback midpoint
    # below 0 is evaluated, not taken for an iterate leaving the domain
    geom = make_geom(gamma=0.05, chord=0.1)
    negative = [r.phi for r in scan_roots(geom, linear_polar, trivial()).records if r.phi < 0]
    report = solve_newton(geom, linear_polar, trivial(),
                          SolveOptions(phi0=0.05, bracket_lo=-0.2, bracket_hi=0.1))
    assert report.converged
    assert "bisection fallback" in report.message
    assert abs(report.phi_star - negative[0]) < 1e-8


def test_unbracketed_newton_stops_when_its_iterates_cycle():
    # a random same-sign bracket on a stall polar: unsafeguarded Newton closes
    # in on a 2-cycle between 0.4060 and 0.4479 that would run to max_iter
    polar = synthetic_polar("linear_lift_with_stall", slope=6.9276, alpha_s=0.2039,
                            drop=0.3263, transition=0.0429, cd0=0.0185, cd2=0.2252)
    geom = ElementGeometry(lam=0.9224, r=0.3557, gamma=0.1958, chord=0.6105,
                           blade_count=3, tip_radius=1.0)
    corr = CorrectionSpec(variant="glauert3", tip_loss=True)
    report = solve_newton(geom, polar, corr,
                          SolveOptions(bracket_lo=0.4044, bracket_hi=0.5229))
    assert not report.converged
    assert report.iterations <= 20
    assert "cycles" in report.message
    assert abs(report.phi_history[-2] - 0.44787464952062567) < 1e-9  # revisited next
    assert report.phi_star == report.phi_history[-1]
    assert abs(report.phi_star - 0.40600491606997563) < 1e-9


def test_unbracketed_newton_stops_when_it_makes_no_progress(stall_polar):
    # found by a seeded search over random same-sign brackets with phi0 inside:
    # Newton roams aperiodically near 0.81 and, without this stop, runs to max_iter
    geom = ElementGeometry(lam=1.55958807383901, r=0.9642798844191007,
                           gamma=0.2596644103734703, chord=0.40206306151099613,
                           blade_count=3, tip_radius=1.0)
    corr = CorrectionSpec(variant="buhl", tip_loss=False)
    opts = SolveOptions(tol=1e-12, bracket_lo=0.819835017035875,
                        bracket_hi=0.840053703477895, phi0=0.8252491948278001)
    report = solve_newton(geom, stall_polar, corr, opts)
    assert not report.converged
    assert report.message == "diverged: unbracketed Newton makes no progress"
    assert solvers._STALL_STEPS < report.iterations <= 2 * solvers._STALL_STEPS
    least = [abs(residual(geom, stall_polar, corr, p)) for p in report.phi_history]
    last_fall = min(range(len(least)), key=least.__getitem__)
    assert len(least) - 1 - last_fall == solvers._STALL_STEPS


@pytest.mark.parametrize("method", sorted(METHODS))
def test_converged_solve_builds_its_state_from_the_last_record(method, monkeypatch,
                                                              stall_polar):
    def evaluated_again(*args):
        raise AssertionError("the final iterate was evaluated again")

    monkeypatch.setattr(solvers, "recover_induction", evaluated_again)
    # a demo-like element: three blades, tip loss, Wilson/Spera correction
    geom = make_geom(lam=1.8, r=0.6, gamma=0.1, chord=0.3, tip_radius=1.1)
    corr = wilson(tip=True)
    report = METHODS[method](geom, stall_polar, corr)
    assert report.converged
    assert report.state == recover_induction(geom, stall_polar, corr, report.phi_star)


# ---------------------------------------------------------------------------
# bracketing via the psi-free subproblem


@pytest.mark.parametrize("method", sorted(METHODS))
def test_a_root_above_phi_upper_is_converged_outside_the_working_interval(method):
    # beta + gamma = 0.15 < theta = 0.519: the root at 0.289 lies beyond max I+
    polar = synthetic_polar("linear_lift", slope=2 * math.pi, cd0=0.01, beta=0.1)
    geom = make_geom(gamma=0.05, tip_radius=1.2)
    corr = wilson(tip=True)
    report = METHODS[method](geom, polar, corr)
    assert report.converged
    assert report.message == "converged outside the working interval"
    assert abs(report.phi_star - 0.28889883755) <= 1e-9
    assert abs(residual(geom, polar, corr, report.phi_star)) <= 1e-10
    assert scan_roots(geom, polar, corr).records == []  # the scan does not look there


def test_bracket_psi0_degenerate_for_none(linear_polar):
    geom = make_geom(gamma=0.05)
    corr = trivial()
    lo, hi = bracket_via_psi0(geom, linear_polar, corr)
    assert abs(residual(geom, linear_polar, corr, lo)) < 1e-9
    assert hi == min(geom.theta, linear_polar.beta + geom.gamma)


def test_bracket_psi0_brackets_the_corrected_root(linear_polar):
    geom = make_geom(gamma=0.05, chord=0.6)
    corr = wilson()
    lo, hi = bracket_via_psi0(geom, linear_polar, corr)
    assert residual(geom, linear_polar, corr, lo) <= 1e-12
    report = solve_bisection(geom, linear_polar, corr,
                             SolveOptions(bracket_lo=lo, bracket_hi=hi))
    assert report.converged


def test_bracket_psi0_names_the_psi0_subproblem_where_it_keeps_its_sign():
    # the corrected existence criterion holds and the corrected model has a root,
    # but the psi = 0 residual keeps its sign on [bracket_lo, max I+]
    polar = synthetic_polar("linear_lift", slope=5.1179, cd0=0.0183, cd2=0.2297, beta=0.2638)
    geom = ElementGeometry(lam=4.9046, r=1.0, gamma=-0.0445, chord=0.3781)
    corr = CorrectionSpec("buhl")
    assert check_existence(geom, polar, corr).corrected_ok
    (root,) = scan_roots(geom, polar, corr).records
    assert abs(root.phi - 0.030708547453376603) <= 1e-12
    with pytest.raises(BracketError, match=r"^psi=0 subproblem has no bracket on "
                       r"\[0\.0001, max I\+ = 0\.201133\]: wrong initial guess: "
                       r"residual has the same sign at both ends"):
        bracket_via_psi0(geom, polar, corr)


def test_bracket_psi0_empty_bracket_error():
    # constant lift tuned so the psi-free root sits exactly at max I+
    polar = synthetic_polar("constant", level=1.0, cd0=0.0, beta=0.3)
    target = mu_G(math.atan2(1.0, 1.0), 0.3)
    chord = 4.0 * target * 2.0 * math.pi / 3.0
    geom = ElementGeometry(lam=1.0, r=1.0, gamma=0.0, chord=chord)
    with pytest.raises(BracketError, match="empty bracket"):
        bracket_via_psi0(geom, polar, wilson())


# ---------------------------------------------------------------------------
# existence and appendix checks


def test_grid_I_plus_of_an_element_with_an_empty_working_interval(linear_polar):
    # gamma <= -beta puts max I+ = beta + gamma at or below 0
    with pytest.raises(ValidationError) as info:
        grid_I_plus(make_geom(gamma=-0.5), linear_polar)
    assert type(info.value) is ValidationError
    assert str(info.value) == "working interval I+ is empty for this element"


def test_existence_auto_satisfied_when_window_reaches_theta(linear_polar):
    geom = make_geom(gamma=0.15)  # beta + gamma = 0.55 > theta = 0.519
    report = check_existence(geom, linear_polar, wilson())
    assert report.interval_ok
    assert report.upper_is_theta
    assert report.simplified_ok  # mu_G(theta) = 0 <= mu_L(theta)
    assert report.corrected_ok


def test_existence_interval_failure_reported(linear_polar):
    geom = make_geom(gamma=-1.5)
    report = check_existence(geom, linear_polar, wilson())
    assert not report.interval_ok
    assert report.interval_margin < 0.0


def test_existence_symmetric_profile_in_window(dragfree_polar):
    geom = make_geom(gamma=0.1, chord=0.3)
    report = check_existence(geom, dragfree_polar, trivial())
    assert report.simplified_ok
    roots = scan_roots(geom, dragfree_polar, trivial())
    hi = min(geom.theta, dragfree_polar.beta + geom.gamma)
    assert any(geom.gamma <= r.phi <= hi for r in roots.records)


@pytest.mark.parametrize("polar, geom, corr, message", [
    # theta - gamma = -0.58 lies below the polar's alpha_min = -0.5: cl raises at max I+
    (synthetic_polar("linear_lift", span=0.5, beta=0.4), make_geom(gamma=1.1), wilson(),
     "simplified criterion not evaluable: cl evaluation outside sampled range [-0.5, 0.5]; "
     "corrected criterion not evaluable: cl evaluation outside sampled range [-0.5, 0.5]"),
    # near the tip, Glauert empirical without strict_lemma_mode loses monotonicity at max I+
    (synthetic_polar("linear_lift", slope=6.0, cd0=0.01, beta=0.4),
     make_geom(lam=1.0, r=0.97, gamma=0.02, tip_radius=1.0),
     CorrectionSpec(variant="glauert_empirical", tip_loss=True, strict_lemma_mode=False),
     "corrected criterion not evaluable: axial balance lost monotonicity (glauert_empirical "
     "psi < 0 under the current tip factor); use strict_lemma_mode or another variant"),
], ids=["cl_outside_the_polar", "axial_balance_undefined"])
def test_existence_criteria_that_cannot_be_evaluated_say_why(polar, geom, corr, message):
    report = check_existence(geom, polar, corr)
    assert report.interval_ok
    assert report.message == message
    assert math.isnan(report.corrected_margin) and not report.corrected_ok
    assert math.isnan(report.simplified_margin) == message.startswith("simplified")
    assert not report.simplified_ok


def test_existence_without_a_sign_change_on_I_plus_is_not_a_pass():
    # the plain model's residual stays positive on all of I+ here: both margins at
    # max I+ are >= 0, but min I+ gives the same sign, so no root is guaranteed,
    # neither criterion holds, and the scan finds no root
    polar = synthetic_polar("linear_lift", slope=6.283185, cd0=0.01, beta=0.612104)
    geom = ElementGeometry(lam=2.202581, r=0.576516, gamma=-0.070055, chord=0.176581,
                           blade_count=3, tip_radius=1.0)
    corr = CorrectionSpec("none")
    report = check_existence(geom, polar, corr)
    assert report.simplified_margin == report.corrected_margin == 0.11399517425614275
    assert not report.simplified_ok and not report.corrected_ok
    simplified, corrected = report.message.split("; ")
    assert simplified.startswith("simplified criterion undecided: ")
    assert corrected.startswith("corrected criterion undecided: ")
    assert corrected.endswith("has the sign of max I+, so no root is guaranteed")
    assert scan_roots(geom, polar, corr).records == []


@pytest.mark.parametrize("variant", CORRECTION_VARIANTS)
@pytest.mark.parametrize("tip", [False, True], ids=["no_tip", "tip"])
@settings(max_examples=25, deadline=None, database=None)
@given(stall=st.booleans(), slope=st.floats(3.0, 7.0), beta=st.floats(0.2, 0.7),
       lam=st.floats(0.5, 3.0), gamma=st.floats(-0.2, 0.3), chord=st.floats(0.02, 1.0),
       r=st.floats(0.2, 0.95))
@example(stall=False, slope=6.283185, beta=0.612104, lam=2.202581, gamma=-0.070055,
         chord=0.176581, r=0.576516)
def test_an_existence_pass_means_a_sign_change_on_I_plus(variant, tip, stall, slope, beta,
                                                         lam, gamma, chord, r):
    # a criterion that holds has a sign change of its function on I+, as the array
    # kernels show on the 1000-node grid of I+; where the correction's scan covers
    # I+ with the residual defined at every node, scan_roots finds a root
    if stall:
        polar = synthetic_polar("linear_lift_with_stall", slope=slope, alpha_s=0.3, drop=0.5,
                                transition=0.05, cd0=0.012, cd2=0.1)
    else:
        polar = synthetic_polar("linear_lift", slope=slope, cd0=0.01, beta=beta)
    geom = ElementGeometry(lam=lam, r=r, gamma=gamma, chord=chord, blade_count=3,
                           tip_radius=1.0)
    corr = CorrectionSpec(variant=variant, tip_loss=tip)
    report = check_existence(geom, polar, corr)
    if not (report.simplified_ok or report.corrected_ok):
        return
    phis = grid_I_plus(geom, polar)
    functions = []
    if report.simplified_ok:
        functions.append(0.25 * geom.solidity * polar.cl(phis - geom.gamma)
                         - np.sin(phis) * np.tan(geom.theta - phis))
    if report.corrected_ok:
        functions.append(_residual_grid([geom], polar, corr, [phis])[0])
    for values in functions:
        values = values[~np.isnan(values)]
        assert values.min() <= 0.0 <= values.max()
    if report.corrected_ok and not corr.is_trivial and not np.isnan(functions[-1]).any():
        assert scan_roots(geom, polar, corr).records


def test_appendix_conditions_pass_and_fail():
    polar = synthetic_polar("linear_lift", slope=2 * math.pi, cd0=0.0, beta=0.5)
    good = ElementGeometry(lam=1.0, r=1.0, gamma=0.35, chord=0.0628)
    rep = check_appendix_conditions(good, polar)
    assert rep.applicable and rep.guaranteed

    bad = ElementGeometry(lam=1.0, r=1.0, gamma=0.35, chord=0.5)
    repf = check_appendix_conditions(bad, polar)
    assert repf.applicable and not repf.guaranteed
    assert repf.contraction2_value > 1.0

    tiny = ElementGeometry(lam=1.0, r=1.0, gamma=0.35, chord=1e-4)
    assert check_appendix_conditions(tiny, polar).guaranteed  # sigma -> 0 passes

    na = ElementGeometry(lam=1.0, r=1.0, gamma=-0.1, chord=0.1)
    assert not check_appendix_conditions(na, polar).applicable


def test_appendix_guarantee_backed_by_random_starts():
    polar = synthetic_polar("linear_lift", slope=2 * math.pi, cd0=0.0, beta=0.5)
    geom = ElementGeometry(lam=1.0, r=1.0, gamma=0.35, chord=0.0628)
    assert check_appendix_conditions(geom, polar).guaranteed
    gen = rng(11)
    reference = solve_bisection(geom, polar, trivial()).phi_star
    for phi0 in gen.uniform(geom.gamma, geom.theta, size=20):
        report = solve_usual(geom, polar, trivial(), SolveOptions(phi0=float(phi0)))
        assert report.converged
        assert abs(report.phi_star - reference) < 1e-8


# ---------------------------------------------------------------------------
# root scanning and taxonomy


def test_scan_requires_reasonable_grid(linear_polar):
    for grid_size in (10, 99, math.nan, math.inf, -math.inf, 2.5, 100.5):
        with pytest.raises(ValidationError, match="^grid_size must be an integer >= 100$"):
            scan_roots(make_geom(), linear_polar, trivial(), grid_size=grid_size)
    roots = scan_roots(make_geom(), linear_polar, trivial(), grid_size=100)
    for grid_size in (np.int64(100), 100.0):
        assert scan_roots(make_geom(), linear_polar, trivial(), grid_size=grid_size) == roots


def test_scan_category1_negative_lift_pair(dragfree_polar):
    geom = make_geom(gamma=0.15, chord=0.3)
    roots = scan_roots(geom, dragfree_polar, trivial())
    assert len(roots.records) == 2
    assert roots.categories.count("negative_lift_branch") == 1
    assert roots.categories.count("principal") == 1
    neg = roots.records[roots.categories.index("negative_lift_branch")]
    assert neg.state.lift_sign < 0


def test_scan_unique_root_for_monotone_lift(linear_polar):
    geom = make_geom(gamma=0.05, chord=0.2)
    corr = wilson()
    roots = scan_roots(geom, linear_polar, corr)
    assert len(roots.records) == 1
    assert roots.categories == ["principal"]


def test_scan_stall_branch_detected(stall_polar):
    geom = make_geom(lam=1.0, gamma=0.1, chord=0.8)
    roots = scan_roots(geom, stall_polar, trivial())
    cats = roots.categories
    assert "principal" in cats
    assert "stall_branch" in cats
    for phi in (rec.phi for rec in roots.records if rec.category == "stall_branch"):
        assert phi - geom.gamma >= stall_polar.alpha_s - 1e-12


def test_scan_agrees_with_single_solvers(linear_polar):
    geom = make_geom(gamma=0.05)
    corr = wilson()
    scanned = scan_roots(geom, linear_polar, corr).phis
    for method in METHODS.values():
        report = method(geom, linear_polar, corr)
        if report.converged:
            assert min(abs(report.phi_star - p) for p in scanned) < 1e-8


@settings(max_examples=300, deadline=None, database=None)
@given(coef=st.lists(st.floats(-3.0, 3.0), min_size=4, max_size=4),
       a=st.floats(-2.0, 0.0), b=st.floats(0.01, 2.0), wave=st.booleans())
@example(coef=[6.674506083404113e-135, 0.0, 0.0, 0.0], a=-2.0, b=1.0, wave=False)  # 0 divisor
def test_brent_matches_scipy_brentq_step_for_step(coef, a, b, wave):
    def f(x):
        return (math.sin(3.0 * coef[0] * x + coef[1]) + coef[2] * x if wave
                else np.polyval(coef, x))

    if not f(a) * f(b) < 0.0:
        return
    seen_ref, seen = [], []
    try:
        want = brentq(lambda x: seen_ref.append(x) or float(f(x)), a, b,
                      xtol=1e-14, rtol=8.9e-16)
    except RuntimeError:  # no convergence in 100 iterations (a flat root)
        with pytest.raises(BracketError, match="converge"):
            _brentq(lambda x: seen.append(x) or float(f(x)), a, b)
    else:
        assert _brentq(lambda x: seen.append(x) or float(f(x)), a, b) == want
    assert seen == seen_ref


def test_brent_returns_a_root_at_a_bracket_end_and_needs_a_sign_change():
    seen = []

    def f(x):
        seen.append(x)
        return x - 0.25

    assert _brentq(f, 0.25, 1.0) == 0.25 and seen == [0.25, 1.0]
    seen.clear()
    assert _brentq(f, 0.0, 0.25) == 0.25 and seen == [0.0, 0.25]
    with pytest.raises(BracketError) as info:
        _brentq(f, 0.5, 1.0)
    assert type(info.value) is BracketError and str(info.value) == "no sign change on [0.5, 1]"


def _scan_per_node(geom, polar, corr, grid_size=400, tol=1e-10):
    """(phis, categories) of scan_roots, from a per-node loop of the scalar residual."""
    lo, hi = _scan_domain(geom, polar, corr)
    grid = np.linspace(lo, hi, grid_size)
    vals = [_residual_safe(geom, polar, corr, p) for p in grid]
    roots = [p for p, v in zip(grid, vals) if v == 0.0]
    for k in range(grid_size - 1):
        a, b = vals[k], vals[k + 1]
        if math.isfinite(a) and math.isfinite(b) and a * b < 0.0:
            roots.append(brentq(lambda p: residual(geom, polar, corr, p),
                                grid[k], grid[k + 1], xtol=1e-14, rtol=8.9e-16))
    phis, categories = [], []
    for phi in sorted(roots):
        if phis and abs(phi - phis[-1]) < 1e-10:
            continue
        try:
            state = recover_induction(geom, polar, corr, phi)
        except DomainError:
            continue
        if math.isfinite(state.residual) and abs(state.residual) <= tol:
            phis.append(float(phi))
            categories.append(classify_root(geom, polar, corr, phi, state))
    return phis, categories


@pytest.mark.parametrize("variant", CORRECTION_VARIANTS)
@pytest.mark.parametrize("tip", [False, True])
@settings(max_examples=12, deadline=None, database=None)
@given(stall=st.booleans(), cd0=st.floats(0.0, 0.03), lam=st.floats(0.8, 3.0),
       gamma=st.floats(-0.1, 0.3), chord=st.floats(0.05, 1.2), r=st.floats(0.2, 0.95))
def test_scan_roots_matches_per_node_scalar_scan(variant, tip, stall, cd0, lam, gamma,
                                                 chord, r):
    if stall:
        polar = synthetic_polar("linear_lift_with_stall", slope=6.0, alpha_s=0.3,
                                drop=0.5, transition=0.05, cd0=cd0, cd2=0.1)
    else:
        polar = synthetic_polar("linear_lift", slope=2.0 * math.pi, cd0=cd0, beta=0.4)
    geom = make_geom(lam=lam, gamma=gamma, chord=chord, r=r, tip_radius=1.0)
    corr = CorrectionSpec(variant=variant, tip_loss=tip)  # none without tip: all of I
    try:
        want = _scan_per_node(geom, polar, corr)
    except ValidationError:  # empty scan domain
        with pytest.raises(ValidationError):
            scan_roots(geom, polar, corr)
        return
    got = scan_roots(geom, polar, corr)
    assert (got.phis, got.categories) == want


@pytest.mark.parametrize("lam, gamma, end", [(1.0, -0.297975, 1), (3.0, 0.12, 0)],
                         ids=["hi", "lo"])
def test_plain_scan_domain_ends_lie_inside_the_polar(lam, gamma, end):
    # gamma + alpha_max (gamma + alpha_min) rounds so that hi - gamma > alpha_max
    # (lo - gamma < alpha_min) on these elements: cl, so the end node, was undefined
    polar = load_polar(Path(__file__).resolve().parents[1] / "demo" / "polar.csv")
    geom, corr = make_geom(lam=lam, gamma=gamma, chord=0.2, r=0.5), trivial()
    lo, hi = _scan_domain(geom, polar, corr)
    assert polar.alpha_min <= lo - gamma and hi - gamma <= polar.alpha_max
    # the end moved inward by the least step that puts it inside
    outward = math.nextafter((lo, hi)[end], (-math.inf, math.inf)[end]) - gamma
    assert not polar.alpha_min <= outward <= polar.alpha_max
    assert all(math.isfinite(residual(geom, polar, corr, phi)) for phi in (lo, hi))
    assert np.isfinite(_residual_grid([geom], polar, corr, np.array([[lo, hi]]))).all()


def test_max_I_plus_one_ulp_past_the_polar_steps_inside():
    # a linear-lift polar is sampled up to beta = alpha_max, and on this element max
    # I+ = beta + gamma, where (beta + gamma) - gamma rounds one ulp past alpha_max
    polar = synthetic_polar("linear_lift", slope=2 * math.pi, cd0=0.01)
    geom = ElementGeometry(lam=0.276297, r=0.5, gamma=-0.097217, chord=0.1,
                           blade_count=3, tip_radius=1.0)
    corr = CorrectionSpec("glauert3")
    top = phi_upper(geom, polar)
    assert top == polar.beta + geom.gamma and top - geom.gamma > polar.alpha_max
    lo, hi = _scan_domain(geom, polar, corr)
    assert hi == math.nextafter(top, 0.0) and hi - geom.gamma <= polar.alpha_max
    assert tuple(grid_I_plus(geom, polar)[[0, -1]]) == (lo, hi)
    # the principal root lies in the last cell of the scan grid
    (root,) = scan_roots(geom, polar, corr).records
    assert root.category == "principal" and abs(root.phi - 1.1022894898) <= 1e-10
    assert abs(root.state.residual) <= 1e-10
    assert abs(solve_element(geom, polar, corr).phi - root.phi) <= 1e-12
    # nothing evaluated at max I+ meets the undefined lift any more
    for correction in (corr, trivial()):
        assert isinstance(solve_fixed_point(geom, polar, correction), solvers.SolveReport)
        assert fixed_point_rate_bound(geom, polar, correction).factor > 0.0
    # the drag-free model has two roots on I+, so mu_L - mu_G has the sign of max I+
    # at min I+ too, and its criterion is undecided rather than not evaluable
    report = check_existence(geom, polar, corr)
    assert report.corrected_ok and not report.simplified_ok
    assert report.message.startswith("simplified criterion undecided: ")
    assert "evaluable" not in report.message and report.simplified_margin > 0.0
    with pytest.raises(BracketError) as info:  # two psi-free roots: no sign change
        bracket_via_psi0(geom, polar, corr)
    assert "undefined" not in str(info.value)


@pytest.mark.parametrize("method", sorted(METHODS))
@pytest.mark.parametrize("variant", ["glauert3", "none"])
def test_default_start_is_max_I_plus_where_theta_lies_beyond_the_polar(method, variant):
    # on this element theta - gamma lies beyond the polar's alpha_max, where cl is
    # undefined: every solver starts at the right end of the scan domain instead
    polar = synthetic_polar("linear_lift", slope=2 * math.pi, cd0=0.01)
    geom = ElementGeometry(lam=0.276297, r=0.5, gamma=-0.097217, chord=0.1,
                           blade_count=3, tip_radius=1.0)
    corr = CorrectionSpec(variant)
    assert geom.theta - geom.gamma > polar.alpha_max
    assert solvers._start(geom, polar, corr) == _scan_domain(geom, polar, corr)[1]
    if (method, variant) == ("bisect", "none"):
        # the plain model has two roots there, 0.0040 and 1.1023: no sign change
        with pytest.raises(BracketError, match="same sign at both ends"):
            solve_bisection(geom, polar, corr)
        return
    report = METHODS[method](geom, polar, corr)
    assert report.converged and abs(report.phi_star - 1.1022894898) <= 1e-9


@pytest.mark.parametrize("variant", CORRECTION_VARIANTS)
@pytest.mark.parametrize("tip", [False, True], ids=["no_tip", "tip"])
@settings(max_examples=30, deadline=None, database=None)
@given(stall=st.booleans(), span=st.floats(0.4, 1.2), slope=st.floats(3.0, 7.0),
       lam=st.floats(0.05, 1.5), gamma=st.floats(-0.3, 0.3), chord=st.floats(0.02, 1.0),
       r=st.floats(0.2, 0.95))
@example(stall=False, span=1.2, slope=2 * math.pi, lam=0.276297, gamma=-0.097217,
         chord=0.1, r=0.5)
@example(stall=True, span=1.0, slope=3.0, lam=1.0, gamma=-0.29999999999999993, chord=1.0,
         r=0.5)  # I is not empty, I+ is: see the test below
def test_default_start_is_evaluable_where_theta_lies_beyond_the_polar(
        variant, tip, stall, span, slope, lam, gamma, chord, r):
    polar = _interval_polar("stall" if stall else "linear", span, slope)
    geom = ElementGeometry(lam=lam, r=r, gamma=gamma, chord=chord, blade_count=3,
                           tip_radius=1.0)
    corr = CorrectionSpec(variant=variant, tip_loss=tip)
    assume(geom.theta - gamma > polar.alpha_max)
    start = solvers._start(geom, polar, corr)
    try:
        assert start == _scan_domain(geom, polar, corr)[1]
    except ValidationError:  # an empty scan domain: theta stays the start
        assert start == geom.theta
        return
    outside = "outside sampled range"
    try:
        residual(geom, polar, corr, start)
    except DomainError as exc:  # the axial balance or F = 0 may still refuse it
        assert outside not in str(exc)
    # the usual procedure's and the fixed point's iterate 0, and the right end of
    # Newton's and bisection's bracket
    for method in ("usual", "fixed"):
        try:
            report = METHODS[method](geom, polar, corr, SolveOptions(max_iter=1))
        except HypothesisError:  # rho_eps's hypothesis fails: no step is taken
            continue
        assert report.phi_history[0] == start
    assert SolveOptions().bracket(geom, polar, corr)[1] == start
    try:
        solve_bisection(geom, polar, corr, SolveOptions(max_iter=1))
    except BracketError as exc:
        assert outside not in str(exc)


def test_fixed_point_raises_hypothesis_error_where_I_plus_is_empty():
    # a falsifying example of the property above: the trivial correction's scan
    # domain I is not empty, so every solver starts at its right end, but I+ is
    # empty, and rho_eps needs the supremum of mu_L^c' over I+
    polar = synthetic_polar("linear_lift_with_stall", slope=3.0, alpha_s=0.3, drop=0.5,
                            transition=0.05, cd0=0.012, cd2=0.1, span=1.0)
    geom = ElementGeometry(lam=1.0, r=0.5, gamma=-0.29999999999999993, chord=1.0,
                           blade_count=3, tip_radius=1.0)
    corr = CorrectionSpec("none")
    assert solvers._start(geom, polar, corr) == _scan_domain(geom, polar, corr)[1]
    with pytest.raises(ValidationError, match="I\\+ is empty"):
        grid_I_plus(geom, polar)
    with pytest.raises(HypothesisError) as info:
        solve_fixed_point(geom, polar, corr, SolveOptions(max_iter=1))
    assert str(info.value) == ("working interval I+ is empty for this element; "
                               "rho_eps needs the supremum of mu_L^c' over I+")


def _interval_polar(kind, span, slope):
    if kind == "linear":  # sampled up to beta = alpha_max = span
        return synthetic_polar("linear_lift", slope=slope, cd0=0.01, span=span)
    if kind == "stall":
        return synthetic_polar("linear_lift_with_stall", slope=slope, alpha_s=0.3, drop=0.5,
                               transition=0.05, cd0=0.012, cd2=0.1, span=span)
    return _BATCH_POLARS["demo"]


@pytest.mark.parametrize("kind", ["linear", "stall", "demo"])
@pytest.mark.parametrize("variant", CORRECTION_VARIANTS)
@pytest.mark.parametrize("tip", [False, True], ids=["no_tip", "tip"])
@settings(max_examples=30, deadline=None, database=None)
@given(span=st.floats(0.4, 1.2), slope=st.floats(3.0, 7.0), lam=st.floats(0.2, 3.0),
       gamma=st.floats(-0.4, 0.4), chord=st.floats(0.02, 1.0), r=st.floats(0.2, 0.95))
@example(span=1.2, slope=2 * math.pi, lam=0.276297, gamma=-0.097217, chord=0.1, r=0.5)
def test_interval_ends_lie_inside_the_polar(kind, variant, tip, span, slope, lam, gamma,
                                            chord, r):
    polar = _interval_polar(kind, span, slope)
    geom = ElementGeometry(lam=lam, r=r, gamma=gamma, chord=chord, blade_count=3,
                           tip_radius=1.0)
    corr = CorrectionSpec(variant=variant, tip_loss=tip)
    ends = []
    for interval in (lambda: _scan_domain(geom, polar, corr),
                     lambda: grid_I_plus(geom, polar)[[0, -1]].tolist()):
        try:
            ends.extend(interval())
        except ValidationError:  # an empty interval
            pass
    assert all(polar.alpha_min <= end - gamma <= polar.alpha_max for end in ends)
    try:
        top = float(grid_I_plus(geom, polar)[-1])
    except ValidationError:
        return  # I+ is empty: nothing is evaluated at max I+
    outside = "outside sampled range"
    # the fixed point from max I+: its iterate 0 there is defined
    try:
        report = solve_fixed_point(geom, polar, corr, SolveOptions(phi0=top, max_iter=1))
        assert not (report.phi_star == top and outside in report.message)
    except HypothesisError:
        pass  # rho_eps's hypothesis fails: no step is taken
    try:
        fixed_point_rate_bound(geom, polar, corr)
    except DomainError as exc:
        assert outside not in str(exc)
    assert outside not in check_existence(geom, polar, corr).message


def test_scan_keeps_an_exact_zero_next_to_an_undefined_node(monkeypatch, linear_polar):
    geom, corr = make_geom(gamma=0.05), wilson()
    lo, hi = _scan_domain(geom, linear_polar, corr)
    grid = np.linspace(lo, hi, 400)
    crafted = np.ones(400)  # positive, exactly 0 at node 150, undefined at node 151
    crafted[150], crafted[151] = 0.0, math.nan

    angles = []  # every angle the scalar paths see, which are Python floats

    def state_at(geom, polar, corr, phi):
        angles.append(phi)
        return FlowState(phi=phi, a=0.2, a_prime=0.01, tip_factor=1.0, residual=0.0,
                         lift_sign=1)

    def recheck(geom, polar, corr, phi):
        angles.append(phi)
        return 0.0 if phi == grid[150] else math.nan

    monkeypatch.setattr(solvers, "_residual_grid", lambda *args: [crafted.copy()])
    monkeypatch.setattr(solvers, "_residual_safe", recheck)
    monkeypatch.setattr(solvers, "recover_induction", state_at)
    assert scan_roots(geom, linear_polar, corr).phis == [grid[150]]
    assert angles and {type(phi) for phi in angles} == {float}


# lift jumps by 1.3 across two samples 1e-13 apart, at alpha = 0.1
_JUMP_POLAR = PolarTable([-0.3, -0.1, 0.0, 0.1, 0.1 + 1e-13, 0.3, 0.45],
                         [-1.0, -0.3, 0.05, 0.1, 1.4, 1.5, 1.6],
                         [0.02, 0.01, 0.01, 0.01, 0.012, 0.03, 0.05], alpha_s=0.45)


@pytest.mark.parametrize("lam, gamma, chord", [(1.5, 0.0, 0.4), (2.0, 0.1, 0.4),
                                               (3.0, 0.2, 0.2), (3.0, 0.2, 0.4)])
def test_scan_reports_no_root_inside_a_jump_of_the_lift(lam, gamma, chord):
    # the residual changes sign across the jump, so a grid cell brackets it and
    # Brent ends inside it, where |residual| is about 1e-4: not a root
    geom, corr = make_geom(lam=lam, gamma=gamma, chord=chord), trivial()
    lo, hi = _scan_domain(geom, _JUMP_POLAR, corr)
    grid = np.linspace(lo, hi, 400)
    vals = _residual_grid([geom], _JUMP_POLAR, corr, [grid])[0]
    k = np.searchsorted(grid, gamma + 0.1) - 1
    assert vals[k] * vals[k + 1] < 0.0
    jump = _brentq(lambda p: residual(geom, _JUMP_POLAR, corr, p), grid[k], grid[k + 1])
    assert abs(jump - gamma - 0.1) < 1e-12
    assert abs(residual(geom, _JUMP_POLAR, corr, jump)) > 1e-6
    found = scan_roots(geom, _JUMP_POLAR, corr).phis
    assert all(abs(phi - jump) > 1e-3 for phi in found)


def test_scan_merges_roots_closer_than_1e_10():
    # a polar sampled across 3e-11, on which the plain residual is 0 but for
    # rounding: its scan grid shows zeros and sign changes, and their roots, all
    # within 3e-11 of each other, make one record
    geom, corr = make_geom(gamma=0.1), trivial()
    quarter, theta = 0.25 * geom.solidity, geom.theta
    alphas = 0.1 + 3e-11 * np.linspace(0.0, 1.0, 7)
    lift = [math.tan(theta - 0.1 - a) * (math.sin(0.1 + a) + 0.01 * quarter) / quarter
            for a in alphas.tolist()]
    polar = PolarTable(alphas, lift, [0.01] * 7, alpha_s=alphas[-1])
    lo, hi = _scan_domain(geom, polar, corr)
    vals = _residual_grid([geom], polar, corr, [np.linspace(lo, hi, 400)])[0]
    assert np.count_nonzero(vals == 0.0) + np.count_nonzero(vals[:-1] * vals[1:] < 0.0) > 1
    [root] = scan_roots(geom, polar, corr).records
    assert lo <= root.phi <= hi and abs(root.state.residual) <= 1e-10


# ---------------------------------------------------------------------------
# batched scans

_BATCH_POLARS = {
    "linear": synthetic_polar("linear_lift", slope=2 * math.pi, cd0=0.01, cd2=0.3, beta=0.4),
    "stall": synthetic_polar("linear_lift_with_stall", slope=6.0, alpha_s=0.3, drop=0.5,
                             transition=0.05, cd0=0.012, cd2=0.1),
    "demo": load_polar(Path(__file__).resolve().parents[1] / "demo" / "polar.csv"),
}


def _outcome(result):
    """A scan's outcome, comparable bit for bit: every field of every root
    as float hex, or the error's type and text."""
    if isinstance(result, BemError):
        return type(result).__name__, str(result)
    return [(rec.phi.hex(), rec.category, rec.state.phi.hex(),
             rec.state.a.hex(), rec.state.a_prime.hex(), rec.state.tip_factor.hex(),
             rec.state.residual.hex(), rec.state.lift_sign, rec.state.note)
            for rec in result.records]


def _scanned_alone(geom, polar, corr, grid_size):
    try:
        return _outcome(scan_roots(geom, polar, corr, grid_size))
    except BemError as exc:
        return _outcome(exc)


def _batch_element(kind, lam, gamma, chord, r):
    """An element of a mixed batch: ``empty`` has no scan domain under a
    correction or tip loss, ``no_root`` has no root below phi_upper on the
    demo polar, and ``no_tip_radius`` cannot take tip loss."""
    gamma, chord = {"empty": (-1.5, chord), "no_root": (1.2, 0.1)}.get(kind, (gamma, chord))
    return make_geom(lam=lam, gamma=gamma, chord=chord, r=r,
                     tip_radius=None if kind == "no_tip_radius" else 1.0)


@pytest.mark.parametrize("variant", CORRECTION_VARIANTS)
@pytest.mark.parametrize("tip", [False, True])
@settings(max_examples=12, deadline=None, database=None)
@given(polar=st.sampled_from(sorted(_BATCH_POLARS)), strict=st.booleans(),
       grid_size=st.sampled_from([100, 160, 240, 400]),
       elements=st.lists(st.tuples(
           st.sampled_from(["plain", "plain", "empty", "no_root", "no_tip_radius"]),
           st.floats(0.5, 4.0), st.floats(-0.2, 0.4), st.floats(0.02, 1.5),
           st.floats(0.1, 0.98)), min_size=1, max_size=5))
def test_batched_scan_equals_each_scan_alone(variant, tip, polar, strict, grid_size, elements):
    polar = _BATCH_POLARS[polar]
    corr = CorrectionSpec(variant=variant, tip_loss=tip, strict_lemma_mode=strict)
    geoms = [_batch_element(*element) for element in elements]
    got = [_outcome(result) for result in _scan_many(geoms, polar, corr, grid_size)]
    assert got == [_scanned_alone(geom, polar, corr, grid_size) for geom in geoms]


def test_batched_scan_keeps_each_outcome_with_its_element():
    polar, corr = _BATCH_POLARS["demo"], wilson(tip=True)
    design_error = DomainError("a design that failed")
    geoms = [_batch_element(kind, 1.4, 0.2, 0.4, 0.5)
             for kind in ("plain", "empty", "no_root", "no_tip_radius")]
    out = _scan_many(geoms + [design_error], polar, corr, 240)
    assert len(out[0].records) == 1 and out[2].records == []
    assert isinstance(out[1], ValidationError) and "I+ is empty" in str(out[1])
    assert isinstance(out[3], ValidationError) and "tip_radius" in str(out[3])
    assert out[4] is design_error  # passed through
    assert [_outcome(result) for result in out[:4]] == [
        _scanned_alone(geom, polar, corr, 240) for geom in geoms]
    with pytest.raises(ValidationError, match="grid_size must be an integer >= 100"):
        _scan_many(geoms[:2], polar, corr, 99)  # once per call, before any element
    assert _scan_many([], polar, corr, 240) == []


def test_batched_scan_calls_the_grid_kernel_once(monkeypatch):
    polar, corr = _BATCH_POLARS["demo"], wilson(tip=True)
    geoms = [_batch_element(kind, 1.4, 0.2, 0.4, 0.5)
             for kind in ("plain", "no_tip_radius", "no_root", "no_tip_radius")]
    want = [_scanned_alone(geom, polar, corr, 240) for geom in geoms]
    kernel, calls = solvers._residual_grid, []

    def counted(*args):
        calls.append(len(args[0]))
        return kernel(*args)

    monkeypatch.setattr(solvers, "_residual_grid", counted)
    out = _scan_many(geoms, polar, corr, 240)
    assert calls == [2]  # the two elements with a tip_radius, in one call
    assert [_outcome(result) for result in out] == want
    assert [type(result).__name__ for result in out[1::2]] == ["ValidationError"] * 2


def test_batched_grids_hold_each_elements_own_grid():
    # _scan_many makes all its grids with one linspace: a row that differed in
    # a bit from the element's own grid could move a batched root
    gen = rng(16)
    for _ in range(200):
        count, size = int(gen.integers(1, 12)), int(gen.integers(100, 500))
        lo = gen.uniform(1e-9, 0.8, count)
        hi = lo + gen.uniform(1e-6, 1.5, count)
        grids = np.linspace(lo, hi, size, axis=1)
        for row, a, b in zip(grids, lo.tolist(), hi.tolist()):
            assert row.tobytes() == np.linspace(a, b, size).tobytes()


def test_scan_tip_loss_without_tip_radius_raises(linear_polar):
    geom = make_geom(gamma=0.05)  # no tip_radius
    with pytest.raises(ValidationError, match="tip_radius"):
        scan_roots(geom, linear_polar, wilson(tip=True))
    with pytest.raises(ValidationError, match="tip_radius"):
        solve_fixed_point(geom, linear_polar, wilson(tip=True))


# ---------------------------------------------------------------------------
# cross-method agreement


def test_methods_agree_on_shared_root(linear_polar):
    geom = make_geom(gamma=0.05)
    corr = wilson()
    stars = {}
    for name, method in METHODS.items():
        report = method(geom, linear_polar, corr)
        assert report.converged, name
        assert abs(report.state.residual) <= 1e-10
        stars[name] = report.phi_star
    values = list(stars.values())
    assert max(values) - min(values) < 1e-8
