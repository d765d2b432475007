import math
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from glauert_bem import design
from glauert_bem import (
    AdjointError,
    BemError,
    CorrectionSpec,
    DesignEvaluationError,
    DomainError,
    ElementGeometry,
    FlowState,
    NoPositiveLiftError,
    PolarTable,
    TurbineConfig,
    ValidationError,
    J_lambda,
    assemble_adjoint,
    cp_sweep,
    landscape,
    load_polar,
    mu_G,
    optimize_element,
    simplified_closed_forms,
    simplified_optimum,
    solve_element,
    synthetic_polar,
)
from glauert_bem.design import (_adjoint, _chosen_root, _density, _newton_near,
                                _objective_pieces, cp_integral)
from glauert_bem.model import (CORRECTION_VARIANTS, _evaluation, _slope, mu_L, recover_induction,
                               residual)
from glauert_bem.solvers import RootSet, _brentq, _scan_domain, classify_root, scan_roots

from conftest import make_geom, rng, trivial, wilson, zero_lift_polar


def _turbine(**kw):
    base = dict(radius=1.2, upstream_speed=1.0, rotation_speed=3.0,
                fluid_density=1.0, lambda_min=0.5, lambda_max=3.0)
    base.update(kw)
    return TurbineConfig(**base)


def _fd_gradient(geom, polar, corr, h=1e-6, scale=1.0):
    """Central differences of the solved power density (full re-solve)."""
    base = solve_element(geom, polar, corr)
    out = []
    for name in ("gamma", "chord"):
        vals = []
        for sign in (+1.0, -1.0):
            shifted = replace(geom, **{name: getattr(geom, name) + sign * h})
            state = solve_element(shifted, polar, corr, phi_hint=base.phi)
            vals.append(scale * J_lambda(shifted, polar, corr, state))
        out.append((vals[0] - vals[1]) / (2.0 * h))
    return np.array(out)


# ---------------------------------------------------------------------------
# drag-free closed forms


def test_closed_forms_frozen_triple():
    a, ap, j = simplified_closed_forms(math.pi / 4, math.pi / 6)
    assert abs(a - 0.31698729810778065) < 1e-15
    assert abs(ap - 0.18301270189221932) < 1e-15
    assert abs(j - 0.125) < 1e-15


def test_closed_forms_vanish_at_theta():
    a, ap, j = simplified_closed_forms(0.7, 0.7)
    assert abs(a) < 1e-15 and abs(ap) < 1e-15 and abs(j) < 1e-15


def test_closed_forms_betz_limit():
    # theta -> 0 at phi = 2 theta / 3 approaches the classical a = 1/3
    theta = 1e-3
    a, _, _ = simplified_closed_forms(theta, 2.0 * theta / 3.0)
    assert abs(a - 1.0 / 3.0) < 1e-3


def test_closed_forms_satisfy_dragfree_system():
    # substituting mu_G for mu_L, (a, a', phi) solves all three equations
    gen = rng(3)
    for _ in range(1000):
        theta = gen.uniform(0.05, 1.5)
        phi = gen.uniform(0.01, 1.0) * theta
        a, ap, _ = simplified_closed_forms(theta, phi)
        lam = 1.0 / math.tan(theta)
        mug = mu_G(theta, phi)
        eq1 = math.tan(phi) * lam * (1.0 + ap) - (1.0 - a)
        eq2 = a / (1.0 - a) - mug * math.cos(phi) / math.sin(phi) ** 2
        eq3 = ap / (1.0 - a) - mug / (lam * math.sin(phi))
        assert max(abs(eq1), abs(eq2), abs(eq3)) < 1e-10


def test_closed_forms_domain():
    with pytest.raises(DomainError):
        simplified_closed_forms(0.5, 0.6)
    with pytest.raises(DomainError):
        simplified_closed_forms(0.5, 0.0)


# ---------------------------------------------------------------------------
# simplified optimum


def test_simplified_optimum_angle_is_two_thirds_theta(linear_polar):
    lam = 1.0 / math.tan(0.6)
    point = simplified_optimum(lam, linear_polar, _turbine())
    assert abs(point.phi_opt - 0.4) < 1e-12


def test_optimum_matches_golden_section_oracle():
    gen = rng(4)
    for _ in range(20):
        theta = gen.uniform(0.05, 1.5)
        # independent golden-section maximization of sin^2(phi) sin(2(theta-phi))
        best = _golden_max(lambda p: math.sin(p) ** 2 * math.sin(2 * (theta - p)),
                           1e-9, theta)
        assert abs(best - 2.0 * theta / 3.0) < 1e-8


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


def test_simplified_optimum_without_positive_lift_raises_from_best_glide_angle():
    # the glide window (0, 0.3] holds no sample, and the interpolant is negative on it
    polar = PolarTable([-0.5, -0.2, 0.4, 0.5], [-1.0, -1.0, -0.1, -0.05], [0.01] * 4,
                       beta=0.3, alpha_s=0.5)
    with pytest.raises(NoPositiveLiftError) as info:
        simplified_optimum(1.5, polar, _turbine())
    assert str(info.value) == "cl <= 0 everywhere on (0, 0.3]"
    assert info.traceback[-1].name == "best_glide_angle"


def test_simplified_optimum_design_meets_the_momentum_curve(dragfree_polar):
    # with (gamma*, c*), the drag-free residual vanishes at phi*
    tb = _turbine()
    lam = 1.75
    point = simplified_optimum(lam, dragfree_polar, tb)
    geom = ElementGeometry.from_turbine(tb, lam, point.gamma, point.chord)
    assert abs(residual(geom, dragfree_polar, trivial(), point.phi_opt)) < 1e-12
    assert abs(mu_L(geom, dragfree_polar, point.phi_opt)
               - mu_G(geom.theta, point.phi_opt)) < 1e-12


# ---------------------------------------------------------------------------
# power density


def test_J_reduces_to_angular_momentum_factor(dragfree_polar):
    geom = make_geom(gamma=0.05)
    state = solve_element(geom, dragfree_polar, trivial())
    j = J_lambda(geom, dragfree_polar, trivial(), state)
    assert abs(j - state.a_prime * (1.0 - state.a)) < 1e-15


def test_J_zero_when_no_rotation(linear_polar):
    geom = make_geom()
    still = FlowState(phi=0.3, a=0.2, a_prime=0.0, tip_factor=1.0, residual=0.0)
    assert J_lambda(geom, linear_polar, trivial(), still) == 0.0


def test_J_errors_on_zero_lift(dragfree_polar):
    geom = make_geom(gamma=0.3)
    state = FlowState(phi=0.3, a=0.1, a_prime=0.05, tip_factor=1.0, residual=0.0)
    with pytest.raises(DesignEvaluationError):
        J_lambda(geom, dragfree_polar, trivial(), state)  # alpha = 0 -> C_L = 0


def test_J_consistent_with_closed_form_at_optimum(dragfree_polar):
    tb = _turbine()
    lam = 1.0  # theta = pi/4
    point = simplified_optimum(lam, dragfree_polar, tb)
    geom = ElementGeometry.from_turbine(tb, lam, point.gamma, point.chord)
    state = solve_element(geom, dragfree_polar, trivial())
    assert abs(state.phi - point.phi_opt) < 1e-9
    assert abs(J_lambda(geom, dragfree_polar, trivial(), state) - point.J) < 1e-9
    assert abs(point.J - 0.125) < 1e-12


# ---------------------------------------------------------------------------
# adjoint system


def test_adjoint_matrix_entries_dragfree(dragfree_polar):
    geom = make_geom(gamma=0.05)
    corr = trivial()
    state = solve_element(geom, dragfree_polar, corr)
    adj = assemble_adjoint(geom, dragfree_polar, corr, state)
    nu = 1.0 - state.a
    assert abs(adj.M[1, 1] - 1.0 / nu ** 2) < 1e-12
    assert abs(adj.M[1, 2] - state.a_prime / nu ** 2) < 1e-12
    assert abs(adj.M[2, 2] - 1.0 / nu) < 1e-12
    assert adj.M[2, 1] == 0.0
    # solve quality: M p = b residual
    assert np.max(np.abs(adj.M @ adj.p - adj.b)) < 1e-10


def test_adjoint_b2_vanishes_without_rotation(linear_polar):
    geom = make_geom(gamma=0.05)
    state = FlowState(phi=0.3, a=0.2, a_prime=0.0, tip_factor=1.0, residual=0.0)
    adj = assemble_adjoint(geom, linear_polar, trivial(), state)
    assert adj.b[1] == 0.0


@pytest.mark.parametrize("corr,geom_kw", [
    (CorrectionSpec(variant="none"), dict(gamma=0.05, chord=0.3)),
    (CorrectionSpec(variant="wilson_spera"), dict(gamma=0.05, chord=0.6)),
    (CorrectionSpec(variant="wilson_spera", tip_loss=True),
     dict(gamma=0.05, chord=0.45, r=0.85, tip_radius=1.0)),
    (CorrectionSpec(variant="buhl", tip_loss=True),
     dict(gamma=0.1, chord=0.7, r=0.7, tip_radius=1.0, lam=1.2)),
])
def test_adjoint_gradient_matches_finite_differences(corr, geom_kw):
    polar = synthetic_polar("linear_lift", slope=2 * math.pi, cd0=0.02,
                            cd2=0.05, beta=0.4)
    geom = make_geom(**geom_kw)
    state = solve_element(geom, polar, corr)
    adj = assemble_adjoint(geom, polar, corr, state)
    fd = _fd_gradient(geom, polar, corr)
    rel = np.abs(adj.grad - fd) / np.maximum(np.abs(fd), 1e-12)
    assert np.all(rel <= 1e-5)


def test_printed_form_disagrees_and_is_reported(linear_polar):
    # the printed phi-row right-hand side does not weight the drag term
    # ratio / sin^2(phi) by a'(1-a); built here from the returned M, b and
    # state as a local oracle, it deviates from the finite-difference arbiter
    geom = make_geom(gamma=0.05, chord=0.3)
    corr = trivial()
    state = solve_element(geom, linear_polar, corr)
    adj = assemble_adjoint(geom, linear_polar, corr, state)
    fd = _fd_gradient(geom, linear_polar, corr)
    assert np.all(np.abs(adj.grad - fd) <= 1e-5 * np.abs(fd))

    _, cl, cd, dcl, dcd, cot, ratio, dratio = _objective_pieces(geom, linear_polar, state)
    s, c, nu, ap = math.sin(state.phi), math.cos(state.phi), 1.0 - state.a, state.a_prime
    b_printed = adj.b.copy()
    b_printed[0] = ap * nu * (-dratio) * cot + ratio / (s * s)  # F = 1, F' = 0, unscaled
    p_printed = np.linalg.solve(adj.M, b_printed)
    # J and the thrust and torque balances differentiated in (gamma, chord) at
    # fixed (phi, a, a'), F = 1: the twist enters through alpha only
    quarter, lam = 0.25 * geom.solidity, geom.lam
    dj = ap * nu * dratio * cot
    dg2 = (quarter * (dcl * c + dcd * s) / (s * s),
           -quarter * (cl * c + cd * s) / (geom.chord * s * s))
    dg3 = (quarter * (dcl * s - dcd * c) / (lam * s * s),
           -quarter * (cl * s - cd * c) / (geom.chord * lam * s * s))
    grad_printed = np.array([dj - p_printed[1] * dg2[0] - p_printed[2] * dg3[0],
                             -p_printed[1] * dg2[1] - p_printed[2] * dg3[1]])
    assert np.any(np.abs(grad_printed - fd) > 1e-3 * np.abs(fd))


def test_gradient_scaling_against_fd_when_chord_doubles(dragfree_polar):
    # the chord derivative is checked by the same oracle at c and 2c
    corr = trivial()
    for chord in (0.05, 0.1):
        geom = make_geom(gamma=0.05, chord=chord)
        for g in (geom, replace(geom, chord=2 * chord)):
            fd = _fd_gradient(g, dragfree_polar, corr)
            adj = assemble_adjoint(g, dragfree_polar, corr,
                                   solve_element(g, dragfree_polar, corr)).grad
            assert np.all(np.abs(adj - fd) <= 1e-5 * np.maximum(np.abs(fd), 1e-8))


def test_gradient_with_cp_scale(linear_polar):
    geom = make_geom(gamma=0.05, chord=0.3)
    corr = trivial()
    state = solve_element(geom, linear_polar, corr)
    plain = assemble_adjoint(geom, linear_polar, corr, state).grad
    scaled = assemble_adjoint(geom, linear_polar, corr, state, lambda_max=3.0).grad
    factor = 8.0 * geom.lam ** 3 / 9.0
    assert np.allclose(scaled, factor * plain, rtol=1e-12)


def _random_element(stall, slope, cd0, cd2, alpha_s, drop, lam, gamma, chord, r):
    if stall:
        polar = synthetic_polar("linear_lift_with_stall", slope=slope, alpha_s=alpha_s,
                                drop=drop, transition=0.05, cd0=cd0, cd2=cd2)
    else:
        polar = synthetic_polar("linear_lift", slope=slope, cd0=cd0, cd2=cd2, beta=0.4)
    return make_geom(lam=lam, gamma=gamma, chord=chord, r=r, tip_radius=1.0), polar


_ELEMENTS = dict(stall=st.booleans(), slope=st.floats(3.0, 7.0), cd0=st.floats(0.0, 0.03),
                 cd2=st.floats(0.0, 0.5), alpha_s=st.floats(0.15, 0.4),
                 drop=st.floats(0.0, 0.8), lam=st.floats(0.5, 4.0),
                 gamma=st.floats(-0.2, 0.4), chord=st.floats(0.02, 1.5),
                 r=st.floats(0.1, 0.98))


@pytest.mark.parametrize("variant", CORRECTION_VARIANTS)
@pytest.mark.parametrize("tip", [False, True])
@settings(max_examples=30, deadline=None, database=None)
@given(**_ELEMENTS)
def test_cofactor_solve_matches_numpy(variant, tip, **element):
    geom, polar = _random_element(**element)
    corr = CorrectionSpec(variant=variant, tip_loss=tip)
    try:
        adj = assemble_adjoint(geom, polar, corr, solve_element(geom, polar, corr))
    except BemError:
        return  # no root, or no adjoint there
    want = np.linalg.solve(adj.M, adj.b)
    # both solves are stable: each lies within a small multiple of eps cond(M) of
    # the exact solution, relative to its norm (1.6 eps cond(M) at most over 4,800
    # random elements); a flat bound fails where M is ill-conditioned
    bound = 16.0 * np.finfo(float).eps * np.linalg.cond(adj.M) * np.linalg.norm(want)
    assert np.linalg.norm(adj.p - want) <= bound


def _bits(values):
    return [float(v).hex() for v in np.ravel(values)]


@pytest.mark.parametrize("variant", CORRECTION_VARIANTS)
@pytest.mark.parametrize("tip", [False, True])
@settings(max_examples=25, deadline=None, database=None)
@given(lambda_max=st.sampled_from([None, 3.0]), **_ELEMENTS)
def test_optimizer_kernel_gives_the_bits_of_the_public_adjoint_and_J(variant, tip, lambda_max,
                                                                     **element):
    # the optimizer reads J, the gradient and the sensitivity from one lookup of
    # the state's polar terms; assemble_adjoint and J_lambda give the same bits
    geom, polar = _random_element(**element)
    corr = CorrectionSpec(variant=variant, tip_loss=tip)
    try:
        state = solve_element(geom, polar, corr)
        pieces = _objective_pieces(geom, polar, state)
    except BemError:
        return  # no root, or J undefined there
    assert _density(state, pieces).hex() == J_lambda(geom, polar, corr, state).hex()
    try:
        adj = assemble_adjoint(geom, polar, corr, state, lambda_max=lambda_max)
    except AdjointError as exc:
        with pytest.raises(AdjointError) as info:
            _adjoint(geom, corr, state, pieces, lambda_max)
        assert str(info.value) == str(exc)
        return
    rows, rhs, p, grad, sens, scale = _adjoint(geom, corr, state, pieces, lambda_max)
    assert _bits(rows) == _bits(adj.M) and _bits(rhs) == _bits(adj.b)
    assert _bits(p) == _bits(adj.p) and _bits(grad) == _bits(adj.grad)
    assert _bits(sens) == _bits(adj.phi_sensitivity) and scale.hex() == adj.scale.hex()
    assert all(type(v) is float for v in (*rows[0], *rows[1], *rows[2], *rhs, *p, *grad,
                                          *sens, scale))


def test_singular_adjoint_matrix_raises(linear_polar):
    # With the trivial correction det M = M00/nu^3 - (M01 + M02)/(nu lam (1+a')^2),
    # and M00, M01, M02 depend on phi alone: this nu makes M singular.
    geom, phi = make_geom(), 0.3
    m = assemble_adjoint(geom, linear_polar, trivial(),
                         FlowState(phi=phi, a=0.2, a_prime=0.0, tip_factor=1.0,
                                   residual=0.0)).M
    nu = math.sqrt(m[0, 0] * geom.lam / (m[0, 1] + m[0, 2]))
    singular = FlowState(phi=phi, a=1.0 - nu, a_prime=0.0, tip_factor=1.0, residual=0.0)
    with pytest.raises(AdjointError, match="singular"):
        assemble_adjoint(geom, linear_polar, trivial(), singular)


def test_adjoint_at_a_equal_one_raises_adjoint_error(linear_polar):
    # a root at phi ~ 1e-19 of a drag-free element has a = 1, where the balances
    # divide by 1 - a; found by test_cofactor_solve_matches_numpy
    state = FlowState(phi=0.3, a=1.0, a_prime=0.0, tip_factor=1.0, residual=0.0)
    with pytest.raises(AdjointError, match="a = 1"):
        assemble_adjoint(make_geom(), linear_polar, trivial(), state)


def _bracket_oracle(geom, polar, corr, hint):
    """The root of the hint path without Newton: Brent's method on the first
    sign change of windows about the hint that widen from +-delta by 4x."""
    lo_dom, hi_dom = _scan_domain(geom, polar, corr)
    delta = max(1e-4, 1e-3 * (hi_dom - lo_dom))
    while delta < hi_dom - lo_dom:
        lo, hi = max(lo_dom, hint - delta), min(hi_dom, hint + delta)
        if (residual(geom, polar, corr, lo) < 0.0) != (residual(geom, polar, corr, hi) < 0.0):
            return _brentq(lambda p: residual(geom, polar, corr, p), lo, hi)
        delta *= 4.0
    raise AssertionError("no sign change about the hint")


_SENSITIVITY_CASES = [
    (CorrectionSpec(variant="none"), dict(gamma=0.05, chord=0.3)),
    (CorrectionSpec(variant="wilson_spera"), dict(gamma=0.05, chord=0.6)),
    (CorrectionSpec(variant="wilson_spera", tip_loss=True),
     dict(gamma=0.05, chord=0.45, r=0.85, tip_radius=1.0)),
    (CorrectionSpec(variant="buhl", tip_loss=True),
     dict(gamma=0.1, chord=0.7, r=0.7, tip_radius=1.0, lam=1.2)),
    (CorrectionSpec(variant="glauert3", tip_loss=True),
     dict(gamma=0.05, chord=0.9, r=0.8, tip_radius=1.0, lam=1.5)),
]


@pytest.mark.parametrize("corr,geom_kw", _SENSITIVITY_CASES)
def test_phi_sensitivity_matches_central_differences(corr, geom_kw):
    polar = synthetic_polar("linear_lift", slope=2 * math.pi, cd0=0.02, cd2=0.05, beta=0.4)
    geom = make_geom(**geom_kw)
    state = solve_element(geom, polar, corr)
    sens = assemble_adjoint(geom, polar, corr, state).phi_sensitivity
    for k, (name, h) in enumerate((("gamma", 1e-6), ("chord", 1e-6 * geom.chord))):
        roots = [_bracket_oracle(replace(geom, **{name: getattr(geom, name) + sign * h}),
                                 polar, corr, state.phi) for sign in (1.0, -1.0)]
        central = (roots[0] - roots[1]) / (2.0 * h)
        assert abs(sens[k] - central) <= 1e-6 * abs(central)


def test_phi_sensitivity_cases_include_a_correction_branch_root():
    polar = synthetic_polar("linear_lift", slope=2 * math.pi, cd0=0.02, cd2=0.05, beta=0.4)
    categories = set()
    for corr, geom_kw in _SENSITIVITY_CASES:
        geom = make_geom(**geom_kw)
        state = solve_element(geom, polar, corr)
        categories.add(classify_root(geom, polar, corr, state.phi, state))
    assert "correction_branch" in categories


def _counting_scans(monkeypatch):
    calls = []

    def counted(*args, **kwargs):
        calls.append(1)
        return scan_roots(*args, **kwargs)

    monkeypatch.setattr(design, "scan_roots", counted)
    return calls


@pytest.mark.parametrize("variant", CORRECTION_VARIANTS)
@pytest.mark.parametrize("tip", [False, True])
def test_hint_path_newton_agrees_with_the_bracket_oracle(variant, tip, monkeypatch):
    calls = _counting_scans(monkeypatch)
    polar = synthetic_polar("linear_lift", slope=2 * math.pi, cd0=0.01, cd2=0.3, beta=0.4)
    corr = CorrectionSpec(variant=variant, tip_loss=tip)
    gen, solved = rng(7), 0
    for _ in range(12):
        geom = make_geom(lam=gen.uniform(0.8, 3.0), gamma=gen.uniform(-0.05, 0.2),
                         chord=gen.uniform(0.1, 0.8), r=gen.uniform(0.5, 0.95), tip_radius=1.0)
        try:
            root = solve_element(geom, polar, corr).phi
        except BemError:
            continue
        for offset in (0.0, 3e-7, -2e-5, 9e-5):  # inside the first window, +-1e-4 or more
            hint = root + offset
            scans = len(calls)
            state = solve_element(geom, polar, corr, phi_hint=hint)
            assert len(calls) == scans  # Newton found the root without the scan
            assert abs(state.phi - _bracket_oracle(geom, polar, corr, hint)) <= 1e-12
            assert state == recover_induction(geom, polar, corr, state.phi)
            solved += 1
    assert solved >= 24


def test_a_hint_where_the_residual_is_undefined_falls_back_to_the_scan(monkeypatch):
    # near the tip, Glauert empirical without strict_lemma_mode loses the axial
    # balance's monotonicity on about (0.38, 0.46); the one root is at 0.3378
    calls = _counting_scans(monkeypatch)
    polar = synthetic_polar("linear_lift", slope=6.0, cd0=0.01, beta=0.4)
    corr = CorrectionSpec(variant="glauert_empirical", tip_loss=True, strict_lemma_mode=False)
    geom = make_geom(lam=1.0, r=0.97, gamma=0.1, chord=0.3, tip_radius=1.0)
    hint = 0.42
    with pytest.raises(DomainError, match="lost monotonicity"):
        residual(geom, polar, corr, hint)
    assert _newton_near(geom, polar, corr, hint, _scan_domain(geom, polar, corr)) is None
    state = solve_element(geom, polar, corr, phi_hint=hint)
    assert len(calls) == 1
    assert abs(state.phi - 0.3377625077681839) <= 1e-12
    assert state == solve_element(geom, polar, corr)


def test_far_hint_takes_the_scanned_root_nearest_the_hint():
    # Newton from this hint misses; the 240-node scan misses the close pair of
    # stall-branch roots at 0.3541 and 0.3565 but not the one at 0.3788, which
    # is the nearest to the hint of all roots
    polar = synthetic_polar("linear_lift_with_stall", slope=5.5, alpha_s=0.25,
                            cd0=0.01, cd2=0.2)
    corr = CorrectionSpec(variant="none")
    geom = make_geom(lam=2.1392491566629097, r=0.7230401565326536,
                     gamma=0.10361780749955145, chord=0.12765079956842282, tip_radius=1.0)
    hint = 0.47166662051791797
    state = solve_element(geom, polar, corr, phi_hint=hint)
    every_root = scan_roots(geom, polar, corr, grid_size=4000).phis
    assert len(every_root) == 4
    assert abs(state.phi - min(every_root, key=lambda phi: abs(phi - hint))) <= 1e-12
    assert abs(state.phi - 0.3788) <= 1e-4
    assert state == recover_induction(geom, polar, corr, state.phi)


def test_solve_element_never_takes_a_singular_angle_root():
    # the 240-node scan of this drag-free element reports phi = 0 as a principal
    # root with a = 1 (an artefact of its grid) beside the stall-branch root
    polar = synthetic_polar("linear_lift_with_stall", slope=3.0, alpha_s=0.25,
                            cd0=0.0, cd2=0.0)
    geom = make_geom(lam=0.5, gamma=0.0, chord=1.0, r=0.5)
    assert scan_roots(geom, polar, trivial(), grid_size=240).records[0].state.note
    state = solve_element(geom, polar, trivial())
    assert state.note == ""
    assert abs(state.phi - 1.0012) <= 1e-4
    assert abs(state.a - 0.064) <= 1e-3


def _nudged(geom, polar, corr, roots):
    """``roots`` (or a batch entry's error) with every root moved off its angle to
    |residual| of about 1e-11, inside the 1e-10 that a scan holds its roots to."""
    if isinstance(roots, BemError):
        return roots
    records = []
    for rec in roots.records:
        slope = _slope(geom, polar, corr, _evaluation(geom, polar, corr, rec.phi))
        phi = rec.phi + 1e-11 / slope
        records.append(replace(rec, phi=phi, state=recover_induction(geom, polar, corr, phi)))
    return RootSet(records=records)


def _nudged_scan(geom, polar, corr, grid_size):
    return _nudged(geom, polar, corr, scan_roots(geom, polar, corr, grid_size))


@pytest.mark.parametrize("variant", CORRECTION_VARIANTS)
def test_an_unhinted_solve_polishes_its_scanned_root(variant, linear_polar, monkeypatch):
    # the optimizer's start is an unhinted solve: it must hold the hint path's
    # 1e-13, and be the state a hinted re-solve from its own angle returns
    geom, corr = make_geom(gamma=0.05, tip_radius=1.2), CorrectionSpec(variant=variant,
                                                                        tip_loss=True)
    nudged = _nudged(geom, linear_polar, corr, scan_roots(geom, linear_polar, corr, 240))
    assert all(1e-12 < abs(rec.state.residual) < 1e-10 for rec in nudged.records)
    monkeypatch.setattr(design, "scan_roots", _nudged_scan)
    state = solve_element(geom, linear_polar, corr)
    assert abs(state.residual) <= 1e-13
    assert state == solve_element(geom, linear_polar, corr, phi_hint=state.phi)


def test_sweep_and_landscape_polish_their_scanned_roots(linear_polar, monkeypatch):
    # both promise the root solve_element takes without a hint, from the same scan
    corr, scan_many = wilson(tip=True), design._scan_many
    monkeypatch.setattr(design, "_scan_many", lambda geoms, p, c, n: [
        _nudged(g, p, c, roots) for g, roots in zip(geoms, scan_many(geoms, p, c, n))])
    monkeypatch.setattr(design, "scan_roots", _nudged_scan)
    tb = _turbine(lambda_min=1.0, lambda_max=2.5)
    sweep = cp_sweep(tb, linear_polar, corr, lambda lam: (0.05, 0.3), grid_n=4)
    assert sweep.failures == 0
    for el in sweep.elements:
        geom = ElementGeometry.from_turbine(tb, el.lam, el.gamma, el.chord)
        assert abs(el.state.residual) <= 1e-13
        assert el.state == solve_element(geom, linear_polar, corr, phi_hint=el.state.phi)
    geom = make_geom(gamma=0.05, tip_radius=1.2)
    table = landscape(geom, linear_polar, corr, (0.0, 0.1), (0.1, 0.4), resolution=16,
                      grid_size=240)
    assert (~table.invalid).sum() >= 250
    for i, gam in enumerate(table.gammas):
        for k, ch in enumerate(table.chords):
            if table.invalid[i, k]:
                continue
            cell = replace(geom, gamma=float(gam), chord=float(ch))
            state = solve_element(cell, linear_polar, corr)
            assert abs(state.residual) <= 1e-13
            assert table.J[i, k] == J_lambda(cell, linear_polar, corr, state)


@pytest.mark.parametrize("gamma, message", [
    (0.05, "tip loss requires a tip_radius on the element geometry"),
    (-1.5, "working interval I+ is empty for this element"),  # that error comes first
])
def test_an_element_without_a_scan_reports_why_on_every_path(linear_polar, gamma, message):
    geom = make_geom(gamma=gamma)  # no tip_radius
    corr = wilson(tip=True)
    lo, hi = _scan_domain(make_geom(gamma=0.05, tip_radius=1.2), linear_polar, corr)
    for scan in (lambda: solve_element(geom, linear_polar, corr),
                 lambda: solve_element(geom, linear_polar, corr, phi_hint=0.5 * (lo + hi)),
                 lambda: solve_element(geom, linear_polar, corr, phi_hint=hi + 0.1),
                 lambda: scan_roots(geom, linear_polar, corr)):
        with pytest.raises(ValidationError) as info:
            scan()
        assert type(info.value) is ValidationError and str(info.value) == message


# ---------------------------------------------------------------------------
# optimizer


def _design_polar():
    # interior best-glide angle (sqrt(cd0/cd2) = 0.18 < beta) keeps the
    # simplified optimum well inside the trusted lift window
    return synthetic_polar("linear_lift", slope=2 * math.pi, cd0=0.01,
                           cd2=0.3, beta=0.4)


def test_optimizer_improves_from_simplified_start():
    polar = _design_polar()
    tb = _turbine()
    corr = CorrectionSpec(variant="wilson_spera", tip_loss=True)
    lam = 1.75
    start = simplified_optimum(lam, polar, tb)
    geom = ElementGeometry.from_turbine(tb, lam, start.gamma, start.chord)
    j0 = J_lambda(geom, polar, corr, solve_element(geom, polar, corr))
    result = optimize_element(geom, polar, corr, step=0.2, lambda_max=tb.lambda_max)
    assert result.J >= j0
    assert result.accepted_steps > 0
    assert result.converged
    # accepted steps never decrease the objective
    assert all(b >= a for a, b in zip(result.j_history, result.j_history[1:]))


def test_optimizer_trial_solves_start_at_the_predicted_angle(monkeypatch):
    # the criterion-07 rotor: a trial root lies within 1e-5 of its hint, where the
    # current angle is typically 4e-4 away
    polar = _design_polar()
    tb = TurbineConfig(radius=1.2, upstream_speed=1.0, rotation_speed=3.0,
                       lambda_min=1.2, lambda_max=2.6)
    corr = CorrectionSpec(variant="wilson_spera", tip_loss=True)
    start = simplified_optimum(1.6, polar, tb)
    geom = ElementGeometry.from_turbine(tb, 1.6, start.gamma, start.chord)
    moves = []

    def recorded(geom, polar, corr, phi_hint=None):
        state = solve_element(geom, polar, corr, phi_hint=phi_hint)
        if phi_hint is not None:
            moves.append(abs(state.phi - phi_hint))
        return state

    monkeypatch.setattr(design, "solve_element", recorded)
    result = optimize_element(geom, polar, corr, step=0.25, tol=2e-4, max_steps=400,
                              lambda_max=tb.lambda_max)
    assert result.converged and len(moves) >= 10
    assert np.median(moves) <= 1e-5


def test_optimizer_zero_steps_at_stationary_point():
    polar = _design_polar()
    corr = wilson()
    geom = make_geom(gamma=0.05, chord=0.3)
    first = optimize_element(geom, polar, corr, step=0.2, tol=1e-6)
    assert first.converged
    again = optimize_element(replace(geom, gamma=first.gamma, chord=first.chord),
                             polar, corr, step=0.2, tol=1e-5)
    assert again.accepted_steps == 0
    assert again.converged


def test_optimizer_returns_its_last_accepted_point(monkeypatch):
    # the adjoint fails right after the second accepted step: that point is returned
    polar = synthetic_polar("linear_lift", slope=2 * math.pi, cd0=0.01, cd2=0.3, beta=0.4)
    tb = TurbineConfig(radius=1.2, upstream_speed=1.0, rotation_speed=3.0,
                       lambda_min=1.2, lambda_max=2.6)  # the criterion-07 rotor
    corr = CorrectionSpec(variant="wilson_spera", tip_loss=True)
    start = simplified_optimum(1.6, polar, tb)
    geom = ElementGeometry.from_turbine(tb, 1.6, start.gamma, start.chord)
    calls = []

    def failing_third(*args, **kwargs):
        calls.append(1)
        if len(calls) == 3:
            raise DesignEvaluationError("adjoint unavailable")
        return _adjoint(*args, **kwargs)

    monkeypatch.setattr(design, "_adjoint", failing_third)
    result = optimize_element(geom, polar, corr, step=0.25, tol=2e-4, max_steps=400,
                              lambda_max=tb.lambda_max)
    assert result.message == "stopped: adjoint unavailable"
    assert result.accepted_steps == 2 and len(result.j_history) == 3
    scale = 8.0 * 1.6 ** 3 / tb.lambda_max ** 2
    assert result.J == result.j_history[-1] / scale
    assert math.isnan(result.grad_norm)


def test_optimizer_reads_each_solved_states_polar_terms_once(monkeypatch):
    # the start and each trial with a' > 0 look up their polar terms once: an
    # accepted trial's gradient comes from the lookup its J was taken from.  A
    # base step of 435.6 from this start meets trials with a' <= 0, which are
    # rejected without a lookup
    polar, corr, geom = _design_polar(), trivial(), make_geom(gamma=0.05, chord=1.5)
    lookups, solved = [], []

    def counted(*args):
        lookups.append(1)
        return _objective_pieces(*args)

    def recorded(geom, polar, corr, phi_hint=None):
        state = solve_element(geom, polar, corr, phi_hint=phi_hint)
        solved.append(state.a_prime > 0.0)
        return state

    monkeypatch.setattr(design, "_objective_pieces", counted)
    monkeypatch.setattr(design, "solve_element", recorded)
    result = optimize_element(geom, polar, corr, step=435.6)
    assert result.converged and result.accepted_steps > 0
    assert not all(solved) and len(lookups) == sum(solved)


def test_optimizer_halves_a_step_that_takes_the_chord_below_zero(monkeypatch):
    # the base step takes the chord to -0.2: ElementGeometry rejects that trial,
    # and the first trial solved is the halved step
    polar, corr, geom, step = _design_polar(), trivial(), make_geom(gamma=0.05), 20.0
    grad = assemble_adjoint(geom, polar, corr, solve_element(geom, polar, corr)).grad
    assert geom.chord + step * grad[1] <= 0.0
    trials = []

    def recorded(geom, polar, corr, phi_hint=None):
        if phi_hint is not None:
            trials.append((float(geom.gamma), float(geom.chord)))
        return solve_element(geom, polar, corr, phi_hint=phi_hint)

    monkeypatch.setattr(design, "solve_element", recorded)
    result = optimize_element(geom, polar, corr, step=step, tol=1e-3, max_steps=400)
    assert trials[0] == (geom.gamma + 0.5 * step * grad[0], geom.chord + 0.5 * step * grad[1])
    assert result.converged and result.message == "gradient below tolerance"
    assert (result.iterations, result.accepted_steps) == (131, 30)
    assert result.J == pytest.approx(0.0409408277396101, rel=1e-12, abs=0.0)


def test_optimizer_rejects_trials_that_extract_no_power():
    """From this start a base step of 435.6 used to climb to J = 8.9e10 at
    alpha = 1e-16 with a' = -0.0036: the factor 1 - (C_D/C_L) cot(phi) of J
    grows without bound as C_L -> 0+, and a' < 0 turns its sign.  A trial
    with a' <= 0 is unsolvable, so the ascent ends at the optimum that a
    step of 1 finds."""
    geom, polar = make_geom(gamma=0.05, chord=1.5), _design_polar()
    small = optimize_element(geom, polar, trivial(), step=1.0)
    large = optimize_element(geom, polar, trivial(), step=435.6)
    assert small.converged and large.converged
    end = solve_element(replace(geom, gamma=large.gamma, chord=large.chord), polar, trivial(),
                        phi_hint=large.phi_opt)
    assert end.a_prime > 0.0 and end.phi - large.gamma > 0.18
    assert small.J == pytest.approx(0.04095, abs=1e-5)
    assert large.J == pytest.approx(small.J, rel=1e-8, abs=0.0)


def test_optimizer_start_without_power_raises():
    polar = synthetic_polar("linear_lift", slope=3.0, cd0=0.0, cd2=0.125, beta=0.4)
    geom = make_geom(lam=3.0, r=0.5, gamma=-0.0625, chord=1.5, tip_radius=1.0)
    corr = CorrectionSpec(variant="glauert_empirical")
    assert solve_element(geom, polar, corr).a_prime < 0.0
    with pytest.raises(DesignEvaluationError, match="no power"):
        optimize_element(geom, polar, corr, step=1.0, max_steps=1)


def test_optimizer_stops_at_max_steps():
    # trials 1-4 are rejected (the first has chord < 0), the fifth is accepted
    # and the sixth is the last allowed
    result = optimize_element(make_geom(gamma=0.05), _design_polar(), trivial(),
                              step=20.0, tol=1e-6, max_steps=6)
    assert result.message == "max_steps reached" and not result.converged
    assert (result.iterations, result.accepted_steps, len(result.j_history)) == (6, 1, 2)
    assert result.J == pytest.approx(0.040378344175824574, rel=1e-12, abs=0.0)


@pytest.mark.parametrize("variant", CORRECTION_VARIANTS)
@pytest.mark.parametrize("tip", [False, True])
@settings(max_examples=25, deadline=None, database=None)
@given(step=st.floats(0.01, 50.0), max_steps=st.integers(1, 20),
       lambda_max=st.sampled_from([None, 4.0]), **_ELEMENTS)
def test_optimizer_invariants(variant, tip, step, max_steps, lambda_max, **element):
    geom, polar = _random_element(**element)
    corr = CorrectionSpec(variant=variant, tip_loss=tip)
    try:
        result = optimize_element(geom, polar, corr, step=step, tol=1e-6,
                                  max_steps=max_steps, lambda_max=lambda_max)
    except BemError:
        return  # the start is unsolvable: the only error that may escape
    history = result.j_history
    assert all(b >= a for a, b in zip(history, history[1:]))
    assert result.accepted_steps == len(history) - 1
    assert result.iterations <= max_steps
    end = replace(geom, gamma=result.gamma, chord=result.chord)
    state = solve_element(end, polar, corr, phi_hint=result.phi_opt)
    assert result.J == pytest.approx(J_lambda(end, polar, corr, state), rel=1e-12, abs=0.0)


_FLOAT_POLARS = {
    "linear": _design_polar(),
    "stall": synthetic_polar("linear_lift_with_stall", slope=6.0, alpha_s=0.3, drop=0.5,
                             transition=0.05, cd0=0.012, cd2=0.1),
    "demo": load_polar(Path(__file__).resolve().parents[1] / "demo" / "polar.csv"),
}


def _criterion_07_start(polar, blade_count=3):
    """The criterion-07 rotor and its simplified optimum at lambda 1.6."""
    tb = TurbineConfig(radius=1.2, upstream_speed=1.0, rotation_speed=3.0, lambda_min=1.2,
                       lambda_max=2.6, blade_count=blade_count)
    start = simplified_optimum(1.6, polar, tb)
    return tb, ElementGeometry.from_turbine(tb, 1.6, start.gamma, start.chord)


@pytest.mark.parametrize("polar_name", sorted(_FLOAT_POLARS))
@pytest.mark.parametrize("variant", CORRECTION_VARIANTS)
@pytest.mark.parametrize("tip", [False, True])
def test_optimizer_steps_in_python_floats(polar_name, variant, tip, monkeypatch):
    # a step taken with the adjoint's numpy gradient makes every later trial's
    # gamma, chord and hint a numpy.float64, and the hint Newton numpy scalar arithmetic
    polar = _FLOAT_POLARS[polar_name]
    tb, geom = _criterion_07_start(polar)
    corr = CorrectionSpec(variant=variant, tip_loss=tip)
    seen = []

    def evaluation(geom, polar, corr, phi, lift=True):
        seen.append((phi, geom.gamma, geom.chord))
        return _evaluation(geom, polar, corr, phi, lift)

    def slope(geom, polar, corr, ev):
        seen.append((ev.phi, geom.gamma, geom.chord))
        return _slope(geom, polar, corr, ev)

    monkeypatch.setattr(design, "_evaluation", evaluation)
    monkeypatch.setattr(design, "_slope", slope)
    result = optimize_element(geom, polar, corr, step=0.25, tol=2e-4, max_steps=400,
                              lambda_max=tb.lambda_max)
    assert result.accepted_steps > 0 and seen
    assert {type(x) for values in seen for x in values} == {float}
    fields = [result.gamma, result.chord, result.phi_opt, result.J, result.grad_norm,
              *result.j_history]
    assert {type(x) for x in fields} == {float}


@pytest.mark.parametrize("polar_name", sorted(_FLOAT_POLARS))
def test_optimizer_trials_keep_the_start_placement(polar_name, monkeypatch):
    # a trial is built from the current geometry's fields, so none may be lost;
    # two blades and a tip radius differ from the field defaults
    polar = _FLOAT_POLARS[polar_name]
    tb, geom = _criterion_07_start(polar, blade_count=2)
    corr = CorrectionSpec(variant="wilson_spera", tip_loss=True)
    placements = []

    def recorded(trial, polar, corr, phi_hint=None):
        placements.append((trial.lam, trial.r, trial.blade_count, trial.tip_radius))
        return solve_element(trial, polar, corr, phi_hint=phi_hint)

    monkeypatch.setattr(design, "solve_element", recorded)
    result = optimize_element(geom, polar, corr, step=0.25, tol=2e-4, max_steps=400,
                              lambda_max=tb.lambda_max)
    assert result.accepted_steps > 0 and len(placements) > result.accepted_steps
    assert set(placements) == {(geom.lam, geom.r, 2, 1.2)}


def test_optimizer_stops_when_no_ascent_step_is_acceptable():
    # with tol = 0 the gradient never falls below it: backtracking from the
    # plain model's optimum ends with a step too small to change the design
    polar = _design_polar()
    tb = TurbineConfig(radius=1.2, upstream_speed=1.0, rotation_speed=3.0)
    start = simplified_optimum(1.4, polar, tb)
    geom = ElementGeometry.from_turbine(tb, 1.4, start.gamma, start.chord)
    result = optimize_element(geom, polar, CorrectionSpec(variant="none"), step=0.25,
                              tol=0.0, max_steps=5000, lambda_max=3.0)
    assert result.message == "no acceptable ascent step"
    assert result.converged is False
    assert result.iterations < 5000 and result.accepted_steps > 0
    history = result.j_history
    assert all(b >= a for a, b in zip(history, history[1:]))


def test_optimizer_rejects_bad_step():
    # a NaN step or tol once passed the check and ran every trial to max_steps
    for settings in [dict(step=-1.0), dict(step=0.0), dict(step=math.nan), dict(step=math.inf),
                     dict(tol=math.nan), dict(tol=-1.0)]:
        with pytest.raises(ValidationError):
            optimize_element(make_geom(), synthetic_polar("linear_lift"), wilson(), **settings)


# ---------------------------------------------------------------------------
# Cp quadrature and sweeps


def test_cp_integral_zero_design():
    lambdas = np.linspace(0.5, 3.0, 40)
    assert cp_integral(lambdas, np.zeros(40), 3.0) == 0.0


def test_cp_integral_exact_on_constant_integrand():
    # lambda^3 J forced to a constant k: trapezoid is exact
    lambdas = np.linspace(0.5, 3.0, 37)
    k = 0.7
    j = k / lambdas ** 3
    expected = 8.0 * k * (3.0 - 0.5) / 9.0
    assert abs(cp_integral(lambdas, j, 3.0) - expected) < 1e-14


def test_cp_sweep_runs_and_refines():
    polar = _design_polar()
    tb = _turbine()
    corr = wilson(tip=True)

    def design(lam):
        point = simplified_optimum(lam, polar, tb)
        return point.gamma, point.chord

    coarse = cp_sweep(tb, polar, corr, design, grid_n=50)
    fine = cp_sweep(tb, polar, corr, design, grid_n=400)
    assert coarse.failures == 0 and fine.failures == 0
    assert 0.0 < coarse.cp < 16.0 / 27.0 + 0.2
    assert abs(fine.cp - coarse.cp) < 1e-4  # smooth design: refinement stable


def test_cp_sweep_order_independent():
    polar = _design_polar()
    tb = _turbine()
    corr = wilson(tip=True)

    def design(lam):
        point = simplified_optimum(lam, polar, tb)
        return point.gamma, point.chord

    first = cp_sweep(tb, polar, corr, design, grid_n=30)
    second = cp_sweep(tb, polar, corr, design, grid_n=30)
    assert first.cp == second.cp  # bit-identical deterministic reduction


def test_cp_sweep_flags_failed_elements(stall_polar):
    tb = _turbine()
    corr = trivial()

    def design(lam):
        # invalid geometry for small lambda: recorded as a failed element
        return 0.0, -1.0 if lam < 1.0 else 0.3

    result = cp_sweep(tb, stall_polar, corr, design, grid_n=12)
    assert 0 < result.failures < 12
    for elem in result.elements:
        if not elem.ok:
            assert elem.J == 0.0 and elem.state is None
    with pytest.raises(DomainError):
        cp_sweep(tb, stall_polar, corr, lambda lam: (0.0, -1.0), grid_n=5)


def test_cp_sweep_flags_a_failed_design():
    polar = _design_polar()
    tb = _turbine()
    corr = wilson(tip=True)

    def design(lam):
        if lam == tb.lambda_min:  # as a corrected design whose first solve fails
            raise DomainError("no root of the scalar equation on the working interval")
        point = simplified_optimum(lam, polar, tb)
        return point.gamma, point.chord

    result = cp_sweep(tb, polar, corr, design, grid_n=12)
    assert result.failures == 1
    failed = result.elements[0]
    assert not failed.ok and failed.J == 0.0 and failed.state is None
    assert math.isnan(failed.gamma) and math.isnan(failed.chord)
    assert "no root" in failed.message
    assert all(elem.ok for elem in result.elements[1:])


def _state_bits(state):
    return [float(getattr(state, name)).hex() for name in ("phi", "a", "a_prime", "tip_factor",
                                                           "residual")] + [state.note]


@pytest.mark.parametrize("variant", CORRECTION_VARIANTS)
@pytest.mark.parametrize("tip", [False, True])
def test_cp_sweep_elements_are_solve_element_states(variant, tip):
    polar, tb = _design_polar(), _turbine()
    corr = CorrectionSpec(variant=variant, tip_loss=tip)

    def design(lam):
        if lam < 0.7:
            raise DomainError("a design that failed")
        if 1.5 < lam < 2.0:
            return 1.2, 0.1  # no root below phi_upper
        point = simplified_optimum(lam, polar, tb)
        return point.gamma, point.chord

    result = cp_sweep(tb, polar, corr, design, grid_n=12)
    assert any(elem.ok for elem in result.elements)
    assert type(result.cp) is float
    for elem in result.elements:
        try:
            geom = ElementGeometry.from_turbine(tb, elem.lam, *design(elem.lam))
            state = solve_element(geom, polar, corr)
            want = (_state_bits(state), J_lambda(geom, polar, corr, state).hex(), True, "")
        except BemError as exc:
            want = (None, 0.0.hex(), False, str(exc))
        got = (elem.state and _state_bits(elem.state), elem.J.hex(), elem.ok, elem.message)
        assert got == want, elem.lam


def test_cp_sweep_validation(linear_polar):
    tb = _turbine()
    with pytest.raises(ValidationError):
        cp_sweep(tb, linear_polar, trivial(), lambda lam: (0.1, 0.2), grid_n=1)


# ---------------------------------------------------------------------------
# landscape


def test_landscape_argmax_agrees_with_optimizer():
    polar = _design_polar()
    geom = make_geom(gamma=0.05, chord=0.3)
    corr = wilson()
    result = optimize_element(geom, polar, corr, step=0.2, tol=1e-6)
    assert result.converged
    grid = landscape(geom, polar, corr,
                     (result.gamma - 0.08, result.gamma + 0.08),
                     (result.chord - 0.15, result.chord + 0.15),
                     resolution=16, grid_size=120)
    assert grid.J.shape == (16, 16)
    assert not grid.invalid.any()
    masked = np.where(np.isfinite(grid.J), grid.J, -np.inf)
    gi, ci = np.unravel_index(int(np.argmax(masked)), masked.shape)
    dg = grid.gammas[1] - grid.gammas[0]
    dc = grid.chords[1] - grid.chords[0]
    assert abs(result.gamma - grid.gammas[gi]) <= 1.5 * dg
    assert abs(result.chord - grid.chords[ci]) <= 1.5 * dc


def test_landscape_flags_unsolvable_cells(linear_polar):
    # strongly negative twist shrinks the working window until no root fits
    geom = make_geom(gamma=0.05, chord=0.3)
    grid = landscape(geom, linear_polar, wilson(), (-0.3, 0.1), (0.05, 1.0),
                     resolution=16, grid_size=120)
    assert grid.invalid.any()
    assert (~grid.invalid).any()
    assert np.all(np.isnan(grid.J[grid.invalid]))


def test_landscape_marks_a_cell_whose_root_has_zero_lift_invalid_and_multiple():
    # with theta - gamma in the flat run, the plain model has a root at phi = theta
    # where C_L = 0, so J is undefined there
    polar = zero_lift_polar()
    geom = ElementGeometry(lam=1.0, r=1.0, gamma=0.25, chord=0.3)
    grid = landscape(geom, polar, trivial(), (0.25, 0.4), (0.1, 1.0), resolution=16,
                     grid_size=160)
    zero_lift = single_root = 0
    for i, gam in enumerate(grid.gammas):
        for k, ch in enumerate(grid.chords):
            cell = replace(geom, gamma=float(gam), chord=float(ch))
            state = solve_element(cell, polar, trivial())
            if polar.cl(state.phi - cell.gamma) != 0.0:
                assert not grid.invalid[i, k] and math.isfinite(grid.J[i, k])
                continue
            zero_lift += 1
            assert abs(state.phi - cell.theta) <= 1e-12
            assert grid.invalid[i, k] and grid.multiple[i, k] and math.isnan(grid.J[i, k])
            # multiple also where the scan has one root: it flags the undefined objective
            single_root += len(scan_roots(cell, polar, trivial(), 160).records) == 1
    assert 0 < zero_lift < 16 * 16
    assert single_root > 0


def test_landscape_multiplicity_flag_on_stall_polar(stall_polar):
    geom = ElementGeometry(lam=1.0, r=1.0, gamma=0.1, chord=0.8)
    grid = landscape(geom, stall_polar, trivial(), (0.0, 0.2), (0.5, 1.5),
                     resolution=16, grid_size=160)
    assert grid.multiple.all()


def test_landscape_monotone_case_single_region():
    polar = _design_polar()
    geom = make_geom(gamma=0.05, chord=0.3)
    grid = landscape(geom, polar, wilson(), (0.1, 0.24), (0.28, 0.58),
                     resolution=16, grid_size=120)
    assert not grid.multiple.any()
    assert not grid.invalid.any()


def test_landscape_rejects_a_too_small_scan_grid(linear_polar):
    geom = make_geom(gamma=0.05, chord=0.3)
    with pytest.raises(ValidationError, match="grid_size must be >= 100"):
        landscape(geom, linear_polar, wilson(), (0.0, 0.1), (0.2, 0.4),
                  resolution=16, grid_size=99)


def _landscape_cell_by_cell(geom, polar, corr, gamma_range, chord_range, resolution,
                            grid_size):
    """(J, multiple, invalid) of :func:`landscape` with one ``scan_roots`` per
    cell, as it was computed before its scans were batched."""
    gammas = np.linspace(gamma_range[0], gamma_range[1], resolution)
    chords = np.linspace(chord_range[0], chord_range[1], resolution)
    j = np.full((resolution, resolution), math.nan)
    multiple = np.zeros((resolution, resolution), dtype=bool)
    invalid = np.zeros((resolution, resolution), dtype=bool)
    for i, gam in enumerate(gammas):
        for k, ch in enumerate(chords):
            if ch <= 0.0 or abs(gam) >= math.pi / 2.0:
                invalid[i, k] = True
                continue
            cell = replace(geom, gamma=float(gam), chord=float(ch))
            try:
                roots = scan_roots(cell, polar, corr, grid_size=grid_size)
                chosen = _chosen_root(roots)
            except BemError:
                invalid[i, k] = True
                continue
            multiple[i, k] = len(roots.records) > 1
            try:
                j[i, k] = J_lambda(cell, polar, corr, chosen.state)
            except DesignEvaluationError:
                invalid[i, k] = True
                multiple[i, k] = True
    return j, multiple, invalid


@pytest.mark.parametrize("corr, polar, gamma_range, chord_range", [
    (trivial(), "stall", (0.0, 0.2), (0.5, 1.5)),
    (wilson(tip=True), "design", (-0.3, 0.3), (-0.2, 1.0)),  # chord <= 0, empty domains
    (CorrectionSpec(variant="glauert3", tip_loss=True), "design", (-0.1, 0.4), (0.02, 0.5)),
    (CorrectionSpec(variant="buhl"), "stall", (-1.6, 1.6), (0.05, 1.5)),  # |gamma| >= pi/2
])
def test_landscape_equals_a_scan_per_cell(corr, polar, gamma_range, chord_range, stall_polar):
    polar = stall_polar if polar == "stall" else _design_polar()
    geom = make_geom(gamma=0.05, chord=0.3, r=0.6, tip_radius=1.0)
    got = landscape(geom, polar, corr, gamma_range, chord_range, resolution=16, grid_size=100)
    j, multiple, invalid = _landscape_cell_by_cell(geom, polar, corr, gamma_range, chord_range,
                                                   16, 100)
    assert [x.hex() for x in got.J.ravel()] == [x.hex() for x in j.ravel()]
    assert np.array_equal(got.multiple, multiple) and np.array_equal(got.invalid, invalid)
    assert (~invalid).any()


def test_landscape_validation(linear_polar):
    with pytest.raises(ValidationError):
        landscape(make_geom(), linear_polar, trivial(), (0, 0.1), (0.1, 0.2),
                  resolution=8)
