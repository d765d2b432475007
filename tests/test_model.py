import copy
import math
import pickle
from dataclasses import FrozenInstanceError, fields, replace
from decimal import Decimal
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from glauert_bem import model
from glauert_bem import (
    BemError,
    CorrectionSpec,
    DomainError,
    ElementGeometry,
    TipSingularityError,
    TurbineConfig,
    ValidationError,
    load_polar,
    mu_G,
    mu_G_c,
    recover_induction,
    residual,
    synthetic_polar,
    tip_loss_factor,
)
from glauert_bem.model import (
    CORRECTION_VARIANTS,
    PHI_EPS,
    _mu_c_prime_grid,
    _residual_grid,
    g_func,
    mu_D,
    mu_G_prime,
    mu_L,
    tau_nu,
)
from glauert_bem.solvers import grid_I_plus, solve_bisection, SolveOptions

from conftest import make_geom, rng, trivial, wilson


# ---------------------------------------------------------------------------
# geometry and configuration types


def test_geometry_derived_quantities():
    geom = ElementGeometry(lam=2.0, r=0.8, gamma=0.1, chord=0.25, blade_count=3)
    assert abs(geom.solidity - 3 * 0.25 / (2 * math.pi * 0.8)) < 1e-15
    assert abs(geom.theta - math.atan(0.5)) < 1e-15


@settings(max_examples=100, deadline=None, database=None)
@given(lam=st.floats(0.05, 20.0), r=st.floats(0.01, 5.0), gamma=st.floats(-1.5, 1.5),
       chord=st.floats(1e-3, 3.0), blades=st.integers(1, 12),
       tip=st.none() | st.floats(1.0, 4.0), moved=st.floats(0.05, 20.0))
def test_element_constants_equal_their_formulas_and_are_not_fields(lam, r, gamma, chord,
                                                                  blades, tip, moved):
    tip_radius = None if tip is None else tip * r
    geom = ElementGeometry(lam=lam, r=r, gamma=gamma, chord=chord, blade_count=blades,
                           tip_radius=tip_radius)
    twin = ElementGeometry(lam, r, gamma, chord, blades, tip_radius)
    for g in (geom, twin, pickle.loads(pickle.dumps(geom)), copy.deepcopy(geom),
              replace(geom, lam=moved), replace(geom, tip_radius=None), replace(geom, r=r / 2)):
        ratio = None if g.tip_radius is None else g.r / g.tip_radius
        assert g.theta == math.atan2(1.0, g.lam)
        assert g.solidity == g.blade_count * g.chord / (2.0 * math.pi * g.r)
        if ratio is None:
            assert g.tip_rate is None
            with pytest.raises(ValidationError, match="tip_radius"):
                model._tip_rate(g)
        else:
            assert g.tip_rate == 0.5 * g.blade_count * (1.0 - ratio) / ratio
            assert model._tip_rate(g) == g.tip_rate
    assert [f.name for f in fields(geom)] == ["lam", "r", "gamma", "chord", "blade_count",
                                              "tip_radius"]
    assert twin == geom and hash(twin) == hash(geom) and repr(twin) == repr(geom)
    assert "theta" not in repr(geom) and "solidity" not in repr(geom)
    assert replace(geom, lam=moved) == ElementGeometry(moved, r, gamma, chord, blades, tip_radius)
    with pytest.raises(FrozenInstanceError):
        geom.theta = 0.0


@pytest.mark.parametrize("variant", CORRECTION_VARIANTS)
@pytest.mark.parametrize("tip", [False, True])
def test_correction_is_trivial_is_computed_once_and_is_not_a_field(variant, tip):
    corr = CorrectionSpec(variant=variant, tip_loss=tip)
    flipped = replace(corr, tip_loss=not tip)
    for c in (corr, flipped, pickle.loads(pickle.dumps(corr)), copy.deepcopy(corr),
              replace(corr, variant="none")):
        assert c.is_trivial is (c.variant == "none" and not c.tip_loss)
    assert [f.name for f in fields(corr)] == ["variant", "a_c", "tip_loss", "strict_lemma_mode"]
    twin = CorrectionSpec(variant=variant, tip_loss=tip)
    assert twin == corr and hash(twin) == hash(corr) and "is_trivial" not in repr(corr)
    assert flipped != corr
    with pytest.raises(FrozenInstanceError):
        corr.is_trivial = True


def test_geometry_validation():
    with pytest.raises(ValidationError):
        ElementGeometry(lam=1.0, r=1.0, gamma=1.6, chord=0.1)
    with pytest.raises(ValidationError):
        ElementGeometry(lam=1.0, r=1.0, gamma=0.0, chord=-0.1)
    with pytest.raises(ValidationError):
        ElementGeometry(lam=1.0, r=2.0, gamma=0.0, chord=0.1, tip_radius=1.0)


def test_turbine_config_validation():
    TurbineConfig(radius=1.1, upstream_speed=1.0, rotation_speed=3.0, lambda_max=3.0)
    with pytest.raises(ValidationError):
        TurbineConfig(radius=1.1, upstream_speed=1.0, rotation_speed=1.0, lambda_max=3.0)
    with pytest.raises(ValidationError):
        TurbineConfig(radius=1.0, upstream_speed=1.0, rotation_speed=3.0,
                      lambda_min=2.0, lambda_max=1.0)


@pytest.mark.parametrize("field, value", [
    ("lam", math.nan), ("lam", math.inf), ("r", math.nan), ("r", math.inf),
    ("chord", math.nan), ("gamma", math.nan), ("tip_radius", math.nan),
    ("tip_radius", math.inf),
])
def test_geometry_rejects_non_finite_numbers(field, value):
    # at an infinite tip radius the tip factor would divide by r/R = 0
    fields = dict(lam=1.0, r=0.5, gamma=0.1, chord=0.1, tip_radius=1.0)
    with pytest.raises(ValidationError):
        ElementGeometry(**{**fields, field: value})


@pytest.mark.parametrize("field", ["radius", "upstream_speed", "rotation_speed",
                                   "fluid_density"])
@pytest.mark.parametrize("value", [math.nan, math.inf])
def test_turbine_config_rejects_non_finite_numbers(field, value):
    fields = dict(radius=1.1, upstream_speed=1.0, rotation_speed=3.0, lambda_max=3.0)
    with pytest.raises(ValidationError, match=field):
        TurbineConfig(**{**fields, field: value})


_TURBINE = dict(radius=1.1, upstream_speed=1.0, rotation_speed=3.0)
_ELEMENT = dict(lam=1.0, r=0.5, gamma=0.1, chord=0.1)
# no blade count: below 1, NaN, infinite or fractional (an infinite one gave an
# element of infinite solidity)
_NOT_BLADE_COUNTS = (0, math.nan, math.inf, -math.inf, 2.5)


@pytest.mark.parametrize("make, message", [
    *[(lambda b=b: TurbineConfig(**_TURBINE, blade_count=b), "blade_count must be an integer >= 1")
      for b in _NOT_BLADE_COUNTS],
    *[(lambda b=b: ElementGeometry(**_ELEMENT, blade_count=b),
       "blade_count must be an integer >= 1") for b in _NOT_BLADE_COUNTS],
    (lambda: CorrectionSpec(variant="buhl", a_c=0.0), "a_c must lie in (0, 1]"),
    (lambda: CorrectionSpec(variant="buhl", a_c=1.5), "a_c must lie in (0, 1]"),
])
def test_configuration_types_reject_out_of_range_settings(make, message):
    with pytest.raises(ValidationError) as info:
        make()
    assert type(info.value) is ValidationError and str(info.value) == message


@pytest.mark.parametrize("blade_count", [np.int64(2), np.int32(2), 2.0, np.float64(2.0)])
def test_blade_counts_take_numpy_integers_and_whole_floats(blade_count):
    # kept as an int: a numpy blade count made the solidity a numpy scalar
    turbine = TurbineConfig(**_TURBINE, blade_count=blade_count)
    geom = ElementGeometry(**_ELEMENT, blade_count=blade_count, tip_radius=1.0)
    assert type(turbine.blade_count) is int and type(geom.blade_count) is int
    assert turbine == TurbineConfig(**_TURBINE, blade_count=2)
    assert geom == ElementGeometry(**_ELEMENT, blade_count=2, tip_radius=1.0)
    assert (type(geom.solidity), type(geom.tip_rate)) == (float, float)


def test_element_from_turbine_places_radius_by_lambda():
    tb = TurbineConfig(radius=1.1, upstream_speed=1.0, rotation_speed=3.0,
                       lambda_max=3.0)
    geom = ElementGeometry.from_turbine(tb, 1.5, 0.1, 0.2)
    assert abs(geom.r - 0.5) < 1e-15
    assert geom.tip_radius == 1.1


# ---------------------------------------------------------------------------
# mu functions


def test_mu_L_zero_for_symmetric_profile_at_gamma(linear_polar):
    geom = make_geom(gamma=0.1)
    assert mu_L(geom, linear_polar, geom.gamma) == 0.0


def test_mu_L_formula_with_unit_lift():
    polar = synthetic_polar("constant", level=1.0, cd0=0.0)
    # sigma = 0.4: chord chosen so B c / (2 pi r) = 0.4
    geom = ElementGeometry(lam=1.75, r=1.0, gamma=0.1,
                           chord=0.4 * 2 * math.pi / 3, blade_count=3)
    assert abs(geom.solidity - 0.4) < 1e-15
    assert abs(mu_L(geom, polar, 0.3) - 0.1) < 1e-15


def test_mu_L_linear_in_chord(linear_polar):
    geom = make_geom(chord=0.3)
    doubled = replace(geom, chord=0.6)
    assert abs(mu_L(doubled, linear_polar, 0.3) - 2 * mu_L(geom, linear_polar, 0.3)) < 1e-15


def test_corrected_mu_equals_plain_without_tip_loss(linear_polar):
    geom = make_geom()
    corr = CorrectionSpec(variant="wilson_spera", tip_loss=False)
    for phi in (0.1, 0.3, 0.5):
        parts = model._evaluation(geom, linear_polar, corr, phi)
        assert parts.tip_factor == 1.0
        assert parts.mu_L_c == mu_L(geom, linear_polar, phi)
        assert parts.mu_D_c == mu_D(geom, linear_polar, phi)


def test_zero_drag_kills_mu_D(dragfree_polar):
    geom = make_geom()
    corr = CorrectionSpec(variant="none", tip_loss=False)
    assert model._evaluation(geom, dragfree_polar, corr, 0.4).mu_D_c == 0.0


def test_corrected_mu_scales_by_inverse_tip_factor(linear_polar):
    geom = make_geom(r=0.9, tip_radius=1.1)
    corr = CorrectionSpec(variant="none", tip_loss=True)
    phi = 0.35
    f = tip_loss_factor(geom, phi)
    assert 0.0 < f < 1.0
    parts = model._evaluation(geom, linear_polar, corr, phi)
    assert parts.tip_factor == f
    assert abs(parts.mu_L_c * f - mu_L(geom, linear_polar, phi)) < 1e-15
    assert abs(parts.mu_D_c * f - mu_D(geom, linear_polar, phi)) < 1e-15


# ---------------------------------------------------------------------------
# tip loss factor


def test_tip_loss_frozen_value():
    # independent high-precision evaluation of the Prandtl formula
    geom = ElementGeometry(lam=1.0, r=0.5, gamma=0.0, chord=0.1,
                           blade_count=3, tip_radius=1.0)
    f = tip_loss_factor(geom, 0.3)
    assert abs(f - 0.9960235715844389) < 1e-12


def test_tip_loss_vanishes_at_the_tip():
    geom = ElementGeometry(lam=1.0, r=1.0 - 1e-9, gamma=0.0, chord=0.1,
                           blade_count=3, tip_radius=1.0)
    assert tip_loss_factor(geom, 0.3) < 1e-3
    at_tip = ElementGeometry(lam=1.0, r=1.0, gamma=0.0, chord=0.1,
                             blade_count=3, tip_radius=1.0)
    with pytest.raises(TipSingularityError):
        tip_loss_factor(at_tip, 0.3)


def test_tip_loss_approaches_one_inboard():
    geom = ElementGeometry(lam=1.0, r=1e-3, gamma=0.0, chord=0.1,
                           blade_count=3, tip_radius=1.0)
    assert tip_loss_factor(geom, 0.3) > 1.0 - 1e-12
    many_blades = ElementGeometry(lam=1.0, r=0.5, gamma=0.0, chord=0.1,
                                  blade_count=200, tip_radius=1.0)
    assert tip_loss_factor(many_blades, 0.3) > 1.0 - 1e-12


def test_tip_loss_rejects_nonpositive_sine():
    geom = ElementGeometry(lam=1.0, r=0.5, gamma=0.0, chord=0.1,
                           blade_count=3, tip_radius=1.0)
    with pytest.raises(DomainError):
        tip_loss_factor(geom, 0.0)


# ---------------------------------------------------------------------------
# high-induction corrections


@pytest.mark.parametrize("variant", ["none", "glauert3", "glauert_empirical",
                                     "buhl", "wilson_spera"])
def test_psi_vanishes_at_or_below_threshold(variant):
    corr = CorrectionSpec(variant=variant)
    for a in (0.0, 0.2, corr.a_c):
        assert corr.psi(a - corr.a_c) == 0.0
        assert corr.psi_terms(a - corr.a_c)[1] == 0.0


def test_psi_wilson_spera_value():
    corr = CorrectionSpec(variant="wilson_spera")
    assert abs(corr.psi(0.5 - 1.0 / 3.0) - 1.0 / 36.0) < 1e-15


def test_psi_buhl_value():
    corr = CorrectionSpec(variant="buhl", a_c=0.4)
    assert abs(corr.psi(0.7 - 0.4, 1.0) - 0.125) < 1e-15


def test_psi_defaults_follow_the_variant_table():
    assert CorrectionSpec(variant="glauert3").a_c == pytest.approx(1 / 3)
    assert CorrectionSpec(variant="glauert_empirical").a_c == pytest.approx(0.4)
    assert CorrectionSpec(variant="buhl").a_c == pytest.approx(0.4)
    assert CorrectionSpec(variant="wilson_spera").a_c == pytest.approx(1 / 3)
    assert CorrectionSpec(variant="none").a_c == 1.0


def test_psi_strict_mode_pins_tip_factor_for_empirical():
    strict = CorrectionSpec(variant="glauert_empirical", strict_lemma_mode=True)
    loose = CorrectionSpec(variant="glauert_empirical", strict_lemma_mode=False)
    x = 0.2
    assert strict.psi(x, 0.5) == strict.psi(x, 1.0)
    assert loose.psi(x, 0.5) != loose.psi(x, 1.0)


def test_nonstrict_empirical_near_tip_raises_named_error(linear_polar):
    # with the actual tip factor inside the empirical formula, psi goes
    # negative close to the tip and the axial balance loses monotonicity;
    # strict mode on the same element stays solvable
    loose = CorrectionSpec(variant="glauert_empirical", strict_lemma_mode=False,
                           tip_loss=True)
    strict = CorrectionSpec(variant="glauert_empirical", strict_lemma_mode=True,
                            tip_loss=True)
    geom = ElementGeometry(lam=2.0, r=0.999, gamma=0.0, chord=0.5,
                           blade_count=3, tip_radius=1.0)
    with pytest.raises(DomainError, match=r"\(glauert_empirical psi < 0 .*strict_lemma_mode"):
        tau_nu(geom, linear_polar, loose, 0.1)
    assert 0.0 <= (1.0 - tau_nu(geom, linear_polar, strict, 0.1)) < 1.0


_LOW_A_C = ("axial balance lost monotonicity (glauert_empirical psi < 0 for a < 0.286 - a_c, "
            "as a_c = 0.1 < 0.143); use a_c >= 0.143 or another variant")
_TIP = ("axial balance lost monotonicity (glauert_empirical psi < 0 under the current tip "
        "factor); use strict_lemma_mode or another variant")


@pytest.mark.parametrize("a_c, rhs, tip, strict, message", [
    # a = 1/6 above a_c = 0.1: F (a + a_c) < 0.286 even with F = 1
    (0.1, 0.2, 1.0, True, _LOW_A_C),
    (0.1, 0.2, 1.0, False, _LOW_A_C),
    (0.1, 0.2, 0.5, False, _LOW_A_C),
    # a = 1/2 above a_c = 0.4: only a tip factor F < 0.318 puts psi below 0
    (0.4, 1.0, 0.3, False, _TIP),
    (0.4, 1.0, 0.3, True, None),
], ids=["strict", "loose", "loose_tip", "loose_below_the_tip_bound", "strict_tip"])
def test_empirical_psi_below_zero_names_its_cause(a_c, rhs, tip, strict, message):
    # Glauert's empirical psi is below 0 where F (a + a_c) < 0.286, with F = 1 under
    # strict_lemma_mode: there both kernels refuse the axial balance
    corr = CorrectionSpec("glauert_empirical", a_c=a_c, strict_lemma_mode=strict)
    grid = model._axial_nu_grid(np.array([rhs]), np.array([1.0]), corr, tip)
    if message is None:
        assert 0.0 < model._axial_nu(rhs, 1.0, corr, tip) == grid[0] < 1.0 - a_c
        return
    with pytest.raises(DomainError) as info:
        model._axial_nu(rhs, 1.0, corr, tip)
    assert str(info.value) == message
    assert np.isnan(grid).all()


# Glauert empirical inputs on which a Newton iteration on the axial balance stopped
# after 100 steps without converging, with their roots to 22 digits (a 50-digit
# bisection of the balance in mpmath; tests/test_oracle.py checks such roots)
@pytest.mark.parametrize("strict, rhs, weight, tip, root", [
    (False, 74.24912383311747, 4.5654898899374325, 0.2064265931530092,
     0.01334129767586483629257),
    (False, 161.3406902461565, 0.9679821267038039, 0.21327869599335636,
     0.006652752192687402777241),
    (True, 356.8804362113973, 0.6078501680587562, 0.7045488815968293,
     0.02186906929111103766254),
], ids=["loose_heavy", "loose", "strict"])
def test_empirical_roots_where_a_newton_iteration_gave_up(strict, rhs, weight, tip, root):
    corr = CorrectionSpec("glauert_empirical", strict_lemma_mode=strict)
    nu = model._axial_nu(rhs, weight, corr, tip)
    assert abs(nu - root) <= 4.0 * math.ulp(root)
    assert model._axial_nu_grid(np.array([rhs]), np.array([weight]), corr, tip)[0] == nu


# One input per law whose last bits moved when one Newton loop came to refine every
# axial root, with ``before``, the root of the earlier refinement (glauert3's bracketed
# Newton, or one polishing step after the closed form of the other laws), and the
# balance's root to 25 digits (a 50-digit bisection in mpmath, with psi's constants
# the package's floats).  Wilson/Spera's needs a weight above 1 to move.
@pytest.mark.parametrize("variant, strict, rhs, weight, tip, before, root", [
    ("glauert3", True, 306.5721054246375, 0.5907517947941865, 1.0,
     0.030993328426356, "0.03099332842635599184866031"),
    ("buhl", True, 530.3754880831851, 0.24278890828550184, 1.0,
     0.015690410182396884, "0.01569041018239688772008805"),
    ("wilson_spera", True, 1.8669569343284607, 468.9240234583035, 1.0,
     0.6334631414746008, "0.633463141474600700691279"),
    ("glauert_empirical", True, 218.11932702680414, 0.7715791536464365, 0.20525279700157117,
     0.03140816296953182, "0.03140816296953182774489712"),
    ("glauert_empirical", False, 604.1223938703672, 0.8283172160318831, 1.0,
     0.019243988180808698, "0.0192439881808086925170021"),
], ids=["glauert3", "buhl", "wilson_spera", "empirical_strict", "empirical_loose"])
def test_axial_roots_whose_last_bits_moved_are_no_farther_from_the_root(
        variant, strict, rhs, weight, tip, before, root):
    corr = CorrectionSpec(variant, strict_lemma_mode=strict)
    nu = model._axial_nu(rhs, weight, corr, tip)
    assert abs(Decimal(nu) - Decimal(root)) <= abs(Decimal(before) - Decimal(root))
    assert model._axial_nu_grid(np.array([rhs]), np.array([weight]), corr, tip)[0] == nu


@pytest.mark.parametrize("cd0", [0.0, 0.3], ids=["drag_free", "drag"])
@pytest.mark.parametrize("tip", [False, True], ids=["no_tip", "tip"])
def test_glauert3_axial_loop_ends_well_inside_its_cap_at_the_clamp(monkeypatch, cd0, tip):
    # criterion 05's element at phi = PHI_EPS, where nu0 ~ phi^2 lies far below the
    # root (~ phi^1.5 with drag, ~ phi drag-free) and each early Newton step from nu0
    # multiplies nu by only about 1.5: the loop still ends within 30 steps (26 with
    # drag, 6 drag-free), well inside its cap _NU_MAX_STEPS
    polar = synthetic_polar("linear_lift", slope=2.0 * math.pi, cd0=cd0, beta=0.4)
    geom = ElementGeometry(lam=1.75, r=1.0, gamma=0.0, chord=1.0,
                           tip_radius=1.25 if tip else None)
    corr = CorrectionSpec("glauert3", tip_loss=tip)
    nu, cap = tau_nu(geom, polar, corr, PHI_EPS), model._NU_MAX_STEPS

    def ends_within(steps):
        monkeypatch.setattr(model, "_NU_MAX_STEPS", steps)
        try:
            return tau_nu(geom, polar, corr, PHI_EPS) == nu
        except DomainError:
            return False

    steps = next(n for n in range(cap + 1) if ends_within(n))
    assert steps <= 30 < cap


@pytest.mark.parametrize("variant", CORRECTION_VARIANTS)
@pytest.mark.parametrize("tip", [False, True])
@settings(max_examples=60, deadline=None, database=None)
@given(a_c=st.one_of(st.none(), st.floats(0.01, 0.7)), strict=st.booleans(),
       draws=st.lists(st.tuples(st.one_of(st.floats(-2.0, 1e3), st.floats(-1e-9, 1e-9)),
                                st.floats(1e-9, 1.0), st.floats(0.01, 1.0)),
                      min_size=1, max_size=30))
def test_axial_kernels_agree_bit_for_bit_and_on_nan(variant, tip, a_c, strict, draws):
    # the grid kernel is NaN exactly where the scalar one raises, and elsewhere
    # has its bits: rhs on both sides of -1, 0 and the threshold a_c/(1 - a_c)
    # (within 1e-9 relative), F = 1 without tip loss
    corr = CorrectionSpec(variant, a_c=a_c, strict_lemma_mode=strict)
    ratio = corr.a_c / (1.0 - corr.a_c) if corr.a_c < 1.0 else 1.0
    rhs = np.array([ratio * (1.0 + u) for u, _, _ in draws])
    weight = np.array([w for _, w, _ in draws])
    f = np.array([f if tip else 1.0 for _, _, f in draws])
    grid = model._axial_nu_grid(rhs, weight, corr, f)
    for k in range(rhs.size):
        try:
            assert model._axial_nu(rhs[k], weight[k], corr, f[k]).hex() == grid[k].hex()
        except DomainError:
            assert np.isnan(grid[k])


def test_buhl_just_above_the_threshold_is_solved_not_refused():
    # just above a = a_c Buhl's psi ~ x^2 lies below the last bit of the balance at
    # nu0, so the rounded balance there must not be read as lost monotonicity
    polar = synthetic_polar("linear_lift", slope=2.0 * math.pi, cd0=0.01, cd2=0.3, beta=0.4)
    geom = ElementGeometry(lam=1.9292595570125335, r=0.393810551951639,
                           gamma=0.10847077274318241, chord=0.05562862534620501,
                           tip_radius=1.0)
    corr = CorrectionSpec("buhl")
    phi = 0.2855094369764342
    # a 4e-9 span of angles with 0 < a - a_c < 1e-8, where psi falls below that bit
    phis = phi - 1e-12 * np.arange(4000)
    values = np.array([residual(geom, polar, corr, p) for p in phis.tolist()])
    grid = _residual_grid([geom], polar, corr, [phis])[0]
    _assert_within_ulp(grid, values, 8)
    assert not np.isnan(grid).any()
    a = recover_induction(geom, polar, corr, phi).a
    assert 0.0 <= a - corr.a_c < 1e-6


def _first_crossing(fn, lo, hi, nodes=400):
    """An angle where ``fn`` changes sign, found on a grid then bisected to the last
    bit (the float below the change); None without a sign change on the grid."""
    grid = np.linspace(lo, hi, nodes).tolist()
    values = [fn(p) for p in grid]
    for k in range(nodes - 1):
        if (values[k] > 0.0) != (values[k + 1] > 0.0):
            a, b, above = grid[k], grid[k + 1], values[k] > 0.0
            while True:
                mid = 0.5 * (a + b)
                if mid in (a, b):
                    return a
                if (fn(mid) > 0.0) == above:
                    a = mid
                else:
                    b = mid
    return None


_PSI_VARIANTS = [("glauert3", True), ("glauert_empirical", True), ("glauert_empirical", False),
                 ("buhl", True), ("wilson_spera", True)]


@pytest.mark.parametrize("variant, strict", _PSI_VARIANTS)
@pytest.mark.parametrize("tip", [False, True])
@settings(max_examples=20, deadline=None, database=None)
@given(lam=st.floats(1.0, 3.0), r=st.floats(0.2, 0.9), gamma=st.floats(-0.1, 0.2),
       chord=st.floats(0.02, 0.8), cd2=st.floats(0.0, 0.5),
       step=st.sampled_from([1e-14, 1e-13, 1e-12, 1e-11, 1e-10]))
def test_no_angle_just_above_the_threshold_raises_where_psi_is_not_negative(
        variant, strict, tip, lam, r, gamma, chord, cd2, step):
    # a - a_c <= a0 - a_c, with a0 = 1 - 1/(1 + g) the uncorrected induction: the
    # corrected root lies in [a_c, a0]
    polar = synthetic_polar("linear_lift", slope=2.0 * math.pi, cd0=0.01, cd2=cd2, beta=0.4)
    geom = make_geom(lam=lam, r=r, gamma=gamma, chord=chord, tip_radius=1.0)
    corr = CorrectionSpec(variant=variant, tip_loss=tip, strict_lemma_mode=strict)

    def excess(phi):  # a0 - a_c, with the operations of _axial_nu's branch test
        return (1.0 - 1.0 / (1.0 + g_func(geom, polar, corr, phi))) - corr.a_c

    phi_c = _first_crossing(excess, 1e-3, geom.theta)
    if phi_c is None:
        return  # the correction is never active, or always
    phis = phi_c + step * np.arange(-600.0, 600.0)
    raised = []
    for phi in phis.tolist():
        try:
            residual(geom, polar, corr, phi)
            raised.append(False)
        except DomainError:
            raised.append(True)
            x = excess(phi)
            f = tip_loss_factor(geom, phi) if tip else 1.0
            # only a negative psi may refuse an angle of the band
            assert not (0.0 < x < 1e-6 and corr.psi(x, f) >= 0.0), (phi, x)
    grid = _residual_grid([geom], polar, corr, [phis])[0]
    assert np.isnan(grid).tolist() == raised


# ---------------------------------------------------------------------------
# mu_G and g


def test_mu_G_trivial_zeros():
    assert mu_G(0.8, 0.8) == 0.0
    assert mu_G(0.8, 0.0) == 0.0


def test_mu_G_frozen_value():
    assert abs(mu_G(math.pi / 3, math.pi / 6) - 0.2886751345948129) < 1e-15


def test_mu_G_prime_endpoint_identities():
    # d mu_G/dphi is tan(theta) at 0 and -sin(theta) at theta
    for theta in (0.3, 0.7, 1.2):
        h = 1e-6
        fd0 = (mu_G(theta, h) - mu_G(theta, 0.0)) / h
        assert abs(fd0 - math.tan(theta)) < 1e-5
        fdt = (mu_G(theta, theta) - mu_G(theta, theta - h)) / h
        assert abs(fdt + math.sin(theta)) < 1e-5
        assert abs(mu_G_prime(theta, 0.0) - math.tan(theta)) < 1e-12
        assert abs(mu_G_prime(theta, theta) + math.sin(theta)) < 1e-12


def test_g_vanishes_at_theta_without_drag(dragfree_polar):
    geom = make_geom(gamma=0.1)
    assert abs(g_func(geom, dragfree_polar, trivial(), geom.theta)) < 1e-12


def test_g_cot_tan_identity(dragfree_polar):
    # theta = pi/4, phi = pi/8: cot(phi) tan(theta - phi) = 1
    geom = make_geom(lam=1.0, gamma=0.1)
    assert abs(g_func(geom, dragfree_polar, trivial(), math.pi / 8) - 1.0) < 1e-12


def test_g_blows_up_at_zero_with_drag(linear_polar):
    geom = make_geom(gamma=0.0)
    assert g_func(geom, linear_polar, trivial(), 1e-6) > 1e4
    assert g_func(geom, linear_polar, trivial(), 1e-7) > g_func(
        geom, linear_polar, trivial(), 1e-6)


def test_g_domain(linear_polar):
    geom = make_geom()
    with pytest.raises(DomainError):
        g_func(geom, linear_polar, trivial(), -0.1)
    with pytest.raises(DomainError):
        g_func(geom, linear_polar, trivial(), geom.theta + 0.1)


# ---------------------------------------------------------------------------
# the implicit axial map tau


def test_tau_zero_where_g_zero(dragfree_polar):
    geom = make_geom(gamma=0.1)
    assert abs(1.0 - tau_nu(geom, dragfree_polar, trivial(), geom.theta)) < 1e-12


def test_tau_closed_form_without_correction(linear_polar):
    # a/(1-a) = g  =>  a = g/(1+g); cross-check with an independent bisection
    geom = make_geom(gamma=0.05)
    corr = trivial()
    phi = 0.3
    g = g_func(geom, linear_polar, corr, phi)
    a = 1.0 - tau_nu(geom, linear_polar, corr, phi)
    assert abs(a - g / (1.0 + g)) < 1e-14
    assert abs(a - _bisect_axial(g, 0.0, 1.0, lambda x: 0.0)) < 1e-12


def test_tau_matches_bisection_oracle_with_active_psi(linear_polar):
    geom = make_geom(gamma=0.05, chord=0.6)
    corr = wilson()
    phi = 0.12
    theta = geom.theta
    g = g_func(geom, linear_polar, corr, phi)
    weight = math.sin(theta) * math.sin(phi) / math.cos(theta - phi)
    a = 1.0 - tau_nu(geom, linear_polar, corr, phi)
    oracle = _bisect_axial(g, weight, corr.a_c,
                           lambda x: CorrectionSpec(variant="wilson_spera").psi(x))
    assert a > corr.a_c  # the correction really is active here
    assert abs(a - oracle) < 1e-12


def _bisect_axial(g, weight, a_c, psi):
    lo, hi = 0.0, 1.0 - 1e-14
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        lhs = mid / (1.0 - mid) + weight * psi(max(0.0, mid - a_c)) / (1.0 - mid) ** 2
        if lhs < g:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def _quadratic(rhs, weight, cap, p2, p1, sqrt=math.sqrt, copysign=math.copysign):
    """(nu0, qa, qb, qc, q) of the balance times nu^2 for psi = p2 x^2 + p1 x."""
    qa = weight * p2 - 1.0 - rhs
    qb = 1.0 - 2.0 * weight * p2 * cap - weight * p1
    qc = weight * cap * (p2 * cap + p1)
    q = -0.5 * (qb + copysign(sqrt(np.maximum(qb * qb - 4.0 * qa * qc, 0.0)), qb))
    return 1.0 / (1.0 + rhs), qa, qb, qc, q


def _miss(nu, rhs, weight, cap, p2, p1):
    """|balance| at nu for psi = p2 x^2 + p1 x, x = cap - nu."""
    x = cap - nu
    return abs((1.0 - nu) / nu - rhs + weight * x * (p2 * x + p1) / (nu * nu))


def _quadratic_search(rhs, weight, cap, p2, p1):
    """The axial root of a quadratic psi as a search over both roots of the
    quadratic once found it: the roots inside [nu0, cap] up to a 1e-9 slack,
    the one of least balance residual; DomainError where none fits.
    ``_quadratic_nu``'s reference."""
    nu0, qa, qb, qc, q = _quadratic(rhs, weight, cap, p2, p1)
    if qa == 0.0:
        return -qc / qb
    roots = ([qc / q] if q != 0.0 else []) + [q / qa]
    good = [nu for nu in roots if nu0 * (1.0 - 1e-9) <= nu <= cap * (1.0 + 1e-9)]
    if not good:
        raise DomainError("no axial root in [a_c, 1)")
    return min(good, key=lambda nu: _miss(nu, rhs, weight, cap, p2, p1))


def _quadratic_search_grid(rhs, weight, cap, p2, p1):
    """:func:`_quadratic_search` elementwise, NaN where it finds no root."""
    nu0, qa, qb, qc, q = _quadratic(rhs, weight, cap, p2, p1, np.sqrt, np.copysign)
    r1, r2 = qc / q, q / qa
    fits1, fits2 = [(nu0 * (1.0 - 1e-9) <= r) & (r <= cap * (1.0 + 1e-9)) for r in (r1, r2)]
    miss1, miss2 = [_miss(r, rhs, weight, cap, p2, p1) for r in (r1, r2)]
    nu = np.where(fits1 & ~(fits2 & (miss2 < miss1)), r1, np.where(fits2, r2, np.nan))
    return np.where(qa == 0.0, -qc / qb, nu)


# the laws read off their quadratic: (variant, strict_lemma_mode)
_QUADRATIC_LAWS = [("wilson_spera", True), ("buhl", True), ("glauert_empirical", True),
                   ("glauert_empirical", False)]
# a_c of every variant whose correction can be active, and any other
_QUADRATIC_A_C = st.one_of(st.sampled_from(sorted({a for a in model.DEFAULT_A_C.values()
                                                  if a < 1.0})),
                           st.floats(1e-4, 0.999))
# weight = sin(theta) sin(phi)/cos(theta - phi) < 1 on (0, pi/2); larger ones
# reach the quadratic's branch qa > 0 as well, as a tip factor F < 1 does for Buhl
_QUADRATIC_WEIGHT = st.one_of(st.floats(1e-9, 1.0), st.floats(1.0, 1e4))
_TIP_FACTOR = st.one_of(st.just(1.0), st.floats(0.01, 1.0))


def _active(rhs, a_c):
    """Whether the kernel's own test finds the correction active at ``rhs``."""
    return rhs > 0.0 and 1.0 - 1.0 / (1.0 + rhs) > a_c


def _active_rhs(a_c, u):
    """An rhs above the threshold a_c/(1 - a_c) by the relative amount ``u``,
    or None where the correction is inactive there."""
    rhs = a_c / (1.0 - a_c) * (1.0 + u)
    return rhs if _active(rhs, a_c) else None


def _assert_quadratic_matches_search(rhs, weight, cap, p2, p1):
    try:
        expected = _quadratic_search(rhs, weight, cap, p2, p1)
    except DomainError:
        with pytest.raises(DomainError):
            model._quadratic_nu(rhs, weight, cap, p2, p1)
        return
    nu = model._quadratic_nu(rhs, weight, cap, p2, p1)
    assert nu.hex() == expected.hex()
    assert (1.0 / (1.0 + rhs)) * (1.0 - 1e-9) <= nu <= cap * (1.0 + 1e-9)


@example(law=("wilson_spera", True), a_c=1.0 / 3.0, u=1.0, weight=2.0, tip=1.0,
         linear=False)  # qa == 0: the linear case
@example(law=("buhl", True), a_c=0.4, u=1.0, weight=3.0, tip=0.3, linear=True)
@example(law=("glauert_empirical", False), a_c=0.4, u=1.0, weight=7.0, tip=0.8, linear=True)
@settings(max_examples=1000, deadline=None, database=None)
@given(law=st.sampled_from(_QUADRATIC_LAWS), a_c=_QUADRATIC_A_C, u=st.floats(0.0, 1e3),
       weight=_QUADRATIC_WEIGHT, tip=_TIP_FACTOR, linear=st.booleans())
def test_quadratic_root_is_the_search_result_bit_for_bit(law, a_c, u, weight, tip, linear):
    # the root read off the quadratic by the sign of q is the one root the
    # monotone balance has in [nu0, cap], as a search over both roots finds
    # it, wherever psi at nu0 is positive, which the kernel checks first
    corr = CorrectionSpec(law[0], a_c=a_c, strict_lemma_mode=law[1])
    cap, (p2, p1) = 1.0 - a_c, corr._quadratic(tip)[:2]
    # linear: the rhs that makes qa = weight p2 - 1 - rhs exactly 0
    rhs = weight * p2 - 1.0 if linear else _active_rhs(a_c, u)
    if rhs is None or not _active(rhs, a_c):
        return
    assert (_quadratic(rhs, weight, cap, p2, p1)[1] == 0.0) >= linear
    if corr.psi(cap - 1.0 / (1.0 + rhs), tip) > 0.0:
        _assert_quadratic_matches_search(rhs, weight, cap, p2, p1)


def test_wilson_root_without_a_real_root_raises_and_is_nan_on_a_grid():
    # qb = 0 with qa > 0 (here at an inactive input: active ones reach it only by
    # rounding) makes q = 0, where the search finds no root and neither kernel
    # divides by it
    rhs, weight, cap = 0.5, 2.0, 0.25
    assert _quadratic(rhs, weight, cap, 1.0, 0.0)[-1] == 0.0
    _assert_quadratic_matches_search(rhs, weight, cap, 1.0, 0.0)
    with np.errstate(divide="ignore", invalid="ignore"):
        assert np.isnan(model._quadratic_nu_grid(np.array([rhs]), np.array([weight]), cap,
                                                 1.0, 0.0)).all()


def test_wilson_axial_root_where_the_quadratic_is_linear():
    # rhs = 1 and weight = 2 make qa = weight - 1 - rhs = 0: the balance times nu^2
    # is qb nu + qc, whose root -qc/qb = 8/15 zeroes the balance exactly
    corr = CorrectionSpec(variant="wilson_spera")
    assert model._axial_nu(1.0, 2.0, corr, 1.0) == 8.0 / 15.0
    assert model._axial_nu_grid(np.array([1.0]), np.array([2.0]), corr, 1.0).tolist() == [
        8.0 / 15.0]


@settings(max_examples=300, deadline=None, database=None)
@given(law=st.sampled_from(_QUADRATIC_LAWS), a_c=_QUADRATIC_A_C,
       draws=st.lists(st.tuples(st.floats(0.0, 1e3), _QUADRATIC_WEIGHT, _TIP_FACTOR),
                      min_size=1, max_size=40))
def test_quadratic_grid_root_is_the_search_result_bit_for_bit(law, a_c, draws):
    corr = CorrectionSpec(law[0], a_c=a_c, strict_lemma_mode=law[1])
    cap = 1.0 - a_c
    kept = [(rhs, weight, tip) for rhs, weight, tip in
            ((_active_rhs(a_c, u), weight, tip) for u, weight, tip in draws)
            if rhs is not None and corr.psi(cap - 1.0 / (1.0 + rhs), tip) > 0.0]
    rhs, weight, tip = np.array(kept).reshape(-1, 3).T
    p2, p1 = corr._quadratic(tip)[:2]
    with np.errstate(divide="ignore", invalid="ignore"):
        nu = model._quadratic_nu_grid(rhs, weight, cap, p2, p1)
        expected = _quadratic_search_grid(rhs, weight, cap, p2, p1)
    assert (np.isnan(nu) == np.isnan(expected)).all()
    assert nu[~np.isnan(nu)].tobytes() == expected[~np.isnan(expected)].tobytes()
    nu0 = 1.0 / (1.0 + rhs)
    found = nu[~np.isnan(nu)]
    assert ((nu0[~np.isnan(nu)] * (1.0 - 1e-9) <= found) & (found <= cap * (1.0 + 1e-9))).all()
    for k in range(rhs.size):  # the scalar kernel's bits, or its error
        args = rhs[k], weight[k], cap, *corr._quadratic(tip[k])[:2]
        try:
            assert model._quadratic_nu(*args).hex() == nu[k].hex()
        except DomainError:
            assert np.isnan(nu[k])


@settings(max_examples=300, deadline=None, database=None)
@given(a_c=_QUADRATIC_A_C, u=st.floats(0.0, 1e3), weight=_QUADRATIC_WEIGHT,
       share=st.floats(0.01, 0.999))
def test_a_quadratic_with_qc_at_most_zero_never_reaches_the_closed_form(a_c, u, weight, share):
    # qc = w psi(cap) <= 0 only for Glauert empirical without strict_lemma_mode,
    # with F (1 + a_c) <= 0.286.  psi/x = p2 x + p1 rises with x, so psi(cap - nu0)
    # <= 0 there too, and the guard in front of the closed form refuses the input
    # (or returns nu0 where psi is 0) in both kernels
    corr = CorrectionSpec("glauert_empirical", a_c=a_c, strict_lemma_mode=False)
    tip, rhs = share * 0.286 / (1.0 + a_c), _active_rhs(a_c, u)
    cap = 1.0 - a_c
    if rhs is None:
        return
    assert _quadratic(rhs, weight, cap, *corr._quadratic(tip)[:2])[3] <= 0.0
    grid = model._axial_nu_grid(np.array([rhs]), np.array([weight]), corr, tip)[0]
    try:
        nu = model._axial_nu(rhs, weight, corr, tip)
    except DomainError as exc:
        assert "lost monotonicity" in str(exc) and np.isnan(grid)
        return
    assert nu == 1.0 / (1.0 + rhs) == grid


@pytest.mark.parametrize("variant", ["none", "glauert3", "glauert_empirical", "buhl",
                                     "wilson_spera"])
def test_tau_small_angle_asymptotes_match_bisection_oracle(variant):
    # Near phi = 0 the axial balance, independently bisected in a, agrees
    # with tau_nu, and its nu = 1 - a follows the closed-form asymptotes
    # with P = psi(1 - a_c), t = tan(theta):
    #   drag-free: nu ~ c phi,  t c^2 - c - t P = 0 (relative error O(phi));
    #   with drag, P > 0: nu ~ c_D phi^1.5 (1 + delta), c_D = sqrt(P/mu_D(0)),
    #     delta = c_D sqrt(phi)/(2 t P);
    #   with drag, P = 0: nu = 1/(1 + g) ~ phi^2/(mu_D(0) t).
    geom = make_geom(gamma=0.0, chord=1.0)
    corr = CorrectionSpec(variant=variant)
    theta = geom.theta
    t = math.tan(theta)
    big_p = corr.psi(1.0 - corr.a_c)
    assert (big_p > 0.0) == (variant != "none")
    for cd0 in (0.0, 0.3):
        polar = synthetic_polar("linear_lift", slope=2.0 * math.pi, cd0=cd0, beta=0.4)
        mu_d0 = mu_D(geom, polar, 0.0)
        nus = []
        for phi in (1e-6, 1e-5):
            g = g_func(geom, polar, corr, phi)
            weight = math.sin(theta) * math.sin(phi) / math.cos(theta - phi)
            nu_oracle = 1.0 - _bisect_axial(g, weight, corr.a_c, corr.psi)
            nu = tau_nu(geom, polar, corr, phi)
            # an a-space bisection resolves nu to the spacing of doubles near 1
            assert abs(nu - nu_oracle) <= 2.0 * math.ulp(1.0)
            if cd0 == 0.0:
                c = (1.0 + math.sqrt(1.0 + 4.0 * t * t * big_p)) / (2.0 * t)
                assert abs(nu_oracle / (c * phi) - 1.0) < 10.0 * phi
            elif big_p > 0.0:
                c_d = math.sqrt(big_p / mu_d0)
                delta = c_d * math.sqrt(phi) / (2.0 * t * big_p)
                assert abs(nu_oracle / (c_d * phi ** 1.5) - 1.0 - delta) < 0.1 * delta
            else:
                assert abs(nu_oracle * mu_d0 * t / phi ** 2 - 1.0) < 1e-3
            nus.append(nu_oracle)
        if cd0 > 0.0 and variant == "none":
            assert abs(math.log10(nus[1] / nus[0]) - 2.0) < 1e-3


@pytest.mark.parametrize("variant", ["glauert3", "glauert_empirical", "buhl",
                                     "wilson_spera"])
def test_tau_range_and_plugback(variant, linear_polar):
    # tau in [0,1) and the defining balance holds to 1e-10
    gen = rng(7)
    corr = CorrectionSpec(variant=variant)
    count_active = 0
    for _ in range(250):
        lam = gen.uniform(0.5, 4.0)
        gamma = gen.uniform(-0.1, 0.25)
        chord = gen.uniform(0.05, 0.8)
        geom = make_geom(lam=lam, gamma=gamma, chord=chord)
        hi = min(geom.theta, linear_polar.beta + gamma)
        if hi <= 0.0:
            continue
        phi = gen.uniform(0.05 * hi, hi)
        a = 1.0 - tau_nu(geom, linear_polar, corr, phi)
        assert 0.0 <= a < 1.0
        g = g_func(geom, linear_polar, corr, phi)
        theta = geom.theta
        weight = math.sin(theta) * math.sin(phi) / math.cos(theta - phi)
        f = tip_loss_factor(geom, phi) if corr.tip_loss else 1.0
        lhs = (a / (1.0 - a)
               + weight * corr.psi(a - corr.a_c, f) / (1.0 - a) ** 2)
        assert abs(lhs - g) < 1e-10
        count_active += a > corr.a_c
    assert count_active > 10  # the sample does exercise the corrected branch


def test_tau_decreasing_when_g_decreasing(linear_polar):
    geom = make_geom(gamma=0.05, chord=0.5)
    corr = wilson()
    hi = min(geom.theta, linear_polar.beta + geom.gamma)
    grid = np.linspace(0.02 * hi, hi, 200)
    g_vals = [g_func(geom, linear_polar, corr, p) for p in grid]
    assert all(b < a for a, b in zip(g_vals, g_vals[1:]))  # g decreasing here
    taus = [1.0 - tau_nu(geom, linear_polar, corr, p) for p in grid]
    assert all(b <= a + 1e-12 for a, b in zip(taus, taus[1:]))


# ---------------------------------------------------------------------------
# corrected momentum curve and residual


def test_mu_G_c_matches_mu_G_without_variant(linear_polar):
    geom = make_geom(gamma=0.05)
    corr = trivial()
    for phi in np.linspace(0.05, geom.theta, 9):
        assert mu_G_c(geom, linear_polar, corr, phi) == mu_G(geom.theta, phi)


def test_mu_G_c_matches_mu_G_where_correction_inactive(linear_polar):
    geom = make_geom(gamma=0.05)
    corr = wilson()
    phi = 0.9 * geom.theta
    assert 1.0 - tau_nu(geom, linear_polar, corr, phi) < corr.a_c
    assert mu_G_c(geom, linear_polar, corr, phi) == mu_G(geom.theta, phi)


def test_mu_G_c_asymptote_with_drag():
    # mu_G_c(phi) ~ mu_D_c(0)/phi as phi -> 0+ (approach rate ~ sqrt(phi))
    polar = synthetic_polar("linear_lift", slope=2.0 * math.pi, cd0=0.1, beta=0.4)
    geom = make_geom(gamma=0.0, chord=0.6)
    corr = wilson()
    mu_d0 = mu_D(geom, polar, 0.0)
    err6 = abs(mu_G_c(geom, polar, corr, 1e-6) / (mu_d0 / 1e-6) - 1.0)
    err8 = abs(mu_G_c(geom, polar, corr, 1e-8) / (mu_d0 / 1e-8) - 1.0)
    assert err6 < 0.1
    assert err8 < 0.02
    assert err8 < err6


def test_residual_signs_for_simplified_model(dragfree_polar):
    geom = make_geom(gamma=0.1)
    corr = trivial()
    # symmetric profile at phi = gamma: mu_L = 0, residual = -mu_G(gamma) < 0
    r_at_gamma = residual(geom, dragfree_polar, corr, geom.gamma)
    assert abs(r_at_gamma + mu_G(geom.theta, geom.gamma)) < 1e-15
    assert r_at_gamma < 0.0
    # at theta: mu_G = 0, residual = mu_L(theta) > 0
    r_at_theta = residual(geom, dragfree_polar, corr, geom.theta)
    assert abs(r_at_theta - mu_L(geom, dragfree_polar, geom.theta)) < 1e-15
    assert r_at_theta > 0.0


def test_residual_coincides_with_simplified_form(dragfree_polar):
    # variant none + no tip loss + zero drag == mu_L - mu_G pointwise
    geom = make_geom(gamma=0.05)
    corr = trivial()
    for phi in np.linspace(0.02, geom.theta, 50):
        lhs = residual(geom, dragfree_polar, corr, phi)
        rhs = mu_L(geom, dragfree_polar, phi) - mu_G(geom.theta, phi)
        assert abs(lhs - rhs) < 1e-14


def test_residual_small_at_a_bisection_root(linear_polar):
    geom = make_geom(gamma=0.05)
    corr = wilson()
    report = solve_bisection(geom, linear_polar, corr, SolveOptions())
    assert report.converged
    assert abs(residual(geom, linear_polar, corr, report.phi_star)) <= 1e-10


# ---------------------------------------------------------------------------
# induction recovery and loads


def test_recovered_state_satisfies_geometric_relation(linear_polar):
    geom = make_geom(gamma=0.05)
    corr = wilson()
    report = solve_bisection(geom, linear_polar, corr, SolveOptions())
    st = report.state
    assert abs(math.tan(st.phi) * geom.lam * (1.0 + st.a_prime) - (1.0 - st.a)) < 1e-9


def test_recovered_angular_induction_identity(dragfree_polar):
    # zero drag, no corrections: a' = (1-a) mu_L / (lam sin phi)
    geom = make_geom(gamma=0.05)
    corr = trivial()
    phi = 0.3
    st = recover_induction(geom, dragfree_polar, corr, phi)
    expected = (1.0 - st.a) * mu_L(geom, dragfree_polar, phi) / (
        geom.lam * math.sin(phi))
    assert abs(st.a_prime - expected) < 1e-14


def test_recovery_at_theta_with_zero_lift(dragfree_polar):
    # gamma = theta makes alpha = 0 at phi = theta: all mu terms vanish
    geom = make_geom(lam=2.0, gamma=math.atan(0.5))
    corr = trivial()
    st = recover_induction(geom, dragfree_polar, corr, geom.theta)
    assert abs(st.a) < 1e-14 and abs(st.a_prime) < 1e-14


def test_recovery_at_phi_zero_raises(linear_polar):
    # the plain model is evaluated at phi = 0 unclamped, and its thrust balance
    # divides by sin^2(phi)
    with pytest.raises(DomainError, match="phi = 0: original system undefined"):
        recover_induction(make_geom(gamma=0.05), linear_polar, trivial(), 0.0)


_STALL = synthetic_polar("linear_lift_with_stall", slope=6.0, alpha_s=0.3, drop=0.5,
                         transition=0.05, cd0=0.012, cd2=0.1)  # the stall_polar fixture


@pytest.mark.parametrize("variant", CORRECTION_VARIANTS)
@pytest.mark.parametrize("tip", [False, True])
@settings(max_examples=150, deadline=None, database=None)
@given(frac=st.floats(min_value=0.01, max_value=1.0))
def test_entry_points_share_one_evaluation(variant, tip, frac):
    # a heavily loaded element, so that the high-induction branch is reached
    geom = make_geom(lam=1.5, gamma=0.05, chord=0.6, r=0.5, tip_radius=1.0)
    corr = CorrectionSpec(variant=variant, tip_loss=tip)
    phi = frac * geom.theta
    value = residual(geom, _STALL, corr, phi)
    state = recover_induction(geom, _STALL, corr, phi)
    assert state.residual.hex() == value.hex()
    assert model._evaluation(geom, _STALL, corr, phi).value.hex() == value.hex()
    rebuilt = model._state(geom, corr, model._evaluation(geom, _STALL, corr, phi))
    for name in ("phi", "a", "a_prime", "tip_factor", "residual"):
        assert getattr(rebuilt, name).hex() == getattr(state, name).hex()
    assert (rebuilt.lift_sign, rebuilt.note) == (state.lift_sign, state.note)
    if not corr.is_trivial:  # the trivial path inverts the thrust balance instead
        assert state.a.hex() == (1.0 - tau_nu(geom, _STALL, corr, phi)).hex()



def _scalar_or_nan(geom, polar, corr, phi):
    try:
        return residual(geom, polar, corr, phi)
    except DomainError:
        return math.nan


def _mu_L_c_prime(geom, polar, corr, phi):
    """Scalar d mu_L^c/dphi = (sigma/4) (C_L'/F - C_L F'/F^2), the oracle of
    the array path :func:`model._mu_c_prime_grid`."""
    f, fp = model._tip(geom, corr, phi)
    alpha = phi - geom.gamma
    return 0.25 * geom.solidity * (polar.cl_prime(alpha) / f - polar.cl(alpha) * fp / (f * f))


def _assert_within_ulp(got, want, ulp):
    """Equal NaN pattern; finite values within ``ulp`` ulp of the largest |want|."""
    assert np.array_equal(np.isnan(got), np.isnan(want))
    finite = ~np.isnan(want)
    if finite.any():
        unit = np.spacing(np.abs(want[finite]).max())
        assert np.all(np.abs(got[finite] - want[finite]) <= ulp * unit)


@pytest.mark.parametrize("variant", CORRECTION_VARIANTS)
@pytest.mark.parametrize("tip", [False, True])
@settings(max_examples=25, deadline=None, database=None)
@given(stall=st.booleans(), slope=st.floats(3.0, 7.0), cd0=st.floats(0.0, 0.03),
       cd2=st.floats(0.0, 0.5), alpha_s=st.floats(0.15, 0.4), drop=st.floats(0.0, 0.8),
       lam=st.floats(0.5, 4.0), gamma=st.floats(-0.2, 0.4), chord=st.floats(0.02, 1.5),
       r=st.floats(0.1, 1.0), strict=st.booleans())
# near the tip, Glauert empirical without strict_lemma_mode loses monotonicity
@example(stall=False, slope=6.0, cd0=0.01, cd2=0.0, alpha_s=0.3, drop=0.5, lam=1.0,
         gamma=0.1, chord=0.6, r=0.97, strict=False)
def test_residual_grid_matches_scalar_path(variant, tip, stall, slope, cd0, cd2, alpha_s,
                                           drop, lam, gamma, chord, r, strict):
    if stall:
        polar = synthetic_polar("linear_lift_with_stall", slope=slope, alpha_s=alpha_s,
                                drop=drop, transition=0.05, cd0=cd0, cd2=cd2)
    else:
        polar = synthetic_polar("linear_lift", slope=slope, cd0=cd0, cd2=cd2, beta=0.4)
    geom = make_geom(lam=lam, gamma=gamma, chord=chord, r=r, tip_radius=1.0)
    corr = CorrectionSpec(variant=variant, tip_loss=tip, strict_lemma_mode=strict)
    # past both ends of (0, pi/2), of I and of the polar's range, plus the clamp
    phis = np.concatenate([np.linspace(-1.7, 1.7, 341),
                           [0.0, PHI_EPS, 0.5 * PHI_EPS, -0.5 * PHI_EPS, math.pi / 2.0,
                            geom.theta, polar.beta + gamma]])
    want = np.array([_scalar_or_nan(geom, polar, corr, p) for p in phis])
    _assert_within_ulp(_residual_grid([geom], polar, corr, [phis])[0], want, 8)

    try:
        grid = grid_I_plus(geom, polar)
        want_L = np.array([_mu_L_c_prime(geom, polar, corr, p) for p in grid])
    except (DomainError, ValidationError):
        return  # empty I+ or F = 0: the array path is checked to raise alike below
    _assert_within_ulp(_mu_c_prime_grid(geom, polar, corr, grid), want_L, 8)


def test_grid_paths_raise_like_the_scalar_path(linear_polar):
    no_tip_radius = make_geom(gamma=0.05)
    at_tip = make_geom(gamma=0.05, r=1.0, tip_radius=1.0)
    corr = wilson(tip=True)
    phis = np.linspace(0.1, 0.4, 5)
    with pytest.raises(ValidationError):
        _residual_grid([no_tip_radius], linear_polar, corr, [phis])
    with pytest.raises(ValidationError):
        _mu_c_prime_grid(no_tip_radius, linear_polar, corr, phis)
    assert np.isnan(_residual_grid([at_tip], linear_polar, corr, [phis])[0]).all()
    with pytest.raises(TipSingularityError):
        _mu_c_prime_grid(at_tip, linear_polar, corr, phis)
    with pytest.raises(DomainError):  # the array cl raises for the whole array
        _mu_c_prime_grid(make_geom(gamma=0.05), linear_polar, trivial(), phis + 2.0)


@pytest.mark.parametrize("variant", CORRECTION_VARIANTS)
@pytest.mark.parametrize("tip", [False, True])
def test_residual_grid_of_an_all_invalid_batch_is_all_nan(variant, tip, linear_polar):
    # every angle past (0, pi/2) and I, or with alpha outside the polar's [-1.2, 1.2]
    geoms = [make_geom(gamma=0.05, tip_radius=1.2),
             make_geom(lam=0.6, gamma=-0.3, chord=0.8, tip_radius=1.2)]
    grids = np.array([[-2.0, -1.7, 1.7, 2.5], [-1.9, 1.65, 1.8, 3.0]])
    corr = CorrectionSpec(variant=variant, tip_loss=tip)
    for geom, row in zip(geoms, grids.tolist()):
        for phi in row:
            with pytest.raises(DomainError):
                residual(geom, linear_polar, corr, phi)
    got = _residual_grid(geoms, linear_polar, corr, grids)
    assert got.shape == grids.shape and np.isnan(got).all()


# every law runs the one axial Newton loop under its cap: glauert3 cannot end in one
# step from nu0, while a closed form ends in one, so the other laws get none
@pytest.mark.parametrize("variant, steps", [("glauert3", 1), ("buhl", 0),
                                            ("glauert_empirical", 0), ("wilson_spera", 0)],
                         ids=["glauert3", "buhl", "glauert_empirical", "wilson_spera"])
def test_axial_newton_out_of_steps_is_a_domain_error(monkeypatch, linear_polar, variant, steps):
    geom = make_geom(gamma=0.05, chord=0.6)
    corr = CorrectionSpec(variant=variant, tip_loss=False)
    phis = np.linspace(0.05, geom.theta, 40)
    active = [p for p in phis if 1.0 - tau_nu(geom, linear_polar, corr, p) > corr.a_c]
    assert active  # the correction is active, so the loop runs
    monkeypatch.setattr(model, "_NU_MAX_STEPS", steps)
    for phi in active:
        with pytest.raises(DomainError, match="converge"):
            residual(geom, linear_polar, corr, phi)
    got = _residual_grid([geom], linear_polar, corr, [phis])[0]
    want = np.array([_scalar_or_nan(geom, linear_polar, corr, p) for p in phis])
    assert np.array_equal(np.isnan(got), np.isnan(want))
    assert np.isnan(got).sum() == len(active)


@pytest.mark.parametrize("variant", CORRECTION_VARIANTS)
@pytest.mark.parametrize("tip", [False, True])
@settings(max_examples=40, deadline=None, database=None)
@given(stall=st.booleans(), slope=st.floats(3.0, 7.0), cd0=st.floats(0.0, 0.03),
       cd2=st.floats(0.0, 0.5), alpha_s=st.floats(0.15, 0.4), drop=st.floats(0.0, 0.8),
       lam=st.floats(0.5, 4.0), gamma=st.floats(-0.2, 0.4), chord=st.floats(0.02, 1.5),
       r=st.floats(0.1, 0.98), strict=st.booleans(), frac=st.floats(0.02, 0.98))
def test_slope_matches_central_difference(variant, tip, stall, slope, cd0, cd2, alpha_s,
                                          drop, lam, gamma, chord, r, strict, frac):
    if stall:
        polar = synthetic_polar("linear_lift_with_stall", slope=slope, alpha_s=alpha_s,
                                drop=drop, transition=0.05, cd0=cd0, cd2=cd2)
    else:
        polar = synthetic_polar("linear_lift", slope=slope, cd0=cd0, cd2=cd2, beta=0.4)
    geom = make_geom(lam=lam, gamma=gamma, chord=chord, r=r, tip_radius=1.0)
    corr = CorrectionSpec(variant=variant, tip_loss=tip, strict_lemma_mode=strict)
    phi, h = frac * geom.theta, 1e-7
    try:
        below, ev, above = (model._evaluation(geom, polar, corr, p)
                            for p in (phi - h, phi, phi + h))
    except DomainError:
        return  # residual undefined at a stencil point
    if corr.variant != "none" and any(abs((1.0 - e.nu) - corr.a_c) < 1e-4
                                      for e in (below, ev, above)):
        return  # the slope is one-sided at a = a_c
    central = (above.value - below.value) / (2.0 * h)
    got = model._slope(geom, polar, corr, ev)
    assert abs(got - central) <= 1e-6 * max(1.0, abs(central))


def _sign(value):
    return (value > 0.0) - (value < 0.0)


@pytest.mark.parametrize("variant, tip", [(v, tip) for v in CORRECTION_VARIANTS
                                          for tip in (False, True) if v != "none" or tip])
@settings(max_examples=60, deadline=None, database=None)
@given(stall=st.booleans(), slope=st.floats(3.0, 7.0), cd0=st.floats(0.0, 0.03),
       cd2=st.floats(0.0, 0.5), alpha_s=st.floats(0.15, 0.4), drop=st.floats(0.0, 0.8),
       lam=st.floats(0.5, 4.0), gamma=st.floats(-0.2, 0.4), chord=st.floats(0.02, 1.5),
       r=st.floats(0.1, 0.98), strict=st.booleans(), frac=st.floats(0.005, 0.995))
def test_residual_sign_follows_the_monotone_thrust_balance(variant, tip, stall, slope, cd0,
                                                           cd2, alpha_s, drop, lam, gamma,
                                                           chord, r, strict, frac):
    # The axial balance B(nu) = (1 - nu)/nu + w psi/nu^2 - g is strictly decreasing
    # in nu (the thrust balance increases with a), and B(nu) = 0 at the state.  With
    # X = (mu_L^c - t mu_D^c - sin(phi) t) tan(theta)/sin(phi) and nu_X = 1/(1 + g - X),
    # residual tan(theta)/sin(phi) = 1/nu - 1/nu_X, so its sign is that of q = -B(nu_X).
    if stall:
        polar = synthetic_polar("linear_lift_with_stall", slope=slope, alpha_s=alpha_s,
                                drop=drop, transition=0.05, cd0=cd0, cd2=cd2)
    else:
        polar = synthetic_polar("linear_lift", slope=slope, cd0=cd0, cd2=cd2, beta=0.4)
    geom = make_geom(lam=lam, gamma=gamma, chord=chord, r=r, tip_radius=1.0)
    corr = CorrectionSpec(variant=variant, tip_loss=tip, strict_lemma_mode=strict)
    theta = geom.theta
    try:
        ev = model._evaluation(geom, polar, corr, frac * min(theta, math.pi / 2.0))
    except DomainError:
        return  # residual undefined
    phi = ev.phi
    t = math.tan(theta - phi)
    if abs(ev.value) <= 1e-12 * (abs(ev.mu_L_c) + abs(t * ev.mu_D_c) + abs(ev.mu_G_c)):
        return  # a root within rounding: no sign to compare
    x = (ev.mu_L_c - t * ev.mu_D_c - ev.s * t) * math.tan(theta) / ev.s
    room = 1.0 + model._g(ev.phi, ev.s, t, ev.mu_D_c) - x
    q = x
    if room > 0.0 and corr.variant != "none":
        nu_x = 1.0 / room
        w = math.sin(theta) * ev.s / math.cos(theta - phi)
        q = x - w * corr.psi((1.0 - nu_x) - corr.a_c, ev.tip_factor) / (nu_x * nu_x)
    assert _sign(ev.value) == _sign(q)


_DEMO_CSV = Path(__file__).resolve().parents[1] / "demo" / "polar.csv"
_PLAIN_POLARS = {
    "linear": synthetic_polar("linear_lift", slope=2 * math.pi, cd0=0.01, cd2=0.3, beta=0.4),
    "stall": _STALL,
    "demo": load_polar(_DEMO_CSV),
    "demo_clamped": load_polar(_DEMO_CSV, clamp_cl=True),
}


def _plain_record(geom, polar, phi):
    """The plain model's record from mu_L, mu_D and mu_G alone, in the
    operation order of the plain model's own scalar path: the oracle of
    ``_evaluation`` under the trivial correction."""
    theta = geom.theta
    if not (theta - math.pi / 2.0 < phi < theta + math.pi / 2.0):
        raise DomainError(f"phi={phi:g} outside the momentum-side domain")
    lift, drag = mu_L(geom, polar, phi), mu_D(geom, polar, phi)
    value = lift - math.tan(theta - phi) * drag
    momentum = mu_G(theta, phi)
    return (phi, math.sin(phi), 1.0, polar.cl(phi - geom.gamma), lift, drag, math.nan,
            momentum, value - momentum)


def _as_hex(make):
    """Every field of a record as float hex, or the error's type and text."""
    try:
        return [float(x).hex() for x in make()]
    except BemError as exc:
        return type(exc).__name__, str(exc)


@settings(max_examples=400, deadline=None, database=None)
@given(polar=st.sampled_from(sorted(_PLAIN_POLARS)), lam=st.floats(0.3, 6.0),
       gamma=st.floats(-0.4, 0.6), chord=st.floats(0.01, 2.0), r=st.floats(0.05, 1.5),
       where=st.sampled_from(["anywhere", "anywhere", "pole_below", "pole_above", "zero"]),
       u=st.floats(-1.7, 1.7), eps=st.floats(-2e-9, 2e-9))
def test_plain_record_is_the_plain_formulas_bit_for_bit(polar, lam, gamma, chord, r, where,
                                                        u, eps):
    # all of I, phi <= 0, angles past the polar's range and both mu_G poles
    polar = _PLAIN_POLARS[polar]
    geom = make_geom(lam=lam, gamma=gamma, chord=chord, r=r)
    phi = {"anywhere": u, "zero": eps, "pole_below": geom.theta - math.pi / 2.0 + eps,
           "pole_above": geom.theta + math.pi / 2.0 + eps}[where]
    assert (_as_hex(lambda: model._evaluation(geom, polar, trivial(), phi))
            == _as_hex(lambda: _plain_record(geom, polar, phi)))
