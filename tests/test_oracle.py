"""An independent 50-digit oracle for the original three flow equations.

The package solves one scalar equation in phi and post-computes (a, a').
Here the three equations as the README states them,

    tan(phi) = (1 - a) / (lambda (1 + a'))
    a/(1-a)  = (mu_L^c cos(phi) + mu_D^c sin(phi))/sin^2(phi) - psi((a - a_c)_+)/(1-a)^2
    a'/(1-a) = (mu_L^c sin(phi) - mu_D^c cos(phi))/(lambda sin^2(phi)),

are evaluated in ``mpmath`` at 50 digits, with Prandtl's tip factor and
each variant's psi written out below and the polar summed from the
``PolarTable``'s PCHIP coefficients (floats, so ``mpmath`` holds them
exactly).  Nothing of the package's float kernel is used.  The system is
solved by ``mpmath.findroot`` from every root that ``scan_roots``
returns, and each returned (phi, a, a') must lie within a forward-error
bound: the effect of a backward error of ``ULPS`` units in the last place
on every term of every equation, through the system's Jacobian, plus the
effect of Brent's stopping width on phi along the steepest of the three
curves where two of the equations hold (away from the root, the package's
states lie on a curve where the torque balance and a combination of the
other two hold).

The adjoint's derivatives are checked against the implicit-function
derivative of the same three equations in (gamma, chord), and of the
power density J = F a'(1 - a)(1 - (C_D/C_L) cot(phi)), both at 50 digits
and at the package's own state, so that they test the derivative formulas
and not the root, which the forward-error bound covers.  Their bound is
the effect of the same backward error of ``ULPS`` units on every term of
every derivative, through the system's Jacobian, plus the one difference
that the package's form of the equations makes off the root: it writes
the first equation divided by lambda (1 + a').
"""

import math
from bisect import bisect_right
from pathlib import Path

import pytest

from glauert_bem import (CorrectionSpec, DomainError, ElementGeometry, assemble_adjoint,
                         load_polar, scan_roots, synthetic_polar)
from glauert_bem.model import _evaluation, _slope
from glauert_bem.solvers import _scan_domain

from conftest import rng

mpmath = pytest.importorskip("mpmath")
mp = mpmath.mp

DIGITS = 50
ULPS = 64  # backward error allowed on each term, in units of 2**-53
UNIT = 2.0 ** -53
# scan_roots refines a sign change by Brent's method to a bracket below
# 1e-14 + 8.9e-16 |phi|; the root it returns lies inside that bracket
BRENT_WIDTH = (1e-14, 8.9e-16)

POLARS = {
    "linear": lambda: synthetic_polar("linear_lift", slope=2 * math.pi, cd0=0.01, cd2=0.3,
                                      beta=0.4),
    "stall": lambda: synthetic_polar("linear_lift_with_stall", slope=6.0, alpha_s=0.3,
                                     drop=0.5, transition=0.05, cd0=0.012, cd2=0.1),
    "demo": lambda: load_polar(Path(__file__).resolve().parents[1] / "demo" / "polar.csv"),
}
VARIANTS = ("none", "glauert3", "glauert_empirical", "buhl", "wilson_spera")


def _piecewise(polar, rows, alpha):
    """The polar's piecewise cubic with coefficient ``rows`` at ``alpha``, summed in mpmath."""
    i = bisect_right(polar._left, alpha) - 1
    s = alpha - polar._left[i]
    return sum(mp.mpf(c) * s ** k for k, c in enumerate(rows[i]))


def _coefficients(polar, alpha):
    """(C_L, C_D) at ``alpha``: C_D held at its end values outside the samples."""
    if not polar.alpha_min <= alpha <= polar.alpha_max:
        raise ValueError("cl is not defined outside the sampled range")
    clamped = min(max(alpha, mp.mpf(polar.alpha_min)), mp.mpf(polar.alpha_max))
    return _piecewise(polar, polar._cl_rows, alpha), _piecewise(polar, polar._cd_rows, clamped)


def _tip_factor(geom, phi):
    """Prandtl: F = (2/pi) acos(exp(-(B/2) (1 - r/R) / ((r/R) sin(phi))))."""
    ratio = mp.mpf(geom.r) / mp.mpf(geom.tip_radius)
    exponent = -geom.blade_count * (1 - ratio) / (2 * ratio * mp.sin(phi))
    return 2 / mp.pi * mp.acos(mp.exp(exponent))


def _psi(corr, x, tip):
    """psi(x) at the excess x = (a - a_c)_+ of each variant."""
    if x <= 0 or corr.variant == "none":
        return mp.zero
    return _psi_branch(corr, x, tip)


def _psi_branch(corr, x, tip):
    """psi's formula on its branch x > 0 of a corrected variant, at any x."""
    a_c = mp.mpf(corr.a_c)
    if corr.variant == "glauert3":
        return (x ** 3 / a_c + 2 * x ** 2 + a_c * x) / 4
    if corr.variant == "wilson_spera":
        return x ** 2
    if corr.variant == "buhl":
        return x ** 2 / (2 * tip * (1 - a_c) ** 2)
    f = 1 if corr.strict_lemma_mode else tip  # glauert_empirical
    return (f ** 2 * x ** 2 + (2 * a_c * f ** 2 - mp.mpf("0.286") * f) * x) / mp.mpf("2.5708")


def _terms(geom, polar, corr, phi, a, ap, gamma, chord):
    """The terms of each equation, moved to one side: each equation is the sum of its row.
    The twist ``gamma`` and the ``chord`` are arguments, so that they can be differentiated."""
    lam = mp.mpf(geom.lam)
    s, c = mp.sin(phi), mp.cos(phi)
    tip = _tip_factor(geom, phi) if corr.tip_loss else mp.one
    cl, cd = _coefficients(polar, phi - gamma)
    quarter = mp.mpf(geom.blade_count) * chord / (2 * mp.pi * geom.r) / (4 * tip)
    lift, drag = quarter * cl, quarter * cd
    psi = _psi(corr, a - mp.mpf(corr.a_c), tip)
    return ([mp.tan(phi) * lam * (1 + ap), a - 1],
            [a / (1 - a), -lift * c / s ** 2, -drag * s / s ** 2, psi / (1 - a) ** 2],
            [ap / (1 - a), -lift * s / (lam * s ** 2), drag * c / (lam * s ** 2)])


def _check_root(geom, polar, corr, state):
    """(forward error / bound) of phi, a and a' at one scanned root's state."""
    def system(phi, a, ap):
        return [mp.fsum(row) for row in _terms(geom, polar, corr, phi, a, ap,
                                               geom.gamma, geom.chord)]

    with mp.workdps(DIGITS):
        found = [mp.mpf(state.phi), mp.mpf(state.a), mp.mpf(state.a_prime)]
        exact = mpmath.findroot(system, found)
        jac = mpmath.jacobian(lambda *x: system(*x), list(exact))
        inverse = jac ** -1
        scale = [mp.fsum(abs(t) for t in row)
                 for row in _terms(geom, polar, corr, *exact, geom.gamma, geom.chord)]
        # (da/dphi, da'/dphi) on each curve where two of the three equations hold
        slopes = [mpmath.lu_solve(mpmath.matrix([[jac[k, 1], jac[k, 2]] for k in rows]),
                                  mpmath.matrix([-jac[k, 0] for k in rows]))
                  for rows in ((1, 2), (0, 2), (0, 1))]
        width = BRENT_WIDTH[0] + BRENT_WIDTH[1] * abs(exact[0])
        ratios = []
        for i in range(3):
            backward = ULPS * UNIT * mp.fsum(abs(inverse[i, j]) * scale[j] for j in range(3))
            along = width * (1 if i == 0 else max(abs(slope[i - 1]) for slope in slopes))
            ratios.append(float(abs(found[i] - exact[i]) / (backward + along)))
    return ratios


def _power_terms(geom, polar, corr, phi, a, ap, gamma, chord):
    """The two terms of J = F a'(1 - a) - F a'(1 - a)(C_D/C_L) cot(phi)."""
    tip = _tip_factor(geom, phi) if corr.tip_loss else mp.one
    cl, cd = _coefficients(polar, phi - gamma)
    base = tip * ap * (1 - a)
    return [base, -base * cd / cl * mp.cos(phi) / mp.sin(phi)]


def _check_adjoint(geom, polar, corr, state, adj):
    """(error / bound) of dphi/dx and dJ/dx, x = gamma, chord, at one state."""
    def terms(*v):
        return [t for row in _terms(geom, polar, corr, *v) for t in row]

    with mp.workdps(DIGITS):
        v = [mp.mpf(state.phi), mp.mpf(state.a), mp.mpf(state.a_prime),
             mp.mpf(geom.gamma), mp.mpf(geom.chord)]
        rows = _terms(geom, polar, corr, *v)
        per_term = mpmath.jacobian(terms, v)  # term by (phi, a, a', gamma, chord)
        power = mpmath.jacobian(lambda *u: _power_terms(geom, polar, corr, *u), v)
        grad, size, first = [], [], 0
        for row in rows:  # each equation's derivatives, and the sum of its terms' |derivatives|
            span = range(first, first + len(row))
            grad.append([mp.fsum(per_term[t, k] for t in span) for k in range(5)])
            size.append([mp.fsum(abs(per_term[t, k]) for t in span) for k in range(5)])
            first += len(row)
        d_power = [power[0, k] + power[1, k] for k in range(5)]
        power_size = [abs(power[0, k]) + abs(power[1, k]) for k in range(5)]
        inverse = mpmath.matrix([row[:3] for row in grad]) ** -1
        adjoint = [mp.fsum(d_power[k] * inverse[k, j] for k in range(3)) for j in range(3)]
        # the package divides the first equation by lambda (1 + a'): off the root,
        # that moves its a'-derivative (scaled back) by the equation's value / (1 + a')
        off_root = abs(mp.fsum(rows[0])) / (1 + v[2])
        ratios = []
        for m in (3, 4):
            dx = [mp.fsum(inverse[i, j] * grad[j][m] for j in range(3)) for i in range(3)]
            moved = [ULPS * UNIT * (size[j][m]
                                    + mp.fsum(size[j][k] * abs(dx[k]) for k in range(3)))
                     for j in range(3)]
            moved[0] += off_root * abs(dx[2])
            want_phi = -dx[0]
            want_j = d_power[m] - mp.fsum(d_power[k] * dx[k] for k in range(3))
            bound_phi = mp.fsum(abs(inverse[0, j]) * moved[j] for j in range(3))
            bound_j = (ULPS * UNIT * (power_size[m] + mp.fsum(power_size[k] * abs(dx[k])
                                                              for k in range(3)))
                       + mp.fsum(abs(adjoint[j]) * moved[j] for j in range(3)))
            ratios.append(float(abs(adj.phi_sensitivity[m - 3] - want_phi) / bound_phi))
            ratios.append(float(abs(adj.grad[m - 3] - want_j) / bound_j))
    return ratios


def _scalar_terms(geom, polar, corr, phi, nu, active):
    """The terms of the scalar residual mu_L^c - tan(theta - phi) mu_D^c - mu_G^c and of
    the axial balance B = (1 - nu)/nu - g + w psi/nu^2 at (phi, nu), each row summing to
    its function, with g = cot(phi) t + (mu_D^c/sin(phi)) (1 + cot(phi) t), t = tan(theta
    - phi), w = sin(theta) sin(phi)/cos(theta - phi) and mu_G^c = sin(phi) t + cos(theta)
    sin^2(phi) psi/(cos(theta - phi) nu^2).  psi is its formula on the branch a > a_c
    where ``active``, else 0 (there the residual does not read nu)."""
    theta = mp.atan(1 / mp.mpf(geom.lam))
    s, c = mp.sin(phi), mp.cos(phi)
    t, cos_tp = mp.tan(theta - phi), mp.cos(theta - phi)
    tip = _tip_factor(geom, phi) if corr.tip_loss else mp.one
    cl, cd = _coefficients(polar, phi - mp.mpf(geom.gamma))
    quarter = mp.mpf(geom.blade_count) * geom.chord / (2 * mp.pi * geom.r) / (4 * tip)
    lift, drag = quarter * cl, quarter * cd
    psi = _psi_branch(corr, 1 - nu - mp.mpf(corr.a_c), tip) if active else mp.zero
    cot = c / s
    return ([lift, -t * drag, -s * t, -mp.cos(theta) * s ** 2 * psi / (cos_tp * nu ** 2)],
            [(1 - nu) / nu, -cot * t, -drag / s, -drag / s * cot * t,
             mp.sin(theta) * s / cos_tp * psi / nu ** 2])


def _check_slope(geom, polar, corr, phi):
    """(error / bound) of ``model._slope`` at ``phi``, against ``mpmath.diff`` of the
    scalar residual with nu solved from the axial balance at 50 digits.

    The branch of psi is the package's (a > a_c in its floats, so at a = a_c the
    derivative from below, as ``_slope`` takes), and on it the residual is smooth.  The
    bound is the effect of a backward error of ``ULPS`` units on every term of every
    derivative: those of the residual and, through nu' = -B_phi/B_nu, of the balance."""
    ev = _evaluation(geom, polar, corr, phi)
    got = _slope(geom, polar, corr, ev)
    active = corr.variant != "none" and (1.0 - ev.nu) - corr.a_c > 0.0

    with mp.workdps(DIGITS):
        def solved(p):  # nu on the balance at p, where the residual reads it
            if not active:
                return mp.one
            return mpmath.findroot(
                lambda v: mp.fsum(_scalar_terms(geom, polar, corr, p, v, True)[1]),
                (mp.mpf(ev.nu), mp.mpf(ev.nu) * (1 + mp.mpf(1e-8))))

        x = mp.mpf(ev.phi)
        want = mpmath.diff(
            lambda p: mp.fsum(_scalar_terms(geom, polar, corr, p, solved(p), active)[0]), x)
        nu = solved(x)
        per_term = mpmath.jacobian(  # term by (phi, nu), the residual's terms first
            lambda p, v: [t for row in _scalar_terms(geom, polar, corr, p, v, active)
                          for t in row], [x, nu])
        n_res = len(_scalar_terms(geom, polar, corr, x, nu, active)[0])
        res, bal = range(n_res), range(n_res, per_term.rows)
        d_nu = (-mp.fsum(per_term[k, 0] for k in bal) / mp.fsum(per_term[k, 1] for k in bal)
                if active else mp.zero)

        def moved(rows):  # the effect of ULPS on each term of the rows' derivative in phi
            return ULPS * UNIT * mp.fsum(abs(per_term[k, 0]) + abs(per_term[k, 1] * d_nu)
                                         for k in rows)

        bound = moved(res)
        if active:
            bound += (abs(mp.fsum(per_term[k, 1] for k in res)) * moved(bal)
                      / abs(mp.fsum(per_term[k, 1] for k in bal)))
        return float(abs(got - want) / bound)


def _excess(geom, polar, corr, phi):
    """a - a_c on the package's axial map at ``phi``."""
    return (1.0 - _evaluation(geom, polar, corr, phi).nu) - corr.a_c


def _kink(geom, polar, corr):
    """Two adjacent floats of the scan domain between which a = a_c on the package's
    axial map (a > a_c at the smaller one), or none."""
    if corr.variant == "none":
        return []
    lo, hi = _scan_domain(geom, polar, corr)
    nodes = []  # (phi, a > a_c) where the axial map is defined
    for phi in (lo + (hi - lo) * k / 63 for k in range(64)):
        try:
            nodes.append((phi, _excess(geom, polar, corr, phi) > 0.0))
        except DomainError:
            continue
    for (lo, above), (hi, above_next) in zip(nodes, nodes[1:]):
        try:
            while above and not above_next and math.nextafter(lo, hi) < hi:
                mid = 0.5 * (lo + hi)
                lo, hi = (mid, hi) if _excess(geom, polar, corr, mid) > 0.0 else (lo, mid)
        except DomainError:  # the axial map is undefined in between
            continue
        if above and not above_next:
            return [lo, hi]
    return []


def _elements(seed, count):
    gen = rng(seed)
    for _ in range(count):
        yield ElementGeometry(lam=float(gen.uniform(0.8, 3.0)), r=float(gen.uniform(0.3, 0.9)),
                              gamma=float(gen.uniform(-0.05, 0.2)),
                              chord=float(gen.uniform(0.05, 0.6)),
                              blade_count=3, tip_radius=1.0)


@pytest.mark.parametrize("kind", sorted(POLARS))
@pytest.mark.parametrize("variant", VARIANTS)
@pytest.mark.parametrize("tip", [False, True], ids=["no_tip", "tip"])
def test_scanned_roots_agree_with_the_50_digit_oracle(kind, variant, tip):
    polar = POLARS[kind]()
    corr = CorrectionSpec(variant=variant, tip_loss=tip)
    checked, worst = 0, 0.0
    for geom in _elements(7000 + VARIANTS.index(variant), 3):
        for rec in scan_roots(geom, polar, corr).records:
            if rec.state.note:  # a singular angle of the original system
                continue
            ratios = _check_root(geom, polar, corr, rec.state)
            worst = max(worst, *ratios)
            checked += 1
    assert checked >= 1
    assert worst <= 1.0


@pytest.mark.parametrize("kind", sorted(POLARS))
@pytest.mark.parametrize("variant", VARIANTS)
@pytest.mark.parametrize("tip", [False, True], ids=["no_tip", "tip"])
def test_adjoint_derivatives_agree_with_the_50_digit_oracle(kind, variant, tip):
    polar = POLARS[kind]()
    corr = CorrectionSpec(variant=variant, tip_loss=tip)
    checked, worst = 0, 0.0
    for geom in _elements(7000 + VARIANTS.index(variant), 3):
        for rec in scan_roots(geom, polar, corr).records:
            # a singular angle, or the kink of psi, where psi' is one-sided
            if rec.state.note or abs(rec.state.a - corr.a_c) <= 1e-6:
                continue
            adj = assemble_adjoint(geom, polar, corr, rec.state)
            worst = max(worst, *_check_adjoint(geom, polar, corr, rec.state, adj))
            checked += 1
    assert checked >= 1
    assert worst <= 1.0


@pytest.mark.parametrize("kind", sorted(POLARS))
@pytest.mark.parametrize("variant", VARIANTS)
@pytest.mark.parametrize("tip", [False, True], ids=["no_tip", "tip"])
def test_residual_slope_agrees_with_the_50_digit_oracle(kind, variant, tip):
    polar = POLARS[kind]()
    corr = CorrectionSpec(variant=variant, tip_loss=tip)
    checked, worst, off_root = 0, 0.0, None
    for geom in _elements(7000 + VARIANTS.index(variant), 3):
        for rec in scan_roots(geom, polar, corr).records:
            if rec.state.note:  # a singular angle of the original system
                continue
            worst = max(worst, _check_slope(geom, polar, corr, rec.phi))
            checked += 1
            if off_root is None:  # halfway between the root and the domain's left end
                off_root = (geom, 0.5 * (_scan_domain(geom, polar, corr)[0] + rec.phi))
    assert checked >= 1
    geom, phi = off_root
    for p in [phi, *_kink(geom, polar, corr)]:
        worst = max(worst, _check_slope(geom, polar, corr, p))
    assert worst <= 1.0
