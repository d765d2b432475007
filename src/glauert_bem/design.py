"""Blade element design: closed-form optimum, adjoint gradients, sweeps.

The element power density

    J = F(phi) a' (1 - a) (1 - (C_D/C_L)(phi - gamma) cot(phi))

is maximized over the section design (gamma, chord), subject to the flow
equations.  Two routes are implemented: the classical closed-form optimum
of the drag-free model (phi* = 2 theta / 3), and gradient ascent under
the corrected model with the gradient obtained from a 3x3 adjoint system.

The rotor power coefficient is Cp = (8 / lambda_max^2) * integral of
lambda^3 J over [lambda_min, lambda_max]; the same scale 8 lambda^3 /
lambda_max^2 multiplies the adjoint right-hand side when a lambda_max is
supplied, so the reported gradient is the Cp-integrand gradient.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Callable, Optional

import numpy as np

from .errors import (
    AdjointError,
    BemError,
    DesignEvaluationError,
    DomainError,
    ValidationError,
)
from .model import (
    CorrectionSpec,
    ElementGeometry,
    FlowState,
    TurbineConfig,
    _evaluation,
    _slope,
    _state,
    _tip,
    mu_G,
    residual,  # unused here; benchmarks/selftest.py checks the tracer rebinds it here
)
from .polar import PolarTable, best_glide_angle
from .solvers import _attempt, _scan_domain, _scan_many, _unwrap, scan_roots


@dataclass(frozen=True)
class DesignPoint:
    """Twist/chord pair with its operating angle and power density."""

    gamma: float
    chord: float
    phi_opt: float
    J: float


@dataclass(frozen=True)
class AdjointState:
    """Multipliers and gradient of the constrained power density, and the root's response."""

    p: np.ndarray
    M: np.ndarray
    b: np.ndarray
    grad: np.ndarray
    scale: float
    phi_sensitivity: tuple  # (dphi/dgamma, dphi/dchord) of the root at fixed lambda


@dataclass
class OptimizeResult:
    gamma: float
    chord: float
    phi_opt: float
    J: float
    converged: bool
    iterations: int
    accepted_steps: int
    grad_norm: float
    j_history: list = None  # objective value after each accepted step
    message: str = ""


@dataclass(frozen=True)
class ElementSolution:
    lam: float
    gamma: float
    chord: float
    state: Optional[FlowState]
    J: float
    ok: bool
    message: str = ""


@dataclass
class SweepResult:
    lambdas: np.ndarray
    elements: list
    cp: float
    failures: int


@dataclass
class LandscapeResult:
    gammas: np.ndarray
    chords: np.ndarray
    J: np.ndarray          # nan where no solvable design
    multiple: np.ndarray   # True where the scalar equation has several roots
    invalid: np.ndarray


# ---------------------------------------------------------------------------
# drag-free closed forms


def simplified_closed_forms(theta: float, phi: float):
    """(a, a', J) of the drag-free model expressed through phi alone.

    a  = 1 - sin(phi) cos(theta - phi)/sin(theta)
    a' = sin(phi) sin(theta - phi)/cos(theta)
    J  = sin^2(phi) sin(2 (theta - phi)) / sin(2 theta)
    """
    if not 0.0 < phi <= theta < math.pi / 2.0:
        raise DomainError(f"need 0 < phi <= theta < pi/2; got phi={phi:g}, theta={theta:g}")
    a = 1.0 - math.sin(phi) * math.cos(theta - phi) / math.sin(theta)
    a_prime = math.sin(phi) * math.sin(theta - phi) / math.cos(theta)
    j = math.sin(phi) ** 2 * math.sin(2.0 * (theta - phi)) / math.sin(2.0 * theta)
    return a, a_prime, j


def simplified_optimum(lam: float, polar: PolarTable, turbine: TurbineConfig) -> DesignPoint:
    """Closed-form optimum of the drag-free model at local speed ratio lam.

    phi* = (2/3) theta; the twist places the section at its best glide
    angle and the chord makes the blade curve meet the momentum curve:
    gamma* = phi* - alpha_bar, c* = 8 pi r mu_G(phi*) / (B C_L(alpha_bar)).
    """
    theta = math.atan2(1.0, lam)
    phi_star = 2.0 * theta / 3.0
    alpha_bar = best_glide_angle(polar)
    cl_bar = polar.cl(alpha_bar)  # > 0: best_glide_angle returns no other angle, or raises
    r = turbine.element_radius(lam)
    chord = 8.0 * math.pi * r * mu_G(theta, phi_star) / (turbine.blade_count * cl_bar)
    j = simplified_closed_forms(theta, phi_star)[2]
    return DesignPoint(gamma=phi_star - alpha_bar, chord=chord, phi_opt=phi_star, J=j)


# ---------------------------------------------------------------------------
# power density and a deterministic element solve


def _objective_pieces(geom, polar, state):
    """The polar terms of J and of its derivatives at a solved state."""
    phi = state.phi
    alpha = phi - geom.gamma
    cl, cd, dcl, dcd = polar._on_scalar(alpha, "cl", "cd", "cl_prime", "cd_prime")
    if cl == 0.0:
        raise DesignEvaluationError(
            f"C_L vanishes at the operating angle alpha={alpha:g}; power density undefined")
    cot = math.cos(phi) / math.sin(phi)
    ratio = cd / cl
    dratio = (dcd * cl - cd * dcl) / (cl * cl)
    return alpha, cl, cd, dcl, dcd, cot, ratio, dratio


def _density(state, pieces):
    """J = F a'(1-a)(1 - (C_D/C_L) cot(phi)) from the state's :func:`_objective_pieces`."""
    return state.tip_factor * state.a_prime * (1.0 - state.a) * (1.0 - pieces[6] * pieces[5])


def J_lambda(geom: ElementGeometry, polar: PolarTable, corr: CorrectionSpec,
             state: FlowState) -> float:
    """Element power density F a'(1-a)(1 - (C_D/C_L) cot(phi)) at a solved state."""
    return _density(state, _objective_pieces(geom, polar, state))


_SOLVE_NODES = 240  # the scan of solve_element, and of cp_sweep's elements


def solve_element(geom: ElementGeometry, polar: PolarTable, corr: CorrectionSpec,
                  phi_hint: float = None) -> FlowState:
    """Solve one element deterministically.

    With ``phi_hint`` the root nearest the hint is followed (this is what
    lets the optimizer stay on one solution branch): Newton steps on the
    exact slope run from the hint while they stay within +-delta of it
    (delta = 1e-3 of the scan domain's width, at least 1e-4), and the
    first iterate with |residual| <= 1e-13 is the root.  Where Newton
    leaves that window, meets an undefined residual or a zero slope, or
    takes more than 8 steps, the residual is scanned on 240 nodes and the
    scanned root nearest the hint is taken.  Without a hint the scan's
    largest principal root is taken, else its largest root; a root at a
    singular angle of the original system is never taken.  The same Newton
    polishes a scanned root to 1e-13 where it can (the scan stops at 1e-10).
    """
    domain = _scan_domain(geom, polar, corr)
    if phi_hint is not None and domain[0] < phi_hint < domain[1]:
        state = _newton_near(geom, polar, corr, phi_hint, domain)
        if state is not None:
            return state
    return _root_state(geom, polar, corr, scan_roots(geom, polar, corr, _SOLVE_NODES), phi_hint)


def _chosen_root(roots, phi_hint=None):
    """The scanned root nearest ``phi_hint``, or without a hint the largest
    principal root, else the largest.  A root at a singular angle is
    skipped: its state's a is an artefact of the grid."""
    records = [rec for rec in roots.records if not rec.state.note]
    if not records:
        raise DomainError("no root of the scalar equation on the working interval")
    if phi_hint is not None:
        return min(records, key=lambda rec: abs(rec.phi - phi_hint))
    principals = [rec for rec in records if rec.category == "principal"]
    return max(principals or records, key=lambda rec: rec.phi)


def _root_state(geom, polar, corr, roots, phi_hint=None):
    """:func:`_chosen_root`'s state, polished by Newton where its |residual| > ``_HINT_TOL``."""
    state = _chosen_root(roots, phi_hint).state
    if abs(state.residual) <= _HINT_TOL:
        return state
    return _newton_near(geom, polar, corr, state.phi, _scan_domain(geom, polar, corr)) or state


_HINT_TOL = 1e-13
_HINT_STEPS = 8


def _newton_near(geom, polar, corr, phi, domain):
    """The state at a root Newton reaches from ``phi`` in ``_HINT_STEPS`` steps,
    every iterate in the scan ``domain`` and within +-delta of ``phi``; else None."""
    delta = max(1e-4, 1e-3 * (domain[1] - domain[0]))
    lo, hi = max(domain[0], phi - delta), min(domain[1], phi + delta)
    for _ in range(_HINT_STEPS + 1):
        try:
            ev = _evaluation(geom, polar, corr, phi)
            if abs(ev.value) <= _HINT_TOL:
                return _state(geom, corr, ev)
            slope = _slope(geom, polar, corr, ev)
        except DomainError:
            return None
        if slope == 0.0:
            return None
        phi -= ev.value / slope
        if not lo <= phi <= hi:
            return None
    return None


# ---------------------------------------------------------------------------
# adjoint system


def assemble_adjoint(geom: ElementGeometry, polar: PolarTable, corr: CorrectionSpec,
                     state: FlowState, lambda_max: float = None) -> AdjointState:
    """Build and solve the 3x3 adjoint system M p = b at a converged state.

    Rows of M differentiate the three flow constraints with respect to
    (phi, a, a'); b is the same derivative of the power objective, scaled
    by 8 lambda^3 / lambda_max^2 when ``lambda_max`` is given (the Cp
    integrand) and unscaled otherwise.

    M p = b is solved from the cofactors C of M (p = C^T b / det M); M is
    singular, and :class:`AdjointError` raised, where |det M| < 1e-14
    ||M||_F.  Row 0 of C also gives the root's first-order response to
    the design, ``phi_sensitivity``: dphi/dx = -(C01 dg2/dx + C02 dg3/dx)
    / det M for x = gamma, chord, with g2, g3 the thrust and torque
    balances.

    psi is differenced one-sidedly at a = a_c (derivative from below,
    i.e. zero).  The system is stated once, in floats, by :func:`_adjoint`,
    which the optimizer calls directly.
    """
    rows, rhs, p, grad, sensitivity, scale = _adjoint(
        geom, corr, state, _objective_pieces(geom, polar, state), lambda_max)
    return AdjointState(p=np.array(p), M=np.array(rows), b=np.array(rhs), grad=np.array(grad),
                        scale=scale, phi_sensitivity=sensitivity)


def _adjoint(geom, corr, state, pieces, lambda_max):
    """(rows of M, b, p, grad, phi_sensitivity, scale) of :func:`assemble_adjoint`
    in Python floats, from the state's :func:`_objective_pieces`."""
    phi, a, ap = state.phi, state.a, state.a_prime
    lam = geom.lam
    s, c = math.sin(phi), math.cos(phi)
    f, fp = _tip(geom, corr, phi)
    _, cl, cd, dcl, dcd, cot, ratio, dratio = pieces
    quarter = 0.25 * geom.solidity
    muL, muD = quarter * cl / f, quarter * cd / f
    dmuL = quarter * (dcl / f - cl * fp / (f * f))
    dmuD = quarter * (dcd / f - cd * fp / (f * f))
    nu = 1.0 - a
    if nu == 0.0:
        raise AdjointError("adjoint system undefined at a = 1 (the balances divide by 1 - a)")
    excess = a - corr.a_c
    psi, dpsi, psi_f = corr.psi_terms(excess, f)

    # M[i, j] is the derivative of constraint j (geometric relation tan(phi) -
    # (1-a)/(lam (1+a')), thrust balance, torque balance) in unknown i
    m00 = 1.0 / (c * c)
    m10 = 1.0 / (lam * (1.0 + ap))
    m20 = nu / (lam * (1.0 + ap) ** 2)
    m01 = ((muD - dmuL) * cot / s + (muL * (1.0 + 2.0 * cot * cot) - dmuD) / s
           + psi_f * fp / (nu * nu))
    m11 = (1.0 + dpsi) / (nu * nu) + 2.0 * psi / (nu ** 3)
    m02 = (muL + dmuD) * cot / (lam * s) - (dmuL + muD * (1.0 + 2.0 * cot * cot)) / (lam * s)
    m12 = ap / (nu * nu)
    m22 = 1.0 / nu  # and M[2, 1] = 0: the thrust balance does not involve a'

    scale = 1.0 if lambda_max is None else 8.0 * lam ** 3 / lambda_max ** 2
    drag_gain = 1.0 - ratio * cot
    b0 = scale * (fp * ap * nu * drag_gain + f * ap * nu * (-dratio * cot + ratio / (s * s)))
    b1 = scale * (-f * ap * drag_gain)
    b2 = scale * (f * nu * drag_gain)

    # cofactors C[i, j]; M^-1 = C^T / det
    c00, c01, c02 = m11 * m22, m12 * m20 - m10 * m22, -m11 * m20
    c10, c11, c12 = -m01 * m22, m00 * m22 - m02 * m20, m01 * m20
    c20, c21, c22 = m01 * m12 - m02 * m11, m02 * m10 - m00 * m12, m00 * m11 - m01 * m10
    det = m00 * c00 + m01 * c01 + m02 * c02
    norm = math.hypot(m00, m01, m02, m10, m11, m12, m20, m22)  # Frobenius
    if abs(det) < 1e-14 * max(norm, 1e-300):
        raise AdjointError(f"adjoint matrix numerically singular (det={det:g})")
    p1 = (c01 * b0 + c11 * b1 + c21 * b2) / det
    p2 = (c02 * b0 + c12 * b1 + c22 * b2) / det
    p = ((c00 * b0 + c10 * b1 + c20 * b2) / det, p1, p2)
    # J and the two balances differentiated in (gamma, chord) at fixed (phi, a, a');
    # the geometric relation does not involve the design
    dj = f * ap * nu * dratio * cot  # dJ/dgamma, unscaled; dJ/dchord is 0
    # alpha-derivatives of mu^c at fixed phi (twist enters through alpha only)
    per_f = quarter / f
    muL_a, muD_a = per_f * dcl, per_f * dcd
    dg2 = ((muL_a * c + muD_a * s) / (s * s),
           -(per_f * cl * c + per_f * cd * s) / (geom.chord * s * s))
    dg3 = ((muL_a * s - muD_a * c) / (lam * s * s),
           -(per_f * cl * s - per_f * cd * c) / (geom.chord * lam * s * s))
    grad = (scale * dj - p1 * dg2[0] - p2 * dg3[0], -p1 * dg2[1] - p2 * dg3[1])
    # forward response of the root: (dphi, da, da') = -C (0, dg2, dg3) / det
    sensitivity = (-(c01 * dg2[0] + c02 * dg3[0]) / det, -(c01 * dg2[1] + c02 * dg3[1]) / det)
    return (((m00, m01, m02), (m10, m11, m12), (m20, 0.0, m22)), (b0, b1, b2), p, grad,
            sensitivity, scale)


# ---------------------------------------------------------------------------
# optimization and sweeps


def optimize_element(geom0: ElementGeometry, polar: PolarTable, corr: CorrectionSpec,
                     step: float = 1e-2, tol: float = 1e-6, max_steps: int = 10_000,
                     lambda_max: float = None) -> OptimizeResult:
    """Gradient ascent on (gamma, chord) with backtracking step halving.

    Every iteration retries from the base step ``step``, halving while the
    trial point is unsolvable or decreases the objective; accepted steps
    never decrease it.  A trial with chord <= 0, |gamma| >= pi/2 or a
    non-finite value is unsolvable: :class:`ElementGeometry` rejects it.
    A state with a' <= 0 is unsolvable too, and raises at the start:
    power is extracted only with a' > 0, and as C_L -> 0+ there J grows
    without bound.  A trial solve follows the current root from the angle
    predicted by its first-order response to the step
    (``AdjointState.phi_sensitivity``).
    The optimizer steps in Python floats: it looks up each solved state's
    polar terms once (:func:`_objective_pieces`), takes the state's J and,
    once the step is accepted, its gradient and sensitivity from them
    (:func:`_density` and :func:`_adjoint`), and builds each trial geometry
    from the current one's fields.  So a step builds no numpy array, the
    trial solves run no numpy scalar arithmetic, and the returned
    ``gamma``, ``chord``, ``phi_opt``, ``J``, ``grad_norm`` and
    ``j_history`` are floats.
    Stops at ||grad|| <= tol, after ``max_steps`` trials, or when no
    acceptable step remains.  Returns the current point, the best seen;
    its ``grad_norm`` is nan if its adjoint solve failed.
    Raises :class:`ValidationError` for a ``step`` that is not positive
    and finite (NaN included) and for a negative or NaN ``tol``; ``tol=0``
    runs until no step is acceptable or ``max_steps``.
    """
    if not 0.0 < step < math.inf:  # written so that NaN fails, as in ElementGeometry
        raise ValidationError("step must be positive and finite")
    if not tol >= 0.0:
        raise ValidationError("tol must be >= 0")
    geom = geom0
    state = solve_element(geom, polar, corr)  # initial point must be solvable
    if not state.a_prime > 0.0:
        raise DesignEvaluationError(f"a' = {state.a_prime:g} <= 0 at the start: "
                                    "no power extracted")
    pieces = _objective_pieces(geom, polar, state)
    _, _, _, grad, sens, scale = _adjoint(geom, corr, state, pieces, lambda_max)
    j_history = [scale * _density(state, pieces)]
    kappa = step
    message = "max_steps reached"
    iterations = 0
    while iterations < max_steps:
        iterations += 1
        gnorm = float(np.hypot(grad[0], grad[1]))
        if gnorm <= tol:
            message = "gradient below tolerance"
            break
        try:
            trial_geom = ElementGeometry(lam=geom.lam, r=geom.r,
                                         gamma=geom.gamma + kappa * grad[0],
                                         chord=geom.chord + kappa * grad[1],
                                         blade_count=geom.blade_count,
                                         tip_radius=geom.tip_radius)
            hint = state.phi + kappa * (sens[0] * grad[0] + sens[1] * grad[1])
            trial_state = solve_element(trial_geom, polar, corr, phi_hint=hint)
            j_trial = None
            if trial_state.a_prime > 0.0:
                trial_pieces = _objective_pieces(trial_geom, polar, trial_state)
                j_trial = scale * _density(trial_state, trial_pieces)
        except BemError:
            j_trial = None
        if j_trial is None or j_trial < j_history[-1]:
            kappa *= 0.5
            if kappa * gnorm < 1e-15 * max(1.0, abs(geom.gamma), abs(geom.chord)):
                message = "no acceptable ascent step"
                break
            continue
        geom, state, pieces = trial_geom, trial_state, trial_pieces
        j_history.append(j_trial)
        kappa = step  # backtracking restarts from the base step
        try:
            _, _, _, grad, sens, _ = _adjoint(geom, corr, state, pieces, lambda_max)
        except (AdjointError, DesignEvaluationError) as exc:
            message = f"stopped: {exc}"
            grad = (math.nan, math.nan)
            break
    return OptimizeResult(gamma=geom.gamma, chord=geom.chord, phi_opt=state.phi,
                          J=j_history[-1] / scale,
                          converged=message == "gradient below tolerance",
                          iterations=iterations, accepted_steps=len(j_history) - 1,
                          grad_norm=float(np.hypot(grad[0], grad[1])),
                          j_history=j_history, message=message)


def cp_integral(lambdas, j_values, lambda_max: float) -> float:
    """Cp = (8/lambda_max^2) * trapezoid of lambda^3 J over the grid."""
    lambdas = np.asarray(lambdas, dtype=float)
    integrand = (lambdas ** 3 * np.asarray(j_values, dtype=float)).tolist()
    lams = lambdas.tolist()  # the loop runs on Python floats
    total = 0.0
    for k in range(len(lams) - 1):  # fixed left-to-right reduction order
        total += 0.5 * (lams[k + 1] - lams[k]) * (integrand[k] + integrand[k + 1])
    return 8.0 * total / lambda_max ** 2


def cp_sweep(turbine: TurbineConfig, polar: PolarTable, corr: CorrectionSpec,
             design: Callable[[float], tuple], grid_n: int = 50) -> SweepResult:
    """Solve every element of a design and integrate the power coefficient.

    ``design`` maps a local speed ratio to (gamma, chord).  Failed elements
    contribute J = 0 and are flagged; one whose design failed has gamma =
    chord = nan.  The sweep errors out only when every element fails.
    Every design is made first; the elements are then scanned in one batch
    (``solvers._scan_many``), and each takes the root :func:`solve_element`
    takes without a hint, so its state is the same.
    """
    if grid_n < 2:
        raise ValidationError("grid_n must be >= 2")
    lambdas = np.linspace(turbine.lambda_min, turbine.lambda_max, grid_n)
    designs, geoms = [], []  # geoms: each element's geometry, or its design's error
    for lam in map(float, lambdas):
        gamma = chord = math.nan
        try:
            gamma, chord = design(lam)
            geoms.append(ElementGeometry.from_turbine(turbine, lam, gamma, chord))
        except BemError as exc:
            geoms.append(exc)
        designs.append((lam, gamma, chord))
    elements = []
    for (lam, gamma, chord), geom, roots in zip(designs, geoms,
                                                _scan_many(geoms, polar, corr, _SOLVE_NODES)):
        try:
            state = _root_state(geom, polar, corr, _unwrap(roots))
            j = J_lambda(geom, polar, corr, state)
            elements.append(ElementSolution(lam, gamma, chord, state, j, True))
        except BemError as exc:
            elements.append(ElementSolution(lam, gamma, chord, None, 0.0,
                                            False, message=str(exc)))
    failures = sum(1 for e in elements if not e.ok)
    if failures == len(elements):
        raise DomainError("every element of the sweep failed to solve")
    cp = cp_integral(lambdas, [e.J for e in elements], turbine.lambda_max)
    return SweepResult(lambdas=lambdas, elements=elements, cp=cp, failures=failures)


def landscape(geom: ElementGeometry, polar: PolarTable, corr: CorrectionSpec,
              gamma_range: tuple, chord_range: tuple, resolution: int = 32,
              grid_size: int = 160) -> LandscapeResult:
    """Tabulate J over a (gamma, chord) grid, flagging multivalued cells.

    A cell takes the root :func:`solve_element` takes without a hint, from
    a scan of ``grid_size`` nodes; below 100 nodes, as for ``scan_roots``,
    and below 16 cells per axis, :class:`ValidationError` is raised.  The
    cells of one twist are scanned in one batch (``solvers._scan_many``),
    which keeps the memory of a call to one row of the table; each cell's
    roots are those of its own scan.  A cell is ``invalid`` where it has no
    root, or where ``ElementGeometry`` rejects its design (chord <= 0, say).
    """
    if resolution < 16:
        raise ValidationError("resolution must be >= 16 per axis")
    gammas = np.linspace(gamma_range[0], gamma_range[1], resolution)
    chords = np.linspace(chord_range[0], chord_range[1], resolution)
    j = np.full((resolution, resolution), math.nan)
    multiple = np.zeros((resolution, resolution), dtype=bool)
    invalid = np.ones((resolution, resolution), dtype=bool)
    for i, gam in enumerate(gammas):
        cells = [_attempt(replace, geom, gamma=float(gam), chord=float(ch)) for ch in chords]
        scans = _scan_many(cells, polar, corr, grid_size)
        for k, (cell, roots) in enumerate(zip(cells, scans)):
            try:
                state = _root_state(cell, polar, corr, _unwrap(roots))
            except BemError:
                continue
            invalid[i, k] = False
            multiple[i, k] = len(roots.records) > 1
            try:
                j[i, k] = J_lambda(cell, polar, corr, state)
            except DesignEvaluationError:
                invalid[i, k] = True
                multiple[i, k] = True  # multivalued/undefined objective
    return LandscapeResult(gammas=gammas, chords=chords, J=j,
                           multiple=multiple, invalid=invalid)
