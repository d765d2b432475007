"""Solution algorithms for the scalar flow-angle equation.

Four methods are provided:

* :func:`solve_usual` -- the classical sequential fixed point on
  (phi, a, a_prime).
* :func:`solve_fixed_point` -- damped fixed point on the scalar residual
  with the adaptive coefficient rho_eps; monotone from phi0 = theta under
  the no-correction hypotheses.
* :func:`solve_newton` -- Newton steps on the scalar residual with its
  exact slope (``model._slope``) and a bracket-bisection safeguard.
* :func:`solve_bisection` -- plain interval halving.

Each method is a start point and a step; one loop, ``_iterate``, runs
them all, evaluates each iterate once for the step to read, and stops
them alike: on |residual(phi)| <= tol at an iterate (the unified
criterion, so iteration counts are comparable), on a step outside
(0, pi/2) (Newton's safeguard keeps its steps inside, and its fallback
stays in the caller's bracket), where the residual is undefined at an
iterate (bisection steps on), after max_iter counted iterations
("max_iter reached"), or where a step cannot go on (unbracketed Newton
returning to an earlier iterate, say); the report's state comes from
the stopping iterate's record.  The usual procedure counts its first
iterate; the fixed point and Newton count steps from phi0; bisection
counts midpoints.  Each algorithm's native error measure is kept in the
report for diagnostics.  Non-convergence is reported, never raised;
only malformed inputs raise, and the fixed point where its rho_eps cannot
be formed (:class:`HypothesisError`).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from typing import Optional

import numpy as np

from .errors import BemError, BracketError, DomainError, HypothesisError, ValidationError, _count
from .model import (
    PHI_EPS,
    CorrectionSpec,
    ElementGeometry,
    FlowState,
    _axial_nu,
    _evaluation,
    _mu_c_prime_grid,
    _residual_grid,
    _slope,
    _state,
    _tip_rate,
    mu_G,
    mu_G_prime,
    mu_L,
    recover_induction,
    residual,
)
from .polar import PolarTable


@dataclass(frozen=True)
class SolveOptions:
    """Tolerances and initial data shared by the solvers."""

    tol: float = 1e-10
    max_iter: int = 10_000                 # an integer >= 1
    epsilon: float = 1.0
    phi0: Optional[float] = None           # default: theta, where cl is defined (_start)
    bracket_lo: float = 1e-4               # Newton's and bisection's initial bracket
    bracket_hi: Optional[float] = None     # default: as phi0
    phi_tol: float = 1e-12

    def __post_init__(self):
        if not (0.0 < self.tol < math.inf and 0.0 < self.phi_tol < math.inf):
            raise ValidationError("tolerances must be positive and finite")
        if not all(math.isfinite(x) for x in (self.phi0, self.bracket_lo, self.bracket_hi)
                   if x is not None):
            raise ValidationError("phi0 and the bracket ends must be finite")
        if not 0.0 < self.epsilon <= 1.0:
            raise ValidationError("epsilon must lie in (0, 1]")
        object.__setattr__(self, "max_iter", _count("max_iter", self.max_iter, 1))
        if self.bracket_hi is not None and not self.bracket_lo < self.bracket_hi:
            raise ValidationError("bracket endpoints must satisfy lo < hi")

    def bracket(self, geom: ElementGeometry, polar: PolarTable, corr: CorrectionSpec):
        """The initial bracket on ``geom`` (hi defaults to the solvers' start,
        :func:`_start`); BracketError if empty."""
        hi = _start(geom, polar, corr) if self.bracket_hi is None else self.bracket_hi
        if not self.bracket_lo < hi:
            raise BracketError(f"wrong initial guess: empty bracket ({self.bracket_lo:g}, {hi:g})")
        return self.bracket_lo, hi


@dataclass
class SolveReport:
    """Outcome of one solve: final angle, state, iterates and their native errors."""

    phi_star: float
    state: Optional[FlowState]
    iterations: int
    converged: bool
    phi_history: list = field(default_factory=list)
    native_err_history: list = field(default_factory=list)
    message: str = ""


@dataclass(frozen=True)
class RootRecord:
    """A scanned root: its angle, its state and its :func:`classify_root` category."""

    phi: float
    state: FlowState
    category: str


@dataclass
class RootSet:
    records: list

    @property
    def phis(self):
        return [rec.phi for rec in self.records]

    @property
    def categories(self):
        return [rec.category for rec in self.records]


@dataclass(frozen=True)
class ExistenceReport:
    """Margins of the interval, simplified and corrected existence criteria at max I+."""

    interval_ok: bool
    interval_margin: float
    upper_is_theta: bool
    simplified_ok: bool
    simplified_margin: float
    corrected_ok: bool
    corrected_margin: float
    message: str = ""


@dataclass(frozen=True)
class AppendixReport:
    """Verdicts of :func:`check_appendix_conditions`; the defaults make the report
    where the conditions do not apply, whose message says why."""

    applicable: bool = False
    stability_ok: bool = False
    stability_margin: float = math.nan
    contraction1_ok: bool = False
    contraction1_value: float = math.nan
    contraction2_ok: bool = False
    contraction2_value: float = math.nan
    guaranteed: bool = False
    message: str = ""


@dataclass(frozen=True)
class RateBound:
    applies: bool
    factor: float
    initial: float


# ---------------------------------------------------------------------------
# helpers


def _residual_safe(geom, polar, corr, phi):
    try:
        return residual(geom, polar, corr, phi)
    except DomainError:
        return math.nan


# Brent's method stops once the bracket is below xtol + rtol * |x|, the
# tolerances scan_roots always passed to scipy's brentq.
_BRENT_XTOL = 1e-14
_BRENT_RTOL = 8.9e-16
_BRENT_MAXITER = 100


def _brentq(f, xa, xb):
    """Root of ``f`` on a sign-change bracket by Brent's method.

    Step for step the algorithm of scipy's ``brentq`` (Brent 1973, ch. 4:
    inverse quadratic or secant steps, bisection when a step is not short
    enough), so it returns the same float for the same function.
    """
    xpre, xcur = float(xa), float(xb)
    xblk = fblk = spre = scur = 0.0
    fpre, fcur = f(xpre), f(xcur)
    if fpre == 0.0:
        return xpre
    if fcur == 0.0:
        return xcur
    if math.copysign(1.0, fpre) == math.copysign(1.0, fcur):
        raise BracketError(f"no sign change on [{xa:g}, {xb:g}]")
    for _ in range(_BRENT_MAXITER):
        if fpre != 0.0 and fcur != 0.0 and \
                math.copysign(1.0, fpre) != math.copysign(1.0, fcur):
            xblk, fblk = xpre, fpre
            spre = scur = xcur - xpre
        if abs(fblk) < abs(fcur):
            xpre, xcur, xblk = xcur, xblk, xcur
            fpre, fcur, fblk = fcur, fblk, fcur
        delta = (_BRENT_XTOL + _BRENT_RTOL * abs(xcur)) / 2
        sbis = (xblk - xcur) / 2
        if fcur == 0.0 or abs(sbis) < delta:
            return xcur
        if abs(spre) > delta and abs(fcur) < abs(fpre):
            try:
                if xpre == xblk:  # secant
                    stry = -fcur * (xcur - xpre) / (fcur - fpre)
                else:  # inverse quadratic
                    dpre = (fpre - fcur) / (xpre - xcur)
                    dblk = (fblk - fcur) / (xblk - xcur)
                    stry = -fcur * (fblk * dblk - fpre * dpre) / (dblk * dpre * (fblk - fpre))
            except ZeroDivisionError:  # IEEE gives inf or nan: not a short step
                stry = math.inf
            if 2 * abs(stry) < min(abs(spre), 3 * abs(sbis) - delta):
                spre, scur = scur, stry
            else:
                spre = scur = sbis
        else:
            spre = scur = sbis
        xpre, fpre = xcur, fcur
        if abs(scur) > delta:
            xcur += scur
        else:
            xcur += delta if sbis > 0 else -delta
        fcur = f(xcur)
    raise BracketError(f"Brent's method did not converge in {_BRENT_MAXITER} iterations")


def _finish(geom, polar, corr, phi, ev, opts, iters, phi_hist, err_hist, message=""):
    """The report of a solve ending at ``phi``, with the state from its record ``ev``;
    ``phi`` is evaluated here only where the solve holds no record (``ev=None``)."""
    state = None
    try:
        if ev is None:
            ev = _evaluation(geom, polar, corr, phi)
        state = _state(geom, corr, ev)
        res = state.residual
    except DomainError as exc:
        res = math.nan
        message = (message + "; " if message else "") + f"state recovery failed: {exc}"
    converged = math.isfinite(res) and abs(res) <= opts.tol
    if converged:
        domain = _attempt(_scan_domain, geom, polar, corr)
        lo, hi = (phi, phi) if isinstance(domain, BemError) else domain
        if not lo - 1e-9 <= phi <= hi + 1e-9:
            # a genuine solution, but beyond the trusted working interval
            message = (message + "; " if message else "") + \
                "converged outside the working interval"
    return SolveReport(phi_star=float(phi), state=state,
                       iterations=iters, converged=converged,
                       phi_history=phi_hist, native_err_history=err_hist, message=message)


class _Stop(Exception):
    """Raised by a step that cannot go on; its text is the report's message."""


def _iterate(geom, polar, corr, opts, step, phi0=None, fenced=True,
             last=None, note=None, undefined="diverged: residual undefined at iterate"):
    """The one iteration loop of the four methods: stop rules, histories, report.

    ``step(phi, ev)`` maps the latest iterate and its record ``ev`` from
    ``model._evaluation`` to the next iterate and the method's native
    error (``None`` records none), or raises :class:`_Stop`.  A start
    point ``phi0`` is iterate 0, evaluated but not counted; without one
    the first iterate is ``step(None, None)``.  With ``fenced``, a step
    outside (0, pi/2) ends the solve.  An iterate where the residual is
    undefined ends it with the message ``undefined.format(error)``, or,
    with ``undefined=None``, is passed on as ``ev = None``.  A solve that
    ends short of a root reports at ``last(phi, ev)`` (default: the last
    iterate), and ``note()`` is appended to every message.
    """
    phi, ev, at_root = phi0, None, False
    phi_hist, err_hist, message = [], [], ""
    uncounted = phi0 is not None
    while True:
        if phi is None or phi_hist:  # every iterate but a given start point is a step
            try:
                phi_next, err = step(phi, ev)
            except _Stop as stop:
                message = str(stop)
                break
            if err is not None:
                err_hist.append(err)
            if fenced and not 0.0 < phi_next < math.pi / 2.0:
                message = f"diverged: iterate phi={phi_next:g} left (0, pi/2)"
                phi = phi_next if phi is None else phi  # no iterate yet: report the step
                break
            phi = phi_next
        phi_hist.append(phi)
        try:
            ev = _evaluation(geom, polar, corr, phi)
        except DomainError as exc:
            ev, error = None, exc
        if ev is not None and abs(ev.value) <= opts.tol:
            at_root = True
            break
        if len(phi_hist) - uncounted >= opts.max_iter:
            message = "max_iter reached"
            break
        if ev is None and undefined is not None:
            message = undefined.format(error)
            break
    if last is not None and not at_root:
        phi, ev = last(phi, ev), None
    if note is not None:
        message = "; ".join(filter(None, [message, note()]))
    return _finish(geom, polar, corr, phi, ev, opts, len(phi_hist) - uncounted,
                   phi_hist, err_hist, message)


def _interval(geom, polar, plus=True):
    """(lo, hi) of the working interval I+ (``plus``) or of the plain model's I,
    ends inside the polar; :class:`ValidationError` where it is empty.

    I+ runs from max(1e-4 max I+, PHI_EPS) to max I+ = min(theta, beta + gamma);
    I from theta - pi/2 + 1e-6 to min(theta + pi/2 - 1e-6, pi/2 - 1e-9).  Each
    is cut to gamma + [alpha_min, alpha_max], and an end whose angle of attack
    rounds outside that range, where cl is undefined, steps inward until it lies
    inside.  This is the one place that computes max I+.
    """
    gamma = geom.gamma
    if plus:
        hi = min(geom.theta, polar.beta + gamma)
        lo = max(1e-4 * hi, PHI_EPS)
    else:
        lo = geom.theta - math.pi / 2.0 + 1e-6
        hi = min(geom.theta + math.pi / 2.0 - 1e-6, math.pi / 2.0 - 1e-9)
    lo, hi = max(gamma + polar.alpha_min, lo), min(gamma + polar.alpha_max, hi)
    while hi - gamma > polar.alpha_max:
        hi = math.nextafter(hi, -math.inf)
    while lo - gamma < polar.alpha_min:
        lo = math.nextafter(lo, math.inf)
    if not lo < hi:
        raise ValidationError(
            f"working interval {'I+' if plus else 'I'} is empty for this element")
    return lo, hi


def _reaches_theta(geom, hi):
    """Whether ``hi``, the right end of I+ (:func:`_interval`), is theta: it lies
    within 1e-12 of it.  ``check_existence``'s ``upper_is_theta``, and where
    ``check_appendix_conditions`` applies."""
    return hi >= geom.theta - 1e-12


def _start(geom, polar, corr):
    """The four solvers' default start: theta, the angle at rest, wherever the
    residual can be defined there (``polar.clamp_cl``, or theta - gamma <=
    alpha_max); else the right end of the scan domain (:func:`_interval`, I
    for the trivial correction and I+ otherwise), whose angle of attack lies
    inside the polar, or theta still where that domain is empty."""
    theta = geom.theta
    if polar.clamp_cl or theta - geom.gamma <= polar.alpha_max:
        return theta
    domain = _attempt(_interval, geom, polar, plus=not corr.is_trivial)
    return theta if isinstance(domain, BemError) else domain[1]


def grid_I_plus(geom: ElementGeometry, polar: PolarTable):
    """The 1000-node grid of I+ (:func:`_interval`) on which ``solve_fixed_point``,
    ``fixed_point_rate_bound`` and ``check_appendix_conditions`` take their maxima;
    its last node is max I+.  :class:`ValidationError` where I+ is empty."""
    return np.linspace(*_interval(geom, polar), 1000)


# ---------------------------------------------------------------------------
# the four algorithms


def solve_usual(geom: ElementGeometry, polar: PolarTable, corr: CorrectionSpec,
                opts: SolveOptions = SolveOptions()) -> SolveReport:
    """Classical sequential iteration: phi from (a, a'), then a, then a'.

    Starts from rest, (a, a') = (0, 0), whose angle is theta; where theta's
    angle of attack lies beyond the polar, from the right end of the scan
    domain (:func:`_start`).  A given opts.phi0 replaces that first angle
    (useful to start the recursion at a chosen angle).  Divergence (iterate
    leaving the domain) is flagged in the report, not raised.
    """
    def step(phi, ev):
        if phi is None:
            return (opts.phi0 if opts.phi0 is not None else _start(geom, polar, corr)), None
        s, c, lift, drag = math.sin(phi), math.cos(phi), ev.mu_L_c, ev.mu_D_c
        try:  # invert the thrust balance at phi
            a = 1.0 - _axial_nu((lift * c + drag * s) / (s * s), 1.0, corr, ev.tip_factor)
        except DomainError as exc:
            raise _Stop(f"diverged: {exc}")
        ap = (1.0 - a) * (lift * s - drag * c) / (geom.lam * s * s)
        denom = geom.lam * (1.0 + ap)
        if denom == 0.0:
            raise _Stop("diverged: 1 + a' reached zero")
        return math.atan2(1.0 - a, denom), abs(math.tan(phi) - (1.0 - a) / denom)

    return _iterate(geom, polar, corr, opts, step, undefined="diverged: {}")


def solve_fixed_point(geom: ElementGeometry, polar: PolarTable, corr: CorrectionSpec,
                      opts: SolveOptions = SolveOptions()) -> SolveReport:
    """Damped fixed point phi <- phi - rho_eps(phi) * residual(phi).

    rho_eps(phi) = eps / (max(0, -mu_G') + max_{I+} mu_L^c' + (1 + tan^2
    theta) mu_D^c(phi)); the supremum of mu_L^c' is approximated by the
    maximum over a 1000-point grid of I+, evaluated in one numpy call (to
    a few ulp of the scalar path).  From phi0 = theta with no active
    correction and non-decreasing mu_L^c, mu_D^c, the iterates decrease
    monotonically to the largest root.  phi0 defaults to theta, or where
    theta's angle of attack lies beyond the polar to the right end of the
    scan domain (:func:`_start`).  :class:`HypothesisError` is raised where
    rho_eps cannot be formed: where its denominator is <= 0, and where I+
    is empty, since rho_eps needs the supremum over I+ (the trivial
    correction's scan domain, I, can be non-empty there).
    """
    rho_eps = _rho_eps(geom, polar, corr, opts.epsilon)[0]

    def step(phi, ev):
        phi_next = phi - rho_eps(phi, ev) * ev.value
        return phi_next, abs(phi_next - phi)

    return _iterate(geom, polar, corr, opts, step,
                    phi0=opts.phi0 if opts.phi0 is not None else _start(geom, polar, corr))


def _rho_eps(geom, polar, corr, epsilon):
    """The damped fixed point's coefficient as ``rho_eps(phi, ev)``, with the grid of
    I+ (:func:`grid_I_plus`) and mu_L^c' on it, whose maximum stands in for the
    supremum; :class:`HypothesisError` where I+ is empty or, at ``phi``, where the
    denominator is <= 0.  ``ev`` is ``phi``'s record from ``model._evaluation``."""
    try:
        grid = grid_I_plus(geom, polar)
    except ValidationError as exc:
        raise HypothesisError(f"{exc}; rho_eps needs the supremum of mu_L^c' over I+") from None
    dmu_L = _mu_c_prime_grid(geom, polar, corr, grid)
    max_dmu_L = float(dmu_L.max())
    sec2 = 1.0 + math.tan(geom.theta) ** 2

    def rho_eps(phi, ev):
        denom = max(0.0, -mu_G_prime(geom.theta, phi)) + max_dmu_L + sec2 * ev.mu_D_c
        if denom <= 0.0:
            raise HypothesisError(
                "rho_eps denominator <= 0: the non-decreasing mu_L^c/mu_D^c "
                f"hypothesis fails at phi={phi:g} (max mu_L^c' = {max_dmu_L:g})")
        return epsilon / denom

    return rho_eps, grid, dmu_L


_STALL_STEPS = 50  # unbracketed Newton steps without a new least |residual|


def solve_newton(geom: ElementGeometry, polar: PolarTable, corr: CorrectionSpec,
                 opts: SolveOptions = SolveOptions()) -> SolveReport:
    """Newton iteration on the scalar residual, bisection-safeguarded.

    Steps use the exact residual slope (``model._slope``), so a simple
    root, on a correction branch too, is reached quadratically.  Every
    iterate, phi0 included, narrows the sign-change bracket; a step that
    would leave it, or a slope below 1e-14, falls back to one bisection
    halving.  Without a sign change on the initial bracket the method runs
    unsafeguarded from phi0 (and reports divergence instead of crashing);
    there the next iterate depends on the last one alone, so a step back
    to an earlier iterate ends the solve as a cycle, and 50 steps in which
    the least |residual| seen does not fall end it as making no progress.
    """
    lo, hi = opts.bracket(geom, polar, corr)
    f_lo = _residual_safe(geom, polar, corr, lo)
    f_hi = _residual_safe(geom, polar, corr, hi)
    have_bracket = (math.isfinite(f_lo) and math.isfinite(f_hi)
                    and (f_lo < 0.0) != (f_hi < 0.0))
    fallbacks, visited, least, least_at = 0, set(), math.inf, 0

    def step(phi, ev):
        nonlocal lo, hi, f_lo, fallbacks, least, least_at
        res = ev.value
        if have_bracket and lo < phi < hi:
            if (res < 0.0) == (f_lo < 0.0):
                lo, f_lo = phi, res
            else:
                hi = phi
        deriv = _slope(geom, polar, corr, ev)
        phi_next = phi - res / deriv if abs(deriv) >= 1e-14 else math.nan
        take_fallback = (not math.isfinite(phi_next)
                         or (have_bracket and not lo < phi_next < hi)
                         or not 0.0 < phi_next < math.pi / 2.0)
        if take_fallback:
            if not have_bracket:
                raise _Stop("diverged: unsafe Newton step and no bracket to fall back on")
            phi_next = lo + 0.5 * (hi - lo)
            fallbacks += 1
        elif not have_bracket:
            visited.add(phi)
            if phi_next in visited:
                raise _Stop(f"diverged: unbracketed Newton cycles (phi={phi_next:g} revisited)")
            if abs(res) < least:
                least, least_at = abs(res), len(visited)
            elif len(visited) - least_at >= _STALL_STEPS:
                raise _Stop("diverged: unbracketed Newton makes no progress")
        return phi_next, abs(phi_next - phi)

    phi0 = opts.phi0 if opts.phi0 is not None else (
        0.5 * (lo + hi) if have_bracket else _start(geom, polar, corr))
    # a fallback stays in the caller's bracket, which may reach past (0, pi/2)
    return _iterate(geom, polar, corr, opts, step, phi0=phi0, fenced=False,
                    note=lambda: f"{fallbacks} bisection fallback step(s)" if fallbacks else "")


def solve_bisection(geom: ElementGeometry, polar: PolarTable, corr: CorrectionSpec,
                    opts: SolveOptions = SolveOptions()) -> SolveReport:
    """Interval halving on the scalar residual.

    Requires a residual defined at both ends of the initial bracket, with
    a sign change, else raises :class:`BracketError` ("wrong initial
    guess").  The tracked bracket width is halved exactly each iteration,
    so after k iterations it equals the initial width times 2**-k.  Short
    of a root, the solve reports the midpoint of its last bracket.
    """
    lo, hi = opts.bracket(geom, polar, corr)
    if not 0.0 < lo < hi < math.pi / 2.0:
        raise ValidationError(f"bracket ({lo:g}, {hi:g}) must sit inside (0, pi/2)")
    try:
        f_lo, f_hi = residual(geom, polar, corr, lo), residual(geom, polar, corr, hi)
    except DomainError as exc:
        raise BracketError(f"wrong initial guess: residual undefined at a bracket end ({exc})")
    for end, f_end in ((lo, f_lo), (hi, f_hi)):
        if f_end == 0.0:
            return _finish(geom, polar, corr, end, None, opts, 0, [end], [])
    if (f_lo < 0.0) == (f_hi < 0.0):
        raise BracketError(
            f"wrong initial guess: residual has the same sign at both ends "
            f"({f_lo:g}, {f_hi:g})")
    width = hi - lo

    def shrink(mid, ev):
        """Keep the half [lo, lo + width] that holds the sign change; its midpoint."""
        nonlocal lo, f_lo
        if mid is not None and ev is not None and (ev.value < 0.0) == (f_lo < 0.0):
            lo, f_lo = mid, ev.value
        # else keep lo: [lo, lo + width] is already the surviving half
        return lo + 0.5 * width

    def step(mid, ev):
        nonlocal width
        if width <= opts.phi_tol:
            raise _Stop()
        shrink(mid, ev)
        width *= 0.5  # exact in binary floating point
        return lo + width, width

    return _iterate(geom, polar, corr, opts, step, last=shrink, undefined=None)


METHODS = {
    "usual": solve_usual,
    "fixed": solve_fixed_point,
    "newton": solve_newton,
    "bisect": solve_bisection,
}


# ---------------------------------------------------------------------------
# brackets, condition checks and scanning


def bracket_via_psi0(geom: ElementGeometry, polar: PolarTable, corr: CorrectionSpec,
                     opts: SolveOptions = SolveOptions()):
    """Bracket the corrected solution using the psi = 0 subproblem.

    Solves the model with the high-induction correction switched off (tip
    loss and drag kept) by bisection on [opts.bracket_lo, max I+]; its root
    phi_0 has non-positive corrected residual, so (phi_0, max I+] brackets a
    corrected root where the corrected residual at max I+ is >= 0.  This
    needs the psi = 0 residual to change sign on [opts.bracket_lo, max I+],
    which the existence criterion does not ensure: where it keeps its sign,
    :class:`BracketError` names the psi = 0 subproblem, even where the
    corrected model has a root.  With variant 'none' the left end is itself
    a root (degenerate bracket).
    """
    base = replace(corr, variant="none", a_c=1.0)
    hi = _interval(geom, polar)[1]
    try:
        phi0 = solve_bisection(geom, polar, base, replace(opts, bracket_hi=hi)).phi_star
    except BracketError as exc:
        raise BracketError(f"psi=0 subproblem has no bracket on "
                           f"[{opts.bracket_lo:g}, max I+ = {hi:g}]: {exc}") from None
    if corr.variant != "none" and phi0 >= hi - max(1e-9, 10.0 * opts.phi_tol):
        raise BracketError("empty bracket: psi=0 root sits at the right endpoint")
    return (phi0, hi)


def check_existence(geom: ElementGeometry, polar: PolarTable,
                    corr: CorrectionSpec) -> ExistenceReport:
    """Numeric margins for the solvability criteria of both model versions.

    Each margin is evaluated at max I+, the right end of :func:`_interval`,
    and ``upper_is_theta`` says whether that end is theta (within 1e-12).  A
    criterion holds where its margin is >= 0 and its function (mu_L - mu_G
    for the simplified model, the residual for the corrected one) is <= 0 at
    min I+, so that the function changes sign on I+: the intermediate value
    theorem needs both ends.  Where min I+ does not give that sign, the
    criterion does not hold, and the message says why, as it does where a
    margin cannot be evaluated.  Where I+ is empty, both margins are NaN,
    neither criterion holds, ``upper_is_theta`` is false and the message is
    :func:`_interval`'s.
    """
    theta = geom.theta
    interval_margin = (polar.beta + geom.gamma) - (theta - math.pi / 2.0)
    domain = _attempt(_interval, geom, polar)
    if isinstance(domain, BemError):
        return ExistenceReport(interval_margin >= 0.0, interval_margin, False,
                               False, math.nan, False, math.nan, message=str(domain))
    lo, hi = domain
    simplified = _criterion("simplified", lo, hi,
                            lambda phi: mu_L(geom, polar, phi) - mu_G(theta, phi))
    corrected = _criterion("corrected", lo, hi, lambda phi: residual(geom, polar, corr, phi))
    message = "; ".join(filter(None, [simplified[2], corrected[2]]))
    return ExistenceReport(interval_ok=interval_margin >= 0.0, interval_margin=interval_margin,
                           upper_is_theta=_reaches_theta(geom, hi),
                           simplified_ok=simplified[1], simplified_margin=simplified[0],
                           corrected_ok=corrected[1], corrected_margin=corrected[0],
                           message=message)


def _criterion(name, lo, hi, fn):
    """(margin, ok, message) of one existence criterion of :func:`check_existence`
    on I+ = [``lo``, ``hi``]: the margin is ``fn(hi)``, and ok where it is 0, or
    > 0 with ``fn(lo)`` <= 0."""
    try:
        margin = fn(hi)
    except DomainError as exc:
        return math.nan, False, f"{name} criterion not evaluable: {exc}"
    if not margin > 0.0:
        return margin, margin == 0.0, ""
    try:
        low = fn(lo)
    except DomainError as exc:
        return margin, False, f"{name} criterion undecided at min I+: {exc}"
    if not low <= 0.0:
        return margin, False, (f"{name} criterion undecided: {low!r} at min I+ = {lo!r} has "
                               "the sign of max I+, so no root is guaranteed")
    return margin, True, ""


def _h_map(lam, x):
    return (lam * math.cos(x) / math.sin(x) + 1.0) / math.sin(x)


def _h_map_prime(lam, x):
    s, c = math.sin(x), math.cos(x)
    # s ** 3 is 0 for x below about 1e-103, where h' lies below every float
    return -(lam * (1.0 + c * c) + s * c) / s ** 3 if s ** 3 else -math.inf


def check_appendix_conditions(geom: ElementGeometry, polar: PolarTable) -> AppendixReport:
    """Guarantee check for the usual procedure on the drag-free model.

    Applies where gamma > 0 and max I+, the right end of :func:`_interval`,
    is theta (within 1e-12, as ``check_existence``'s ``upper_is_theta``);
    where I+ is empty, or its right end is cut below theta by the polar's
    samples, it does not.  Evaluates the stability condition mu_L(theta) <=
    mu_G(gamma) at the last node of :func:`grid_I_plus`, which is max I+, and
    the two contraction bounds sin(theta) max mu_L' h(gamma) <= 1 and
    sin(theta) max mu_L |h'(gamma)| <= 1 on its 1000 nodes.  Grid maxima
    stand in for the exact suprema, so a peak between two nodes is missed.
    """
    theta = geom.theta
    if geom.gamma <= 0.0:
        return AppendixReport(message="needs gamma > 0 (h undefined at 0)")
    grid = _attempt(grid_I_plus, geom, polar)
    if isinstance(grid, BemError):
        return AppendixReport(message=str(grid))
    if not _reaches_theta(geom, float(grid[-1])):
        return AppendixReport(message="needs max I+ = theta (polar window too narrow)")
    cl, cl_prime = polar._on_array(grid - geom.gamma, "cl", "cl_prime")
    mu = 0.25 * geom.solidity * cl  # mu_L on the grid, whose last node is max I+
    max_dmu = float((0.25 * geom.solidity * cl_prime).max())
    stability_margin = mu_G(theta, geom.gamma) - float(mu[-1])
    c1 = math.sin(theta) * max_dmu * _h_map(geom.lam, geom.gamma)
    c2 = math.sin(theta) * float(mu.max()) * abs(_h_map_prime(geom.lam, geom.gamma))
    stability_ok = stability_margin >= 0.0
    c1_ok, c2_ok = c1 <= 1.0, c2 <= 1.0
    return AppendixReport(applicable=True, stability_ok=stability_ok,
                          stability_margin=stability_margin,
                          contraction1_ok=c1_ok, contraction1_value=c1,
                          contraction2_ok=c2_ok, contraction2_value=c2,
                          guaranteed=stability_ok and c1_ok and c2_ok)


def fixed_point_rate_bound(geom: ElementGeometry, polar: PolarTable,
                           corr: CorrectionSpec, epsilon: float = 1.0) -> RateBound:
    """Geometric decay factor for the damped fixed point from phi^0 = max I+ (the
    default start theta, where max I+ = theta), when applicable.

    With the margin m = min mu_L^c' - tan(theta) (1 + max mu_D^c') over I+ and
    rho = rho_eps(phi^0) of :func:`solve_fixed_point` at ``epsilon``, the factor
    is 1 - rho m, and ``initial`` = rho |residual(phi^0)| / (1 - factor) bounds
    |phi^0 - phi*| (inf where factor >= 1); then |phi^k - phi*| <= factor**k
    initial.  It applies where m > 0 and the variant is 'none': the margin
    leaves out psi's slope.  Grid extrema stand in for the exact ones, as in
    ``solve_fixed_point``, whose :class:`HypothesisError` is raised here too.
    ``epsilon`` must lie in (0, 1], as :class:`SolveOptions` checks.
    """
    rho_eps, grid, dmu_L = _rho_eps(geom, polar, corr, SolveOptions(epsilon=epsilon).epsilon)
    max_dmu_D = float(_mu_c_prime_grid(geom, polar, corr, grid, lift=False).max())
    margin = float(dmu_L.min()) - math.tan(geom.theta) * (1.0 + max_dmu_D)
    ev = _evaluation(geom, polar, corr, float(grid[-1]))  # at the start, max I+
    rho = rho_eps(ev.phi, ev)
    factor = 1.0 - rho * margin
    initial = rho * abs(ev.value) / (1.0 - factor) if factor < 1.0 else math.inf
    return RateBound(applies=corr.variant == "none" and margin > 0.0,
                     factor=factor, initial=initial)


def classify_root(geom: ElementGeometry, polar: PolarTable, corr: CorrectionSpec,
                  phi: float, state: FlowState) -> str:
    """Tag a root: negative lift, stall, active correction, or principal."""
    if state.lift_sign < 0:
        return "negative_lift_branch"
    if phi - geom.gamma >= polar.alpha_s:
        return "stall_branch"
    if corr.variant != "none" and state.a > corr.a_c + 1e-12:
        return "correction_branch"
    return "principal"


def _scan_domain(geom, polar, corr):
    """A scan's (lo, hi): I for the trivial correction, I+ otherwise (:func:`_interval`)."""
    lo, hi = _interval(geom, polar, plus=not corr.is_trivial)
    if corr.tip_loss:
        _tip_rate(geom)  # the grid kernel's one error, raised before any grid is made
    return lo, hi


_SCAN_NODES = 400  # scan_roots' default grid


def scan_roots(geom: ElementGeometry, polar: PolarTable, corr: CorrectionSpec,
               grid_size: int = _SCAN_NODES) -> RootSet:
    """Find and classify the residual roots that a uniform scan grid shows.

    The grid values come from one call of the array kernel
    ``model._residual_grid`` (NaN where the residual is undefined); nodes
    within its error of 0 are evaluated again on the scalar path.  Only each
    sign change between two finite neighbours, refined by Brent's method on
    the scalar residual, and each node where the residual is exactly 0 give a
    root: a close pair between two nodes, or a tangential root, is missed.
    The scan covers I for the trivial correction and I+ otherwise, so no root
    above max I+ is looked for; where that domain is empty, or tip loss has
    no ``tip_radius``, :class:`ValidationError` is raised.  Roots closer than
    1e-10 are merged, and a root is kept where |residual| <= 1e-10.  This is
    :func:`_scan_many` on one element.  ``cp_sweep``, ``landscape`` and
    ``bem scan`` scan their elements in batches through it: only the grid
    values are computed together, and each element keeps its own checks,
    recheck, Brent refinement and error, so its roots are the same.
    ``grid_size`` must be an integer >= 100.
    """
    return _unwrap(_scan_many([geom], polar, corr, grid_size)[0])


def _attempt(make, *args, **kwargs):
    """``make(*args, **kwargs)``, or the :class:`BemError` it raises (a batch entry, say)."""
    try:
        return make(*args, **kwargs)
    except BemError as exc:
        return exc


def _unwrap(outcome):
    """A batch entry's value; raises it where it is the error met instead."""
    if isinstance(outcome, BemError):
        raise outcome
    return outcome


def _scan_many(geoms, polar, corr, grid_size):
    """:func:`scan_roots` of every element of ``geoms``, with one call of the
    grid kernel for the batch; for each element, its :class:`RootSet` or the
    :class:`BemError` its scan raises, of the same type and text.

    Only the grid values are computed together.  Each element's domain and
    grid, the scalar recheck near 0 against its own largest |value|, Brent
    and the root records are its own, so the roots are those of a scan of
    the element alone.  An entry of ``geoms`` that is a :class:`BemError`
    (a design that failed, say) is passed through, and so is the error of
    an element's scan domain (``_scan_domain``).  A ``grid_size`` that is
    not an integer >= 100 raises before any element.
    """
    grid_size = _count("grid_size", grid_size, 100)
    out = list(geoms)
    batch = []  # (index, geometry, (lo, hi)) of every element with a scan domain
    for i, geom in enumerate(geoms):
        if not isinstance(geom, BemError):
            out[i] = domain = _attempt(_scan_domain, geom, polar, corr)
            if not isinstance(domain, BemError):
                batch.append((i, geom, domain))
    if not batch:
        return out
    lo, hi = np.array([domain for _, _, domain in batch]).T
    # row i holds the bits of np.linspace(lo[i], hi[i], grid_size)
    grids = np.linspace(lo, hi, grid_size, axis=1)
    values = _residual_grid([geom for _, geom, _ in batch], polar, corr, grids)
    for (i, geom, _), grid, vals in zip(batch, grids, values):
        out[i] = _attempt(_grid_roots, geom, polar, corr, grid, vals)
    return out


def _grid_roots(geom, polar, corr, grid, vals):
    """The :class:`RootSet` of one element from its scan grid and the kernel's values there."""
    # The array path agrees with the scalar residual to a few ulp of the
    # largest |value|.  Nodes closer to 0 than that take the scalar value,
    # so that every bracket is a sign change of the scalar residual.
    finite = np.isfinite(vals)
    if finite.any():
        near = np.abs(vals) <= 64.0 * np.spacing(np.abs(vals[finite]).max())
        for k in np.flatnonzero(near):
            vals[k] = _residual_safe(geom, polar, corr, float(grid[k]))
    left, right = vals[:-1], vals[1:]
    both = np.isfinite(left) & np.isfinite(right)
    roots = grid[vals == 0.0].tolist()
    for k in np.flatnonzero(both & (left * right < 0.0)):
        roots.append(_brentq(lambda p: residual(geom, polar, corr, p), grid[k], grid[k + 1]))

    records = []
    for phi in sorted(roots):
        if records and abs(phi - records[-1].phi) < 1e-10:
            continue
        try:
            state = recover_induction(geom, polar, corr, phi)
        except DomainError:
            continue  # root of the scalar form with no representable state
        if not math.isfinite(state.residual) or abs(state.residual) > 1e-10:
            continue
        records.append(RootRecord(phi=phi, state=state,
                                  category=classify_root(geom, polar, corr, phi, state)))
    return RootSet(records=records)
