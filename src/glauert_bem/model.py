"""Domain types and model functions for the blade element momentum system.

The flow through one annular element is described by three unknowns: the
relative flow angle ``phi``, the axial induction factor ``a`` and the
angular induction factor ``a_prime``, coupled by

    tan(phi) = (1 - a) / (lambda (1 + a_prime))                       (momentum/geometry)
    a/(1-a)  = (mu_L^c cos(phi) + mu_D^c sin(phi))/sin^2(phi)
               - psi((a - a_c)_+) / (1-a)^2                           (thrust balance)
    a'/(1-a) = (mu_L^c sin(phi) - mu_D^c cos(phi))/(lambda sin^2(phi))  (torque balance)

where mu_L^c = sigma C_L(phi - gamma) / (4 F(phi)) and likewise for drag.
Eliminating ``a`` and ``a_prime`` collapses the system to one scalar
equation in ``phi``,

    residual(phi) = mu_L^c(phi) - tan(theta - phi) mu_D^c(phi) - mu_G^c(phi) = 0,

whose ingredients (the universal curve ``mu_G``, the implicit axial map
``tau``, the Prandtl tip factor and the high-induction corrections) all
live here.  Everything is a pure function of immutable inputs, so model
evaluation is safe to run concurrently across elements.
"""

from __future__ import annotations

import math
from collections import namedtuple
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import DomainError, TipSingularityError, ValidationError
from .polar import PolarTable

# Internal clamp keeping evaluations away from the singular angles 0 and
# the tangent poles; endpoint values are one-sided limits of the clamped
# evaluation.
PHI_EPS = 1e-9

CORRECTION_VARIANTS = ("none", "glauert3", "glauert_empirical", "buhl", "wilson_spera")

# high-induction threshold defaults per correction model
DEFAULT_A_C = {
    "none": 1.0,
    "glauert3": 1.0 / 3.0,
    "glauert_empirical": 0.4,
    "buhl": 0.4,
    "wilson_spera": 1.0 / 3.0,
}


@dataclass(frozen=True)
class TurbineConfig:
    """Global turbine and flow parameters."""

    radius: float
    upstream_speed: float
    rotation_speed: float
    blade_count: int = 3
    fluid_density: float = 1.225
    lambda_min: float = 0.5
    lambda_max: float = 3.0

    def __post_init__(self):
        if not self.blade_count >= 1:
            raise ValidationError("blade_count must be >= 1")
        for name in ("radius", "upstream_speed", "rotation_speed", "fluid_density"):
            if not 0.0 < getattr(self, name) < math.inf:
                raise ValidationError(f"{name} must be positive and finite")
        if not 0.0 < self.lambda_min < self.lambda_max:
            raise ValidationError("need 0 < lambda_min < lambda_max")
        if self.element_radius(self.lambda_max) > self.radius * (1.0 + 1e-12):
            raise ValidationError(
                "lambda_max maps outside the rotor: lambda_max * upstream_speed "
                "/ rotation_speed must not exceed radius")

    def element_radius(self, lam: float) -> float:
        """Radius of the element spinning at local speed ratio ``lam``."""
        return lam * self.upstream_speed / self.rotation_speed


@dataclass(frozen=True)
class ElementGeometry:
    """One blade element: local speed ratio, placement and section design."""

    lam: float
    r: float
    gamma: float
    chord: float
    blade_count: int = 3
    tip_radius: Optional[float] = None

    def __post_init__(self):
        # written so that NaN fails every check
        if not all(0.0 < x < math.inf for x in (self.lam, self.r, self.chord)):
            raise ValidationError("lam, r and chord must be positive and finite")
        if not abs(self.gamma) < math.pi / 2.0:
            raise ValidationError("twist must satisfy |gamma| < pi/2")
        if not self.blade_count >= 1:
            raise ValidationError("blade_count must be >= 1")
        if self.tip_radius is not None and not (
                self.r <= self.tip_radius * (1.0 + 1e-12) < math.inf):
            raise ValidationError("tip radius must be finite and not below the element radius")

    @classmethod
    def from_turbine(cls, turbine: TurbineConfig, lam: float, gamma: float,
                     chord: float) -> "ElementGeometry":
        return cls(lam=lam, r=turbine.element_radius(lam), gamma=gamma, chord=chord,
                   blade_count=turbine.blade_count, tip_radius=turbine.radius)

    @property
    def solidity(self) -> float:
        """sigma = B c / (2 pi r), the annulus fraction occupied by blades."""
        return self.blade_count * self.chord / (2.0 * math.pi * self.r)

    @property
    def theta(self) -> float:
        """theta = atan(1/lambda), the zero-induction relative angle."""
        return math.atan2(1.0, self.lam)


@dataclass(frozen=True)
class CorrectionSpec:
    """Which high-induction model applies, its threshold, and tip loss.

    ``variant='none'`` means the plain momentum law (acts like a_c = 1).
    ``strict_lemma_mode`` pins F = 1 inside the Glauert empirical formula,
    whose behavior with F != 1 is discontinuous at a = a_c; the other
    variants never depend on this flag.
    """

    variant: str = "none"
    a_c: Optional[float] = None
    tip_loss: bool = False
    strict_lemma_mode: bool = True

    def __post_init__(self):
        if self.variant not in CORRECTION_VARIANTS:
            raise ValidationError(
                f"unknown correction variant {self.variant!r}; choose from {CORRECTION_VARIANTS}")
        if self.a_c is None:
            object.__setattr__(self, "a_c", DEFAULT_A_C[self.variant])
        if not 0.0 < self.a_c <= 1.0:
            raise ValidationError("a_c must lie in (0, 1]")

    @property
    def is_trivial(self) -> bool:
        """True when no correction alters the plain momentum balance."""
        return self.variant == "none" and not self.tip_loss

    def _psi_tip(self, tip_factor: float) -> float:
        if self.variant == "glauert_empirical" and self.strict_lemma_mode:
            return 1.0
        return tip_factor

    def psi(self, excess: float, tip_factor: float = 1.0) -> float:
        """psi(x) with x = (a - a_c)_+, the additive thrust correction."""
        x = max(0.0, excess)
        if x == 0.0 or self.variant == "none":
            return 0.0
        return self._psi(x, tip_factor)

    def psi_prime(self, excess: float, tip_factor: float = 1.0) -> float:
        """One-sided d psi/da for a > a_c; zero at or below the threshold."""
        x = max(0.0, excess)
        if x == 0.0 or self.variant == "none":
            return 0.0
        return self._psi_prime(x, tip_factor)

    def _psi(self, x, tip_factor):
        """psi at an excess x > 0 of a corrected variant; elementwise on arrays."""
        if self.variant == "glauert3":
            return 0.25 * x * (x * x / self.a_c + 2.0 * x + self.a_c)
        if self.variant == "wilson_spera":
            return x * x
        f = self._psi_tip(tip_factor)
        if self.variant == "buhl":
            q = x / (1.0 - self.a_c)
            return q * q / (2.0 * f)
        # Glauert empirical, excess part only so that psi(0) = 0
        return x * (f * (x + 2.0 * self.a_c) - 0.286) * f / 2.5708

    def _psi_prime(self, x, tip_factor):
        """d psi/da at an excess x > 0 of a corrected variant; elementwise on arrays."""
        if self.variant == "glauert3":
            return 0.75 * x * x / self.a_c + x + 0.25 * self.a_c
        if self.variant == "wilson_spera":
            return 2.0 * x
        f = self._psi_tip(tip_factor)
        if self.variant == "buhl":
            return x / (f * (1.0 - self.a_c) ** 2)
        return (2.0 * f * x + 2.0 * self.a_c * f - 0.286) * f / 2.5708

    def psi_tip_grad(self, excess: float, tip_factor: float = 1.0) -> float:
        """d psi/dF at fixed excess; nonzero only for F-dependent variants."""
        x = max(0.0, excess)
        if x == 0.0:
            return 0.0
        if self.variant == "buhl":
            return -((x / (1.0 - self.a_c)) ** 2) / (2.0 * tip_factor ** 2)
        if self.variant == "glauert_empirical" and not self.strict_lemma_mode:
            return x * (2.0 * tip_factor * (x + 2.0 * self.a_c) - 0.286) / 2.5708
        return 0.0


@dataclass(frozen=True)
class FlowState:
    """Solution triple plus diagnostics for one element."""

    phi: float
    a: float
    a_prime: float
    tip_factor: float
    residual: float
    lift_sign: int = 0
    note: str = ""


# ---------------------------------------------------------------------------
# tip loss


def _tip_rate(geom: ElementGeometry) -> float:
    """k = (B/2)(1 - r/R)/(r/R), with which the Prandtl decay is exp(-k/sin(phi))."""
    if geom.tip_radius is None:
        raise ValidationError("tip loss requires a tip_radius on the element geometry")
    ratio = geom.r / geom.tip_radius
    return 0.5 * geom.blade_count * (1.0 - ratio) / ratio


def _decay(geom: ElementGeometry, phi: float):
    """(exp(-k/sin(phi)), k, sin(phi)) of the Prandtl formula, domain-checked."""
    s = math.sin(phi)
    if s <= 0.0:
        raise DomainError(f"tip loss undefined for sin(phi) <= 0 (phi={phi:g})")
    k = _tip_rate(geom)
    decay = math.exp(-k / s)
    if decay >= 1.0:
        raise TipSingularityError("element at the blade tip: F = 0")
    return decay, k, s


def tip_loss_factor(geom: ElementGeometry, phi: float) -> float:
    """Prandtl tip factor F = (2/pi) acos(exp(-(B/2)(1 - r/R)/((r/R) sin phi)))."""
    return (2.0 / math.pi) * math.acos(_decay(geom, phi)[0])


def _tip(geom: ElementGeometry, corr: CorrectionSpec, phi: float):
    """(F, dF/dphi) from one exponential; (1, 0) with tip loss off."""
    if not corr.tip_loss:
        return 1.0, 0.0
    decay, k, s = _decay(geom, phi)
    d_decay = decay * k * math.cos(phi) / (s * s)
    return ((2.0 / math.pi) * math.acos(decay),
            -(2.0 / math.pi) * d_decay / math.sqrt(max(1.0 - decay * decay, 1e-300)))


def _tip_grid(k, phis):
    """(F, dF/dphi) of :func:`_tip` at an array of angles, with the Prandtl
    rate ``k`` of :func:`_tip_rate` a number or, on a batch, a column of one
    rate per row; NaN where it raises :class:`DomainError`."""
    s = np.sin(phis)
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        x = -k / s
        decay = np.exp(x)
        # arccos is ill-conditioned near 1, where a last-bit difference of
        # np.exp from math.exp grows to tens of ulp in F: use math.exp there
        near = (decay > 0.5) & (x < 0.0)
        if near.any():
            decay[near] = [math.exp(v) for v in x[near].tolist()]
        bad = (s <= 0.0) | (decay >= 1.0)
        d_decay = decay * k * np.cos(phis) / (s * s)
        f = np.where(bad, np.nan, (2.0 / math.pi) * np.arccos(decay))
        fp = -(2.0 / math.pi) * d_decay / np.sqrt(np.maximum(1.0 - decay * decay, 1e-300))
    return f, np.where(bad, np.nan, fp)


# ---------------------------------------------------------------------------
# dimensionless blade functions


def mu_L(geom: ElementGeometry, polar: PolarTable, phi: float) -> float:
    """(sigma/4) C_L(phi - gamma), the uncorrected lift function."""
    return 0.25 * geom.solidity * polar.cl(phi - geom.gamma)


def mu_D(geom: ElementGeometry, polar: PolarTable, phi: float) -> float:
    """(sigma/4) C_D(phi - gamma), the uncorrected drag function."""
    return 0.25 * geom.solidity * polar.cd(phi - geom.gamma)


def _mu_c_prime_grid(geom, polar, corr, phis, lift=True):
    """d mu_L^c/dphi (``lift``) or d mu_D^c/dphi at an array of angles, with
    the polar's and the tip factor's array paths; raises what the scalar
    ``polar.cl`` and tip factor raise at any of the angles."""
    coef, slope = polar._on_array(phis - geom.gamma,
                                  *(("cl", "cl_prime") if lift else ("cd", "cd_prime")))
    f, fp = 1.0, 0.0
    if corr.tip_loss:
        f, fp = _tip_grid(_tip_rate(geom), phis)
        if np.isnan(f).any():
            _decay(geom, float(phis[np.isnan(f)][0]))  # raises the scalar path's error
    return 0.25 * geom.solidity * (slope / f - coef * fp / (f * f))


def mu_G(theta: float, phi: float) -> float:
    """sin(phi) tan(theta - phi): the universal momentum-side curve."""
    if abs(math.cos(theta - phi)) < PHI_EPS:
        raise DomainError(f"mu_G pole at theta - phi = +-pi/2 (phi={phi:g})")
    return math.sin(phi) * math.tan(theta - phi)


def mu_G_prime(theta: float, phi: float) -> float:
    """d mu_G/dphi = cos(phi) tan(theta-phi) - sin(phi) (1 + tan^2(theta-phi))."""
    if abs(math.cos(theta - phi)) < PHI_EPS:
        raise DomainError(f"mu_G pole at theta - phi = +-pi/2 (phi={phi:g})")
    t = math.tan(theta - phi)
    return math.cos(phi) * t - math.sin(phi) * (1.0 + t * t)


def phi_upper(geom: ElementGeometry, polar: PolarTable) -> float:
    """max I+ = min(theta, beta + gamma), the right end of the working interval."""
    return min(geom.theta, polar.beta + geom.gamma)


def _clamp_phi(phi: float) -> float:
    """Keep internal evaluations strictly inside (0, pi/2)."""
    if not 0.0 - PHI_EPS < phi < math.pi / 2.0 + PHI_EPS:
        raise DomainError(f"phi={phi:g} outside (0, pi/2)")
    return min(max(phi, PHI_EPS), math.pi / 2.0 - PHI_EPS)


def _g(phi, s, t, drag):
    """g from sin(phi), t = tan(theta - phi) and mu_D^c, as in :func:`g_func`."""
    ct = math.cos(phi) / s * t
    return ct + (drag / s) * (1.0 + ct)


def g_func(geom: ElementGeometry, polar: PolarTable, corr: CorrectionSpec,
           phi: float) -> float:
    """The paper's g, right-hand side of the implicit axial equation for tau.

    g(phi) = cot(phi) tan(theta - phi)
             + (mu_D^c(phi)/sin(phi)) (1 + cot(phi) tan(theta - phi))
    """
    if phi <= 0.0 or phi > geom.theta + PHI_EPS:
        raise DomainError(f"g defined on (0, theta]; got phi={phi:g}")
    phi = _clamp_phi(phi)
    drag = mu_D(geom, polar, phi) / (tip_loss_factor(geom, phi) if corr.tip_loss else 1.0)
    return _g(phi, math.sin(phi), math.tan(geom.theta - phi), drag)


def _axial_nu(rhs: float, weight: float, corr: CorrectionSpec, tip_factor: float) -> float:
    """Solve a/(1-a) + weight * psi((a-a_c)_+)/(1-a)^2 = rhs for nu = 1 - a.

    The left side is strictly increasing in a, so the root is unique.  It
    is computed in nu-space to keep full precision as a approaches 1.
    Negative rhs down to -1 maps to the exact uncorrected branch (a < 0).
    Wilson/Spera has a closed form (:func:`_wilson_nu`).  The other
    variants run Newton (:func:`_newton_nu`) from nu0 = 1/(1 + rhs) inside
    [nu0, 1 - a_c], where the balance in nu is decreasing and, for
    psi >= 0, convex.  Either result gets one polishing Newton step.
    :func:`_axial_nu_grid` is the same computation on arrays.
    """
    if rhs <= -1.0:
        raise DomainError(f"axial balance unsolvable: rhs={rhs:g} <= -1")
    nu0 = 1.0 / (1.0 + rhs)
    if rhs <= 0.0 or corr.variant == "none" or 1.0 - nu0 <= corr.a_c:
        return nu0

    cap = 1.0 - corr.a_c  # correction active: root lies in nu in [nu0, cap]

    def terms(nu):  # the balance and its slope in nu, as in _axial_nu_grid
        x = cap - nu
        psi, dpsi = ((corr._psi(x, tip_factor), corr._psi_prime(x, tip_factor))
                     if x > 0.0 else (0.0, 0.0))
        nn = nu * nu
        return ((1.0 - nu) / nu - rhs + weight * psi / nn,
                -1.0 / nn - weight * dpsi / nn - 2.0 * weight * psi / (nn * nu))

    if corr.variant == "wilson_spera":
        nu = _wilson_nu(rhs, weight, corr.a_c, nu0)
    else:
        f_lo, f_hi = terms(nu0)[0], terms(cap)[0]
        if f_lo == 0.0:
            return nu0
        if f_hi == 0.0:
            return cap
        if f_lo < 0.0 or f_hi > 0.0:
            raise DomainError(
                "axial balance lost monotonicity (psi < 0 under the current "
                "tip factor); use strict_lemma_mode or another variant")
        nu = _newton_nu(terms, nu0, cap)
    # one Newton step in nu tightens closed-form roots to machine accuracy
    value, slope = terms(nu)
    if slope != 0.0:
        candidate = nu - value / slope
        if nu0 <= candidate <= cap and abs(terms(candidate)[0]) <= abs(value):
            nu = candidate
    return nu


# Newton on the axial balance stops once a step moves nu by at most about
# two ulp; from nu0 a convex balance needs fewer than ten steps.
_NU_STEP_TOL = 4.4e-16
_NU_MAX_STEPS = 100


def _newton_nu(terms, nu0, cap):
    """Newton on the axial balance from nu0, kept inside a shrinking bracket.

    ``terms(nu)`` is the balance, positive at nu0 and negative at cap, and
    its slope.  A step that would leave the bracket is replaced by its
    midpoint; a step onto a bracket end is taken.  Raises
    :class:`DomainError` if it has not converged after ``_NU_MAX_STEPS`` steps.
    """
    lo, hi, nu = nu0, cap, nu0
    for _ in range(_NU_MAX_STEPS):
        value, slope = terms(nu)
        if value == 0.0:
            break
        if value > 0.0:
            lo = nu
        else:
            hi = nu
        new = nu - value / slope
        if not lo <= new <= hi:
            new = 0.5 * (lo + hi)
        step = abs(new - nu)
        nu = new
        if step <= _NU_STEP_TOL * nu:
            break
    else:
        raise DomainError(f"axial Newton did not converge in {_NU_MAX_STEPS} steps")
    return nu


def _wilson_nu(rhs, weight, a_c, nu0):
    """Closed-form quadratic branch for psi(x) = x^2."""
    cap = 1.0 - a_c
    qa = weight - 1.0 - rhs
    qb = 1.0 - 2.0 * weight * cap
    qc = weight * cap * cap
    if qa == 0.0:
        return -qc / qb
    disc = math.sqrt(max(qb * qb - 4.0 * qa * qc, 0.0))
    q = -0.5 * (qb + math.copysign(disc, qb))
    roots = []
    if q != 0.0:
        roots.append(qc / q)
    roots.append(q / qa)
    good = [nu for nu in roots if nu0 * (1.0 - 1e-9) <= nu <= cap * (1.0 + 1e-9)]
    if not good:
        raise DomainError("no axial root in [a_c, 1); inconsistent inputs")
    # the unguarded (cap - nu)^2: past cap it differs from the psi of terms in _axial_nu
    return min(good, key=lambda nu: abs((1.0 - nu) / nu - rhs
                                        + weight * (cap - nu) ** 2 / (nu * nu)))


def _axial_nu_grid(rhs, weight, corr: CorrectionSpec, tip_factor):
    """:func:`_axial_nu` elementwise on arrays, NaN where it raises
    :class:`DomainError`; the same closed form, Newton iteration and polish."""
    with np.errstate(divide="ignore", invalid="ignore"):
        nu = np.where(rhs > -1.0, 1.0 / (1.0 + rhs), np.nan)
        if corr.variant == "none":
            return nu
        on = (rhs > 0.0) & (1.0 - nu > corr.a_c)
        if not on.any():
            return nu
        rhs, weight, nu0 = rhs[on], weight[on], nu[on]
        f = np.broadcast_to(tip_factor, nu.shape)[on]
        cap = 1.0 - corr.a_c

        def terms(v):
            """The balance and its slope at v, as ``terms`` in _axial_nu."""
            x = cap - v
            psi = np.where(x > 0.0, corr._psi(x, f), 0.0)
            dpsi = np.where(x > 0.0, corr._psi_prime(x, f), 0.0)
            nn = v * v
            return ((1.0 - v) / v - rhs + weight * psi / nn,
                    -1.0 / nn - weight * dpsi / nn - 2.0 * weight * psi / (nn * v))

        if corr.variant == "wilson_spera":
            sol = _wilson_nu_grid(rhs, weight, corr.a_c, nu0)
        else:
            f_lo, f_hi = terms(nu0)[0], terms(np.full_like(nu0, cap))[0]
            sol = np.where(f_hi == 0.0, cap, _newton_nu_grid(terms, nu0, cap))
            sol = np.where(f_lo == 0.0, nu0, sol)
            sol[(f_lo != 0.0) & (f_hi != 0.0) & ((f_lo < 0.0) | (f_hi > 0.0))] = np.nan
        # the polishing step of _axial_nu; a no-op where the balance is 0
        value, slope = terms(sol)
        cand = sol - value / slope
        better = ((slope != 0.0) & (nu0 <= cand) & (cand <= cap)
                  & (np.abs(terms(cand)[0]) <= np.abs(value)))
        nu[on] = np.where(better, cand, sol)
    return nu


def _newton_nu_grid(terms, nu0, cap):
    """:func:`_newton_nu` elementwise: each point stops on its own criterion,
    and a point not converged after ``_NU_MAX_STEPS`` steps is NaN."""
    lo, hi, nu = nu0, np.full_like(nu0, cap), nu0
    live = np.ones(nu0.shape, dtype=bool)
    for _ in range(_NU_MAX_STEPS):
        value, slope = terms(nu)
        live &= value != 0.0
        lo = np.where(live & (value > 0.0), nu, lo)
        hi = np.where(live & ~(value > 0.0), nu, hi)
        new = nu - value / slope
        new = np.where((lo <= new) & (new <= hi), new, 0.5 * (lo + hi))
        step = np.abs(new - nu)
        nu = np.where(live, new, nu)
        live &= ~(step <= _NU_STEP_TOL * nu)
        if not live.any():
            break
    return np.where(live, np.nan, nu)


def _wilson_nu_grid(rhs, weight, a_c, nu0):
    """:func:`_wilson_nu` elementwise, NaN where it finds no root."""
    cap = 1.0 - a_c
    qa = weight - 1.0 - rhs
    qb = 1.0 - 2.0 * weight * cap
    qc = weight * cap * cap
    disc = np.sqrt(np.maximum(qb * qb - 4.0 * qa * qc, 0.0))
    q = -0.5 * (qb + np.copysign(disc, qb))
    r1, r2 = qc / q, q / qa

    def fits(nu):
        return (nu0 * (1.0 - 1e-9) <= nu) & (nu <= cap * (1.0 + 1e-9))

    def miss(nu):
        return np.abs((1.0 - nu) / nu - rhs + weight * (cap - nu) ** 2 / (nu * nu))

    good1, good2 = fits(r1), fits(r2)  # r1 = qc/q is not finite where q == 0
    nu = np.where(good1 & ~(good2 & (miss(r2) < miss(r1))), r1,
                  np.where(good2, r2, np.nan))
    return np.where(qa == 0.0, -qc / qb, nu)


# The scalar equation at one angle: s = sin(phi), nu = 1 - tau(phi), value = residual.
# Built with tuple.__new__: the named tuple's own __new__ costs 5-8% of an evaluation.
_Eval = namedtuple("_Eval", "phi s tip_factor cl mu_L_c mu_D_c nu mu_G_c value")


def _evaluation(geom, polar, corr, phi, lift=True):
    """The :data:`_Eval` record that :func:`residual` reads at ``phi``:
    every quantity of the scalar equation, once each.

    ``phi`` is clamped into (0, pi/2), but for the trivial correction (the
    plain model, psi = 0 and F = 1), whose angle may lie anywhere in I and
    whose nu is nan.  With ``lift=False`` the lift coefficient is not
    evaluated (C_L, mu_L^c and the residual are nan), so the momentum side
    stays defined wherever the drag side is, and nu is solved for every
    correction.  Each expression keeps the operation order of ``mu_L`` and
    ``mu_D`` (then divided by F, exact at F = 1), ``mu_G`` and ``g_func``,
    so the results equal theirs bit for bit.
    """
    theta = geom.theta
    plain = lift and corr.is_trivial
    if not plain:
        phi = _clamp_phi(phi)
    elif not (theta - math.pi / 2.0 < phi < theta + math.pi / 2.0):
        raise DomainError(f"phi={phi:g} outside the momentum-side domain")
    quarter = 0.25 * geom.solidity
    alpha = phi - geom.gamma
    cl = polar.cl(alpha) if lift else math.nan
    f = tip_loss_factor(geom, phi) if corr.tip_loss else 1.0
    lift_c = quarter * cl / f
    drag = quarter * polar.cd(alpha) / f
    cos_tp = math.cos(theta - phi)
    if abs(cos_tp) < PHI_EPS:
        raise DomainError(f"mu_G pole at theta - phi = +-pi/2 (phi={phi:g})")
    s = math.sin(phi)
    t = math.tan(theta - phi)
    momentum = s * t
    nu = math.nan if plain else _axial_nu(_g(phi, s, t, drag), math.sin(theta) * s / cos_tp,
                                          corr, f)
    excess = (1.0 - nu) - corr.a_c
    if corr.variant != "none" and excess > 0.0:
        momentum = momentum + (math.cos(theta) * s * s / cos_tp * corr.psi(excess, f)
                               / (nu * nu))
    return tuple.__new__(_Eval, (phi, s, f, cl, lift_c, drag, nu, momentum,
                                 lift_c - t * drag - momentum))


def _slope(geom, polar, corr, ev):
    """Exact d residual/d phi at the angle of the :data:`_Eval` record ``ev``.

    From cl', cd' and F' (:func:`_tip`).  Where the correction is active,
    nu' = -B_phi / B_nu by implicit differentiation of the axial balance
    B = (1 - nu)/nu - g + w psi/nu^2 with w = sin(theta) sin(phi) /
    cos(theta - phi); psi depends on F too (``psi_tip_grad``).  At a = a_c
    the slope is the one-sided one from below, as ``psi_prime`` is.
    """
    phi, theta, f = ev.phi, geom.theta, ev.tip_factor
    alpha, fp = phi - geom.gamma, _tip(geom, corr, phi)[1]
    t = math.tan(theta - phi)
    d_drag = (0.25 * geom.solidity * polar.cd_prime(alpha) - ev.mu_D_c * fp) / f
    slope = ((0.25 * geom.solidity * polar.cl_prime(alpha) - ev.mu_L_c * fp) / f
             + (1.0 + t * t) * ev.mu_D_c - t * d_drag - mu_G_prime(theta, phi))
    excess = (1.0 - ev.nu) - corr.a_c
    if corr.variant == "none" or not excess > 0.0:
        return slope
    s, c, nu, cos_tp = ev.s, math.cos(phi), ev.nu, math.cos(theta - phi)
    d_g = ((-t / (s * s) - c / s * (1.0 + t * t)) * (1.0 + ev.mu_D_c / s)
           + (d_drag - ev.mu_D_c * c / s) / s * (1.0 + c / s * t))
    # on the balance p = w psi/nu^2 = g - (1 - nu)/nu, so mu_G^c = mu_G + cot(theta) s p
    p = _g(phi, s, t, ev.mu_D_c) - (1.0 - nu) / nu
    w = math.sin(theta) * s / cos_tp  # w'/w = cos(theta) / (s cos(theta - phi))
    b_phi = ((math.cos(theta) / (s * cos_tp) * p - d_g) * nu * nu  # nu^2 B_phi
             + w * corr.psi_tip_grad(excess, f) * fp)
    d_nu = b_phi / (1.0 + w * corr.psi_prime(excess, f) + 2.0 * p * nu)  # -nu^2 B_nu
    return slope - (c * p + s * (d_g + d_nu / (nu * nu))) * math.cos(theta) / math.sin(theta)


def _residual_grid(geoms, polar: PolarTable, corr: CorrectionSpec, grids):
    """:func:`residual` at every angle of row ``grids[i]`` of a 2-D array on
    the element ``geoms[i]``, in one numpy pass; an array of the same shape.

    As in :func:`_evaluation`, only the domain and the axial map, which the
    plain model has not, depend on the correction.  NaN exactly where
    :func:`residual` raises :class:`DomainError`; the one other error, tip
    loss without a ``tip_radius``, is raised for the whole batch.
    Per-element constants are computed with ``math`` as on the scalar path
    and taken as columns, one row per element, so an element's values do
    not depend on the rest of its batch.  Each expression keeps the scalar
    path's operation order, but numpy's ``tan``, ``exp`` and ``arccos`` may
    differ from ``math``'s in the last bit, so values agree with the scalar
    path to a few ulp rather than bit for bit.
    """
    phis = np.asarray(grids, dtype=float)
    thetas = [geom.theta for geom in geoms]
    consts = [thetas, [geom.gamma for geom in geoms], [0.25 * geom.solidity for geom in geoms],
              [math.sin(x) for x in thetas], [math.cos(x) for x in thetas]]
    theta, gamma, quarter, sin_theta, cos_theta = np.array(consts)[:, :, None]
    with np.errstate(divide="ignore", invalid="ignore"):
        if corr.is_trivial:
            phi = phis
            ok = (theta - math.pi / 2.0 < phi) & (phi < theta + math.pi / 2.0)
        else:
            phi = np.clip(phis, PHI_EPS, math.pi / 2.0 - PHI_EPS)
            ok = (0.0 - PHI_EPS < phis) & (phis < math.pi / 2.0 + PHI_EPS)
        alpha = phi - gamma
        if not polar.clamp_cl:  # cl is undefined outside the polar's range
            ok &= (polar.alpha_min <= alpha) & (alpha <= polar.alpha_max)
        # clipped, so that cl does not raise; it is read only where ok
        cl, cd = polar._on_array(alpha.clip(polar.alpha_min, polar.alpha_max), "cl", "cd")
        t = np.tan(theta - phi)
        cos_tp = np.cos(theta - phi)
        f = (_tip_grid(np.array([_tip_rate(geom) for geom in geoms])[:, None], phi)[0]
             if corr.tip_loss else 1.0)
        lift_c = quarter * cl / f
        drag = quarter * cd / f
        s = np.sin(phi)
        momentum = s * t
        if not corr.is_trivial:  # the axial map; the plain model needs none
            ct = np.cos(phi) / s * t
            nu = _axial_nu_grid(ct + (drag / s) * (1.0 + ct),
                                sin_theta * s / cos_tp, corr, f)
            ok &= ~np.isnan(nu)  # where _axial_nu raises
            if corr.variant != "none":
                excess = (1.0 - nu) - corr.a_c
                momentum = np.where(excess > 0.0,
                                    momentum + (cos_theta * s * s / cos_tp
                                                * corr._psi(excess, f) / (nu * nu)),
                                    momentum)
        res = lift_c - t * drag - momentum
    ok &= ~(np.abs(cos_tp) < PHI_EPS)
    return np.where(ok, res, np.nan)


def tau_nu(geom: ElementGeometry, polar: PolarTable, corr: CorrectionSpec,
           phi: float) -> float:
    """1 - tau(phi), the paper's axial map, at full precision as tau -> 1 (phi -> 0)."""
    return _evaluation(geom, polar, corr, phi, lift=False).nu


def mu_G_c(geom: ElementGeometry, polar: PolarTable, corr: CorrectionSpec,
           phi: float) -> float:
    """The paper's mu_G^c: mu_G plus the high-induction excess term."""
    return _evaluation(geom, polar, corr, phi, lift=False).mu_G_c


def residual(geom: ElementGeometry, polar: PolarTable, corr: CorrectionSpec,
             phi: float) -> float:
    """Signed scalar-model residual; zeros are the model's solutions.

    Sign convention: blade side minus momentum side,
    mu_L^c - tan(theta - phi) mu_D^c - mu_G^c.  With the trivial
    correction (no tip loss, variant 'none') the formula is evaluated on
    the full angular interval I, which admits negative-lift branches;
    otherwise it requires phi in (0, pi/2).
    """
    return _evaluation(geom, polar, corr, phi).value


def recover_induction(geom: ElementGeometry, polar: PolarTable, corr: CorrectionSpec,
                      phi: float) -> FlowState:
    """Post-compute (a, a_prime) from an angle solving the scalar equation.

    For the corrected model a = tau(phi); with the trivial correction the
    thrust balance is inverted directly, which also covers negative-lift
    roots outside (0, theta].
    """
    return _state(geom, corr, _evaluation(geom, polar, corr, phi))


def _state(geom, corr, ev):
    """The :class:`FlowState` at the angle of the :func:`_evaluation` record ``ev``."""
    note = ""
    # ev.phi is clamped into (0, pi/2), which keeps an angle within 1e-6 of 0 or pi/2 there
    if abs(ev.phi) < 1e-6 or abs(ev.phi - math.pi / 2.0) < 1e-6:
        note = "phi near a singular angle of the original system"

    phi, s, f, cl, lift, drag, nu, _, res = ev
    if corr.is_trivial:
        if s == 0.0:
            raise DomainError("phi = 0: original system undefined")
        rhs = (lift * math.cos(phi) + drag * s) / (s * s)
        if abs(1.0 + rhs) < 1e-300:
            raise DomainError(f"thrust balance degenerate (a -> inf) at phi={phi:g}")
        a = rhs / (1.0 + rhs)  # any a != 1, including negative-lift branches
        nu = 1.0 - a
    else:
        a = 1.0 - nu
    a_prime = nu * (lift * s - drag * math.cos(phi)) / (geom.lam * s * s)
    lift_sign = (cl > 0.0) - (cl < 0.0)
    return FlowState(phi=float(phi), a=float(a), a_prime=float(a_prime), tip_factor=f,
                     residual=float(res), lift_sign=lift_sign, note=note)
