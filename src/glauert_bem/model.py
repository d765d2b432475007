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

# high-induction threshold defaults per correction model
DEFAULT_A_C = {
    "none": 1.0,
    "glauert3": 1.0 / 3.0,
    "glauert_empirical": 0.4,
    "buhl": 0.4,
    "wilson_spera": 1.0 / 3.0,
}

CORRECTION_VARIANTS = tuple(DEFAULT_A_C)


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
    """One blade element: local speed ratio, placement and section design.

    The constants of every evaluation are computed once, when the element
    is made, as plain attributes that are not fields (so ``==``, ``hash``,
    ``repr`` and ``replace`` see the six fields alone):

    * ``theta = atan(1/lambda)``, the zero-induction relative angle;
    * ``solidity = B c / (2 pi r)``, the annulus fraction occupied by blades;
    * ``tip_rate = (B/2)(1 - r/R)/(r/R)``, with which the Prandtl decay is
      ``exp(-k/sin(phi))``; None without a tip radius ``R``.
    """

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
        # written to __dict__ directly: a third of the cost of object.__setattr__
        const = self.__dict__
        const["theta"] = math.atan2(1.0, self.lam)
        const["solidity"] = self.blade_count * self.chord / (2.0 * math.pi * self.r)
        ratio = None if self.tip_radius is None else self.r / self.tip_radius
        const["tip_rate"] = None if ratio is None else 0.5 * self.blade_count * (1.0 - ratio) / ratio

    @classmethod
    def from_turbine(cls, turbine: TurbineConfig, lam: float, gamma: float,
                     chord: float) -> "ElementGeometry":
        return cls(lam=lam, r=turbine.element_radius(lam), gamma=gamma, chord=chord,
                   blade_count=turbine.blade_count, tip_radius=turbine.radius)


@dataclass(frozen=True)
class CorrectionSpec:
    """Which high-induction model applies, its threshold, and tip loss.

    ``variant='none'`` means the plain momentum law (acts like a_c = 1).
    ``strict_lemma_mode`` pins F = 1 inside the Glauert empirical formula,
    whose behavior with F != 1 is discontinuous at a = a_c; the other
    variants never depend on this flag.  That psi is below 0 where F (a +
    a_c) < 0.286, so with a_c < 0.143 just above a_c even with F = 1, and
    the axial balance raises there.  ``is_trivial``, true when no
    correction alters the plain momentum balance, is computed once as
    ``a_c`` is filled in, as a plain attribute that is not a field.
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
        object.__setattr__(self, "is_trivial", self.variant == "none" and not self.tip_loss)

    def psi(self, excess: float, tip_factor: float = 1.0) -> float:
        """psi(x) with x = (a - a_c)_+, the additive thrust correction."""
        return self.psi_terms(excess, tip_factor)[0]

    def psi_terms(self, excess: float, tip_factor: float = 1.0):
        """(psi, d psi/da, d psi/dF) at x = (a - a_c)_+; zeros at or below the
        threshold, so d psi/da there is the one-sided derivative from below."""
        if not excess > 0.0 or self.variant == "none":
            return 0.0, 0.0, 0.0
        return self._law(excess, tip_factor)

    def _law(self, x, tip_factor):
        """(psi, d psi/da, d psi/dF) at an excess x > 0 of a corrected variant;
        elementwise on arrays.  Only glauert3 is a cubic; every other law is
        the quadratic of :meth:`_quadratic`."""
        if self.variant == "glauert3":
            a_c = self.a_c
            return (0.25 * x * (x * x / a_c + 2.0 * x + a_c),
                    0.75 * x * x / a_c + x + 0.25 * a_c, 0.0)
        p2, p1, d_p2, d_p1 = self._quadratic(tip_factor)
        return (x * (p2 * x + p1), 2.0 * p2 * x + p1,
                0.0 if d_p2 is None else x * (d_p2 * x + d_p1))

    def _quadratic(self, tip_factor):
        """(p2, p1, d p2/dF, d p1/dF) of a quadratic law psi = p2 x^2 + p1 x in
        the excess x, p2 > 0; elementwise on arrays of F.  The F-derivatives
        are None where psi does not depend on F.  Wilson/Spera's psi and d
        psi/da are exact in floats: x^2 and 2 x."""
        if self.variant == "wilson_spera":
            return 1.0, 0.0, None, None
        a_c = self.a_c
        if self.variant == "buhl":
            p2 = 0.5 / (tip_factor * (1.0 - a_c) ** 2)
            return p2, 0.0, -p2 / tip_factor, 0.0
        # Glauert empirical, excess part only so that psi(0) = 0: psi = f x (f (x +
        # 2 a_c) - 0.286)/2.5708; strict_lemma_mode pins f = 1 inside it, so that
        # psi does not depend on F
        if self.strict_lemma_mode:
            return 1.0 / 2.5708, (2.0 * a_c - 0.286) / 2.5708, None, None
        f = tip_factor
        return (f * f / 2.5708, f * (2.0 * a_c * f - 0.286) / 2.5708,
                2.0 * f / 2.5708, (4.0 * a_c * f - 0.286) / 2.5708)


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
    """The element's Prandtl rate ``geom.tip_rate``; raises without a tip radius."""
    if geom.tip_rate is None:
        raise ValidationError("tip loss requires a tip_radius on the element geometry")
    return geom.tip_rate


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
    An active correction puts the root in [nu0, cap], nu0 = 1/(1 + rhs) and
    cap = 1 - a_c, where the balance in nu is decreasing and convex.  So a
    Newton step cut to [nu0, cap] needs no bracket, and one Newton loop
    refines the root of every law; only its start depends on the law.
    Glauert3's cubic starts at nu0, from where each step stays left of the
    root and climbs towards it.  Every other psi is a quadratic, and the
    loop starts at the root read off it (:func:`_quadratic_nu`), which one
    step usually confirms; a second step is taken where the closed form is
    more than about two ulp off, and moves its last bits.

    A step is taken while |balance| does not rise.  The loop stops after a
    step of at most about two ulp (``_NU_STEP_TOL``), after a tie in
    |balance| (so at a zero balance, whose step is 0), or at a zero slope,
    and raises :class:`DomainError` after ``_NU_MAX_STEPS`` steps.
    :func:`_axial_nu_grid` is the same computation on arrays.
    """
    if rhs <= -1.0:
        raise DomainError(f"axial balance unsolvable: rhs={rhs:g} <= -1")
    nu0 = 1.0 / (1.0 + rhs)
    if rhs <= 0.0 or corr.variant == "none" or 1.0 - nu0 <= corr.a_c:
        return nu0

    cap = 1.0 - corr.a_c  # correction active: root lies in nu in [nu0, cap]

    def terms(nu):  # the balance and its slope in nu, as in _axial_nu_grid
        x = cap - nu  # psi and d psi/da of psi_terms
        psi, dpsi, _ = corr._law(x, tip_factor) if x > 0.0 else (0.0, 0.0, 0.0)
        nn = nu * nu
        return ((1.0 - nu) / nu - rhs + weight * psi / nn,
                -1.0 / nn - weight * dpsi / nn - 2.0 * weight * psi / (nn * nu))

    # at nu0 the balance is w psi(cap - nu0)/nu0^2 exactly, and a rounded
    # terms(nu0) may take either sign where psi is below its last bit: decide
    # on psi itself.  Only Glauert's empirical psi goes below 0, where F (a +
    # a_c) < 0.286 (F = 1 under strict_lemma_mode): whatever F for a < 0.286 -
    # a_c if a_c < 0.143, and else only under a tip factor F < 1
    x = cap - nu0
    psi = corr._law(x, tip_factor)[0] if x > 0.0 else 0.0
    if psi == 0.0:
        return nu0
    if psi < 0.0:
        cause = (f"for a < 0.286 - a_c, as a_c = {corr.a_c:g} < 0.143); use a_c >= 0.143"
                 if x + 2.0 * corr.a_c < 0.286 else
                 "under the current tip factor); use strict_lemma_mode")
        raise DomainError(f"axial balance lost monotonicity ({corr.variant} psi < 0 "
                          f"{cause} or another variant")
    nu = (nu0 if corr.variant == "glauert3" else
          _quadratic_nu(rhs, weight, cap, *corr._quadratic(tip_factor)[:2]))
    value, slope = terms(nu)
    mag = abs(value)
    for _ in range(_NU_MAX_STEPS):
        if slope == 0.0:  # a zero balance steps by 0 and stops on the tie
            return nu
        # cut to [nu0, cap], which holds the root: near a double root of the
        # quadratic, or with the root within an ulp of an end, a step may pass it
        new = nu - value / slope
        new = nu0 if new < nu0 else cap if new > cap else new
        value, slope = terms(new)
        new_mag = abs(value)
        if new_mag > mag:
            return nu
        if not (new_mag < mag and abs(new - nu) > _NU_STEP_TOL * new):
            return new  # a tie in |balance|, or a step of at most about two ulp
        nu, mag = new, new_mag
    raise DomainError(f"axial Newton did not converge in {_NU_MAX_STEPS} steps")


# The axial Newton loop stops once a step moves nu by at most about two ulp.
# From a closed form it takes one step, or two or three on a few percent of
# inputs.  From nu0, glauert3's convex balance takes up to about 15 steps on
# rhs <= 1e3 and weights below 1, and more where nu0 lies far below the root:
# with drag nu0 ~ phi^2 against a root ~ phi^1.5 as phi -> 0, and each early
# step multiplies nu by only about 1.5, so criterion 05's element takes 26
# steps at phi = PHI_EPS (6 drag-free, where the root is ~ phi).
_NU_STEP_TOL = 4.4e-16
_NU_MAX_STEPS = 100


def _quadratic_nu(rhs, weight, cap, p2, p1):
    """The active root of the axial balance for psi(x) = p2 x^2 + p1 x, x = cap
    - nu, cap = 1 - a_c, p2 > 0 (:meth:`CorrectionSpec._quadratic`).

    Times nu^2 the balance is f(nu) = qa nu^2 + qb nu + qc, with qa = w p2 - 1
    - rhs, qb = 1 - 2 w p2 cap - w p1 and qc = w psi(cap) (w the weight), and
    f(nu0) = w psi(cap - nu0) > 0 > f(cap), so one root lies in (nu0, cap).
    psi(cap - nu0) > 0 is the caller's guard, and as psi/x = p2 x + p1 rises
    with x, it makes qc > 0.  Then where qa > 0 the root is the smaller of two
    positive roots, whose sum -qb/qa > 0 makes qb < 0; where qa < 0 it is the
    positive one of two of opposite signs.  For the stable q = -(qb + sign(qb)
    sqrt(disc))/2 the roots are qc/q and q/qa, and that root is qc/q exactly
    when q > 0, else q/qa.  Were qc <= 0 (Glauert empirical where f (1 + a_c)
    <= 0.286, which the guard refuses), f(0) <= 0 < f(nu0) would make f
    concave, so qa < 0, with the root the larger of two in [0, cap]: their sum
    makes qb > 0, so q < 0 and the pick q/qa is still the root.

    qa = 0 leaves the linear root -qc/qb.  q = 0 needs qb = 0 with qa > 0,
    which only rounding gives: it raises.  With p2 = 1 and p1 = 0
    (Wilson/Spera) every added operation is exact."""
    qa = weight * p2 - 1.0 - rhs
    qb = 1.0 - 2.0 * weight * p2 * cap - weight * p1
    qc = weight * cap * (p2 * cap + p1)
    if qa == 0.0:
        return -qc / qb
    disc = math.sqrt(max(qb * qb - 4.0 * qa * qc, 0.0))
    q = -0.5 * (qb + math.copysign(disc, qb))
    if q == 0.0:
        raise DomainError("no axial root: the quadratic of the balance has q = 0")
    return qc / q if q > 0.0 else q / qa


def _axial_nu_grid(rhs, weight, corr: CorrectionSpec, tip_factor):
    """:func:`_axial_nu` elementwise on arrays, NaN where it raises
    :class:`DomainError`: the same guard, start and Newton loop, whose later
    passes step only the nodes still stepping."""
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

        def terms(v, rhs, weight, f):
            """The balance and its slope at v, as ``terms`` in _axial_nu."""
            x = cap - v
            psi, dpsi, _ = corr._law(x, f)
            psi, dpsi = np.where(x > 0.0, psi, 0.0), np.where(x > 0.0, dpsi, 0.0)
            nn = v * v
            return ((1.0 - v) / v - rhs + weight * psi / nn,
                    -1.0 / nn - weight * dpsi / nn - 2.0 * weight * psi / (nn * v))

        x = cap - nu0  # the sign of psi at nu0 decides, as in _axial_nu
        psi = np.where(x > 0.0, corr._law(x, f)[0], 0.0)
        go = psi > 0.0
        sol = np.where(go, nu0 if corr.variant == "glauert3" else
                       _quadratic_nu_grid(rhs, weight, cap, *corr._quadratic(f)[:2]), nu0)
        # the loop of _axial_nu on the nodes ``at`` still stepping, from sol
        at, v = np.arange(sol.size), sol
        value, slope = terms(v, rhs, weight, f)
        for _ in range(_NU_MAX_STEPS):
            go &= slope != 0.0  # as in _axial_nu
            if not go.all():
                if not go.any():
                    break
                at, v, value, slope, rhs, weight, f, nu0 = (
                    u[go] for u in (at, v, value, slope, rhs, weight, f, nu0))
            new = np.minimum(np.maximum(v - value / slope, nu0), cap)
            new_value, slope = terms(new, rhs, weight, f)
            mag, new_mag = np.abs(value), np.abs(new_value)
            go = (new_mag < mag) & (np.abs(new - v) > _NU_STEP_TOL * new)
            sol[at] = np.where(new_mag > mag, v, new)  # after go: v may be sol itself
            v, value = new, new_value
        else:
            sol[at[go]] = np.nan
        sol[psi < 0.0] = np.nan  # Glauert empirical's psi, where F (a + a_c) < 0.286
        nu[on] = sol
    return nu


def _quadratic_nu_grid(rhs, weight, cap, p2, p1):
    """:func:`_quadratic_nu` elementwise, NaN where it raises."""
    qa = weight * p2 - 1.0 - rhs
    qb = 1.0 - 2.0 * weight * p2 * cap - weight * p1
    qc = weight * cap * (p2 * cap + p1)
    disc = np.sqrt(np.maximum(qb * qb - 4.0 * qa * qc, 0.0))
    q = -0.5 * (qb + np.copysign(disc, qb))
    nu = np.where(q > 0.0, qc / q, np.where(q == 0.0, np.nan, q / qa))
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
        momentum = momentum + (math.cos(theta) * s * s / cos_tp * corr._law(excess, f)[0]
                               / (nu * nu))
    return tuple.__new__(_Eval, (phi, s, f, cl, lift_c, drag, nu, momentum,
                                 lift_c - t * drag - momentum))


def _slope(geom, polar, corr, ev):
    """Exact d residual/d phi at the angle of the :data:`_Eval` record ``ev``.

    From cl', cd' and F' (:func:`_tip`).  Where the correction is active,
    nu' = -B_phi / B_nu by implicit differentiation of the axial balance
    B = (1 - nu)/nu - g + w psi/nu^2 with w = sin(theta) sin(phi) /
    cos(theta - phi); psi depends on F too, and ``CorrectionSpec._law``
    gives both of its derivatives.  At a = a_c the slope is the one-sided
    one from below, where ``psi_terms`` gives d psi/da = 0.
    """
    phi, theta, f = ev.phi, geom.theta, ev.tip_factor
    fp = _tip(geom, corr, phi)[1]
    dcl, dcd = polar._on_scalar(phi - geom.gamma, "cl_prime", "cd_prime")
    t = math.tan(theta - phi)
    d_drag = (0.25 * geom.solidity * dcd - ev.mu_D_c * fp) / f
    slope = ((0.25 * geom.solidity * dcl - ev.mu_L_c * fp) / f
             + (1.0 + t * t) * ev.mu_D_c - t * d_drag - mu_G_prime(theta, phi))
    excess = (1.0 - ev.nu) - corr.a_c
    if corr.variant == "none" or not excess > 0.0:
        return slope
    _, dpsi, dpsi_tip = corr._law(excess, f)
    s, c, nu, cos_tp = ev.s, math.cos(phi), ev.nu, math.cos(theta - phi)
    d_g = ((-t / (s * s) - c / s * (1.0 + t * t)) * (1.0 + ev.mu_D_c / s)
           + (d_drag - ev.mu_D_c * c / s) / s * (1.0 + c / s * t))
    # on the balance p = w psi/nu^2 = g - (1 - nu)/nu, so mu_G^c = mu_G + cot(theta) s p
    p = _g(phi, s, t, ev.mu_D_c) - (1.0 - nu) / nu
    w = math.sin(theta) * s / cos_tp  # w'/w = cos(theta) / (s cos(theta - phi))
    b_phi = ((math.cos(theta) / (s * cos_tp) * p - d_g) * nu * nu  # nu^2 B_phi
             + w * dpsi_tip * fp)
    d_nu = b_phi / (1.0 + w * dpsi + 2.0 * p * nu)  # -nu^2 B_nu
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
                                                * corr._law(excess, f)[0] / (nu * nu)),
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
