"""Airfoil polar ingestion and evaluation.

A polar is a table of lift/drag coefficients sampled against angle of
attack (radians).  Evaluation uses a monotone piecewise cubic (PCHIP)
interpolant, which is C1 and does not overshoot near stall; tables with
fewer than four samples use piecewise linear interpolation.  The
coefficients are those of scipy's ``PchipInterpolator``, computed here
with the same operations so that the package does not import scipy.

Conventions:
  * ``cd`` is defined for every angle: outside the sampled range it is
    clamped to the nearest end value (constant extrapolation).
  * ``cl`` is only trusted inside the sampled range and raises
    :class:`DomainError` outside it, unless the table was built with
    ``clamp_cl=True``.

Every piece is stored as a cubic, constant term first; a linear piece
and a derivative have zero high coefficients.  A scalar ``float``
(``np.float64`` included) is evaluated in pure Python, an array in
numpy, and each path sums one four-term expression,
``0 + c0 + c1 s + c2 s^2 + c3 s^3``, in scipy's ``PPoly`` order (Horner's
rule would differ in the last bit).  So scalars and arrays give the same
bits as scipy.  The zero terms change no bit: ``s >= 0`` in range, and the
partial sum is never ``-0.0``.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import DomainError, NoPositiveLiftError, PolarFormatError, ValidationError, _count

_GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0
# best_glide_angle's scan grid size and golden-section bracket tolerance
_GLIDE_GRID, _GLIDE_TOL = 2048, 1e-10


@dataclass(frozen=True)
class PolarSample:
    """One tabulated point: angle of attack (rad), lift and drag coefficient."""

    alpha: float
    cl: float
    cd: float


def _pchip_end(h0, h1, m0, m1):
    """One-sided three-point end slope, kept shape-preserving."""
    d = ((2 * h0 + h1) * m0 - h0 * m1) / (h0 + h1)
    if np.sign(d) != np.sign(m0):
        return 0.0
    if np.sign(m0) != np.sign(m1) and abs(d) > 3.0 * abs(m0):
        return 3.0 * m0
    return d


def _pchip(x, y):
    """Per-interval coefficients of the PCHIP interpolant, constant term
    first, with the operations of scipy's ``PchipInterpolator`` (node
    slopes by the weighted harmonic mean, zero at a change of monotonicity)."""
    hk = x[1:] - x[:-1]
    mk = (y[1:] - y[:-1]) / hk
    smk = np.sign(mk)
    condition = (smk[1:] != smk[:-1]) | (mk[1:] == 0) | (mk[:-1] == 0)
    w1 = 2 * hk[1:] + hk[:-1]
    w2 = hk[1:] + 2 * hk[:-1]
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        whmean = (w1 / mk[:-1] + w2 / mk[1:]) / (w1 + w2)
    dk = np.zeros_like(y)
    dk[1:-1][~condition] = 1.0 / whmean[~condition]
    dk[0] = _pchip_end(hk[0], hk[1], mk[0], mk[1])
    dk[-1] = _pchip_end(hk[-1], hk[-2], mk[-1], mk[-2])
    # cubic Hermite form, as scipy's CubicHermiteSpline
    t = (dk[:-1] + dk[1:] - 2 * mk) / hk
    return np.stack([y[:-1], dk[:-1], (mk - dk[:-1]) / hk - t, t / hk], axis=1)


def _derivative(coef):
    """Coefficients of the derivative, as scipy's ``PPoly.derivative``, with a
    zero ``c3`` column to keep every set four wide."""
    deriv = np.zeros_like(coef)
    deriv[:, :-1] = coef[:, 1:] * np.arange(1.0, coef.shape[1])
    return deriv


class PolarTable:
    """Immutable polar table with C1 interpolation of cl and cd.

    Parameters
    ----------
    alpha, cl, cd : array_like
        Samples, strictly increasing in ``alpha``.  ``cd`` must be
        non-negative everywhere.
    beta : float, optional
        Half-width of the trusted lift window (0, beta].  Defaults to
        ``alpha_s``.
    alpha_s : float, optional
        Stall angle estimate.  Defaults to the sampled alpha that
        maximizes cl.
    label : str
        Identifier used in reports.
    clamp_cl : bool
        If true, cl evaluation outside the sampled range clamps instead
        of raising.
    """

    def __init__(self, alpha, cl, cd, *, beta=None, alpha_s=None, label="polar",
                 clamp_cl=False):
        alpha = np.asarray(alpha, dtype=float)
        cl = np.asarray(cl, dtype=float)
        cd = np.asarray(cd, dtype=float)
        if alpha.ndim != 1 or alpha.size < 2:
            raise ValidationError("polar needs at least two samples")
        if cl.shape != alpha.shape or cd.shape != alpha.shape:
            raise ValidationError("alpha, cl, cd must have matching lengths")
        dal = np.diff(alpha)
        if np.any(dal == 0.0):
            repeated = alpha[np.flatnonzero(dal == 0.0)[0]]
            raise ValidationError(f"duplicate alpha abscissa {repeated:g} in polar table")
        if np.any(dal < 0.0):
            raise ValidationError("polar samples must be sorted by alpha")
        if not (np.all(np.isfinite(alpha)) and np.all(np.isfinite(cl))
                and np.all(np.isfinite(cd))):
            raise ValidationError("polar samples must be finite")
        if np.any(cd < 0.0):
            bad = alpha[np.argmin(cd)]
            raise ValidationError(f"negative drag coefficient at alpha={bad:g}")

        self._alpha = alpha
        self._cl = cl
        self._cd = cd
        self.label = label
        self.clamp_cl = bool(clamp_cl)

        if alpha_s is None:
            alpha_s = float(alpha[int(np.argmax(cl))])
        if not 0.0 < alpha_s < math.pi / 2.0:
            raise ValidationError(
                f"stall angle estimate {alpha_s:g} outside (0, pi/2); pass alpha_s explicitly")
        self.alpha_s = float(alpha_s)

        if beta is None:
            beta = self.alpha_s
        if not 0.0 < beta <= self.alpha_s:
            raise ValidationError(f"beta={beta:g} must satisfy 0 < beta <= alpha_s={self.alpha_s:g}")
        self.beta = float(beta)

        window = (alpha > 0.0) & (alpha <= self.beta)
        if np.any(cl[window] <= 0.0):
            bad = alpha[window][cl[window] <= 0.0][0]
            raise ValidationError(f"cl must be positive on (0, beta]; cl(alpha={bad:g}) <= 0")

        if alpha.size >= 4:
            cl_coef, cd_coef = _pchip(alpha, cl), _pchip(alpha, cd)
        else:  # linear pieces, as cubics with c2 = c3 = 0
            zero = np.zeros(dal.size)
            cl_coef = np.stack([cl[:-1], np.diff(cl) / dal, zero, zero], axis=1)
            cd_coef = np.stack([cd[:-1], np.diff(cd) / dal, zero, zero], axis=1)
        self.alpha_min, self.alpha_max = float(alpha[0]), float(alpha[-1])
        self._left_a = alpha[:-1]
        self._left = self._left_a.tolist()
        coefs = {"cl": cl_coef, "cd": cd_coef,
                 "cl_prime": _derivative(cl_coef), "cd_prime": _derivative(cd_coef)}
        # rows (lists) for the scalar path, contiguous columns for the array path
        self._rows = {name: coef.tolist() for name, coef in coefs.items()}
        self._cols = {name: [np.ascontiguousarray(c) for c in coef.T]
                      for name, coef in coefs.items()}
        self._best_glide = None  # filled by the first best_glide_angle call

    # -- basic accessors -------------------------------------------------

    @property
    def samples(self):
        return tuple(PolarSample(float(a), float(l), float(d))
                     for a, l, d in zip(self._alpha, self._cl, self._cd))

    def __repr__(self):
        return (f"PolarTable({self.label!r}, n={self._alpha.size}, "
                f"alpha=[{self.alpha_min:g}, {self.alpha_max:g}], "
                f"beta={self.beta:g}, alpha_s={self.alpha_s:g})")

    # -- evaluation ------------------------------------------------------

    def _outside(self):
        return DomainError("cl evaluation outside sampled range "
                           f"[{self.alpha_min:g}, {self.alpha_max:g}]")

    def _on_array(self, alpha, *names):
        """Any of ``cl``, ``cd``, ``cl_prime`` and ``cd_prime`` at one array (or
        0-d) of angles, from one interval search: a list with, for each name,
        what that method returns, bit for bit.  A lift name makes the call
        raise or clamp as :meth:`cl` does."""
        arr = np.asarray(alpha, dtype=float)
        if self.clamp_cl or not ("cl" in names or "cl_prime" in names):
            at = arr.clip(self.alpha_min, self.alpha_max)
        elif (arr < self.alpha_min).any() or (arr > self.alpha_max).any():
            raise self._outside()
        else:
            at = arr  # in range
        i = np.searchsorted(self._left_a, at, side="right") - 1
        s = at - self._left_a.take(i)
        s2 = s * s
        s3 = s2 * s
        out = []
        for name in names:
            c0, c1, c2, c3 = (c.take(i) for c in self._cols[name])
            value = 0.0 * s + c0 + c1 * s + c2 * s2 + c3 * s3  # NaN where alpha is NaN
            if name == "cd_prime":  # zero outside the range, where cd is clamped
                value = np.where((arr >= self.alpha_min) & (arr <= self.alpha_max), value, 0.0)
            out.append(value)
        return out if np.ndim(alpha) else [float(v) for v in out]

    def _on_scalar(self, alpha, *names):
        """:meth:`_on_array` at one float angle: any of ``cl``, ``cd``,
        ``cl_prime`` and ``cd_prime`` from one interval search, a list with,
        for each name, what that method returns, bit for bit.  A lift name
        makes the call raise or clamp as :meth:`cl` does."""
        at = alpha
        if alpha < self.alpha_min or alpha > self.alpha_max:
            if not self.clamp_cl and ("cl" in names or "cl_prime" in names):
                raise self._outside()
            at = self.alpha_min if alpha < self.alpha_min else self.alpha_max
        # a NaN angle takes the last interval and gives NaN sums
        i = bisect_right(self._left, at) - 1
        s = at - self._left[i]
        s2 = s * s
        s3 = s2 * s
        out = []
        for name in names:
            c0, c1, c2, c3 = self._rows[name][i]
            if name == "cd_prime" and at != alpha:  # 0 where cd is clamped, and at NaN
                out.append(0.0)
            else:  # in _on_array's order
                out.append(0.0 + c0 + c1 * s + c2 * s2 + c3 * s3)
        return out

    def cl(self, alpha):
        """Lift coefficient at angle of attack ``alpha`` (rad)."""
        if isinstance(alpha, float):
            return self._on_scalar(float(alpha), "cl")[0]
        return self._on_array(alpha, "cl")[0]

    def cl_prime(self, alpha):
        """Derivative dcl/dalpha of the interpolant."""
        if isinstance(alpha, float):
            return self._on_scalar(float(alpha), "cl_prime")[0]
        return self._on_array(alpha, "cl_prime")[0]

    def cd(self, alpha):
        """Drag coefficient; clamped to the nearest sample outside the range."""
        if isinstance(alpha, float):
            return self._on_scalar(float(alpha), "cd")[0]
        return self._on_array(alpha, "cd")[0]

    def cd_prime(self, alpha):
        """Derivative dcd/dalpha; zero outside the sampled range (clamping)."""
        if isinstance(alpha, float):
            return self._on_scalar(float(alpha), "cd_prime")[0]
        return self._on_array(alpha, "cd_prime")[0]


def _content_lines(text):
    """(line number, stripped text) of each line of ``text`` that is not blank or a
    comment; in both readers "\\n", "\\r\\n" and a lone "\\r" end a line, whatever
    the text was read from (a path, a text stream or bytes), and "#" starts a comment."""
    ends = text.replace("\r\n", "\n").replace("\r", "\n")  # not splitlines(), which ends more
    lines = [raw.partition("#")[0].strip() for raw in ends.split("\n")]
    return [(lineno, line) for lineno, line in enumerate(lines, start=1) if line]


def load_polar(source, *, beta=None, alpha_s=None, label=None, clamp_cl=False) -> PolarTable:
    """Load a polar from CSV text: columns alpha_rad,cl,cd.

    ``source`` may be a filesystem path or any object with ``read()``
    (e.g. ``sys.stdin``) that returns text or bytes.  The text is UTF-8;
    rows may come in any order.  Lines end at "\\n", "\\r\\n" or a lone
    "\\r" from a path, a text stream and bytes alike, so all three give the
    same table (:func:`_content_lines`).  Comment lines start with '#'; the
    first content line may be a header.  At least four data rows are
    required.
    """
    try:
        if hasattr(source, "read"):
            text = source.read()
            name = label or getattr(source, "name", "polar")
        else:
            path = Path(source)
            text = path.read_text(encoding="utf-8")
            name = label or path.stem
        if isinstance(text, bytes):
            text = text.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise PolarFormatError(f"polar is not UTF-8 text: {exc}") from exc

    rows = []
    for k, (lineno, line) in enumerate(_content_lines(text)):
        try:
            values = tuple(map(float, line.split(",")))  # float strips the spaces
        except ValueError:
            if k == 0:  # the first content line may be a non-numeric header
                continue
            raise PolarFormatError(f"line {lineno}: cannot parse row {line!r}")
        if len(values) != 3:
            raise PolarFormatError(f"line {lineno}: expected 3 columns, got {len(values)}")
        rows.append(values)

    if len(rows) < 4:
        raise PolarFormatError(f"need at least 4 data rows, got {len(rows)}")

    rows.sort(key=lambda rec: rec[0])
    alpha, cl, cd = zip(*rows)
    return PolarTable(alpha, cl, cd, beta=beta, alpha_s=alpha_s, label=name, clamp_cl=clamp_cl)


def best_glide_angle(polar: PolarTable) -> float:
    """Angle in (0, beta] minimizing cd/cl, by grid scan + golden section.

    The result is computed once per table and cached, and has cl > 0.
    Raises :class:`NoPositiveLiftError` when cl <= 0 on the whole window.
    """
    if polar._best_glide is not None:
        return polar._best_glide
    lo = min(polar.beta, polar.alpha_max) / _GLIDE_GRID
    hi = min(polar.beta, polar.alpha_max)
    alphas = np.linspace(lo, hi, _GLIDE_GRID)
    lift, drag = polar._on_array(alphas, "cl", "cd")  # the scalar path's bits
    positive = lift > 0.0
    if not np.any(positive):
        raise NoPositiveLiftError(f"cl <= 0 everywhere on (0, {polar.beta:g}]")
    ratios = np.full(alphas.shape, np.inf)
    ratios[positive] = drag[positive] / lift[positive]
    k = int(np.argmin(ratios))

    a = float(alphas[max(k - 1, 0)])
    b = float(alphas[min(k + 1, _GLIDE_GRID - 1)])

    def ratio(x):
        lift, drag = polar._on_scalar(x, "cl", "cd")
        return drag / lift if lift > 0.0 else math.inf

    # golden-section refinement on the bracketing cell pair
    x1 = b - _GOLDEN * (b - a)
    x2 = a + _GOLDEN * (b - a)
    f1, f2 = ratio(x1), ratio(x2)
    while b - a > _GLIDE_TOL:
        if f1 <= f2:
            b, x2, f2 = x2, x1, f1
            x1 = b - _GOLDEN * (b - a)
            f1 = ratio(x1)
        else:
            a, x1, f1 = x1, x2, f2
            x2 = a + _GOLDEN * (b - a)
            f2 = ratio(x2)
    best = 0.5 * (a + b)
    polar._best_glide = float(best if ratio(best) <= ratios[k] else alphas[k])
    return polar._best_glide


def dump_polar(polar: PolarTable, target) -> None:
    """Write a polar back to CSV (alpha_rad,cl,cd) with round-trip floats."""
    lines = ["alpha_rad,cl,cd"]
    for s in polar.samples:
        lines.append(f"{s.alpha!r},{s.cl!r},{s.cd!r}")
    text = "\n".join(lines) + "\n"
    if hasattr(target, "write"):
        target.write(text)
    else:
        Path(target).write_text(text)


def synthetic_polar(kind, **params) -> PolarTable:
    """Analytically defined tables used by tests and demos.

    Kinds:
      * ``linear_lift``: cl = slope*alpha, cd = cd0 + cd2*alpha**2.
      * ``linear_lift_with_stall``: linear up to ``alpha_s``, then a
        linear drop of fraction ``drop`` over ``transition``, constant
        beyond; mirrored for negative alpha.
      * ``constant``: cl = level everywhere, same drag law.
    """
    span = float(params.pop("span", 1.2))
    n = _count("n", params.pop("n", 161), 4)
    cd0 = float(params.pop("cd0", 0.01))
    cd2 = float(params.pop("cd2", 0.0))
    label = params.pop("label", kind)
    beta = params.pop("beta", None)
    if span <= 0.0:
        raise ValidationError("span must be positive")

    alphas = np.linspace(-span, span, n)

    if kind == "linear_lift":
        slope = float(params.pop("slope", 2.0 * math.pi))
        if slope <= 0.0:
            raise ValidationError("linear_lift needs slope > 0")
        _reject_extra(params)
        cl = slope * alphas
        alpha_s = span  # monotone lift: treat the window edge as the stall estimate
        if alpha_s >= math.pi / 2.0:
            raise ValidationError("span must stay below pi/2 for linear_lift")
    elif kind == "linear_lift_with_stall":
        slope = float(params.pop("slope", 2.0 * math.pi))
        alpha_s = float(params.pop("alpha_s", 0.3))
        drop = float(params.pop("drop", 0.5))
        transition = float(params.pop("transition", 0.05))
        _reject_extra(params)
        if not 0.0 < alpha_s < span or not 0.0 <= drop < 1.0 or transition <= 0.0:
            raise ValidationError("inconsistent stall parameters")
        breaks = np.array([alpha_s, alpha_s + transition])
        alphas = np.union1d(alphas, np.concatenate([breaks, -breaks]))

        mag = np.abs(alphas)
        frac = np.minimum(1.0, (mag - alpha_s) / transition)
        cl = np.where(mag <= alpha_s, slope * alphas,
                      np.copysign(1.0, alphas) * (slope * alpha_s) * (1.0 - drop * frac))
    elif kind == "constant":
        level = float(params.pop("level", 1.0))
        alpha_s = float(params.pop("alpha_s", 0.75 * span))
        _reject_extra(params)
        if level <= 0.0:
            raise ValidationError("constant polar needs level > 0")
        cl = np.full(alphas.shape, level)
    else:
        raise ValidationError(f"unknown synthetic polar kind {kind!r}")

    cd = cd0 + cd2 * alphas ** 2
    if np.any(cd < 0.0):
        raise ValidationError("drag law goes negative; adjust cd0/cd2")
    return PolarTable(alphas, cl, cd, beta=beta, alpha_s=alpha_s, label=label)


def _reject_extra(params):
    if params:
        raise ValidationError(f"unknown synthetic polar parameters: {sorted(params)}")
