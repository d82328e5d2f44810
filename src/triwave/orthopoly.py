"""Orthogonal polynomial engines: Laguerre, Jacobi, Pollaczek, continuous dual Hahn.

Every family is one three-term recurrence p_{n+1} = (a_n x + b_n) p_n -
c_n p_{n-1}, p_0 = 1 (DLMF 18.9.1): each family only supplies its coefficient
arrays, and one kernel steps them upward, which is stable at fixed argument in
the parameter regimes used by the solvable models.  `sequence` and `evaluate`
run that kernel for any family, at any real x; laguerre_sequence,
jacobi_sequence and pollaczek_sequence are further names of sequence, kept for
the benchmark.  The terminating hypergeometric closed forms are kept as
independent cross-checks, never as primary evaluators.  Weight densities and
the squared modulus of the complex gamma function are provided for
orthogonality verification.  The Pollaczek closed form and weight take their
form from x: trigonometric for |x| < 1, hyperbolic for x > 1.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

from .exceptions import (
    ComplexWeightError,
    DomainError,
    EvaluationOverflowError,
    ParameterDomainError,
    RecursionBreakdownError,
    SingularParameterError,
    require_degree,
    require_finite,
)

__all__ = [
    "LaguerreFamily",
    "JacobiFamily",
    "PollaczekFamily",
    "DualHahnFamily",
    "sequence",
    "evaluate",
    "laguerre_sequence",
    "jacobi_sequence",
    "pollaczek_sequence",
    "pollaczek_closed_form",
    "dual_hahn_closed_form",
    "gamma_abs_squared",
    "log_gamma_abs_squared",
    "weight_eval",
]


# ---------------------------------------------------------------------------
# Families
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class LaguerreFamily:
    """Generalized Laguerre polynomials L_n^nu, orthogonal on (0, inf)
    against x^nu e^{-x}.  Requires nu > -1."""

    nu: float

    def __post_init__(self):
        require_finite(self)
        if not self.nu > -1.0:
            raise ParameterDomainError("Laguerre family requires nu > -1, got nu=%g" % self.nu)


@dataclass(frozen=True)
class JacobiFamily:
    """Jacobi polynomials P_n^(mu,nu), orthogonal on (-1, 1) against
    (1-x)^mu (1+x)^nu.  Requires mu > -1 and nu > -1."""

    mu: float
    nu: float

    def __post_init__(self):
        require_finite(self)
        if not (self.mu > -1.0 and self.nu > -1.0):
            raise ParameterDomainError(
                "Jacobi family requires mu, nu > -1, got (%g, %g)" % (self.mu, self.nu))


@dataclass(frozen=True)
class PollaczekFamily:
    """Pollaczek polynomials P_n^mu(x; a, b).

    The recurrence defines them at every real x, for any real (a, b) with
    mu > 0.  Only the closed form and the weight change form with x: the
    trigonometric form on x = cos(theta) in (-1, 1), and the hyperbolic one,
    theta -> i*theta, on x = cosh(theta) > 1.  The classical positivity
    condition a >= |b| is required only where the trigonometric weight is
    used, and is enforced there rather than at construction.
    """

    mu: float
    a: float
    b: float

    def __post_init__(self):
        require_finite(self)
        if not self.mu > 0.0:
            raise ParameterDomainError("Pollaczek family requires mu > 0, got mu=%g" % self.mu)

    @property
    def orthogonality_valid(self):
        """True when the trigonometric weight is a positive measure (a >= |b|)."""
        return self.a >= abs(self.b)


@dataclass(frozen=True)
class DualHahnFamily:
    """Continuous dual Hahn polynomials S_n^mu(x^2; a, b), for real
    parameters mu, a, b > 0."""

    mu: float
    a: float
    b: float

    def __post_init__(self):
        require_finite(self)
        if not (self.mu > 0.0 and self.a > 0.0 and self.b > 0.0):
            raise ParameterDomainError("dual Hahn parameters must be positive, got mu=%g, "
                                       "a=%g, b=%g" % (self.mu, self.a, self.b))


# ---------------------------------------------------------------------------
# |Gamma(mu + i y)|^2 by the Lanczos approximation, one array kernel
# ---------------------------------------------------------------------------

# g = 7, n = 9 coefficients (Lanczos, SIAM J. Numer. Anal. B 1, 1964):
# Gamma(z+1) = sqrt(2 pi) t^{z+1/2} e^{-t} (c_0 + sum_k c_k / (z + k)),
# t = z + g + 1/2, for Re z >= 1/2
_LANCZOS_G = 7.0
_LANCZOS_C = (
    0.99999999999980993,
    676.5203681218851,
    -1259.1392167224028,
    771.32342877765313,
    -176.61502916214059,
    12.507343278686905,
    -0.13857109526572012,
    9.9843695780195716e-6,
    1.5056327351493116e-7,
)
_LANCZOS_TAIL = np.array(_LANCZOS_C[1:])
_LANCZOS_K = np.arange(1.0, len(_LANCZOS_C))
_HALF_LOG_2PI = 0.5 * math.log(2.0 * math.pi)


def log_gamma_abs_squared(mu, y):
    """log |Gamma(mu + i y)|^2 for finite mu > 0 and finite real y (scalar
    or array; an array keeps its shape).

    Computed as 2 Re log Gamma(mu + i|y|), so the result is exactly even in
    y.  The whole array takes one Lanczos evaluation: every point shifts up
    by the same ceil(2.5 - mu) steps, which keep the relative error at a
    few 1e-15 down to mu -> 0+, and the shift is undone by subtracting
    2 log|mu + k + i y| per step.  Checked against mpmath for mu in
    [1e-3, 50] and |y| up to 1e200.
    """
    if not 0.0 < mu < math.inf:
        raise ParameterDomainError(
            "gamma_abs_squared requires finite mu > 0, got %g" % mu)
    y_arr = np.asarray(y, dtype=float)
    flat = np.atleast_1d(y_arr)
    if not np.isfinite(flat).all():
        raise DomainError("gamma_abs_squared requires finite y, got y = %r"
                          % float(flat[~np.isfinite(flat)][0]))
    ay = np.abs(flat)
    shift = max(0, math.ceil(2.5 - mu))
    zr = mu + shift - 1.0  # Re zm, zm = z - 1 for the shifted z
    tr = zr + _LANCZOS_G + 0.5  # Re t, t = zm + g + 1/2
    zm = zr + 1j * ay
    acc = _LANCZOS_C[0] + (_LANCZOS_TAIL / (zm[..., None] + _LANCZOS_K)).sum(-1)
    # Re log Gamma(z) = (zr + 1/2) log|t| - |y| arg t - Re t + log|acc|
    # + log(2 pi)/2; past |y| ~ 6e307 the value, about -pi |y|, leaves the
    # float range and rounds to -inf
    with np.errstate(over="ignore"):
        out = (zr + 0.5) * np.log(np.hypot(tr, ay))
        out -= ay * np.arctan2(ay, tr)
        out += np.log(np.abs(acc))
        out += _HALF_LOG_2PI - tr
        for k in range(shift):
            # hypot, not (mu+k)^2 + y^2, which overflows for |y| > 1e154
            out -= np.log(np.hypot(mu + k, ay))
        out *= 2.0
    return out.reshape(y_arr.shape) if y_arr.ndim else float(out[0])


def gamma_abs_squared(mu, y):
    """|Gamma(mu + i y)|^2, even in y.  mu must be finite and positive; a
    value past the float range raises EvaluationOverflowError."""
    with np.errstate(over="ignore"):
        val = np.exp(log_gamma_abs_squared(mu, y))
    bad = np.isinf(np.ravel(val))
    if np.any(bad):
        raise EvaluationOverflowError(
            "|Gamma(mu + i y)|^2 overflows the float range at mu = %g, y = %r"
            % (mu, float(np.ravel(y)[bad][0])))
    return val


# ---------------------------------------------------------------------------
# Three-term recurrence (all four families)
# ---------------------------------------------------------------------------

def _recurrence(family, nmax):
    """Coefficient lists (a_n, b_n, c_n), n < nmax, of the family's recurrence
    p_{n+1} = (a_n x + b_n) p_n - c_n p_{n-1} with p_0 = 1 (DLMF 18.9.1); x
    is x^2 for the dual Hahn family."""
    n = np.arange(nmax, dtype=float)
    if isinstance(family, LaguerreFamily):
        nu = family.nu
        abc = np.array([np.full(nmax, -1.0), 2.0 * n + nu + 1.0, n + nu]) / (n + 1.0)
    elif isinstance(family, JacobiFamily):
        mu, nu = family.mu, family.nu
        s = mu + nu
        with np.errstate(divide="ignore", invalid="ignore"):
            c0 = (2 * n * (n + s + 1.0) + s * (nu + 1.0)) / ((2 * n + s) * (2 * n + s + 2.0))
            cm = (n + mu) * (n + nu) / ((2 * n + s) * (2 * n + s + 1.0))
            cp = (n + 1.0) * (n + s + 1.0) / ((2 * n + s + 1.0) * (2 * n + s + 2.0))
            abc = np.array([np.full(nmax, 0.5), 0.5 - c0, cm]) / cp
        # the general form is 0/0 at n = 0 when s is 0 or -1
        abc[:, :1] = [[0.5 * (s + 2.0)], [0.5 * (mu - nu)], [0.0]]
    elif isinstance(family, PollaczekFamily):
        mu, a, b = family.mu, family.a, family.b
        # divided by n + 1 only: n + mu + a vanishes for some Morse inputs
        abc = np.array([2.0 * (n + mu + a), np.full(nmax, 2.0 * b),
                        n - 1.0 + 2.0 * mu]) / (n + 1.0)
    elif isinstance(family, DualHahnFamily):
        mu = family.mu
        sab, pab = family.a + family.b, family.a * family.b
        denom = (n + mu) ** 2 + (n + mu) * sab + pab  # (n+mu+a)(n+mu+b)
        if np.any(denom == 0.0):
            k = int(np.argmax(denom == 0.0))
            raise RecursionBreakdownError(k, "(n+mu+a)(n+mu+b)=0 at n=%d" % k)
        grow = n * (n + sab - 1.0)
        abc = np.array([np.full(nmax, -1.0), denom + grow - mu * mu, grow]) / denom
    else:
        raise ParameterDomainError("unknown polynomial family %r" % (family,))
    return abc.tolist()


def _rows(family, nmax: int, x, rows):
    """Step p_0 .. p_nmax of the family at the float array x through its
    recurrence, writing p_n into row n of rows and yielding that row, always
    an array view (also for a 0-d x).  rows is the (nmax+1,) + x.shape table,
    or a ring of 3 rows (row n % 3) for a caller that keeps only the latest
    two; a yielded row stays valid for two more steps."""
    a, b, c = _recurrence(family, nmax)
    p = rows[0, ...]
    p[...] = 1.0
    yield p
    q, tmp = np.zeros(x.shape), np.empty(x.shape)
    for n in range(nmax):
        nxt = rows[(n + 1) % len(rows), ...]
        np.multiply(x, a[n], nxt)
        np.add(nxt, b[n], nxt)
        np.multiply(nxt, p, nxt)
        np.multiply(q, c[n], tmp)
        np.subtract(nxt, tmp, nxt)
        q, p = p, nxt
        yield p


def sequence(family, nmax: int, x):
    """p_0 .. p_nmax of the family at x (at x^2 for the dual Hahn family) by
    upward recurrence; returns shape (nmax+1,) + shape(x)."""
    nmax = require_degree("nmax", nmax)
    x = np.asarray(x, dtype=float)
    out = np.empty((nmax + 1,) + x.shape)
    for _ in _rows(family, nmax, x, out):
        pass
    return out


def evaluate(family, n: int, x):
    """p_n of the family at x (at x^2 for the dual Hahn family) by upward
    recurrence, holding three rows only."""
    n = require_degree("n", n)
    x = np.asarray(x, dtype=float)
    for val in _rows(family, n, x, np.empty((3,) + x.shape)):
        pass
    return val if val.ndim else float(val)


# perfbench/workloads.py calls these names of sequence
laguerre_sequence = jacobi_sequence = pollaczek_sequence = sequence


# ---------------------------------------------------------------------------
# Closed forms (cross-checks)
# ---------------------------------------------------------------------------

def pollaczek_closed_form(family: PollaczekFamily, n: int, x: float) -> float:
    """Terminating-hypergeometric cross-check value for P_n (scalar x only).

    The form follows x, each an n+1-term sum chosen for conditioning and
    summed by math.fsum; x = +-1 is singular for both, and no form is kept
    for x < -1.  Trigonometric, |x| < 1: the conjugate-factor expansion
    P_n = sum_k (mu-iy)_k (mu+iy)_{n-k} e^{i(2k-n)theta} / (k! (n-k)!), the
    coefficient form of e^{in theta} 2F1(-n, mu+iy; 2mu; 1-e^{-2i theta}) with
    y = (b + a x)/sin(theta); its imaginary part cancels pairwise.
    Hyperbolic, x > 1: the direct real sum, argument 1 - e^{2 theta}, and its
    Pfaff transform, argument 1 - e^{-2 theta}, both evaluated and the one of
    smaller condition number sum |term| / |sum| kept.
    """
    n = require_degree("n", n)
    x = float(x)
    if x < -1.0:
        raise DomainError("Pollaczek closed form needs x >= -1; below, use "
                          "P_n(-x; a, -b) = (-1)^n P_n(x; a, b)")
    mu, a, b = family.mu, family.a, family.b
    if n == 0:
        return 1.0
    if abs(x) == 1.0:
        raise SingularParameterError(
            "closed form undefined at x=+-1 (sin(theta)=0, y diverges)")
    if x < 1.0:
        theta = math.acos(x)
        y = (b + a * x) / math.sin(theta)
        poch = [complex(1.0)]
        for k in range(n):
            poch.append(poch[-1] * complex(mu + k, -y))
        lfac = [math.lgamma(k + 1.0) for k in range(n + 1)]
        return math.fsum((poch[k] * poch[n - k].conjugate()
                          * cmath.exp(1j * (2 * k - n) * theta - lfac[k] - lfac[n - k])).real
                         for k in range(n + 1))
    # hyperbolic: the direct sum (argument 1 - e^{2 theta}, coefficient mu+z)
    # and its Pfaff transform (argument 1 - e^{-2 theta}, coefficient mu-z)
    # are evaluated together and the better-conditioned one wins; each is
    # sign-definite on one half of the z axis, so the pair covers everything.
    pref = math.prod((2.0 * mu + j) / (1.0 + j) for j in range(n))  # (2mu)_n / n!
    theta = math.acosh(x)
    z = (b + a * x) / math.sinh(theta)
    best_val, best_cond = 0.0, math.inf
    for coef, w, escale in (
            (mu + z, 1.0 - math.exp(2.0 * theta), math.exp(-n * theta)),
            (mu - z, 1.0 - math.exp(-2.0 * theta), math.exp(n * theta))):
        terms = [1.0]
        for k in range(1, n + 1):
            terms.append(terms[-1] * ((-n + k - 1.0) * (coef + k - 1.0) * w
                                      / ((2.0 * mu + k - 1.0) * k)))
        total = math.fsum(terms)
        cond = sum(map(abs, terms)) / max(abs(total), 1e-300)
        if cond < best_cond:
            best_val, best_cond = pref * escale * total, cond
    return best_val


def dual_hahn_closed_form(family: DualHahnFamily, n: int, x_squared: float) -> float:
    """Terminating 3F2(-n, mu+ix, mu-ix; mu+a, mu+b; 1) cross-check value."""
    n = require_degree("n", n)
    mu = family.mu
    sab, pab = family.a + family.b, family.a * family.b
    x2 = float(x_squared)
    terms = [1.0]
    for k in range(n):
        num = (-n + k) * ((mu + k) ** 2 + x2)
        den = ((mu + k) ** 2 + (mu + k) * sab + pab) * (k + 1.0)
        if den == 0.0:
            raise SingularParameterError("3F2 denominator parameter hit a pole")
        terms.append(terms[-1] * (num / den))
    return math.fsum(terms)


# ---------------------------------------------------------------------------
# Weights
# ---------------------------------------------------------------------------

def _log_sinh(t):
    """log(sinh t) for t > 0, overflow safe."""
    return t + np.log1p(-np.exp(-2.0 * t)) - math.log(2.0)


def weight_eval(family, x):
    """Orthogonality weight density of the family at x (scalar or array).

    Laguerre: x^nu e^{-x} on (0, inf); Jacobi: (1-x)^mu (1+x)^nu on (-1, 1);
    Pollaczek on (-1, 1): (1/pi)(2 sin theta)^{2mu-1} e^{(2theta-pi) y}
    |Gamma(mu+iy)|^2 with y = (b + a x)/sin theta; continuous dual Hahn:
    (1/2pi) |Gamma(mu+ix)Gamma(a+ix)Gamma(b+ix) / (Gamma(mu+a)Gamma(mu+b)
    Gamma(2ix))|^2 on (0, inf).

    For x > 1 the Pollaczek density is the hyperbolic one, which carries
    the complex factor (2i sinh theta)^{2mu-1} e^{-i pi z}; its phase is +-1
    only where mu - 1/2 - z is an integer, and the value is returned just
    there (signed); elsewhere a ComplexWeightError is raised.  See the
    README for why this measure is not used in the orthogonality suite.  A
    Pollaczek x array must lie wholly in (-1, 1) or wholly above 1.
    """
    if isinstance(family, LaguerreFamily):
        x = np.asarray(x, dtype=float)
        if np.any(x < 0.0) or (np.any(x == 0.0) and family.nu < 0.0):
            raise DomainError("Laguerre weight needs x > 0 (x = 0 only for nu >= 0)")
        with np.errstate(divide="ignore"):
            val = np.where(x > 0.0, np.power(np.maximum(x, 1e-300), family.nu), 0.0)
        val = np.where(x == 0.0, 1.0 if family.nu == 0.0 else 0.0, val) * np.exp(-x)
        return val if val.ndim else float(val)
    if isinstance(family, JacobiFamily):
        x = np.asarray(x, dtype=float)
        if np.any(np.abs(x) >= 1.0):
            raise DomainError("Jacobi weight is supported on the open interval (-1, 1)")
        val = np.power(1.0 - x, family.mu) * np.power(1.0 + x, family.nu)
        return val if val.ndim else float(val)
    if isinstance(family, PollaczekFamily):
        return _pollaczek_weight(family, x)
    if isinstance(family, DualHahnFamily):
        return _dual_hahn_weight(family, x)
    raise ParameterDomainError("unknown polynomial family %r" % (family,))


def _pollaczek_weight(family: PollaczekFamily, x):
    mu, a, b = family.mu, family.a, family.b
    x_arr = np.asarray(x, dtype=float)
    if np.all(np.abs(x_arr) < 1.0):
        if not family.orthogonality_valid:
            raise ParameterDomainError(
                "trigonometric Pollaczek weight needs a >= |b| for a positive measure")
        theta = np.arccos(x_arr)
        sin_t = np.sin(theta)
        y = (b + a * x_arr) / sin_t
        logw = ((2.0 * mu - 1.0) * (math.log(2.0) + np.log(sin_t))
                + (2.0 * theta - math.pi) * y
                + log_gamma_abs_squared(mu, y) - math.log(math.pi))
        val = np.exp(logw)
        return val if val.ndim else float(val)
    # hyperbolic form: phase e^{i pi (mu - 1/2 - z)} must be +-1
    if not np.all(x_arr > 1.0):
        raise SingularParameterError(
            "Pollaczek weight is singular at x = +-1 and takes one form per call: "
            "every x in (-1, 1) or every x > 1")
    theta = np.arccosh(x_arr)
    z = (b + a * x_arr) / np.sinh(theta)
    phase_arg = mu - 0.5 - z
    if np.any(np.abs(np.sin(math.pi * phase_arg)) > 1e-9):
        raise ComplexWeightError(
            "hyperbolic Pollaczek weight is complex here (mu - 1/2 - z not integer)")
    sign = np.cos(math.pi * phase_arg)
    logw = ((2.0 * mu - 1.0) * (math.log(2.0) + _log_sinh(theta))
            + 2.0 * theta * z - math.log(math.pi))
    mz = np.atleast_1d(mu + z)
    poles = (mz <= 0.0) & (mz == np.floor(mz))
    if np.any(poles):
        raise SingularParameterError("Gamma pole at %g" % mz[poles][0])
    # log Gamma(mu + z)^2 at real mu + z
    gam = 2.0 * np.array([math.lgamma(v) for v in mz.ravel().tolist()]).reshape(mz.shape)
    val = np.round(np.atleast_1d(sign)) * np.exp(np.atleast_1d(logw) + gam)
    return float(val[0]) if x_arr.ndim == 0 else val.reshape(x_arr.shape)


def _dual_hahn_weight(family: DualHahnFamily, x):
    mu, a, b = family.mu, family.a, family.b
    x_arr = np.asarray(x, dtype=float)
    if np.any(x_arr < 0.0):
        raise DomainError("dual Hahn weight is supported on x >= 0")
    flat = np.atleast_1d(x_arr).astype(float)
    out = np.zeros(flat.shape)
    pos = flat > 0.0
    xp = flat[pos]
    if xp.size:
        # 1/|Gamma(2ix)|^2 = 2x sinh(2 pi x)/pi, kept in logs for overflow safety
        log_inv_g2ix = (math.log(2.0) + np.log(xp) + _log_sinh(2.0 * math.pi * xp)
                        - math.log(math.pi))
        logw = (log_gamma_abs_squared(mu, xp) + log_gamma_abs_squared(a, xp)
                + log_gamma_abs_squared(b, xp) + log_inv_g2ix
                - 2.0 * (math.lgamma(mu + a) + math.lgamma(mu + b))
                - math.log(2.0 * math.pi))
        out[pos] = np.exp(logw)
    out = out.reshape(np.atleast_1d(x_arr).shape)
    return float(out[0]) if x_arr.ndim == 0 else out.reshape(x_arr.shape)
