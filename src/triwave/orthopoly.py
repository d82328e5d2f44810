"""Orthogonal polynomial engines: Laguerre, Jacobi, Pollaczek, continuous dual Hahn.

All families are evaluated by upward three-term recurrence, which is stable at
fixed argument in the parameter regimes used by the solvable models.  The
terminating hypergeometric closed forms are kept as independent cross-checks,
never as primary evaluators.  Weight densities and the squared modulus of the
complex gamma function are provided for orthogonality verification.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

from .exceptions import (
    ComplexWeightError,
    DomainError,
    ParameterDomainError,
    RecursionBreakdownError,
    SingularParameterError,
)

__all__ = [
    "LaguerreFamily",
    "JacobiFamily",
    "PollaczekFamily",
    "DualHahnFamily",
    "laguerre_eval",
    "laguerre_sequence",
    "jacobi_eval",
    "jacobi_sequence",
    "jacobi_derivative",
    "pollaczek_eval",
    "pollaczek_sequence",
    "pollaczek_closed_form",
    "dual_hahn_eval",
    "dual_hahn_sequence",
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
        if not self.nu > -1.0:
            raise ParameterDomainError("Laguerre family requires nu > -1, got nu=%g" % self.nu)


@dataclass(frozen=True)
class JacobiFamily:
    """Jacobi polynomials P_n^(mu,nu), orthogonal on (-1, 1) against
    (1-x)^mu (1+x)^nu.  Requires mu > -1 and nu > -1."""

    mu: float
    nu: float

    def __post_init__(self):
        if not (self.mu > -1.0 and self.nu > -1.0):
            raise ParameterDomainError(
                "Jacobi family requires mu, nu > -1, got (%g, %g)" % (self.mu, self.nu))


@dataclass(frozen=True)
class PollaczekFamily:
    """Pollaczek polynomials P_n^mu(x; a, b).

    The trigonometric variant lives on x = cos(theta) in [-1, 1]; the
    hyperbolic variant is obtained by theta -> i*theta and lives on
    x = cosh(theta) >= 1.  The recurrence is well defined for any real
    (a, b) with mu > 0; the classical positivity condition a >= |b| is
    required only where the trigonometric orthogonality weight is used,
    and is enforced there rather than at construction.
    """

    mu: float
    a: float
    b: float
    variant: str = "trigonometric"  # or "hyperbolic"

    def __post_init__(self):
        if not self.mu > 0.0:
            raise ParameterDomainError("Pollaczek family requires mu > 0, got mu=%g" % self.mu)
        if self.variant not in ("trigonometric", "hyperbolic"):
            raise ParameterDomainError("unknown Pollaczek variant %r" % self.variant)

    @property
    def orthogonality_valid(self):
        """True when the trigonometric weight is a positive measure (a >= |b|)."""
        return self.a >= abs(self.b)


@dataclass(frozen=True)
class DualHahnFamily:
    """Continuous dual Hahn polynomials S_n^mu(x^2; a, b).

    Parameters are positive reals, or (a, b) may be a complex-conjugate pair
    with positive real parts.  Only the all-real-positive branch is exercised
    by the potential models; the complex pair is accepted at construction and
    evaluated through the real invariants a+b and a*b.
    """

    mu: float
    a: complex
    b: complex

    def __post_init__(self):
        if not self.mu > 0.0:
            raise ParameterDomainError("dual Hahn family requires mu > 0, got mu=%g" % self.mu)
        a, b = complex(self.a), complex(self.b)
        real_ok = a.imag == 0.0 and b.imag == 0.0 and a.real > 0.0 and b.real > 0.0
        pair_ok = (a.imag != 0.0 and cmath.isclose(a, b.conjugate(), rel_tol=1e-12)
                   and a.real > 0.0)
        if not (real_ok or pair_ok):
            raise ParameterDomainError(
                "dual Hahn parameters must be positive, or a complex-conjugate "
                "pair with positive real parts")

    @property
    def _sum_prod(self):
        a, b = complex(self.a), complex(self.b)
        return (a + b).real, (a * b).real


# ---------------------------------------------------------------------------
# Complex log-gamma (Lanczos) and |Gamma(mu + i y)|^2
# ---------------------------------------------------------------------------

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
_HALF_LOG_2PI = 0.5 * math.log(2.0 * math.pi)


def _lgamma_complex(z: complex) -> complex:
    """Principal log Gamma(z) by the Lanczos approximation.

    Arguments with small real part are shifted up two steps before the core
    series is applied, which keeps the relative error near 1e-13 down to
    Re z -> 0+.  Poles (z a non-positive integer) raise.
    """
    if z.imag == 0.0 and z.real <= 0.0 and z.real == int(z.real):
        raise SingularParameterError("log-gamma pole at z=%r" % (z,))
    if z.real < 0.5:
        # reflection: Gamma(z) Gamma(1-z) = pi / sin(pi z)
        return (math.log(math.pi) - cmath.log(cmath.sin(math.pi * z))
                - _lgamma_complex(1.0 - z))
    shift = 0
    while z.real < 2.5:
        z = z + 1.0
        shift += 1
    zm = z - 1.0
    acc = _LANCZOS_C[0]
    for i in range(1, len(_LANCZOS_C)):
        acc += _LANCZOS_C[i] / (zm + i)
    t = zm + _LANCZOS_G + 0.5
    out = _HALF_LOG_2PI + (zm + 0.5) * cmath.log(t) - t + cmath.log(acc)
    for k in range(shift):
        out -= cmath.log(z - 1.0 - k)
    return out


def log_gamma_abs_squared(mu, y):
    """log |Gamma(mu + i y)|^2 for mu > 0 and real y (scalar or array)."""
    if not mu > 0.0:
        raise ParameterDomainError("gamma_abs_squared requires mu > 0, got %g" % mu)
    y_arr = np.asarray(y, dtype=float)
    flat = np.atleast_1d(y_arr).ravel()
    out = np.empty(flat.shape)
    for i, yi in enumerate(flat):
        out[i] = 2.0 * _lgamma_complex(complex(mu, yi)).real
    out = out.reshape(np.atleast_1d(y_arr).shape)
    return float(out[0]) if y_arr.ndim == 0 else out.reshape(y_arr.shape)


def gamma_abs_squared(mu, y):
    """|Gamma(mu + i y)|^2, even in y.  mu must be positive."""
    return np.exp(log_gamma_abs_squared(mu, y))


# ---------------------------------------------------------------------------
# Laguerre
# ---------------------------------------------------------------------------

def laguerre_sequence(family: LaguerreFamily, nmax: int, x):
    """L_0^nu .. L_nmax^nu at x; returns shape (nmax+1,) + shape(x)."""
    if nmax < 0:
        raise ParameterDomainError("nmax must be >= 0")
    nu = family.nu
    x = np.asarray(x, dtype=float)
    out = np.empty((nmax + 1,) + x.shape)
    out[0] = 1.0
    if nmax >= 1:
        out[1] = nu + 1.0 - x
    for n in range(1, nmax):
        out[n + 1] = ((2 * n + nu + 1.0 - x) * out[n] - (n + nu) * out[n - 1]) / (n + 1.0)
    return out


def laguerre_eval(family: LaguerreFamily, n: int, x):
    """L_n^nu(x) by upward recurrence."""
    seq = laguerre_sequence(family, n, x)
    return seq[n] if seq[n].ndim else float(seq[n])


# ---------------------------------------------------------------------------
# Jacobi
# ---------------------------------------------------------------------------

def jacobi_sequence(family: JacobiFamily, nmax: int, x):
    """P_0^(mu,nu) .. P_nmax^(mu,nu) at x."""
    if nmax < 0:
        raise ParameterDomainError("nmax must be >= 0")
    mu, nu = family.mu, family.nu
    s = mu + nu
    x = np.asarray(x, dtype=float)
    out = np.empty((nmax + 1,) + x.shape)
    out[0] = 1.0
    if nmax >= 1:
        out[1] = 0.5 * (s + 2.0) * x + 0.5 * (mu - nu)
    for n in range(1, nmax):
        c0 = (2 * n * (n + s + 1.0) + s * (nu + 1.0)) / ((2 * n + s) * (2 * n + s + 2.0))
        cm = (n + mu) * (n + nu) / ((2 * n + s) * (2 * n + s + 1.0))
        cp = (n + 1.0) * (n + s + 1.0) / ((2 * n + s + 1.0) * (2 * n + s + 2.0))
        out[n + 1] = ((0.5 * (1.0 + x) - c0) * out[n] - cm * out[n - 1]) / cp
    return out


def jacobi_eval(family: JacobiFamily, n: int, x):
    """P_n^(mu,nu)(x) by upward recurrence."""
    seq = jacobi_sequence(family, n, x)
    return seq[n] if seq[n].ndim else float(seq[n])


def jacobi_derivative(family: JacobiFamily, n: int, x):
    """d/dx P_n^(mu,nu)(x) from the first-derivative structure relation."""
    x = np.asarray(x, dtype=float)
    if np.any(np.abs(x) >= 1.0):
        raise DomainError("Jacobi derivative identity needs |x| < 1")
    if n == 0:
        z = np.zeros_like(x)
        return z if z.ndim else 0.0
    mu, nu = family.mu, family.nu
    seq = jacobi_sequence(family, n, x)
    d1 = (-n * (x + (nu - mu) / (2 * n + mu + nu)) * seq[n]
          + 2.0 * (n + mu) * (n + nu) / (2 * n + mu + nu) * seq[n - 1])
    val = d1 / (1.0 - x * x)
    return val if val.ndim else float(val)


# ---------------------------------------------------------------------------
# Pollaczek (trigonometric and hyperbolic)
# ---------------------------------------------------------------------------

def _pollaczek_domain_check(family: PollaczekFamily, x):
    x = np.asarray(x, dtype=float)
    if family.variant == "trigonometric":
        if np.any((x < -1.0) | (x > 1.0)):
            raise DomainError("trigonometric Pollaczek argument must lie in [-1, 1]")
    else:
        if np.any(x < 1.0):
            raise DomainError("hyperbolic Pollaczek argument must satisfy x >= 1")
    return x


def pollaczek_sequence(family: PollaczekFamily, nmax: int, x):
    """P_0 .. P_nmax at x, same recurrence for both variants."""
    if nmax < 0:
        raise ParameterDomainError("nmax must be >= 0")
    x = _pollaczek_domain_check(family, x)
    mu, a, b = family.mu, family.a, family.b
    out = np.empty((nmax + 1,) + x.shape)
    out[0] = 1.0
    if nmax >= 1:
        out[1] = 2.0 * ((mu + a) * x + b)
    for n in range(1, nmax):
        out[n + 1] = (2.0 * ((n + mu + a) * x + b) * out[n]
                      - (n - 1.0 + 2.0 * mu) * out[n - 1]) / (n + 1.0)
    return out


def pollaczek_eval(family: PollaczekFamily, n: int, x):
    """P_n^mu(x; a, b) (or its hyperbolic analogue) by upward recurrence."""
    seq = pollaczek_sequence(family, n, x)
    return seq[n] if seq[n].ndim else float(seq[n])


def _kahan_terms(first, factors):
    """Sum of the terminating series t_0=first, t_k = t_{k-1}*factors[k-1],
    with compensated accumulation.  Works for real or complex values."""
    s = first
    c = 0.0 * first
    t = first
    for f in factors:
        t = t * f
        yv = t - c
        tmp = s + yv
        c = (tmp - s) - yv
        s = tmp
    return s


def _rising_ratio(c: float, n: int) -> float:
    """Gamma(n + c) / (n! Gamma(c)) as an incremental product."""
    r = 1.0
    for j in range(n):
        r *= (c + j) / (1.0 + j)
    return r


def pollaczek_closed_form(family: PollaczekFamily, n: int, x: float) -> float:
    """Terminating-hypergeometric cross-check value for P_n (scalar x only).

    Both variants are n+1-term sums with compensated accumulation, chosen per
    variant for conditioning.  Trigonometric: the conjugate-factor expansion
    P_n = sum_k (mu-iy)_k (mu+iy)_{n-k} e^{i(2k-n)theta} / (k! (n-k)!), the
    coefficient form of e^{in theta} 2F1(-n, mu+iy; 2mu; 1-e^{-2i theta}) with
    y = (b + a x)/sin(theta); its imaginary part cancels pairwise.
    Hyperbolic: the Pfaff-transformed real sum with argument 1 - e^{-2 theta},
    which avoids the exponentially growing alternating terms of the direct
    argument 1 - e^{2 theta}.
    """
    x = float(x)
    _pollaczek_domain_check(family, x)
    mu, a, b = family.mu, family.a, family.b
    if n == 0:
        return 1.0
    if family.variant == "trigonometric":
        if abs(x) == 1.0:
            raise SingularParameterError(
                "closed form undefined at x=+-1 (sin(theta)=0, y diverges)")
        theta = math.acos(x)
        y = (b + a * x) / math.sin(theta)
        poch = [complex(1.0)]
        for k in range(n):
            poch.append(poch[-1] * complex(mu + k, -y))
        lfac = [math.lgamma(k + 1.0) for k in range(n + 1)]
        s = complex(0.0)
        comp = complex(0.0)
        for k in range(n + 1):
            t = (poch[k] * poch[n - k].conjugate()
                 * cmath.exp(1j * (2 * k - n) * theta - lfac[k] - lfac[n - k]))
            yv = t - comp
            tmp = s + yv
            comp = (tmp - s) - yv
            s = tmp
        return s.real
    # hyperbolic: the direct sum (argument 1 - e^{2 theta}, coefficient mu+z)
    # and its Pfaff transform (argument 1 - e^{-2 theta}, coefficient mu-z)
    # are evaluated together and the better-conditioned one wins; each is
    # sign-definite on one half of the z axis, so the pair covers everything.
    if x == 1.0:
        raise SingularParameterError(
            "closed form undefined at x=1 (sinh(theta)=0, z diverges)")
    pref = _rising_ratio(2.0 * mu, n)
    theta = math.acosh(x)
    z = (b + a * x) / math.sinh(theta)
    best_val, best_cond = 0.0, math.inf
    for coef, w, escale in (
            (mu + z, 1.0 - math.exp(2.0 * theta), math.exp(-n * theta)),
            (mu - z, 1.0 - math.exp(-2.0 * theta), math.exp(n * theta))):
        term = 1.0
        total = 0.0
        comp = 0.0
        abs_total = 0.0
        for k in range(n + 1):
            if k > 0:
                term *= (-n + k - 1.0) * (coef + k - 1.0) * w / ((2.0 * mu + k - 1.0) * k)
            yv = term - comp
            tmp = total + yv
            comp = (tmp - total) - yv
            total = tmp
            abs_total += abs(term)
        cond = abs_total / max(abs(total), 1e-300)
        if cond < best_cond:
            best_val, best_cond = pref * escale * total, cond
    return best_val


# ---------------------------------------------------------------------------
# Continuous dual Hahn
# ---------------------------------------------------------------------------

def dual_hahn_sequence(family: DualHahnFamily, nmax: int, x_squared):
    """S_0 .. S_nmax at x^2; S_0 = 1.  The quadratic-in-n recurrence is run
    through the real invariants a+b and a*b so conjugate-pair parameters stay
    in real arithmetic."""
    if nmax < 0:
        raise ParameterDomainError("nmax must be >= 0")
    mu = family.mu
    sab, pab = family._sum_prod
    x2 = np.asarray(x_squared, dtype=float)
    out = np.empty((nmax + 1,) + x2.shape)
    out[0] = 1.0
    for n in range(0, nmax):
        denom = (n + mu) ** 2 + (n + mu) * sab + pab  # (n+mu+a)(n+mu+b)
        if denom == 0.0:
            raise RecursionBreakdownError(n, "(n+mu+a)(n+mu+b)=0 at n=%d" % n)
        diag = denom + n * (n + sab - 1.0) - mu * mu
        prev = out[n - 1] if n >= 1 else 0.0
        out[n + 1] = ((diag - x2) * out[n] - n * (n + sab - 1.0) * prev) / denom
    return out


def dual_hahn_eval(family: DualHahnFamily, n: int, x_squared):
    """S_n^mu(x^2; a, b) by upward recurrence, normalized to S_0 = 1."""
    seq = dual_hahn_sequence(family, n, x_squared)
    return seq[n] if seq[n].ndim else float(seq[n])


def dual_hahn_closed_form(family: DualHahnFamily, n: int, x_squared: float) -> float:
    """Terminating 3F2(-n, mu+ix, mu-ix; mu+a, mu+b; 1) cross-check value."""
    mu = family.mu
    sab, pab = family._sum_prod
    x2 = float(x_squared)
    if n == 0:
        return 1.0
    head = 1.0
    factors = []
    for k in range(n):
        num = (-n + k) * ((mu + k) ** 2 + x2)
        den = ((mu + k) ** 2 + (mu + k) * sab + pab) * (k + 1.0)
        if den == 0.0:
            raise SingularParameterError("3F2 denominator parameter hit a pole")
        factors.append(num / den)
    return _kahan_terms(head, factors)


# ---------------------------------------------------------------------------
# Weights
# ---------------------------------------------------------------------------

def _log_sinh(t):
    """log(sinh t) for t > 0, overflow safe."""
    return t + np.log1p(-np.exp(-2.0 * t)) - math.log(2.0)


def weight_eval(family, x):
    """Orthogonality weight density of the family at x (scalar or array).

    Laguerre: x^nu e^{-x} on (0, inf); Jacobi: (1-x)^mu (1+x)^nu on (-1, 1);
    trigonometric Pollaczek: (1/pi)(2 sin theta)^{2mu-1} e^{(2theta-pi) y}
    |Gamma(mu+iy)|^2 with y = (b + a x)/sin theta; continuous dual Hahn:
    (1/2pi) |Gamma(mu+ix)Gamma(a+ix)Gamma(b+ix) / (Gamma(mu+a)Gamma(mu+b)
    Gamma(2ix))|^2 on (0, inf).

    The hyperbolic Pollaczek density carries the complex factor
    (2i sinh theta)^{2mu-1} e^{-i pi z}; its phase is +-1 only where
    mu - 1/2 - z is an integer, and the value is returned just there
    (signed); elsewhere a ComplexWeightError is raised.  See the README
    for why this measure is not used in the orthogonality suite.
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
    if family.variant == "trigonometric":
        if not family.orthogonality_valid:
            raise ParameterDomainError(
                "trigonometric Pollaczek weight needs a >= |b| for a positive measure")
        if np.any(np.abs(x_arr) >= 1.0):
            raise SingularParameterError("Pollaczek weight is singular at x = +-1")
        theta = np.arccos(x_arr)
        sin_t = np.sin(theta)
        y = (b + a * x_arr) / sin_t
        logw = ((2.0 * mu - 1.0) * (math.log(2.0) + np.log(sin_t))
                + (2.0 * theta - math.pi) * y
                + log_gamma_abs_squared(mu, y) - math.log(math.pi))
        val = np.exp(logw)
        return val if val.ndim else float(val)
    # hyperbolic variant: phase e^{i pi (mu - 1/2 - z)} must be +-1
    if np.any(x_arr <= 1.0):
        raise SingularParameterError("hyperbolic Pollaczek weight needs x > 1")
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
    gam = np.empty(mz.shape)
    for i, v in enumerate(mz.ravel()):
        gam.ravel()[i] = 2.0 * _real_lgamma_abs(float(v))
    val = np.round(np.atleast_1d(sign)) * np.exp(np.atleast_1d(logw) + gam)
    return float(val[0]) if x_arr.ndim == 0 else val.reshape(x_arr.shape)


def _real_lgamma_abs(v: float) -> float:
    """log |Gamma(v)| for real v, poles raise."""
    if v <= 0.0 and v == int(v):
        raise SingularParameterError("Gamma pole at %g" % v)
    return math.lgamma(v)


def _dual_hahn_weight(family: DualHahnFamily, x):
    mu = family.mu
    a, b = complex(family.a), complex(family.b)
    if a.imag != 0.0:
        raise ParameterDomainError(
            "dual Hahn weight implemented for the all-real-positive branch only")
    a, b = a.real, b.real
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
