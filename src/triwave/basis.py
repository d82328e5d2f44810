"""Square-integrable basis functions, coordinate maps, and integration measures.

The Laguerre basis  phi_n(y) = A_n y^alpha e^{-y/2} L_n^nu(y)  lives on the
half line; the Jacobi basis  phi_n(y) = A_n (1+y)^alpha (1-y)^beta
P_n^(mu,nu)(y)  lives on (-1, 1).  Three coordinate maps carry the real line
onto those intervals: y = x^2 (folding), y = mu_scale*e^{-x}, and y = tanh x.
Lengths and energies are dimensionless: x is measured in units of 1/lam and
energies in units of E0 = hbar^2 lam^2 / (2 m), so lam = 1 throughout.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from . import oracle, orthopoly
from .exceptions import (
    DomainError,
    EvaluationOverflowError,
    ParameterDomainError,
    QuadratureOrderError,
    require_degree,
    require_finite,
)

__all__ = [
    "BasisSpec",
    "CoordinateMap",
    "oscillator_map",
    "morse_map",
    "rosen_morse_map",
    "oscillator_pollaczek_basis",
    "oscillator_dual_hahn_basis",
    "morse_basis",
    "rosen_morse_basis",
    "normalization",
    "basis_eval",
    "series_eval",
    "overlap_matrix",
]


# ---------------------------------------------------------------------------
# Specs and maps
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class BasisSpec:
    """A weighted orthogonal-polynomial basis family.

    kind "laguerre": phi_n(y) = A_n y^alpha e^{-y/2} L_n^nu(y) on (0, inf).
    kind "jacobi":   phi_n(y) = A_n (1+y)^alpha (1-y)^beta P_n^(mu,nu)(y)
    on (-1, 1).  y is the image of the dimensionless x under the paired
    CoordinateMap (lam = 1).  Exponents are finite; alpha and beta are >= 0.
    """

    kind: str
    alpha: float
    nu: float
    beta: float = None
    mu: float = None

    def __post_init__(self):
        require_finite(self)
        if self.kind == "laguerre":
            if not self.nu > -1.0:
                raise ParameterDomainError("laguerre basis requires nu > -1")
            if self.alpha < 0.0:
                raise ParameterDomainError("laguerre basis requires alpha >= 0")
        elif self.kind == "jacobi":
            if self.mu is None or self.beta is None:
                raise ParameterDomainError("jacobi basis needs mu and beta")
            if not (self.mu > -1.0 and self.nu > -1.0):
                raise ParameterDomainError("jacobi basis requires mu, nu > -1")
            if self.alpha < 0.0 or self.beta < 0.0:
                raise ParameterDomainError("jacobi basis requires alpha, beta >= 0")
        else:
            raise ParameterDomainError("unknown basis kind %r" % self.kind)

    def family(self):
        if self.kind == "laguerre":
            return orthopoly.LaguerreFamily(self.nu)
        return orthopoly.JacobiFamily(self.mu, self.nu)

    def perturbed(self, dalpha):
        """Copy with alpha shifted; breaks the tridiagonal exponent constraint
        on purpose (negative-control hook)."""
        return replace(self, alpha=self.alpha + dalpha)


def oscillator_pollaczek_basis(nu):
    """Laguerre basis with 2*alpha = nu + 1/2 (oscillator map, Pollaczek
    coefficient route); alpha >= 0 needs nu >= -1/2."""
    return BasisSpec(kind="laguerre", alpha=0.5 * (nu + 0.5), nu=nu)


def oscillator_dual_hahn_basis(nu):
    """Laguerre basis with 2*alpha = nu + 3/2 (oscillator map, dual-Hahn
    coefficient route)."""
    return BasisSpec(kind="laguerre", alpha=0.5 * (nu + 1.5), nu=nu)


def morse_basis(nu):
    """Laguerre basis with nu = 2*alpha (Morse map)."""
    return BasisSpec(kind="laguerre", alpha=0.5 * nu, nu=nu)


def rosen_morse_basis(mu, nu):
    """Jacobi basis with (alpha, beta) = ((nu+1)/2, mu/2) (Rosen-Morse map)."""
    return BasisSpec(kind="jacobi", alpha=0.5 * (nu + 1.0), beta=0.5 * mu,
                     nu=nu, mu=mu)


@dataclass(frozen=True)
class CoordinateMap:
    """Coordinate transformation y(x) from the real line onto the basis
    interval, x in units of 1/lam (lam = 1): oscillator y = x^2, morse
    y = mu_scale e^{-x}, rosen_morse y = tanh x."""

    kind: str
    mu_scale: float = None

    def __post_init__(self):
        if self.kind not in ("oscillator", "morse", "rosen_morse"):
            raise ParameterDomainError("unknown coordinate map %r" % self.kind)
        if self.kind == "morse" and not (self.mu_scale and self.mu_scale > 0.0):
            raise ParameterDomainError("morse map needs mu_scale > 0")

    def to_y(self, x):
        x = np.asarray(x, dtype=float)
        if self.kind == "oscillator":
            out = x ** 2
        elif self.kind == "morse":
            out = self.mu_scale * np.exp(-x)
        else:
            out = np.tanh(x)
        return out if out.ndim else float(out)


def oscillator_map():
    return CoordinateMap(kind="oscillator")


def morse_map(mu_scale):
    return CoordinateMap(kind="morse", mu_scale=mu_scale)


def rosen_morse_map():
    return CoordinateMap(kind="rosen_morse")


# ---------------------------------------------------------------------------
# Evaluation
# ---------------------------------------------------------------------------

def _log_norm(spec: BasisSpec, n: int) -> float:
    if spec.kind == "laguerre":
        return 0.5 * (math.lgamma(n + 1.0) - math.lgamma(n + spec.nu + 1.0))
    s = spec.mu + spec.nu
    # (2n+s+1) Gamma(n+s+1) stays finite down to s -> -1; fold the prefactor
    # into the gamma at n = 0 where Gamma(s+1) alone would blow up.
    if n == 0:
        log_head = math.lgamma(s + 2.0)
    else:
        log_head = math.log(2 * n + s + 1.0) + math.lgamma(n + s + 1.0)
    return 0.5 * (log_head + math.lgamma(n + 1.0)
                  - (s + 1.0) * math.log(2.0)
                  - math.lgamma(n + spec.nu + 1.0) - math.lgamma(n + spec.mu + 1.0))


def normalization(spec: BasisSpec, n):
    """The constant A_n of the basis, computed through log-gamma sums so
    large n survives.  An index array n gives the array of A_n."""
    if np.ndim(n):
        ks = np.asarray(n).tolist()
        require_degree("n", min(ks, default=0))
        return np.array([math.exp(_log_norm(spec, k)) for k in ks])
    return math.exp(_log_norm(spec, require_degree("n", n)))


def _envelope(spec: BasisSpec, y):
    """Envelope factor of phi_n (independent of n).  The exponents are
    non-negative, so it is finite at the interval ends (a zero exponent
    gives exactly 1 there, 0^0 = 1)."""
    y = np.asarray(y, dtype=float)
    if spec.kind == "laguerre":
        if np.any(y < 0.0):
            raise DomainError("laguerre basis support is [0, inf)")
        return np.power(y, spec.alpha) * np.exp(-0.5 * y)
    if np.any(np.abs(y) > 1.0):
        raise DomainError("jacobi basis support is [-1, 1]")
    return np.power(1.0 + y, spec.alpha) * np.power(1.0 - y, spec.beta)


def basis_eval(spec: BasisSpec, n: int, y):
    """phi_n(y), normalized per the family's A_n."""
    y_arr = np.asarray(y, dtype=float)
    env = _envelope(spec, y_arr)
    with np.errstate(over="ignore", invalid="ignore"):
        val = normalization(spec, n) * env * orthopoly.evaluate(spec.family(), n, y_arr)
    bad = ~np.isfinite(val)
    if np.any(bad):
        raise EvaluationOverflowError(
            "phi_%d is not finite at y = %r (the polynomial or the envelope "
            "overflows); reduce n or move y inward" % (n, float(y_arr[bad].flat[0])))
    return val if val.ndim else float(val)


def scaled_polynomials(spec: BasisSpec, nmax: int, y):
    """A_n * (polynomial part of phi_n) for n = 0..nmax, envelope stripped.
    Shared by the quadrature-based overlap and wave-operator integrals."""
    seq = orthopoly.sequence(spec.family(), nmax, y).reshape(nmax + 1, -1)
    seq *= normalization(spec, np.arange(nmax + 1))[:, None]
    return seq


def series_eval(spec: BasisSpec, f, y, a_n):
    """sum_n f_n phi_n(y) over n < len(f), summed while the recurrence steps:
    memory is O(size of y), never the len(f) x size(y) table.  a_n holds the
    basis constants A_0..A_{len(f)-1} (normalization(spec, arange(len(f))))."""
    y_arr = np.asarray(y, dtype=float)
    env = _envelope(spec, y_arr)
    coeffs = (np.asarray(f, dtype=float) * a_n).tolist()
    total = np.zeros(y_arr.shape)
    term = np.empty(y_arr.shape)
    for c, poly in zip(coeffs, orthopoly._rows(spec.family(), len(coeffs) - 1, y_arr,
                                               np.empty((3,) + y_arr.shape))):
        np.multiply(poly, c, out=term)
        total += term
    total *= env
    return total if total.ndim else float(total)


# ---------------------------------------------------------------------------
# Overlaps by Gauss quadrature
# ---------------------------------------------------------------------------

_EXTRA_SHIFTS = {
    None: 0.0,
    "y": 1.0,
    "1/y": -1.0,
    "1-y": 1.0,
    "1+y": 1.0,
}


def _pair_weight(spec: BasisSpec, cmap: CoordinateMap, extra=None):
    """Weight id under which phi_m phi_n (x extra) d(mu) is weight * polynomial.

    d(mu)/dy carries integrals over x to integrals over y: 1/sqrt(y) on the
    oscillator map (for integrands even in x, the only ones the folded map
    covers), 1/y on the morse map and 1/(1-y^2) on the rosen_morse map.
    DomainError where the weight's integral diverges."""
    if extra not in _EXTRA_SHIFTS:
        raise ParameterDomainError("extra factor must be one of %s" % list(_EXTRA_SHIFTS))
    if spec.kind == "laguerre":
        if cmap.kind == "oscillator":
            expo = 2.0 * spec.alpha - 0.5
        elif cmap.kind == "morse":
            expo = 2.0 * spec.alpha - 1.0
        else:
            raise ParameterDomainError("laguerre basis pairs with oscillator or morse maps")
        if extra in ("1-y", "1+y"):
            raise ParameterDomainError("extra factor %r applies to the jacobi basis" % extra)
        expo += _EXTRA_SHIFTS[extra]
        if not expo > -1.0:
            raise DomainError(
                "overlap weight exponent %.3g <= -1; the integral diverges" % expo)
        return ("laguerre", expo)
    if cmap.kind != "rosen_morse":
        raise ParameterDomainError("jacobi basis pairs with the rosen_morse map")
    if extra in ("y", "1/y"):
        raise ParameterDomainError("extra factor %r applies to the laguerre basis" % extra)
    a_w = 2.0 * spec.beta - 1.0 + (1.0 if extra == "1-y" else 0.0)
    b_w = 2.0 * spec.alpha - 1.0 + (1.0 if extra == "1+y" else 0.0)
    if not (a_w > -1.0 and b_w > -1.0):
        raise DomainError("overlap weight exponents (%.3g, %.3g) leave the integrable "
                          "range" % (a_w, b_w))
    return ("jacobi", a_w, b_w)


def overlap_matrix(spec: BasisSpec, cmap: CoordinateMap, nmax: int, extra=None,
                   n_nodes=None):
    """Gram matrix <phi_m | extra | phi_n> for m, n <= nmax under the map's
    measure, by a Gauss rule of the matching weight (exact up to roundoff);
    extra is one of None, "y", "1/y" (laguerre) or "1-y", "1+y" (jacobi).

    With the exponent constraint of the corresponding tridiagonal case, the
    appropriate choice of extra gives the identity: no extra factor for
    2*alpha = nu + 1/2 on the oscillator map, "1/y" for 2*alpha = nu + 3/2,
    "y" for nu = 2*alpha on the morse map, "1-y" on the rosen_morse map.
    """
    nmax = require_degree("nmax", nmax)
    min_nodes = nmax + 2
    if n_nodes is None:
        n_nodes = min_nodes
    if 2 * n_nodes - 1 < 2 * nmax + 1:
        raise QuadratureOrderError(
            "rule with %d nodes cannot integrate degree %d exactly"
            % (n_nodes, 2 * nmax + 1))
    rule = oracle.gauss_rule(_pair_weight(spec, cmap, extra), n_nodes)
    vals = scaled_polynomials(spec, nmax, rule.nodes)
    weighted = vals * rule.weights[None, :]
    return weighted @ vals.T

