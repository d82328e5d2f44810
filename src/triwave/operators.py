"""Energy-dependent tridiagonal wave-operator machinery.

For each solvable family the wave operator H - E acting on the basis reduces
to a three-term recursion for polynomial-normalized coefficients d_n,

    A_n(eps) d_n + B_n(eps) d_{n-1} + C_n(eps) d_{n+1} = 0,

with d_0 = 1.  Builders return the coefficients as functions of (n, eps)
vectorized over an index array; a generic engine solves the recursion
(including the diagonal and terminating limits used by bound states);
symmetric_form gives the (diag, off) arrays of the symmetric view; and an
independent quadrature route integrates the block <phi_m | (H - eps) | phi_n>
directly to verify tridiagonality without using any of the closed forms.
The level rules of the discrete spectra live in models.spectrum.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from . import basis as basis_mod
from . import oracle
from .basis import BasisSpec, CoordinateMap
from .exceptions import (
    ParameterDomainError,
    RecursionBreakdownError,
    SingularParameterError,
    UnsupportedStructureError,
)

__all__ = [
    "RecursionCoefficients",
    "CoefficientSeries",
    "build_oscillator_pollaczek",
    "build_oscillator_dual_hahn",
    "build_morse",
    "build_rosen_morse",
    "symmetric_form",
    "solve_recursion",
    "numeric_jmatrix",
    "truncated_eigenvalues",
]


# ---------------------------------------------------------------------------
# Coefficient containers
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class RecursionCoefficients:
    """Coefficients of A_n d_n + B_n d_{n-1} + C_n d_{n+1} = 0 as functions
    A(n, eps), B(n, eps), C(n, eps), vectorized over an index array n.

    B(0) is pinned to zero in every builder: it multiplies d_{-1} = 0 and the
    wave-operator row 0 has no such entry.

    Functions of eps rather than matrix snapshots: eps can sit inside
    off-diagonals or inside basis parameters depending on the case, so a
    plain "matrix minus eps*I" view would misrepresent the structure.
    """

    A: Callable[[np.ndarray, float], np.ndarray]
    B: Callable[[np.ndarray, float], np.ndarray]
    C: Callable[[np.ndarray, float], np.ndarray]
    case: str
    spec: Optional[BasisSpec] = None
    epsilon_on_diagonal: bool = False
    # scaling t_n with f_n = t_n d_n that makes sum f_n phi_n solve the wave
    # equation, fixed per case by testing the d-solutions against the
    # quadrature wave-operator rows: "standard" t_n = A_n, "inverse"
    # t_n = 1/A_n, "alternating" t_n = (-1)^n A_n.
    f_transform: str = "standard"
    # the literal <phi_m|(H-eps)|phi_n> rows equal jmatrix_scale times the
    # symmetrized recursion rows (a constant per case, measured and pinned)
    jmatrix_scale: float = 1.0

    def f_scaling(self, N: int, a_n=None) -> np.ndarray:
        """t_0..t_{N-1} of the case's f_n = t_n d_n scaling, from the basis
        constants a_n = A_0..A_{N-1} (computed here when not given)."""
        if a_n is None:
            a_n = basis_mod.normalization(_basis_of(self), np.arange(N))
        if self.f_transform == "standard":
            return a_n
        if self.f_transform == "inverse":
            return 1.0 / a_n
        if self.f_transform == "alternating":
            return (-1.0) ** np.arange(N) * a_n
        raise UnsupportedStructureError("unknown f transform %r" % self.f_transform)


def _basis_of(rc: RecursionCoefficients) -> BasisSpec:
    if rc.spec is None:
        raise UnsupportedStructureError("no basis attached to this recursion")
    return rc.spec


@dataclass
class CoefficientSeries:
    """Recursion output: raw d-sequence, its f-image when a basis is known,
    and the size of the last retained term relative to the running maximum.
    a_n holds the basis constants A_0..A_{N-1} behind f (None with f), so
    the series sum need not compute them again."""

    d: np.ndarray
    f: Optional[np.ndarray]
    tail_estimate: float
    a_n: Optional[np.ndarray] = None


# ---------------------------------------------------------------------------
# Builders (one per developed case)
# ---------------------------------------------------------------------------

def build_oscillator_pollaczek(nu, a):
    """Oscillator map, basis exponent 2*alpha = nu + 1/2, potential
    U(y) = a*y + (nu^2 - 1/4)/y:

        [(a+1)(2n+nu+1) - eps] d_n - (a-1)[(n+nu) d_{n-1} + (n+1) d_{n+1}] = 0.

    At a = 1 every off-diagonal coefficient vanishes identically.
    """
    if not nu > -1.0:
        raise ParameterDomainError("requires nu > -1")
    nu, a = float(nu), float(a)
    return RecursionCoefficients(
        A=lambda n, eps: (a + 1.0) * (2 * n + nu + 1.0) - eps,
        B=lambda n, eps: np.where(n == 0, 0.0, -(a - 1.0) * (n + nu)),
        C=lambda n, eps: -(a - 1.0) * (n + 1.0),
        case="oscillator_pollaczek",
        spec=basis_mod.oscillator_pollaczek_basis(nu) if nu >= -0.5 else None,
        epsilon_on_diagonal=True,
    )


def build_oscillator_dual_hahn(nu, b):
    """Oscillator map, basis exponent 2*alpha = nu + 3/2, potential
    U(y) = y + b/y.  eps enters all three coefficient functions; a real
    dual-Hahn representation needs b <= -1/4."""
    if not nu > -1.0:
        raise ParameterDomainError("requires nu > -1")
    nu, b = float(nu), float(b)

    def a_fn(n, eps):
        return ((n + nu + 1.0) * (n + nu / 2.0 + 1.0 - eps / 4.0)
                + n * (n + nu / 2.0 - eps / 4.0)
                - ((nu + 1.0) / 2.0) ** 2 + b / 4.0 + 1.0 / 16.0)

    return RecursionCoefficients(
        A=a_fn,
        B=lambda n, eps: -n * (n + nu / 2.0 - eps / 4.0),
        C=lambda n, eps: -(n + nu + 1.0) * (n + nu / 2.0 + 1.0 - eps / 4.0),
        case="oscillator_dual_hahn",
        spec=basis_mod.oscillator_dual_hahn_basis(nu),
        f_transform="inverse",
        jmatrix_scale=4.0,
    )


def build_morse(a, b, nu):
    """Morse map, basis constraint nu = 2*alpha, potential U(y) = a*y + b*y^2:

        2[(b + 1/4)(n + (nu+1)/2) + a/2] d_n
            = (b - 1/4)[(n + nu) d_{n-1} + (n + 1) d_{n+1}].

    The basis is energy dependent: tridiagonality requires eps = -nu^2/4.
    b = 1/4 is the diagonal (bound-state) limit.
    """
    if not nu > -1.0:
        raise ParameterDomainError("requires nu > -1")
    a, b, nu = float(a), float(b), float(nu)
    return RecursionCoefficients(
        A=lambda n, eps: 2.0 * ((b + 0.25) * (n + (nu + 1.0) / 2.0) + a / 2.0),
        B=lambda n, eps: np.where(n == 0, 0.0, -(b - 0.25) * (n + nu)),
        C=lambda n, eps: -(b - 0.25) * (n + 1.0),
        case="morse",
        spec=basis_mod.morse_basis(nu) if nu >= 0.0 else None,
    )


def build_rosen_morse(A, B, mu, nu):
    """Rosen-Morse map, basis exponents (alpha, beta) = ((nu+1)/2, mu/2),
    potential U(y) = A(1-y) + B(1-y^2); eps = -mu^2 is forced.

    Guards every 2n+mu+nu (and shifted) denominator; a zero raises."""
    if not (mu > -1.0 and nu > -1.0):
        raise ParameterDomainError("requires mu, nu > -1")
    A, B, mu, nu = float(A), float(B), float(mu), float(nu)
    s = mu + nu

    def _guard(t, n):
        bad = np.atleast_1d(np.abs(t) < 1e-13)
        if bad.any():
            raise SingularParameterError(
                "rosen-morse coefficient denominator vanished at n=%d"
                % np.atleast_1d(n)[bad.argmax()])
        return t

    def bracket(t):
        # B - 1/4 + (1/4) t^2 with t = 2n+mu+nu (+2 for the upper coupling)
        return B - 0.25 + 0.25 * t * t

    def a_fn(n, eps):
        t = _guard(2 * n + s, n)
        t2 = _guard(2 * n + s + 2.0, n)
        diag = (0.5 * (nu + mu + 1.0) * (nu - mu + 1.0)
                + 2.0 * n * (n + mu) / t
                + ((mu * mu - nu * nu) / (t * t2) - 1.0) * bracket(t2))
        return diag - A

    def b_fn(n, eps):
        t = _guard(2 * n + s, n)
        t1 = _guard(2 * n + s + 1.0, n)
        return np.where(n == 0, 0.0, 2.0 * (n + mu) * (n + nu) / (t * t1) * bracket(t))

    def c_fn(n, eps):
        t1 = _guard(2 * n + s + 1.0, n)
        t2 = _guard(2 * n + s + 2.0, n)
        return 2.0 * (n + 1.0) * (n + s + 1.0) / (t1 * t2) * bracket(t2)

    spec = None
    if mu >= 0.0:
        spec = basis_mod.rosen_morse_basis(mu, nu)
    return RecursionCoefficients(
        A=a_fn, B=b_fn, C=c_fn,
        case="rosen_morse",
        spec=spec,
        f_transform="alternating",
        jmatrix_scale=-1.0,
    )


# ---------------------------------------------------------------------------
# Symmetric view
# ---------------------------------------------------------------------------

def symmetric_form(rc: RecursionCoefficients, epsilon: float, N: int):
    """(diag, off) of the symmetric f-representation over n < N.

    Row n reads (a_n - eps) f_n + b_{n-1} f_{n-1} + b_n f_{n+1} = 0 with
    a_n = diag[n] = A_n(eps) + eps and b_n = off[n] = C_n t_n/t_{n+1}
    coupling n and n+1 (n < N-1).  Both representations share their zero
    structure, so diagonalization conditions agree between them.
    """
    norms = basis_mod.normalization(_basis_of(rc), np.arange(N))
    ratio = norms[:-1] / norms[1:]
    if rc.f_transform == "inverse":
        ratio = 1.0 / ratio
    elif rc.f_transform == "alternating":
        ratio = -ratio
    ns = np.arange(N)
    return rc.A(ns, epsilon) + epsilon, rc.C(ns[:-1], epsilon) * ratio


# ---------------------------------------------------------------------------
# Recursion engine
# ---------------------------------------------------------------------------

def solve_recursion(rc: RecursionCoefficients, epsilon: float, N: int,
                    zero_tol=1e-9) -> CoefficientSeries:
    """Run the three-term recursion with seed d_0 = 1, d_{-1} = 0 up to
    truncation order N.

    Diagonal-limit recursions (all couplings identically zero) return the
    delta sequence at the level n0 where the diagonal coefficient vanishes.
    A vanishing C_n with vanishing running combination terminates the series
    (zero continuation); a vanishing C_n with a nonzero combination is a
    breakdown and raises, naming n.
    """
    if N < 1:
        raise ParameterDomainError("truncation order must be >= 1")
    eps = float(epsilon)
    ns = np.arange(N)
    A, B, C = rc.A(ns, eps), rc.B(ns, eps), rc.C(ns, eps)
    scales = np.maximum(np.max(np.abs([A, B, C]), axis=0), 1.0)
    d = np.zeros(N)
    if np.all((np.abs(B) <= zero_tol * 1e-3 * scales)
              & (np.abs(C) <= zero_tol * 1e-3 * scales)):
        avals = np.abs(A) / scales
        n0 = int(np.argmin(avals))
        if avals[n0] > zero_tol:
            raise RecursionBreakdownError(
                0, "diagonal-limit recursion admits no solution at eps=%g" % eps)
        d[n0] = 1.0
    else:
        d[0] = 1.0
        running = 1.0  # max(1, max|d[:n+1]|)
        # A[n] and d[n] stay numpy scalars, so an overflow still warns
        for n in range(N - 1):
            running = max(running, abs(d[n]))
            num = A[n] * d[n] + (B[n] * d[n - 1] if n >= 1 else 0.0)
            if abs(C[n]) <= zero_tol * scales[n]:
                if abs(num) <= zero_tol * (scales[n] * running):
                    d[n + 1] = 0.0  # the series terminates here
                else:
                    raise RecursionBreakdownError(n)
            else:
                d[n + 1] = -num / C[n]
    f = a_n = None
    if rc.spec is not None:
        a_n = basis_mod.normalization(rc.spec, np.arange(N))
        f = d * rc.f_scaling(N, a_n)
    ref = f if f is not None else d
    running_max = float(np.max(np.abs(ref))) or 1.0
    tail = abs(float(ref[-1])) / running_max
    return CoefficientSeries(d=d, f=f, tail_estimate=tail, a_n=a_n)


# ---------------------------------------------------------------------------
# Rosen-Morse level conditions
# ---------------------------------------------------------------------------

def rosen_morse_level(A, B, n, mu_floor=1e-12):
    """Solve the two diagonal conditions for (mu, nu) at level n.

    The coupling condition fixes mu + nu = 2*gamma - 2(n+1) with
    gamma = sqrt(1/4 - B); the diagonal condition then is one equation in mu,
    solved by safeguarded bisection on (mu_floor, mu_upper) with mu_upper set
    by eps > U_min.  Roots are accepted only with mu > 0 and nu > -1.
    Returns (mu, nu) or None.
    """
    if B > 0.25:
        raise ParameterDomainError("bound levels need B <= 1/4")
    gamma = math.sqrt(0.25 - B)
    s = 2.0 * gamma - 2.0 * (n + 1.0)  # mu + nu

    def residual(mu):
        nu = s - mu
        t = 2 * n + s
        if abs(t) < 1e-12:
            return None
        return (0.5 * (nu + mu + 1.0) * (nu - mu + 1.0)
                + 2.0 * n * (n + mu) / t - A)

    u_min = rosen_morse_potential_min(A, B)
    if u_min >= 0.0:
        return None
    mu_upper = math.sqrt(-u_min)
    lo, hi = mu_floor, mu_upper
    r_lo, r_hi = residual(lo), residual(hi)
    if r_lo is None or r_hi is None:
        raise SingularParameterError("level condition singular (2n+mu+nu = 0)")
    if r_lo == 0.0:
        root = lo
    elif r_hi == 0.0:
        root = hi
    elif r_lo * r_hi > 0.0:
        return None
    else:
        for _ in range(200):
            mid = 0.5 * (lo + hi)
            r_mid = residual(mid)
            if r_mid == 0.0 or hi - lo < 1e-15 * max(1.0, abs(mid)):
                break
            if r_lo * r_mid < 0.0:
                hi, r_hi = mid, r_mid
            else:
                lo, r_lo = mid, r_mid
        root = 0.5 * (lo + hi)
    mu = root
    nu = s - mu
    if mu <= 0.0 or nu <= -1.0:
        return None
    return mu, nu


def rosen_morse_potential_min(A, B):
    """Minimum of U(y) = A(1-y) + B(1-y^2) over y in [-1, 1]."""
    cands = [0.0, 2.0 * A]  # ends y=+1, y=-1
    if B != 0.0:
        y_star = -A / (2.0 * B)
        if -1.0 < y_star < 1.0:
            cands.append(A * (1.0 - y_star) + B * (1.0 - y_star * y_star))
    return min(cands)


# ---------------------------------------------------------------------------
# Quadrature J-matrix (independent of the closed forms)
# ---------------------------------------------------------------------------

def _u_oscillator(model):
    """(linear, inverse) coefficients of U(y) = u1*y + um1/y on the half line."""
    from . import models  # late import: models depends on this module
    if isinstance(model, models.HarmonicOscillator):
        return model.a, 0.0
    if isinstance(model, models.OscillatorInverseSquare):
        return model.a, model.b
    if isinstance(model, models.SupercriticalInverseSquare):
        return 1.0, model.b
    raise UnsupportedStructureError("model does not map to the oscillator form")


def numeric_jmatrix(model, spec: BasisSpec, cmap: CoordinateMap, epsilon: float,
                    size: int, n_nodes=None):
    """The size x size block <phi_m | (H - eps) | phi_n>, m, n < size, by
    direct Gauss quadrature in y.

    One table of basis polynomials at the rule's nodes serves the whole
    block.  Basis derivatives come from the polynomial differential
    equations, never from finite differences, and the envelope factors are
    cancelled against the quadrature weight analytically so no exp(+y)
    ratios are formed.  For the constrained exponent choices the integrand
    is weight * polynomial and the result is exact to roundoff; for
    perturbed exponents (negative controls) the rule still converges well
    enough to expose the broken structure.  n_nodes defaults to
    max(64, size + 2); fewer than size + 2 nodes cannot integrate the top
    entry exactly.
    """
    from . import models  # late import
    if n_nodes is None:
        n_nodes = max(64, size + 2)
    if n_nodes < size + 2:
        raise ParameterDomainError("n_nodes too small for these indices")
    eps = float(epsilon)
    if cmap.kind == "oscillator":
        u1, um1 = _u_oscillator(model)
        return _jmatrix_laguerre_oscillator(spec, u1, um1, eps, size, n_nodes)
    if cmap.kind == "morse":
        if not isinstance(model, models.GeneralizedMorse):
            raise UnsupportedStructureError("model does not map to the morse form")
        u1 = model.A / cmap.mu_scale
        u2 = model.B / cmap.mu_scale ** 2
        return _jmatrix_laguerre_morse(spec, u1, u2, eps, size, n_nodes)
    if cmap.kind == "rosen_morse":
        if not isinstance(model, models.RosenMorse):
            raise UnsupportedStructureError("model does not map to the rosen_morse form")
        return _jmatrix_jacobi(spec, model.A, model.B, eps, size, n_nodes)
    raise UnsupportedStructureError("unknown coordinate map %r" % cmap.kind)


def _lowered(spec, vals):
    """Rows A_n p_{n-1} from the rows A_n p_n of scaled_polynomials; row 0
    is zero."""
    norms = basis_mod.normalization(spec, np.arange(len(vals)))
    prev = np.zeros_like(vals)
    prev[1:] = vals[:-1] * (norms[1:] / norms[:-1])[:, None]
    return prev


def _laguerre_blocks(spec, size, n_nodes, base_expo):
    """Nodes, effective weights, the A_n L_n rows and the A_n y L_n' rows
    shared by the two laguerre-map assemblies.  base_expo is the exponent of
    y in phi_m phi_n d(mu); the rule weight drops one power when integrable
    so residual 1/y pieces stay polynomial."""
    shift = 1 if base_expo - 1.0 > -1.0 else 0
    rule = oracle.gauss_rule(("laguerre", base_expo - shift), n_nodes)
    y = rule.nodes
    vals = basis_mod.scaled_polynomials(spec, size - 1, y)
    # from the unscaled relation y L_n' = n L_n - (n+nu) L_{n-1}
    ns = np.arange(size)[:, None]
    y_dln = ns * vals - (ns + spec.nu) * _lowered(spec, vals)
    return y, rule.weights * y ** shift, vals, y_dln


def _jmatrix_laguerre_oscillator(spec, u1, um1, eps, size, n_nodes):
    """Oscillator map: operator -4y d^2/dy^2 - 2 d/dy + U(y) - eps.

    With phi = y^alpha u, u = e^{-y/2} L, the action collapses to

      [um1 - 2a(2a-1)] L/y + (4a+1+4n-eps) L + [4(nu+1)-(8a+2)] L'
                                              + (u1-1) y L

    times the envelope (a = alpha); both bracketed coefficients vanish
    identically when 2*alpha = nu + 1/2 and um1 = nu^2 - 1/4.
    """
    al = spec.alpha
    y, w, vals, y_dln = _laguerre_blocks(spec, size, n_nodes, 2.0 * al - 0.5)
    ns = np.arange(size)[:, None]
    c_inv = um1 - 2.0 * al * (2.0 * al - 1.0)
    c_l = 4.0 * al + 1.0 + 4.0 * ns - eps
    c_lp = 4.0 * (spec.nu + 1.0) - (8.0 * al + 2.0)
    action = (c_inv * vals / y + c_l * vals + c_lp * y_dln / y
              + (u1 - 1.0) * y * vals)
    return (vals * w) @ action.T


def _jmatrix_laguerre_morse(spec, u1, u2, eps, size, n_nodes):
    """Morse map: operator -y^2 d^2/dy^2 - y d/dy + U(y) - eps.

    Collapses to -(alpha^2+eps) L + [u1 + alpha + 1/2 + n] y L
    + (u2 - 1/4) y^2 L + (nu - 2 alpha) yL'; the first and last pieces die
    on the constrained case nu = 2*alpha, eps = -nu^2/4.
    """
    al = spec.alpha
    base = 2.0 * al - 1.0
    if not base > -1.0:
        raise ParameterDomainError("morse overlap needs 2*alpha - 1 > -1 (nu > 0)")
    y, w, vals, y_dln = _laguerre_blocks(spec, size, n_nodes, base)
    ns = np.arange(size)[:, None]
    action = (-(al * al + eps) * vals
              + (u1 + al + 0.5 + ns) * y * vals
              + (u2 - 0.25) * y * y * vals
              + (spec.nu - 2.0 * al) * y_dln)
    return (vals * w) @ action.T


def _jmatrix_jacobi(spec, A, B, eps, size, n_nodes):
    """Rosen-Morse map: operator -(1-y^2) d/dy (1-y^2) d/dy + U(y) - eps,
    U = A(1-y) + B(1-y^2), envelope W = (1+y)^alpha (1-y)^beta.

    All derivative content is reduced through the Jacobi structure relations
    so only P_n and P_{n-1} values appear; the integrand is the Jacobi weight
    (1-y)^(2 beta - 1) (1+y)^(2 alpha - 1) times a polynomial.
    """
    al, be = spec.alpha, spec.beta
    mu, nu = spec.mu, spec.nu
    a_w = 2.0 * be - 1.0
    b_w = 2.0 * al - 1.0
    if not (a_w > -1.0 and b_w > -1.0):
        raise ParameterDomainError("rosen-morse overlap needs alpha, beta > 0")
    rule = oracle.gauss_rule(("jacobi", a_w, b_w), n_nodes)
    y = rule.nodes
    p = basis_mod.scaled_polynomials(spec, size - 1, y)
    p_prev = _lowered(spec, p)
    ns = np.arange(size)[:, None]
    s_ab = al + be
    d_ab = al - be
    # A_n (1-y^2) P_n', zero for n = 0
    d1 = np.zeros_like(p)
    n1 = ns[1:]
    d1[1:] = (-n1 * (y + (nu - mu) / (2 * n1 + mu + nu)) * p[1:]
              + 2.0 * (n1 + mu) * (n1 + nu) / (2 * n1 + mu + nu) * p_prev[1:])
    one_m_y2 = 1.0 - y * y
    g = (d_ab - s_ab * y) * p + d1
    # (1-y^2)^2 P'' through the Jacobi differential equation
    p2 = ((mu + nu + 2.0) * y + mu - nu) * d1 - ns * (ns + mu + nu + 1.0) * one_m_y2 * p
    g1 = -s_ab * one_m_y2 * p + (d_ab - s_ab * y - 2.0 * y) * d1 + p2
    u_val = A * (1.0 - y) + B * one_m_y2
    action = -(d_ab - s_ab * y) * g - g1 + (u_val - eps) * p
    return (p * rule.weights) @ action.T


# ---------------------------------------------------------------------------
# Finite symmetric truncation
# ---------------------------------------------------------------------------

def truncated_eigenvalues(rc: RecursionCoefficients, N: int):
    """Eigenvalues of the N x N symmetric truncation, ascending.

    Only structures where eps enters linearly on the diagonal (the oscillator
    Pollaczek case) are supported; anywhere else eps sits inside couplings or
    basis parameters and a finite snapshot would misrepresent the operator.
    """
    if not rc.epsilon_on_diagonal:
        raise UnsupportedStructureError(
            "case %r does not embed eps linearly on the diagonal" % rc.case)
    diag, off = symmetric_form(rc, 0.0, N)
    return oracle.tridiagonal_eigenvalues(diag, off)
