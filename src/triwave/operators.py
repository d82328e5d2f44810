"""Energy-dependent tridiagonal wave-operator machinery.

For each solvable family the wave operator H - E acting on the basis reduces
to a three-term recursion for polynomial-normalized coefficients d_n,

    A_n(eps) d_n + B_n(eps) d_{n-1} + C_n(eps) d_{n+1} = 0,

with d_0 = 1.  Builders return the coefficients as one function of (n, eps)
vectorized over an index array, with the basis they expand in (exponents
outside its domain raise its ParameterDomainError), and set the couplings
that vanish at bound states to exactly 0; a generic engine solves the
recursion (including the diagonal and terminating limits those zeros
give); symmetric_form gives the (diag, off) arrays of the symmetric view; and an
independent quadrature route integrates the block <phi_m | (H - eps) | phi_n>
directly to verify tridiagonality without using any of the closed forms.
The level rules of the discrete spectra live in the model classes (models).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from . import basis as basis_mod
from . import oracle
from .basis import BasisSpec, CoordinateMap
from .exceptions import (
    DomainError,
    EvaluationOverflowError,
    ParameterDomainError,
    RecursionBreakdownError,
    SingularParameterError,
    UnsupportedStructureError,
    require_integer,
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
]


# ---------------------------------------------------------------------------
# Coefficient containers
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class RecursionCoefficients:
    """Coefficients of A_n d_n + B_n d_{n-1} + C_n d_{n+1} = 0 as one function
    coefficients(n, eps) -> (A_n, B_n, C_n), vectorized over an index array n.

    solve_recursion reads B_0 as zero: it multiplies d_{-1} = 0 and the
    wave-operator row 0 has no such entry.  A coupling the builder returns
    as exactly 0 is a zero of the recursion; the engine decides no zeros of
    its own.

    A function of eps rather than a matrix snapshot: eps can sit inside
    off-diagonals or inside basis parameters depending on the case, so a
    plain "matrix minus eps*I" view would misrepresent the structure.
    """

    coefficients: Callable[[np.ndarray, float], tuple]
    spec: BasisSpec  # the basis the d_n and f_n expand in
    # t_n = f_sign^n A_n^f_power (A_n the basis constants) of the case's
    # f_n = t_n d_n scaling, the one that makes sum f_n phi_n solve the wave
    # equation; fixed per case by testing the d-solutions against the
    # quadrature wave-operator rows
    f_sign: float = 1.0
    f_power: float = 1.0
    # the literal <phi_m|(H-eps)|phi_n> rows equal jmatrix_scale times the
    # symmetrized recursion rows (a constant per case, measured and pinned)
    jmatrix_scale: float = 1.0

    def f_scaling(self, a_n: np.ndarray) -> np.ndarray:
        """t_0..t_{N-1} of the case's f_n = t_n d_n scaling, from the basis
        constants a_n = A_0..A_{N-1}."""
        return self.f_sign ** np.arange(a_n.size) * a_n ** self.f_power


@dataclass
class CoefficientSeries:
    """Recursion output: raw d-sequence, its f-image in the recursion's
    basis, and the size of the last retained f term relative to the running
    maximum.  a_n holds the basis constants A_0..A_{N-1} behind f, so the
    series sum need not compute them again."""

    d: np.ndarray
    f: np.ndarray
    tail_estimate: float
    a_n: np.ndarray


# ---------------------------------------------------------------------------
# Builders (one per developed case)
# ---------------------------------------------------------------------------

def _diagonal_limit(coupling):
    """True where the off-diagonal coupling factor (a - 1 for the oscillator,
    b - 1/4 for Morse) counts as zero: the diagonal (bound-state) limit,
    where the builders set it to exactly 0."""
    return abs(coupling) <= 1e-12


def build_oscillator_pollaczek(nu, a):
    """Oscillator map, basis exponent 2*alpha = nu + 1/2, potential
    U(y) = a*y + (nu^2 - 1/4)/y:

        [(a+1)(2n+nu+1) - eps] d_n - (a-1)[(n+nu) d_{n-1} + (n+1) d_{n+1}] = 0.

    At a = 1 (within _diagonal_limit) every off-diagonal coefficient is 0.
    The basis needs nu >= -1/2.
    """
    nu, a = float(nu), float(a)
    spec = basis_mod.oscillator_pollaczek_basis(nu)
    g = 0.0 if _diagonal_limit(a - 1.0) else a - 1.0
    return RecursionCoefficients(
        lambda n, eps: ((a + 1.0) * (2 * n + nu + 1.0) - eps, -g * (n + nu), -g * (n + 1.0)),
        spec=spec,
    )


def build_oscillator_dual_hahn(nu, b):
    """Oscillator map, basis exponent 2*alpha = nu + 3/2, potential
    U(y) = y + b/y.  eps enters all three coefficients; a real dual-Hahn
    representation needs b <= -1/4.  The basis needs nu > -1."""
    nu, b = float(nu), float(b)
    spec = basis_mod.oscillator_dual_hahn_basis(nu)

    def coefficients(n, eps):
        lower = -n * (n + nu / 2.0 - eps / 4.0)
        upper = -(n + nu + 1.0) * (n + nu / 2.0 + 1.0 - eps / 4.0)
        return (-(lower + upper) - ((nu + 1.0) / 2.0) ** 2 + b / 4.0 + 1.0 / 16.0,
                lower, upper)

    return RecursionCoefficients(coefficients, spec=spec, f_power=-1.0, jmatrix_scale=4.0)


def build_morse(a, b, nu):
    """Morse map, basis constraint nu = 2*alpha, potential U(y) = a*y + b*y^2:

        2[(b + 1/4)(n + (nu+1)/2) + a/2] d_n
            = (b - 1/4)[(n + nu) d_{n-1} + (n + 1) d_{n+1}].

    The basis is energy dependent: tridiagonality requires eps = -nu^2/4.
    b = 1/4 (within _diagonal_limit) is the diagonal (bound-state) limit,
    where every off-diagonal coefficient is 0.  The basis needs nu >= 0.
    """
    a, b, nu = float(a), float(b), float(nu)
    spec = basis_mod.morse_basis(nu)
    g = 0.0 if _diagonal_limit(b - 0.25) else b - 0.25
    return RecursionCoefficients(
        lambda n, eps: (2.0 * ((b + 0.25) * (n + (nu + 1.0) / 2.0) + a / 2.0),
                        -g * (n + nu), -g * (n + 1.0)),
        spec=spec,
    )


def build_rosen_morse(A, B, mu, nu):
    """Rosen-Morse map, basis exponents (alpha, beta) = ((nu+1)/2, mu/2),
    potential U(y) = A(1-y) + B(1-y^2); eps = -mu^2 is forced.  The basis
    needs mu >= 0 and nu > -1, so 2n+mu+nu+1 and 2n+mu+nu+2 are positive;
    only 2n+mu+nu can vanish (at n = 0), and a zero there raises.

    The coupling factor B - 1/4 + t^2/4 (t = 2n+mu+nu, or t + 2 in C_n)
    vanishes at a level, where C_n and B_{n+1} share it; within 1e-12
    |B - 1/4| of zero it is set to exactly 0, so the series ends at d_n.
    """
    A, B, mu, nu = float(A), float(B), float(mu), float(nu)
    spec = basis_mod.rosen_morse_basis(mu, nu)
    s = mu + nu
    b4 = B - 0.25

    def factor(t):
        f = b4 + 0.25 * t * t
        return np.where(np.abs(f) <= 1e-12 * abs(b4), 0.0, f)

    def coefficients(n, eps):
        t = 2 * n + s
        if np.any(np.abs(t) < 1e-13):
            raise SingularParameterError("rosen-morse coefficient denominator 2n+mu+nu "
                                         "vanished at n=0")
        t1, t2 = t + 1.0, t + 2.0
        upper = factor(t2)
        diag = (0.5 * (nu + mu + 1.0) * (nu - mu + 1.0)
                + 2.0 * n * (n + mu) / t
                + ((mu * mu - nu * nu) / (t * t2) - 1.0) * upper)
        return (diag - A,
                2.0 * (n + mu) * (n + nu) / (t * t1) * factor(t),
                2.0 * (n + 1.0) * (n + s + 1.0) / (t1 * t2) * upper)

    return RecursionCoefficients(coefficients, spec=spec, f_sign=-1.0, jmatrix_scale=-1.0)


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
    ns = np.arange(N)
    A, _, C = rc.coefficients(ns, epsilon)
    norms = basis_mod.normalization(rc.spec, ns)
    return A + epsilon, C[:-1] * (rc.f_sign * (norms[:-1] / norms[1:]) ** rc.f_power)


# ---------------------------------------------------------------------------
# Recursion engine
# ---------------------------------------------------------------------------

# a diagonal A_n of the diagonal limit below _ZERO_TOL times its row scale
# counts as zero, and so does the running combination where C_n = 0
_ZERO_TOL = 1e-9


def solve_recursion(rc: RecursionCoefficients, epsilon: float, N: int) -> CoefficientSeries:
    """Run the three-term recursion with seed d_0 = 1, d_{-1} = 0 up to
    truncation order N.

    The zeros are the builder's: a coupling is zero only where it is exactly
    0, and B_0 is read as 0.  Diagonal-limit recursions (every B_n and C_n 0)
    return the delta sequence at the level n0 where the diagonal coefficient
    vanishes.  A zero C_n with vanishing running combination terminates the
    series (zero continuation); a zero C_n with a nonzero combination is a
    breakdown and raises, naming n.  ParameterDomainError unless N is an
    integer >= 1.
    """
    N = require_integer("N", N)
    if N < 1:
        raise ParameterDomainError("truncation order must be >= 1")
    eps = float(epsilon)
    ns = np.arange(N)
    A, B, C = rc.coefficients(ns, eps)
    B[0] = 0.0  # it multiplies d_{-1} = 0
    scales = np.maximum(np.max(np.abs([A, B, C]), axis=0), 1.0)
    d = np.zeros(N)
    if not (B.any() or C.any()):
        avals = np.abs(A) / scales
        n0 = int(np.argmin(avals))
        if avals[n0] > _ZERO_TOL:
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
            if C[n] == 0.0:
                if abs(num) <= _ZERO_TOL * (scales[n] * running):
                    d[n + 1] = 0.0  # the series terminates here
                else:
                    raise RecursionBreakdownError(n)
            else:
                d[n + 1] = -num / C[n]
    a_n = basis_mod.normalization(rc.spec, ns)
    f = d * rc.f_scaling(a_n)
    tail = abs(float(f[-1])) / (float(np.max(np.abs(f))) or 1.0)
    return CoefficientSeries(d=d, f=f, tail_estimate=tail, a_n=a_n)


# ---------------------------------------------------------------------------
# Quadrature J-matrix (independent of the closed forms)
# ---------------------------------------------------------------------------

def numeric_jmatrix(model, spec: BasisSpec, cmap: CoordinateMap, epsilon: float,
                    size: int, n_nodes=None):
    """The size x size block <phi_m | (H - eps) | phi_n>, m, n < size, by
    direct Gauss quadrature in y.

    One table of basis polynomials at the rule's nodes serves the whole
    block.  Basis derivatives come from the polynomial differential
    equations, never from finite differences, and the envelope factors are
    cancelled against the quadrature weight analytically so no exp(+y)
    ratios are formed.  For the constrained exponent choices every entry is
    the rule weight times a polynomial of degree at most 2 size + 1 (the
    action on phi_n has degree n + 2 at most, and on the laguerre maps one
    factor y moves from the rule weight into the integrand), so the default
    n_nodes = size + 2, exact through degree 2 size + 3, gives the block to
    roundoff; fewer nodes cannot integrate the top entry exactly and raise.
    Perturbed exponents (negative controls) keep that form, except that on
    the oscillator map a pair-weight exponent at most 0 leaves no factor y
    to take from the rule weight: the 1/y piece a perturbed exponent leaves
    in the action then diverges, and DomainError names the weight.  The
    weight is basis._pair_weight(spec, cmap), which raises DomainError where
    the measure's integral diverges; EvaluationOverflowError, naming the
    first such (m, n) and that weight, where an entry leaves the float range.
    The potential comes from model.jmatrix_potential() as (map kind, c1, c2):
    U = c1 y + c2 / y (oscillator), c1 y + c2 y^2 (morse) or
    c1 (1 - y) + c2 (1 - y^2) (rosen_morse); UnsupportedStructureError where
    that kind is not cmap's.
    """
    if n_nodes is None:
        n_nodes = size + 2
    if n_nodes < size + 2:
        raise ParameterDomainError("n_nodes too small for these indices")
    weight = basis_mod._pair_weight(spec, cmap)
    kind, c1, c2 = model.jmatrix_potential()
    if kind != cmap.kind:
        raise UnsupportedStructureError("model does not map to the %s form" % cmap.kind)
    assemble = {"oscillator": _jmatrix_laguerre_oscillator, "morse": _jmatrix_laguerre_morse,
                "rosen_morse": _jmatrix_jacobi}[kind]
    with np.errstate(over="ignore", invalid="ignore"):
        block = assemble(spec, weight, c1, c2, float(epsilon), size, n_nodes)
    bad = np.argwhere(~np.isfinite(block))
    if bad.size:
        raise EvaluationOverflowError(
            "J-matrix entry (m, n) = (%d, %d) over weight %r is not finite (the "
            "rule weights or basis values overflow the float range)"
            % (bad[0][0], bad[0][1], weight))
    return block


def _lowered(spec, vals):
    """Rows A_n p_{n-1} from the rows A_n p_n of scaled_polynomials; row 0
    is zero."""
    norms = basis_mod.normalization(spec, np.arange(len(vals)))
    prev = np.zeros_like(vals)
    prev[1:] = vals[:-1] * (norms[1:] / norms[:-1])[:, None]
    return prev


def _laguerre_blocks(spec, weight, size, n_nodes):
    """Nodes, effective weights, the A_n L_n rows and the A_n y L_n' rows
    shared by the two laguerre-map assemblies.  weight is the id of
    phi_m phi_n d(mu); the rule weight drops one power of y when integrable
    so residual 1/y pieces stay polynomial."""
    kind, expo = weight
    shift = 1 if expo - 1.0 > -1.0 else 0
    rule = oracle.gauss_rule((kind, expo - shift), n_nodes)
    y = rule.nodes
    vals = basis_mod.scaled_polynomials(spec, size - 1, y)
    # from the unscaled relation y L_n' = n L_n - (n+nu) L_{n-1}
    ns = np.arange(size)[:, None]
    y_dln = ns * vals - (ns + spec.nu) * _lowered(spec, vals)
    return y, rule.weights * y ** shift, vals, y_dln


def _jmatrix_laguerre_oscillator(spec, weight, u1, um1, eps, size, n_nodes):
    """Oscillator map: operator -4y d^2/dy^2 - 2 d/dy + U(y) - eps.

    With phi = y^alpha u, u = e^{-y/2} L, the action collapses to

      [um1 - 2a(2a-1)] L/y + (4a+1+4n-eps) L + [4(nu+1)-(8a+2)] L'
                                              + (u1-1) y L

    times the envelope (a = alpha); both bracketed coefficients vanish
    identically when 2*alpha = nu + 1/2 and um1 = nu^2 - 1/4.
    """
    al = spec.alpha
    y, w, vals, y_dln = _laguerre_blocks(spec, weight, size, n_nodes)
    ns = np.arange(size)[:, None]
    c_inv = um1 - 2.0 * al * (2.0 * al - 1.0)
    # c_inv vanishes on the constrained exponents, up to the rounding of
    # nu^2 - 1/4 (1e-17 on the minus branch); the L/y piece a perturbed
    # exponent leaves diverges where the rule weight has no y to give it
    if abs(c_inv) > 1e-12 * max(1.0, abs(um1)) and not weight[1] > 0.0:
        raise DomainError(
            "the J-matrix over weight %r diverges: its L/y piece (coefficient %.3g) "
            "needs a pair-weight exponent above 0" % (weight, c_inv))
    c_l = 4.0 * al + 1.0 + 4.0 * ns - eps
    c_lp = 4.0 * (spec.nu + 1.0) - (8.0 * al + 2.0)
    action = (c_inv * vals / y + c_l * vals + c_lp * y_dln / y
              + (u1 - 1.0) * y * vals)
    return (vals * w) @ action.T


def _jmatrix_laguerre_morse(spec, weight, u1, u2, eps, size, n_nodes):
    """Morse map: operator -y^2 d^2/dy^2 - y d/dy + U(y) - eps.

    Collapses to -(alpha^2+eps) L + [u1 + alpha + 1/2 + n] y L
    + (u2 - 1/4) y^2 L + (nu - 2 alpha) yL'; the first and last pieces die
    on the constrained case nu = 2*alpha, eps = -nu^2/4.
    """
    al = spec.alpha
    y, w, vals, y_dln = _laguerre_blocks(spec, weight, size, n_nodes)
    ns = np.arange(size)[:, None]
    action = (-(al * al + eps) * vals
              + (u1 + al + 0.5 + ns) * y * vals
              + (u2 - 0.25) * y * y * vals
              + (spec.nu - 2.0 * al) * y_dln)
    return (vals * w) @ action.T


def _jmatrix_jacobi(spec, weight, A, B, eps, size, n_nodes):
    """Rosen-Morse map: operator -(1-y^2) d/dy (1-y^2) d/dy + U(y) - eps,
    U = A(1-y) + B(1-y^2), envelope W = (1+y)^alpha (1-y)^beta.

    All derivative content is reduced through the Jacobi structure relations
    so only P_n and P_{n-1} values appear; the integrand is the Jacobi weight
    of phi_m phi_n d(mu) times a polynomial.
    """
    al, be = spec.alpha, spec.beta
    mu, nu = spec.mu, spec.nu
    rule = oracle.gauss_rule(weight, n_nodes)
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
