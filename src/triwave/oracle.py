"""Independent verification machinery.

Two unrelated work horses live here:

* the grid oracle, used to arbitrate closed-form spectra: Numerov's
  fourth-order discretization of the 1D Schrodinger equation with Dirichlet
  ends, on a uniform grid in x, or for the inverse-square models on the
  Langer grid x = e^t (uniform in t, psi = e^{t/2} phi, measure x dt), which
  removes the wall at x = 0; default_grid in models puts each edge where the
  top level's WKB exponent reaches 16;
* Gauss quadrature rule generation from monic recurrence coefficients
  (nodes as the Jacobi-matrix eigenvalues, weights from the Christoffel
  function of the orthonormal recurrence), plus adaptive Gauss-Kronrod
  (G7-K15) integration for non-classical weights.

The Gauss nodes are the eigenvalues of a small symmetric tridiagonal matrix
(Golub and Welsch, Math. Comp. 23, 1969): numpy's dense symmetric
eigensolver gives each to a few eps |T|, and the pass of the orthonormal
recurrence that gives the Christoffel weights also takes one Newton step on
p_n at every node, which brings each within a fraction of eps |T|.  The
grid oracle is dependency-free: it counts the eigenvalues of Numerov's
pencil by Sturm sequences, through a tridiagonal matrix T(E) whose diagonal
depends on E, one energy per scalar pass of the LDL^T pivot recurrence over
the rows.  One loop per level (_levels) bisects until the level is alone in
its bracket, then converges it by Newton's method on the Rayleigh functional
of a twisted factorization of T(E) (Dhillon and Parlett, Linear Algebra Appl.
387, 2004; the same pass gives the step and the count, so the bracket keeps
every step safe), and takes each eigenvector from the twisted vector of
that level's last Newton pass; only a level of a cluster, one with no
usable vector, or one whose last step is not small against its gap to the
nearest level is factorized again at its eigenvalue.  Output is
deterministic.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from itertools import chain, repeat

import numpy as np

from .exceptions import (
    AccuracyError,
    DomainError,
    ParameterDomainError,
    require_integer,
)

__all__ = [
    "GridSolution",
    "QuadratureRule",
    "tridiagonal_eigenvalues",
    "tridiagonal_eigenvector",
    "grid_solve",
    "step_margin",
    "gauss_rule",
    "adaptive_quad",
    "node_count",
]


# ---------------------------------------------------------------------------
# Symmetric tridiagonal eigensolver (dense eigvalsh, twisted factorization)
# ---------------------------------------------------------------------------

# Pivots of h^2 T(E) are nudged away from zero to +-_TINY (see _pivots).
_TINY = 1e-300


def _numerov_count(alpha, beta, energy):
    """Sturm count at E = energy of the Numerov pencil
    h^2 T(E) = tridiag(-1, beta_i / (alpha_i + E) - 10, -1) (alpha, beta:
    arrays; see grid_solve): the number of negative forward pivots, which is
    the number of Numerov eigenvalues below E."""
    d = (beta / (alpha + energy) - 10.0).tolist()
    return int(np.count_nonzero(_pivots(d, repeat(1.0), _TINY) < 0.0))


def _twisted_step(alpha, beta, energy, twist=None):
    """(Sturm count, Newton step, row of the largest |z|, z) at E = energy
    of h^2 T(E) (see _numerov_count), from one twisted factorization twisted
    at row r (Dhillon and Parlett, Linear Algebra Appl. 387, 2004).

    The forward pivots D+ of rows 0..r-1 and the backward pivots D- of rows
    n-1..r+1 meet in gamma_r = d_r - 1 / D+_{r-1} - 1 / D-_{r+1}.  The
    factorization is a congruence, so by Sylvester's law of inertia the count
    #(D+ < 0) + #(D- < 0) + (gamma_r < 0) is the forward one.  z
    (_twisted_vector: z_r = 1, h^2 T(E) z = gamma_r e_r) gives the Rayleigh
    functional z^T h^2 T(E) z = gamma_r, and since
    h^2 T'(E) = -diag(beta / (alpha + E)^2) the step is Newton's,
    gamma_r / sum_i w_i with w_i = beta_i z_i^2 / (alpha_i + E)^2 (the
    matching-point energy correction of Cooley, Math. Comp. 15, 1961); not
    finite where z overflows.  The diagonal of row i is the one at the
    energy E + delta_i, delta_i = fl(alpha_i + E) - alpha_i - E, up to half
    an ulp of alpha_i (about 12 / h^2), and gamma_r moves by w_i delta_i
    per row to first order, so the step adds sum_i w_i delta_i / sum_i w_i:
    it aims at the level of alpha and beta, not of the rounded
    alpha_i + E.  delta_i is formed as (fl(alpha_i + E) - alpha_i) - E,
    exact (Sterbenz's lemma) wherever |E| <= alpha_i / 2 and within about
    an ulp of E elsewhere.  twist None sweeps all rows both ways and twists
    at the least |gamma_r| (_twist); otherwise r = twist and each row is
    swept once.
    """
    s = alpha + energy
    d = beta / s - 10.0
    n = d.size
    if twist is None:
        dp, dm, r, gamma = _twist(d, [1.0] * (n - 1), _TINY)
        left, right = dp[:r], dm[r + 1:]
    else:
        r = twist
        rows = d.tolist()
        left = _pivots(rows[:r], repeat(1.0), _TINY)
        right = _pivots(rows[:r:-1], repeat(1.0), _TINY)[::-1]
        gamma = rows[r]
        if r > 0:
            gamma -= 1.0 / float(left[-1])
        if r < n - 1:
            gamma -= 1.0 / float(right[0])
    count = int(np.count_nonzero(left < 0.0) + np.count_nonzero(right < 0.0)) + (gamma < 0.0)
    with np.errstate(over="ignore", invalid="ignore"):
        z = _twisted_vector(np.full(n - 1, -1.0), left, right)
        w = beta * (z / s) ** 2
        slope = float(np.sum(w))
        shift = float(w @ ((s - alpha) - energy))
    step = (gamma + shift) / slope if math.isfinite(slope) else math.nan
    return count, step, int(np.argmax(np.abs(z))), z


# Brackets are closed at this width relative to max(1, |E|) (_closed).
_REL_TOL = 1e-14


def _closed(lo, hi):
    """Whether [lo, hi] is within _REL_TOL * max(1, |E|), or adjacent floats."""
    return hi - lo <= _REL_TOL * max(1.0, abs(0.5 * (lo + hi))) or math.nextafter(lo, hi) >= hi


def _levels(alpha, beta, lo0, hi0, k):
    """([(E, z, lag)] of the lowest k Numerov levels within [lo0, hi0], which
    has no level below lo0 and at least k below hi0, and the number of sweeps
    over the rows that found them).

    Level j is found in one loop of passes on its bracket.  Sturm bisection
    (Barth, Martin and Wilkinson, Numer. Math. 9, 1967) on _numerov_count
    runs until the bracket's ends count exactly j and j + 1; then Newton
    steps of _twisted_step start from its midpoint.  Every pass's count moves
    the brackets of levels j..k-1 (a Newton pass lies below level j's upper
    end, which counts j + 1 and so has already raised the next level's lower
    end: it moves only level j's).  The first Newton pass sweeps the rows
    both ways and twists where |gamma_r| is least, each later one twists
    where the previous z peaked.  A step below 1e-10 |E| and 1e-3 of the
    distance from E to the nearer end of the bracket it was computed in is
    the last (convergence is quadratic only well inside the gap to the next
    level, which a bisected bracket may not be), clamped to the bracket.  A
    step that leaves the bracket, is not finite, or is below 1e-10 |E| but
    above half the one before (stuck at the rounding floor) becomes a
    bisection.  A closed bracket (as an exactly degenerate pair ends) ends in
    its midpoint.  z is the twisted vector of the level's last Newton pass
    (None if none ran) and lag is E less that pass's energy (0 if none ran).
    AccuracyError, with the bracket, after three times the passes bisection
    from [lo0, hi0] to _REL_TOL needs, and 7 more."""
    lo, hi = [float(lo0)] * k, [float(hi0)] * k
    c_lo, c_hi = [0] * k, [-1] * k  # counts at the ends; at hi0 not known
    budget = 3 * max(1, math.ceil(math.log2(hi0 - lo0) - math.log2(_REL_TOL))) + 7
    levels, sweeps = [], 0
    for j in range(k):
        guess, last, twist, z = None, math.inf, None, None
        for _ in range(budget):
            mid = 0.5 * (lo[j] + hi[j])
            if _closed(lo[j], hi[j]):
                levels.append((mid, z, 0.0 if z is None else mid - energy))
                break
            newton = c_lo[j] == j and c_hi[j] == j + 1
            energy = mid if guess is None else guess
            if newton:
                sweeps += 2 if twist is None else 1
                count, step, twist, z = _twisted_step(alpha, beta, energy, twist)
            else:
                sweeps += 1
                count = _numerov_count(alpha, beta, energy)
            near = min(energy - lo[j], hi[j] - energy)
            for i in range(j, k):  # hi[i] >= hi[j] > energy
                if count > i:
                    hi[i], c_hi[i] = energy, count
                elif energy > lo[i]:
                    lo[i], c_lo[i] = energy, count
            if not newton:
                continue
            small = abs(step) <= 1e-10 * abs(energy)
            if small and abs(step) <= 1e-3 * near:
                result = min(max(energy + step, lo[j]), hi[j])
                levels.append((result, z, result - energy))
                break
            stuck = small and abs(step) > 0.5 * last
            guess, last = energy + step, abs(step)
            if stuck or not lo[j] < guess < hi[j]:
                guess = None
        else:
            raise AccuracyError("Numerov level %d left open after %d passes" % (j, budget),
                                estimates=(lo[j], hi[j]))
    return levels, sweeps


def _tridiagonal_entries(diag, off):
    """(d, e, e^2) as float arrays: ParameterDomainError unless there are
    n >= 1 rows, the off-diagonal has length n - 1 and every entry, e^2
    included, is finite."""
    d = np.asarray(diag, dtype=float)
    e = np.asarray(off, dtype=float)
    if d.size == 0 or e.size != d.size - 1:
        raise ParameterDomainError("need n >= 1 rows and an off-diagonal of length n-1")
    if not (np.all(np.isfinite(d)) and np.all(np.isfinite(e))):
        raise ParameterDomainError("matrix entries must be finite")
    with np.errstate(over="ignore"):
        e2 = e * e
    if not np.all(np.isfinite(e2)):
        raise ParameterDomainError("squared off-diagonal entries overflow")
    return d, e, e2


def tridiagonal_eigenvalues(diag, off):
    """All eigenvalues (ascending) of the symmetric tridiagonal matrix T with
    the given diagonal and off-diagonal.

    np.linalg.eigvalsh on the dense matrix (upper triangle) gives each to a
    few eps |T|, where |T| = max|d| + 2 max|e|; a Gauss rule refines its
    nodes itself (_gauss_rule_cached).  ParameterDomainError unless the
    entries are finite and the width of the Gershgorin interval is too.
    """
    d, e, _ = _tridiagonal_entries(diag, off)
    radius = np.zeros(d.size)
    radius[:-1] += np.abs(e)
    radius[1:] += np.abs(e)
    with np.errstate(over="ignore"):
        width = float(np.max(d + radius)) - float(np.min(d - radius))
    if not math.isfinite(width):
        raise ParameterDomainError("matrix entries overflow the Gershgorin interval")
    return np.linalg.eigvalsh(np.diag(d) + np.diag(e, 1), UPLO="U")


def _pivots(a, e2, tiny):
    """Pivots D_i = a_i - e2_{i-1} / D_{i-1} (D_0 = a_0) of the LDL^T
    factorization of the tridiagonal matrix with diagonal a (a list of Python
    floats) and squared off-diagonal e2 (an iterable of Python floats,
    repeat(1.0) for a unit off-diagonal), as an array, each nudged away from
    zero to +-tiny: an exact +0 pivot becomes +tiny, and the next one turns
    negative, as in Kahan's IEEE Sturm count."""
    return np.fromiter(_pivot_recurrence(a, e2, tiny), float, len(a))


def _pivot_recurrence(a, e2, tiny):
    """The pivots of _pivots, one at a time (np.fromiter takes them without
    the list a loop would build)."""
    q = math.inf
    for ai, ei2 in zip(a, chain((0.0,), e2)):
        q = ai - ei2 / q
        if -tiny < q < tiny:
            q = tiny if q >= 0.0 else -tiny
        yield q


def _twist(a, e2, tiny):
    """(D+, D-, r, gamma_r) of the tridiagonal matrix with diagonal a (an
    array) and squared off-diagonal e2 (a list of Python floats): the forward
    pivots D+ of LDL^T and the backward pivots D- of UDU^T (_pivots, nudged
    away from zero to +-tiny), and the twist r where the two factorizations
    meet in the least |gamma_r|, gamma_r = D+_r + D-_r - a_r."""
    rows = a.tolist()
    dp = _pivots(rows, e2, tiny)
    dm = _pivots(rows[::-1], e2[::-1], tiny)[::-1]
    gammas = dp + dm - a
    r = int(np.argmin(np.abs(gammas)))
    return dp, dm, r, float(gammas[r])


def _twisted_vector(e, left, right):
    """The vector z of a twisted factorization, twisted at r = len(left):
    z_r = 1 and the rows of (T - lam I) z = gamma_r e_r other than r, solved
    outward with z_i = -e_i z_{i+1} / D+_i above r (left = D+_0..D+_{r-1}) and
    z_{i+1} = -e_i z_i / D-_{i+1} below it (right = D-_{r+1}..D-_{n-1})."""
    r = len(left)
    z = np.ones(r + 1 + len(right))
    z[:r] = np.cumprod(-e[:r][::-1] / left[::-1])[::-1]
    z[r + 1:] = np.cumprod(-e[r:] / right)
    return z


def _ldl_solve(e, dp, b):
    """x with (T - lam I) x = b, from the pivots dp of its LDL^T factorization
    (see _pivots): L y = b downward, then D L^T x = y upward, with
    L_{i+1,i} = e_i / D+_i."""
    e, dp, x = e.tolist(), dp.tolist(), b.tolist()
    for i in range(1, len(x)):
        x[i] -= e[i - 1] / dp[i - 1] * x[i - 1]
    x[-1] /= dp[-1]
    for i in range(len(x) - 2, -1, -1):
        x[i] = (x[i] - e[i] * x[i + 1]) / dp[i]
    return np.array(x)


def tridiagonal_eigenvector(diag, off, eigenvalue, orthogonalize=()):
    """Unit eigenvector of the symmetric tridiagonal matrix T (diagonal,
    off-diagonal) for an accurate eigenvalue lam, with its leading
    significant entry (above 1e-3 of the largest) positive.

    One twisted factorization of T - lam I (Fernando, SIAM J. Matrix Anal.
    Appl. 18, 1997; Dhillon and Parlett, Linear Algebra Appl. 387, 2004;
    LAPACK dlar1v): the forward pivots D+ of LDL^T and the backward pivots D-
    of UDU^T, nudged away from zero to +-1e-300 max(1, max e^2), give
    gamma_r = D+_r + D-_r - (d_r - lam), the last pivot when the two
    factorizations meet at row r, and 1 / gamma_r is the (r, r) entry of
    (T - lam I)^{-1}.  At the twist r of least |gamma_r| the solution of
    (T - lam I) z = gamma_r e_r with z_r = 1 is the eigenvector, found by two
    cumulative products.

    orthogonalize holds earlier unit eigenvectors of the same cluster (levels
    too close for their twisted vectors to be told apart).  The vector is
    made orthogonal to them by one Gram-Schmidt step.  Every twisted vector
    is a column of (T - lam I)^{-1}, and within a cluster those columns can
    all lie along the earlier vectors (on a symmetric double well the
    columns of one well all point the same way), so where the step leaves
    less than 1e-3 of it the vector is instead (T - lam I)^{-1} b, solved
    with the LDL^T pivots, and gets two Gram-Schmidt steps.  b is the ramp
    b_i = 1 + i / (n - 1): a symmetric b would have no part along the odd
    level of a symmetric pair.  AccuracyError if that leaves less than 1e-8
    of it, or if the vector is zero or not finite.
    """
    d, e, e2 = _tridiagonal_entries(diag, off)
    if not math.isfinite(eigenvalue):
        raise ParameterDomainError("eigenvalue must be finite")
    n = d.size
    try:
        u = np.asarray(orthogonalize, dtype=float)
    except (TypeError, ValueError):
        u = None
    if u is None or (u.size and not (u.ndim == 2 and u.shape[1] == n
                                     and np.all(np.isfinite(u)))):
        raise ParameterDomainError("orthogonalize must hold finite vectors of length n = %d"
                                   % n)
    if n == 1:
        return np.ones(1)
    with np.errstate(over="ignore"):
        a = d - eigenvalue
    tiny = 1e-300 * max(1.0, float(np.max(e2)))
    if not np.all(np.isfinite(a)):
        raise ParameterDomainError("matrix entries overflow the twisted factorization")
    dp, dm, r, _ = _twist(a, e2.tolist(), tiny)
    v = _twisted_vector(e, dp[:r], dm[r + 1:])
    if u.size:
        v = v / np.linalg.norm(v)
        v = v - (u @ v) @ u
        if np.linalg.norm(v) < 1e-3:
            with np.errstate(over="ignore", invalid="ignore"):
                v = _ldl_solve(e, dp, np.linspace(1.0, 2.0, n))
                v = v / np.linalg.norm(v)
            v = v - (u @ v) @ u
            v = v - (u @ v) @ u
            if np.linalg.norm(v) < 1e-8:
                raise AccuracyError("twisted factorization cannot separate an eigenvector "
                                    "from %d others of its cluster" % u.shape[0])
    nrm = np.linalg.norm(v)
    if not (np.isfinite(nrm) and nrm > 0.0):
        raise AccuracyError("twisted factorization gave a zero or non-finite eigenvector")
    return _signed(v / nrm)


def _signed(v):
    """v or -v, whichever has its leading significant entry (above 1e-3 of
    the largest) positive."""
    lead = int(np.argmax(np.abs(v) > 1e-3 * np.max(np.abs(v))))
    return -v if v[lead] < 0.0 else v


# ---------------------------------------------------------------------------
# Grid oracle
# ---------------------------------------------------------------------------

@dataclass
class GridSolution:
    """Eigenpairs of Numerov's discretization of -d^2/dx^2 + U(x) in E0 units.

    x holds the interior grid points and eigenvectors the wavefunction
    sampled there, with the Dirichlet end values (zero) left out.  On the
    plain grid x is uniform with step h and the eigenvectors are orthonormal
    under the measure h: sum_i psi(x_i) chi(x_i) h.  On the Langer grid of
    the inverse-square models x = e^t with t uniform of step h, and the
    measure is x h: sum_i psi(x_i) chi(x_i) x_i h (dx = x dt)."""

    x: np.ndarray
    h: float
    eigenvalues: np.ndarray
    eigenvectors: np.ndarray  # shape (k, npoints)
    passes: int = 0  # sweeps over the rows of T(E) that found the eigenvalues


# Largest h^2 max(U - E_lo rho) / 12 a grid may have.  The Numerov diagonal
# has its pole at 1; below this bound the count is monotone in E with room
# to spare, and a decaying tail still decays (h sqrt(U - E) < 2.45).
STEP_BOUND = 0.5

# Most interior rows a grid may have.  The default grids have 0.4k-1.3k rows;
# the pivot recurrence costs about 0.1 us per row (Python 3.11, x86-64), so
# one pass over 10^7 rows takes about 1 s, and a solve makes dozens.
MAX_GRID_ROWS = 10 ** 7


def _upper_bracket(w, rho, h, k):
    """An energy with at least k Numerov eigenvalues of (K + U) psi = E rho psi
    below it, where w = U / rho on the grid.

    Min-max on the vectors supported on a window of m consecutive rows:
    K <= 1.5 (-D2 / h^2) (its eigenvalues are lambda / (1 - h^2 lambda / 12)
    of those of -D2 / h^2, which are at most 4 / h^2), and the k-th eigenvalue
    of -D2 / h^2 on m rows with Dirichlet ends is 4 / h^2 sin^2(k pi /
    (2 (m + 1))).  So E_k <= max_W w + 1.5 * that / min_W rho for every
    window W; the bound is the least of these over windows of about 24
    lengths at about 64 positions each.

    The window extremes come from sparse tables (Bender and Farach-Colton,
    LATIN 2000): level j holds the max of w and the min of rho over the 2^j
    rows from each start, and a window of m rows is covered by the two level
    floor(log2 m) spans at its two ends.
    """
    n = w.size
    w_max, rho_min = [w], [rho]
    span = 1
    while 2 * span <= n:
        w_max.append(np.maximum(w_max[-1][:-span], w_max[-1][span:]))
        rho_min.append(np.minimum(rho_min[-1][:-span], rho_min[-1][span:]))
        span *= 2
    best = math.inf
    for m in np.unique(np.geomspace(k, n, 24).astype(int)).tolist():
        kinetic = 6.0 / (h * h) * math.sin(k * math.pi / (2.0 * (m + 1))) ** 2
        step = max(1, (n - m) // 64)
        j = m.bit_length() - 1
        head = slice(0, n - m + 1, step)
        tail = slice(m - (1 << j), None, step)
        top = np.maximum(w_max[j][head], w_max[j][tail])
        low = np.minimum(rho_min[j][head], rho_min[j][tail])
        best = min(best, float(np.min(top + kinetic / low)))
    return best


def _numerov_grid(potential, x_min, x_max, h, k, langer):
    """(x, rho, u = U rho (x^2 U + 1/4 on the Langer grid), w = u / rho,
    E_lo = min w, step margin) with grid_solve's checks but the step bound."""
    if x_max <= x_min:
        raise DomainError("x_max must exceed x_min")
    t_min, t_max = x_min, x_max
    if langer:
        if not x_min > 0.0:
            raise DomainError("the Langer grid of an inverse-square model needs x_min > 0")
        t_min, t_max = math.log(x_min), math.log(x_max)
    span = (t_max - t_min) / h
    if not span <= MAX_GRID_ROWS + 1:  # also an infinite span
        raise DomainError(
            "the grid on [%r, %r] with h = %r has %r interior rows, more than "
            "MAX_GRID_ROWS = %d" % (x_min, x_max, h, span - 1.0, MAX_GRID_ROWS))
    n_int = int(round(span)) - 1
    if n_int < 3:
        raise DomainError("grid too coarse for the requested domain")
    if not 1 <= k <= n_int:
        raise ParameterDomainError("need 1 <= k <= number of interior points")
    x = t_min + h * np.arange(1, n_int + 1)
    rho = np.ones(n_int)
    if langer:
        x = np.exp(x)
        rho = x * x
    ux = np.asarray(potential(x), dtype=float)
    finite = np.isfinite(ux)
    if not finite.all():
        i = int(np.argmin(finite))
        raise DomainError("U(x) = %r is not finite at x = %.15g" % (float(ux[i]), x[i]))
    if langer:
        ux = rho * ux + 0.25
    w = ux / rho
    e_lo = float(np.min(w))
    return x, rho, ux, w, e_lo, h * h / 12.0 * float(np.max(ux - e_lo * rho))


def step_margin(potential, x_min, x_max, h, langer=False):
    """h^2 max(U - E_lo rho) / 12 on grid_solve's grid (refused from STEP_BOUND)."""
    return _numerov_grid(potential, x_min, x_max, h, 1, langer)[-1]


def grid_solve(potential, x_min, x_max, h, k, langer=False, check_boundaries="both"):
    """Lowest k eigenpairs of Numerov's fourth-order discretization of
    -psi'' + U psi = E psi on [x_min, x_max] with Dirichlet ends.

    Numerov's scheme for -psi'' + U psi = E rho psi is the symmetric pencil
    (K + U) psi = E rho psi with K = -(I + D2/12)^{-1} D2 / h^2 (D2 the
    second-difference matrix).  With g_i(E) = U_i - E rho_i and
    y = (1 - h^2 g / 12) psi it reads T(E) y = 0 for the tridiagonal
    T(E) = tridiag(-1/h^2, 2/h^2 + g_i / (1 - h^2 g_i / 12), -1/h^2).  Its
    diagonal falls as E rises, so the Sturm count of T(E) is the number of
    Numerov eigenvalues below E.  Bisection on that count, one forward pass
    of the pivot recurrence per energy (_numerov_count), runs only until
    level j has a bracket whose ends count exactly j and j + 1; then the
    same loop (_levels) converges that level alone by Newton's method on the
    Rayleigh functional z^T h^2 T(E) z of a twisted factorization
    (_twisted_step), whose count, equal to the forward one by Sylvester's
    law, moves the bracket (a step out of it becomes a bisection).  Forming
    alpha_i + E rounds E by up to half an ulp of alpha_i.  The count keeps
    that floor, but the step adds the rounding back, so Newton's method aims
    at the level of the unrounded pencil; a last step that points out of the
    count's bracket ends at the bracket's end, within the floor.  A
    level's first Newton pass sweeps the rows both ways and twists where |gamma_r|
    is least; each later one twists where the previous z peaked and sweeps
    every row once.  GridSolution.passes counts the sweeps over the rows.
    Each eigenvector is y = z / |z|, the twisted vector z of its level's
    last Newton pass (h^2 T(E) z = gamma_r e_r, a scaled column of
    T(E)^{-1}), with tridiagonal_eigenvector's sign rule, and
    psi = y / (1 - h^2 g / 12).
    That pass is one step, at most 1e-10 |E|, short of the returned E, so
    it mixes a close level into y by up to that step over the gap.  A level
    within 1e-6 relative of an earlier one joins its cluster; it, and a
    level with no z (a bracket closed before any pass), a z whose norm is
    not finite, or a last step above 1e-9 of the gap to the nearest other
    level, is factorized again at its eigenvalue
    (tridiagonal_eigenvector; Dhillon and Parlett, Linear Algebra Appl. 387,
    2004), a cluster level made orthogonal to the cluster there.  Rounding
    in T(E) and its factorization, about eps |T|, still mixes close levels
    into a vector by up to eps |T| / gap; wherever that bound passes 1e-10,
    psi is also made orthogonal to the earlier level under the pencil's
    weight rho.

    U = potential(x), vectorized.  langer=True (an inverse-square wall at
    x = 0) picks the Langer grid: x = e^t with t uniform of step h on
    [ln x_min, ln x_max] and psi = e^{t/2} phi, which gives the same kind of
    problem in t, -phi'' + (x^2 U + 1/4) phi = E x^2 phi, with rho = x^2 and
    no wall.  models.default_grid gives the settings the CLI uses: h = 1/32
    (1/16 for Rosen-Morse, halved until the step bound holds) and each edge
    where the top level's WKB exponent int sqrt(U - E_top) dx (dt on the
    Langer grid) reaches 16.

    Raises DomainError, before any grid array is built, when the grid would
    have more than MAX_GRID_ROWS interior rows; DomainError when
    h^2 max(U - E_lo rho) / 12 reaches STEP_BOUND
    (E_lo = min U / rho, the lower end of the spectrum), or when a converged
    eigenvector has not decayed at a checked boundary (relative amplitude of
    psi, phi on the Langer grid, above 1e-6).  check_boundaries is "both" or
    "none"; pass "none" when some of the k states are not bound (box states
    above a continuum threshold).  ParameterDomainError, naming the argument,
    unless x_min and x_max are finite, h is finite and positive and k is an
    integer.
    """
    if check_boundaries not in ("both", "none"):
        raise ParameterDomainError("check_boundaries must be 'both' or 'none'")
    k = require_integer("k", k)
    for name, value in (("x_min", x_min), ("x_max", x_max), ("h", h)):
        if not math.isfinite(value):
            raise ParameterDomainError("%s = %r must be finite" % (name, value))
    if not h > 0.0:
        raise ParameterDomainError("h = %r must be positive" % h)
    x, rho, ux, w, e_lo, margin = _numerov_grid(potential, x_min, x_max, h, k, langer)
    if margin >= STEP_BOUND:
        raise DomainError(
            "h^2 max(U - E_lo) / 12 = %.3g >= %g; reduce h below %.3g"
            % (margin, STEP_BOUND, h * math.sqrt(STEP_BOUND / margin)))
    c = h * h / 12.0
    # diagonal of h^2 T(E): 2 + 12 c g / (1 - c g) = -10 + beta / (alpha + E)
    with np.errstate(over="ignore", divide="ignore"):
        sigma = 1.0 / (c * rho)
        beta = 12.0 * sigma
    if not np.all(np.isfinite(beta)):
        i = int(np.argmin(np.isfinite(beta)))
        raise DomainError("12 / (h^2 rho) overflows at x = %.15g; move x_min up" % x[i])
    alpha = sigma - w
    levels, sweeps = _levels(alpha, beta, e_lo, _upper_bracket(w, rho, h, k), k)
    vals = np.array([energy for energy, _, _ in levels])
    spacing = np.abs(np.diff(vals, prepend=-math.inf, append=math.inf))
    gaps = np.minimum(spacing[:-1], spacing[1:])  # to the nearest other level
    inv_h2 = 1.0 / (h * h)
    off = np.full(x.size - 1, -inv_h2)
    diags, ys, vecs = [], [], []
    for i, (_, z, lag) in enumerate(levels):
        prev = [ys[j] for j in range(i)
                if abs(vals[i] - vals[j]) < 1e-6 * max(1.0, abs(vals[i]))]
        g = ux - vals[i] * rho
        scale = 1.0 - c * g
        diags.append(2.0 * inv_h2 + g / scale)
        nrm = math.nan if z is None else float(np.linalg.norm(z))
        if prev or not math.isfinite(nrm) or abs(lag) > 1e-9 * gaps[i]:
            ys.append(tridiagonal_eigenvector(diags[i], off, 0.0, orthogonalize=prev))
        else:
            ys.append(_signed(z / nrm))
        v = ys[i] / scale
        # level j's gap on T(E_i): y_j^T T(E_i) y_j = y_j^T (T(E_i) - T(E_j)) y_j
        noise = 2.2e-16 * (float(np.max(np.abs(diags[i]))) + 2.0 * inv_h2)
        for j in range(i):
            if noise > 1e-10 * abs((diags[i] - diags[j]) @ (ys[j] * ys[j])):
                w_j = rho * vecs[j]
                v = v - (w_j @ v) / (w_j @ vecs[j]) * vecs[j]
        vecs.append(v)
    vecs = np.array(vecs)
    if check_boundaries == "both":
        for i in range(k):
            v = np.abs(vecs[i])
            vmax = v.max()
            bad_left, bad_right = v[0] > 1e-6 * vmax, v[-1] > 1e-6 * vmax
            if bad_left or bad_right:
                side = "left" if bad_left else "right"
                raise DomainError(
                    "eigenvector %d has boundary amplitude above 1.0e-06 of its max at "
                    "the %s edge; extend the domain on that side" % (i, side))
    norms = np.sqrt(h * np.sum(rho * vecs * vecs, axis=1))
    vecs = vecs / norms[:, None]
    if langer:
        vecs = vecs * np.sqrt(x)
    return GridSolution(x=x, h=h, eigenvalues=vals, eigenvectors=vecs, passes=sweeps)


def node_count(vector):
    """Strict sign changes of a sampled eigenvector, ignoring entries below
    1e-9 of the maximum amplitude.  ParameterDomainError unless the vector
    is non-empty and finite."""
    v = np.asarray(vector, dtype=float)
    if v.size == 0 or not np.all(np.isfinite(v)):
        raise ParameterDomainError("vector must be non-empty and finite")
    keep = np.abs(v) > 1e-9 * np.max(np.abs(v))
    signs = np.sign(v[keep])
    return int(np.sum(signs[1:] * signs[:-1] < 0))


# ---------------------------------------------------------------------------
# Gauss rules (Jacobi-matrix eigenvalue nodes, Christoffel weights)
# ---------------------------------------------------------------------------

@dataclass
class QuadratureRule:
    """The n nodes and positive weights of the Gauss rule for weight_id
    ("laguerre", nu) or ("jacobi", a, b); exact for polynomial integrands
    (relative to the weight) through degree 2n-1."""

    nodes: np.ndarray
    weights: np.ndarray
    weight_id: tuple

    def integrate(self, f):
        """Integral of f against the rule's weight (f given relative to it)."""
        return float(np.dot(self.weights, f(self.nodes)))


def _monic_coefficients(weight_id, n):
    """(alpha_k, beta_k, moment0) of the monic recurrence
    p_{k+1} = (x - alpha_k) p_k - beta_k p_{k-1} for the classical weights."""
    kind = weight_id[0]
    if kind == "laguerre":
        nu = weight_id[1]
        if not -1.0 < nu < math.inf:
            raise ParameterDomainError("Laguerre weight exponent must be finite and exceed -1")
        ks = np.arange(n, dtype=float)
        alpha = 2.0 * ks + nu + 1.0
        beta = ks * (ks + nu)
        m0 = math.exp(math.lgamma(nu + 1.0))
        return alpha, beta, m0
    if kind == "jacobi":
        a, b = weight_id[1], weight_id[2]  # weight (1-x)^a (1+x)^b
        if not (-1.0 < a < math.inf and -1.0 < b < math.inf):
            raise ParameterDomainError("Jacobi weight exponents must be finite and exceed -1")
        s = a + b
        k = np.arange(n, dtype=float)
        t = 2 * k + s
        alpha = np.empty(n)
        alpha[0] = (b - a) / (s + 2.0)
        alpha[1:] = (b * b - a * a) / (t[1:] * (t[1:] + 2.0))
        # beta_1 apart: the general form is 0/0 there when a + b = -1
        beta = np.zeros(n)
        beta[1:2] = 4.0 * (1.0 + a) * (1.0 + b) / ((s + 2.0) ** 2 * (s + 3.0))
        k, t = k[2:], t[2:]
        beta[2:] = 4.0 * k * (k + a) * (k + b) * (k + s) / (t * t * (t + 1.0) * (t - 1.0))
        m0 = math.exp((s + 1.0) * math.log(2.0) + math.lgamma(a + 1.0)
                      + math.lgamma(b + 1.0) - math.lgamma(s + 2.0))
        return alpha, beta, m0
    raise ParameterDomainError("unknown weight id %r" % (weight_id,))


@lru_cache(maxsize=256)
def _gauss_rule_cached(weight_id, n):
    alpha, beta, m0 = _monic_coefficients(weight_id, n)
    root_beta = np.sqrt(beta)
    x = tridiagonal_eigenvalues(alpha, root_beta[1:])
    # Christoffel function: w_i = m0 / K(x_i), K = sum_{k<n} p_k^2 over the
    # orthonormal recurrence
    # sqrt(beta_{k+1}) p_{k+1} = (x - alpha_k) p_k - sqrt(beta_k) p_{k-1}.
    # The loop also carries p'_k and K' = sum 2 p_k p'_k.  eigvalsh leaves
    # each node a few eps |T| off.  det(x - J_n) is proportional to p_n, so
    # one more step, unscaled, gives t ~ p_n and dt ~ p'_n, and the Newton
    # step -t / dt brings each node within a fraction of eps |T|; K + step K'
    # is K at the refined node to first order.  The p_k overflow at the
    # outer nodes of large rules, so p and p' are rescaled by 1/s and K, K'
    # by 1/s^2 whenever s = max|p| passes 1e100, and log s is carried apart.
    p_prev, p = np.zeros(n), np.ones(n)
    dp_prev, dp = np.zeros(n), np.zeros(n)
    total, slope = np.ones(n), np.zeros(n)
    log_scale = np.zeros(n)
    for k in range(n):
        t = (x - alpha[k]) * p - root_beta[k] * p_prev
        dt = (x - alpha[k]) * dp + p - root_beta[k] * dp_prev
        if k == n - 1:
            break
        p_prev, p = p, t / root_beta[k + 1]
        dp_prev, dp = dp, dt / root_beta[k + 1]
        total += p * p
        slope += 2.0 * p * dp
        s = np.maximum(np.abs(p), np.abs(p_prev))
        big = s > 1e100
        if big.any():
            s = np.where(big, s, 1.0)
            p, p_prev, dp, dp_prev = p / s, p_prev / s, dp / s, dp_prev / s
            total, slope = total / (s * s), slope / (s * s)
            log_scale += 2.0 * np.log(s)
    step = -t / dt
    weights = m0 / (total + step * slope) * np.exp(-log_scale)
    return QuadratureRule(nodes=x + step, weights=weights, weight_id=weight_id)


# Exponents each weight family takes after its name in a weight id.
_WEIGHT_EXPONENTS = {"laguerre": 1, "jacobi": 2}


def gauss_rule(weight_id, n):
    """Gauss rule with n nodes for weight_id ("laguerre", nu) or
    ("jacobi", a, b); exact through polynomial degree 2n-1.
    ParameterDomainError, naming the argument, unless weight_id has that
    form with real exponents and n is an integer >= 1."""
    n = require_integer("n", n)
    if n < 1:
        raise ParameterDomainError("a Gauss rule needs at least one node, got n = %d" % n)
    try:
        kind, *exponents = weight_id
        exponents = tuple(float(v) for v in exponents)
    except (TypeError, ValueError):
        kind = None
    if not (isinstance(kind, str) and _WEIGHT_EXPONENTS.get(kind) == len(exponents)):
        raise ParameterDomainError("weight_id must be ('laguerre', nu) or ('jacobi', a, b) "
                                   "with real exponents, got %r" % (weight_id,))
    return _gauss_rule_cached((kind,) + exponents, n)


# ---------------------------------------------------------------------------
# Adaptive Gauss-Kronrod integration (G7-K15 panels, vectorized integrand)
# ---------------------------------------------------------------------------

# The 15-point Kronrod rule on [-1, 1], nodes ascending, and the 7-point Gauss
# rule on its odd-indexed nodes (QUADPACK's qk15, Piessens et al. 1983).
_KRONROD_NODES = np.array([
    -0.9914553711208126, -0.9491079123427585, -0.8648644233597691,
    -0.7415311855993945, -0.5860872354676911, -0.4058451513773972,
    -0.20778495500789848, 0.0, 0.20778495500789848, 0.4058451513773972,
    0.5860872354676911, 0.7415311855993945, 0.8648644233597691,
    0.9491079123427585, 0.9914553711208126])
_KRONROD_WEIGHTS = np.array([
    0.022935322010529224, 0.06309209262997856, 0.10479001032225019,
    0.14065325971552592, 0.1690047266392679, 0.19035057806478542,
    0.20443294007529889, 0.20948214108472782, 0.20443294007529889,
    0.19035057806478542, 0.1690047266392679, 0.14065325971552592,
    0.10479001032225019, 0.06309209262997856, 0.022935322010529224])
_GAUSS_WEIGHTS = np.array([
    0.1294849661688697, 0.27970539148927664, 0.3818300505051189,
    0.4179591836734694, 0.3818300505051189, 0.27970539148927664,
    0.1294849661688697])

# Panels are not split below 2^-48 of the interval: level 48 is the last.
_MAX_LEVEL = 48


def _within_rounding(x, fx, err):
    """Whether the error estimate of each panel (row of nodes x and values
    fx) is within what the rounding of its nodes can cause.

    The computed nodes are off by up to 2 eps |x|.  Through the null rule
    K15 - G7, whose absolute weights sum to about 2, that moves the estimate
    by up to width * |f'| * 2 eps |x|, which halving the panel cannot remove.
    |f'| is taken between adjacent nodes; nodes that coincide (below the
    float resolution of x) count as within.
    """
    reach = (x[:, -1] - x[:, 0]) * 4.4e-16 * np.max(np.abs(x), axis=1)
    return np.any(err[:, None] * np.diff(x, axis=1)
                  <= reach[:, None] * np.abs(np.diff(fx, axis=1)), axis=1)


def adaptive_quad(f, a, b, tol=1e-10, max_eval=400_000):
    """Global adaptive Gauss-Kronrod (G7-K15) on (a, b) for a vectorized
    integrand.

    The panels are refined level by level, starting from (a, b).  Each level
    evaluates the 15 Kronrod nodes of every open panel in one call f(x), with
    x ascending, and takes |K15 - G7| as each panel's error estimate.  A
    panel is accepted when err <= tol * (width / (b - a)) * max(1, |K15|),
    so tol is an absolute target on the whole integral (suits the near-zero
    integrals of orthogonality checks), and halved otherwise.  A panel is
    not split when it is 2^-48 of the interval wide, or when its error is
    within what the rounding of its nodes can cause (steep integrands, such
    as near an integrable singularity); such a panel is accepted if its
    error is at most 1e3 * tol, and otherwise the quadrature stalls.  Returns
    (value, error_estimate), the sums of the accepted K15 values and error
    estimates in panel order, so the result is deterministic.

    Raises ParameterDomainError unless a < b are finite, tol is positive and
    finite and max_eval >= 15; DomainError at the first non-finite f(x); and
    AccuracyError when it stalls or the next level would take more than
    max_eval integrand values.
    """
    a, b = float(a), float(b)
    if not (a < b and math.isfinite(b - a)):
        raise ParameterDomainError(
            "integration limits must be finite with a < b, got (%r, %r)" % (a, b))
    if not 0.0 < tol < math.inf:
        raise ParameterDomainError("tol must be positive and finite, got %r" % tol)
    if not max_eval >= _KRONROD_NODES.size:
        raise ParameterDomainError("max_eval must allow one 15-point panel, got %r"
                                   % max_eval)
    lo, hi = np.array([a]), np.array([b])
    open_val = open_err = np.zeros(0)
    done_lo, done_val, done_err = [], [], []
    n_eval = 0
    for level in range(_MAX_LEVEL + 1):
        if n_eval + _KRONROD_NODES.size * lo.size > max_eval:
            raise AccuracyError(
                "adaptive quadrature exceeded its evaluation budget",
                estimates=(float(np.sum(np.concatenate(done_val + [open_val]))),
                           float(np.sum(np.concatenate(done_err + [open_err])))))
        mid, half = 0.5 * (lo + hi), 0.5 * (hi - lo)
        x = mid[:, None] + half[:, None] * _KRONROD_NODES
        fx = np.asarray(f(x.ravel()), dtype=float).reshape(x.shape)
        n_eval += x.size
        finite = np.isfinite(fx)
        if not finite.all():
            i = int(np.argmin(finite))
            raise DomainError("f(x) = %r is not finite at x = %.15g"
                              % (float(fx.flat[i]), x.flat[i]))
        kronrod = half * (fx @ _KRONROD_WEIGHTS)
        gauss = half * (fx[:, 1::2] @ _GAUSS_WEIGHTS)
        err = np.abs(kronrod - gauss)
        ok = err <= tol * ((hi - lo) / (b - a)) * np.maximum(1.0, np.abs(kronrod))
        final = np.flatnonzero(~ok)
        if level < _MAX_LEVEL:
            final = final[_within_rounding(x[final], fx[final], err[final])]
        if final.size:
            worst = final[np.argmax(err[final])]
            if err[worst] > 1e3 * tol:
                raise AccuracyError(
                    "adaptive quadrature stalled on (%.15g, %.15g)" % (lo[worst], hi[worst]),
                    estimates=(float(gauss[worst]), float(kronrod[worst])))
            ok[final] = True
        done_lo.append(lo[ok])
        done_val.append(kronrod[ok])
        done_err.append(err[ok])
        split = ~ok
        if not split.any():
            break
        open_val, open_err = kronrod[split], err[split]
        lo = np.column_stack((lo[split], mid[split])).ravel()
        hi = np.column_stack((mid[split], hi[split])).ravel()
    order = np.argsort(np.concatenate(done_lo), kind="stable")
    return (float(np.sum(np.concatenate(done_val)[order])),
            float(np.sum(np.concatenate(done_err)[order])))
