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
eigensolver gives each to a few eps |T|, and one Newton step on the
determinant, all of them in one vectorized sweep over the LDL^T pivots,
brings each within a fraction of eps |T|.  The grid oracle is
dependency-free: it counts the eigenvalues of Numerov's pencil by Sturm
sequences, through a tridiagonal matrix T(E) whose diagonal depends on E,
one energy per scalar pass of the LDL^T pivot recurrence over the rows: it
bisects until each level is alone in its bracket, then converges each level
by Newton's method on the Rayleigh functional of a twisted factorization of
T(E) (Dhillon and Parlett, Linear Algebra Appl. 387, 2004; the same pass
gives the step and the count, so the bracket keeps every step safe), and
adds each eigenvector from one twisted factorization of T(E) at its
eigenvalue.  Output is deterministic.
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
# Symmetric tridiagonal eigensolver (dense eigvalsh, Newton, twisted factorization)
# ---------------------------------------------------------------------------

def _sturm_newton(diag, off2, shifts, pivmin):
    """(Sturm counts, Newton steps) at each shift E, in one sweep over the
    rows vectorized over the shifts.

    The LDL^T pivots of T - E are q_i = d_i - E - e^2_{i-1} / q_{i-1}, each
    with |q_i| < pivmin set to -pivmin (off2 holds the squared off-diagonal
    entries), and the count is the number of negative ones, the number of
    eigenvalues below E.  Their E-derivatives follow
    q'_i = -1 + e^2_{i-1} q'_{i-1} / q_{i-1}^2 (q'_0 = -1), and since
    det(T - E) is the product of the pivots, the step -det / det' is
    -1 / sum_i q'_i / q_i.  Where that sum overflows the step is zero or not
    finite.  The pivots and ratios fill two rows x shifts tables, no larger
    than the dense matrix tridiagonal_eigenvalues hands to eigvalsh.
    """
    pivots = np.subtract.outer(diag, shifts)  # d_i - E, overwritten by q_i
    ratios = np.empty_like(pivots)  # row i holds q'_i / q_i
    q, ratio = math.inf, 0.0
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        for ei2, row, ratio_row in zip([0.0] + off2.tolist(), pivots, ratios):
            r = ei2 / q
            row -= r
            np.putmask(row, np.abs(row) < pivmin, -pivmin)
            np.divide(r * ratio - 1.0, row, out=ratio_row)
            q, ratio = row, ratio_row
        return np.count_nonzero(pivots < 0.0, axis=0), -1.0 / ratios.sum(axis=0)


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
    """(Sturm count, Newton step, row of the largest |z|) at E = energy of
    h^2 T(E) (see _numerov_count), from one twisted factorization twisted at
    row r (Dhillon and Parlett, Linear Algebra Appl. 387, 2004).

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
    return count, step, int(np.argmax(np.abs(z)))


def _closed(lo, hi, rel_tol):
    """Whether [lo, hi] is within rel_tol * max(1, |E|), or adjacent floats."""
    return hi - lo <= rel_tol * max(1.0, abs(0.5 * (lo + hi))) or math.nextafter(lo, hi) >= hi


def _isolate_levels(alpha, beta, lo0, hi0, k, rel_tol, trail):
    """Brackets (lo, hi), as lists, of the lowest k Numerov levels within
    [lo0, hi0], which has no level below lo0 and at least k below hi0: Sturm
    bisection (Barth, Martin and Wilkinson, Numer. Math. 9, 1967) on
    _numerov_count of level j's bracket, j = 0, 1, ..., until its ends count
    exactly j and j + 1, or it is closed (as an exactly degenerate pair
    ends).  Each pass's count also tightens the later levels' brackets, and
    trail gets its energy.  AccuracyError, with the bracket, 3 passes after
    halving to rel_tol."""
    lo, hi = [float(lo0)] * k, [float(hi0)] * k
    c_lo, c_hi = [0] * k, [-1] * k  # counts at the ends; at hi0 not known
    max_passes = max(0, math.ceil(math.log2(hi0 - lo0) - math.log2(rel_tol))) + 3
    for j in range(k):
        for used in range(max_passes + 1):
            if (c_lo[j] == j and c_hi[j] == j + 1) or _closed(lo[j], hi[j], rel_tol):
                break
            if used == max_passes:
                raise AccuracyError("Sturm bisection left Numerov level %d shared after %d "
                                    "passes" % (j, max_passes), estimates=(lo[j], hi[j]))
            energy = 0.5 * (lo[j] + hi[j])
            count = _numerov_count(alpha, beta, energy)
            trail.append(energy)
            for i in range(j, k):  # hi[i] >= hi[j] > energy
                if count > i:
                    hi[i], c_hi[i] = energy, count
                elif energy > lo[i]:
                    lo[i], c_lo[i] = energy, count
    return lo, hi


def _newton_level(alpha, beta, j, lo, hi, rel_tol, trail=None):
    """Numerov level j from a bracket [lo, hi] that holds it alone: Newton
    steps of _twisted_step from the midpoint, each pass's count moving the
    bracket.  The first pass twists where |gamma_r| is least, each later one
    where the previous z peaked.  A step below 1e-10 |E| and 1e-3 of the
    distance from E to the nearer end of the bracket it was computed in is
    the last (convergence is quadratic only well inside the gap to the next
    level, which a bisected bracket may not be).  A step that leaves the
    bracket, is not finite, or is below 1e-10 |E| but above half the one
    before (stuck at the rounding floor) becomes a bisection.  A closed
    bracket ends in its midpoint; trail, if given, gets the energy of each
    sweep over the rows (two for the first pass).
    AccuracyError, with the bracket, after twice the passes bisection needs."""
    lo, hi = float(lo), float(hi)  # Python floats: numpy scalars are slower
    passes = 2 * max(1, math.ceil(math.log2(max(hi - lo, rel_tol) / rel_tol))) + 4
    energy, last, twist = 0.5 * (lo + hi), math.inf, None
    for _ in range(passes):
        if _closed(lo, hi, rel_tol):
            return 0.5 * (lo + hi)
        if trail is not None:
            trail.extend([energy] * (2 if twist is None else 1))
        count, step, twist = _twisted_step(alpha, beta, energy, twist)
        near = min(energy - lo, hi - energy)
        if count <= j:
            lo = energy
        else:
            hi = energy
        small = abs(step) <= 1e-10 * abs(energy)
        if small and abs(step) <= 1e-3 * near:
            return min(max(energy + step, lo), hi)
        stuck = small and abs(step) > 0.5 * last
        energy, last = energy + step, abs(step)
        if stuck or not lo < energy < hi:
            energy = 0.5 * (lo + hi)
    raise AccuracyError("Newton's method left Numerov level %d open after %d passes"
                        % (j, passes), estimates=(lo, hi))


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
    few eps |T|, where |T| = max|d| + 2 max|e|.  One _sturm_newton pass over
    the rows at those estimates then takes a Newton step on det(T - E) for
    every eigenvalue at once, which brings the nodes of a Gauss rule (the
    eigenvalues of its Jacobi matrix; Golub and Welsch, Math. Comp. 23, 1969)
    to within a fraction of eps |T| of the exact ones.  Within a cluster the
    determinant's other roots bend the step, so estimate j takes it only
    where it is finite, at most 64 eps |T|, and points the way the pass's
    Sturm count says eigenvalue j lies (up where at most j eigenvalues are
    below the estimate).  The cap alone lets pairs that agree below float
    resolution swap: on W57+ one estimate stepped 12 eps |T| past its twin.
    ParameterDomainError unless the entries are finite and the width of the
    Gershgorin interval is too.
    """
    d, e, off2 = _tridiagonal_entries(diag, off)
    n = d.size
    radius = np.zeros(n)
    radius[:-1] += np.abs(e)
    radius[1:] += np.abs(e)
    with np.errstate(over="ignore"):
        width = float(np.max(d + radius)) - float(np.min(d - radius))
    if not math.isfinite(width):
        raise ParameterDomainError("matrix entries overflow the Sturm count")
    if n == 1:
        return d.copy()
    vals = np.linalg.eigvalsh(np.diag(d) + np.diag(e, 1), UPLO="U")
    cap = 64.0 * np.finfo(float).eps * (np.max(np.abs(d)) + 2.0 * np.max(np.abs(e)))
    pivmin = max(1e-290, float(np.max(off2)) * 1e-28)
    count, step = _sturm_newton(d, off2, vals, pivmin)
    toward = np.where(count <= np.arange(n), step >= 0.0, step <= 0.0)
    usable = toward & (np.abs(step) <= cap)  # False where the step is not finite
    return np.where(usable, vals + step, vals)


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
    v /= nrm
    lead = int(np.argmax(np.abs(v) > 1e-3 * np.max(np.abs(v))))
    if v[lead] < 0.0:
        v = -v
    return v


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
    of the pivot recurrence per energy (_numerov_count), runs only until each
    level j has a bracket whose ends count exactly j and j + 1
    (_isolate_levels); then each level is converged alone by Newton's method
    on the Rayleigh functional z^T h^2 T(E) z of a twisted factorization
    (_twisted_step), whose count, equal to the forward one by Sylvester's
    law, moves the bracket (a step out of it becomes a bisection).  Forming
    alpha_i + E rounds E by up to half an ulp of alpha_i.  The count keeps
    that floor, but the step adds the rounding back, so Newton's method aims
    at the level of the unrounded pencil; a last step that points out of the
    count's bracket ends at the bracket's end, within the floor.  A
    level's first pass sweeps the rows both ways and twists where |gamma_r|
    is least; each later one twists where the previous z peaked and sweeps
    every row once.  GridSolution.passes counts the sweeps over the rows.
    Each eigenvector comes from one twisted factorization of T(E) at its
    eigenvalue (tridiagonal_eigenvector; Dhillon and Parlett, Linear Algebra
    Appl. 387, 2004), psi = y / (1 - h^2 g / 12).  Levels within 1e-6
    relative of an earlier one form its cluster and are made orthogonal to
    it there.  Rounding in T(E) and its factorization, about eps |T|, still
    mixes close levels into a vector by up to eps |T| / gap; wherever that
    bound passes 1e-10, psi is also made orthogonal to the earlier level
    under the pencil's weight rho.

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
    trail = []
    lo, hi = _isolate_levels(alpha, beta, e_lo, _upper_bracket(w, rho, h, k), k, 1e-14, trail)
    vals = np.array([_newton_level(alpha, beta, j, lo[j], hi[j], 1e-14, trail)
                     for j in range(k)])
    inv_h2 = 1.0 / (h * h)
    off = np.full(x.size - 1, -inv_h2)
    diags, ys, vecs = [], [], []
    for i in range(k):
        prev = [ys[j] for j in range(i)
                if abs(vals[i] - vals[j]) < 1e-6 * max(1.0, abs(vals[i]))]
        g = ux - vals[i] * rho
        scale = 1.0 - c * g
        diags.append(2.0 * inv_h2 + g / scale)
        ys.append(tridiagonal_eigenvector(diags[i], off, 0.0, orthogonalize=prev))
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
    return GridSolution(x=x, h=h, eigenvalues=vals, eigenvectors=vecs, passes=len(trail))


def node_count(vector):
    """Strict sign changes of a sampled eigenvector, ignoring entries below
    1e-9 of the maximum amplitude."""
    v = np.asarray(vector, dtype=float)
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
    nodes = tridiagonal_eigenvalues(alpha, root_beta[1:])
    # Christoffel function: w_i = m0 / sum_k p_k(x_i)^2 over the orthonormal
    # recurrence sqrt(beta_{k+1}) p_{k+1} = (x - alpha_k) p_k - sqrt(beta_k) p_{k-1}.
    # The p_k overflow at the outer nodes of large rules, so the pair
    # (p_{k-1}, p_k) and the running sum are rescaled by 1/s (the sum by
    # 1/s^2) whenever s = max|p| passes 1e100, and log s is carried apart.
    p_prev = np.zeros(n)
    p = np.ones(n)
    total = np.ones(n)
    log_scale = np.zeros(n)
    for k in range(n - 1):
        p_prev, p = p, ((nodes - alpha[k]) * p - root_beta[k] * p_prev) / root_beta[k + 1]
        total += p * p
        s = np.maximum(np.abs(p), np.abs(p_prev))
        big = s > 1e100
        if big.any():
            s = np.where(big, s, 1.0)
            p, p_prev, total = p / s, p_prev / s, total / (s * s)
            log_scale += 2.0 * np.log(s)
    weights = m0 / total * np.exp(-log_scale)
    return QuadratureRule(nodes=nodes, weights=weights, weight_id=weight_id)


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
