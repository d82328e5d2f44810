"""Independent verification machinery.

Two unrelated work horses live here:

* the grid oracle, used to arbitrate closed-form spectra: Numerov's
  fourth-order discretization of the 1D Schrodinger equation with Dirichlet
  ends, on a uniform grid in x, or for the inverse-square models on the
  Langer grid x = e^t (uniform in t, psi = e^{t/2} phi, measure x dt), which
  removes the wall at x = 0, or for one parity of a potential even about
  x_min (the harmonic oscillator) on the half line, its rows staggered half
  a step from the symmetry plane; default_grid in models puts each edge
  where the top level's WKB exponent reaches 16;
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
the rows of its unit form h^2 T(E) = tridiag(-1, d(E), -1), the one form
every pivot kernel here takes.  One loop per level (_levels) bisects until
the level is alone in its bracket, then converges it by Newton's method on
the Rayleigh functional of a twisted factorization of T(E) (Dhillon and
Parlett, Linear Algebra Appl. 387, 2004; the same pass gives the step and
the count, so the bracket keeps every step safe), and takes each
eigenvector from the twisted vector of that level's last Newton pass; only
a level of a cluster, one with no usable vector, or one whose last step is
not small against its gap to the nearest level is factorized again at its
eigenvalue.  Output is deterministic.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .exceptions import (
    AccuracyError,
    DomainError,
    EvaluationOverflowError,
    ParameterDomainError,
    require_integer,
)

__all__ = [
    "GridSolution",
    "QuadratureRule",
    "tridiagonal_eigenvalues",
    "grid_solve",
    "step_margin",
    "gauss_rule",
    "adaptive_quad",
    "node_count",
]


# ---------------------------------------------------------------------------
# Tridiagonal kernels (dense eigvalsh; pivots and twisted factorization of
# the unit form tridiag(-1, d, -1))
# ---------------------------------------------------------------------------

# Pivots of h^2 T(E) are nudged away from zero to +-_TINY (see _unit_pivots).
_TINY = 1e-300


def _numerov_count(alpha, beta, edge, energy):
    """Sturm count at E = energy of the Numerov pencil
    h^2 T(E) = tridiag(-1, beta_i / (alpha_i + E) - 10, -1), its first
    diagonal entry moved by edge (alpha, beta: arrays; edge: 0, or -1 / +1
    at an even / odd symmetry plane; see grid_solve): the number of negative
    forward pivots, which is the number of Numerov eigenvalues below E."""
    d = (beta / (alpha + energy) - 10.0).tolist()
    d[0] += edge
    return _unit_count(d)


def _twisted_step(alpha, beta, edge, energy, twist=None):
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
    d[0] += edge
    n = d.size
    rows = d.tolist()
    if twist is None:
        dp, dm = _unit_pivots(rows), _unit_pivots(rows[::-1])[::-1]
        r, gamma = _twist(d, dp, dm)
        left, right = dp[:r], dm[r + 1:]
    else:
        r = twist
        left = _unit_pivots(rows[:r])
        right = _unit_pivots(rows[:r:-1])[::-1]
        gamma = rows[r]
        if r > 0:
            gamma -= 1.0 / float(left[-1])
        if r < n - 1:
            gamma -= 1.0 / float(right[0])
    count = int(np.count_nonzero(left < 0.0) + np.count_nonzero(right < 0.0)) + (gamma < 0.0)
    with np.errstate(over="ignore", invalid="ignore"):
        z = _twisted_vector(left, right)
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


def _levels(alpha, beta, edge, lo0, hi0, k):
    """([(E, z, lag)] of the lowest k levels of the Numerov pencil of alpha,
    beta and edge (_numerov_count) within [lo0, hi0], which has no level
    below lo0 and at least k below hi0, and the number of sweeps over the
    rows that found them).

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
                count, step, twist, z = _twisted_step(alpha, beta, edge, energy, twist)
            else:
                sweeps += 1
                count = _numerov_count(alpha, beta, edge, energy)
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


def tridiagonal_eigenvalues(diag, off):
    """All eigenvalues (ascending) of the symmetric tridiagonal matrix T with
    the given diagonal and off-diagonal.

    np.linalg.eigvalsh on the dense matrix (upper triangle) gives each to a
    few eps |T|, where |T| = max|d| + 2 max|e|; a Gauss rule refines its
    nodes itself (_gauss_rule_cached).  ParameterDomainError unless there
    are n >= 1 rows, the off-diagonal has length n - 1, and the entries,
    their squares and the width of the Gershgorin interval are finite.
    """
    d = np.asarray(diag, dtype=float)
    e = np.asarray(off, dtype=float)
    if d.size == 0 or e.size != d.size - 1:
        raise ParameterDomainError("need n >= 1 rows and an off-diagonal of length n-1")
    if not (np.all(np.isfinite(d)) and np.all(np.isfinite(e))):
        raise ParameterDomainError("matrix entries must be finite")
    radius = np.zeros(d.size)
    radius[:-1] += np.abs(e)
    radius[1:] += np.abs(e)
    with np.errstate(over="ignore"):
        if not np.all(np.isfinite(e * e)):
            raise ParameterDomainError("squared off-diagonal entries overflow")
        width = float(np.max(d + radius)) - float(np.min(d - radius))
    if not math.isfinite(width):
        raise ParameterDomainError("matrix entries overflow the Gershgorin interval")
    return np.linalg.eigvalsh(np.diag(d) + np.diag(e, 1), UPLO="U")


def _unit_pivots(a):
    """Pivots D_i = a_i - 1 / D_{i-1} (D_0 = a_0) of the LDL^T factorization
    of tridiag(-1, a, -1) (a: a list of Python floats), as an array, each
    nudged away from zero to +-_TINY: an exact +0 pivot becomes +_TINY, and
    the next one turns negative, as in Kahan's IEEE Sturm count.  One list
    comprehension; where a pivot is exactly 0 or below _TINY in magnitude,
    the pivots are taken again from one loop with the recurrence and nudge
    of _unit_count."""
    q = math.inf
    try:
        dp = np.fromiter([q := ai - 1.0 / q for ai in a], float, len(a))
        if not (np.abs(dp) < _TINY).any():
            return dp
    except ZeroDivisionError:  # an exact 0 pivot before the last row
        pass
    dp, q = [], math.inf
    for ai in a:
        q = ai - 1.0 / q
        if -_TINY < q < _TINY:
            q = _TINY if q >= 0.0 else -_TINY
        dp.append(q)
    return np.array(dp)


def _unit_count(a):
    """The number of negative pivots of _unit_pivots(a), from one loop of the
    same recurrence and nudge that keeps no pivots; the nudge sits behind
    the q < _TINY branch, which the rows of a grid seldom take."""
    count, q = 0, math.inf
    for ai in a:
        q = ai - 1.0 / q
        if q < _TINY:
            if q < 0.0:
                count += 1
                if q > -_TINY:
                    q = -_TINY
            else:
                q = _TINY
    return count


def _twist(a, dp, dm):
    """(r, gamma_r): the twist r where the forward pivots D+ of LDL^T and the
    backward pivots D- of UDU^T of the tridiagonal matrix with diagonal a
    meet in the least |gamma_r|, gamma_r = D+_r + D-_r - a_r."""
    gammas = dp + dm - a
    r = int(np.argmin(np.abs(gammas)))
    return r, float(gammas[r])


def _twisted_vector(left, right):
    """The vector z of a twisted factorization of tridiag(-1, a, -1), twisted
    at r = len(left): z_r = 1 and the rows of its z = gamma_r e_r other than
    r, solved outward with z_i = z_{i+1} / D+_i above r (left =
    D+_0..D+_{r-1}) and z_{i+1} = z_i / D-_{i+1} below it (right =
    D-_{r+1}..D-_{n-1})."""
    r = len(left)
    z = np.ones(r + 1 + len(right))
    z[:r] = np.cumprod(1.0 / left[::-1])[::-1]
    z[r + 1:] = np.cumprod(1.0 / right)
    return z


def _ldl_solve(dp, b):
    """x with tridiag(-1, a, -1) x = b, from the pivots dp of its LDL^T
    factorization (_unit_pivots): L y = b downward, then D L^T x = y upward,
    with L_{i+1,i} = -1 / D+_i."""
    dp, x = dp.tolist(), b.tolist()
    for i in range(1, len(x)):
        x[i] += 1.0 / dp[i - 1] * x[i - 1]
    x[-1] /= dp[-1]
    for i in range(len(x) - 2, -1, -1):
        x[i] = (x[i] + x[i + 1]) / dp[i]
    return np.array(x)


def tridiagonal_eigenvector(diag, orthogonalize=()):
    """Unit eigenvector of tridiag(-1, diag, -1) for its eigenvalue 0, with
    its leading significant entry (above 1e-3 of the largest) positive:
    grid_solve's fallback, diag (a finite float array) the diagonal of
    h^2 T(E) at a level E.  perfbench/tracing.py wraps it by this name and
    reads diag, so both stay until ROADMAP item 1's benchmark change.

    One twisted factorization (Fernando, SIAM J. Matrix Anal. Appl. 18,
    1997; Dhillon and Parlett, Linear Algebra Appl. 387, 2004; LAPACK
    dlar1v): the forward pivots D+ of LDL^T and the backward pivots D- of
    UDU^T (_unit_pivots) give gamma_r = D+_r + D-_r - diag_r, the last pivot
    when the two factorizations meet at row r, and 1 / gamma_r is the (r, r)
    entry of the inverse.  At the twist r of least |gamma_r| the solution of
    tridiag(-1, diag, -1) z = gamma_r e_r with z_r = 1 is the eigenvector,
    found by two cumulative products.

    orthogonalize holds earlier unit eigenvectors of the same cluster (levels
    too close for their twisted vectors to be told apart).  One rule keeps a
    vector: at least half of it survives its Gram-Schmidt steps, so the
    rounding those steps leave stays within twice that of the vector.  The
    twisted vector gets one step.  Every twisted vector is a column of the
    inverse, and within a cluster those columns can all lie along the
    earlier vectors (on a symmetric double well the columns of one well all
    point the same way), so where it is not kept the vector is instead the
    solution x of tridiag(-1, diag, -1) x = b, solved with the LDL^T pivots,
    and gets two steps.  b is the ramp b_i = 1 + i / (n - 1): a symmetric b
    would have no part along the odd level of a symmetric pair.  Where that
    is not kept (the third level of a three-fold cluster can keep 1e-16 of
    it), the remainder, normalized, is b for one more such solve, as inverse
    iteration does (LAPACK dstein), and again once more.  AccuracyError if
    the last is not kept, or if the vector is zero or not finite.
    """
    rows = diag.tolist()
    dp, dm = _unit_pivots(rows), _unit_pivots(rows[::-1])[::-1]
    r, _ = _twist(diag, dp, dm)
    v = _twisted_vector(dp[:r], dm[r + 1:])
    u = np.asarray(orthogonalize, dtype=float)
    if u.size:
        v = v / np.linalg.norm(v)
        v = v - (u @ v) @ u
        if np.linalg.norm(v) < 0.5:
            b = np.linspace(1.0, 2.0, diag.size)
            for _ in range(3):  # the ramp, then up to two inverse-iteration steps
                with np.errstate(over="ignore", invalid="ignore"):
                    v = _ldl_solve(dp, b)
                    v = v / np.linalg.norm(v)
                v = v - (u @ v) @ u
                v = v - (u @ v) @ u
                nrm = np.linalg.norm(v)
                if not nrm < 0.5:
                    break
                b = v / nrm
            else:
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
    under the measure h: sum_i psi(x_i) chi(x_i) h.  With a symmetry the
    rows are x_min + (i - 1/2) h on the half line and the sum runs over them
    alone, so a full-line vector of the same parity, normalized over both
    halves, is the half-line one over sqrt 2.  On the Langer grid of the
    inverse-square models x = e^t with t uniform of step h, and the measure
    is x h: sum_i psi(x_i) chi(x_i) x_i h (dx = x dt)."""

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


def _numerov_grid(potential, x_min, x_max, h, k, langer, symmetry=None):
    """(x, rho, u = U rho (x^2 U + 1/4 on the Langer grid), w = u / rho,
    E_lo = min w, step margin) with grid_solve's checks but the step bound."""
    if symmetry not in (None, "even", "odd"):
        raise ParameterDomainError("symmetry must be None, 'even' or 'odd'")
    if symmetry is not None and langer:
        raise ParameterDomainError("a symmetry plane needs the plain grid, not the Langer grid")
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
    first = 0 if symmetry is None else 1  # the first row _upper_bracket bounds on
    if not 1 <= k <= n_int - first:
        raise ParameterDomainError("need 1 <= k <= %d, the interior points from row %d on"
                                   % (n_int - first, first))
    x = t_min + h * (np.arange(1, n_int + 1) - (0.0 if symmetry is None else 0.5))
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


def step_margin(potential, x_min, x_max, h, langer=False, symmetry=None):
    """h^2 max(U - E_lo rho) / 12 on the rows grid_solve builds (refused from
    STEP_BOUND)."""
    return _numerov_grid(potential, x_min, x_max, h, 1, langer, symmetry)[-1]


def grid_solve(potential, x_min, x_max, h, k, langer=False, check_boundaries="both",
               symmetry=None):
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
    T(E)^{-1}), signed by _signed (leading significant entry positive), and
    psi = y / (1 - h^2 g / 12).
    That pass is one step, at most 1e-10 |E|, short of the returned E, so
    it mixes a close level into y by up to that step over the gap.  A level
    within 1e-6 relative of an earlier one joins its cluster; it, and a
    level with no z (a bracket closed before any pass), a z whose norm is
    not finite, or a last step above 1e-9 of the gap to the nearest other
    level, is factorized again at its eigenvalue, in the unit form
    h^2 T(E) with the Newton passes' pivots (tridiagonal_eigenvector;
    Dhillon and Parlett, Linear Algebra Appl. 387, 2004), a cluster level
    made orthogonal to the cluster there.  Rounding in T(E), its scaling by
    h^2 (exact where h is a power of two) and its factorization, about
    eps |T|, still mixes close levels into a vector by up to eps |T| / gap;
    wherever that bound passes 1e-10, psi is also made orthogonal to the
    earlier level under the pencil's weight rho.

    U = potential(x), vectorized.  langer=True (an inverse-square wall at
    x = 0) picks the Langer grid: x = e^t with t uniform of step h on
    [ln x_min, ln x_max] and psi = e^{t/2} phi, which gives the same kind of
    problem in t, -phi'' + (x^2 U + 1/4) phi = E x^2 phi, with rho = x^2 and
    no wall.  models.default_grid gives the settings with which
    models.check_spectrum verifies closed-form levels: h = 1/32
    (1/16 for Rosen-Morse, halved until the step bound holds) and each edge
    where the top level's WKB exponent int sqrt(U - E_top) dx (dt on the
    Langer grid) reaches 16.

    symmetry "even" or "odd" (None: no symmetry) solves that parity of a
    potential even about x_min on the half line [x_min, x_max].  The rows
    sit at x_min + (i - 1/2) h, so x_min lies midway between row 1 and its
    mirror image, row 0, and the Dirichlet end is at x_max - h/2.  Row 0's
    y is +y_1 (even) or -y_1 (odd), which moves the first diagonal of
    h^2 T(E) by -1 or +1 and leaves the matrix tridiagonal and symmetric; a
    mirror row on x_min itself would instead change the first off-diagonal
    in every kernel.  The upper bracket takes its windows from row 1 on,
    where that diagonal does not enter, so k may be at most the rows less
    one.  The eigenvectors are orthonormal on the half line (GridSolution).
    x_min is a symmetry plane, not an edge, so it is not a checked boundary:
    an even level need not vanish there.  The Langer grid takes no
    symmetry.

    Raises DomainError, before any grid array is built, when the grid would
    have more than MAX_GRID_ROWS interior rows; DomainError when
    h^2 max(U - E_lo rho) / 12 reaches STEP_BOUND
    (E_lo = min U / rho, the lower end of the spectrum), or when a converged
    eigenvector has not decayed at a checked boundary (relative amplitude of
    psi, phi on the Langer grid, above 1e-6; with a symmetry only x_max is
    checked).  check_boundaries is "both" or "none"; pass "none" when some
    of the k states are not bound (box states above a continuum threshold).
    ParameterDomainError, naming the argument, unless x_min and x_max are
    finite, h is finite and positive, k is an integer and symmetry is None,
    "even" or "odd" (None on the Langer grid).
    """
    if check_boundaries not in ("both", "none"):
        raise ParameterDomainError("check_boundaries must be 'both' or 'none'")
    k = require_integer("k", k)
    for name, value in (("x_min", x_min), ("x_max", x_max), ("h", h)):
        if not math.isfinite(value):
            raise ParameterDomainError("%s = %r must be finite" % (name, value))
    if not h > 0.0:
        raise ParameterDomainError("h = %r must be positive" % h)
    x, rho, ux, w, e_lo, margin = _numerov_grid(potential, x_min, x_max, h, k, langer,
                                                symmetry)
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
    edge = {"even": -1.0, "odd": 1.0}.get(symmetry, 0.0)
    first = 0 if symmetry is None else 1  # min-max windows that miss the edge row
    levels, sweeps = _levels(alpha, beta, edge, e_lo,
                             _upper_bracket(w[first:], rho[first:], h, k), k)
    vals = np.array([energy for energy, _, _ in levels])
    spacing = np.abs(np.diff(vals, prepend=-math.inf, append=math.inf))
    gaps = np.minimum(spacing[:-1], spacing[1:])  # to the nearest other level
    inv_h2 = 1.0 / (h * h)
    diags, ys, vecs = [], [], []
    for i, (_, z, lag) in enumerate(levels):
        prev = [ys[j] for j in range(i)
                if abs(vals[i] - vals[j]) < 1e-6 * max(1.0, abs(vals[i]))]
        g = ux - vals[i] * rho
        scale = 1.0 - c * g
        diags.append(2.0 * inv_h2 + g / scale)
        diags[i][0] += edge * inv_h2
        nrm = math.nan if z is None else float(np.linalg.norm(z))
        if prev or not math.isfinite(nrm) or abs(lag) > 1e-9 * gaps[i]:
            ys.append(tridiagonal_eigenvector(diags[i] * (h * h), orthogonalize=prev))
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
            bad_left = symmetry is None and v[0] > 1e-6 * vmax
            bad_right = v[-1] > 1e-6 * vmax
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


def _zeroth_moment(weight_id, log_m0):
    """e^log_m0, the weight's total mass; EvaluationOverflowError naming the
    weight when it leaves the float range."""
    try:
        return math.exp(log_m0)
    except OverflowError:
        raise EvaluationOverflowError(
            "the zeroth moment of weight %r, e^%.6g, overflows the float range"
            % (weight_id, log_m0)) from None


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
        m0 = _zeroth_moment(weight_id, math.lgamma(nu + 1.0))
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
        m0 = _zeroth_moment(weight_id, (s + 1.0) * math.log(2.0) + math.lgamma(a + 1.0)
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
    # is K at the refined node to first order.
    # The rows (p_k, p'_k) step as one (2, n) array, and (K, K'/2) accumulate
    # as one from p_k (p_k, p'_k); K' = 2 (K'/2) is formed once at the end,
    # exact in binary.  The p_k overflow at the outer nodes of large rules,
    # so both rows are rescaled by 1/s and the sums by 1/s^2 wherever
    # s = |p_k| passes 1e100, and log s is carried apart.  |p_k| alone
    # decides: p_{k-1} passed the same test a step earlier, so it is at most
    # 1e100 and max(|p_k|, |p_{k-1}|) exceeds 1e100 exactly where |p_k| does.
    prev, cur = np.zeros((2, n)), np.zeros((2, n))
    cur[0] = 1.0
    sums = np.zeros((2, n))
    sums[0] = 1.0
    log_scale = np.zeros(n)
    for k in range(n):
        nxt = (x - alpha[k]) * cur
        nxt[1] += cur[0]
        nxt -= root_beta[k] * prev
        if k == n - 1:
            break
        prev, cur = cur, nxt / root_beta[k + 1]
        sums += cur[0] * cur
        s = np.abs(cur[0])
        big = s > 1e100
        if big.any():
            s = np.where(big, s, 1.0)
            cur, prev = cur / s, prev / s
            sums = sums / (s * s)
            log_scale += 2.0 * np.log(s)
    t, dt = nxt
    step = -t / dt
    weights = m0 / (sums[0] + step * (2.0 * sums[1])) * np.exp(-log_scale)
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


def _real(name, value):
    """value as a float: ParameterDomainError naming the argument unless
    float() takes it."""
    try:
        return float(value)
    except (TypeError, ValueError):
        raise ParameterDomainError("%s must be a real number, got %r" % (name, value)) from None


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
    return np.any(err[:, None] * (x[:, 1:] - x[:, :-1])
                  <= reach[:, None] * np.abs(fx[:, 1:] - fx[:, :-1]), axis=1)


def _can_be_within_rounding(err_min, h_min, x_max, f_max):
    """False only where _within_rounding passes none of a level's failing
    panels, given the least error estimate err_min and half-width h_min of
    those panels, and bounds x_max >= |x| and f_max >= |f| on their nodes.

    A panel passes if err * dx <= reach * |df| at some pair of adjacent
    nodes.  The K15 nodes are at least 0.0423 half-widths h apart and a
    computed node is off by at most 2 eps x_max, so dx >= 0.04 h - 1e-15
    x_max; reach <= 2.1 h * 4.5e-16 x_max; and |df| <= 2 f_max.  So a panel
    can pass only if

        err * (0.04 h - 1e-15 x_max) <= 2.1 h * 4.5e-16 x_max * 2 f_max.

    Divided by h, the right side is a constant and the left side grows with
    err and h, so the inequality at (err_min, h_min) follows from the one at
    any failing panel.  A non-positive gap 0.04 h_min - 1e-15 x_max makes
    the left side non-positive, so the test is never skipped there.  The
    margins over 0.0423, 4.4e-16 and 2 cover the rounding of these products
    for floats in the normal range; with a factor outside [1e-100, 1e100]
    (or NaN) the test is always run.
    """
    if not (1e-100 < err_min and 1e-100 < h_min and x_max < 1e100 and f_max < 1e100):
        return True
    return not (err_min * (0.04 * h_min - 1e-15 * x_max)
                > 2.1 * h_min * 4.5e-16 * x_max * 2.0 * f_max)


def adaptive_quad(f, a, b, tol=1e-10, max_eval=400_000):
    """Global adaptive Gauss-Kronrod (G7-K15) on (a, b) for a vectorized
    integrand, or for m integrands on one mesh.

    The panels are refined level by level, starting from (a, b).  Each level
    evaluates the 15 Kronrod nodes of every open panel in one call f(x), with
    x 1-D and ascending within each panel, and takes |K15 - G7| as each
    panel's error estimate.  A panel is accepted when
    err <= tol * (width / (b - a)) * max(1, |K15|), so tol is an absolute
    target on the whole integral (suits the near-zero integrals of
    orthogonality checks), and halved otherwise.  A panel is not split when
    it is 2^-48 of the interval wide, or when its error is within what the
    rounding of its nodes can cause (steep integrands, such as near an
    integrable singularity); such a panel is accepted if its error is at
    most 1e3 * tol, and otherwise the quadrature stalls.  Returns
    (value, error_estimate), the sums of the accepted K15 values and error
    estimates in panel order, so the result is deterministic.

    f(x) returns either x.shape values or (m,) + x.shape, m integrands on
    the same nodes.  Then a panel is split while any component misses the
    rule above, the rounding and stall rules apply to each component, and
    value and error_estimate are arrays of shape (m,); a single component
    gives the scalar call's numbers bit for bit.

    Raises ParameterDomainError unless a < b are finite, tol is positive and
    finite, max_eval >= 15 and f(x) has one of the two shapes;
    DomainError at the first non-finite f(x); and AccuracyError when it
    stalls or the next level would take more than max_eval integrand values
    (max_eval counts nodes, whatever m is).
    """
    a, b = _real("a", a), _real("b", b)
    tol, max_eval = _real("tol", tol), _real("max_eval", max_eval)
    if not (a < b and math.isfinite(b - a)):
        raise ParameterDomainError(
            "integration limits must be finite with a < b, got (%r, %r)" % (a, b))
    if not 0.0 < tol < math.inf:
        raise ParameterDomainError("tol must be positive and finite, got %r" % tol)
    if not max_eval >= _KRONROD_NODES.size:
        raise ParameterDomainError("max_eval must allow one 15-point panel, got %r"
                                   % max_eval)
    x_max = max(abs(a), abs(b))
    lo, hi = np.array([a]), np.array([b])
    lead = ()  # () for a scalar integrand, (m,) for m components
    levels = []  # (lo, kronrod, err, accepted) of each level
    n_eval = 0
    for level in range(_MAX_LEVEL + 1):
        if n_eval + _KRONROD_NODES.size * lo.size > max_eval:
            # the accepted panels, then the parents of the open ones
            parents = levels[-1][:3] + (~levels[-1][3],)
            val, err = (np.sum(_accepted(levels + [parents], i), axis=-1) for i in (1, 2))
            raise AccuracyError("adaptive quadrature exceeded its evaluation budget",
                                estimates=(val, err) if lead else (float(val), float(err)))
        width = hi - lo
        mid, half = 0.5 * (lo + hi), 0.5 * width
        x = mid[:, None] + half[:, None] * _KRONROD_NODES
        y = np.asarray(f(x.ravel()), dtype=float)
        if level == 0 and y.ndim == 2 and y.shape[1] == x.size and y.size:
            lead = y.shape[:1]
        if y.shape != lead + (x.size,):
            raise ParameterDomainError(
                "f must return x.shape or (m,) + x.shape values, got shape %r for x "
                "of shape %r" % (y.shape, (x.size,)))
        fx = y.reshape(lead + x.shape)
        n_eval += x.size
        finite = np.isfinite(fx)
        if not finite.all():
            i = int(np.argmin(finite))
            raise DomainError("f(x) = %r is not finite at x = %.15g"
                              % (float(fx.flat[i]), x.flat[i % x.size]))
        kronrod = half * (fx @ _KRONROD_WEIGHTS)
        gauss = half * (fx[..., 1::2] @ _GAUSS_WEIGHTS)
        err = np.abs(kronrod - gauss)
        ok = err <= tol * (width / (b - a)) * np.maximum(1.0, np.abs(kronrod))
        if ok.all():
            levels.append((lo, kronrod, err, np.full(lo.size, True)))
            break
        final = fail = np.nonzero(~ok)  # (component, panel) or (panel,) index arrays
        if level < _MAX_LEVEL:
            final = None
            fail_err, fail_fx = err[fail], fx[fail]
            if _can_be_within_rounding(fail_err.min(), half.min(), x_max,
                                       np.abs(fail_fx).max()):
                within = _within_rounding(x[fail[-1]], fail_fx, fail_err)
                final = tuple(i[within] for i in fail)
        if final is not None and final[0].size:
            w = np.argmax(err[final])
            worst = tuple(i[w] for i in final)
            if err[worst] > 1e3 * tol:
                raise AccuracyError(
                    "adaptive quadrature stalled on (%.15g, %.15g)"
                    % (lo[worst[-1]], hi[worst[-1]]),
                    estimates=(float(gauss[worst]), float(kronrod[worst])))
            ok[final] = True
        accepted = ok.all(axis=0) if lead else ok
        levels.append((lo, kronrod, err, accepted))
        split = ~accepted
        if not split.any():
            break
        lo_s, mid_s, hi_s = lo[split], mid[split], hi[split]
        lo, hi = np.empty(2 * lo_s.size), np.empty(2 * lo_s.size)
        lo[0::2], lo[1::2] = lo_s, mid_s
        hi[0::2], hi[1::2] = mid_s, hi_s
    order = np.argsort(_accepted(levels, 0), kind="stable")
    val, err = (np.sum(_accepted(levels, i)[..., order], axis=-1) for i in (1, 2))
    return (val, err) if lead else (float(val), float(err))


def _accepted(levels, i):
    """Field i (lo, K15 value, error estimate) of the accepted panels, level
    by level in panel order."""
    return np.concatenate([level[i][..., level[3]] for level in levels], axis=-1)
