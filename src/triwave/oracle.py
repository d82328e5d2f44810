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

Both start from one dependency-free multisection loop over Sturm sequence
counts (many shifts per bracket counted in each sweep over the rows).  The
Gauss rules count the eigenvalues of a fixed symmetric tridiagonal matrix
and bisect to the end.  The grid oracle counts those of Numerov's pencil
through a tridiagonal matrix T(E) whose diagonal depends on E, sweeps only
until each level is alone in its bracket, and then converges each level by
Newton's method on det T(E) (a scalar pass per step that also counts, so the
bracket keeps every step safe); it adds eigenvectors by inverse iteration
with a pivoted tridiagonal solve.  Output is deterministic.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .exceptions import (
    AccuracyError,
    DomainError,
    ParameterDomainError,
)

__all__ = [
    "GridSolution",
    "QuadratureRule",
    "tridiagonal_eigenvalues",
    "tridiagonal_eigenvector",
    "grid_solve",
    "gauss_rule",
    "adaptive_quad",
    "node_count",
]


# ---------------------------------------------------------------------------
# Symmetric tridiagonal eigensolver (Sturm multisection + inverse iteration)
# ---------------------------------------------------------------------------

def _sturm_counts(diag, off2, shifts, pivmin):
    """Number of eigenvalues below each shift, via the LDL^T Sturm sequence.

    off2 holds the squared off-diagonal entries.  Vectorized over shifts so a
    whole multisection front advances in one sweep over the matrix.
    """
    q = diag[0] - shifts
    q = np.where(np.abs(q) < pivmin, -pivmin, q)
    count = (q < 0.0).astype(np.int64)
    for i in range(1, diag.size):
        q = diag[i] - shifts - off2[i - 1] / q
        q = np.where(np.abs(q) < pivmin, -pivmin, q)
        count += q < 0.0
    return count


def _numerov_counts(alpha, beta, shifts):
    """Number of Numerov eigenvalues below each shift E: the LDL^T Sturm count
    of h^2 T(E) = tridiag(-1, -10 + beta_i / (alpha_i + E), -1).

    alpha and beta are lists of Python floats (see grid_solve).  A zero pivot
    divides to an infinite one, which the next row turns back into a finite
    pivot with the right count (IEEE Sturm count, Kahan), so unlike
    _sturm_counts no pivot guard is needed: the off-diagonal is never zero.
    """
    with np.errstate(divide="ignore"):
        p = beta[0] / (alpha[0] + shifts) - 10.0
        count = (p < 0.0).astype(np.int64)
        t = np.empty_like(p)
        for a, b in zip(alpha[1:], beta[1:]):
            np.add(shifts, a, out=t)
            np.divide(b, t, out=t)
            np.divide(1.0, p, out=p)
            p += 10.0
            np.subtract(t, p, out=p)
            count += p < 0.0
    return count


def _numerov_newton(alpha, beta, energy):
    """(Sturm count, Newton step) of the Numerov pencil at E = energy, in one
    pass of Python floats over the rows of h^2 T(E) (see _numerov_counts).

    The leading principal minors of h^2 T(E) follow the continuant
    p_i = d_i p_{i-1} - p_{i-2} (p_{-1} = 1, p_{-2} = 0) with
    d_i = beta_i / (alpha_i + E) - 10, and their E-derivatives follow
    p'_i = d_i p'_{i-1} - p'_{i-2} - beta_i / (alpha_i + E)^2 p_{i-1}; both
    are rescaled together when |p| passes 1e100.  The count is the number of
    sign changes of p, where a zero p_i keeps the sign of p_{i-1}: that is
    how _numerov_counts counts it (the pivot p_i / p_{i-1} is +0, not
    negative, and the next one -inf), so the two kernels agree.  The step is
    -p_n / p'_n on the whole determinant, inf where p'_n = 0.
    """
    p_prev, p = 0.0, 1.0
    dp_prev, dp = 0.0, 0.0
    sign, count = 1.0, 0
    for a, b in zip(alpha, beta):
        s = a + energy
        t = b / s
        d = t - 10.0
        p_prev, p = p, d * p - p_prev
        dp_prev, dp = dp, d * dp - dp_prev - t / s * p_prev
        if p * sign < 0.0:
            sign = -sign
            count += 1
        if not -1e100 <= p <= 1e100:
            p, p_prev, dp, dp_prev = p * 1e-100, p_prev * 1e-100, dp * 1e-100, dp_prev * 1e-100
    return count, (-p / dp if dp != 0.0 else math.inf)


def _newton_level(alpha, beta, j, lo, hi, rel_tol):
    """Numerov level j from a bracket [lo, hi] that holds it alone: Newton
    steps of _numerov_newton from the midpoint, each pass's count moving the
    bracket.  A step that leaves the bracket, or is not finite, is replaced
    by the bracket's midpoint; a step below 1e-10 |E| is the last, since
    convergence is quadratic, and a bracket within rel_tol * max(1, |E|)
    (or between adjacent floats) ends in its midpoint.  AccuracyError, with
    the bracket, if neither happens within twice the passes that bisection
    alone would need."""
    lo, hi = float(lo), float(hi)  # Python floats: numpy scalars are slower
    passes = 2 * max(1, math.ceil(math.log2(max(hi - lo, rel_tol) / rel_tol))) + 4
    energy = 0.5 * (lo + hi)
    for _ in range(passes):
        if hi - lo <= rel_tol * max(1.0, abs(energy)) or math.nextafter(lo, hi) >= hi:
            return 0.5 * (lo + hi)
        count, step = _numerov_newton(alpha, beta, energy)
        if count <= j:
            lo = energy
        else:
            hi = energy
        if abs(step) <= 1e-10 * abs(energy):
            return min(max(energy + step, lo), hi)
        energy += step
        if not lo < energy < hi:
            energy = 0.5 * (lo + hi)
    raise AccuracyError("Newton's method left Numerov level %d open after %d passes"
                        % (j, passes), estimates=(lo, hi))


# Shifts counted per Sturm sweep.  A sweep is a Python loop over the rows, so
# its cost hardly depends on how many shifts ride along; spending the whole
# budget in every sweep cuts the sweep count (multisection, as in LAPACK
# dstebz) instead of halving each bracket once per sweep.
SHIFT_BUDGET = 512


def tridiagonal_eigenvalues(diag, off, k=None, rel_tol=1e-14):
    """Lowest k eigenvalues (ascending) of the symmetric tridiagonal matrix
    with the given diagonal and off-diagonal.

    Multisection on Sturm counts.  Eigenvalues that share a bracket share its
    shifts: each sweep places m = SHIFT_BUDGET // (distinct open brackets)
    equally spaced shifts (at least one) inside every distinct open bracket,
    counts them all in one pass over the rows, and keeps for each eigenvalue
    the pair of adjacent shifts whose counts straddle its index, so brackets
    shrink by m + 1 per sweep.  A bracket whose width is at most
    rel_tol * max(1, |E|), or whose ends are adjacent floats, gets one more
    sweep and closes; the extra sweep keeps the returned midpoint well inside
    the tolerance.  AccuracyError if a bracket is still open after the sweeps
    that rel_tol needs.
    """
    d = np.asarray(diag, dtype=float)
    e = np.asarray(off, dtype=float)
    n = d.size
    if e.size != max(n - 1, 0):
        raise ParameterDomainError("off-diagonal must have length n-1")
    if k is None:
        k = n
    if not 1 <= k <= n:
        raise ParameterDomainError("need 1 <= k <= n")
    if not (np.all(np.isfinite(d)) and np.all(np.isfinite(e))):
        raise ParameterDomainError("matrix entries must be finite")
    if not 0.0 < rel_tol < math.inf:
        raise ParameterDomainError("rel_tol must be positive and finite")
    if n == 1:
        return d.copy()[:k]
    radius = np.zeros(n)
    radius[:-1] += np.abs(e)
    radius[1:] += np.abs(e)
    lo_glob = float(np.min(d - radius))
    hi_glob = float(np.max(d + radius))
    span = max(hi_glob - lo_glob, 1e-30)
    with np.errstate(over="ignore"):
        off2 = e * e
    pivmin = max(1e-290, float(np.max(off2)) * 1e-28)
    lo0 = lo_glob - 1e-3 * span
    hi0 = hi_glob + 1e-3 * span
    if not (math.isfinite(hi0 - lo0) and math.isfinite(pivmin)):
        raise ParameterDomainError("matrix entries overflow the Sturm count")
    return _multisection(lambda shifts: _sturm_counts(d, off2, shifts, pivmin),
                         lo0, hi0, k, rel_tol)


def _multisection(count, lo0, hi0, k, rel_tol, isolate=False):
    """Lowest k eigenvalues by multisection of the start bracket [lo0, hi0],
    which must hold no eigenvalue below lo0 and at least k below hi0;
    count(shifts) returns the number of eigenvalues below each shift.

    Returns the bracket midpoints.  With isolate, a bracket also closes one
    sweep after its ends count exactly j and j + 1 eigenvalues below them,
    so that it holds level j alone, and the brackets (lo, hi) are returned
    instead, for a method that converges faster once a level is alone."""
    lo = np.full(k, lo0)
    hi = np.full(k, hi0)
    # counts at the bracket ends; the count at hi0 is not known (-1)
    c_lo = np.zeros(k, dtype=np.int64)
    c_hi = np.full(k, -1, dtype=np.int64)
    idx = np.arange(k)
    done = np.zeros(k, dtype=bool)
    # every sweep divides a width by at least m + 1 for the starting m (m only
    # grows as brackets close or merge), every target width is at least
    # rel_tol, and one sweep follows the target; the rest is rounding margin
    bits = math.log2(hi0 - lo0) - math.log2(rel_tol)
    max_sweeps = max(0, math.ceil(bits / math.log2(max(1, SHIFT_BUDGET // k) + 1))) + 3
    for sweep in range(max_sweeps + 1):
        open_ = np.flatnonzero(~done)
        if open_.size == 0:
            return (lo, hi) if isolate else 0.5 * (lo + hi)
        if sweep == max_sweeps:
            widest = open_[np.argmax(hi[open_] - lo[open_])]
            raise AccuracyError(
                "Sturm multisection left %d brackets open after %d sweeps"
                % (open_.size, max_sweeps), estimates=(lo[widest], hi[widest]))
        # eigenvalues that share a bracket share its shifts
        pairs, first, owner = np.unique(np.column_stack((lo[open_], hi[open_])), axis=0,
                                        return_index=True, return_inverse=True)
        owner = owner.reshape(-1)  # numpy 2.0.0 returns it as a column
        p_lo, p_hi = pairs[:, 0], pairs[:, 1]
        pc_lo, pc_hi = c_lo[open_[first]], c_hi[open_[first]]
        width = p_hi - p_lo
        closing = ((width <= rel_tol * np.maximum(1.0, np.abs(p_lo + 0.5 * width)))
                   | (np.nextafter(p_lo, p_hi) >= p_hi))
        if isolate:
            closing |= pc_hi - pc_lo == 1
        done[open_] = closing[owner]
        m = max(1, SHIFT_BUDGET // pairs.shape[0])
        shifts = p_lo[:, None] + width[:, None] * (np.arange(1, m + 1) / (m + 1))
        cnt = count(shifts.ravel()).reshape(shifts.shape)
        p = np.sum(cnt[owner] <= idx[open_, None], axis=1)
        ends = np.hstack((p_lo[:, None], shifts, p_hi[:, None]))[owner]
        end_counts = np.hstack((pc_lo[:, None], cnt, pc_hi[:, None]))[owner]
        rows = np.arange(open_.size)
        lo[open_] = ends[rows, p]
        hi[open_] = ends[rows, p + 1]
        c_lo[open_] = end_counts[rows, p]
        c_hi[open_] = end_counts[rows, p + 1]


def _tridiag_solve_shifted(d, e, lam, rhs):
    """Solve (T - lam*I) x = rhs by Gaussian elimination with partial
    pivoting on the three bands.  Near-zero pivots are nudged, which is
    exactly what inverse iteration wants.  The inner loop runs on plain
    lists, noticeably faster than ndarray scalar indexing."""
    n = len(d)
    a = [float(v) - lam for v in d]   # diagonal
    b = [float(v) for v in e] + [0.0]  # superdiagonal, b[i] = A[i, i+1]
    c = [float(v) for v in e] + [0.0]  # subdiagonal,   c[i] = A[i+1, i]
    f = [0.0] * n                      # fill-in second superdiagonal
    x = [float(v) for v in rhs]
    tiny = 1e-300
    for i in range(n - 1):
        if abs(c[i]) > abs(a[i]):
            a[i], c[i] = c[i], a[i]
            b[i], a[i + 1] = a[i + 1], b[i]
            if i < n - 2:
                f[i], b[i + 1] = b[i + 1], f[i]
            x[i], x[i + 1] = x[i + 1], x[i]
        piv = a[i]
        if abs(piv) < tiny:
            piv = tiny if piv >= 0.0 else -tiny
            a[i] = piv
        m = c[i] / piv
        a[i + 1] -= m * b[i]
        if i < n - 2:
            b[i + 1] -= m * f[i]
        x[i + 1] -= m * x[i]
    # back substitution with on-the-fly rescaling: eigenvectors of matrices
    # with widely spread spectra span hundreds of orders of magnitude, so the
    # growing solution (and the untouched part of the rhs) is shrunk whenever
    # it approaches overflow; only the direction matters to the caller.
    big, shrink = 1e250, 1e-250
    out = [0.0] * n

    def _piv(v):
        return v if abs(v) >= tiny else (tiny if v >= 0.0 else -tiny)

    out[n - 1] = x[n - 1] / _piv(a[n - 1])
    if n >= 2:
        out[n - 2] = (x[n - 2] - b[n - 2] * out[n - 1]) / _piv(a[n - 2])
    for i in range(n - 3, -1, -1):
        out[i] = (x[i] - b[i] * out[i + 1] - f[i] * out[i + 2]) / _piv(a[i])
        if abs(out[i]) > big:
            for j in range(i, n):
                out[j] *= shrink
            for j in range(0, i):
                x[j] *= shrink
    return np.array(out)


def tridiagonal_eigenvector(diag, off, eigenvalue, orthogonalize=()):
    """Inverse-iteration eigenvector for a known eigenvalue (three steps);
    deterministic start vector, unit 2-norm result, positive leading
    significant entry."""
    d = np.asarray(diag, dtype=float)
    e = np.asarray(off, dtype=float)
    n = d.size
    if n == 1:
        return np.ones(1)
    rng = np.random.default_rng(12345)
    v = rng.standard_normal(n)
    v /= np.linalg.norm(v)
    for _ in range(3):
        v = _tridiag_solve_shifted(d, e, eigenvalue, v)
        for u in orthogonalize:
            v -= np.dot(u, v) * u
        nrm = np.linalg.norm(v)
        if not np.isfinite(nrm) or nrm == 0.0:
            raise AccuracyError("inverse iteration failed to converge")
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
    x_min: float = 0.0
    x_max: float = 0.0


def _resolve_potential(model_or_potential):
    """(U as a vectorized function of x, whether the model gets the Langer
    grid): the inverse-square models do, a plain callable never does."""
    if callable(model_or_potential):
        return model_or_potential, False
    from . import models  # local import avoids a module cycle
    langer = isinstance(model_or_potential, (models.OscillatorInverseSquare,
                                             models.SupercriticalInverseSquare))
    return (lambda x: models.potential_eval(model_or_potential, x)), langer


# Largest h^2 max(U - E_lo rho) / 12 a grid may have.  The Numerov diagonal
# has its pole at 1; below this bound the count is monotone in E with room
# to spare, and a decaying tail still decays (h sqrt(U - E) < 2.45).
STEP_BOUND = 0.5


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
    """
    n = w.size
    best = math.inf
    for m in np.unique(np.geomspace(k, n, 24).astype(int)):
        kinetic = 6.0 / (h * h) * math.sin(k * math.pi / (2.0 * (m + 1))) ** 2
        step = max(1, (n - m) // 64)
        w_max = sliding_window_view(w, m)[::step].max(axis=1)
        rho_min = sliding_window_view(rho, m)[::step].min(axis=1)
        best = min(best, float(np.min(w_max + kinetic / rho_min)))
    return best


def grid_solve(model, x_min, x_max, h, k, check_boundaries="both"):
    """Lowest k eigenpairs of Numerov's fourth-order discretization of
    -psi'' + U psi = E psi on [x_min, x_max] with Dirichlet ends.

    Numerov's scheme for -psi'' + U psi = E rho psi is the symmetric pencil
    (K + U) psi = E rho psi with K = -(I + D2/12)^{-1} D2 / h^2 (D2 the
    second-difference matrix).  With g_i(E) = U_i - E rho_i and
    y = (1 - h^2 g / 12) psi it reads T(E) y = 0 for the tridiagonal
    T(E) = tridiag(-1/h^2, 2/h^2 + g_i / (1 - h^2 g_i / 12), -1/h^2).  Its
    diagonal falls as E rises, so the Sturm count of T(E) is the number of
    Numerov eigenvalues below E.  Multisection on that count runs only until
    each level j has a bracket whose ends count exactly j and j + 1, plus
    one sweep; then each level is converged alone by Newton's method on
    det h^2 T(E), the continuant of _numerov_newton, whose count in the same
    pass moves the bracket (a step out of it becomes a bisection).  Each
    eigenvector comes from inverse iteration on T(E) at its eigenvalue,
    psi = y / (1 - h^2 g / 12).

    Model objects of the inverse-square families (a wall at x = 0) get the
    Langer grid: x = e^t with t uniform of step h on [ln x_min, ln x_max] and
    psi = e^{t/2} phi, which gives the same kind of problem in t,
    -phi'' + (x^2 U + 1/4) phi = E x^2 phi, with rho = x^2 and no wall.
    models.default_grid gives the settings the CLI uses: h = 1/32 (1/16 for
    Rosen-Morse) and each edge where the top level's WKB exponent
    int sqrt(U - E_top) dx (dt on the Langer grid) reaches 16.

    Raises DomainError when h^2 max(U - E_lo rho) / 12 reaches STEP_BOUND
    (E_lo = min U / rho, the lower end of the spectrum), or when a converged
    eigenvector has not decayed at a checked boundary (relative amplitude of
    psi, phi on the Langer grid, above 1e-6).  check_boundaries is "both" or
    "none"; pass "none" when some of the k states are not bound (box states
    above a continuum threshold).
    """
    if check_boundaries not in ("both", "none"):
        raise ParameterDomainError("check_boundaries must be 'both' or 'none'")
    if x_max <= x_min:
        raise DomainError("x_max must exceed x_min")
    u, langer = _resolve_potential(model)
    t_min, t_max = x_min, x_max
    if langer:
        if not x_min > 0.0:
            raise DomainError("the Langer grid of an inverse-square model needs x_min > 0")
        t_min, t_max = math.log(x_min), math.log(x_max)
    n_int = int(round((t_max - t_min) / h)) - 1
    if n_int < 3:
        raise DomainError("grid too coarse for the requested domain")
    if not 1 <= k <= n_int:
        raise ParameterDomainError("need 1 <= k <= number of interior points")
    x = t_min + h * np.arange(1, n_int + 1)
    rho = np.ones(n_int)
    if langer:
        x = np.exp(x)
        rho = x * x
    ux = np.asarray(u(x), dtype=float)
    finite = np.isfinite(ux)
    if not finite.all():
        i = int(np.argmin(finite))
        raise DomainError("U(x) = %r is not finite at x = %.15g" % (float(ux[i]), x[i]))
    if langer:
        ux = rho * ux + 0.25
    w = ux / rho
    e_lo = float(np.min(w))
    c = h * h / 12.0
    margin = c * float(np.max(ux - e_lo * rho))
    if margin >= STEP_BOUND:
        raise DomainError(
            "h^2 max(U - E_lo) / 12 = %.3g >= %g; reduce h below %.3g"
            % (margin, STEP_BOUND, h * math.sqrt(STEP_BOUND / margin)))
    # diagonal of h^2 T(E): 2 + 12 c g / (1 - c g) = -10 + beta / (alpha + E)
    with np.errstate(over="ignore", divide="ignore"):
        sigma = 1.0 / (c * rho)
        beta = 12.0 * sigma
    if not np.all(np.isfinite(beta)):
        i = int(np.argmin(np.isfinite(beta)))
        raise DomainError("12 / (h^2 rho) overflows at x = %.15g; move x_min up" % x[i])
    alpha = (sigma - w).tolist()
    beta = beta.tolist()
    lo, hi = _multisection(lambda shifts: _numerov_counts(alpha, beta, shifts),
                           e_lo, _upper_bracket(w, rho, h, k), k, 1e-14, isolate=True)
    vals = np.array([_newton_level(alpha, beta, j, lo[j], hi[j], 1e-14) for j in range(k)])
    inv_h2 = 1.0 / (h * h)
    off = np.full(n_int - 1, -inv_h2)
    ys, vecs = [], []
    for i in range(k):
        prev = [ys[j] for j in range(i)
                if abs(vals[i] - vals[j]) < 1e-6 * max(1.0, abs(vals[i]))]
        g = ux - vals[i] * rho
        scale = 1.0 - c * g
        ys.append(tridiagonal_eigenvector(2.0 * inv_h2 + g / scale, off, 0.0,
                                          orthogonalize=prev))
        vecs.append(ys[-1] / scale)
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
    return GridSolution(x=x, h=h, eigenvalues=vals, eigenvectors=vecs,
                        x_min=x_min, x_max=x_max)


def node_count(vector):
    """Strict sign changes of a sampled eigenvector, ignoring entries below
    1e-9 of the maximum amplitude."""
    v = np.asarray(vector, dtype=float)
    keep = np.abs(v) > 1e-9 * np.max(np.abs(v))
    signs = np.sign(v[keep])
    return int(np.sum(signs[1:] * signs[:-1] < 0))


# ---------------------------------------------------------------------------
# Gauss rules (Sturm-multisection nodes, Christoffel weights)
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
    nodes = tridiagonal_eigenvalues(alpha, root_beta[1:], k=n)
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


def gauss_rule(weight_id, n):
    """Gauss rule with n nodes for weight_id ("laguerre", nu) or
    ("jacobi", a, b); exact through polynomial degree 2n-1."""
    if n < 1:
        raise ParameterDomainError("a Gauss rule needs at least one node")
    key = (weight_id[0],) + tuple(float(v) for v in weight_id[1:])
    return _gauss_rule_cached(key, int(n))


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
