"""Independent verification machinery.

Two unrelated work horses live here:

* a direct three-point finite-difference discretization of the 1D
  Schrodinger equation on the real line (the grid oracle), used to
  arbitrate closed-form spectra, and
* Gauss quadrature rule generation from monic recurrence coefficients
  (nodes as the Jacobi-matrix eigenvalues, weights from the Christoffel
  function of the orthonormal recurrence), plus adaptive Simpson
  integration for non-classical weights.

Both are built on a dependency-free symmetric-tridiagonal eigensolver:
eigenvalues by multisection on Sturm sequence counts (many shifts per
bracket counted in each sweep over the rows); the grid oracle adds
eigenvectors by inverse iteration with a pivoted tridiagonal solve.  Output
is deterministic.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .exceptions import (
    AccuracyError,
    DomainError,
    ParameterDomainError,
)
from . import orthopoly

__all__ = [
    "GridSolution",
    "QuadratureRule",
    "tridiagonal_eigenvalues",
    "tridiagonal_eigenvector",
    "grid_solve",
    "gauss_rule",
    "overlap_integral",
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
    lo = np.full(k, lo0)
    hi = np.full(k, hi0)
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
            return 0.5 * (lo + hi)
        if sweep == max_sweeps:
            widest = open_[np.argmax(hi[open_] - lo[open_])]
            raise AccuracyError(
                "Sturm multisection left %d brackets open after %d sweeps"
                % (open_.size, max_sweeps), estimates=(lo[widest], hi[widest]))
        # eigenvalues that share a bracket share its shifts
        pairs, owner = np.unique(np.column_stack((lo[open_], hi[open_])), axis=0,
                                 return_inverse=True)
        owner = owner.reshape(-1)  # numpy 2.0.0 returns it as a column
        p_lo, p_hi = pairs[:, 0], pairs[:, 1]
        width = p_hi - p_lo
        within = ((width <= rel_tol * np.maximum(1.0, np.abs(p_lo + 0.5 * width)))
                  | (np.nextafter(p_lo, p_hi) >= p_hi))
        done[open_] = within[owner]
        m = max(1, SHIFT_BUDGET // pairs.shape[0])
        shifts = p_lo[:, None] + width[:, None] * (np.arange(1, m + 1) / (m + 1))
        cnt = _sturm_counts(d, off2, shifts.ravel(), pivmin).reshape(shifts.shape)
        p = np.sum(cnt[owner] <= idx[open_, None], axis=1)
        ends = np.hstack((p_lo[:, None], shifts, p_hi[:, None]))[owner]
        rows = np.arange(open_.size)
        lo[open_] = ends[rows, p]
        hi[open_] = ends[rows, p + 1]


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


def tridiagonal_eigenvector(diag, off, eigenvalue, n_iter=3, orthogonalize=()):
    """Inverse-iteration eigenvector for a known eigenvalue; deterministic
    start vector, unit 2-norm result, positive leading significant entry."""
    d = np.asarray(diag, dtype=float)
    e = np.asarray(off, dtype=float)
    n = d.size
    if n == 1:
        return np.ones(1)
    rng = np.random.default_rng(12345)
    v = rng.standard_normal(n)
    v /= np.linalg.norm(v)
    for _ in range(n_iter):
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
    """Eigenpairs of the discretized Hamiltonian -d^2/dx^2 + U(x) in E0 units.

    Eigenvectors are sampled on the interior grid points and unit-normalized
    under the trapezoid measure; boundary values are pinned to zero."""

    x: np.ndarray
    h: float
    eigenvalues: np.ndarray
    eigenvectors: np.ndarray  # shape (k, npoints)
    x_min: float = 0.0
    x_max: float = 0.0


def _resolve_potential(model_or_potential):
    if callable(model_or_potential):
        return model_or_potential
    from . import models  # local import avoids a module cycle
    return lambda x: models.potential_eval(model_or_potential, x)


def grid_solve(model, x_min, x_max, h, k, check_boundaries="both",
               boundary_rel=1e-6):
    """Lowest k eigenpairs of the three-point discretization on [x_min, x_max]
    with Dirichlet ends.

    The step must satisfy h^2 * max|U| < 0.1, and converged eigenvectors must
    have decayed at the checked boundaries (relative amplitude below
    boundary_rel), otherwise a DomainError suggests how to fix the run.
    check_boundaries is one of "both", "left", "right", "none"; pass "right"
    when the left edge is a singular cutoff (e.g. an inverse-square wall)
    whose convergence is instead controlled by cutoff halving.
    """
    if x_max <= x_min:
        raise DomainError("x_max must exceed x_min")
    u = _resolve_potential(model)
    n_int = int(round((x_max - x_min) / h)) - 1
    if n_int < 3:
        raise DomainError("grid too coarse for the requested domain")
    if not 1 <= k <= n_int:
        raise ParameterDomainError("need 1 <= k <= number of interior points")
    x = x_min + h * np.arange(1, n_int + 1)
    ux = np.asarray(u(x), dtype=float)
    finite = np.isfinite(ux)
    if not finite.all():
        i = int(np.argmin(finite))
        raise DomainError("U(x) = %r is not finite at x = %.15g" % (float(ux[i]), x[i]))
    umax = float(np.max(np.abs(ux)))
    if h * h * umax >= 0.1:
        raise DomainError(
            "h^2 max|U| = %.3g >= 0.1; reduce h below %.3g"
            % (h * h * umax, math.sqrt(0.1 / umax)))
    inv_h2 = 1.0 / (h * h)
    diag = 2.0 * inv_h2 + ux
    off = np.full(n_int - 1, -inv_h2)
    vals = tridiagonal_eigenvalues(diag, off, k=k)
    vecs = []
    for i in range(k):
        prev = [vecs[j] for j in range(i)
                if abs(vals[i] - vals[j]) < 1e-6 * max(1.0, abs(vals[i]))]
        vecs.append(tridiagonal_eigenvector(diag, off, vals[i], orthogonalize=prev))
    vecs = np.array(vecs)
    for i in range(k):
        v = np.abs(vecs[i])
        vmax = v.max()
        bad_left = check_boundaries in ("both", "left") and v[0] > boundary_rel * vmax
        bad_right = check_boundaries in ("both", "right") and v[-1] > boundary_rel * vmax
        if bad_left or bad_right:
            side = "left" if bad_left else "right"
            raise DomainError(
                "eigenvector %d has boundary amplitude above %.1e of its max at the "
                "%s edge; extend the domain on that side" % (i, boundary_rel, side))
    norms = np.sqrt(h * np.sum(vecs * vecs, axis=1))
    vecs = vecs / norms[:, None]
    return GridSolution(x=x, h=h, eigenvalues=vals, eigenvectors=vecs,
                        x_min=x_min, x_max=x_max)


def node_count(vector, rel_floor=1e-9):
    """Strict sign changes of a sampled eigenvector, ignoring entries below
    rel_floor of the maximum amplitude."""
    v = np.asarray(vector, dtype=float)
    keep = np.abs(v) > rel_floor * np.max(np.abs(v))
    signs = np.sign(v[keep])
    return int(np.sum(signs[1:] * signs[:-1] < 0))


# ---------------------------------------------------------------------------
# Gauss rules (Sturm-multisection nodes, Christoffel weights)
# ---------------------------------------------------------------------------

@dataclass
class QuadratureRule:
    """Nodes and positive weights integrating the identified weight exactly
    for polynomial integrands up to exactness_degree."""

    nodes: np.ndarray
    weights: np.ndarray
    exactness_degree: int
    weight_id: tuple

    def integrate(self, f):
        """Integral of f against the rule's weight (f given relative to it)."""
        return float(np.dot(self.weights, f(self.nodes)))

    def weight_density(self, x):
        kind = self.weight_id[0]
        if kind == "laguerre":
            return orthopoly.weight_eval(orthopoly.LaguerreFamily(self.weight_id[1]), x)
        if kind == "jacobi":
            return orthopoly.weight_eval(
                orthopoly.JacobiFamily(self.weight_id[1], self.weight_id[2]), x)
        raise ParameterDomainError("unknown weight id %r" % (self.weight_id,))


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
    return QuadratureRule(nodes=nodes, weights=weights,
                          exactness_degree=2 * n - 1, weight_id=weight_id)


def gauss_rule(weight_id, n):
    """Gauss rule with n nodes for weight_id ("laguerre", nu) or
    ("jacobi", a, b); exact through polynomial degree 2n-1."""
    if n < 1:
        raise ParameterDomainError("a Gauss rule needs at least one node")
    key = (weight_id[0],) + tuple(float(v) for v in weight_id[1:])
    return _gauss_rule_cached(key, int(n))


# ---------------------------------------------------------------------------
# Adaptive Simpson integration (vectorized integrand)
# ---------------------------------------------------------------------------

def _simpson(f0, fm, f1, width):
    return width * (f0 + 4.0 * fm + f1) / 6.0


def adaptive_quad(f, a, b, tol=1e-10, max_depth=48, max_eval=400_000):
    """Global adaptive Simpson on (a, b) for a vectorized integrand.

    The per-interval error budget is proportional to the interval width, with
    tol interpreted as an absolute target on the whole integral (suits the
    near-zero integrals of orthogonality checks).  Returns (value,
    error_estimate); raises AccuracyError when the budget runs out.
    """
    a, b = float(a), float(b)
    min_h = (b - a) * 2.0 ** (-max_depth)
    xs = np.array([a, 0.5 * (a + b), b])
    f0, fm, f1 = np.asarray(f(xs), dtype=float)
    stack = [(a, b, f0, fm, f1, _simpson(f0, fm, f1, b - a))]
    total = 0.0
    err_total = 0.0
    n_eval = 3
    while stack:
        x0, x1, f0, fm, f1, coarse = stack.pop()
        xm = 0.5 * (x0 + x1)
        xl = 0.5 * (x0 + xm)
        xr = 0.5 * (xm + x1)
        fl, fr = np.asarray(f(np.array([xl, xr])), dtype=float)
        n_eval += 2
        left = _simpson(f0, fl, fm, xm - x0)
        right = _simpson(fm, fr, f1, x1 - xm)
        fine = left + right
        err = (fine - coarse) / 15.0
        width = x1 - x0
        allowed = tol * (width / (b - a)) * max(1.0, abs(fine))
        if abs(err) <= allowed or width <= min_h:
            if width <= min_h and abs(err) > 1e3 * tol:
                raise AccuracyError(
                    "adaptive quadrature stalled on (%g, %g)" % (x0, x1),
                    estimates=(coarse, fine))
            total += fine + err
            err_total += abs(err)
        else:
            stack.append((x0, xm, f0, fl, fm, left))
            stack.append((xm, x1, fm, fr, f1, right))
        if n_eval > max_eval:
            raise AccuracyError("adaptive quadrature exceeded its evaluation budget",
                                estimates=(total, err_total))
    return total, err_total


# ---------------------------------------------------------------------------
# Overlap integrals
# ---------------------------------------------------------------------------

def overlap_integral(f, g, measure, support, rule=None, tol=1e-10):
    """Integral of f*g*measure over the support, with an error estimate.

    With a QuadratureRule the integrand is divided by the rule's weight
    density pointwise and the rule is applied at its own order and at doubled
    order; the difference is the error estimate.  Without a rule, adaptive
    Simpson runs on the (finite) support.
    """
    if rule is not None:
        def rel(x):
            w = rule.weight_density(x)
            val = (np.asarray(f(x), dtype=float) * np.asarray(g(x), dtype=float)
                   * np.asarray(measure(x), dtype=float))
            out = val / w
            if not np.all(np.isfinite(out)):
                raise AccuracyError("integrand/weight ratio is not finite at the nodes")
            return out

        coarse = rule.integrate(rel)
        fine_rule = gauss_rule(rule.weight_id, rule.exactness_degree + 1)
        fine = fine_rule.integrate(rel)
        err = abs(fine - coarse)
        if err > 10.0 * tol * max(1.0, abs(fine)):
            raise AccuracyError("quadrature did not converge under rule doubling",
                                estimates=(coarse, fine))
        return fine, err
    a, b = support
    if not (np.isfinite(a) and np.isfinite(b)):
        raise DomainError("adaptive overlap integration needs a finite support")

    def integrand(x):
        return (np.asarray(f(x), dtype=float) * np.asarray(g(x), dtype=float)
                * np.asarray(measure(x), dtype=float))

    return adaptive_quad(integrand, a, b, tol=tol)
