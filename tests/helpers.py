"""Independent mini-implementations used as test oracles.

Everything here is deliberately written from scratch against the textbook
definitions (series, products, Hermite recurrence) so the package's
recurrence-based evaluators are checked by a genuinely different route.
"""

import math

import numpy as np

from triwave import models as md
from triwave import oracle as oc
from triwave.exceptions import AccuracyError, DomainError, SingularParameterError

# (name, model, n_levels) of the spectrum-oracle suite's cases
SPECTRUM_ORACLE_CASES = [
    ("ho-even", md.HarmonicOscillator(a=1.0, parity="even"), 4),
    ("ho-odd", md.HarmonicOscillator(a=1.0, parity="odd"), 4),
    ("osc-inv-sq", md.OscillatorInverseSquare(a=1.0, b=0.75), 3),
    ("morse", md.GeneralizedMorse(A=-6.0, B=1.0, mu_scale=2.0), 3),
    ("rosen-morse", md.RosenMorse(A=1.0, B=-2.0), 1),
]


def laguerre_series(nu, n, x):
    """L_n^nu(x) from the confluent-hypergeometric series
    Gamma(n+nu+1)/(n! Gamma(nu+1)) * 1F1(-n; nu+1; x)."""
    pref = math.exp(math.lgamma(n + nu + 1.0) - math.lgamma(n + 1.0)
                    - math.lgamma(nu + 1.0))
    total = 0.0
    term = 1.0
    for k in range(n + 1):
        if k > 0:
            term *= (-n + k - 1.0) / ((nu + k) * k) * x
        total += term
    return pref * total


def jacobi_series(mu, nu, n, x):
    """P_n^(mu,nu)(x) from the terminating 2F1 at argument (1-x)/2."""
    pref = math.exp(math.lgamma(n + mu + 1.0) - math.lgamma(n + 1.0)
                    - math.lgamma(mu + 1.0))
    z = 0.5 * (1.0 - x)
    total = 0.0
    term = 1.0
    for k in range(n + 1):
        if k > 0:
            term *= (-n + k - 1.0) * (n + mu + nu + k) / ((mu + k) * k) * z
        total += term
    return pref * total


def pollaczek_hyperbolic_series(mu, a, b, n, x):
    """Direct terminating-sum definition of the hyperbolic form, x > 1
    (prefactor * e^{-n theta} 2F1(-n, mu+z; 2mu; 1-e^{2 theta}))."""
    theta = math.acosh(x)
    z = (b + a * x) / math.sinh(theta)
    w = 1.0 - math.exp(2.0 * theta)
    pref = 1.0
    for j in range(n):
        pref *= (2.0 * mu + j) / (1.0 + j)
    total = 0.0
    term = 1.0
    for k in range(n + 1):
        if k > 0:
            term *= (-n + k - 1.0) * (mu + z + k - 1.0) / ((2.0 * mu + k - 1.0) * k) * w
        total += term
    return pref * math.exp(-n * theta) * total


def hermite_sequence(kmax, x):
    """Physicists' Hermite polynomials H_0..H_kmax by their recurrence."""
    x = np.asarray(x, dtype=float)
    out = np.empty((kmax + 1,) + x.shape)
    out[0] = 1.0
    if kmax >= 1:
        out[1] = 2.0 * x
    for k in range(1, kmax):
        out[k + 1] = 2.0 * x * out[k] - 2.0 * k * out[k - 1]
    return out


def hermite_wavefunction(k, x, lam=1.0):
    """Unit-normalized oscillator eigenfunction built from H_k:
    sqrt(lam / (2^k k! sqrt(pi))) H_k(lam x) exp(-(lam x)^2 / 2)."""
    x = np.asarray(x, dtype=float)
    z = lam * x
    norm = math.exp(0.5 * (math.log(lam) - k * math.log(2.0) - math.lgamma(k + 1.0)
                           - 0.5 * math.log(math.pi)))
    return norm * hermite_sequence(k, z)[k] * np.exp(-0.5 * z * z)


def gamma_abs_squared_product(mu, y, terms=20000):
    """|Gamma(mu+iy)|^2 from the Euler-style product
    Gamma(mu)^2 prod_k (1 + y^2/(mu+k)^2)^(-1), truncated with an
    Euler-Maclaurin integral tail so the oracle itself is ~1e-13 accurate."""
    if y == 0.0:
        return math.gamma(mu) ** 2
    ks = np.arange(terms)
    head = float(np.sum(np.log1p(y * y / (mu + ks) ** 2)))
    u0 = mu + terms

    def antider(u):
        return u * math.log1p(y * y / (u * u)) + 2.0 * y * math.atan(u / y)

    integral = math.pi * abs(y) - antider(u0)
    f0 = math.log1p(y * y / (u0 * u0))
    fp = -2.0 * y * y / (u0 * (u0 * u0 + y * y))
    tail = integral + 0.5 * f0 - fp / 12.0
    return math.exp(2.0 * math.lgamma(mu) - head - tail)


def ho_full_line_grid(n_levels, h=None):
    """(x_min, x_max, h, k) of the full-line oscillator grid (a = 1) whose rows
    are +-(i - 1/2) h: the mirror image of the odd parity's default half-line
    grid (0, x_max), whose rows are (i - 1/2) h and whose Dirichlet end is
    x_max - h / 2, at its h or the given one.  k = 2 n_levels holds both
    parities, interleaved."""
    _, x_max, step, k = md.default_grid(md.HarmonicOscillator(a=1.0, parity="odd"), n_levels)
    h = h or step
    return -(x_max - 0.5 * h), x_max - 0.5 * h, h, 2 * k


def relative_deviation(computed, reference):
    """max |computed - reference| along the sequence, relative to the largest
    reference magnitude (avoids blowups at incidental zeros)."""
    computed = np.asarray(computed, dtype=float)
    reference = np.asarray(reference, dtype=float)
    scale = np.max(np.abs(reference))
    if scale == 0.0:
        return float(np.max(np.abs(computed)))
    return float(np.max(np.abs(computed - reference)) / scale)


def local_relative_deviation(computed, reference):
    """Per-element deviation relative to the neighborhood scale
    max(|ref_{n-1}|, |ref_n|, |ref_{n+1}|): strict for growing or decaying
    sequences yet safe at isolated zero crossings."""
    computed = np.asarray(computed, dtype=float)
    reference = np.asarray(reference, dtype=float)
    mags = np.abs(reference)
    local = mags.copy()
    local[:-1] = np.maximum(local[:-1], mags[1:])
    local[1:] = np.maximum(local[1:], mags[:-1])
    local = np.maximum(local, 1e-300)
    return float(np.max(np.abs(computed - reference) / local))


def gauss_rule_reference(weight_id, n):
    """(nodes, weights, rescaled) of the n-node Gauss rule for weight_id,
    from the same eigenvalues and the same Christoffel recurrence as
    oracle.gauss_rule, stepped one array at a time: p_k, p'_k, their
    predecessors, K = sum p_k^2 and K' = sum 2 p_k p'_k each on its own, and
    the overflow test reading max(|p_k|, |p_{k-1}|).  rescaled is True where
    that test fired.  The bit-for-bit reference of the rule's stacked pass."""
    alpha, beta, m0 = oc._monic_coefficients(weight_id, n)
    root_beta = np.sqrt(beta)
    x = oc.tridiagonal_eigenvalues(alpha, root_beta[1:])
    p_prev, p = np.zeros(n), np.ones(n)
    dp_prev, dp = np.zeros(n), np.zeros(n)
    total, slope = np.ones(n), np.zeros(n)
    log_scale = np.zeros(n)
    rescaled = False
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
            rescaled = True
            s = np.where(big, s, 1.0)
            p, p_prev, dp, dp_prev = p / s, p_prev / s, dp / s, dp_prev / s
            total, slope = total / (s * s), slope / (s * s)
            log_scale += 2.0 * np.log(s)
    step = -t / dt
    weights = m0 / (total + step * slope) * np.exp(-log_scale)
    return x + step, weights, rescaled


def ldl_pivots(a, e2, tiny):
    """Pivots D_i = a_i - e2_{i-1} / D_{i-1} (D_0 = a_0) of the LDL^T
    factorization of the symmetric tridiagonal matrix with diagonal a and
    squared off-diagonal e2, each nudged away from zero to +-tiny: an exact
    +0 pivot becomes +tiny, and the next one turns negative, as in Kahan's
    IEEE Sturm count.  The bit-for-bit reference of the grid oracle's unit
    off-diagonal kernels (e2 all ones)."""
    out = []
    for i, ai in enumerate(a):
        q = ai if i == 0 else ai - e2[i - 1] / q
        if -tiny < q < tiny:
            q = tiny if q >= 0.0 else -tiny
        out.append(q)
    return np.array(out, dtype=float)


def rosen_morse_level_bisection(A, B, n):
    """(mu, nu) of Rosen-Morse level n, or None, by bisecting its diagonal
    condition in mu on (1e-12, sqrt(-U_min)) once the coupling condition has
    fixed mu + nu = s = 2 sqrt(1/4 - B) - 2(n+1); U_min is the least
    U(y) = A(1-y) + B(1-y^2) on [-1, 1].  Needs mu > 0 and nu > -1.  The
    reference of RosenMorse._level, which solves the same condition, linear
    in mu, by one division.  SingularParameterError where 2n + s = 0."""
    s = 2.0 * math.sqrt(0.25 - B) - 2.0 * (n + 1.0)
    t = 2 * n + s

    def residual(mu):
        nu = s - mu
        return 0.5 * (nu + mu + 1.0) * (nu - mu + 1.0) + 2.0 * n * (n + mu) / t - A

    y0 = -A / (2.0 * B) if B != 0.0 else 1.0
    u_min = min(0.0, 2.0 * A,
                A * (1.0 - y0) + B * (1.0 - y0 * y0) if -1.0 < y0 < 1.0 else 0.0)
    if u_min >= 0.0:
        return None
    if abs(t) < 1e-12:
        raise SingularParameterError("level condition singular (2n+mu+nu = 0)")
    lo, hi = 1e-12, math.sqrt(-u_min)
    r_lo, r_hi = residual(lo), residual(hi)
    if r_lo == 0.0:
        mu = lo
    elif r_hi == 0.0:
        mu = hi
    elif r_lo * r_hi > 0.0:
        return None
    else:
        for _ in range(200):
            mid = 0.5 * (lo + hi)
            r_mid = residual(mid)
            if r_mid == 0.0 or hi - lo < 1e-15 * max(1.0, abs(mid)):
                break
            if r_lo * r_mid < 0.0:
                hi = mid
            else:
                lo, r_lo = mid, r_mid
        mu = 0.5 * (lo + hi)
    nu = s - mu
    return None if mu <= 0.0 or nu <= -1.0 else (mu, nu)


def _within_rounding_reference(x, fx, err):
    reach = (x[:, -1] - x[:, 0]) * 4.4e-16 * np.max(np.abs(x), axis=1)
    return np.any(err[:, None] * np.diff(x, axis=1)
                  <= reach[:, None] * np.abs(np.diff(fx, axis=1)), axis=1)


def adaptive_quad_reference(f, a, b, tol=1e-10, max_eval=400_000):
    """oracle.adaptive_quad for a scalar integrand in its plain form: the
    same G7-K15 levels, acceptance, rounding and stall rules, with the
    np.diff rounding test run on every level below the last (no pre-test),
    np.column_stack splits and boolean gathers on every level.
    The bit-for-bit reference of the library loop: (value, error), or the
    same AccuracyError or DomainError with the same message and estimates.
    Takes valid arguments only."""
    a, b = float(a), float(b)
    lo, hi = np.array([a]), np.array([b])
    open_val = open_err = np.zeros(0)
    done_lo, done_val, done_err = [], [], []
    n_eval = 0
    for level in range(oc._MAX_LEVEL + 1):
        if n_eval + oc._KRONROD_NODES.size * lo.size > max_eval:
            raise AccuracyError(
                "adaptive quadrature exceeded its evaluation budget",
                estimates=(float(np.sum(np.concatenate(done_val + [open_val]))),
                           float(np.sum(np.concatenate(done_err + [open_err])))))
        mid, half = 0.5 * (lo + hi), 0.5 * (hi - lo)
        x = mid[:, None] + half[:, None] * oc._KRONROD_NODES
        fx = np.asarray(f(x.ravel()), dtype=float).reshape(x.shape)
        n_eval += x.size
        finite = np.isfinite(fx)
        if not finite.all():
            i = int(np.argmin(finite))
            raise DomainError("f(x) = %r is not finite at x = %.15g"
                              % (float(fx.flat[i]), x.flat[i]))
        kronrod = half * (fx @ oc._KRONROD_WEIGHTS)
        gauss = half * (fx[:, 1::2] @ oc._GAUSS_WEIGHTS)
        err = np.abs(kronrod - gauss)
        ok = err <= tol * ((hi - lo) / (b - a)) * np.maximum(1.0, np.abs(kronrod))
        final = np.flatnonzero(~ok)
        if level < oc._MAX_LEVEL:
            final = final[_within_rounding_reference(x[final], fx[final], err[final])]
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
