import math

import numpy as np
import pytest

from triwave import basis as bs
from triwave import models as md
from triwave import oracle as oc
from triwave import orthopoly as op
from triwave.exceptions import (
    ComplexWeightError,
    DomainError,
    EvaluationOverflowError,
    ParameterDomainError,
    SingularParameterError,
    TriwaveError,
)

import helpers


# ---------------------------------------------------------------------------
# Point values
# ---------------------------------------------------------------------------

def test_laguerre_point_values():
    assert op.evaluate(op.LaguerreFamily(0.3), 0, 7.2) == 1.0
    assert op.evaluate(op.LaguerreFamily(0.0), 1, 2.0) == pytest.approx(-1.0, rel=1e-15)
    # series gives L_2^0(x) = 1 - 2x + x^2/2
    assert op.evaluate(op.LaguerreFamily(0.0), 2, 1.0) == pytest.approx(-0.5, rel=1e-14)
    assert helpers.laguerre_series(0.0, 2, 1.0) == pytest.approx(-0.5, rel=1e-14)


def test_laguerre_against_series_oracle(rng):
    for _ in range(25):
        nu = rng.uniform(-0.9, 4.0)
        x = rng.uniform(0.0, 20.0)
        n = int(rng.integers(0, 9))
        lhs = op.evaluate(op.LaguerreFamily(nu), n, x)
        rhs = helpers.laguerre_series(nu, n, x)
        assert lhs == pytest.approx(rhs, rel=1e-10, abs=1e-12)


def test_jacobi_point_values():
    assert op.evaluate(op.JacobiFamily(1.5, -0.2), 0, 0.4) == 1.0
    # at x = 1 the hypergeometric argument vanishes: Gamma(n+mu+1)/(n! Gamma(mu+1))
    assert op.evaluate(op.JacobiFamily(1.0, 1.0), 2, 1.0) == pytest.approx(3.0, rel=1e-14)


def test_jacobi_against_series_oracle(rng):
    for _ in range(25):
        mu = rng.uniform(-0.9, 3.0)
        nu = rng.uniform(-0.9, 3.0)
        x = rng.uniform(-1.0, 1.0)
        n = int(rng.integers(0, 9))
        lhs = op.evaluate(op.JacobiFamily(mu, nu), n, x)
        rhs = helpers.jacobi_series(mu, nu, n, x)
        assert lhs == pytest.approx(rhs, rel=1e-9, abs=1e-11)


def test_jacobi_symmetry_identity(rng):
    # P_n^(mu,nu)(-x) = (-1)^n P_n^(nu,mu)(x), as an algebraic identity
    for _ in range(40):
        mu = rng.uniform(-0.9, 3.0)
        nu = rng.uniform(-0.9, 3.0)
        x = rng.uniform(-1.0, 1.0)
        for n in range(21):
            lhs = op.evaluate(op.JacobiFamily(mu, nu), n, -x)
            rhs = (-1.0) ** n * op.evaluate(op.JacobiFamily(nu, mu), n, x)
            assert lhs == pytest.approx(rhs, rel=1e-11, abs=1e-13)


def test_pollaczek_point_values():
    fam = op.PollaczekFamily(2.0, 3.0, 1.0)
    assert op.evaluate(fam, 0, 0.3) == 1.0
    fam = op.PollaczekFamily(1.0, 0.5, 0.0)
    assert op.evaluate(fam, 1, 0.2) == pytest.approx(0.6, rel=1e-15)


def test_pollaczek_hyperbolic_series_value():
    fam = op.PollaczekFamily(0.75, -0.5, 0.5)
    want = helpers.pollaczek_hyperbolic_series(0.75, -0.5, 0.5, 3, 1.3)
    assert op.evaluate(fam, 3, 1.3) == pytest.approx(want, rel=1e-12)


def test_dual_hahn_point_values():
    fam = op.DualHahnFamily(1.0, 1.0, 2.0)
    assert op.evaluate(fam, 0, 0.7) == 1.0
    # first step of the recurrence: [(mu+a)(mu+b) - mu^2 - x^2] / [(mu+a)(mu+b)]
    assert op.evaluate(fam, 1, 0.5) == pytest.approx(0.75, rel=1e-15)


# ---------------------------------------------------------------------------
# Closed-form cross-checks
# ---------------------------------------------------------------------------

def test_pollaczek_closed_form_trivial():
    fam = op.PollaczekFamily(0.6, 1.2, 0.4)
    assert op.pollaczek_closed_form(fam, 0, 0.9) == 1.0


def test_pollaczek_closed_form_matches_eval(rng):
    fam = op.PollaczekFamily(1.0, 0.5, 0.0)
    assert op.pollaczek_closed_form(fam, 1, 0.2) == pytest.approx(0.6, rel=1e-12)
    fam = op.PollaczekFamily(0.75, 2.0, -1.0)
    x = math.cos(1.1)
    assert (op.pollaczek_closed_form(fam, 5, x)
            == pytest.approx(op.evaluate(fam, 5, x), rel=1e-10))
    for _ in range(30):
        mu = rng.uniform(0.2, 3.0)
        a = rng.uniform(0.0, 3.0)
        b = rng.uniform(-a, a)
        x = rng.uniform(-0.95, 0.95)
        fam = op.PollaczekFamily(mu, a, b)
        evals = np.array([op.evaluate(fam, n, x) for n in range(21)])
        closed = np.array([op.pollaczek_closed_form(fam, n, x) for n in range(21)])
        assert helpers.local_relative_deviation(closed, evals) < 1e-9


def test_pollaczek_closed_form_hyperbolic(rng):
    for _ in range(30):
        mu = rng.uniform(0.2, 3.0)
        a = rng.uniform(-2.0, 2.0)
        b = rng.uniform(-2.0, 2.0)
        x = rng.uniform(1.001, 3.5)
        fam = op.PollaczekFamily(mu, a, b)
        evals = np.array([op.evaluate(fam, n, x) for n in range(21)])
        closed = np.array([op.pollaczek_closed_form(fam, n, x) for n in range(21)])
        assert helpers.local_relative_deviation(closed, evals) < 1e-9


def test_pollaczek_closed_form_singular_endpoint():
    fam = op.PollaczekFamily(1.0, 1.0, 0.0)
    for x in (1.0, -1.0):
        with pytest.raises(SingularParameterError):
            op.pollaczek_closed_form(fam, 2, x)
    # the recurrence itself is fine at the endpoints
    assert np.isfinite(op.evaluate(fam, 5, 1.0))
    assert np.isfinite(op.evaluate(fam, 5, -1.0))


def test_pollaczek_reflection_is_exact(rng):
    # P_n(-x; a, -b) = (-1)^n P_n(x; a, b) bit for bit: every recurrence step
    # only flips signs.  The closed-form coefficients of models evaluate the
    # family at ratios below -1 directly, and so equal the reflection there.
    nmax = 200
    signs = (-1.0) ** np.arange(nmax + 1)[:, None]

    def check(mu, a, b, x):
        lhs = op.sequence(op.PollaczekFamily(mu, a, -b), nmax, -x)
        rhs = op.sequence(op.PollaczekFamily(mu, a, b), nmax, x)
        assert np.array_equal(lhs, signs * rhs, equal_nan=True)

    one = np.array([1.0])
    with np.errstate(over="ignore", invalid="ignore"):
        for mu, a, b in [(1.0, 1.0, 0.5), (0.3, -2.0, 0.7), (2.5, 1e17, -1e17)]:
            check(mu, a, b, one)
            check(mu, a, b, -one)
        for _ in range(50):
            mu = rng.uniform(1e-3, 5.0)
            a, b = rng.uniform(-1.0, 1.0, 2) * 10.0 ** rng.uniform(-3.0, 17.0)
            check(mu, a, b, rng.uniform(-1.0, 1.0, 16))
            # beyond +-1, on both sides, out to the ratios of a coupling near
            # its diagonal limit
            outside = 1.0 + 10.0 ** rng.uniform(-9.0, 9.0, 16)
            check(mu, a, b, outside * rng.choice([-1.0, 1.0], 16))


def test_dual_hahn_closed_form(rng):
    fam = op.DualHahnFamily(0.5, 0.5, 1.5)
    want = op.dual_hahn_closed_form(fam, 4, 2.0)
    assert op.evaluate(fam, 4, 2.0) == pytest.approx(want, rel=1e-12)
    for _ in range(30):
        fam = op.DualHahnFamily(rng.uniform(0.2, 2.5), rng.uniform(0.1, 3.0),
                                rng.uniform(0.1, 3.0))
        x2 = rng.uniform(0.0, 6.0)
        # sequence-max normalization: in parameter pockets where S_n decays by
        # several orders, both routes share a cancellation floor around
        # 1e-12 absolute, so per-point relative error at the tiny tail
        # entries carries no information
        evals = np.array([op.evaluate(fam, n, x2) for n in range(21)])
        closed = np.array([op.dual_hahn_closed_form(fam, n, x2) for n in range(21)])
        assert helpers.relative_deviation(closed, evals) < 1e-9


# ---------------------------------------------------------------------------
# Recurrence residuals and differential relations
# ---------------------------------------------------------------------------

def _residual(terms):
    scale = max(abs(t) for t in terms)
    return abs(sum(terms)) / max(scale, 1e-300)


def test_recurrence_residuals(rng):
    xs_half = rng.uniform(0.01, 30.0, size=100)
    xs_int = rng.uniform(-0.999, 0.999, size=100)
    xs_hyp = rng.uniform(1.001, 4.0, size=100)
    nu = 0.6
    lag = op.sequence(op.LaguerreFamily(nu), 31, xs_half)
    for n in range(1, 31):
        for j in range(xs_half.size):
            x = xs_half[j]
            terms = (x * lag[n, j], -(2 * n + nu + 1) * lag[n, j],
                     (n + nu) * lag[n - 1, j], (n + 1) * lag[n + 1, j])
            assert _residual(terms) < 1e-10

    mu, nu = 0.4, 1.1
    jac = op.sequence(op.JacobiFamily(mu, nu), 31, xs_int)
    s = mu + nu
    for n in range(1, 31):
        c0 = (2 * n * (n + s + 1) + s * (nu + 1)) / ((2 * n + s) * (2 * n + s + 2))
        cm = (n + mu) * (n + nu) / ((2 * n + s) * (2 * n + s + 1))
        cp = (n + 1) * (n + s + 1) / ((2 * n + s + 1) * (2 * n + s + 2))
        for j in range(xs_int.size):
            x = xs_int[j]
            terms = (0.5 * (1 + x) * jac[n, j], -c0 * jac[n, j],
                     -cm * jac[n - 1, j], -cp * jac[n + 1, j])
            assert _residual(terms) < 1e-10

    fam = op.PollaczekFamily(0.8, 1.5, -0.7)
    for xs in (xs_int, xs_hyp):
        seq = op.sequence(fam, 31, xs)
        for n in range(1, 31):
            for j in range(xs.size):
                x = xs[j]
                terms = (2 * ((n + 0.8 + 1.5) * x - 0.7) * seq[n, j],
                         -(n - 1 + 1.6) * seq[n - 1, j], -(n + 1) * seq[n + 1, j])
                assert _residual(terms) < 1e-10

    fam = op.DualHahnFamily(0.9, 0.7, 1.8)
    x2s = rng.uniform(0.0, 8.0, size=100)
    seq = op.sequence(fam, 31, x2s)
    sab, pab = 2.5, 0.7 * 1.8
    for n in range(1, 31):
        denom = (n + 0.9) ** 2 + (n + 0.9) * sab + pab
        diag = denom + n * (n + sab - 1) - 0.81
        for j in range(x2s.size):
            terms = (x2s[j] * seq[n, j], -diag * seq[n, j],
                     n * (n + sab - 1) * seq[n - 1, j], denom * seq[n + 1, j])
            assert _residual(terms) < 1e-10


@pytest.mark.parametrize("n", [200, 1000])
def test_large_degree_sequences_match_mpmath(n):
    # wavefunction series step these recurrences to N = 1000.  The points sit
    # near both interval ends; the far Laguerre one is as far out as the
    # e^{x/2} growth of L_n stays finite.
    mpmath = pytest.importorskip("mpmath")
    lag_x = np.array([1e-3, 0.5, min(3.9 * n, 1300.0)])
    jac_x = np.array([-0.9999, -0.99, 0.99, 0.9999])
    cases = [
        (op.sequence(op.LaguerreFamily(0.6), n, lag_x)[n], lag_x,
         lambda x: mpmath.laguerre(n, 0.6, x)),
        (op.sequence(op.JacobiFamily(1.3, 0.4), n, jac_x)[n], jac_x,
         lambda x: mpmath.jacobi(n, 1.3, 0.4, x)),
        (op.sequence(op.JacobiFamily(-0.5, 0.5), n, jac_x)[n], jac_x,
         lambda x: mpmath.jacobi(n, -0.5, 0.5, x)),
    ]
    for got, xs, ref in cases:
        with mpmath.workdps(30):
            want = np.array([float(ref(mpmath.mpf(x))) for x in xs])
        assert np.all(np.isfinite(want))
        assert np.all(np.abs(got - want) <= 1e-9 * np.maximum(1.0, np.abs(want)))


def test_laguerre_differential_relation(rng):
    # x L_n' = n L_n - (n+nu) L_{n-1}, derivative by central differences
    nu = 0.8
    fam = op.LaguerreFamily(nu)
    for _ in range(20):
        x = rng.uniform(0.2, 15.0)
        n = int(rng.integers(1, 16))
        h = 1e-6 * max(1.0, abs(x))
        seq = op.sequence(fam, n, np.array([x - h, x, x + h]))
        fd = x * (seq[n, 2] - seq[n, 0]) / (2 * h)
        rhs = n * seq[n, 1] - (n + nu) * seq[n - 1, 1]
        scale = max(abs(rhs), abs(seq[n, 1]), 1.0)
        assert abs(fd - rhs) / scale < 1e-8


def test_jacobi_differential_relation(rng):
    # (1-x^2) P_n' = -n (x + (nu-mu)/(2n+mu+nu)) P_n + 2 (n+mu)(n+nu)/(2n+mu+nu) P_{n-1}
    mu, nu = 1.3, 0.4
    fam = op.JacobiFamily(mu, nu)
    for _ in range(20):
        x = rng.uniform(-0.9, 0.9)
        n = int(rng.integers(1, 16))
        h = 1e-6
        seq = op.sequence(fam, n, np.array([x - h, x, x + h]))
        fd = (1 - x * x) * (seq[n, 2] - seq[n, 0]) / (2 * h)
        rhs = (-n * (x + (nu - mu) / (2 * n + mu + nu)) * seq[n, 1]
               + 2 * (n + mu) * (n + nu) / (2 * n + mu + nu) * seq[n - 1, 1])
        scale = max(abs(rhs), abs(seq[n, 1]), 1.0)
        assert abs(fd - rhs) / scale < 1e-8


# ---------------------------------------------------------------------------
# Orthogonality
# ---------------------------------------------------------------------------

def test_laguerre_orthogonality_by_quadrature():
    nu = 0.7
    fam = op.LaguerreFamily(nu)
    rule = oc.gauss_rule(("laguerre", nu), 24)
    seq = op.sequence(fam, 20, rule.nodes)
    gram = (seq * rule.weights) @ seq.T
    hn = np.array([math.exp(math.lgamma(n + nu + 1) - math.lgamma(n + 1.0))
                   for n in range(21)])
    normalized = gram / np.sqrt(np.outer(hn, hn))
    assert np.max(np.abs(normalized - np.eye(21))) < 1e-10


def test_jacobi_orthogonality_by_quadrature():
    mu, nu = 0.3, 1.2
    fam = op.JacobiFamily(mu, nu)
    rule = oc.gauss_rule(("jacobi", mu, nu), 24)
    seq = op.sequence(fam, 20, rule.nodes)
    gram = (seq * rule.weights) @ seq.T
    s = mu + nu
    hn = np.array([2.0 ** (s + 1) / (2 * n + s + 1)
                   * math.exp(math.lgamma(n + mu + 1) + math.lgamma(n + nu + 1)
                              - math.lgamma(n + 1.0) - math.lgamma(n + s + 1))
                   for n in range(21)])
    normalized = gram / np.sqrt(np.outer(hn, hn))
    assert np.max(np.abs(normalized - np.eye(21))) < 1e-10


@pytest.mark.parametrize("mu,a,b", [(1.0, 1.0, 0.0), (0.75, 2.0, -1.0)])
def test_pollaczek_orthogonality_adaptive(mu, a, b):
    fam = op.PollaczekFamily(mu, a, b)
    nmax = 6

    def entry(n, m):
        def f(theta):
            x = np.cos(theta)
            seq = op.sequence(fam, nmax, x)
            return op.weight_eval(fam, x) * seq[n] * seq[m] * np.sin(theta)
        return oc.adaptive_quad(f, 1e-6, math.pi - 1e-6, tol=1e-8)[0]

    for n in range(nmax + 1):
        for m in range(n + 1):
            want = (math.exp(math.lgamma(n + 2 * mu) - math.lgamma(n + 1.0))
                    / (n + mu + a)) if n == m else 0.0
            assert abs(entry(n, m) - want) < 1e-5


def test_dual_hahn_orthogonality_adaptive():
    mu, a, b = 1.0, 1.0, 2.0
    fam = op.DualHahnFamily(mu, a, b)
    nmax = 6

    def entry(n, m):
        def f(x):
            seq = op.sequence(fam, nmax, x * x)
            return op.weight_eval(fam, x) * seq[n] * seq[m]
        return oc.adaptive_quad(f, 1e-8, 30.0, tol=1e-8)[0]

    for n in range(nmax + 1):
        for m in range(n + 1):
            want = (math.exp(math.lgamma(n + 1.0) + math.lgamma(n + a + b)
                             - math.lgamma(n + mu + a) - math.lgamma(n + mu + b))
                    if n == m else 0.0)
            assert abs(entry(n, m) - want) < 1e-5


# ---------------------------------------------------------------------------
# |Gamma(mu+iy)|^2 and weights
# ---------------------------------------------------------------------------

def test_gamma_abs_squared_values():
    assert op.gamma_abs_squared(1.0, 0.0) == pytest.approx(1.0, rel=1e-12)
    assert op.gamma_abs_squared(2.0, 0.0) == pytest.approx(1.0, rel=1e-12)
    assert op.gamma_abs_squared(1.0, 1.0) == pytest.approx(
        math.pi / math.sinh(math.pi), rel=1e-12)
    assert op.gamma_abs_squared(0.5, 2.0) == pytest.approx(
        math.pi / math.cosh(2.0 * math.pi), rel=1e-12)


def test_gamma_abs_squared_against_product_oracle():
    for mu in (0.15, 0.5, 1.0, 2.5, 6.0, 10.0):
        for y in (0.1, 1.0, 4.0, 12.0, 20.0):
            want = helpers.gamma_abs_squared_product(mu, y)
            assert op.gamma_abs_squared(mu, y) == pytest.approx(want, rel=1e-12)
            assert op.gamma_abs_squared(mu, -y) == op.gamma_abs_squared(mu, y)


def test_gamma_abs_squared_domain():
    with pytest.raises(ParameterDomainError):
        op.gamma_abs_squared(0.0, 1.0)
    with pytest.raises(ParameterDomainError):
        op.gamma_abs_squared(-1.0, 1.0)


def test_log_gamma_abs_squared_matches_mpmath():
    mpmath = pytest.importorskip("mpmath")
    ys = np.concatenate([np.linspace(-1e3, 1e3, 81), [0.0, 1e-9, 0.37, 3.0, 25.0],
                         [1e200, -1e200]])
    for mu in (1e-3, 0.25, 0.5, 1.0, 2.5, 7.0, 50.0):
        got = op.log_gamma_abs_squared(mu, ys)
        with mpmath.workdps(40):
            ref = np.array([float(2 * mpmath.re(mpmath.loggamma(mpmath.mpc(mu, y))))
                            for y in ys])
        assert np.all(np.abs(got - ref) <= 1e-13 * np.maximum(1.0, np.abs(ref))), mu
        assert np.array_equal(op.log_gamma_abs_squared(mu, -ys), got)
    assert isinstance(op.log_gamma_abs_squared(0.7, np.float64(2.0)), float)
    grid = ys[:80].reshape(8, 10)
    assert op.log_gamma_abs_squared(0.7, grid).shape == (8, 10)
    assert np.array_equal(op.log_gamma_abs_squared(0.7, grid).ravel(),
                          op.log_gamma_abs_squared(0.7, grid.ravel()))


@pytest.mark.parametrize("mu, y, error, message", [
    (math.inf, 1.0, ParameterDomainError, "finite mu > 0, got inf"),
    (-math.inf, 1.0, ParameterDomainError, "finite mu > 0, got -inf"),
    (math.nan, 1.0, ParameterDomainError, "finite mu > 0, got nan"),
    (1.0, math.inf, DomainError, "finite y, got y = inf"),
    (1.0, math.nan, DomainError, "finite y, got y = nan"),
    (1.0, [0.5, -math.inf, math.nan], DomainError, "finite y, got y = -inf"),
])
def test_log_gamma_abs_squared_rejects_non_finite(mu, y, error, message):
    for f in (op.log_gamma_abs_squared, op.gamma_abs_squared):
        with pytest.raises(error, match=message):
            f(mu, y)


def test_gamma_abs_squared_overflow_raises():
    with pytest.raises(EvaluationOverflowError, match=r"mu = 200, y = 0\.0"):
        op.gamma_abs_squared(200.0, 0.0)
    with pytest.raises(EvaluationOverflowError, match=r"y = 3\.0"):
        op.gamma_abs_squared(200.0, [1e3, 3.0, 0.0])
    # the log stays finite, and a decaying modulus underflows to 0 quietly
    assert math.isfinite(op.log_gamma_abs_squared(200.0, 0.0))
    assert op.gamma_abs_squared(1.0, 1e3) == 0.0


def test_weight_values():
    assert op.weight_eval(op.LaguerreFamily(0.0), 0.0) == 1.0
    assert op.weight_eval(op.JacobiFamily(0.0, 0.0), 0.5) == 1.0
    assert op.weight_eval(op.PollaczekFamily(1.0, 1.0, 0.0), 0.0) == pytest.approx(
        2.0 / math.pi, rel=1e-12)
    assert op.weight_eval(op.DualHahnFamily(1.0, 1.0, 2.0), 0.0) == 0.0


def test_weight_domain_errors():
    with pytest.raises(DomainError):
        op.weight_eval(op.LaguerreFamily(-0.5), 0.0)
    with pytest.raises(DomainError):
        op.weight_eval(op.JacobiFamily(0.5, 0.5), 1.0)
    # the Pollaczek weight takes one form per call: x = +-1, x < -1 and an
    # array spanning (-1, 1) and x > 1 are refused
    for x in (1.0, -2.0, np.array([0.5, 2.0]), np.array([2.0, -0.5])):
        with pytest.raises(SingularParameterError, match="every x"):
            op.weight_eval(op.PollaczekFamily(1.0, 1.0, 0.0), x)
    with pytest.raises(ParameterDomainError):
        # positivity condition a >= |b| enforced on the weight only
        op.weight_eval(op.PollaczekFamily(1.0, 0.5, 2.0), 0.0)
    assert np.isfinite(op.evaluate(op.PollaczekFamily(1.0, 0.5, 2.0), 4, 0.3))


def test_hyperbolic_weight_phase_gate():
    # generic parameters leave a complex density
    fam = op.PollaczekFamily(0.8, 1.0, 0.3)
    with pytest.raises(ComplexWeightError):
        op.weight_eval(fam, 2.0)
    # choosing mu so that mu - 1/2 - z is an integer at this x gives a real
    # (signed) value
    x = 2.0
    theta = math.acosh(x)
    z = (0.3 + 1.0 * x) / math.sinh(theta)
    fam = op.PollaczekFamily(z + 0.5, 1.0, 0.3)
    assert np.isfinite(op.weight_eval(fam, x))


def test_hyperbolic_weight_gamma_pole_raises():
    # x = 5/4 has sinh(theta) = 3/4 exactly, so mu + z = 0.75 - 1.75 = -1
    # lands on a pole of Gamma while mu - 1/2 - z = 2 keeps the phase real
    fam = op.PollaczekFamily(0.75, 0.0, -1.75 * 0.75)
    with pytest.raises(SingularParameterError, match="pole at -1"):
        op.weight_eval(fam, 1.25)
    # one real-valued array: a = b = 0 gives z = 0 at every x
    fam = op.PollaczekFamily(1.5, 0.0, 0.0)
    xs = np.array([[1.5, 2.0], [3.0, 7.0]])
    vals = op.weight_eval(fam, xs)
    assert vals.shape == (2, 2)
    assert np.array_equal(vals.ravel(), [op.weight_eval(fam, x) for x in xs.ravel()])


# ---------------------------------------------------------------------------
# Family validation
# ---------------------------------------------------------------------------

def test_family_validation():
    with pytest.raises(ParameterDomainError):
        op.LaguerreFamily(-1.0)
    with pytest.raises(ParameterDomainError):
        op.JacobiFamily(-1.2, 0.0)
    with pytest.raises(ParameterDomainError):
        op.PollaczekFamily(0.0, 1.0, 0.0)
    with pytest.raises(ParameterDomainError):
        op.DualHahnFamily(1.0, -0.5, 2.0)
    # complex parameters are refused by name, a conjugate pair included
    for a, b in [(1.0 + 2.0j, 1.0 - 2.0j), (1.0 + 2.0j, 1.0 - 1.9j)]:
        with pytest.raises(ParameterDomainError, match="must be real"):
            op.DualHahnFamily(1.0, a, b)


@pytest.mark.parametrize("make", [
    lambda: op.LaguerreFamily(math.inf),
    lambda: op.LaguerreFamily(math.nan),
    lambda: op.JacobiFamily(math.inf, 0.5),
    lambda: op.JacobiFamily(0.5, math.nan),
    lambda: op.PollaczekFamily(math.inf, 1.0, 0.0),
    lambda: op.PollaczekFamily(1.0, math.nan, 0.0),
    lambda: op.PollaczekFamily(1.0, 1.0, -math.inf),
    lambda: op.DualHahnFamily(1.0, complex(math.inf, 0.0), 1.0),
    lambda: op.DualHahnFamily(1.0, complex(1.0, math.nan), complex(1.0, -2.0)),
    lambda: op.DualHahnFamily(1.0, 1.0, math.inf),
], ids=["laguerre-inf", "laguerre-nan", "jacobi-inf", "jacobi-nan", "pollaczek-mu-inf",
        "pollaczek-a-nan", "pollaczek-b-inf", "dual-hahn-a-inf", "dual-hahn-a-imag-nan",
        "dual-hahn-b-inf"])
def test_family_parameters_must_be_finite(make):
    with pytest.raises(ParameterDomainError, match="not finite"):
        make()


def test_pollaczek_domain_errors():
    # no closed form is kept below -1; the recurrence there is the reflection
    with pytest.raises(DomainError, match="x >= -1"):
        op.pollaczek_closed_form(op.PollaczekFamily(1.0, 1.0, 0.0), 3, -1.5)


@pytest.mark.parametrize("call", [
    lambda: op.evaluate(op.LaguerreFamily(0.5), -1, 0.3),
    lambda: op.evaluate(op.JacobiFamily(0.5, 0.5), -1, 0.3),
    lambda: op.evaluate(op.PollaczekFamily(1.0, 1.0, 0.0), -1, 0.3),
    lambda: op.evaluate(op.DualHahnFamily(1.0, 1.0, 2.0), -1, 0.3),
    lambda: op.pollaczek_closed_form(op.PollaczekFamily(1.0, 1.0, 0.0), -1, 0.3),
    lambda: op.dual_hahn_closed_form(op.DualHahnFamily(1.0, 1.0, 2.0), -1, 0.3),
    lambda: bs.normalization(bs.morse_basis(1.2), -1),
    lambda: bs.normalization(bs.rosen_morse_basis(0.8, 0.6), np.arange(-1, 3)),
    lambda: bs.basis_eval(bs.morse_basis(1.2), -1, 0.3),
], ids=["laguerre-eval", "jacobi-eval", "pollaczek-eval", "dual-hahn-eval",
        "pollaczek-closed-form", "dual-hahn-closed-form",
        "normalization", "normalization-array", "basis-eval"])
def test_negative_degree_names_n(call):
    with pytest.raises(ParameterDomainError, match=r"^n = -1 must be >= 0$"):
        call()


_MODELS = [md.HarmonicOscillator(a=1.0), md.OscillatorInverseSquare(a=1.0, b=0.75),
           md.SupercriticalInverseSquare(b=-1.0), md.GeneralizedMorse(A=-6.0, B=1.0,
                                                                     mu_scale=2.0),
           md.RosenMorse(A=1.0, B=-2.0)]


@pytest.mark.parametrize("name, call", [
    ("n", lambda: op.evaluate(op.LaguerreFamily(0.5), 2.5, 0.3)),
    ("nmax", lambda: op.sequence(op.JacobiFamily(0.5, 0.5), math.nan, 0.3)),
    ("n", lambda: op.pollaczek_closed_form(op.PollaczekFamily(1.0, 1.0, 0.0), 2.5, 0.3)),
    ("n", lambda: op.dual_hahn_closed_form(op.DualHahnFamily(1.0, 1.0, 2.0), 2.5, 0.3)),
    ("n", lambda: bs.basis_eval(bs.morse_basis(1.2), 2.5, 0.3)),
    ("n", lambda: bs.normalization(bs.morse_basis(1.2), 2.5)),
    ("nmax", lambda: bs.overlap_matrix(bs.morse_basis(1.2), bs.morse_map(2.0), 2.5)),
    ("vector", lambda: oc.node_count([])),
    ("vector", lambda: oc.node_count([1.0, math.nan, -1.0])),
    ("a", lambda: md.morse_bound_count(math.nan)),
    ("a", lambda: md.morse_alternative_bound_count(math.nan)),
] + [("n_levels", lambda model=model, n=n: md.spectrum(model, n))
     for model in _MODELS for n in (2.5, -1)],
    ids=["evaluate", "sequence", "pollaczek-closed-form", "dual-hahn-closed-form",
         "basis-eval", "normalization", "overlap-matrix", "node-count-empty",
         "node-count-nan", "morse-bound-count", "morse-alternative-bound-count"]
    + ["spectrum-%s-%s" % (type(model).__name__, n) for model in _MODELS for n in (2.5, -1)])
def test_non_integer_or_non_finite_arguments_are_named(name, call):
    # a degree, index bound or level count that is no integer >= 0, and a
    # vector or Morse parameter that is not finite, is refused by name
    with pytest.raises(TriwaveError, match=r"^%s " % name):
        call()
