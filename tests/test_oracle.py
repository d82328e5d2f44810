import math

import numpy as np
import pytest

from triwave import models as md
from triwave import oracle as oc
from triwave import orthopoly
from triwave.exceptions import AccuracyError, DomainError, ParameterDomainError


# ---------------------------------------------------------------------------
# Symmetric tridiagonal eigensolver
# ---------------------------------------------------------------------------

def test_sturm_eigenvalues_toeplitz():
    # -1/2/-1 Toeplitz: eigenvalues 2 - 2 cos(j pi / (n+1))
    n = 200
    diag = np.full(n, 2.0)
    off = np.full(n - 1, -1.0)
    vals = oc.tridiagonal_eigenvalues(diag, off, k=6)
    want = 2.0 - 2.0 * np.cos(np.arange(1, 7) * math.pi / (n + 1))
    np.testing.assert_allclose(vals, want, rtol=1e-12)


def test_eigenvector_residual():
    rng = np.random.default_rng(3)
    diag = rng.uniform(-1.0, 1.0, 60)
    off = rng.uniform(0.1, 0.5, 59)
    vals = oc.tridiagonal_eigenvalues(diag, off, k=4)
    for lam in vals:
        v = oc.tridiagonal_eigenvector(diag, off, lam)
        res = diag * v
        res[:-1] += off * v[1:]
        res[1:] += off * v[:-1]
        assert np.max(np.abs(res - lam * v)) < 1e-10


def _dense(diag, off):
    return np.diag(diag) + np.diag(off, 1) + np.diag(off, -1)


def _assert_matches_eigvalsh(diag, off, k):
    # np.linalg.eigvalsh is a test-only reference; 1e-12 of the spectral radius
    want = np.linalg.eigvalsh(_dense(diag, off))
    got = oc.tridiagonal_eigenvalues(diag, off, k=k)
    assert got.shape == (k,)
    assert np.max(np.abs(got - want[:k])) <= 1e-12 * np.max(np.abs(want))


def test_eigenvalues_random_matrices():
    rng = np.random.default_rng(20261018)
    for n, k in [(3, 1), (12, 5), (40, 40), (300, 7), (700, 600)]:
        scale = 10.0 ** rng.uniform(-3.0, 3.0)
        diag = scale * rng.standard_normal(n)
        off = scale * rng.standard_normal(n - 1)
        _assert_matches_eigvalsh(diag, off, k)


@pytest.mark.parametrize("n", [2, 17, 128])
def test_eigenvalues_whole_spectrum(n):
    rng = np.random.default_rng(n)
    _assert_matches_eigvalsh(rng.uniform(-2.0, 2.0, n), rng.uniform(-1.0, 1.0, n - 1), n)


def test_eigenvalues_repeated_from_split_blocks():
    # a zero off-diagonal entry splits the matrix into two identical blocks,
    # so every eigenvalue appears exactly twice
    block_d = np.array([1.0, -2.0, 0.5, 3.0, 0.0])
    block_e = np.array([0.7, -1.1, 0.4, 0.9])
    diag = np.concatenate([block_d, block_d])
    off = np.concatenate([block_e, [0.0], block_e])
    _assert_matches_eigvalsh(diag, off, 10)
    vals = oc.tridiagonal_eigenvalues(diag, off)
    np.testing.assert_allclose(vals[0::2], vals[1::2], rtol=0, atol=1e-13)


def test_eigenvalues_wilkinson_w21():
    # W21+: its top eigenvalues come in pairs that agree to about 1e-13
    diag = np.abs(np.arange(21.0) - 10.0)
    off = np.ones(20)
    _assert_matches_eigvalsh(diag, off, 21)


def test_eigenvalues_reject_bad_input():
    for diag, off in [([1.0, np.nan, 2.0], [0.5, 0.5]), ([1.0, np.inf, 2.0], [0.5, 0.5]),
                      ([1.0, 2.0, 3.0], [0.5, -np.inf])]:
        with pytest.raises(ParameterDomainError, match="finite"):
            oc.tridiagonal_eigenvalues(diag, off, k=2)
    for diag, off in [([-1e308, 1.0, 1e308], [0.5, 0.5]), ([1.0, 2.0, 3.0], [1e200, 0.5])]:
        with pytest.raises(ParameterDomainError, match="overflow"):
            oc.tridiagonal_eigenvalues(diag, off, k=2)
    with pytest.raises(ParameterDomainError):
        oc.tridiagonal_eigenvalues([1.0, 2.0], [0.5], rel_tol=0.0)


def test_eigenvalues_stop_at_adjacent_floats():
    # a tolerance below float resolution ends when the brackets cannot be
    # split; the Sturm count itself is then the limit, a few eps * |T|
    diag = np.full(50, 2.0)
    off = np.full(49, -1.0)
    vals = oc.tridiagonal_eigenvalues(diag, off, k=5, rel_tol=1e-300)
    want = 2.0 - 2.0 * np.cos(np.arange(1, 6) * math.pi / 51)
    np.testing.assert_allclose(vals, want, rtol=0, atol=1e-15)


def test_multisection_sweep_count(monkeypatch):
    # the default HO oracle matrix (4095 rows, 8 levels) must not need
    # anywhere near the ~60 sweeps of one-shift-per-bracket bisection
    x_min, x_max, h, _, k = md.default_grid(md.HarmonicOscillator(a=1.0), 4)
    n_int = int(round((x_max - x_min) / h)) - 1
    x = x_min + h * np.arange(1, n_int + 1)
    diag = 2.0 / (h * h) + x * x
    off = np.full(n_int - 1, -1.0 / (h * h))
    sweeps = []
    counts = oc._sturm_counts

    def counted(d, off2, shifts, pivmin):
        sweeps.append(np.size(shifts))
        return counts(d, off2, shifts, pivmin)

    monkeypatch.setattr(oc, "_sturm_counts", counted)
    vals = oc.tridiagonal_eigenvalues(diag, off, k=k)
    assert len(sweeps) <= 16
    assert max(sweeps) <= oc.SHIFT_BUDGET
    assert np.max(np.abs(vals - (2.0 * np.arange(8) + 1.0)) / vals) < 1e-3


# ---------------------------------------------------------------------------
# Grid oracle
# ---------------------------------------------------------------------------

def test_particle_in_a_box():
    sol = oc.grid_solve(lambda x: 0.0 * x, 0.0, math.pi, math.pi / 1000.0, 3,
                        check_boundaries="none")
    np.testing.assert_allclose(sol.eigenvalues, [1.0, 4.0, 9.0], rtol=1e-3)


def test_ho_levels_and_orthogonality(ho_oracle):
    want = 2.0 * np.arange(8) + 1.0
    assert np.max(np.abs(ho_oracle.eigenvalues - want) / want) < 1e-3
    gram = ho_oracle.h * ho_oracle.eigenvectors @ ho_oracle.eigenvectors.T
    assert np.max(np.abs(gram - np.eye(8))) < 1e-8


def test_richardson_consistency(ho_oracle, ho_oracle_coarse):
    exact = 2.0 * np.arange(8) + 1.0
    fine_err = np.abs(ho_oracle.eigenvalues - exact)
    coarse_err = np.abs(ho_oracle_coarse.eigenvalues - exact)
    ratios = coarse_err / fine_err
    assert np.all(ratios > 3.5) and np.all(ratios < 4.5)


def test_grid_domain_too_small():
    with pytest.raises(DomainError):
        oc.grid_solve(md.HarmonicOscillator(a=1.0), -3.0, 3.0, 1.0 / 128.0, 4)


def test_grid_step_too_coarse():
    with pytest.raises(DomainError):
        oc.grid_solve(md.GeneralizedMorse(A=-6.0, B=1.0, mu_scale=2.0),
                      -6.0, 20.0, 1.0 / 16.0, 2)


def test_grid_rejects_non_finite_potential():
    with pytest.raises(DomainError, match="not finite at x = 0.51"):
        oc.grid_solve(lambda x: np.where(x > 0.505, np.nan, x * x), 0.0, 1.0, 0.01, 2)


def test_grid_argument_validation():
    with pytest.raises(DomainError):
        oc.grid_solve(lambda x: 0.0 * x, 1.0, 0.0, 0.01, 1)
    with pytest.raises(ParameterDomainError):
        oc.grid_solve(lambda x: 0.0 * x, 0.0, 1.0, 0.01, 1000)


def test_node_count():
    x = np.linspace(-4.0, 4.0, 500)
    assert oc.node_count(np.exp(-x * x)) == 0
    assert oc.node_count(x * np.exp(-x * x)) == 1
    assert oc.node_count(np.sin(3.0 * x)) == int(np.floor(24.0 / math.pi))
    # magnitudes below the floor are ignored
    v = np.exp(-x * x)
    v[10] = -1e-12
    assert oc.node_count(v) == 0


def test_ho_oracle_node_counts(ho_oracle):
    for i in range(6):
        assert oc.node_count(ho_oracle.eigenvectors[i]) == i


# ---------------------------------------------------------------------------
# Gauss rules
# ---------------------------------------------------------------------------

def test_gauss_rule_small_cases():
    rule = oc.gauss_rule(("laguerre", 0.0), 1)
    assert rule.nodes == pytest.approx([1.0])
    assert rule.weights == pytest.approx([1.0])
    rule = oc.gauss_rule(("laguerre", 0.0), 2)
    assert rule.integrate(lambda x: x * x) == pytest.approx(2.0, rel=1e-13)
    rule = oc.gauss_rule(("jacobi", 0.0, 0.0), 3)
    assert rule.integrate(lambda x: x ** 4) == pytest.approx(0.4, abs=1e-14)


@pytest.mark.parametrize("weight_id", [("laguerre", 0.0), ("laguerre", 1.7),
                                       ("jacobi", 0.0, 0.0), ("jacobi", 0.4, 2.1)])
@pytest.mark.parametrize("n_nodes", [6, 13, 24])
def test_gauss_exactness_through_orthogonality(weight_id, n_nodes):
    # the rule must integrate p_i p_j exactly for i + j <= 2n - 2 and
    # x p_{n-1}^2 (degree 2n - 1) exactly as well
    rule = oc.gauss_rule(weight_id, n_nodes)
    if weight_id[0] == "laguerre":
        nu = weight_id[1]
        fam = orthopoly.LaguerreFamily(nu)
        seq = orthopoly.laguerre_sequence(fam, n_nodes - 1, rule.nodes)
        hn = [math.exp(math.lgamma(k + nu + 1.0) - math.lgamma(k + 1.0))
              for k in range(n_nodes)]
        x_diag = 2 * (n_nodes - 1) + nu + 1.0  # <x p, p>/<p, p> from the recurrence
    else:
        a, b = weight_id[1], weight_id[2]
        fam = orthopoly.JacobiFamily(a, b)
        seq = orthopoly.jacobi_sequence(fam, n_nodes - 1, rule.nodes)
        s = a + b
        hn = [2.0 ** (s + 1) / (2 * k + s + 1)
              * math.exp(math.lgamma(k + a + 1.0) + math.lgamma(k + b + 1.0)
                         - math.lgamma(k + 1.0) - math.lgamma(k + s + 1.0))
              for k in range(n_nodes)]
        k = n_nodes - 1
        x_diag = (b * b - a * a) / ((2 * k + s) * (2 * k + s + 2.0)) if k else \
            (b - a) / (s + 2.0)
    gram = (seq * rule.weights) @ seq.T
    ref = np.diag(hn)
    assert np.max(np.abs(gram - ref) / np.sqrt(np.outer(hn, hn))) < 1e-12
    top = float(np.dot(rule.weights, rule.nodes * seq[-1] * seq[-1]))
    assert top == pytest.approx(x_diag * hn[-1], rel=1e-12)


# (weight_id, n): smallest, middle and largest node before the multisection
# solver; nodes may move by the eigensolver's rel_tol * max(1, |x|)
_PARENT_NODES = {
    (("laguerre", 0.7), 8): (0.33171760562800995, 7.828161011210806, 24.07364066788549),
    (("laguerre", 0.7), 32): (0.08913051420848501, 23.363272099951775, 113.07837781230191),
    (("laguerre", 0.7), 128): (0.022719226409741364, 85.99492154594793, 485.98730680571725),
    (("jacobi", 0.3, 1.2), 8): (-0.9033383626877609, 0.2405383376204438, 0.9526174623458861),
    (("jacobi", 0.3, 1.2), 32): (-0.9924098077197738, 0.06815797683582211,
                                 0.9963172758926999),
    (("jacobi", 0.3, 1.2), 128): (-0.9994971169024403, 0.01760124306184916,
                                  0.9997561986156605),
}


@pytest.mark.parametrize("weight_id", [("laguerre", 0.7), ("laguerre", -0.5),
                                       ("jacobi", 0.3, 1.2), ("jacobi", -0.5, -0.5)])
@pytest.mark.parametrize("n_nodes", [8, 16, 32, 64, 128])
def test_gauss_nodes_match_references(weight_id, n_nodes):
    nodes = oc.gauss_rule(weight_id, n_nodes).nodes
    alpha, beta, _ = oc._monic_coefficients(weight_id, n_nodes)
    want = np.linalg.eigvalsh(_dense(alpha, np.sqrt(beta[1:])))
    scale = np.maximum(1.0, np.abs(want))
    assert np.max(np.abs(nodes - want) / scale) < 1e-13
    parent = _PARENT_NODES.get((weight_id, n_nodes))
    if parent is not None:
        got = nodes[[0, n_nodes // 2, -1]]
        assert np.max(np.abs(got - parent) / np.maximum(1.0, np.abs(parent))) < 1e-13


def _jacobi_coefficients_loop(a, b, n):
    """Per-index reference for the Jacobi branch of _monic_coefficients."""
    alpha = np.empty(n)
    beta = np.empty(n)
    s = a + b
    for kk in range(n):
        k = float(kk)
        if kk == 0:
            alpha[kk] = (b - a) / (s + 2.0)
            beta[kk] = 0.0
        else:
            alpha[kk] = (b * b - a * a) / ((2 * k + s) * (2 * k + s + 2.0))
            if kk == 1:
                beta[kk] = 4.0 * (1.0 + a) * (1.0 + b) / ((s + 2.0) ** 2 * (s + 3.0))
            else:
                beta[kk] = (4.0 * k * (k + a) * (k + b) * (k + s)
                            / ((2 * k + s) ** 2 * (2 * k + s + 1.0) * (2 * k + s - 1.0)))
    return alpha, beta


def test_jacobi_coefficients_match_loop(rng):
    params = [(0.0, 0.0), (-0.5, -0.5), (-0.5, 0.5), (0.3, 1.2), (-0.99, 3.0)]
    params += [tuple(rng.uniform(-0.999, 8.0, 2)) for _ in range(200)]
    for a, b in params:
        for n in (1, 2, 3, 40, 300):
            alpha, beta, _ = oc._monic_coefficients(("jacobi", a, b), n)
            ref_alpha, ref_beta = _jacobi_coefficients_loop(a, b, n)
            assert np.array_equal(alpha, ref_alpha)
            # the loop squares with the C library's pow, which is not always
            # correctly rounded; the array form multiplies (a few ulp apart)
            np.testing.assert_allclose(beta, ref_beta, rtol=8 * np.finfo(float).eps, atol=0)


@pytest.mark.parametrize("weight_id", [("jacobi", 0.5, math.inf), ("jacobi", math.nan, 0.0),
                                       ("laguerre", math.inf), ("laguerre", math.nan)])
def test_gauss_rule_rejects_non_finite_exponent(weight_id):
    with pytest.raises(ParameterDomainError, match="exponent"):
        oc.gauss_rule(weight_id, 4)


def test_gauss_weights_positive_and_normalized():
    for weight_id, m0 in ((("laguerre", 0.7), math.gamma(1.7)),
                          (("jacobi", 0.3, 1.2),
                           2.0 ** 2.5 * math.gamma(1.3) * math.gamma(2.2)
                           / math.gamma(3.5))):
        rule = oc.gauss_rule(weight_id, 32)
        assert np.all(rule.weights > 0.0)
        assert np.sum(rule.weights) == pytest.approx(m0, rel=1e-12)


def _orthonormal_gram(weight_id, n_nodes):
    """Gram matrix of the orthonormal p_0..p_{n-1} under the n-node rule."""
    rule = oc.gauss_rule(weight_id, n_nodes)
    k = np.arange(n_nodes)
    if weight_id[0] == "laguerre":
        nu = weight_id[1]
        seq = orthopoly.laguerre_sequence(orthopoly.LaguerreFamily(nu), n_nodes - 1,
                                          rule.nodes)
        log_h = [math.lgamma(j + nu + 1.0) - math.lgamma(j + 1.0) for j in k]
    else:
        a, b = weight_id[1], weight_id[2]
        seq = orthopoly.jacobi_sequence(orthopoly.JacobiFamily(a, b), n_nodes - 1,
                                        rule.nodes)
        s = a + b
        log_h = [(s + 1.0) * math.log(2.0) - math.log(2 * j + s + 1.0)
                 + math.lgamma(j + a + 1.0) + math.lgamma(j + b + 1.0)
                 - math.lgamma(j + 1.0) - math.lgamma(j + s + 1.0) for j in k]
    p = seq * np.exp(-0.5 * np.array(log_h))[:, None]
    return (p * rule.weights) @ p.T


@pytest.mark.parametrize("weight_id,n_nodes", [
    (("laguerre", -0.5), 64), (("laguerre", -0.5), 96),
    (("laguerre", 0.7), 64), (("laguerre", 0.7), 96),
    (("jacobi", 0.3, 1.2), 128)])
def test_gauss_rule_exact_for_large_rules(weight_id, n_nodes):
    # every weight matters here: the tail nodes carry the top polynomials
    gram = _orthonormal_gram(weight_id, n_nodes)
    assert np.max(np.abs(gram - np.eye(n_nodes))) < 1e-10


def test_gauss_weights_finite_at_400_nodes():
    # the orthonormal values overflow at the outer nodes of this rule
    rule = oc.gauss_rule(("laguerre", 0.0), 400)
    assert np.all(np.isfinite(rule.weights))
    assert np.all(rule.weights >= 0.0)


# ---------------------------------------------------------------------------
# Adaptive quadrature
# ---------------------------------------------------------------------------

def test_adaptive_quad_nonconvergence():
    with pytest.raises(AccuracyError):
        oc.adaptive_quad(lambda x: np.abs(x - 0.3) ** -0.98, 0.0, 1.0,
                         tol=1e-10, max_eval=20000)


def test_adaptive_quad_smooth():
    val, err = oc.adaptive_quad(lambda x: np.sin(x), 0.0, math.pi, tol=1e-12)
    assert val == pytest.approx(2.0, rel=1e-11)
