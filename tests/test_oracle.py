import math
import tracemalloc
from functools import lru_cache

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.lib.stride_tricks import sliding_window_view

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
    vals = oc.tridiagonal_eigenvalues(diag, off)[:6]
    want = 2.0 - 2.0 * np.cos(np.arange(1, 7) * math.pi / (n + 1))
    np.testing.assert_allclose(vals, want, rtol=1e-12)


def test_eigenvector_residual():
    rng = np.random.default_rng(3)
    diag = rng.uniform(-1.0, 1.0, 60)
    off = rng.uniform(0.1, 0.5, 59)
    vals = oc.tridiagonal_eigenvalues(diag, off)[:4]
    for lam in vals:
        v = oc.tridiagonal_eigenvector(diag, off, lam)
        res = diag * v
        res[:-1] += off * v[1:]
        res[1:] += off * v[:-1]
        assert np.max(np.abs(res - lam * v)) < 1e-10


def _dense(diag, off):
    return np.diag(diag) + np.diag(off, 1) + np.diag(off, -1)


def _assert_matches_mpmath(diag, off, k):
    # the lowest k eigenvalues against those of the same float matrix at 40
    # digits (_mpmath_eigenvalues, which certifies each one's index by Sturm
    # counts), within 1e-12 of the spectral radius
    got = oc.tridiagonal_eigenvalues(diag, off)
    assert got.shape == (np.size(diag),)
    want = np.array(_mpmath_eigenvalues(diag, off, got[:k]), dtype=float)
    assert np.max(np.abs(got[:k] - want)) <= 1e-12 * np.max(np.abs(got))


def _random_matrices():
    """(diag, off, k) for n = 3 to 700 at scales 1e-3 to 1e3."""
    rng = np.random.default_rng(20261018)
    for n, k in [(3, 1), (12, 5), (40, 40), (300, 7), (700, 600)]:
        scale = 10.0 ** rng.uniform(-3.0, 3.0)
        yield scale * rng.standard_normal(n), scale * rng.standard_normal(n - 1), k


def test_eigenvalues_random_matrices():
    # the reference costs about 3 k n mpmath steps (20 s for all of the 700
    # rows), so the lowest 64 at most are checked here; whole spectra are
    # checked in test_eigenvalues_whole_spectrum
    for diag, off, k in _random_matrices():
        _assert_matches_mpmath(diag, off, min(k, 64))


def test_eigenvectors_match_eigh():
    # np.linalg.eigh is a test-only reference
    for diag, off, k in _random_matrices():
        want_vals, want_vecs = np.linalg.eigh(_dense(diag, off))
        radius = np.max(np.abs(want_vals))
        for lam, ref in zip(oc.tridiagonal_eigenvalues(diag, off)[:k], want_vecs.T):
            v = oc.tridiagonal_eigenvector(diag, off, lam)
            assert abs(np.dot(v, ref)) >= 1.0 - 1e-12
            res = diag * v - lam * v
            res[:-1] += off * v[1:]
            res[1:] += off * v[:-1]
            assert np.max(np.abs(res)) <= 1e-10 * radius
        # no random start vector: the same call gives the same bits
        np.testing.assert_array_equal(oc.tridiagonal_eigenvector(diag, off, lam), v)


@pytest.mark.parametrize("lam", [0.0, -1e-310])
def test_eigenvector_at_zero_pivots(lam):
    # 0 is an eigenvalue of tridiag(1e5, 0, 1e5), so the first pivot of each
    # factorization is 0 or subnormal, and the next one divides e^2 = 1e10 by
    # it once it is nudged
    v = oc.tridiagonal_eigenvector([0.0, 0.0, 0.0], [1e5, 1e5], lam)
    np.testing.assert_allclose(v, [math.sqrt(0.5), 0.0, -math.sqrt(0.5)], atol=1e-15)


def test_eigenvector_exactly_degenerate_pair():
    # two uncoupled copies of tridiag(-1, 2, -1): 2 - sqrt(2) is a double
    # eigenvalue, and the second vector must span the rest of its eigenspace
    diag, off = np.full(6, 2.0), np.array([-1.0, -1.0, 0.0, -1.0, -1.0])
    lam = 2.0 - math.sqrt(2.0)
    v0 = oc.tridiagonal_eigenvector(diag, off, lam)
    v1 = oc.tridiagonal_eigenvector(diag, off, lam, orthogonalize=[v0])
    for v in (v0, v1):
        assert abs(np.linalg.norm(v) - 1.0) < 1e-15
        assert np.max(np.abs(_dense(diag, off) @ v - lam * v)) < 1e-14
    assert abs(v0 @ v1) < 1e-15


def test_eigenvector_rejects_bad_input():
    for diag, off, lam in [([1.0, 2.0, 3.0], [0.5, 0.5, 0.5], 1.0),
                           ([1.0, 2.0, 3.0], [0.5], 1.0),
                           ([], [], 1.0)]:
        with pytest.raises(ParameterDomainError, match="length n-1"):
            oc.tridiagonal_eigenvector(diag, off, lam)
    for diag, off, lam in [([1.0, np.nan, 2.0], [0.5, 0.5], 1.0),
                           ([1.0, 2.0, 3.0], [0.5, -np.inf], 1.0),
                           ([1.0, 2.0, 3.0], [0.5, 0.5], np.nan),
                           ([1.0, 2.0, 3.0], [0.5, 0.5], -np.inf)]:
        with pytest.raises(ParameterDomainError, match="finite"):
            oc.tridiagonal_eigenvector(diag, off, lam)
    with pytest.raises(ParameterDomainError, match="overflow"):
        oc.tridiagonal_eigenvector([1.0, 2.0, 3.0], [1e200, 0.5], 1.0)


@pytest.mark.parametrize("n", [2, 17, 128])
def test_eigenvalues_whole_spectrum(n):
    rng = np.random.default_rng(n)
    _assert_matches_mpmath(rng.uniform(-2.0, 2.0, n), rng.uniform(-1.0, 1.0, n - 1), n)


def _split_blocks():
    """(block diagonal, block off-diagonal, diagonal, off-diagonal) of two
    copies of one 5-row block."""
    block_d = np.array([1.0, -2.0, 0.5, 3.0, 0.0])
    block_e = np.array([0.7, -1.1, 0.4, 0.9])
    return (block_d, block_e, np.concatenate([block_d, block_d]),
            np.concatenate([block_e, [0.0], block_e]))


def test_eigenvalues_repeated_from_split_blocks():
    # a zero off-diagonal entry splits the matrix into two identical blocks,
    # so every eigenvalue appears exactly twice: those of one block at 40
    # digits, each twice, are the reference
    block_d, block_e, diag, off = _split_blocks()
    block = _mpmath_eigenvalues(block_d, block_e, np.linalg.eigvalsh(_dense(block_d, block_e)))
    want = np.repeat(np.array(block, dtype=float), 2)
    vals = oc.tridiagonal_eigenvalues(diag, off)
    assert np.max(np.abs(vals - want)) <= 1e-12 * np.max(np.abs(want))
    np.testing.assert_allclose(vals[0::2], vals[1::2], rtol=0, atol=1e-13)


def _wilkinson(m):
    """W(2m+1)+: its top eigenvalues come in pairs that agree to about 1e-13
    for m = 10, and below float resolution from about m = 20."""
    return np.abs(np.arange(2.0 * m + 1.0) - m), np.ones(2 * m)


def _mpmath_wilkinson_eigenvalues(m):
    """W(2m+1)+'s eigenvalues at 40 digits, ascending.  Its even
    eigenvectors are those of tridiag(sqrt 2, 1, ...; 0, 1, ..., m) and its
    odd ones those of tridiag(1, ...; 1, ..., m), so each pair is split
    between the halves, whose eigenvalues mpmath's Jacobi eigensolver gives."""
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workdps(40):
        even, odd = mpmath.diag(list(range(m + 1))), mpmath.diag(list(range(1, m + 1)))
        for i in range(m):
            even[i, i + 1] = even[i + 1, i] = mpmath.sqrt(2) if i == 0 else 1
        for i in range(m - 1):
            odd[i, i + 1] = odd[i + 1, i] = 1
        return np.sort([float(x) for half in (even, odd)
                        for x in mpmath.eigsy(half, eigvals_only=True)])


@pytest.mark.parametrize("value", [2.0, -3e300, 0.0])
def test_eigenvalues_of_a_scalar_matrix(value):
    # the Gershgorin interval is a single point, and every pivot is zero at
    # the eigenvalue
    vals = oc.tridiagonal_eigenvalues([value] * 4, [0.0] * 3)
    np.testing.assert_allclose(vals, value, rtol=4e-16, atol=1e-30)
    vals = oc.tridiagonal_eigenvalues([value] * 2, [1e-20])
    np.testing.assert_allclose(vals, value, rtol=4e-16, atol=2e-20)


def test_eigenvalues_wilkinson_w21():
    want = _mpmath_wilkinson_eigenvalues(10)
    vals = oc.tridiagonal_eigenvalues(*_wilkinson(10))
    assert np.max(np.abs(vals - want)) <= 1e-12 * np.max(np.abs(want))


@pytest.mark.parametrize("case", ["w21", "w57", "w79", "split-blocks", "scalar"])
def test_eigenvalue_newton_pass_keeps_clusters_in_order(case):
    # close pairs and repeated eigenvalues stay finite, ascending and
    # accurate
    m = {"w21": 10, "w57": 28, "w79": 39}.get(case)
    diag, off = {"split-blocks": _split_blocks()[2:],
                 "scalar": ([2.0] * 6, [0.0] * 5)}.get(case) or _wilkinson(m)
    vals = oc.tridiagonal_eigenvalues(diag, off)
    assert np.all(np.isfinite(vals))
    assert np.all(np.diff(vals) >= 0.0)
    if m is not None:
        want = _mpmath_wilkinson_eigenvalues(m)
        assert np.max(np.abs(vals - want)) <= 1e-12 * np.max(np.abs(want))


def test_eigenvalues_reject_bad_input():
    for diag, off in [([1.0, np.nan, 2.0], [0.5, 0.5]), ([1.0, np.inf, 2.0], [0.5, 0.5]),
                      ([1.0, 2.0, 3.0], [0.5, -np.inf])]:
        with pytest.raises(ParameterDomainError, match="finite"):
            oc.tridiagonal_eigenvalues(diag, off)
    for diag, off in [([-1e308, 1.0, 1e308], [0.5, 0.5]), ([1.0, 2.0, 3.0], [1e200, 0.5])]:
        with pytest.raises(ParameterDomainError, match="overflow"):
            oc.tridiagonal_eigenvalues(diag, off)


def test_eigenvalues_stop_at_adjacent_floats():
    # the eigenvalues come to within a few eps |T| of the closed form, the
    # limit of any float evaluation of the matrix
    diag = np.full(50, 2.0)
    off = np.full(49, -1.0)
    vals = oc.tridiagonal_eigenvalues(diag, off)[:5]
    want = 2.0 - 2.0 * np.cos(np.arange(1, 6) * math.pi / 51)
    np.testing.assert_allclose(vals, want, rtol=0, atol=1e-15)


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


def _double_well(a):
    return lambda x: (x * x - a * a) ** 2 / 4.0


def _triple_well(x):
    return 4.0 * np.minimum(np.minimum((x + 8.0) ** 2, x * x), (x - 8.0) ** 2)


# want: the exact eigenvalues of the float pencil that grid_solve builds,
# rounded to floats, from a Sturm bisection at 40 digits.  _mpmath_levels
# cannot make them, as it needs each level alone in its start bracket; they
# were made by
#
#     levels, seen = oc._levels, {}
#     def capture(alpha, beta, *rest):
#         seen["ab"] = alpha, beta
#         return levels(alpha, beta, *rest)
#     oc._levels = capture
#     sol = oc.grid_solve(potential, x_min, x_max, 1.0 / 64.0, k)
#     with mpmath.workdps(40):
#         a, b = ([mpmath.mpf(v) for v in seq] for seq in seen["ab"])
#         def count(e):
#             q, below = None, 0
#             for ai, bi in zip(a, b):
#                 d = bi / (ai + e) - 10
#                 q = d if q is None else d - 1 / q
#                 below += q < 0
#             return below
#         want = []
#         for j, val in enumerate(sol.eigenvalues):
#             v = mpmath.mpf(float(val))
#             lo, hi = v - abs(v) / 10**9, v + abs(v) / 10**9
#             assert count(lo) <= j < count(hi)
#             for _ in range(64):
#                 mid = (lo + hi) / 2
#                 if count(mid) <= j:
#                     lo = mid
#                 else:
#                     hi = mid
#             want.append(float((lo + hi) / 2))
@pytest.mark.parametrize("potential, x_min, x_max, k, want", [
    (_double_well(2.9), -8.9, 8.9, 4,
     [2.837474501530937, 2.8374797590149266, 8.233627907723802, 8.23439754981979]),
    (_double_well(3.0), -9.0, 9.0, 4,
     [2.941883899372145, 2.941884909958171, 8.570152831842304, 8.570322247578375]),
    (_double_well(3.07), -9.07, 9.07, 4,
     [3.0146845193268312, 3.0146848153694252, 8.802803970105435, 8.80285824275888]),
    (_double_well(3.1), -9.1, 9.1, 4,
     [3.0458201986817874, 3.045820370329361, 8.901891833712433, 8.901924491554112]),
    (_double_well(3.14), -9.14, 9.14, 4,
     [3.08727840350254, 3.0872784850224173, 9.033486714292204, 9.033502994422284]),
    (_double_well(3.59), -9.59, 9.59, 4,
     [3.5502065506604152, 3.5502065506647034, 10.483312832727261, 10.48331283411058]),
    (_double_well(4.0), -10.0, 10.0, 4,
     [3.968178180618738, 3.968178180618738, 11.772733569250857, 11.772733569250876]),
    (_double_well(5.0), -11.0, 11.0, 4,
     [4.979816278541002, 4.979816278541002, 14.857317457153536, 14.857317457153536]),
    (_triple_well, -14.0, 14.0, 6,
     [1.9999999962742243, 1.9999999962744544, 1.9999999962746817,
      5.999999973906243, 5.999999973920513, 5.999999973934601]),
], ids=["double-well-2.9", "double-well-3", "double-well-3.07", "double-well-3.1",
        "double-well-3.14", "double-well-3.59", "double-well-4", "double-well-5",
        "triple-well"])
def test_near_degenerate_levels_orthonormal(potential, x_min, x_max, k, want):
    # tunnelling splits these pairs and triples by 9e-5 relative down to
    # nothing at all; those within 1e-6 fall in grid_solve's cluster rule, the
    # wider pairs of a = 2.9 to 3.14 only in its rounding-error window; at
    # a = 3.59 the two lowest levels are equal and the twisted vector of
    # level 1 lies along level 0
    sol = oc.grid_solve(potential, x_min, x_max, 1.0 / 64.0, k)
    np.testing.assert_allclose(sol.eigenvalues, want, rtol=2e-12, atol=0)
    gram = sol.h * sol.eigenvectors @ sol.eigenvectors.T
    assert np.max(np.abs(gram - np.eye(k))) < 1e-8


def test_richardson_consistency(ho_oracle, ho_oracle_coarse):
    exact = 2.0 * np.arange(8) + 1.0
    fine_err = np.abs(ho_oracle.eigenvalues - exact)
    coarse_err = np.abs(ho_oracle_coarse.eigenvalues - exact)
    ratios = coarse_err / fine_err
    assert np.all(ratios > 14.0) and np.all(ratios < 18.0)


def test_grid_domain_too_small():
    with pytest.raises(DomainError):
        oc.grid_solve(md.HarmonicOscillator(a=1.0).potential, -3.0, 3.0, 1.0 / 128.0, 4)


def test_grid_step_too_coarse():
    with pytest.raises(DomainError):
        oc.grid_solve(md.GeneralizedMorse(A=-6.0, B=1.0, mu_scale=2.0).potential,
                      -6.0, 20.0, 1.0 / 16.0, 2)


def test_grid_rejects_non_finite_potential():
    with pytest.raises(DomainError, match="not finite at x = 0.51"):
        oc.grid_solve(lambda x: np.where(x > 0.505, np.nan, x * x), 0.0, 1.0, 0.01, 2)


def test_grid_argument_validation():
    with pytest.raises(DomainError):
        oc.grid_solve(lambda x: 0.0 * x, 1.0, 0.0, 0.01, 1)
    with pytest.raises(ParameterDomainError):
        oc.grid_solve(lambda x: 0.0 * x, 0.0, 1.0, 0.01, 1000)


@pytest.mark.parametrize("args, match", [
    ((0.0, 1.0, math.nan, 1), r"^h = nan must be finite$"),
    ((0.0, math.inf, 0.01, 1), r"^x_max = inf must be finite$"),
    ((0.0, 1.0, 0.01, 2.5), r"^k must be an integer, got 2.5$"),
], ids=["h-nan", "x_max-inf", "k-fraction"])
def test_grid_rejects_bad_grid_inputs(args, match):
    with pytest.raises(ParameterDomainError, match=match):
        oc.grid_solve(lambda x: 0.0 * x, *args)


def test_grid_rejects_a_huge_row_count():
    # numpy's arange raised "Maximum allowed size exceeded" here
    with pytest.raises(DomainError, match=r"^the grid on \[0\.0, 1e\+300\] with h = 1\.0 "
                                          r"has 1e\+300 interior rows, more than "
                                          r"MAX_GRID_ROWS = 10000000$"):
        oc.grid_solve(lambda x: 0 * x, 0.0, 1e300, 1.0, 1)
    # a span that overflows to inf
    with pytest.raises(DomainError, match="MAX_GRID_ROWS"):
        oc.grid_solve(lambda x: 0 * x, -1e308, 1e308, 1.0, 1)


def test_grid_one_row_above_the_limit_raises_before_allocating():
    def potential(x):
        raise AssertionError("the potential was evaluated")

    rows = oc.MAX_GRID_ROWS + 1
    tracemalloc.start()
    try:
        with pytest.raises(DomainError, match=r"has %d\.0 interior rows" % rows):
            oc.grid_solve(potential, 0.0, rows + 1.0, 1.0, 1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1e6


def _numerov_kinetic(n, h):
    # dense K = -(I + D2/12)^{-1} D2 / h^2 with Dirichlet ends (test reference)
    d2 = _dense(np.full(n, -2.0), np.ones(n - 1))
    return -np.linalg.solve(np.eye(n) + d2 / 12.0, d2) / (h * h)


def _dense_counts(vals, shifts):
    return np.searchsorted(np.sort(vals), shifts)


def _numerov_arrays(h, rho, v):
    # alpha, beta of h^2 T(E) as grid_solve builds them from U = v and rho
    sigma = 12.0 / (h * h * rho)
    return sigma - v / rho, 12.0 * sigma


def _twisted_counts(alpha, beta, energy):
    # the count of the twisted factorization at every twist row, and at the
    # least |gamma_r| of the two-sided pass
    return {oc._twisted_step(alpha, beta, energy, r)[0] for r in range(alpha.size)} | {
        oc._twisted_step(alpha, beta, energy)[0]}


@pytest.mark.parametrize("langer", [False, True])
def test_numerov_count_matches_dense_reference(langer):
    # the count of h^2 T(E), diagonal -10 + beta / (alpha + E) = -10 +
    # 12 / (1 - h^2 (V - E rho) / 12), equals the number of eigenvalues below
    # E of (K + V) psi = E rho psi, i.e. of rho^{-1/2} (K + V) rho^{-1/2}; a
    # twisted factorization is a congruence of the forward one, so by
    # Sylvester's law of inertia its count is the same at every twist row
    rng = np.random.default_rng(20261018 + langer)
    for n in (10, 37, 90, 200):
        h = rng.uniform(0.02, 0.2)
        rho = np.exp(rng.uniform(-3.0, 3.0, n)) if langer else np.ones(n)
        v = rho * rng.uniform(-1.0, 1.0) + rng.uniform(0.0, 0.4, n) * 12.0 / (h * h)
        scale = 1.0 / np.sqrt(rho)
        ref = np.linalg.eigvalsh(scale[:, None] * (_numerov_kinetic(n, h) + np.diag(v))
                                 * scale[None, :])
        mid = 0.5 * (ref[:-1] + ref[1:])
        shifts = np.concatenate([mid, [ref[0] - 1.0, ref[-1] + 1.0]])
        alpha, beta = _numerov_arrays(h, rho, v)
        want = _dense_counts(ref, shifts)
        got = [oc._numerov_count(alpha, beta, float(e)) for e in shifts]
        np.testing.assert_array_equal(got, want)
        stride = max(1, n // 20)  # every twist row at every stride-th shift
        for e, count in zip(shifts[::stride], want[::stride]):
            assert _twisted_counts(alpha, beta, float(e)) == {count}


def test_grid_solve_matches_dense_numerov():
    # whole path: bracket, multisection and the psi = y / (1 - h^2 g / 12) vectors
    h, n = 0.1, 79
    x = -4.0 + h * np.arange(1, n + 1)
    sol = oc.grid_solve(lambda x: x * x + np.sin(3.0 * x), -4.0, 4.0, h, 5,
                        check_boundaries="none")
    a = _numerov_kinetic(n, h) + np.diag(x * x + np.sin(3.0 * x))
    ref, vecs = np.linalg.eigh(a)
    np.testing.assert_allclose(sol.eigenvalues, ref[:5], rtol=1e-12)
    for i in range(5):
        want = vecs[:, i] / np.sqrt(h)
        assert np.max(np.abs(sol.eigenvectors[i] - np.sign(want @ sol.eigenvectors[i]) * want)) < 1e-9


def test_langer_grid_matches_dense_reference():
    model = md.OscillatorInverseSquare(a=1.0, b=0.3)
    h, x_min, x_max = 1.0 / 8.0, math.exp(-6.0), math.exp(1.5)
    sol = oc.grid_solve(model.potential, x_min, x_max, h, 3, langer=True,
                        check_boundaries="none")
    n = sol.x.size
    t = -6.0 + h * np.arange(1, n + 1)
    np.testing.assert_allclose(sol.x, np.exp(t), rtol=1e-12)
    rho = np.exp(2.0 * t)
    u = np.exp(4.0 * t) + 0.3 + 0.25
    scale = 1.0 / np.sqrt(rho)
    ref = np.linalg.eigvalsh(scale[:, None] * (_numerov_kinetic(n, h) + np.diag(u))
                             * scale[None, :])
    np.testing.assert_allclose(sol.eigenvalues, ref[:3], rtol=1e-11)


def test_langer_eigenvectors_orthonormal_under_x_h(oscinv_b075_oracle):
    sol = oscinv_b075_oracle
    gram = (sol.eigenvectors * (sol.x * sol.h)) @ sol.eigenvectors.T
    assert np.max(np.abs(gram - np.eye(3))) < 1e-8


def test_numerov_sweep_count_on_default_grids():
    # one loop per level: bisection until the level is alone in its
    # bracket, then Newton's method on its twisted factorization, each pass
    # counted by the rows it sweeps (two for a level's first Newton pass).
    # On the two Morse wells Newton's method on det T(E) took 41 and 36
    # passes: its step feels every state above the level, so it crept
    for model, n_levels in [(md.HarmonicOscillator(a=1.0), 4),
                            (md.OscillatorInverseSquare(a=1.0, b=0.75), 3),
                            (md.GeneralizedMorse(A=-6.0, B=1.0, mu_scale=2.0), None),
                            (md.RosenMorse(A=1.0, B=-2.0), None),
                            (md.GeneralizedMorse(A=-5.078472251771057, B=1.3204407989787743,
                                                 mu_scale=2.298208692855176), None)]:
        x_min, x_max, h, k = md.default_grid(model, n_levels)
        sol = oc.grid_solve(model.potential, x_min, x_max, h, k, langer=model.half_line)
        assert 1 <= sol.passes <= 6 * k + 10, model


@pytest.mark.parametrize("d", [
    (0.0, 0.0, 0.0),           # p = 0, -1, 0: zeros after p > 0 and after p < 0
    (-1.0, 1.0, 0.5),          # p = -1, -2, 0
    (1.0, 2.0, 1.0),           # p = 1, 1, 0
    (2.0, 1.0, 3.0, 1.0),      # p = 2, 1, 1, 0
    (-2.0, -1.0, -3.0, -1.0),  # p = -2, 1, -1, 0
    (-1.0, 1.0, 0.5, 3.0),     # p = -1, -2, 0, 2
])
def test_newton_count_at_exact_float_eigenvalues(d):
    # alpha_i + E = 2 and beta_i = 2 (10 + d_i) make every d_i, and so every
    # minor p_i, exact at E = 0.5: an exact zero minor meets the count there.
    # _pivots nudges an exact +0 pivot to +tiny, and the next pivot goes
    # negative (Kahan's IEEE Sturm count)
    d = np.array(d)
    alpha, beta = np.full(d.size, 1.5), 2.0 * (10.0 + d)
    # the count is the number of negative eigenvalues of tridiag(-1, d(E), -1)
    # with d(E) = beta / (alpha + E) - 10, which is d at E = 0.5
    for e in (0.5, 0.25, 0.75):
        dense = _dense(beta / (1.5 + e) - 10.0, -np.ones(d.size - 1))
        exact = int(np.sum(np.linalg.eigvalsh(dense) < -1e-12))
        assert oc._numerov_count(alpha, beta, e) == exact


def test_newton_step_matches_dense_determinant():
    # the step is Newton's on the Rayleigh functional of the twisted vector
    # z: -z^T T z / z^T T' z, with z the column r of T(E)^{-1} scaled to
    # z_r = 1 and T'(E) = -diag(beta / (alpha + E)^2), here from dense solves
    rng = np.random.default_rng(7)
    n, h = 12, 0.1
    rho = np.exp(rng.uniform(-1.0, 1.0, n))
    v = rho * 0.3 + rng.uniform(0.0, 0.4, n) * 12.0 / (h * h)
    a, b = _numerov_arrays(h, rho, v)

    for e in (1.0, 37.5, 120.0):
        t = _dense(b / (a + e) - 10.0, -np.ones(n - 1))
        slope = -np.diag(b / (a + e) ** 2)
        inverse = np.linalg.inv(t)
        least = int(np.argmax(np.abs(np.diag(inverse))))  # least |gamma_r| = 1 / |T^-1_rr|
        for twist in (None, least, 0, n // 2, n - 1):
            r = least if twist is None else twist
            z = inverse[:, r] / inverse[r, r]
            step = oc._twisted_step(a, b, e, twist)[1]
            assert step == pytest.approx(-(z @ t @ z) / (z @ slope @ z), rel=1e-6)


def _mpmath_levels(alpha, beta, approx):
    # reference: Sturm bisection at 40 digits of the same float alpha, beta,
    # from a bracket 1e-9 around each approximate level that its counts confirm
    mpmath = pytest.importorskip("mpmath")

    def count(e):
        q, below = None, 0
        for ai, bi in zip(a, b):
            d = bi / (ai + e) - 10
            q = d if q is None else d - 1 / q
            below += q < 0
        return below

    out = []
    with mpmath.workdps(40):
        a = [mpmath.mpf(v) for v in alpha]
        b = [mpmath.mpf(v) for v in beta]
        for j, val in enumerate(approx):
            v = mpmath.mpf(float(val))
            lo, hi = v - abs(v) / 10**9, v + abs(v) / 10**9
            assert count(lo) == j and count(hi) == j + 1
            for _ in range(40):
                mid = (lo + hi) / 2
                if count(mid) <= j:
                    lo = mid
                else:
                    hi = mid
            out.append(float((lo + hi) / 2))
    return np.array(out)


@pytest.mark.parametrize("model, x_min, x_max, h, k", [
    (lambda x: x * x + np.sin(3.0 * x), -6.0, 6.0, 1.0 / 16.0, 4),
    (md.OscillatorInverseSquare(a=1.0, b=0.75), math.exp(-6.0), math.exp(1.5), 1.0 / 32.0, 3),
    # a Morse threshold well on 79 rows: its upper levels are box states
    (lambda x: -6.0 * np.exp(-x) + np.exp(-2.0 * x), -2.0, 6.0, 0.1, 5),
])
def test_grid_solve_matches_mpmath_bisection(monkeypatch, model, x_min, x_max, h, k):
    sol, ref = _solve_with_mpmath_levels(monkeypatch, model, x_min, x_max, h, k)
    assert sol.x.size <= 300
    np.testing.assert_allclose(sol.eigenvalues, ref, rtol=1e-11)


def _solve_with_mpmath_levels(monkeypatch, model, x_min, x_max, h, k):
    # grid_solve's levels and the 40-digit bisection of the alpha and beta
    # its Newton passes saw
    seen = {}
    step = oc._twisted_step

    def capture(alpha, beta, *rest):
        seen["alpha"], seen["beta"] = alpha.tolist(), beta.tolist()
        return step(alpha, beta, *rest)

    monkeypatch.setattr(oc, "_twisted_step", capture)
    # model is U itself, on the plain grid, or a model with a wall at x = 0
    potential, langer = (model, False) if callable(model) else (model.potential, True)
    sol = oc.grid_solve(potential, x_min, x_max, h, k, langer=langer, check_boundaries="none")
    return sol, _mpmath_levels(seen["alpha"], seen["beta"], sol.eigenvalues)


@pytest.mark.parametrize("model, x_min, x_max", [
    (lambda x: x * x, -8.0, 8.0),
    (lambda x: x * x + np.sin(3.0 * x), -6.0, 6.0),
])
def test_newton_levels_take_out_the_rounding_of_alpha_plus_e(monkeypatch, model, x_min, x_max):
    # at h = 1/16, alpha_i + E (alpha_i about 12 / h^2 = 3072) moves E by up
    # to 2.3e-13, by the same amount on every row whose alpha_i shares a
    # binade; Newton's step adds that shift back, so its levels meet the
    # 40-digit bisection of the same floats to an eighth of an ulp of 3072.
    # A step on the rounded diagonal alone read 1.7e-13 off on the
    # oscillator's level 0
    sol, ref = _solve_with_mpmath_levels(monkeypatch, model, x_min, x_max, 1.0 / 16.0, 4)
    np.testing.assert_allclose(sol.eigenvalues, ref, rtol=0, atol=math.ulp(12.0 * 16.0 ** 2) / 8)


def _ho_grid_solve():
    return oc.grid_solve(lambda x: x * x, -8.0, 8.0, 1.0 / 16.0, 4)


def test_grid_solve_bisects_when_newton_steps_are_nan(monkeypatch):
    want = _ho_grid_solve().eigenvalues
    step = oc._twisted_step

    def nan_step(alpha, beta, energy, twist=None):
        count, _, peak, z = step(alpha, beta, energy, twist)
        return count, math.nan, peak, z

    monkeypatch.setattr(oc, "_twisted_step", nan_step)
    got = _ho_grid_solve().eigenvalues
    assert np.all(np.isfinite(got))
    np.testing.assert_allclose(got, want, rtol=1e-13)


def test_levels_take_a_closed_bracket_as_it_is():
    # a bracket between adjacent floats, as multisection can leave, needs no
    # pass and so has no twisted vector
    assert oc._levels(np.full(3, 1.5), np.full(3, 20.0), 0.5, math.nextafter(0.5, 1.0),
                      1) == ([(0.5, None, 0.0)], 0)


def test_newton_pass_cap_raises_with_the_bracket(monkeypatch):
    # steps that creep up by 1e-9 |E| never finish and never leave the bracket
    want = _ho_grid_solve().eigenvalues
    step = oc._twisted_step

    def creeping_step(alpha, beta, energy, twist=None):
        count, _, peak, z = step(alpha, beta, energy, twist)
        return count, 1e-9 * abs(energy), peak, z

    monkeypatch.setattr(oc, "_twisted_step", creeping_step)
    with pytest.raises(AccuracyError, match="level 0") as info:
        _ho_grid_solve()
    lo, hi = info.value.estimates
    assert lo < want[0] < hi


_ISOLATED = [md.HarmonicOscillator(a=1.0), md.OscillatorInverseSquare(a=1.0, b=0.75),
             md.GeneralizedMorse(A=-6.0, B=1.0, mu_scale=2.0),
             md.GeneralizedMorse(A=-9.0, B=4.0, mu_scale=4.0), md.RosenMorse(A=1.0, B=-2.0)]


def _default_solve(model):
    x_min, x_max, h, k = md.default_grid(model)
    return oc.grid_solve(model.potential, x_min, x_max, h, k, langer=model.half_line)


def _refactorized_vectors(potential, grid, vals, langer=False):
    # grid_solve's eigenvector stage on grid = (x_min, x_max, h) with every
    # level factorized again by tridiagonal_eigenvector at its eigenvalue:
    # for levels far apart (no cluster, no re-orthogonalization) this is its
    # fallback path, step for step
    x_min, x_max, h = grid
    x, rho, ux = oc._numerov_grid(potential, x_min, x_max, h, len(vals), langer)[:3]
    off = np.full(x.size - 1, -1.0 / (h * h))
    out = []
    for e in vals:
        g = ux - e * rho
        scale = 1.0 - h * h / 12.0 * g
        psi = oc.tridiagonal_eigenvector(2.0 / (h * h) + g / scale, off, 0.0) / scale
        psi = psi / np.sqrt(h * np.sum(rho * psi * psi))
        out.append(psi * np.sqrt(x) if langer else psi)
    return np.array(out)


def _count_eigenvector_calls(monkeypatch):
    calls = []
    eigenvector = oc.tridiagonal_eigenvector

    def counted(*args, **kwargs):
        calls.append(len(kwargs.get("orthogonalize", ())))
        return eigenvector(*args, **kwargs)

    monkeypatch.setattr(oc, "tridiagonal_eigenvector", counted)
    return calls


@pytest.mark.parametrize("solve, want", [
    (lambda: _default_solve(_ISOLATED[0]), []),
    (lambda: _default_solve(_ISOLATED[2]), []),
    (lambda: oc.grid_solve(_triple_well, -14.0, 14.0, 1.0 / 64.0, 6), [0, 1, 2, 1, 2]),
    (lambda: oc.grid_solve(_double_well(3.07), -9.07, 9.07, 1.0 / 64.0, 4), [0, 1, 0]),
], ids=["ho", "morse", "triple-well", "double-well-3.07"])
def test_only_clusters_are_factorized_again(monkeypatch, solve, want):
    # want: the cluster size handed to each tridiagonal_eigenvector call.
    # A level far from the others takes the twisted vector of its last
    # Newton pass.  The triple well's levels 1-2 and 4-5 fall in the 1e-6
    # cluster of the levels below them; level 0 is factorized too, alone,
    # because bisection closed its bracket, so no Newton pass ran.  On the
    # double well level 1 joins level 0's cluster, and levels 0 and 3 are
    # factorized alone: their last steps are 4.1e-8 and 6.9e-8 of their gaps
    calls = _count_eigenvector_calls(monkeypatch)
    solve()
    assert calls == want


@pytest.mark.parametrize("model", _ISOLATED, ids=["ho", "osc-inv-sq", "morse-6", "morse-9",
                                                  "rosen-morse"])
def test_newton_vectors_match_a_fresh_factorization(model):
    # Newton's last pass is one step (at most 1e-10 |E|) short of the
    # returned E, so its z differs from the eigenvector there by about that
    # step over the gap to the next level: 3.6e-11 at most on these grids
    sol = _default_solve(model)
    want = _refactorized_vectors(model.potential, md.default_grid(model)[:3], sol.eigenvalues,
                                 model.half_line)
    np.testing.assert_allclose(sol.eigenvectors, want, rtol=0, atol=1e-9)


def test_close_pair_levels_match_a_fresh_factorization():
    # level 0 of this double well lies 3e-7 below level 1, and its last
    # Newton pass is 4.1e-8 of that gap short of it, more than 1e-9.  That
    # pass's twisted vector mixes level 1 in (7.8e-6 off the 40-digit vector,
    # a fresh factorization 2.1e-8), so the level is factorized again
    grid = (-9.07, 9.07, 1.0 / 64.0)
    sol = oc.grid_solve(_double_well(3.07), *grid, 4)
    want = _refactorized_vectors(_double_well(3.07), grid, sol.eigenvalues[:1])
    np.testing.assert_array_equal(sol.eigenvectors[:1], want)


def test_non_finite_newton_vectors_fall_back_to_a_fresh_factorization(monkeypatch):
    model = md.GeneralizedMorse(A=-6.0, B=1.0, mu_scale=2.0)
    want = _default_solve(model).eigenvalues
    step = oc._twisted_step

    def overflowed_step(alpha, beta, energy, twist=None):
        count, newton, peak, z = step(alpha, beta, energy, twist)
        return count, newton, peak, np.full_like(z, np.inf)

    monkeypatch.setattr(oc, "_twisted_step", overflowed_step)
    calls = _count_eigenvector_calls(monkeypatch)
    sol = _default_solve(model)
    np.testing.assert_array_equal(sol.eigenvalues, want)
    assert calls == [0] * want.size
    np.testing.assert_array_equal(sol.eigenvectors, _refactorized_vectors(
        model.potential, md.default_grid(model)[:3], want, model.half_line))


@pytest.mark.parametrize("A, B, mu_scale, levels, want", [
    (-5.078472251771057, 1.3204407989787743, 2.298208692855176, 2,
     [-2.9232534463626716, -0.5037486022337092]),
    (-10.832065579951434, 2.9082241244604328, 3.4107032262924504, 3,
     [-7.1604617295155055, -2.808654321459164, -0.4568464559415312]),
])
def test_newton_stops_at_the_rounding_floor(A, B, mu_scale, levels, want):
    # draws of the benchmark's oracle stream.  At h = 1/32, alpha_i + E
    # (alpha_i about 12288) resolves E only to one unit in its last place,
    # 1.8e-12, so closer in Newton's step repeats: level 0 of the first well
    # and level 2 of the second crept by the same 1e-14 per pass into the
    # pass cap before such steps became bisections.  want is the 40-digit
    # Sturm bisection of the same float pencil (see
    # test_near_degenerate_levels_orthonormal), met to that resolution.
    model = md.GeneralizedMorse(A=A, B=B, mu_scale=mu_scale)
    x_min, x_max, h, k = md.default_grid(model, levels)
    sol = oc.grid_solve(model.potential, x_min, x_max, h, k)
    np.testing.assert_allclose(sol.eigenvalues, want, rtol=0, atol=math.ulp(12.0 / (h * h)))


def test_level_pass_cap_raises_with_the_bracket(monkeypatch):
    # every pass halves the bracket, so only a bracket never taken as closed
    # (here with counts that never split level 0 from level 1) meets the cap;
    # the floats below 0 are fine enough that the cap comes first
    energies = []

    def count(alpha, beta, energy):
        energies.append(energy)
        return 0

    monkeypatch.setattr(oc, "_closed", lambda lo, hi: False)
    monkeypatch.setattr(oc, "_numerov_count", count)
    with pytest.raises(AccuracyError, match="level 0") as info:
        oc._levels(np.ones(1), np.ones(1), -1.0, 0.0, 2)
    lo, hi = info.value.estimates
    assert -1.0 < lo < hi == 0.0
    assert len(energies) == 3 * math.ceil(math.log2(1e14)) + 7


def _upper_bracket_scan(w, rho, h, k):
    # reference: the window extremes of _upper_bracket by a direct scan of
    # each window at each start
    n = w.size
    best = math.inf
    for m in np.unique(np.geomspace(k, n, 24).astype(int)):
        kinetic = 6.0 / (h * h) * math.sin(k * math.pi / (2.0 * (m + 1))) ** 2
        step = max(1, (n - m) // 64)
        w_max = sliding_window_view(w, m)[::step].max(axis=1)
        rho_min = sliding_window_view(rho, m)[::step].min(axis=1)
        best = min(best, float(np.min(w_max + kinetic / rho_min)))
    return best


def test_upper_bracket_matches_the_window_scan_on_grids(monkeypatch):
    # the default grids of the four models that have one (two on the Langer
    # grid, where rho = x^2), and a hand-set Langer grid for the fifth
    calls = []
    upper_bracket = oc._upper_bracket

    def spy(w, rho, h, k):
        calls.append((w, rho, h, k))
        return upper_bracket(w, rho, h, k)

    monkeypatch.setattr(oc, "_upper_bracket", spy)
    for model, n_levels in [(md.HarmonicOscillator(a=1.0), 4),
                            (md.OscillatorInverseSquare(a=1.0, b=0.75), 3),
                            (md.OscillatorInverseSquare(a=1.0, b=2.0), 3),
                            (md.GeneralizedMorse(A=-6.0, B=1.0, mu_scale=2.0), None),
                            (md.RosenMorse(A=1.0, B=-2.0), None)]:
        oc.grid_solve(model.potential, *md.default_grid(model, n_levels),
                      langer=model.half_line)
    oc.grid_solve(md.SupercriticalInverseSquare(b=-0.5).potential, 0.3, 3.0, 1.0 / 32.0, 3,
                  langer=True, check_boundaries="none")
    assert len(calls) == 6
    assert sum(not np.all(rho == 1.0) for _, rho, _, _ in calls) == 3
    for w, rho, h, k in calls:
        assert upper_bracket(w, rho, h, k) == _upper_bracket_scan(w, rho, h, k)


@pytest.mark.parametrize("n", [3, 4, 5, 63, 64, 65, 1000])
def test_upper_bracket_matches_the_window_scan_on_random_rows(rng, n):
    for k in sorted({1, 2, n}):
        for _ in range(5):
            w = rng.normal(0.0, 10.0, n)
            rho = rng.uniform(0.01, 100.0, n)
            h = rng.uniform(0.01, 0.5)
            assert oc._upper_bracket(w, rho, h, k) == _upper_bracket_scan(w, rho, h, k)


def test_grid_step_rule_and_boundary_options():
    with pytest.raises(DomainError, match=r"h\^2 max\(U - E_lo\) / 12 = "):
        oc.grid_solve(lambda x: 1e4 * x * x, -1.0, 1.0, 0.1, 1)
    for side in ("left", "right"):
        with pytest.raises(ParameterDomainError):
            oc.grid_solve(lambda x: x * x, -5.0, 5.0, 0.1, 1, check_boundaries=side)
    with pytest.raises(DomainError, match="x_min > 0"):
        oc.grid_solve(md.OscillatorInverseSquare(a=1.0, b=0.75).potential, 0.0, 5.0, 0.1, 1,
                      langer=True)
    # rho = x^2 so small that the Numerov diagonal's constants overflow
    with pytest.raises(DomainError, match="overflows at x = 1.0"):
        oc.grid_solve(md.OscillatorInverseSquare(a=1.0, b=0.75).potential, 1e-154, 6.0,
                      1.0 / 32.0, 2, langer=True)


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
        seq = orthopoly.sequence(fam, n_nodes - 1, rule.nodes)
        hn = [math.exp(math.lgamma(k + nu + 1.0) - math.lgamma(k + 1.0))
              for k in range(n_nodes)]
        x_diag = 2 * (n_nodes - 1) + nu + 1.0  # <x p, p>/<p, p> from the recurrence
    else:
        a, b = weight_id[1], weight_id[2]
        fam = orthopoly.JacobiFamily(a, b)
        seq = orthopoly.sequence(fam, n_nodes - 1, rule.nodes)
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


# (weight_id, n): smallest, middle and largest node of an earlier bisection
# solver, which converged each node to 1e-14 max(1, |x|)
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
    # independent of the solver's start (numpy's eigvalsh): the closed-form
    # Chebyshev nodes, and 40-digit eigenvalues of the Jacobi matrix up to 32
    # nodes (test_gauss_nodes_match_mpmath takes the larger rules)
    nodes = oc.gauss_rule(weight_id, n_nodes).nodes
    want = None
    if weight_id == ("jacobi", -0.5, -0.5):
        want = np.cos((2.0 * np.arange(n_nodes, 0, -1) - 1.0) * np.pi / (2.0 * n_nodes))
    elif n_nodes <= 32:
        alpha, beta, _ = oc._monic_coefficients(weight_id, n_nodes)
        want = np.array(_mpmath_eigenvalues(alpha, np.sqrt(beta[1:]), nodes), dtype=float)
    if want is not None:
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


@pytest.mark.parametrize("call, name", [
    (lambda: oc.gauss_rule(("laguerre", 0.5), float("nan")), "n"),
    (lambda: oc.gauss_rule(("laguerre", 0.5), 2.5), "n"),
    (lambda: oc.gauss_rule(("laguerre", 0.5), True), "n"),
    (lambda: oc.gauss_rule(("laguerre",), 4), "weight_id"),
    (lambda: oc.gauss_rule(("jacobi", 0.5), 4), "weight_id"),
    (lambda: oc.gauss_rule(("laguerre", "x"), 4), "weight_id"),
    (lambda: oc.tridiagonal_eigenvector([1.0, 2.0, 3.0], [0.5, 0.5], 1.0,
                                        orthogonalize=[[1.0, 0.0]]), "orthogonalize"),
], ids=["n-nan", "n-float", "n-bool", "laguerre-no-exponent", "jacobi-one-exponent",
        "exponent-text", "orthogonalize-short"])
def test_eigensolver_input_contract(call, name):
    with pytest.raises(ParameterDomainError, match=r"^%s\b" % name):
        call()


def _mpmath_eigenvalues(diag, off, approx):
    # reference: the eigenvalues of the same float matrix at 40 digits, by
    # three Newton steps on det(T - x I) from each approximate eigenvalue, the
    # lowest len(approx) of them.  The Sturm counts at the midpoints between
    # the results, below the first and just above the last, confirm that each
    # lies alone between its two, so each converged root is eigenvalue j.
    mpmath = pytest.importorskip("mpmath")

    def det(x):
        # leading principal minors of T - x I and their x-derivatives
        p_prev, p, dp_prev, dp = 0, 1, 0, 0
        for di, ei2 in zip(d, [0] + e2):
            p_prev, p, dp_prev, dp = (p, (di - x) * p - ei2 * p_prev,
                                      dp, (di - x) * dp - p - ei2 * dp_prev)
        return p, dp

    def count(x):
        p_prev, p, below = 0, 1, 0
        for di, ei2 in zip(d, [0] + e2):
            p_prev, p = p, (di - x) * p - ei2 * p_prev
            below += (p < 0) != (p_prev < 0)
        return below

    with mpmath.workdps(40):
        d = [mpmath.mpf(float(v)) for v in diag]
        e2 = [mpmath.mpf(float(v)) ** 2 for v in off]
        out = []
        for v in approx:
            x = mpmath.mpf(float(v))
            for _ in range(3):
                p, dp = det(x)
                x -= p / dp
            assert abs(p / dp) <= abs(x) / 10**25 + mpmath.mpf(10) ** -30
            out.append(x)
        top = out[-1] + (abs(out[-1]) + 1) / 10**20
        cuts = [out[0] - 1] + [(a + b) / 2 for a, b in zip(out, out[1:])] + [top]
        assert [count(c) for c in cuts] == list(range(len(out) + 1))
    return out


@lru_cache(maxsize=None)
def _mpmath_gauss_nodes(weight_id, n_nodes):
    """The eigenvalues of the float Jacobi matrix of the n_nodes-node rule
    at 40 digits (_mpmath_eigenvalues from the rule's nodes), shared by the
    node and weight checks."""
    alpha, beta, _ = oc._monic_coefficients(weight_id, n_nodes)
    return tuple(_mpmath_eigenvalues(alpha, np.sqrt(beta[1:]),
                                     oc.gauss_rule(weight_id, n_nodes).nodes))


@pytest.mark.parametrize("weight_id", [("laguerre", -0.5), ("laguerre", 0.7),
                                       ("jacobi", 0.3, 1.2), ("jacobi", -0.5, -0.5)])
@pytest.mark.parametrize("n_nodes", [16, 64, 128])
def test_gauss_nodes_match_mpmath(weight_id, n_nodes):
    # within 3 eps |T| of the exact eigenvalues of the float Jacobi matrix;
    # the Sturm count resolves no better in general, and the multisection
    # that bisected every node to 1e-14 came within 2.5 eps |T| here
    oc._gauss_rule_cached.cache_clear()
    rule = oc.gauss_rule(weight_id, n_nodes)
    want = _mpmath_gauss_nodes(weight_id, n_nodes)
    radius = float(max(abs(w) for w in want))
    err = max(abs(float(x - w)) for x, w in zip(rule.nodes.tolist(), want))
    assert err <= 3.0 * np.finfo(float).eps * radius
    oc._gauss_rule_cached.cache_clear()
    again = oc.gauss_rule(weight_id, n_nodes)
    assert again is not rule
    np.testing.assert_array_equal(again.nodes, rule.nodes)
    np.testing.assert_array_equal(again.weights, rule.weights)


@pytest.mark.parametrize("weight_id", [("laguerre", -0.5), ("laguerre", 0.7), ("laguerre", 2.5),
                                       ("jacobi", 0.3, 1.2), ("jacobi", -0.5, -0.5)])
@pytest.mark.parametrize("n_nodes", [16, 64, 128])
def test_gauss_weights_match_mpmath(weight_id, n_nodes):
    # the Christoffel weights m0 / sum_k p_k(x)^2 of the same float Jacobi
    # matrix at its 40-digit eigenvalues, within 2e-13 relative (1.4e-13 at
    # worst here); weights taken at the unrefined eigvalsh nodes are off by
    # about 1e-12
    mpmath = pytest.importorskip("mpmath")
    rule = oc.gauss_rule(weight_id, n_nodes)
    alpha, beta, m0 = oc._monic_coefficients(weight_id, n_nodes)
    with mpmath.workdps(40):
        a = [mpmath.mpf(float(v)) for v in alpha]
        e = [mpmath.mpf(float(v)) for v in np.sqrt(beta)]
        want = []
        for x in _mpmath_gauss_nodes(weight_id, n_nodes):
            p_prev, p, total = 0, mpmath.mpf(1), mpmath.mpf(1)
            for k in range(n_nodes - 1):
                p_prev, p = p, ((x - a[k]) * p - e[k] * p_prev) / e[k + 1]
                total += p * p
            want.append(float(m0 / total))
    want = np.array(want)
    assert np.max(np.abs(rule.weights - want) / want) <= 2e-13


@pytest.mark.parametrize("weight_id", [("laguerre", -0.5), ("laguerre", 0.7),
                                       ("jacobi", 0.3, 1.2)])
def test_gauss_rule_sweep_count(monkeypatch, weight_id):
    # one dense eigensolve per rule; the Christoffel recurrence refines the
    # nodes and gives the weights in the same pass
    calls = []
    eigenvalues = oc.tridiagonal_eigenvalues

    def counted(diag, off):
        calls.append(np.size(diag))
        return eigenvalues(diag, off)

    monkeypatch.setattr(oc, "tridiagonal_eigenvalues", counted)
    for n_nodes in (16, 64, 128):
        oc._gauss_rule_cached.cache_clear()
        calls.clear()
        oc.gauss_rule(weight_id, n_nodes)
        assert calls == [n_nodes]
    oc._gauss_rule_cached.cache_clear()


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
        seq = orthopoly.sequence(orthopoly.LaguerreFamily(nu), n_nodes - 1,
                                          rule.nodes)
        log_h = [math.lgamma(j + nu + 1.0) - math.lgamma(j + 1.0) for j in k]
    else:
        a, b = weight_id[1], weight_id[2]
        seq = orthopoly.sequence(orthopoly.JacobiFamily(a, b), n_nodes - 1,
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


def test_adaptive_quad_integrable_singularity():
    # near x = 0.3 the rounding of the nodes moves |K15 - G7| by more than a
    # panel's share of tol; those panels are kept instead of halved forever
    val, err = oc.adaptive_quad(lambda x: np.abs(x - 0.3) ** -0.5, 0.0, 1.0, tol=1e-8)
    assert abs(val - 2.0 * (math.sqrt(0.3) + math.sqrt(0.7))) <= err < 1e-6


def test_adaptive_quad_stalls_and_runs_out_of_budget():
    with pytest.raises(AccuracyError, match="stalled"):
        oc.adaptive_quad(lambda x: np.abs(x - 0.3) ** -0.98, 0.0, 1.0, tol=1e-10)
    with pytest.raises(AccuracyError, match="evaluation budget") as info:
        oc.adaptive_quad(lambda x: np.sin(50.0 * x), 0.0, 100.0, tol=1e-10, max_eval=100)
    assert np.all(np.isfinite(info.value.estimates))


@pytest.mark.parametrize("degree", range(23))
def test_kronrod_rule_exact_on_monomials(degree):
    want = 2.0 / (degree + 1) if degree % 2 == 0 else 0.0
    x = oc._KRONROD_NODES
    assert abs(np.dot(oc._KRONROD_WEIGHTS, x ** degree) - want) < 1e-15
    if degree <= 13:
        assert abs(np.dot(oc._GAUSS_WEIGHTS, x[1::2] ** degree) - want) < 1e-15


def test_kronrod_rule_symmetric():
    x = oc._KRONROD_NODES
    assert np.all(np.diff(x) > 0.0) and np.array_equal(x, -x[::-1])
    assert np.array_equal(oc._KRONROD_WEIGHTS, oc._KRONROD_WEIGHTS[::-1])
    assert np.array_equal(oc._GAUSS_WEIGHTS, oc._GAUSS_WEIGHTS[::-1])
    assert abs(np.sum(oc._KRONROD_WEIGHTS) - 2.0) < 1e-15
    assert abs(np.sum(oc._GAUSS_WEIGHTS) - 2.0) < 1e-15


def test_adaptive_quad_is_deterministic():
    def f(x):
        return 1.0 / (1e-3 + (x - 0.3) ** 2)

    first = oc.adaptive_quad(f, 0.0, 1.0, tol=1e-10)
    assert first == oc.adaptive_quad(f, 0.0, 1.0, tol=1e-10)
    want = (math.atan(0.7 / math.sqrt(1e-3)) + math.atan(0.3 / math.sqrt(1e-3))) \
        / math.sqrt(1e-3)
    assert first[0] == pytest.approx(want, rel=1e-10)


def _pollaczek_gram_deviation(mu, a, b, tol):
    """Largest deviation of the Pollaczek weight's Gram entries m <= n <= 3,
    integrated by adaptive_quad in theta = arccos x, from the closed form."""
    fam = orthopoly.PollaczekFamily(mu, a, b)
    dev = 0.0
    for n in range(4):
        for m in range(n + 1):
            def f(theta):
                x = np.cos(theta)
                seq = orthopoly.sequence(fam, 3, x)
                return orthopoly.weight_eval(fam, x) * seq[n] * seq[m] * np.sin(theta)
            val = oc.adaptive_quad(f, 1e-6, math.pi - 1e-6, tol=tol)[0]
            want = (math.exp(math.lgamma(n + 2.0 * mu) - math.lgamma(n + 1.0))
                    / (n + mu + a)) if n == m else 0.0
            dev = max(dev, abs(val - want))
    return dev


def test_adaptive_quad_no_early_accept():
    # a weight on which coarse and fine Simpson sums agree by chance at tol
    # 1e-7: entry (1, 1) came out 5.18036, where the integral is 5.18243
    assert _pollaczek_gram_deviation(1.9136534545663646, 0.6687256574122785,
                                     0.4409535238890209, 1e-7) < 1e-5


@settings(max_examples=40, derandomize=True, database=None, deadline=None)
@given(mu=st.floats(0.5, 2.0), a=st.floats(0.5, 2.0), ratio=st.floats(-0.9, 0.9))
def test_adaptive_quad_pollaczek_gram_property(mu, a, ratio):
    assert _pollaczek_gram_deviation(mu, a, a * ratio, 1e-7) < 1e-5


@pytest.mark.parametrize("a,b,kwargs", [
    (0.0, math.inf, {}), (-math.inf, 0.0, {}), (math.nan, 1.0, {}), (1.0, 1.0, {}),
    (1.0, 0.0, {}), (0.0, 1.0, {"tol": math.nan}), (0.0, 1.0, {"tol": -1.0}),
    (0.0, 1.0, {"tol": 0.0}), (0.0, 1.0, {"tol": math.inf}),
    (0.0, 1.0, {"max_eval": 14})])
def test_adaptive_quad_input_contract(a, b, kwargs):
    with pytest.raises(ParameterDomainError):
        oc.adaptive_quad(np.sin, a, b, **kwargs)


def test_adaptive_quad_non_finite_integrand():
    # the first non-finite value is reported, at the lowest node of (0, 1)
    with pytest.raises(DomainError,
                       match=r"f\(x\) = nan is not finite at x = 0.00427231443959369$"):
        oc.adaptive_quad(lambda x: np.full_like(x, np.nan), 0.0, 1.0)
    with np.errstate(divide="ignore"):
        with pytest.raises(DomainError, match=r"f\(x\) = inf is not finite at x = 0.5$"):
            oc.adaptive_quad(lambda x: 1.0 / (x - 0.5), 0.0, 1.0)
