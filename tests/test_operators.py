import math

import numpy as np
import pytest

from triwave import basis as bs
from triwave import models as md
from triwave import operators as op
from triwave import orthopoly
from triwave.exceptions import (
    RecursionBreakdownError,
    SingularParameterError,
    UnsupportedStructureError,
)


# ---------------------------------------------------------------------------
# Builders
# ---------------------------------------------------------------------------

def test_oscillator_pollaczek_coefficients():
    rc = op.build_oscillator_pollaczek(0.5, 2.0)
    assert rc.A(0, 0.0) == pytest.approx(4.5)
    rc1 = op.build_oscillator_pollaczek(-0.5, 1.0)
    for n in range(12):
        assert rc1.B(n, 0.3) == 0.0
        assert rc1.C(n, 0.3) == 0.0
        assert rc1.A(n, 2.0 * (2 * n + 0.5)) == pytest.approx(0.0, abs=1e-13)


def test_oscillator_dual_hahn_coefficients():
    nu, b = 0.0, -0.25
    rc = op.build_oscillator_dual_hahn(nu, b)
    assert rc.C(0, 2.0) == pytest.approx(-(nu + 1.0) * (nu / 2.0 + 1.0 - 0.5))
    assert rc.B(0, 2.0) == 0.0
    assert rc.A(0, 2.0) == pytest.approx(0.25)


def test_morse_coefficients():
    rc = op.build_morse(0.0, 0.25, 1.0)
    for n in range(10):
        assert rc.B(n, 0.0) == 0.0
        assert rc.C(n, 0.0) == 0.0
    rc = op.build_morse(0.0, -0.25, 0.0)
    assert rc.A(1, 0.0) == pytest.approx(0.0)
    # with the homogeneous sign convention A d_n + B d_{n-1} + C d_{n+1} = 0,
    # the d_{n+1} coefficient at n=1 is -(b - 1/4)(n+1) = +1
    assert rc.C(1, 0.0) == pytest.approx(1.0)
    for b in (-2.0, -0.5, -1e-3):
        x = (b + 0.25) / (b - 0.25)
        assert -1.0 < x < 1.0


def test_rosen_morse_coefficients():
    mu = nu = 0.5
    big_b = 0.25 - 0.25 * (mu + nu + 2.0) ** 2
    rc = op.build_rosen_morse(1.0, big_b, mu, nu)
    assert rc.C(0, 0.0) == pytest.approx(0.0, abs=1e-14)
    assert rc.B(0, 0.0) == 0.0  # factor n
    # the diagonal condition value of A at n=0
    a_match = 0.5 * (nu + mu + 1.0) * (nu - mu + 1.0)
    rc2 = op.build_rosen_morse(a_match, big_b, mu, nu)
    assert rc2.A(0, 0.0) == pytest.approx(0.0, abs=1e-14)
    with pytest.raises(SingularParameterError):
        op.build_rosen_morse(1.0, -2.0, -0.5, -0.5).C(0, 0.0)


# ---------------------------------------------------------------------------
# Recursion engine
# ---------------------------------------------------------------------------

def test_solve_recursion_diagonal_limit():
    rc = op.build_oscillator_pollaczek(-0.5, 1.0)
    series = op.solve_recursion(rc, 2.0 * (2 * 2 + 0.5), 12)
    want = np.zeros(12)
    want[2] = 1.0
    np.testing.assert_allclose(series.d, want, atol=1e-12)
    series0 = op.solve_recursion(rc, 1.0, 12)
    np.testing.assert_allclose(series0.d, np.eye(12)[0], atol=1e-12)
    with pytest.raises(RecursionBreakdownError):
        op.solve_recursion(rc, 2.1, 12)


def test_solve_recursion_terminating_series():
    # parameters on the rosen-morse level conditions terminate the series
    mu, nu = op.rosen_morse_level(1.0, -2.0, 0)
    rc = op.build_rosen_morse(1.0, -2.0, mu, nu)
    series = op.solve_recursion(rc, -mu * mu, 10)
    assert series.d[0] == 1.0
    assert np.max(np.abs(series.d[1:])) < 1e-9


def test_solve_recursion_matches_pollaczek():
    # hyperbolic route for the oscillator family
    nu, a, eps = 0.5, 3.0, 1.7
    rc = op.build_oscillator_pollaczek(nu, a)
    series = op.solve_recursion(rc, eps, 21)
    fam = orthopoly.PollaczekFamily(0.5 * (nu + 1.0), -eps / 4.0, eps / 4.0,
                                    "hyperbolic")
    x = (a + 1.0) / (a - 1.0)
    want = orthopoly.pollaczek_sequence(fam, 20, x)
    np.testing.assert_allclose(series.d, want, rtol=1e-12)
    # trigonometric route for the morse family
    a_m, b_m, nu_m = 0.7, -1.5, 1.1
    rc = op.build_morse(a_m, b_m, nu_m)
    series = op.solve_recursion(rc, -nu_m ** 2 / 4.0, 21)
    fam = orthopoly.PollaczekFamily(0.5 * (nu_m + 1.0), a_m, -a_m)
    want = orthopoly.pollaczek_sequence(fam, 20, (b_m + 0.25) / (b_m - 0.25))
    np.testing.assert_allclose(series.d, want, rtol=1e-12)


def test_coefficient_series_f_image():
    nu, b, eps = 0.5, -0.5, 1.3
    rc = op.build_oscillator_dual_hahn(nu, b)
    series = op.solve_recursion(rc, eps, 8)
    scale = rc.f_scaling(8)
    np.testing.assert_allclose(series.f, series.d * scale, rtol=1e-14)
    assert series.tail_estimate >= 0.0


# Reference: the scalar loop version of the engine, one coefficient call per
# index and the full max|d[:n+1]| rescan per step.  The array engine must
# reproduce it bit for bit.

def _scalar_f_scaling(rc, n):
    a_n = bs.normalization(rc.spec, n)
    if rc.f_transform == "standard":
        return a_n / rc.spec.lam
    if rc.f_transform == "inverse":
        return 1.0 / a_n
    return (-1.0) ** n * a_n / rc.spec.lam


def _scalar_solve_recursion(rc, epsilon, N, zero_tol=1e-9):
    eps = float(epsilon)

    def coeff_scale(n):
        return max(abs(rc.A(n, eps)), abs(rc.B(n, eps)), abs(rc.C(n, eps)), 1.0)

    scales = [coeff_scale(n) for n in range(N)]
    diagonal_limit = all(
        abs(rc.B(n, eps)) <= zero_tol * 1e-3 * scales[n]
        and abs(rc.C(n, eps)) <= zero_tol * 1e-3 * scales[n]
        for n in range(N))
    d = np.zeros(N)
    if diagonal_limit:
        avals = np.array([abs(rc.A(n, eps)) / scales[n] for n in range(N)])
        n0 = int(np.argmin(avals))
        if avals[n0] > zero_tol:
            raise RecursionBreakdownError(0, "no diagonal-limit solution")
        d[n0] = 1.0
    else:
        d[0] = 1.0
        for n in range(N - 1):
            num = rc.A(n, eps) * d[n] + (rc.B(n, eps) * d[n - 1] if n >= 1 else 0.0)
            c = rc.C(n, eps)
            scale = scales[n] * max(1.0, float(np.max(np.abs(d[: n + 1]))))
            if abs(c) <= zero_tol * scales[n]:
                if abs(num) <= zero_tol * scale:
                    d[n + 1] = 0.0
                else:
                    raise RecursionBreakdownError(n)
            else:
                d[n + 1] = -num / c
    f = None
    if rc.spec is not None:
        f = d * np.array([_scalar_f_scaling(rc, n) for n in range(N)])
    ref = f if f is not None else d
    tail = abs(float(ref[-1])) / (float(np.max(np.abs(ref))) or 1.0)
    return d, f, tail


def _random_recursion(rng, k):
    """(rc, eps) for builder k on a seeded draw; the oscillator draws include
    hyperbolic routes that overflow to NaN at large N."""
    if k == 0:
        return (op.build_oscillator_pollaczek(rng.uniform(-0.45, 2.5), rng.uniform(-3.0, 3.0)),
                rng.uniform(-4.0, 8.0))
    if k == 1:
        return (op.build_oscillator_dual_hahn(rng.uniform(0.0, 1.5), rng.uniform(-2.0, -0.25)),
                rng.uniform(-3.0, 1.8))
    if k == 2:
        nu = rng.uniform(0.1, 3.0)
        return op.build_morse(rng.uniform(-3.0, 3.0), rng.uniform(-2.0, 2.0), nu), -nu * nu / 4.0
    mu = rng.uniform(0.1, 3.0)
    return (op.build_rosen_morse(rng.uniform(0.2, 2.0), rng.uniform(-4.0, 0.2), mu,
                                 rng.uniform(-0.5, 3.0)), -mu * mu)


def _assert_same_series(rc, eps, N):
    d, f, tail = _scalar_solve_recursion(rc, eps, N)
    series = op.solve_recursion(rc, eps, N)
    assert np.array_equal(series.d, d, equal_nan=True)
    assert (series.f is None) == (f is None)
    if f is not None:
        assert np.array_equal(series.f, f, equal_nan=True)
    assert np.array_equal(series.tail_estimate, tail, equal_nan=True)


def test_solve_recursion_matches_scalar_reference():
    rng = np.random.default_rng(7)
    with np.errstate(over="ignore", invalid="ignore"):
        for k in range(4):
            for N in [1, 1000] + list(rng.integers(2, 1001, size=4)):
                rc, eps = _random_recursion(rng, k)
                _assert_same_series(rc, eps, int(N))
    # diagonal limits (oscillator and Morse) and a terminating series
    _assert_same_series(op.build_oscillator_pollaczek(-0.5, 1.0), 9.0, 12)
    _assert_same_series(op.build_morse(-3.0, 0.25, 5.0), -6.25, 12)
    mu, nu = op.rosen_morse_level(1.0, -2.0, 0)
    _assert_same_series(op.build_rosen_morse(1.0, -2.0, mu, nu), -mu * mu, 10)
    # breakdowns: no diagonal-limit level, and C_0 = 0 off the level condition
    big_b = 0.25 - 0.25 * (0.5 + 0.5 + 2.0) ** 2
    for rc, eps in ((op.build_oscillator_pollaczek(-0.5, 1.0), 2.1),
                    (op.build_rosen_morse(2.0, big_b, 0.5, 0.5), -0.25)):
        with pytest.raises(RecursionBreakdownError) as want:
            _scalar_solve_recursion(rc, eps, 12)
        with pytest.raises(RecursionBreakdownError) as got:
            op.solve_recursion(rc, eps, 12)
        assert got.value.index == want.value.index


def test_symmetric_form_matches_scalar_reference(rng):
    def t_ratio(rc, n):
        ratio = bs.normalization(rc.spec, n) / bs.normalization(rc.spec, n + 1)
        if rc.f_transform == "inverse":
            return 1.0 / ratio
        if rc.f_transform == "alternating":
            return -ratio
        return ratio

    for k in range(4):
        for N in (1, 2, 64):
            rc, eps = _random_recursion(rng, k)
            diag, off = op.symmetric_form(rc, eps, N)
            assert np.array_equal(diag, [rc.A(n, eps) + eps for n in range(N)])
            assert np.array_equal(off, [rc.C(n, eps) * t_ratio(rc, n) for n in range(N - 1)])


# ---------------------------------------------------------------------------
# Diagonalization conditions (the level rules of models.spectrum)
# ---------------------------------------------------------------------------

def test_diagonalization_scan_oscillator():
    # nu = -1/2, a = 1: the oscillator Pollaczek recursion at its diagonal limit
    levels = md.spectrum(md.HarmonicOscillator(a=1.0, parity="even"), 4).levels
    assert [lv.epsilon for lv in levels] == pytest.approx([1.0, 5.0, 9.0, 13.0])


def test_diagonalization_scan_morse():
    # a = -3, b = 1/4: the Morse recursion at its diagonal limit
    levels = md.spectrum(md.GeneralizedMorse(A=-6.0, B=1.0, mu_scale=2.0), 10).levels
    assert [lv.n for lv in levels] == [0, 1, 2]
    assert [lv.epsilon for lv in levels] == pytest.approx([-6.25, -2.25, -0.25])
    assert [lv.basis_params["nu"] for lv in levels] == pytest.approx([5.0, 3.0, 1.0])


def test_diagonalization_scan_rosen_morse():
    levels = md.spectrum(md.RosenMorse(A=1.0, B=-2.0), 6).levels
    assert len(levels) == 1
    assert levels[0].epsilon == pytest.approx(-0.25, rel=1e-12)
    assert levels[0].basis_params["mu"] == pytest.approx(0.5, rel=1e-10)
    assert levels[0].basis_params["nu"] == pytest.approx(0.5, rel=1e-10)


def test_diagonalization_scan_dual_hahn_empty():
    assert md.spectrum(md.SupercriticalInverseSquare(b=-0.5, nu=0.5), 6).levels == []


def test_rosen_morse_level_count_deeper_well():
    # B = -6 supports two levels under the per-level conditions with mu > 0
    assert op.rosen_morse_level(1.0, -6.0, 0) is not None
    assert op.rosen_morse_level(1.0, -2.0, 1) is None


def test_symmetric_nonsymmetric_consistency(rng):
    cases = [
        op.build_oscillator_pollaczek(0.5, 2.0),
        op.build_oscillator_dual_hahn(0.5, -0.5),
        op.build_morse(-3.0, -1.0, 1.2),
        op.build_rosen_morse(1.0, -2.0, 0.8, 0.6),
    ]
    for rc in cases:
        for _ in range(10):
            n = int(rng.integers(0, 12))
            eps = float(rng.uniform(-2.0, 2.0))
            b_n = op.symmetric_form(rc, eps, 13)[1][n]
            # the symmetric coupling squares to the product of the one-sided
            # couplings, and shares their zeros
            assert b_n * b_n == pytest.approx(rc.B(n + 1, eps) * rc.C(n, eps),
                                              rel=1e-10, abs=1e-12)


def test_diagonalization_agreement_between_representations():
    # at a scanned level, both the d-representation couplings and the
    # symmetric couplings vanish and the diagonal matches the energy
    rc = op.build_oscillator_pollaczek(-0.5, 1.0)
    for lv in md.spectrum(md.HarmonicOscillator(a=1.0, parity="even"), 4).levels:
        diag, off = op.symmetric_form(rc, lv.epsilon, lv.n + 2)
        assert off[lv.n] == 0.0
        assert diag[lv.n] == pytest.approx(lv.epsilon)


# ---------------------------------------------------------------------------
# Quadrature J-matrix
# ---------------------------------------------------------------------------

def _jmatrix(model, spec, cmap, eps, nmax, n_nodes=40):
    return op.numeric_jmatrix(model, spec, cmap, eps, nmax + 1, n_nodes=n_nodes)


def test_numeric_jmatrix_values():
    ho = md.HarmonicOscillator(a=1.0, parity="even")
    rc, spec, cmap = md.recursion_for(ho, 1.0)
    J = op.numeric_jmatrix(ho, spec, cmap, 1.0, 5)
    assert abs(J[0, 0]) < 1e-8
    assert abs(J[0, 4]) < 1e-8
    model = md.HarmonicOscillator(a=2.0, parity="odd")  # nu = 0.5 basis
    rc, spec, cmap = md.recursion_for(model, 0.7)
    val = op.numeric_jmatrix(model, spec, cmap, 0.7, 2)[0, 1]
    assert val == pytest.approx(-math.sqrt(1.5), rel=1e-10)


_CASES = [
    ("osc-pollaczek", md.OscillatorInverseSquare(a=2.0, b=0.75), 0.7),
    ("osc-dual-hahn", md.SupercriticalInverseSquare(b=-0.5, nu=0.5), 1.3),
    ("morse", md.GeneralizedMorse(A=-6.0, B=-4.0, mu_scale=2.0), -0.36),
    ("rosen-morse", md.RosenMorse(A=1.0, B=-2.0), -0.64),
]


@pytest.mark.parametrize("name,model,eps", _CASES, ids=[c[0] for c in _CASES])
def test_tridiagonality(name, model, eps):
    rc, spec, cmap = md.recursion_for(model, eps)
    J = _jmatrix(model, spec, cmap, eps, 12)
    mx = np.max(np.abs(J))
    off = max(abs(J[m, n]) for m in range(13) for n in range(13) if abs(m - n) >= 2)
    assert off <= 1e-8 * mx
    assert np.max(np.abs(J - J.T)) <= 1e-10 * mx


@pytest.mark.parametrize("name,model,eps", _CASES, ids=[c[0] for c in _CASES])
def test_numeric_matches_symmetric_coefficients(name, model, eps):
    rc, spec, cmap = md.recursion_for(model, eps)
    diag, off = op.symmetric_form(rc, eps, 7)
    J = _jmatrix(model, spec, cmap, eps, 6)
    for n in range(7):
        assert J[n, n] == pytest.approx(
            rc.jmatrix_scale * (diag[n] - eps), rel=1e-10, abs=1e-10)
        if n < 6:
            assert J[n, n + 1] == pytest.approx(
                rc.jmatrix_scale * off[n], rel=1e-10, abs=1e-10)


_BOUNDED_CASES = [
    # oscillatory-coefficient regimes, so off-band roundoff times the
    # coefficient tail cannot swamp the early rows
    ("osc-pollaczek", md.OscillatorInverseSquare(a=-1.5, b=0.75), 0.7),
    ("osc-dual-hahn", md.SupercriticalInverseSquare(b=-0.5, nu=0.5), 1.3),
    ("morse", md.GeneralizedMorse(A=-6.0, B=-4.0, mu_scale=2.0), -0.36),
    ("rosen-morse", md.RosenMorse(A=1.0, B=-2.0), -0.64),
]


@pytest.mark.parametrize("name,model,eps", _BOUNDED_CASES,
                         ids=[c[0] for c in _BOUNDED_CASES])
def test_jmatrix_rows_annihilate_the_series(name, model, eps):
    # each interior row of the quadrature wave operator applied to the
    # f-image of the recursion solution cancels: the per-case coefficient
    # scaling is what makes sum f_n phi_n solve the wave equation
    rc, spec, cmap = md.recursion_for(model, eps)
    series = op.solve_recursion(rc, eps, 14)
    J = _jmatrix(model, spec, cmap, eps, 13)
    residual = np.abs(J[1:13] @ series.f)
    scale = np.abs(J[1:13]) @ np.abs(series.f)
    assert np.max(residual / scale) < 1e-10


def test_perturbed_exponent_detected():
    model = md.OscillatorInverseSquare(a=2.0, b=0.75)
    rc, spec, cmap = md.recursion_for(model, 0.7)
    J = _jmatrix(model, spec.perturbed(0.1), cmap, 0.7, 12)
    mx = np.max(np.abs(J))
    off = max(abs(J[m, n]) for m in range(13) for n in range(13) if abs(m - n) >= 2)
    assert off > 1e-3 * mx


# ---------------------------------------------------------------------------
# Finite truncation
# ---------------------------------------------------------------------------

def test_truncated_eigenvalues_diagonal_case():
    rc = op.build_oscillator_pollaczek(0.3, 1.0)
    vals = op.truncated_eigenvalues(rc, 5)
    np.testing.assert_allclose(vals, [2.0 * (2 * n + 1.3) for n in range(5)],
                               rtol=1e-12)
    assert op.truncated_eigenvalues(op.build_oscillator_pollaczek(0.5, 2.0), 1) \
        == pytest.approx([4.5])


def test_truncated_eigenvalues_interlacing():
    rc = op.build_oscillator_pollaczek(0.5, 2.0)
    e40 = op.truncated_eigenvalues(rc, 40)
    e41 = op.truncated_eigenvalues(rc, 41)
    slack = 1e-10 * max(1.0, np.max(np.abs(e41)))
    assert np.all(e41[:-1] <= e40 + slack)
    assert np.all(e40 <= e41[1:] + slack)


def test_truncated_eigenvalues_unsupported():
    with pytest.raises(UnsupportedStructureError):
        op.truncated_eigenvalues(op.build_oscillator_dual_hahn(0.5, -0.5), 8)
    with pytest.raises(UnsupportedStructureError):
        op.truncated_eigenvalues(op.build_oscillator_pollaczek(0.5, 2.0), 8,
                                 embedding="quadratic")
