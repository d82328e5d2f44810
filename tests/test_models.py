import math
import tracemalloc

import numpy as np
import pytest

from triwave import basis as bs
from triwave import models as md
from triwave import operators as op
from triwave import oracle as oc
from triwave.exceptions import DomainError, ParameterDomainError

import helpers


# ---------------------------------------------------------------------------
# Potentials and model validation
# ---------------------------------------------------------------------------

def test_potential_values():
    assert md.potential_eval(md.RosenMorse(A=1.0, B=-2.0), 0.0) == pytest.approx(-1.0)
    assert abs(md.potential_eval(md.GeneralizedMorse(A=-6.0, B=1.0, mu_scale=2.0),
                                 40.0)) < 1e-15
    assert md.potential_eval(md.OscillatorInverseSquare(a=1.0, b=0.75), 1.0) \
        == pytest.approx(1.75)
    assert md.potential_eval(md.HarmonicOscillator(a=2.0), 3.0) == pytest.approx(18.0)
    with pytest.raises(DomainError):
        md.potential_eval(md.OscillatorInverseSquare(a=1.0, b=0.75), 0.0)


def test_model_invariants():
    with pytest.raises(ParameterDomainError):
        md.OscillatorInverseSquare(a=1.0, b=-0.3)
    with pytest.raises(ParameterDomainError):
        md.OscillatorInverseSquare(a=1.0, b=0.0)
    with pytest.raises(ParameterDomainError):
        md.OscillatorInverseSquare(a=1.0, b=0.5, branch="-")
    with pytest.raises(ParameterDomainError):
        md.SupercriticalInverseSquare(b=-0.2)
    with pytest.raises(ParameterDomainError):
        md.GeneralizedMorse(A=-6.0, B=1.0, mu_scale=0.0)
    with pytest.raises(ParameterDomainError):
        md.HarmonicOscillator(a=1.0, parity="sideways")


@pytest.mark.parametrize("make", [
    lambda v: md.HarmonicOscillator(a=v),
    lambda v: md.OscillatorInverseSquare(a=1.0, b=v),
    lambda v: md.OscillatorInverseSquare(a=v, b=0.75),
    lambda v: md.SupercriticalInverseSquare(b=-1.0, nu=v),
    lambda v: md.GeneralizedMorse(A=v, B=1.0, mu_scale=2.0),
    lambda v: md.GeneralizedMorse(A=-3.0, B=1.0, mu_scale=v),
    lambda v: md.RosenMorse(A=v, B=-2.0),
    lambda v: md.RosenMorse(A=1.0, B=v),
])
@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
def test_model_parameters_must_be_finite(make, value):
    with pytest.raises(ParameterDomainError, match="not finite"):
        make(value)


# ---------------------------------------------------------------------------
# Closed-form spectra
# ---------------------------------------------------------------------------

def test_ho_spectrum_both_parities():
    even = md.spectrum(md.HarmonicOscillator(a=1.0, parity="even"), n_levels=4)
    odd = md.spectrum(md.HarmonicOscillator(a=1.0, parity="odd"), n_levels=4)
    np.testing.assert_allclose(even.epsilons, [1.0, 5.0, 9.0, 13.0])
    np.testing.assert_allclose(odd.epsilons, [3.0, 7.0, 11.0, 15.0])
    # hbar*omega = 2 E0: E_n = hw (2n + 1/2) and hw (2n + 3/2)
    np.testing.assert_allclose(even.epsilons / 2.0, [2 * n + 0.5 for n in range(4)])
    np.testing.assert_allclose(odd.epsilons / 2.0, [2 * n + 1.5 for n in range(4)])
    with pytest.raises(ParameterDomainError):
        md.spectrum(md.HarmonicOscillator(a=2.0))


def test_oscillator_inverse_square_spectrum():
    plus = md.spectrum(md.OscillatorInverseSquare(a=1.0, b=0.75), n_levels=3)
    np.testing.assert_allclose(plus.epsilons, [4.0, 8.0, 12.0])  # hw (2n + 2)
    minus = md.spectrum(md.OscillatorInverseSquare(a=1.0, b=-0.1, branch="-"),
                        n_levels=2)
    root = math.sqrt(0.15)
    np.testing.assert_allclose(minus.epsilons, [2 * (1 - root), 2 * (3 - root)])


def test_supercritical_spectrum_empty():
    res = md.spectrum(md.SupercriticalInverseSquare(b=-0.5))
    assert res.levels == []
    assert res.notes


def test_morse_spectrum_and_counts():
    res = md.spectrum(md.GeneralizedMorse(A=-6.0, B=1.0, mu_scale=2.0))
    np.testing.assert_allclose(res.epsilons, [-6.25, -2.25, -0.25])
    assert res.n_max == 2
    assert [lv.basis_params["nu"] for lv in res.levels] == pytest.approx([5.0, 3.0, 1.0])
    assert any("discrepancy" in note for note in res.notes)
    assert md.morse_bound_count(-3.0) == 3
    assert md.morse_alternative_bound_count(-3.0) == 6
    assert md.morse_bound_count(-0.6) == 1
    assert md.morse_bound_count(0.0) == 0
    res = md.spectrum(md.GeneralizedMorse(A=-2.4, B=1.0, mu_scale=2.0))
    np.testing.assert_allclose(res.epsilons, [-0.49])
    assert res.levels[0].basis_params["nu"] == pytest.approx(1.4)
    with pytest.raises(ParameterDomainError):
        md.spectrum(md.GeneralizedMorse(A=-6.0, B=2.0, mu_scale=2.0))


def test_rosen_morse_spectrum():
    res = md.spectrum(md.RosenMorse(A=1.0, B=-2.0))
    assert len(res.levels) == 1
    lv = res.levels[0]
    assert lv.epsilon == pytest.approx(-0.25, rel=1e-12)
    assert lv.basis_params["mu"] == pytest.approx(0.5, rel=1e-10)
    assert lv.basis_params["nu"] == pytest.approx(0.5, rel=1e-10)
    # the alternative closed form is reported with its (large) deviation and
    # is intentionally not asserted against the level conditions
    assert lv.extra["epsilon_alt"] == pytest.approx(-3.0625, rel=1e-12)
    assert abs(lv.extra["epsilon_alt"] - lv.epsilon) > 1.0
    with pytest.raises(ParameterDomainError):
        md.spectrum(md.RosenMorse(A=1.0, B=0.5))


def test_rosen_morse_deeper_well_two_levels():
    res = md.spectrum(md.RosenMorse(A=1.0, B=-6.0))
    assert len(res.levels) >= 1
    assert res.epsilons[0] == pytest.approx(-3.0625, rel=1e-10)


# ---------------------------------------------------------------------------
# Wavefunctions
# ---------------------------------------------------------------------------

def test_ho_wavefunction_matches_hermite():
    x = np.linspace(0.05, 4.5, 50)
    for parity, offset in (("even", 0), ("odd", 1)):
        model = md.HarmonicOscillator(a=1.0, parity=parity)
        for n in range(6):
            eps = md.spectrum(model, n_levels=n + 1).epsilons[n]
            psi, record = md.wavefunction(model, eps, 25, x)
            ref = helpers.hermite_wavefunction(2 * n + offset, x)
            # un-normalized series: compare up to the (constant) ratio
            ratio = psi / ref
            assert np.ptp(ratio) / np.max(np.abs(ratio)) < 1e-10


def test_ho_odd_wavefunction_sign():
    model = md.HarmonicOscillator(a=1.0, parity="odd")
    psi_p, _ = md.wavefunction(model, 3.0, 10, np.array([1.0]))
    psi_m, _ = md.wavefunction(model, 3.0, 10, np.array([-1.0]))
    assert psi_m[0] == pytest.approx(-psi_p[0], rel=1e-12)


def test_morse_bound_state_single_term():
    model = md.GeneralizedMorse(A=-6.0, B=1.0, mu_scale=2.0)
    x = np.linspace(-2.0, 12.0, 300)
    psi, record = md.wavefunction(model, -6.25, 30, x)
    nz = np.nonzero(np.abs(record.coeffs.d) > 1e-12)[0]
    assert list(nz) == [0]
    assert record.spec.nu == pytest.approx(5.0)
    # the single term is the n=0 basis function itself
    spec = bs.morse_basis(5.0)
    y = bs.morse_map(2.0).to_y(x)
    phi = bs.basis_eval(spec, 0, y)
    ratio = psi / phi
    assert np.ptp(ratio) / np.max(np.abs(ratio)) < 1e-12


def test_rosen_morse_bound_state_single_term():
    model = md.RosenMorse(A=1.0, B=-2.0)
    x = np.linspace(-8.0, 16.0, 300)
    psi, record = md.wavefunction(model, -0.25, 20, x)
    assert np.max(np.abs(record.coeffs.d[1:])) < 1e-9
    spec = bs.rosen_morse_basis(0.5, 0.5)
    phi = bs.basis_eval(spec, 0, np.tanh(x))
    ratio = psi / phi
    assert np.ptp(ratio) / np.max(np.abs(ratio)) < 1e-8


def test_supercritical_series_coefficients_and_flag():
    model = md.SupercriticalInverseSquare(b=-0.5, nu=0.0)
    x = np.linspace(0.2, 3.0, 7)
    psi, record = md.wavefunction(model, 1.0, 25, x)
    assert np.all(np.isfinite(psi))
    want = md.closed_form_coefficients(model, 1.0, 25)
    np.testing.assert_allclose(record.coeffs.d, want, rtol=1e-12)
    # the continuum-like energy gives an algebraically decaying tail: the
    # series must carry an explicit non-convergence flag rather than fail
    assert record.tail_estimate > 1e-10
    assert record.converged is False


def _table_wavefunction(model, epsilon, N, x):
    """The wavefunction from the full N x samples table of A_n P_n, the
    representation the series sum replaces."""
    rc, spec, cmap = md.recursion_for(model, epsilon)
    f = op.solve_recursion(rc, epsilon, N).f
    y = np.atleast_1d(cmap.to_y(np.asarray(x, dtype=float)))
    psi = bs._envelope(spec, y) * (f @ bs.scaled_polynomials(spec, N - 1, y))
    if isinstance(model, md.HarmonicOscillator) and model.parity == "odd":
        psi = psi * np.sign(np.atleast_1d(x))
    return psi


_SERIES_CASES = [
    # (model, epsilon, N, x range): every model and series route
    (md.HarmonicOscillator(a=-1.5), 3.0, 400, (-5.0, 5.0)),  # trigonometric
    (md.HarmonicOscillator(a=0.5), 3.0, 100, (-5.0, 5.0)),  # mirrored
    (md.HarmonicOscillator(a=2.0), 3.0, 100, (-5.0, 5.0)),  # hyperbolic
    (md.HarmonicOscillator(a=1.0, parity="odd"), 7.0, 50, (-5.0, 5.0)),
    (md.HarmonicOscillator(a=-2.0, parity="odd"), 2.5, 300, (-5.0, 5.0)),
    (md.OscillatorInverseSquare(a=-1.0, b=0.75), 4.0, 500, (0.05, 5.0)),
    (md.OscillatorInverseSquare(a=0.4, b=1.5), 2.0, 100, (0.05, 5.0)),
    (md.OscillatorInverseSquare(a=2.0, b=0.75), 0.7, 100, (0.05, 5.0)),
    (md.SupercriticalInverseSquare(b=-0.5, nu=0.5), -1.2, 600, (0.05, 5.0)),
    (md.GeneralizedMorse(A=-3.0, B=-4.0, mu_scale=2.0), -0.8, 400, (-2.0, 8.0)),
    (md.GeneralizedMorse(A=2.0, B=0.5, mu_scale=2.0), -1.5, 100, (-2.0, 8.0)),
    (md.GeneralizedMorse(A=-6.0, B=4.0, mu_scale=2.0), -2.0, 100, (-2.0, 8.0)),
    (md.RosenMorse(A=1.0, B=-2.0), -0.7, 500, (-6.0, 6.0)),
]


@pytest.mark.parametrize("model, epsilon, N, x_range", _SERIES_CASES)
def test_wavefunction_matches_table_sum(model, epsilon, N, x_range):
    x = np.linspace(*x_range, 1001)
    psi, _ = md.wavefunction(model, epsilon, N, x)
    ref = _table_wavefunction(model, epsilon, N, x)
    assert np.all(np.isfinite(psi))
    assert np.max(np.abs(psi - ref)) <= 1e-13 * np.max(np.abs(ref))
    again, _ = md.wavefunction(model, epsilon, N, x)
    assert again.tobytes() == psi.tobytes()


@pytest.mark.parametrize("model, epsilon, x", [
    (md.HarmonicOscillator(a=-1.5), 3.0, 1.3),
    (md.HarmonicOscillator(a=-2.0, parity="odd"), 2.5, -0.7),
    (md.RosenMorse(A=1.0, B=-2.0), -0.7, 0.4),
])
def test_wavefunction_scalar_x_and_single_term(model, epsilon, x):
    for N in (1, 40):
        psi, _ = md.wavefunction(model, epsilon, N, x)
        assert isinstance(psi, float)
        ref = _table_wavefunction(model, epsilon, N, x)[0]
        assert abs(psi - ref) <= 1e-13 * abs(ref)


def test_wavefunction_large_table_memory():
    # N = 1000 terms on 4001 samples: the table of A_n P_n alone is 32 MB,
    # and the old path held it twice; the series sum keeps O(samples)
    model, epsilon = md.OscillatorInverseSquare(a=-1.0, b=0.75), 4.0
    x = np.linspace(0.05, 5.0, 4001)
    tracemalloc.start()
    try:
        psi, _ = md.wavefunction(model, epsilon, 1000, x)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8e6
    ref = _table_wavefunction(model, epsilon, 1000, x)
    assert np.max(np.abs(psi - ref)) <= 1e-13 * np.max(np.abs(ref))


@pytest.mark.parametrize("model, epsilon, N, x_range", _SERIES_CASES[::4])
def test_wavefunction_computes_basis_constants_once(monkeypatch, model, epsilon, N, x_range):
    # the recursion's A_n feed the series sum; computing them again for the
    # sum would repeat N log-gamma sums
    x = np.linspace(*x_range, 101)
    want, _ = md.wavefunction(model, epsilon, N, x)
    calls = []
    real = bs.normalization

    def counting(spec, n):
        calls.append(np.size(n))
        return real(spec, n)

    monkeypatch.setattr(bs, "normalization", counting)
    psi, record = md.wavefunction(model, epsilon, N, x)
    assert calls == [N]
    assert psi.tobytes() == want.tobytes()
    # the spec-only form computes the same constants itself
    y = md.recursion_for(model, epsilon)[2].to_y(x)
    assert np.array_equal(bs.series_eval(record.spec, record.coeffs.f, y),
                          bs.series_eval(record.spec, record.coeffs.f, y, record.coeffs.a_n))


def test_wavefunction_domain_errors():
    with pytest.raises(DomainError):
        md.wavefunction(md.GeneralizedMorse(A=-6.0, B=1.0, mu_scale=2.0), 0.5, 10, 1.0)
    with pytest.raises(DomainError):
        md.wavefunction(md.RosenMorse(A=1.0, B=-2.0), 2.5, 10, 0.0)
    with pytest.raises(DomainError):
        md.wavefunction(md.OscillatorInverseSquare(a=1.0, b=0.75), 4.0, 10, -1.0)


def test_recursion_closed_form_identity_random(rng):
    # wavefunction coefficients from the polynomial route equal the recursion
    # engine output over randomized admissible parameters
    for _ in range(20):
        nu = rng.uniform(-0.45, 2.5)
        b_model = nu * nu - 0.25
        if abs(b_model) < 1e-6:
            continue
        eps = rng.uniform(-4.0, 4.0)
        model = md.OscillatorInverseSquare(a=rng.uniform(1.1, 5.0), b=b_model)
        rc, _, _ = md.recursion_for(model, eps)
        d = op.solve_recursion(rc, eps, 21).d
        cf = md.closed_form_coefficients(model, eps, 21)
        assert helpers.relative_deviation(d, cf) < 1e-9


# ---------------------------------------------------------------------------
# Spectrum-oracle agreement and node counts
# ---------------------------------------------------------------------------

def _oracle_rel_dev(levels, oracle_vals):
    levels = np.asarray(levels)
    oracle_vals = np.asarray(oracle_vals)
    keep = np.abs(levels) > 0.05  # oracle is resolution limited near zero
    return np.max(np.abs(oracle_vals[keep] - levels[keep]) / np.abs(levels[keep]))


def test_ho_oracle_agreement(ho_oracle):
    even = md.spectrum(md.HarmonicOscillator(a=1.0, parity="even"), n_levels=4)
    odd = md.spectrum(md.HarmonicOscillator(a=1.0, parity="odd"), n_levels=4)
    assert _oracle_rel_dev(even.epsilons, ho_oracle.eigenvalues[0::2]) < 1e-3
    assert _oracle_rel_dev(odd.epsilons, ho_oracle.eigenvalues[1::2]) < 1e-3


def test_oscillator_inverse_square_oracle_agreement(oscinv_b075_oracle,
                                                    oscinv_b2_oracle):
    res = md.spectrum(md.OscillatorInverseSquare(a=1.0, b=0.75), n_levels=3)
    assert _oracle_rel_dev(res.epsilons, oscinv_b075_oracle.eigenvalues) < 1e-3
    res = md.spectrum(md.OscillatorInverseSquare(a=1.0, b=2.0), n_levels=3)
    assert _oracle_rel_dev(res.epsilons, oscinv_b2_oracle.eigenvalues) < 1e-3


def test_morse_oracle_agreement(morse_a3_oracle, morse_a12_oracle):
    res = md.spectrum(md.GeneralizedMorse(A=-6.0, B=1.0, mu_scale=2.0))
    assert _oracle_rel_dev(res.epsilons, morse_a3_oracle.eigenvalues) < 1e-3
    res = md.spectrum(md.GeneralizedMorse(A=-2.4, B=1.0, mu_scale=2.0))
    assert _oracle_rel_dev(res.epsilons, morse_a12_oracle.eigenvalues) < 1e-3


def test_rosen_morse_oracle_agreement(rosen_morse_oracle):
    res = md.spectrum(md.RosenMorse(A=1.0, B=-2.0))
    assert _oracle_rel_dev(res.epsilons, rosen_morse_oracle.eigenvalues) < 1e-3


def test_morse_oracle_arbitrates_level_count(morse_a3_oracle_extra):
    # the state beyond the three normalizable levels sits at the continuum
    # edge, not at the alternative formula's 4th bound level -(3.5-3)^2
    assert morse_a3_oracle_extra.eigenvalues[3] > -0.05


def test_oracle_node_counts(ho_oracle, morse_a3_oracle, rosen_morse_oracle,
                            oscinv_b075_oracle):
    # full-line symmetric well: level n of one parity has n nodes on x > 0
    half = ho_oracle.x > 0
    for n in range(4):
        even_vec = ho_oracle.eigenvectors[2 * n][half]
        odd_vec = ho_oracle.eigenvectors[2 * n + 1][half]
        assert oc.node_count(even_vec) == n
        assert oc.node_count(odd_vec) == n
    for i in range(3):
        assert oc.node_count(morse_a3_oracle.eigenvectors[i]) == i
        assert oc.node_count(oscinv_b075_oracle.eigenvectors[i]) == i
    assert oc.node_count(rosen_morse_oracle.eigenvectors[0]) == 0


def test_series_node_counts():
    xp = np.linspace(0.02, 6.0, 400)
    ho_even = md.HarmonicOscillator(a=1.0, parity="even")
    for n in range(4):
        psi, _ = md.wavefunction(ho_even, 4.0 * n + 1.0, 30, xp)
        assert oc.node_count(psi) == n
    m = md.OscillatorInverseSquare(a=1.0, b=0.75)
    for n in range(3):
        psi, _ = md.wavefunction(m, 4.0 * n + 4.0, 30, xp)
        assert oc.node_count(psi) == n
    xm = np.linspace(-2.0, 14.0, 400)
    mm = md.GeneralizedMorse(A=-6.0, B=1.0, mu_scale=2.0)
    for n, eps in enumerate([-6.25, -2.25, -0.25]):
        psi, _ = md.wavefunction(mm, eps, 30, xm)
        assert oc.node_count(psi) == n
