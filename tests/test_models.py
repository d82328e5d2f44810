import itertools
import math
import tracemalloc

import numpy as np
import pytest

from triwave import basis as bs
from triwave import models as md
from triwave import operators as op
from triwave import oracle as oc
from triwave import orthopoly
from triwave.exceptions import (
    DomainError,
    EvaluationOverflowError,
    ParameterDomainError,
    SingularParameterError,
    UnsupportedStructureError,
)

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


@pytest.mark.parametrize("nu", [-1.5, -1.0])
def test_supercritical_exponent_takes_the_dual_hahn_basis_domain(nu):
    # nu > -1 is the dual-Hahn basis's rule; the model refuses at construction
    with pytest.raises(ParameterDomainError, match="nu > -1"):
        md.SupercriticalInverseSquare(b=-0.5, nu=nu)


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


@pytest.mark.parametrize("make, field", [
    (lambda: md.HarmonicOscillator(a=1j), "a"),
    (lambda: md.GeneralizedMorse(A=-6.0 + 1j, B=1.0, mu_scale=2.0), "A"),
    (lambda: orthopoly.LaguerreFamily(1j), "nu"),
    (lambda: orthopoly.JacobiFamily(0.5, 1j), "nu"),
    (lambda: orthopoly.PollaczekFamily(1.0 + 2.0j, 1.0, 0.0), "mu"),
], ids=["ho", "morse", "laguerre", "jacobi", "pollaczek"])
def test_complex_parameters_are_refused_by_name(make, field):
    # the constructors compared these with > (a raw TypeError), or built a
    # model whose spectrum then raised one
    with pytest.raises(ParameterDomainError, match=r"parameter %s = .* must be real$" % field):
        make()


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
    # V = x^2 + b/x^2 confines: no continuum, levels await a self-adjoint extension
    assert not any("continuum" in note for note in res.notes)
    assert any("self-adjoint extension" in note for note in res.notes)


def test_morse_spectrum_and_counts():
    res = md.spectrum(md.GeneralizedMorse(A=-6.0, B=1.0, mu_scale=2.0))
    np.testing.assert_allclose(res.epsilons, [-6.25, -2.25, -0.25])
    assert [lv.nu for lv in res.levels] == pytest.approx([5.0, 3.0, 1.0])
    assert any("discrepancy" in note for note in res.notes)
    assert md.morse_bound_count(-3.0) == 3
    assert md.morse_alternative_bound_count(-3.0) == 6
    assert md.morse_bound_count(-0.6) == 1
    assert md.morse_bound_count(0.0) == 0
    res = md.spectrum(md.GeneralizedMorse(A=-2.4, B=1.0, mu_scale=2.0))
    np.testing.assert_allclose(res.epsilons, [-0.49])
    assert res.levels[0].nu == pytest.approx(1.4)
    with pytest.raises(ParameterDomainError):
        md.spectrum(md.GeneralizedMorse(A=-6.0, B=2.0, mu_scale=2.0))


@pytest.mark.parametrize("L", [1, 2, 7, 200])
@pytest.mark.parametrize("d, extra", [
    (-1e-11, 0), (-1e-13, 0), (0.0, 0), (1e-13, 0), (9e-13, 0),
    (1.1e-12, 1), (2e-12, 1), (1e-11, 1), (0.25, 1),
])
def test_morse_bound_count_margin_at_integer_boundaries(L, d, extra):
    # n < -a - 1/2, strictly: a limit within 1e-12 above the integer L
    # counts L levels, one further above counts L + 1
    assert md.morse_bound_count(-L - 0.5 - d) == L + extra


def test_morse_bound_count_stays_strict_where_the_margin_rounds_away():
    # limit - 1e-12 rounds back to the limit 100000: no level with nu = 0
    assert md.morse_bound_count(-100000.5) == 100000
    assert md.morse_bound_count(-100000.5 - 1e-6) == 100001


@pytest.mark.parametrize("model, n, eps", [
    (md.GeneralizedMorse(A=-6.0, B=1.0 + 4e-13, mu_scale=2.0), 0, -6.25),
    (md.HarmonicOscillator(a=1.0 + 4e-13), 1, 5.0),
    (md.HarmonicOscillator(a=1.0 + 5e-13), 1, 5.0),
    (md.HarmonicOscillator(a=1.0 + 5e-13), 2, 9.0),
    (md.GeneralizedMorse(A=-6.0, B=1.0 + 2e-12, mu_scale=2.0), 2, -0.25),
])
def test_diagonal_limit_is_one_rule(model, n, eps):
    # a coupling factor (b - 1/4, a - 1) of 1e-13 to 5e-13: spectrum takes
    # the diagonal limit, so the builders set the couplings to 0 and the
    # engine returns the delta series (at a - 1 = 5e-13 the coupling of row 1
    # is 1e-12 of its row scale), and the closed-form route refuses it
    # instead of running the Pollaczek recurrence at argument ratio ~1e13
    assert md.spectrum(model, 3).epsilons[n] == pytest.approx(eps, abs=1e-11)
    rc, _, _ = md.recursion_for(model, eps)
    np.testing.assert_array_equal(op.solve_recursion(rc, eps, 30).d, np.eye(30)[n])
    assert md.closed_form_coefficients(model, eps, 30) is None
    # a coupling of 1e-10 is off the diagonal limit for both
    off = (md.GeneralizedMorse(A=-6.0, B=1.0 + 4e-10, mu_scale=2.0)
           if isinstance(model, md.GeneralizedMorse) else md.HarmonicOscillator(a=1.0 + 1e-10))
    with pytest.raises(ParameterDomainError):
        md.spectrum(off, 3)
    assert md.closed_form_coefficients(off, eps, 3) is not None


def test_rosen_morse_spectrum():
    res = md.spectrum(md.RosenMorse(A=1.0, B=-2.0))
    assert len(res.levels) == 1
    lv = res.levels[0]
    assert lv.epsilon == pytest.approx(-0.25, rel=1e-12)
    assert lv.mu == pytest.approx(0.5, rel=1e-10)
    assert lv.nu == pytest.approx(0.5, rel=1e-10)
    # the alternative closed form is reported with its (large) deviation and
    # is intentionally not asserted against the level conditions
    assert lv.epsilon_alt == pytest.approx(-3.0625, rel=1e-12)
    assert abs(lv.epsilon_alt - lv.epsilon) > 1.0
    with pytest.raises(ParameterDomainError):
        md.spectrum(md.RosenMorse(A=1.0, B=0.5))


def test_rosen_morse_deeper_well_two_levels():
    res = md.spectrum(md.RosenMorse(A=1.0, B=-6.0))
    assert len(res.levels) >= 1
    assert res.epsilons[0] == pytest.approx(-3.0625, rel=1e-10)


def _level_or_singular(level, A, B, n):
    try:
        return level(A, B, n)
    except SingularParameterError:
        return "singular"


def test_rosen_morse_level_solves_the_bisected_condition():
    # the level condition is linear in mu once mu + nu is fixed, so one
    # division solves it.  Seeded draws, wells with sqrt(1/4 - B) an integer
    # or a half-integer (where levels meet the boundaries exactly) and
    # special values must give the bisection's level-or-None decision, except
    # where the bisection lands on a boundary: mu = 1e-12 on a condition with
    # no slope, or nu within 1e-12 of -1.  The condition's terms are of size
    # |A|, so near a flat slope the root (by either route) moves by
    # eps |A / slope|; (mu, nu) agree within 1e-14 of that scale
    rng = np.random.default_rng(11)
    cases = [(float(a), -float(10.0 ** e), int(n)) for a, e, n in zip(
        rng.uniform(-5.0, 5.0, 2000), rng.uniform(-3.0, 2.5, 2000), rng.integers(0, 10, 2000))]
    cases += [(a, 0.25 - (k / 2.0) ** 2, n)
              for k in range(1, 25) for a in np.arange(-10.0, 10.01, 0.5).tolist()
              for n in range(10)]
    cases += list(itertools.product((0.0, -0.0, 1e-12, -1e-12), (0.0, 0.25, -0.75), range(8)))
    levels = 0
    for A, B, n in cases:
        want = _level_or_singular(helpers.rosen_morse_level_bisection, A, B, n)
        got = _level_or_singular(lambda A, B, n: md.RosenMorse(A, B)._level(n), A, B, n)
        if isinstance(want, tuple) and (want[0] <= 1e-12 or want[1] <= -1.0 + 1e-12):
            assert got is None, (A, B, n)
            continue
        assert type(got) is type(want), (A, B, n)
        if isinstance(want, tuple):
            levels += 1
            s = 2.0 * math.sqrt(0.25 - B) - 2.0 * (n + 1.0)
            slope = (s + 1.0) - 2.0 * n / (2 * n + s)
            scale = max(abs(want[0]), abs(want[1]), abs(A / slope))
            assert np.max(np.abs(np.subtract(got, want))) <= 1e-14 * scale, (A, B, n)
    assert levels > 1000


def test_rosen_morse_levels_at_exact_boundaries():
    # sqrt(1/4 - B) = 2, A = 3/2: the level-1 condition holds for every mu, so
    # it has no root, not a level at mu = 1e-12
    assert md.spectrum(md.RosenMorse(A=1.5, B=-3.75), 3).epsilons.tolist() == [-1.0]
    # a root on nu = -1 is no level, however it rounds: no repeated energy
    for model in (md.RosenMorse(A=0.0, B=-72.0), md.RosenMorse(A=0.0, B=-6.0),
                  md.RosenMorse(A=1e-12, B=-6.0)):
        eps = md.spectrum(model, 8).epsilons
        assert len(set(eps.tolist())) == eps.size
    assert md.spectrum(md.RosenMorse(A=0.0, B=-6.0), 2).epsilons.tolist() == [-4.0]
    # B = 0, n = 0: the condition has no slope in mu
    assert md.spectrum(md.RosenMorse(A=-1.0, B=0.0), 2).levels == []


@pytest.mark.parametrize("A, B", [(1.0, -2.0), (1.0, -6.0), (0.5, -12.0), (0.0, -2000.0)])
def test_rosen_morse_recursion_takes_its_exponents_from_epsilon(A, B):
    # eps = -mu^2 and nu + 1 = sqrt(2A - eps), the decay at +inf and -inf, at
    # any energy; at the ground level they are the level's own exponents
    model = md.RosenMorse(A=A, B=B)
    levels = md.spectrum(model, 8).levels
    for eps in [lv.epsilon for lv in levels] + [levels[0].epsilon * 0.7]:
        _, spec, _ = md.recursion_for(model, eps)
        assert (spec.mu, spec.nu) == (math.sqrt(-eps), math.sqrt(2.0 * A - eps) - 1.0)
    _, spec, _ = md.recursion_for(model, levels[0].epsilon)
    assert spec.mu == pytest.approx(levels[0].mu, rel=1e-12)
    assert spec.nu == pytest.approx(levels[0].nu, rel=1e-12, abs=1e-12)


def test_rosen_morse_excited_level_series_is_the_generic_one():
    # level 1 of (0.5, -12) is one of the wrong excited levels (roadmap-3):
    # its series is the generic one at that energy, unconverged, not a
    # breakdown of the level's own exponents
    model = md.RosenMorse(A=0.5, B=-12.0)
    eps = md.spectrum(model, 2).levels[1].epsilon
    psi, record = md.wavefunction(model, eps, 50, np.linspace(-5.0, 5.0, 11))
    assert np.isfinite(psi).all() and not record.converged


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


@pytest.mark.parametrize("model", [md.OscillatorInverseSquare(a=1.0, b=0.75),
                                   md.SupercriticalInverseSquare(b=-0.5, nu=0.5)])
def test_half_line_wavefunction_refuses_negative_x_before_solving(monkeypatch, model):
    def unsolved(*args, **kwargs):
        raise AssertionError("x < 0 is refused before the recursion is solved")

    monkeypatch.setattr(op, "solve_recursion", unsolved)
    with pytest.raises(DomainError, match="x > 0"):
        md.wavefunction(model, 1.3, 20, np.array([-1.0, 1.0]))


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
    assert record.coeffs.tail_estimate > 1e-10
    assert record.converged is False
    # from eps = 2 the dual-Hahn parameter (2 - eps)/4 leaves its positive domain
    assert md.closed_form_coefficients(md.SupercriticalInverseSquare(b=-0.5), 2.5, 5) is None


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
    psi, _ = md.wavefunction(model, epsilon, N, x)
    assert calls == [N]
    assert psi.tobytes() == want.tobytes()


def test_wavefunction_domain_errors():
    with pytest.raises(DomainError):
        md.wavefunction(md.GeneralizedMorse(A=-6.0, B=1.0, mu_scale=2.0), 0.5, 10, 1.0)
    with pytest.raises(DomainError):
        md.wavefunction(md.RosenMorse(A=1.0, B=-2.0), 2.5, 10, 0.0)
    # 2A <= eps < 0: nu + 1 = sqrt(2A - eps) has no real value
    with pytest.raises(DomainError, match="threshold 2A"):
        md.wavefunction(md.RosenMorse(A=-1.0, B=-2.0), -1.5, 10, 0.0)
    with pytest.raises(DomainError):
        md.wavefunction(md.OscillatorInverseSquare(a=1.0, b=0.75), 4.0, 10, -1.0)


_HO = md.HarmonicOscillator(a=1.0)


@pytest.mark.parametrize("call, match", [
    (lambda: md.wavefunction(_HO, math.nan, 10, np.linspace(-1.0, 1.0, 5)),
     r"^epsilon = nan must be finite$"),
    (lambda: md.wavefunction(_HO, 1.0, 10, np.array([0.0, math.inf])),
     r"^x = inf must be finite$"),
    (lambda: md.wavefunction(_HO, 1.0, 10, math.nan), r"^x = nan must be finite$"),
    (lambda: md.wavefunction(_HO, 1.0, 10.5, 0.0), r"^N must be an integer, got 10.5$"),
], ids=["epsilon-nan", "x-inf", "x-nan", "N-fraction"])
def test_wavefunction_rejects_non_finite_and_non_integer_inputs(call, match):
    with pytest.raises(ParameterDomainError, match=match):
        call()


@pytest.mark.parametrize("model, epsilon, x, first", [
    # y = 2 e^800 overflows, and the envelope y^alpha e^{-y/2} is inf * 0
    (md.GeneralizedMorse(A=-6.0, B=1.0, mu_scale=2.0), -6.25,
     np.linspace(-800.0, 0.0, 3), -800.0),
    # y = 1e20: e^{-y/2} underflows to 0 while the polynomial overflows
    (_HO, 1.0, np.linspace(1e10, 2e10, 3), 1e10),
], ids=["morse-far-left", "ho-far-out"])
def test_wavefunction_overflow_with_finite_coefficients_raises(model, epsilon, x, first):
    with np.errstate(all="ignore"), pytest.raises(
            EvaluationOverflowError, match=r"^psi is not finite at x = %r " % first):
        md.wavefunction(model, epsilon, 50, x)


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


def _pollaczek_branch(mu_p, p, q, x, N, mirrored):
    seq = orthopoly.sequence(orthopoly.PollaczekFamily(mu_p, p, q), N - 1, x)
    return (-1.0) ** np.arange(N) * seq if mirrored else seq


def test_closed_form_coefficients_match_the_per_branch_families():
    # one reference per coupling range, each written out: the family at the
    # ratio itself above 1 and inside (-1, 1), and for ratios at or below -1 the
    # sign-flipped reflection at -ratio (a = +-0 and Morse b = +-0 give -1)
    N, eps = 200, 2.3
    with np.errstate(over="ignore", invalid="ignore"):
        for a in (0.0, -0.0, 0.5, 0.999999, 1.000001, 2.0, -3.0, -0.5, 1e17, -1e17):
            mu_p = 0.25
            if a > 1.0:
                want = _pollaczek_branch(mu_p, -eps / 4, eps / 4, (a + 1) / (a - 1), N, False)
            elif a < 0.0:
                want = _pollaczek_branch(mu_p, -eps / 4, eps / 4, (a + 1) / (a - 1), N, False)
            else:
                want = _pollaczek_branch(mu_p, -eps / 4, -eps / 4, (1 + a) / (1 - a), N, True)
            got = md.closed_form_coefficients(md.HarmonicOscillator(a=a), eps, N)
            assert np.array_equal(got, want, equal_nan=True), a
        eps = -2.25
        mu_p = 0.5 * (2.0 * math.sqrt(-eps) + 1.0)
        for b in (0.0, -0.0, 1e-20, 0.1, 0.25 - 1e-9, 0.5, 1e17, -1.0, -1e17):
            model = md.GeneralizedMorse(A=-3.0, B=b, mu_scale=1.0)
            a = model.a
            if b < 0.0:
                want = _pollaczek_branch(mu_p, a, -a, (b + 0.25) / (b - 0.25), N, False)
            elif b > 0.25:
                want = _pollaczek_branch(mu_p, a, -a, (b + 0.25) / (b - 0.25), N, False)
            else:
                want = _pollaczek_branch(mu_p, a, a, (0.25 + b) / (0.25 - b), N, True)
            got = md.closed_form_coefficients(model, eps, N)
            assert np.array_equal(got, want, equal_nan=True), b


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


@pytest.mark.parametrize("name, model, n_levels", helpers.SPECTRUM_ORACLE_CASES,
                         ids=[c[0] for c in helpers.SPECTRUM_ORACLE_CASES])
def test_check_spectrum_record(monkeypatch, name, model, n_levels):
    # one grid solve, reached through the oracle module's attribute (the
    # traced layer), on default_grid for the k closed-form levels, and one
    # spectrum call: the grid is sized from the levels the check holds
    solves, spectra = [], []
    grid_solve, spectrum = oc.grid_solve, md.spectrum

    def counting(calls, f):
        def counted(*args, **kwargs):
            calls.append(args)
            return f(*args, **kwargs)
        return counted

    monkeypatch.setattr(oc, "grid_solve", counting(solves, grid_solve))
    monkeypatch.setattr(md, "spectrum", counting(spectra, spectrum))
    check = md.check_spectrum(model, n_levels)
    monkeypatch.undo()
    res = md.spectrum(model, n_levels)
    k = len(res.levels)
    assert len(solves) == 1 and k == n_levels
    assert spectra == [(model, n_levels)]
    np.testing.assert_array_equal(check.result.epsilons, res.epsilons)
    sol = oc.grid_solve(model.potential, *md.default_grid(model, k), langer=model.half_line,
                        symmetry=model.symmetry)
    assert (check.rows, check.passes) == (sol.x.size, sol.passes)
    np.testing.assert_array_equal(check.oracle, sol.eigenvalues[:k])
    np.testing.assert_array_equal(
        check.rel_dev, np.abs(sol.eigenvalues[:k] - res.epsilons) / np.abs(res.epsilons))
    assert check.worst == check.rel_dev.max() <= 1e-3


def test_check_spectrum_without_levels_solves_nothing(monkeypatch):
    def refused(*args, **kwargs):
        raise AssertionError("no level, no grid solve")

    monkeypatch.setattr(oc, "grid_solve", refused)
    check = md.check_spectrum(md.SupercriticalInverseSquare(b=-0.5), 4)
    assert check.result.levels == [] and check.result.notes
    assert (check.rows, check.passes, check.worst) == (None, None, 0.0)
    assert check.oracle.size == check.rel_dev.size == 0


# ---------------------------------------------------------------------------
# Grid-oracle defaults
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("levels, h", [(3, 1.0 / 32.0), (5, 1.0 / 32.0), (6, 1.0 / 64.0),
                                       (16, 1.0 / 64.0), (32, 1.0 / 128.0)])
def test_default_grid_halves_h_until_the_step_bound_holds(levels, h):
    # at 6 or more osc-inv-sq levels the top level's edges reach where
    # h^2 max(U - E_lo rho) / 12 passes the bound at h = 1/32
    model = md.OscillatorInverseSquare(a=1.0, b=0.75)
    x_min, x_max, got, k = md.default_grid(model, levels)
    assert (got, k) == (h, levels)
    assert oc.step_margin(model.potential, x_min, x_max, h, langer=True) < oc.STEP_BOUND
    if h < 1.0 / 32.0:  # the halving stops at the first h that meets the bound
        margin = oc.step_margin(model.potential, x_min, x_max, 2.0 * h, langer=True)
        assert margin >= oc.STEP_BOUND


@pytest.mark.parametrize("parity", ["even", "odd"])
def test_oscillator_oracle_grid_is_its_own_parity_on_the_half_line(parity):
    # each parity is solved alone on x >= 0 (rows (i - 1/2) h), on a grid
    # sized from its own top level; no other model has a symmetry
    model = md.HarmonicOscillator(a=1.0, parity=parity)
    assert model.symmetry == parity
    x_min, x_max, h, k = md.default_grid(model, 3)
    assert (x_min, h, k) == (0.0, 1.0 / 32.0, 3)
    sol = oc.grid_solve(model.potential, x_min, x_max, h, k, symmetry=model.symmetry)
    assert sol.x[0] == h / 2
    np.testing.assert_allclose(sol.eigenvalues, md.spectrum(model, 3).epsilons, rtol=1e-6)
    assert md.GeneralizedMorse(A=-6.0, B=1.0, mu_scale=2.0).symmetry is None


@pytest.mark.parametrize("model, n_levels", [
    (md.HarmonicOscillator(a=1.0), 0),
    (md.OscillatorInverseSquare(a=1.0, b=0.75), 0),
    (md.SupercriticalInverseSquare(b=-0.5), 4),
    (md.RosenMorse(A=1.0, B=0.0), 4),
], ids=["ho-0", "osc-inv-sq-0", "osc-inv-sq-super", "rosen-morse-B0"])
def test_default_grid_refuses_a_model_without_levels(model, n_levels):
    # n_levels = 0 asks for no level; it is not a default count
    assert md.spectrum(model, n_levels).levels == []
    with pytest.raises(UnsupportedStructureError, match="no bound levels to verify"):
        md.default_grid(model, n_levels)


def test_default_grid_sizes_rosen_morse_from_the_requested_levels():
    model = md.RosenMorse(A=0.5, B=-200.0)
    assert len(md.spectrum(model).levels) == 8  # the default count, below 9
    for n_levels in (2, 9, 12):
        k = md.default_grid(model, n_levels)[3]
        assert k == len(md.spectrum(model, n_levels).levels) >= n_levels


def test_morse_spectrum_and_grid_keep_every_bound_level():
    model = md.GeneralizedMorse(A=-9.0, B=1.0, mu_scale=2.0)
    assert len(md.spectrum(model, 1).levels) == 4
    assert md.default_grid(model, 1)[3] == 4


def test_wkb_edge_refuses_a_top_level_that_never_decays():
    # u = U - E_top never turns positive: no edge within 256 length units
    with pytest.raises(UnsupportedStructureError,
                       match=r"does not decay by e\^-16 within 256 length units"):
        md._wkb_edge(lambda x: -np.ones_like(x), 0.0, 1)
