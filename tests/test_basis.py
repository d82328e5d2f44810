import math

import numpy as np
import pytest

from triwave import basis as bs
from triwave import oracle as oc
from triwave.exceptions import (
    DomainError,
    EvaluationOverflowError,
    ParameterDomainError,
    TriwaveError,
)

import helpers


def test_normalization_values():
    spec = bs.BasisSpec(kind="laguerre", alpha=0.0, nu=0.0)
    assert bs.normalization(spec, 0) == pytest.approx(1.0, rel=1e-14)
    assert bs.basis_eval(spec, 0, 0.0) == pytest.approx(1.0, rel=1e-14)
    spec = bs.BasisSpec(kind="jacobi", alpha=0.0, beta=0.0, mu=0.0, nu=0.0)
    assert bs.normalization(spec, 0) == pytest.approx(math.sqrt(0.5), rel=1e-14)
    assert bs.basis_eval(spec, 0, 0.3) == pytest.approx(math.sqrt(0.5), rel=1e-14)


@pytest.mark.parametrize("spec", [
    bs.BasisSpec(kind="laguerre", alpha=0.0, nu=-0.5),
    bs.BasisSpec(kind="laguerre", alpha=0.6, nu=0.7),
    bs.BasisSpec(kind="laguerre", alpha=20.0, nu=40.0),
    # mu + nu near -1: n = 0 folds the prefactor into Gamma(s + 2)
    bs.BasisSpec(kind="jacobi", alpha=0.0, beta=0.0, mu=-0.4, nu=-0.6 + 1e-9),
    bs.rosen_morse_basis(0.8, 0.6),
], ids=["laguerre-nu-0.5", "laguerre-nu0.7", "laguerre-nu40", "jacobi-s-near-1",
        "jacobi"])
def test_normalization_array_matches_scalar(spec):
    N = 1000
    assert np.array_equal(bs.normalization(spec, np.arange(N)),
                          [bs.normalization(spec, n) for n in range(N)])


def test_laguerre_basis_decay_at_infinity():
    spec = bs.oscillator_pollaczek_basis(0.5)
    ys = np.array([40.0, 60.0, 90.0, 140.0])
    vals = np.abs([bs.basis_eval(spec, 5, y) for y in ys])
    assert np.all(np.diff(vals) < 0)
    assert vals[-1] < 1e-20


def test_case_constructors_validate():
    with pytest.raises(ParameterDomainError):
        bs.oscillator_pollaczek_basis(-0.75)  # alpha would be negative
    with pytest.raises(ParameterDomainError):
        bs.BasisSpec(kind="laguerre", alpha=-0.1, nu=0.0)
    with pytest.raises(ParameterDomainError):
        bs.BasisSpec(kind="jacobi", alpha=0.1, nu=0.0)  # missing mu/beta
    with pytest.raises(ParameterDomainError):
        bs.CoordinateMap(kind="morse")  # missing mu_scale


def test_support_domain_errors():
    spec = bs.oscillator_pollaczek_basis(0.5)
    with pytest.raises(DomainError):
        bs.basis_eval(spec, 2, -0.5)
    jspec = bs.rosen_morse_basis(0.5, 0.5)
    with pytest.raises(DomainError):
        bs.basis_eval(jspec, 2, 1.5)


def test_coordinate_maps():
    assert bs.oscillator_map().to_y(3.0) == pytest.approx(9.0)
    assert bs.morse_map(3.0).to_y(0.0) == pytest.approx(3.0)
    assert bs.rosen_morse_map().to_y(0.0) == 0.0


# ---------------------------------------------------------------------------
# Orthonormality and the weighted delta relations of the developed cases
# ---------------------------------------------------------------------------

def test_case1_orthonormal():
    spec = bs.oscillator_pollaczek_basis(1.0)
    gram = bs.overlap_matrix(spec, bs.oscillator_map(), 20)
    assert np.max(np.abs(gram - np.eye(21))) < 1e-10


def test_case1_single_overlaps():
    spec = bs.oscillator_pollaczek_basis(-0.5)
    cmap = bs.oscillator_map()
    assert bs.overlap_matrix(spec, cmap, 0)[0, 0] == pytest.approx(1.0, abs=1e-10)
    assert abs(bs.overlap_matrix(spec, cmap, 5)[3, 5]) < 1e-10


def test_case2_weighted_delta_and_gram_structure():
    # the 2*alpha = nu + 3/2 basis is not orthonormal: <phi_m (1/y) phi_n> is
    # the delta relation, while <phi_m phi_n> is tridiagonal with diagonal
    # 2n + nu + 1 and coupling -sqrt((n+1)(n+nu+1))
    nu = 0.5
    spec = bs.oscillator_dual_hahn_basis(nu)
    cmap = bs.oscillator_map()
    gram_inv = bs.overlap_matrix(spec, cmap, 20, extra="1/y")
    assert np.max(np.abs(gram_inv - np.eye(21))) < 1e-10
    gram = bs.overlap_matrix(spec, cmap, 12)
    for n in range(13):
        assert gram[n, n] == pytest.approx(2 * n + nu + 1.0, rel=1e-12)
        if n < 12:
            assert gram[n, n + 1] == pytest.approx(
                -math.sqrt((n + 1.0) * (n + nu + 1.0)), rel=1e-12)
    off2 = np.triu(gram, 2)
    assert np.max(np.abs(off2)) < 1e-10


def test_morse_weighted_delta():
    spec = bs.morse_basis(1.2)
    cmap = bs.morse_map(2.0)
    gram = bs.overlap_matrix(spec, cmap, 20, extra="y")
    assert np.max(np.abs(gram - np.eye(21))) < 1e-10


def test_rosen_morse_weighted_delta():
    spec = bs.rosen_morse_basis(0.8, 0.6)
    cmap = bs.rosen_morse_map()
    gram = bs.overlap_matrix(spec, cmap, 20, extra="1-y")
    assert np.max(np.abs(gram - np.eye(21))) < 1e-10


def test_overlap_refuses_an_unknown_factor():
    spec = bs.rosen_morse_basis(0.8, 0.6)
    with pytest.raises(ParameterDomainError,
                       match=r"extra factor must be one of \[None, 'y', '1/y', '1-y'\]$"):
        bs.overlap_matrix(spec, bs.rosen_morse_map(), 4, extra="1+y")


def test_overlap_rejects_divergent_weight():
    # nu = 2 alpha = 0 makes the morse measure integral diverge at y = 0
    spec = bs.morse_basis(0.0)
    with pytest.raises(DomainError):
        bs.overlap_matrix(spec, bs.morse_map(2.0), 0)


# ---------------------------------------------------------------------------
# Boundary compliance (the ends that map to x -> +-infinity)
# ---------------------------------------------------------------------------

def test_boundary_compliance_morse():
    spec = bs.morse_basis(1.5)
    for n in range(6):
        assert abs(bs.basis_eval(spec, n, 1e-6)) < 1e-4
        big = 4 * n + 2 * spec.nu + 12.0
        ys = np.linspace(big, big + 30.0, 12)
        vals = np.abs([bs.basis_eval(spec, n, y) for y in ys])
        assert np.all(np.diff(vals) < 0)


def test_boundary_compliance_rosen_morse():
    spec = bs.rosen_morse_basis(0.8, 0.6)
    for n in range(6):
        assert abs(bs.basis_eval(spec, n, 1.0 - 1e-6)) < 1e-1
        assert abs(bs.basis_eval(spec, n, -1.0 + 1e-6)) < 1e-1
        # monotone decay toward both ends beyond the last polynomial zero
        for sgn in (+1.0, -1.0):
            ys = sgn * (1.0 - np.logspace(-2, -8, 8))
            vals = np.abs([bs.basis_eval(spec, n, y) for y in ys])
            assert np.all(np.diff(vals) < 0)


def test_boundary_compliance_oscillator():
    # y -> infinity is the only end mapping to |x| -> infinity for this case
    spec = bs.oscillator_pollaczek_basis(-0.5)
    for n in range(6):
        big = 4 * n + 2 * spec.nu + 12.0
        ys = np.linspace(big, big + 40.0, 12)
        vals = np.abs([bs.basis_eval(spec, n, y) for y in ys])
        assert np.all(np.diff(vals) < 0)
        assert vals[-1] < 1e-8


def test_basis_eval_overflow_names_n_and_y():
    spec = bs.oscillator_pollaczek_basis(0.0)
    with pytest.raises(EvaluationOverflowError, match=r"phi_400 .* y = 2000\.0"):
        bs.basis_eval(spec, 400, 2000.0)
    # the first offending point of an array, and still a TriwaveError and
    # an OverflowError
    with pytest.raises(TriwaveError, match=r"phi_400 .* y = 1500\.0") as exc:
        bs.basis_eval(spec, 400, np.array([1.0, 10.0, 1500.0, 2000.0]))
    assert isinstance(exc.value, OverflowError)
    assert np.isfinite(bs.basis_eval(spec, 400, np.array([1.0, 10.0, 500.0]))).all()


def test_series_eval_matches_basis_sum():
    for spec, y in ((bs.morse_basis(1.5), np.linspace(0.01, 20.0, 31)),
                    (bs.rosen_morse_basis(0.8, 0.6), np.linspace(-0.99, 0.99, 31))):
        f = np.random.default_rng(3).normal(size=12)
        ref = sum(fn * bs.basis_eval(spec, n, y) for n, fn in enumerate(f))
        a_n = bs.normalization(spec, np.arange(f.size))
        got = bs.series_eval(spec, f, y, a_n)
        assert np.max(np.abs(got - ref)) <= 1e-13 * np.max(np.abs(ref))
        assert bs.series_eval(spec, f, float(y[4]), a_n) == pytest.approx(got[4], rel=1e-14)


# ---------------------------------------------------------------------------
# Measure consistency and coefficient transforms
# ---------------------------------------------------------------------------

def test_measure_consistency_oscillator():
    # direct x integration of exp(-x^2) against the mapped y integration
    direct = math.sqrt(math.pi)
    rule = oc.gauss_rule(("laguerre", -0.5), 40)
    mapped = float(np.sum(rule.weights * 1.0))  # integrand e^{-y} / sqrt(y) == weight
    assert mapped == pytest.approx(direct, rel=1e-12)
    # a shifted gaussian (still even in x): exp(-2 x^2) -> sqrt(pi/2)
    mapped2 = rule.integrate(lambda y: np.exp(-y))
    assert mapped2 == pytest.approx(math.sqrt(math.pi / 2.0), rel=1e-8)


def test_hermite_identity():
    # folded oscillator basis at nu = -+1/2 reproduces the unit-normalized
    # Hermite eigenfunctions up to the (-1)^n leading-coefficient sign
    x = np.linspace(0.05, 4.0, 50)
    for nu, offset in ((-0.5, 0), (0.5, 1)):
        spec = bs.oscillator_pollaczek_basis(nu)
        for n in range(11):
            phi = bs.basis_eval(spec, n, x * x)
            ref = (-1.0) ** n * helpers.hermite_wavefunction(2 * n + offset, x)
            assert helpers.relative_deviation(phi, ref) < 1e-10
