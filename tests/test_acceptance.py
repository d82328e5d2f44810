"""Acceptance suite: one test per criterion, each printing a PASS line with
the measured figure once its assertions hold (run with -s to see them all).

Tolerances are pinned here and nowhere else:
  spectra vs oracle 1e-3 relative (oracle is resolution limited), recursion
  vs closed forms 1e-9 relative (n <= 20, 50 draws per branch), tridiagonal
  off-band 1e-8 of max|J| with a 1e-3 negative control, recurrence residuals
  1e-10, quadrature orthogonality 1e-10, weighted-measure orthogonality 1e-5,
  Hermite identity 1e-10 at 50 sample points.
"""

import math
import time

import numpy as np
import pytest

from triwave import basis as bs
from triwave import models as md
from triwave import operators as op
from triwave import oracle as oc
from triwave import orthopoly

import helpers


def _report(criterion, detail):
    print("ACCEPTANCE %s: PASS (%s)" % (criterion, detail))


def _rel(a, b):
    return np.max(np.abs(np.asarray(a) - np.asarray(b)) / np.abs(b))


# ---------------------------------------------------------------------------
# 1. Harmonic oscillator spectrum, both parities, oracle <= 1e-3, < 5 s
# ---------------------------------------------------------------------------

def test_criterion_1_harmonic_oscillator():
    t0 = time.monotonic()
    even = md.spectrum(md.HarmonicOscillator(a=1.0, parity="even"), n_levels=4)
    odd = md.spectrum(md.HarmonicOscillator(a=1.0, parity="odd"), n_levels=4)
    # closed forms are exact: E_n = hw (2n + 1/2), hw (2n + 3/2), hw = 2 E0
    assert list(even.epsilons) == [2.0 * (2 * n + 0.5) for n in range(4)]
    assert list(odd.epsilons) == [2.0 * (2 * n + 1.5) for n in range(4)]
    sol = oc.grid_solve(md.HarmonicOscillator(a=1.0).potential, -8.0, 8.0, 1.0 / 256.0, 8)
    dev_even = _rel(sol.eigenvalues[0::2], even.epsilons)
    dev_odd = _rel(sol.eigenvalues[1::2], odd.epsilons)
    elapsed = time.monotonic() - t0
    assert dev_even <= 1e-3 and dev_odd <= 1e-3
    assert elapsed < 5.0
    _report("1 harmonic oscillator",
            "oracle dev %.2e/%.2e, %.2fs" % (dev_even, dev_odd, elapsed))


# ---------------------------------------------------------------------------
# 2. Oscillator + inverse-square, b = 3/4, cutoff-halving stability
# ---------------------------------------------------------------------------

def test_criterion_2_inverse_square(oscinv_b075_oracle, oscinv_b075_oracle_halfcut):
    model = md.OscillatorInverseSquare(a=1.0, b=0.75)
    res = md.spectrum(model, n_levels=3)
    np.testing.assert_allclose(res.epsilons, [4.0, 8.0, 12.0])
    dev = _rel(oscinv_b075_oracle.eigenvalues, res.epsilons)
    dev_half = _rel(oscinv_b075_oracle_halfcut.eigenvalues, res.epsilons)
    shift = _rel(oscinv_b075_oracle_halfcut.eigenvalues,
                 oscinv_b075_oracle.eigenvalues)
    assert dev <= 1e-3 and dev_half <= 1e-3
    assert shift <= 1e-3  # halving the cutoff does not move the levels
    _report("2 oscillator + inverse-square",
            "oracle dev %.2e, cutoff-halving shift %.2e" % (dev, shift))


# ---------------------------------------------------------------------------
# 3. Generalized Morse with the level-count discrepancy flagged
# ---------------------------------------------------------------------------

def test_criterion_3_generalized_morse(morse_a3_oracle, morse_a3_oracle_extra):
    model = md.GeneralizedMorse(A=-6.0, B=1.0, mu_scale=2.0)  # a = -3, b = 1/4
    res = md.spectrum(model)
    np.testing.assert_allclose(res.epsilons,
                               [-(n - 3.0 + 0.5) ** 2 for n in range(3)])
    dev = _rel(morse_a3_oracle.eigenvalues, res.epsilons)
    assert dev <= 1e-3
    # both counting rules are reported and the discrepancy is flagged
    assert md.morse_bound_count(-3.0) == 3
    assert md.morse_alternative_bound_count(-3.0) == 6
    assert any("discrepancy" in note for note in res.notes)
    # oracle arbitration: no fourth bound state anywhere near -(3.5-3)^2
    assert morse_a3_oracle_extra.eigenvalues[3] > -0.05
    _report("3 generalized morse",
            "oracle dev %.2e, counts 3 (rule) vs 6 (formula), oracle says 3" % dev)


# ---------------------------------------------------------------------------
# 4. Rosen-Morse levels with the alternative closed form reported only
# ---------------------------------------------------------------------------

def test_criterion_4_rosen_morse(rosen_morse_oracle):
    res = md.spectrum(md.RosenMorse(A=1.0, B=-2.0))
    assert len(res.levels) == 1
    dev = _rel(rosen_morse_oracle.eigenvalues, res.epsilons)
    assert dev <= 1e-3
    alt = res.levels[0].epsilon_alt
    alt_dev = abs(alt - res.levels[0].epsilon)
    assert np.isfinite(alt)  # reported alongside, agreement NOT asserted
    _report("4 rosen-morse",
            "oracle dev %.2e; alternative form deviates by %.4g (reported only)"
            % (dev, alt_dev))


# ---------------------------------------------------------------------------
# 5. Tridiagonality of the quadrature J-matrix, with a negative control
# ---------------------------------------------------------------------------

def test_criterion_5_tridiagonality():
    cases = [
        ("osc-pollaczek", md.OscillatorInverseSquare(a=2.0, b=0.75), 0.7),
        ("osc-dual-hahn", md.SupercriticalInverseSquare(b=-0.5, nu=0.5), 1.3),
        ("morse", md.GeneralizedMorse(A=-6.0, B=-4.0, mu_scale=2.0), -0.36),
        ("rosen-morse", md.RosenMorse(A=1.0, B=-2.0), -0.64),
    ]
    worst = 0.0
    for name, model, eps in cases:
        rc, spec, cmap = md.recursion_for(model, eps)
        J = op.numeric_jmatrix(model, spec, cmap, eps, 13, n_nodes=32)
        mx = np.max(np.abs(J))
        off = max(abs(J[m, n]) for m in range(13) for n in range(13)
                  if abs(m - n) >= 2)
        assert off <= 1e-8 * mx, name
        worst = max(worst, off / mx)
    # negative control: a perturbed exponent must be detected loudly
    model = md.OscillatorInverseSquare(a=2.0, b=0.75)
    rc, spec, cmap = md.recursion_for(model, 0.7)
    J = op.numeric_jmatrix(model, spec.perturbed(0.1), cmap, 0.7, 13, n_nodes=32)
    mx = np.max(np.abs(J))
    control = max(abs(J[m, n]) for m in range(13) for n in range(13)
                  if abs(m - n) >= 2) / mx
    assert control > 1e-3
    _report("5 tridiagonality",
            "worst off-band %.2e of max|J|; perturbed control %.2e" % (worst, control))


# ---------------------------------------------------------------------------
# 6. Recursion / closed-form coefficient equivalence, 50 draws per branch
# ---------------------------------------------------------------------------

def test_criterion_6_recursion_closed_form_equivalence():
    rng = np.random.default_rng(424242)
    worst = {}

    def check(key, model, eps):
        rc, _, _ = md.recursion_for(model, eps)
        d = op.solve_recursion(rc, eps, 21).d
        cf = md.closed_form_coefficients(model, eps, 21)
        dev = helpers.relative_deviation(d, cf)
        worst[key] = max(worst.get(key, 0.0), dev)

    draws = 0
    while draws < 50:
        nu = rng.uniform(-0.45, 2.5)
        b_model = nu * nu - 0.25
        if b_model <= -0.25 or abs(b_model) < 1e-6:
            continue
        eps = rng.uniform(-4.0, 4.0)
        check("hyperbolic a>1", md.OscillatorInverseSquare(a=rng.uniform(1.05, 6.0),
                                                           b=b_model), eps)
        check("flipped 0<a<1", md.OscillatorInverseSquare(a=rng.uniform(0.05, 0.95),
                                                          b=b_model), eps)
        check("trigonometric a<0", md.OscillatorInverseSquare(a=rng.uniform(-5.0, -0.05),
                                                              b=b_model), eps)
        eps_m = -rng.uniform(0.05, 4.0)
        a_m = rng.uniform(-3.0, 3.0) * 2.0
        check("morse trig b<0",
              md.GeneralizedMorse(A=a_m, B=-rng.uniform(0.05, 3.0) * 4.0, mu_scale=2.0),
              eps_m)
        check("morse hyp b>1/4",
              md.GeneralizedMorse(A=a_m, B=rng.uniform(0.3, 3.0) * 4.0, mu_scale=2.0),
              eps_m)
        check("morse flipped 0<b<1/4",
              md.GeneralizedMorse(A=a_m, B=rng.uniform(0.01, 0.24) * 4.0, mu_scale=2.0),
              eps_m)
        check("dual hahn",
              md.SupercriticalInverseSquare(b=-rng.uniform(0.25, 3.0), nu=nu),
              rng.uniform(-3.0, 1.9))
        draws += 1
    assert draws >= 50
    for key, dev in worst.items():
        assert dev <= 1e-9, (key, dev)
    _report("6 recursion/closed-form equivalence",
            "50 draws x %d branches, worst %.2e" % (len(worst), max(worst.values())))


# ---------------------------------------------------------------------------
# 7. Appendix-level fidelity: recurrences, orthogonality, weighted measure
# ---------------------------------------------------------------------------

def test_criterion_7_polynomial_fidelity(rng):
    # recurrence residuals below 1e-10 for every family
    def residual(terms):
        return abs(sum(terms)) / max(max(abs(t) for t in terms), 1e-300)

    worst_res = 0.0
    xs_half = rng.uniform(0.01, 25.0, size=100)
    lag = orthopoly.sequence(orthopoly.LaguerreFamily(0.6), 31, xs_half)
    for n in range(1, 31):
        for j in range(100):
            worst_res = max(worst_res, residual(
                (xs_half[j] * lag[n, j], -(2 * n + 1.6) * lag[n, j],
                 (n + 0.6) * lag[n - 1, j], (n + 1) * lag[n + 1, j])))
    xs_int = rng.uniform(-0.999, 0.999, size=100)
    mu, nu = 0.4, 1.1
    s = mu + nu
    jac = orthopoly.sequence(orthopoly.JacobiFamily(mu, nu), 31, xs_int)
    for n in range(1, 31):
        c0 = (2 * n * (n + s + 1) + s * (nu + 1)) / ((2 * n + s) * (2 * n + s + 2))
        cm = (n + mu) * (n + nu) / ((2 * n + s) * (2 * n + s + 1))
        cp = (n + 1) * (n + s + 1) / ((2 * n + s + 1) * (2 * n + s + 2))
        for j in range(100):
            x = xs_int[j]
            worst_res = max(worst_res, residual(
                (0.5 * (1 + x) * jac[n, j], -c0 * jac[n, j], -cm * jac[n - 1, j],
                 -cp * jac[n + 1, j])))
    fam = orthopoly.PollaczekFamily(0.8, 1.5, -0.7)
    for xs in (xs_int, rng.uniform(1.001, 4.0, size=100)):
        seq = orthopoly.sequence(fam, 31, xs)
        for n in range(1, 31):
            for j in range(100):
                worst_res = max(worst_res, residual(
                    (2 * ((n + 2.3) * xs[j] - 0.7) * seq[n, j],
                     -(n + 0.6) * seq[n - 1, j], -(n + 1) * seq[n + 1, j])))
    fam = orthopoly.DualHahnFamily(0.9, 0.7, 1.8)
    x2s = rng.uniform(0.0, 8.0, size=100)
    seq = orthopoly.sequence(fam, 31, x2s)
    for n in range(1, 31):
        denom = (n + 0.9) ** 2 + (n + 0.9) * 2.5 + 0.7 * 1.8
        diag = denom + n * (n + 1.5) - 0.81
        for j in range(100):
            worst_res = max(worst_res, residual(
                (x2s[j] * seq[n, j], -diag * seq[n, j],
                 n * (n + 1.5) * seq[n - 1, j], denom * seq[n + 1, j])))
    assert worst_res < 1e-10

    # classical orthogonality reproduced by the generated Gauss rules
    worst_orth = 0.0
    fam = orthopoly.LaguerreFamily(0.7)
    rule = oc.gauss_rule(("laguerre", 0.7), 24)
    seq = orthopoly.sequence(fam, 20, rule.nodes)
    gram = (seq * rule.weights) @ seq.T
    hn = np.array([math.exp(math.lgamma(n + 1.7) - math.lgamma(n + 1.0))
                   for n in range(21)])
    worst_orth = max(worst_orth, float(np.max(np.abs(
        gram / np.sqrt(np.outer(hn, hn)) - np.eye(21)))))
    fam = orthopoly.JacobiFamily(0.3, 1.2)
    rule = oc.gauss_rule(("jacobi", 0.3, 1.2), 24)
    seq = orthopoly.sequence(fam, 20, rule.nodes)
    gram = (seq * rule.weights) @ seq.T
    s = 1.5
    hn = np.array([2.0 ** (s + 1) / (2 * n + s + 1)
                   * math.exp(math.lgamma(n + 1.3) + math.lgamma(n + 2.2)
                              - math.lgamma(n + 1.0) - math.lgamma(n + s + 1.0))
                   for n in range(21)])
    worst_orth = max(worst_orth, float(np.max(np.abs(
        gram / np.sqrt(np.outer(hn, hn)) - np.eye(21)))))
    assert worst_orth < 1e-10

    # weighted-measure orthogonality with the |Gamma(mu+iy)|^2 density
    fam = orthopoly.PollaczekFamily(1.0, 1.0, 0.0)
    worst_w = 0.0
    for n in range(7):
        for m in range(n + 1):
            def f(theta, n=n, m=m):
                x = np.cos(theta)
                seq = orthopoly.sequence(fam, 6, x)
                return (orthopoly.weight_eval(fam, x) * seq[n] * seq[m]
                        * np.sin(theta))
            val, _ = oc.adaptive_quad(f, 1e-6, math.pi - 1e-6, tol=1e-8)
            want = (math.exp(math.lgamma(n + 2.0) - math.lgamma(n + 1.0))
                    / (n + 2.0)) if n == m else 0.0
            worst_w = max(worst_w, abs(val - want))
    assert worst_w < 1e-5
    _report("7 polynomial fidelity",
            "recurrence %.2e, gauss orthogonality %.2e, weighted measure %.2e"
            % (worst_res, worst_orth, worst_w))


# ---------------------------------------------------------------------------
# 8. Hermite identity for the folded oscillator basis
# ---------------------------------------------------------------------------

def test_criterion_8_hermite_identity():
    x = np.linspace(0.05, 4.0, 50)
    worst = 0.0
    for nu, offset in ((-0.5, 0), (0.5, 1)):
        spec = bs.oscillator_pollaczek_basis(nu)
        for n in range(11):
            phi = bs.basis_eval(spec, n, x * x)
            ref = (-1.0) ** n * helpers.hermite_wavefunction(2 * n + offset, x)
            worst = max(worst, helpers.relative_deviation(phi, ref))
    assert worst < 1e-10
    _report("8 hermite identity", "worst deviation %.2e at 50 points, n <= 10" % worst)


# ---------------------------------------------------------------------------
# 9. Node counts for every level of criteria 1-4, series and oracle
# ---------------------------------------------------------------------------

def test_criterion_9_node_counts(ho_oracle, oscinv_b075_oracle, morse_a3_oracle,
                                 rosen_morse_oracle):
    half = ho_oracle.x > 0
    xp = np.linspace(0.02, 6.5, 500)
    for parity, offset in (("even", 0), ("odd", 1)):
        model = md.HarmonicOscillator(a=1.0, parity=parity)
        res = md.spectrum(model, n_levels=4)
        for lv in res.levels:
            psi, _ = md.wavefunction(model, lv.epsilon, 30, xp)
            assert oc.node_count(psi) == lv.n
            vec = ho_oracle.eigenvectors[2 * lv.n + offset][half]
            assert oc.node_count(vec) == lv.n

    model = md.OscillatorInverseSquare(a=1.0, b=0.75)
    for lv in md.spectrum(model, n_levels=3).levels:
        psi, _ = md.wavefunction(model, lv.epsilon, 30, xp)
        assert oc.node_count(psi) == lv.n
        assert oc.node_count(oscinv_b075_oracle.eigenvectors[lv.n]) == lv.n

    xm = np.linspace(-2.0, 16.0, 500)
    model = md.GeneralizedMorse(A=-6.0, B=1.0, mu_scale=2.0)
    for lv in md.spectrum(model).levels:
        psi, _ = md.wavefunction(model, lv.epsilon, 30, xm)
        assert oc.node_count(psi) == lv.n
        assert oc.node_count(morse_a3_oracle.eigenvectors[lv.n]) == lv.n

    xr = np.linspace(-9.0, 18.0, 500)
    model = md.RosenMorse(A=1.0, B=-2.0)
    for lv in md.spectrum(model).levels:
        psi, _ = md.wavefunction(model, lv.epsilon, 20, xr)
        assert oc.node_count(psi) == lv.n
        assert oc.node_count(rosen_morse_oracle.eigenvectors[lv.n]) == lv.n
    _report("9 node counts", "all levels of criteria 1-4, series and oracle")
