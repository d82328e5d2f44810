"""The four solvable potential families and their closed-form solutions.

All energies are dimensionless (E0 = hbar^2 lam^2 / 2m units, lam absorbed,
so V(x) below means V/E0 at lam = 1).  The families:

* HarmonicOscillator:           V = a x^2                     (a = 1 solvable)
* OscillatorInverseSquare:      V = a x^2 + b / x^2           (b > -1/4, b != 0)
* SupercriticalInverseSquare:   V = x^2 + b / x^2             (b <= -1/4)
* GeneralizedMorse:             V = A e^{-x} + B e^{-2x}
* RosenMorse:                   V = A - A tanh x + B / cosh^2 x

Expansion coefficients come from the recursion engine in operators; the
closed-form polynomial routes (Pollaczek, continuous dual Hahn) are exposed
separately as cross-checks.  Oscillator presentation uses hbar*omega = 2 E0.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import basis as basis_mod
from . import operators, orthopoly
from .exceptions import (
    DomainError,
    ParameterDomainError,
    UnsupportedStructureError,
    require_finite,
)

__all__ = [
    "HarmonicOscillator",
    "OscillatorInverseSquare",
    "SupercriticalInverseSquare",
    "GeneralizedMorse",
    "RosenMorse",
    "Level",
    "SpectrumResult",
    "WavefunctionSeries",
    "potential_eval",
    "spectrum",
    "wavefunction",
    "morse_bound_count",
    "morse_alternative_bound_count",
    "rosen_morse_alt_energy",
    "closed_form_coefficients",
    "recursion_for",
    "default_grid",
]

UNITS_NOTE = "epsilon in units of E0 = hbar^2 lam^2 / (2 m); hbar*omega = 2 E0"


# ---------------------------------------------------------------------------
# Model types
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class HarmonicOscillator:
    """V = a x^2; the tridiagonal scheme diagonalizes at a = 1.  parity picks
    the folded-basis branch: "even" uses nu = -1/2, "odd" uses nu = +1/2."""

    a: float = 1.0
    parity: str = "even"

    def __post_init__(self):
        require_finite(self)
        if self.parity not in ("even", "odd"):
            raise ParameterDomainError("parity must be 'even' or 'odd'")

    @property
    def nu(self):
        return -0.5 if self.parity == "even" else 0.5


@dataclass(frozen=True)
class OscillatorInverseSquare:
    """V = a x^2 + b / x^2 with subcritical coupling -1/4 < b, b != 0.
    branch selects the basis exponent nu = +-sqrt(b + 1/4); the minus sign
    is admissible only for -1/4 < b < 0."""

    a: float
    b: float
    branch: str = "+"

    def __post_init__(self):
        require_finite(self)
        if not self.b > -0.25 or self.b == 0.0:
            raise ParameterDomainError(
                "subcritical inverse-square coupling needs b > -1/4 and b != 0")
        if self.branch not in ("+", "-"):
            raise ParameterDomainError("branch must be '+' or '-'")
        if self.branch == "-" and not self.b < 0.0:
            raise ParameterDomainError("the minus branch exists only for -1/4 < b < 0")

    @property
    def nu(self):
        root = math.sqrt(0.25 + self.b)
        return root if self.branch == "+" else -root


@dataclass(frozen=True)
class SupercriticalInverseSquare:
    """V = x^2 + b / x^2 with b <= -1/4 (fall-to-center regime).  nu is the
    free basis exponent of the dual-Hahn expansion route."""

    b: float
    nu: float = 0.0

    def __post_init__(self):
        require_finite(self)
        if not self.b <= -0.25:
            raise ParameterDomainError("supercritical coupling needs b <= -1/4")
        if not self.nu > -1.0:
            raise ParameterDomainError("basis exponent needs nu > -1")


@dataclass(frozen=True)
class GeneralizedMorse:
    """V = A e^{-x} + B e^{-2x}; the map scale gives a = A/mu_scale and
    b = B/mu_scale^2.  Bound states require the diagonal limit b = 1/4."""

    A: float
    B: float
    mu_scale: float

    def __post_init__(self):
        require_finite(self)
        if not self.mu_scale > 0.0:
            raise ParameterDomainError("mu_scale must be positive")

    @property
    def a(self):
        return self.A / self.mu_scale

    @property
    def b(self):
        return self.B / self.mu_scale ** 2


@dataclass(frozen=True)
class RosenMorse:
    """V = A - A tanh x + B / cosh^2 x.  Bound levels exist for B <= 1/4."""

    A: float
    B: float

    def __post_init__(self):
        require_finite(self)


@dataclass(frozen=True)
class Level:
    n: int
    epsilon: float
    basis_params: dict
    extra: dict = field(default_factory=dict)


@dataclass
class SpectrumResult:
    levels: list
    n_max: int = None
    units_note: str = UNITS_NOTE
    notes: list = field(default_factory=list)

    @property
    def epsilons(self):
        return np.array([lv.epsilon for lv in self.levels])


@dataclass
class WavefunctionSeries:
    """Truncated expansion sum_{n<N} f_n phi_n with its convergence record.
    tail_estimate is |f_{N-1}| relative to the running coefficient maximum;
    the result is flagged unconverged rather than rejected when the tail
    exceeds 1e-10 (hyperbolic-route coefficients may grow before decaying)."""

    spec: basis_mod.BasisSpec
    coeffs: operators.CoefficientSeries
    tail_estimate: float
    converged: bool


# ---------------------------------------------------------------------------
# Potentials
# ---------------------------------------------------------------------------

def potential_eval(model, x):
    """V(x) in E0 units (lam = 1)."""
    x_arr = np.asarray(x, dtype=float)
    if isinstance(model, HarmonicOscillator):
        out = model.a * x_arr * x_arr
    elif isinstance(model, (OscillatorInverseSquare, SupercriticalInverseSquare)):
        if np.any(x_arr == 0.0):
            raise DomainError("inverse-square potential is singular at x = 0")
        a_coef = model.a if isinstance(model, OscillatorInverseSquare) else 1.0
        out = a_coef * x_arr * x_arr + model.b / (x_arr * x_arr)
    elif isinstance(model, GeneralizedMorse):
        out = model.A * np.exp(-x_arr) + model.B * np.exp(-2.0 * x_arr)
    elif isinstance(model, RosenMorse):
        out = model.A * (1.0 - np.tanh(x_arr)) + model.B / np.cosh(x_arr) ** 2
    else:
        raise ParameterDomainError("unknown potential model %r" % (model,))
    return out if out.ndim else float(out)


# ---------------------------------------------------------------------------
# Spectra
# ---------------------------------------------------------------------------

def morse_bound_count(a):
    """Number of Morse levels under the normalizability rule nu_n =
    -2(n + a + 1/2) > 0, i.e. levels with n < -a - 1/2."""
    limit = -a - 0.5
    if limit <= 0.0:
        return 0
    count = int(math.ceil(limit))
    if count - 1 >= limit - 1e-12:  # strict inequality at integer boundaries
        count = int(math.floor(limit - 1e-12)) + 1
    return max(count, 0)


def morse_alternative_bound_count(a):
    """Level count implied by the alternative closed-form bound
    n_max = floor(-2a - 1/2); kept for comparison, the grid oracle supports
    the normalizability rule instead."""
    val = -2.0 * a - 0.5
    if val < 0.0:
        return 0
    return int(math.floor(val)) + 1


def rosen_morse_alt_energy(A, B, n):
    """Alternative closed-form Rosen-Morse level expression, reported for
    comparison only.  It disagrees with the per-level diagonal conditions in
    general and is never asserted against them or the oracle.  Returns NaN at
    its internal singular points."""
    gamma = math.sqrt(0.25 - B) if B <= 0.25 else float("nan")
    if not np.isfinite(gamma) or gamma == 1.0 or gamma == 2.0 * (n + 1.0):
        return float("nan")
    inner = (gamma - 2.0 * (n + 1.0)
             + (gamma - 2.0) / (gamma - 2.0 * (n + 1.0))
             * (1.0 - 2.0 * A / (gamma - 1.0)))
    return -0.25 * inner * inner


def spectrum(model, n_levels=8):
    """Closed-form bound spectrum of the model (diagonalization route).

    The level rules of every case live here: each level is a parameter point
    where all couplings vanish and the diagonal vanishes at the level index.
    """
    if isinstance(model, (HarmonicOscillator, OscillatorInverseSquare)):
        if model.a != 1.0:
            raise ParameterDomainError(
                "the diagonal closed form requires a = 1 (rescale lam otherwise)")
        nu = model.nu
        levels = [Level(n=n, epsilon=2.0 * (2 * n + nu + 1.0), basis_params={"nu": nu})
                  for n in range(n_levels)]
        return SpectrumResult(levels=levels)

    if isinstance(model, SupercriticalInverseSquare):
        return SpectrumResult(levels=[], notes=[
            "no diagonalization route exists for supercritical coupling; the "
            "dual-Hahn expansion covers the continuum representation only"])

    if isinstance(model, GeneralizedMorse):
        if abs(model.b - 0.25) > 1e-12:
            raise ParameterDomainError(
                "Morse bound states need the diagonal limit b = B/mu_scale^2 = 1/4 "
                "(got b = %g); choose mu_scale = 2 sqrt(B)" % model.b)
        a = model.a
        count = morse_bound_count(a)
        alt = morse_alternative_bound_count(a)
        levels = []
        for n in range(count):
            nu_n = -2.0 * (n + a + 0.5)
            levels.append(Level(n=n, epsilon=-(n + a + 0.5) ** 2,
                                basis_params={"nu": nu_n}))
        notes = []
        if alt != count:
            notes.append(
                "level-count discrepancy: normalizability (nu > 0) admits %d "
                "levels, the alternative closed-form bound floor(-2a-1/2) would "
                "admit %d; the grid oracle supports %d" % (count, alt, count))
        return SpectrumResult(levels=levels, n_max=count - 1 if count else None,
                              notes=notes)

    if isinstance(model, RosenMorse):
        if model.B > 0.25:
            raise ParameterDomainError("Rosen-Morse bound levels need B <= 1/4")
        levels = []
        for n in range(n_levels):
            sol = operators.rosen_morse_level(model.A, model.B, n)
            if sol is None:
                break
            mu_n, nu_n = sol
            levels.append(Level(
                n=n, epsilon=-mu_n * mu_n,
                basis_params={"mu": mu_n, "nu": nu_n},
                extra={"epsilon_alt": rosen_morse_alt_energy(model.A, model.B, n)}))
        notes = ["epsilon_alt is an alternative closed-form expression reported "
                 "for comparison; agreement with the level conditions is not "
                 "asserted (they disagree in general)"]
        return SpectrumResult(levels=levels, notes=notes)

    raise ParameterDomainError("unknown potential model %r" % (model,))


# ---------------------------------------------------------------------------
# Recursion plumbing per model
# ---------------------------------------------------------------------------

def _rosen_morse_params(model, epsilon):
    if epsilon >= 0.0:
        raise DomainError("Rosen-Morse expansion needs epsilon < 0")
    if epsilon >= 2.0 * model.A:
        raise DomainError("epsilon must lie below the left continuum threshold 2A")
    mu = math.sqrt(-epsilon)
    nu = math.sqrt(2.0 * model.A - epsilon) - 1.0
    # at a bound level the envelope exponents coincide with the level solve
    spec_res = spectrum(model, n_levels=32)
    for lv in spec_res.levels:
        if abs(lv.epsilon - epsilon) <= 1e-9 * max(1.0, abs(epsilon)):
            return lv.basis_params["mu"], lv.basis_params["nu"]
    return mu, nu


def recursion_for(model, epsilon):
    """(recursion coefficients, basis spec, coordinate map) for the model at
    this energy; the spec is the one the builder attached to the recursion.
    For energy-dependent bases (Morse, Rosen-Morse) the basis parameters are
    derived from epsilon."""
    if isinstance(model, (HarmonicOscillator, OscillatorInverseSquare)):
        rc = operators.build_oscillator_pollaczek(model.nu, model.a)
        if rc.spec is None:
            raise ParameterDomainError("branch exponent leaves the basis domain")
        cmap = basis_mod.oscillator_map()
    elif isinstance(model, SupercriticalInverseSquare):
        rc = operators.build_oscillator_dual_hahn(model.nu, model.b)
        cmap = basis_mod.oscillator_map()
    elif isinstance(model, GeneralizedMorse):
        if epsilon >= 0.0:
            raise DomainError("Morse expansion needs epsilon < 0 (nu = 2 sqrt(-eps))")
        rc = operators.build_morse(model.a, model.b, 2.0 * math.sqrt(-epsilon))
        cmap = basis_mod.morse_map(model.mu_scale)
    elif isinstance(model, RosenMorse):
        mu, nu = _rosen_morse_params(model, epsilon)
        rc = operators.build_rosen_morse(model.A, model.B, mu, nu)
        cmap = basis_mod.rosen_morse_map()
    else:
        raise ParameterDomainError("unknown potential model %r" % (model,))
    return rc, rc.spec, cmap


def closed_form_coefficients(model, epsilon, N):
    """d_0..d_{N-1} from the named polynomial solution of the model's
    recursion, or None where no classical family applies (diagonal limits,
    the Rosen-Morse recursion, dual-Hahn parameters outside their domain).

    Oscillator route (coupling strength a, exponent nu, mu_p = (nu+1)/2):
    hyperbolic polynomials at (a+1)/(a-1) for a > 1, their sign-flipped
    mirror at (1+a)/(1-a) for 0 < a < 1, trigonometric ones for a < 0.  The
    Morse route swaps the roles of b and uses (a, -a) parameters; the
    supercritical route is the continuous dual Hahn family.
    """
    eps = float(epsilon)
    ns = np.arange(N)
    if isinstance(model, (HarmonicOscillator, OscillatorInverseSquare)):
        a, nu = model.a, model.nu
        mu_p = 0.5 * (nu + 1.0)
        if a == 1.0:
            return None
        if a > 1.0:
            fam = orthopoly.PollaczekFamily(mu_p, -eps / 4.0, eps / 4.0, "hyperbolic")
            x = (a + 1.0) / (a - 1.0)
            return _family_sequence(fam, N, x)
        if 0.0 < a < 1.0:
            fam = orthopoly.PollaczekFamily(mu_p, -eps / 4.0, -eps / 4.0, "hyperbolic")
            x = (1.0 + a) / (1.0 - a)
            return ((-1.0) ** ns) * _family_sequence(fam, N, x)
        fam = orthopoly.PollaczekFamily(mu_p, -eps / 4.0, eps / 4.0, "trigonometric")
        x = (a + 1.0) / (a - 1.0)
        return _family_sequence(fam, N, x)
    if isinstance(model, SupercriticalInverseSquare):
        if eps >= 2.0:
            return None  # dual-Hahn parameter (2-eps)/4 leaves the positive domain
        fam = orthopoly.DualHahnFamily(0.5 * (model.nu + 1.0),
                                       0.5 * (model.nu + 1.0), (2.0 - eps) / 4.0)
        x2 = -(4.0 * model.b + 1.0) / 16.0
        return orthopoly.dual_hahn_sequence(fam, N - 1, x2)
    if isinstance(model, GeneralizedMorse):
        if eps >= 0.0:
            raise DomainError("Morse expansion needs epsilon < 0")
        nu = 2.0 * math.sqrt(-eps)
        mu_p = 0.5 * (nu + 1.0)
        a, b = model.a, model.b
        if b == 0.25:
            return None
        if b < 0.0:
            fam = orthopoly.PollaczekFamily(mu_p, a, -a, "trigonometric")
            x = (b + 0.25) / (b - 0.25)
            return _family_sequence(fam, N, x)
        if b > 0.25:
            fam = orthopoly.PollaczekFamily(mu_p, a, -a, "hyperbolic")
            x = (b + 0.25) / (b - 0.25)
            return _family_sequence(fam, N, x)
        fam = orthopoly.PollaczekFamily(mu_p, a, a, "hyperbolic")
        x = (0.25 + b) / (0.25 - b)
        return ((-1.0) ** ns) * _family_sequence(fam, N, x)
    if isinstance(model, RosenMorse):
        return None
    raise ParameterDomainError("unknown potential model %r" % (model,))


def _family_sequence(fam, N, x):
    return orthopoly.pollaczek_sequence(fam, N - 1, float(x))


# ---------------------------------------------------------------------------
# Wavefunctions
# ---------------------------------------------------------------------------

def wavefunction(model, epsilon, N, x):
    """Un-normalized Psi(x, epsilon) = sum_{n<N} f_n phi_n(y(x)) plus its
    series record.

    Half-line models (the oscillator family) evaluate on x > 0; the folded
    even representation extends to -x, and the harmonic oscillator's odd
    parity branch carries an explicit sign(x).  Unconverged tails flag the
    result instead of failing.
    """
    rc, spec, cmap = recursion_for(model, epsilon)
    eps = float(epsilon)
    series = operators.solve_recursion(rc, eps, N)
    x_arr = np.asarray(x, dtype=float)
    if cmap.kind == "oscillator" and np.any(x_arr < 0.0) and not isinstance(
            model, HarmonicOscillator):
        raise DomainError("inverse-square models evaluate on x > 0")
    psi = basis_mod.series_eval(spec, series.f, cmap.to_y(x_arr), series.a_n)
    if isinstance(model, HarmonicOscillator) and model.parity == "odd":
        psi = psi * np.sign(x_arr) if x_arr.ndim else psi * math.copysign(1.0, float(x_arr))
    record = WavefunctionSeries(spec=spec, coeffs=series,
                                tail_estimate=series.tail_estimate,
                                converged=series.tail_estimate <= 1e-10)
    return psi, record


# ---------------------------------------------------------------------------
# Grid-oracle defaults
# ---------------------------------------------------------------------------

# WKB decay exponent int sqrt(U - E_top) dx at each domain edge: the top
# level's amplitude there is about e^-16 ~ 1e-7 of its peak, inside the
# oracle's 1e-6 boundary check, and its eigenvalue moves by about e^-32.
WKB_EXPONENT = 16.0


def _wkb_edge(u, x0, direction):
    """The point on the side of x0 given by direction (+1 or -1) where
    int sqrt(max(u, 0)) taken outward from x0 first reaches WKB_EXPONENT,
    rounded outward to a multiple of 1/8 (so the domain holds for h and 2h).
    u is U - E_top along the grid axis and x0 lies in the classically allowed
    region, so the integral starts at the turning point."""
    step = direction / 64.0
    total, x = 0.0, x0
    for _ in range(64):  # 256 length units at most
        xs = x + step * np.arange(1, 257)
        cum = total + abs(step) * np.cumsum(np.sqrt(np.maximum(u(xs), 0.0)))
        if cum[-1] >= WKB_EXPONENT:
            edge = float(xs[np.argmax(cum >= WKB_EXPONENT)])
            return (math.floor if direction < 0 else math.ceil)(edge * 8.0) / 8.0
        total, x = float(cum[-1]), float(xs[-1])
    raise UnsupportedStructureError(
        "the top level does not decay by e^-%g within 256 length units of the "
        "well; no oracle grid" % WKB_EXPONENT)


def default_grid(model, n_levels=None):
    """Grid-oracle settings (x_min, x_max, h, k) for verifying the model's
    closed-form levels: the k lowest grid levels, h = 1/32 (1/16 for
    Rosen-Morse), and each edge where the WKB exponent of the top level
    reaches WKB_EXPONENT.  For the oscillator with an inverse-square term the
    edges and h are in t = ln x (grid_solve's Langer grid)."""
    if isinstance(model, HarmonicOscillator):
        k = 2 * (n_levels or 4)  # both parities share the grid
        eps_top = spectrum(HarmonicOscillator(model.a, "odd"), k // 2).levels[-1].epsilon
        x_max = _wkb_edge(lambda x: potential_eval(model, x) - eps_top, 0.0, 1)
        return (-x_max, x_max, 1.0 / 32.0, k)
    if isinstance(model, OscillatorInverseSquare):
        if model.branch == "-":
            raise UnsupportedStructureError(
                "the grid oracle imposes the regular x^(1/2+nu) behaviour at the "
                "wall, so it cannot verify the minus branch nu = -sqrt(b + 1/4)")
        k = n_levels or 3
        eps_top = spectrum(model, n_levels=k).levels[-1].epsilon

        def g(t):  # x^2 (U - E_top) + 1/4 at x = e^t
            x = np.exp(t)
            return x * x * (potential_eval(model, x) - eps_top) + 0.25

        t0 = 0.5 * math.log(eps_top / (2.0 * model.a))  # bottom of g
        return (math.exp(_wkb_edge(g, t0, -1)), math.exp(_wkb_edge(g, t0, 1)),
                1.0 / 32.0, k)
    if isinstance(model, (GeneralizedMorse, RosenMorse)):
        res = spectrum(model)
        if not res.levels:
            raise UnsupportedStructureError("no bound levels to verify")
        eps_top = res.levels[-1].epsilon
        # x0 at the bottom of the well (bound levels need B > 0 for Morse,
        # B < 0 for Rosen-Morse); a Rosen-Morse potential without an interior
        # minimum is monotone, and its edge search reports the missing decay
        if isinstance(model, GeneralizedMorse):
            x0, h = -math.log(-model.A / (2.0 * model.B)), 1.0 / 32.0
        else:
            y0 = -model.A / (2.0 * model.B)
            x0, h = (math.atanh(y0) if abs(y0) < 1.0 else 0.0), 1.0 / 16.0

        def u(x):
            return potential_eval(model, x) - eps_top

        return (_wkb_edge(u, x0, -1), _wkb_edge(u, x0, 1), h, len(res.levels))
    raise UnsupportedStructureError("no oracle defaults for %r" % (model,))
