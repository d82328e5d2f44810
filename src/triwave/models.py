"""The four solvable potential families and their closed-form solutions.

All energies are dimensionless (E0 = hbar^2 lam^2 / 2m units, lam absorbed,
so V(x) below means V/E0 at lam = 1).  The families:

* HarmonicOscillator:           V = a x^2                     (a = 1 solvable)
* OscillatorInverseSquare:      V = a x^2 + b / x^2           (b > -1/4, b != 0)
* SupercriticalInverseSquare:   V = x^2 + b / x^2             (b <= -1/4)
* GeneralizedMorse:             V = A e^{-x} + B e^{-2x}
* RosenMorse:                   V = A - A tanh x + B / cosh^2 x

Each model class states its own rules as methods (see _Model); the module
functions below call them and test no model types.  Expansion coefficients
come from the recursion engine in operators; the closed-form polynomial
routes (Pollaczek, continuous dual Hahn) are exposed separately as
cross-checks.  Oscillator presentation uses hbar*omega = 2 E0.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import basis as basis_mod
from . import operators, oracle, orthopoly
from .exceptions import (
    DomainError,
    EvaluationOverflowError,
    ParameterDomainError,
    SingularParameterError,
    UnsupportedStructureError,
    require_degree,
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

# ---------------------------------------------------------------------------
# Model types
# ---------------------------------------------------------------------------

class _Model:
    """Defaults of the rules every model states: potential, spectrum, recursion,
    closed_form, oracle_grid (default_grid before h is fitted), oracle_model and
    oracle_levels (whose grid levels are its own), jmatrix_potential, half_line,
    parity_sign."""

    half_line = False  # a wall at x = 0: series on x > 0, Langer oracle grid
    oracle_levels = slice(None)

    def closed_form(self, epsilon, N):
        return None

    @property
    def oracle_model(self):
        return self

    def parity_sign(self, x):
        return 1.0


class _Pollaczek(_Model):
    """The oscillator-map Pollaczek route, with and without b / x^2."""

    def spectrum(self, n_levels):
        if not _diagonal_limit(self.a - 1.0):
            raise ParameterDomainError(
                "the diagonal closed form needs a = 1 (got a = %.15g)" % self.a)
        return SpectrumResult(levels=[Level(n=n, epsilon=2.0 * (2 * n + self.nu + 1.0), nu=self.nu)
                                      for n in range(n_levels)])

    def recursion(self, epsilon):
        return operators.build_oscillator_pollaczek(self.nu, self.a), basis_mod.oscillator_map()

    def closed_form(self, epsilon, N):
        """P_n^mu_p((a+1)/(a-1); -eps/4, eps/4), mu_p = (nu+1)/2."""
        if _diagonal_limit(self.a - 1.0):
            return None
        return _pollaczek_route(0.5 * (self.nu + 1.0), -epsilon / 4.0, epsilon / 4.0,
                                (self.a + 1.0) / (self.a - 1.0), N)


class _InverseSquare(_Model):
    """V = a x^2 + b / x^2, with its wall at x = 0."""

    half_line = True

    def potential(self, x):
        if np.any(x == 0.0):
            raise DomainError("inverse-square potential is singular at x = 0")
        return self.a * x * x + self.b / (x * x)

    def jmatrix_potential(self):
        return "oscillator", self.a, self.b


@dataclass(frozen=True)
class HarmonicOscillator(_Pollaczek):
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

    def potential(self, x):
        return self.a * x * x

    def jmatrix_potential(self):
        return "oscillator", self.a, 0.0

    def parity_sign(self, x):
        if self.parity == "even":
            return 1.0
        return np.sign(x) if x.ndim else math.copysign(1.0, float(x))

    def oracle_grid(self, n_levels):
        k = 2 * (n_levels or 4)  # both parities share the even model's grid
        eps_top = spectrum(HarmonicOscillator(self.a, "odd"), k // 2).levels[-1].epsilon
        x_max = _wkb_edge(lambda x: potential_eval(self, x) - eps_top, 0.0, 1)
        return -x_max, x_max, 1.0 / 32.0, k

    @property
    def oracle_model(self):
        return HarmonicOscillator(self.a)

    @property
    def oracle_levels(self):
        return slice(0 if self.parity == "even" else 1, None, 2)


@dataclass(frozen=True)
class OscillatorInverseSquare(_Pollaczek, _InverseSquare):
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

    def oracle_grid(self, n_levels):  # edges and h in t = ln x
        if self.branch == "-":
            raise UnsupportedStructureError(
                "the grid oracle imposes the regular x^(1/2+nu) behaviour at the "
                "wall, so it cannot verify the minus branch nu = -sqrt(b + 1/4)")
        k = n_levels or 3
        eps_top = spectrum(self, n_levels=k).levels[-1].epsilon

        def g(t):  # x^2 (U - E_top) + 1/4 at x = e^t
            x = np.exp(t)
            return x * x * (potential_eval(self, x) - eps_top) + 0.25

        t0 = 0.5 * math.log(eps_top / (2.0 * self.a))  # bottom of g
        return math.exp(_wkb_edge(g, t0, -1)), math.exp(_wkb_edge(g, t0, 1)), 1.0 / 32.0, k


@dataclass(frozen=True)
class SupercriticalInverseSquare(_InverseSquare):
    """V = x^2 + b / x^2 with b <= -1/4 (fall-to-center regime).  nu, the free
    basis exponent of the dual-Hahn expansion route, has that basis's domain."""

    b: float
    nu: float = 0.0
    a = 1.0  # the oscillator strength is fixed

    def __post_init__(self):
        require_finite(self)
        if not self.b <= -0.25:
            raise ParameterDomainError("supercritical coupling needs b <= -1/4")
        basis_mod.oscillator_dual_hahn_basis(self.nu)  # refuses nu <= -1

    def spectrum(self, n_levels):
        return SpectrumResult(levels=[], notes=[
            "no diagonalization route exists for supercritical coupling; the "
            "dual-Hahn expansion covers the continuum representation only"])

    def recursion(self, epsilon):
        return operators.build_oscillator_dual_hahn(self.nu, self.b), basis_mod.oscillator_map()

    def closed_form(self, epsilon, N):
        if epsilon >= 2.0:
            return None  # dual-Hahn parameter (2-eps)/4 leaves the positive domain
        fam = orthopoly.DualHahnFamily(0.5 * (self.nu + 1.0),
                                       0.5 * (self.nu + 1.0), (2.0 - epsilon) / 4.0)
        return orthopoly.sequence(fam, N - 1, -(4.0 * self.b + 1.0) / 16.0)

    def oracle_grid(self, n_levels):
        raise UnsupportedStructureError("no oracle defaults for %r" % (self,))


@dataclass(frozen=True)
class GeneralizedMorse(_Model):
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

    def potential(self, x):
        return self.A * np.exp(-x) + self.B * np.exp(-2.0 * x)

    def spectrum(self, n_levels):
        """Every bound level, whatever n_levels."""
        if not _diagonal_limit(self.b - 0.25):
            raise ParameterDomainError(
                "Morse bound states need the diagonal limit b = B/mu_scale^2 = 1/4 "
                "(got b = %g); choose mu_scale = 2 sqrt(B)" % self.b)
        a = self.a
        count = morse_bound_count(a)
        alt = morse_alternative_bound_count(a)
        levels = [Level(n=n, epsilon=-(n + a + 0.5) ** 2, nu=-2.0 * (n + a + 0.5))
                  for n in range(count)]
        notes = []
        if alt != count:
            notes.append(
                "level-count discrepancy: normalizability (nu > 0) admits %d "
                "levels, the alternative closed-form bound floor(-2a-1/2) would "
                "admit %d; the grid oracle supports %d" % (count, alt, count))
        return SpectrumResult(levels=levels, notes=notes)

    def recursion(self, epsilon):
        if epsilon >= 0.0:
            raise DomainError("Morse expansion needs epsilon < 0 (nu = 2 sqrt(-eps))")
        return (operators.build_morse(self.a, self.b, 2.0 * math.sqrt(-epsilon)),
                basis_mod.morse_map(self.mu_scale))

    def closed_form(self, epsilon, N):
        """P_n^mu_p((b+1/4)/(b-1/4); a, -a), mu_p = (2 sqrt(-eps) + 1)/2."""
        if epsilon >= 0.0:
            raise DomainError("Morse expansion needs epsilon < 0")
        if _diagonal_limit(self.b - 0.25):
            return None
        return _pollaczek_route(0.5 * (2.0 * math.sqrt(-epsilon) + 1.0), self.a, -self.a,
                                (self.b + 0.25) / (self.b - 0.25), N)

    def oracle_grid(self, n_levels):
        # bound levels need B > 0, so the well's bottom exists
        return _well_grid(self, n_levels, 1.0 / 32.0,
                          lambda: -math.log(-self.A / (2.0 * self.B)))

    def jmatrix_potential(self):
        return "morse", self.a, self.b


@dataclass(frozen=True)
class RosenMorse(_Model):
    """V = A - A tanh x + B / cosh^2 x.  Bound levels exist for B <= 1/4."""

    A: float
    B: float

    def __post_init__(self):
        require_finite(self)

    def potential(self, x):
        return self.A * (1.0 - np.tanh(x)) + self.B / np.cosh(x) ** 2

    def spectrum(self, n_levels):
        if self.B > 0.25:
            raise ParameterDomainError("Rosen-Morse bound levels need B <= 1/4")
        levels = []
        for n in range(n_levels):
            sol = self._level(n)
            if sol is None:
                break
            mu_n, nu_n = sol
            levels.append(Level(
                n=n, epsilon=-mu_n * mu_n, nu=nu_n, mu=mu_n,
                epsilon_alt=rosen_morse_alt_energy(self.A, self.B, n)))
        notes = ["epsilon_alt is an alternative closed-form expression reported "
                 "for comparison; agreement with the level conditions is not "
                 "asserted (they disagree in general)"]
        return SpectrumResult(levels=levels, notes=notes)

    def _level(self, n):
        """(mu, nu) of level n, or None: the coupling condition fixes
        mu + nu = s = 2 sqrt(1/4 - B) - 2(n+1), and the diagonal condition in
        mu is bisected on (1e-12, sqrt(-U_min)), U_min the least
        U(y) = A(1-y) + B(1-y^2) on [-1, 1].  Needs mu > 0 and nu > -1."""
        A, B = self.A, self.B
        s = 2.0 * math.sqrt(0.25 - B) - 2.0 * (n + 1.0)
        t = 2 * n + s

        def residual(mu):
            nu = s - mu
            return 0.5 * (nu + mu + 1.0) * (nu - mu + 1.0) + 2.0 * n * (n + mu) / t - A

        # U at the ends y = 1 and y = -1, and at the vertex where it is inside
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

    def recursion(self, epsilon):
        if epsilon >= 0.0:
            raise DomainError("Rosen-Morse expansion needs epsilon < 0")
        if epsilon >= 2.0 * self.A:
            raise DomainError("epsilon must lie below the left continuum threshold 2A")
        # at a bound level the envelope exponents coincide with the level solve
        mu, nu = next(((lv.mu, lv.nu) for lv in spectrum(self, n_levels=32).levels
                       if abs(lv.epsilon - epsilon) <= 1e-9 * max(1.0, abs(epsilon))),
                      (math.sqrt(-epsilon), math.sqrt(2.0 * self.A - epsilon) - 1.0))
        return operators.build_rosen_morse(self.A, self.B, mu, nu), basis_mod.rosen_morse_map()

    def oracle_grid(self, n_levels):
        def bottom():  # 0 where U has no minimum; the edge search then refuses by name
            y0 = -self.A / (2.0 * self.B)
            return math.atanh(y0) if abs(y0) < 1.0 else 0.0

        return _well_grid(self, n_levels, 1.0 / 16.0, bottom)

    def jmatrix_potential(self):
        return "rosen_morse", self.A, self.B


@dataclass(frozen=True)
class Level:
    """Level n, its energy, the basis exponents that diagonalize it (mu:
    Jacobi only) and Rosen-Morse's alternative energy (never asserted)."""

    n: int
    epsilon: float
    nu: float
    mu: float = None
    epsilon_alt: float = None


@dataclass
class SpectrumResult:
    levels: list
    notes: list = field(default_factory=list)

    @property
    def epsilons(self):
        return np.array([lv.epsilon for lv in self.levels])


@dataclass
class WavefunctionSeries:
    """Truncated expansion sum_{n<N} f_n phi_n with its convergence record.
    The result is flagged unconverged rather than rejected when
    coeffs.tail_estimate, |f_{N-1}| relative to the running coefficient
    maximum, exceeds 1e-10 (hyperbolic-route coefficients may grow before
    decaying)."""

    spec: basis_mod.BasisSpec
    coeffs: operators.CoefficientSeries
    converged: bool


# ---------------------------------------------------------------------------
# Potentials, spectra and recursions
# ---------------------------------------------------------------------------

def potential_eval(model, x):
    """V(x) in E0 units (lam = 1)."""
    out = model.potential(np.asarray(x, dtype=float))
    return out if out.ndim else float(out)


def _diagonal_limit(coupling):
    """True where the off-diagonal coupling factor (a - 1 for the oscillator,
    b - 1/4 for Morse) counts as zero: the diagonal (bound-state) limit."""
    return abs(coupling) <= 1e-12


def morse_bound_count(a):
    """Number of Morse levels under the normalizability rule nu_n =
    -2(n + a + 1/2) > 0, i.e. levels with n < -a - 1/2.  ParameterDomainError
    unless a is finite."""
    if not math.isfinite(a):
        raise ParameterDomainError("a = %r must be finite" % a)
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
    the normalizability rule instead.  ParameterDomainError unless a is
    finite."""
    if not math.isfinite(a):
        raise ParameterDomainError("a = %r must be finite" % a)
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
    """Closed-form bound spectrum of the model (diagonalization route): each
    level is a parameter point where all couplings vanish and the diagonal
    vanishes at the level index.  The level rules are the model's.
    ParameterDomainError, naming n_levels, unless it is an integer >= 0."""
    return model.spectrum(require_degree("n_levels", n_levels))


def recursion_for(model, epsilon):
    """(recursion coefficients, basis spec, coordinate map) for the model at
    this energy; the spec is the one the builder attached to the recursion.
    For energy-dependent bases (Morse, Rosen-Morse) the basis parameters are
    derived from epsilon.  ParameterDomainError unless epsilon is finite."""
    if not math.isfinite(epsilon):
        raise ParameterDomainError("epsilon = %r must be finite" % epsilon)
    rc, cmap = model.recursion(epsilon)
    return rc, rc.spec, cmap


def closed_form_coefficients(model, epsilon, N):
    """d_0..d_{N-1} from the named polynomial solution of the model's
    recursion (Pollaczek for the oscillator and Morse, continuous dual Hahn
    for supercritical coupling), or None where no classical family applies
    (diagonal limits, the Rosen-Morse recursion, dual-Hahn parameters
    outside their domain)."""
    return model.closed_form(float(epsilon), N)


def _pollaczek_route(mu_p, p, q, ratio, N):
    """P_0..P_{N-1} of P_n^mu_p(ratio; p, q): the trigonometric family for
    |ratio| <= 1, the hyperbolic one for ratio > 1, and for ratio < -1 the
    mirror (-1)^n P_n^mu_p(-ratio; p, -q), which is exact because every
    recurrence step of the reflection P_n(-x; p, -q) = (-1)^n P_n(x; p, q)
    only flips signs."""
    if ratio < -1.0:
        return (-1.0) ** np.arange(N) * _pollaczek_route(mu_p, p, -q, -ratio, N)
    variant = "hyperbolic" if ratio > 1.0 else "trigonometric"
    return orthopoly.sequence(orthopoly.PollaczekFamily(mu_p, p, q, variant), N - 1, ratio)


# ---------------------------------------------------------------------------
# Wavefunctions
# ---------------------------------------------------------------------------

def wavefunction(model, epsilon, N, x):
    """Un-normalized Psi(x, epsilon) = sum_{n<N} f_n phi_n(y(x)) plus its
    series record.

    Half-line models (the inverse-square ones) evaluate on x > 0; the folded
    even representation extends to -x, and the harmonic oscillator's odd
    parity branch carries an explicit sign(x).  Unconverged tails flag the
    result instead of failing.  ParameterDomainError unless x is finite;
    EvaluationOverflowError, naming the first such x, where psi is not
    finite although every coefficient is.
    """
    rc, spec, cmap = recursion_for(model, epsilon)
    x_arr = np.asarray(x, dtype=float)
    finite = np.isfinite(x_arr)
    if not finite.all():
        raise ParameterDomainError("x = %r must be finite" % float(x_arr[~finite].flat[0]))
    series = operators.solve_recursion(rc, float(epsilon), N)
    if model.half_line and np.any(x_arr < 0.0):
        raise DomainError("inverse-square models evaluate on x > 0")
    # no warnings: an overflow here is refused below, or, where coefficients
    # are not finite, solve_recursion has already warned
    with np.errstate(over="ignore", invalid="ignore"):
        psi = basis_mod.series_eval(spec, series.f, cmap.to_y(x_arr), series.a_n)
    psi = psi * model.parity_sign(x_arr)
    bad = ~np.isfinite(psi)
    if bad.any() and np.isfinite(series.f).all():
        raise EvaluationOverflowError(
            "psi is not finite at x = %r (a basis function overflows there); "
            "move x inward" % float(x_arr[bad].flat[0]))
    record = WavefunctionSeries(spec=spec, coeffs=series,
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
    rounded outward to a multiple of 1/8 (so the domain holds for h and its
    halvings).  u is U - E_top along the grid axis and x0 lies in the
    classically allowed region, so the integral starts at the turning point."""
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


def _well_grid(model, n_levels, h, bottom):
    """(x_min, x_max, h, k) of a well's levels (n_levels, default 8, at most)
    with edges searched from bottom(), called once the well has levels."""
    res = spectrum(model, n_levels or 8)
    if not res.levels:
        raise UnsupportedStructureError("no bound levels to verify")
    eps_top, x0 = res.levels[-1].epsilon, bottom()
    x_min, x_max = (_wkb_edge(lambda x: potential_eval(model, x) - eps_top, x0, side)
                    for side in (-1, 1))
    return x_min, x_max, h, len(res.levels)


def default_grid(model, n_levels=None):
    """Grid-oracle settings (x_min, x_max, h, k) for verifying the model's
    closed-form levels: the k lowest levels of model.oracle_model, each edge
    where the WKB exponent of the top level reaches WKB_EXPONENT, and h = 1/32
    (1/16 for Rosen-Morse) halved until oracle.step_margin < STEP_BOUND.  With
    a wall at x = 0 (half_line) edges and h are in t = ln x (Langer grid)."""
    x_min, x_max, h, k = model.oracle_grid(n_levels)
    while oracle.step_margin(model.potential, x_min, x_max, h,
                             langer=model.half_line) >= oracle.STEP_BOUND:
        h /= 2.0
    return x_min, x_max, h, k
