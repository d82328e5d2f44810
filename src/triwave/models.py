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
    "SpectrumCheck",
    "WavefunctionSeries",
    "potential_eval",
    "spectrum",
    "check_spectrum",
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
    closed_form, oracle_grid(eps_top) (x_min, x_max and h for a top level at
    eps_top, before h is fitted), symmetry (the parity the oracle solves on
    the half line x >= 0, or None), jmatrix_potential, half_line, parity_sign."""

    half_line = False  # a wall at x = 0: series on x > 0, Langer oracle grid
    symmetry = None

    def closed_form(self, epsilon, N):
        return None

    def parity_sign(self, x):
        return 1.0


class _Pollaczek(_Model):
    """The oscillator-map Pollaczek route, with and without b / x^2."""

    def spectrum(self, n_levels):
        if not operators._diagonal_limit(self.a - 1.0):
            raise ParameterDomainError(
                "the diagonal closed form needs a = 1 (got a = %.15g)" % self.a)
        return SpectrumResult(levels=[Level(n=n, epsilon=2.0 * (2 * n + self.nu + 1.0), nu=self.nu)
                                      for n in range(n_levels)])

    def recursion(self, epsilon):
        return operators.build_oscillator_pollaczek(self.nu, self.a), basis_mod.oscillator_map()

    def closed_form(self, epsilon, N):
        """P_n^mu_p((a+1)/(a-1); -eps/4, eps/4), mu_p = (nu+1)/2."""
        if operators._diagonal_limit(self.a - 1.0):
            return None
        family = orthopoly.PollaczekFamily(0.5 * (self.nu + 1.0), -epsilon / 4.0, epsilon / 4.0)
        return orthopoly.sequence(family, N - 1, (self.a + 1.0) / (self.a - 1.0))


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

    @property
    def symmetry(self):
        return self.parity

    def oracle_grid(self, eps_top):  # its own parity on the half line x >= 0
        return 0.0, _wkb_edge(lambda x: potential_eval(self, x) - eps_top, 0.0, 1), 1.0 / 32.0


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

    def oracle_grid(self, eps_top):  # edges and h in t = ln x
        if self.branch == "-":
            raise UnsupportedStructureError(
                "the grid oracle imposes the regular x^(1/2+nu) behaviour at the "
                "wall, so it cannot verify the minus branch nu = -sqrt(b + 1/4)")

        def g(t):  # x^2 (U - E_top) + 1/4 at x = e^t
            x = np.exp(t)
            return x * x * (potential_eval(self, x) - eps_top) + 0.25

        t0 = 0.5 * math.log(eps_top / (2.0 * self.a))  # bottom of g
        return math.exp(_wkb_edge(g, t0, -1)), math.exp(_wkb_edge(g, t0, 1)), 1.0 / 32.0


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
            "no closed-form levels for supercritical coupling: V = x^2 + b/x^2 "
            "confines, but its levels depend on a self-adjoint extension at x = 0 "
            "that this model does not fix"])

    def recursion(self, epsilon):
        return operators.build_oscillator_dual_hahn(self.nu, self.b), basis_mod.oscillator_map()

    def closed_form(self, epsilon, N):
        if epsilon >= 2.0:
            return None  # dual-Hahn parameter (2-eps)/4 leaves the positive domain
        fam = orthopoly.DualHahnFamily(0.5 * (self.nu + 1.0),
                                       0.5 * (self.nu + 1.0), (2.0 - epsilon) / 4.0)
        return orthopoly.sequence(fam, N - 1, -(4.0 * self.b + 1.0) / 16.0)


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
        try:
            b = self.b
        except (OverflowError, ZeroDivisionError):  # mu_scale ** 2 leaves the float range
            b = math.inf
        if not (math.isfinite(self.a) and math.isfinite(b)):
            raise ParameterDomainError(
                "mu_scale = %g leaves a = A/mu_scale or b = B/mu_scale^2 outside the "
                "float range" % self.mu_scale)

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
        if not operators._diagonal_limit(self.b - 0.25):
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
        if operators._diagonal_limit(self.b - 0.25):
            return None
        family = orthopoly.PollaczekFamily(0.5 * (2.0 * math.sqrt(-epsilon) + 1.0),
                                           self.a, -self.a)
        return orthopoly.sequence(family, N - 1, (self.b + 0.25) / (self.b - 0.25))

    def oracle_grid(self, eps_top):
        # bound levels need B > 0, so the well's bottom exists
        return (*_well_edges(self, eps_top, -math.log(-self.A / (2.0 * self.B))), 1.0 / 32.0)

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
        """(mu, nu) of level n, or None.  The coupling condition fixes
        mu + nu = s = 2 sqrt(1/4 - B) - 2(n+1), so t = 2n + s does not depend
        on mu and the diagonal condition 0.5 (s+1)(s+1-2mu) + 2n(n+mu)/t = A
        is linear in mu.  Its root must lie in (0, sqrt(-U_min)], U_min the
        least U(y) = A(1-y) + B(1-y^2) on [-1, 1], with nu above -1 by more
        than 1e-12 (a root rounded onto nu = -1 is none); a condition with
        no slope in mu has no root."""
        A, B = self.A, self.B
        s = 2.0 * math.sqrt(0.25 - B) - 2.0 * (n + 1.0)
        t = 2 * n + s
        # U at the ends y = 1 and y = -1, and at the vertex where it is inside
        y0 = -A / (2.0 * B) if B != 0.0 else 1.0
        u_min = min(0.0, 2.0 * A,
                    A * (1.0 - y0) + B * (1.0 - y0 * y0) if -1.0 < y0 < 1.0 else 0.0)
        if u_min >= 0.0:
            return None
        if abs(t) < 1e-12:
            raise SingularParameterError("level condition singular (2n+mu+nu = 0)")
        slope = (s + 1.0) - 2.0 * n / t
        if slope == 0.0:
            return None
        mu = (0.5 * (s + 1.0) ** 2 + 2.0 * n * n / t - A) / slope
        nu = s - mu
        return (mu, nu) if 0.0 < mu <= math.sqrt(-u_min) and nu > -1.0 + 1e-12 else None

    def recursion(self, epsilon):
        if epsilon >= 0.0:
            raise DomainError("Rosen-Morse expansion needs epsilon < 0")
        if epsilon >= 2.0 * self.A:
            raise DomainError("epsilon must lie below the left continuum threshold 2A")
        # the envelope decays as e^(-mu x) at +inf and e^((nu+1) x) at -inf
        mu, nu = math.sqrt(-epsilon), math.sqrt(2.0 * self.A - epsilon) - 1.0
        return operators.build_rosen_morse(self.A, self.B, mu, nu), basis_mod.rosen_morse_map()

    def oracle_grid(self, eps_top):
        y0 = -self.A / (2.0 * self.B)  # bound levels need B != 0
        x0 = math.atanh(y0) if abs(y0) < 1.0 else 0.0  # no minimum: the edge search refuses
        return (*_well_edges(self, eps_top, x0), 1.0 / 16.0)

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


@dataclass(frozen=True)
class SpectrumCheck:
    """check_spectrum's record: the closed-form result, per level the grid
    oracle's value and rel_dev = |oracle - closed| / max(|closed|, 1e-30)
    (E0 units), and the rows and passes of the grid solve (None where there
    was no level to solve for)."""

    result: SpectrumResult
    oracle: np.ndarray
    rel_dev: np.ndarray
    rows: int = None
    passes: int = None

    @property
    def worst(self):
        """The largest rel_dev (0 with no levels), the number a verification
        gate compares with its tolerance."""
        return float(self.rel_dev.max(initial=0.0))


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


def morse_bound_count(a):
    """Number of Morse levels under the normalizability rule nu_n =
    -2(n + a + 1/2) > 0, i.e. levels with n < -a - 1/2.  ParameterDomainError
    unless a is finite."""
    if not math.isfinite(a):
        raise ParameterDomainError("a = %r must be finite" % a)
    limit = -a - 0.5
    if limit <= 0.0:
        return 0
    # n <= limit - 1e-12, so n < limit at integer boundaries; from limit =
    # 2^14 up the margin can round away, and ceil keeps the inequality strict
    below = limit - 1e-12
    return math.floor(below) + 1 if below < limit else math.ceil(limit)


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


def check_spectrum(model, n_levels):
    """spectrum(model, n_levels) checked against the independent grid
    oracle: one grid_solve on default_grid's grid for its k closed-form
    levels, whose k lowest eigenvalues pair with them in order.  With no
    closed-form level nothing is solved."""
    res = spectrum(model, n_levels)
    k = len(res.levels)
    if not k:
        return SpectrumCheck(result=res, oracle=np.empty(0), rel_dev=np.empty(0))
    sol = oracle.grid_solve(model.potential, *_fitted_grid(model, res.levels[-1].epsilon), k,
                            langer=model.half_line, symmetry=model.symmetry)
    ora, eps = sol.eigenvalues[:k], res.epsilons
    return SpectrumCheck(result=res, oracle=ora,
                         rel_dev=np.abs(ora - eps) / np.maximum(np.abs(eps), 1e-30),
                         rows=sol.x.size, passes=sol.passes)


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
    if model.half_line and np.any(x_arr < 0.0):
        raise DomainError("inverse-square models evaluate on x > 0")
    series = operators.solve_recursion(rc, float(epsilon), N)
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


def _well_edges(model, eps_top, x0):
    """(x_min, x_max) of a well with top level eps_top, searched from its bottom x0."""
    return tuple(_wkb_edge(lambda x: potential_eval(model, x) - eps_top, x0, side)
                 for side in (-1, 1))


def _fitted_grid(model, eps_top):
    """model.oracle_grid(eps_top) with h fitted as default_grid states."""
    x_min, x_max, h = model.oracle_grid(eps_top)
    while oracle.step_margin(model.potential, x_min, x_max, h, langer=model.half_line,
                             symmetry=model.symmetry) >= oracle.STEP_BOUND:
        h /= 2.0
    return x_min, x_max, h


def default_grid(model, n_levels):
    """Grid-oracle settings (x_min, x_max, h, k) with which check_spectrum
    verifies the k levels of spectrum(model, n_levels), refusing k = 0: of
    the model's own parity on the half line x >= 0 where it has a symmetry,
    each edge where the WKB exponent of the top level reaches WKB_EXPONENT,
    and h = 1/32 (1/16 for Rosen-Morse) halved until oracle.step_margin <
    STEP_BOUND on the rows grid_solve builds.  With a wall at x = 0
    (half_line) edges and h are in t = ln x (Langer grid)."""
    res = spectrum(model, n_levels)
    if not res.levels:
        raise UnsupportedStructureError("no bound levels to verify")
    return (*_fitted_grid(model, res.levels[-1].epsilon), len(res.levels))
