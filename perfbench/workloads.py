"""Seeded operation streams for the benchmark workloads, and the checks on
their outputs.

Each workload is an endless, deterministic stream of operations made from the
seed alone: the i-th operation of a seed is the same whatever the speed of
the program, so a faster program simply runs further along the stream.
Operation kinds repeat in fixed rounds, and every drawn parameter is
stratified (see _Draws), so any stretch of a run covers the parameter ranges
evenly and two seeds see the same mix.  That keeps the spread between seeds
small without fixing the inputs.

An operation is the program call(s) a user would make; the benchmark times
only those.  Its check runs afterwards, untimed, and may call the program's
own functions to rebuild a reference (the recursion coefficients for the
closed-form comparison, the level list for defect attribution).
"""

from __future__ import annotations

import contextlib
import functools
import io
import json
import math
import traceback
import warnings
import zlib
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from triwave import basis, cli, models, operators, oracle, orthopoly

# Gates: the repository's own thresholds (cli verify suites and tests).
ORACLE_GATE = 1e-3          # spectrum --verify default --tol
JMATRIX_GATE = 1e-8         # tridiagonality suite
ORTHOGONALITY_GATE = 1e-10  # orthogonality suite, Gauss rules and bases
POLLACZEK_GATE = 1e-5       # orthogonality suite, Pollaczek weight entries
RECURSION_GATE = 1e-9       # recursion-closed-form suite

_JSON_FLAGS = ["--format", "json", "--epoch", "0"]


@dataclass
class Outcome:
    """Result of checking one operation.

    error/gate is the gate ratio of a passing operation.  A failed operation
    names its reason, and defect names the documented defect class (see
    predictions.json) that explains it, or None when nothing does.
    """

    ok: bool
    error: float = 0.0
    gate: float = 1.0
    reason: str = ""
    defect: str | None = None

    @property
    def gate_ratio(self):
        return self.error / self.gate


@dataclass
class Op:
    """One operation: what it runs, with which inputs, and how to check it."""

    index: int
    kind: str
    params: dict
    run: Callable[[], object]
    check: Callable[[object], Outcome] = field(repr=False)


def clear_caches():
    """Every operation starts cold: a CLI invocation is a fresh process."""
    cli._grid_solve_cached.cache_clear()
    oracle._gauss_rule_cached.cache_clear()


def call_cli(argv):
    """Run triwave.cli.main in-process; returns (exit code, stdout, stderr).

    main is looked up on the module at call time so a traced run sees its
    wrapper.  An exception escaping main is what a user sees as a traceback;
    it becomes exit code -1 with the exception in stderr.  Resetting the
    warning filters forgets which warnings were already shown, so each call
    prints its warnings as a fresh process would.
    """
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err), \
            warnings.catch_warnings():
        warnings.simplefilter("default")
        try:
            code = cli.main(argv)
        except SystemExit as exc:  # argparse rejections
            code = exc.code if isinstance(exc.code, int) else 2
        except Exception:  # noqa: BLE001 - a traceback is a failure
            code = -1
            err.write(traceback.format_exc())
    return code, out.getvalue(), err.getvalue()


def fingerprint(value):
    """Bytes that compare equal exactly when two outputs (an array, or a CLI
    call's exit code, stdout and stderr) are identical."""
    if isinstance(value, np.ndarray):
        return value.dtype.str.encode() + repr(value.shape).encode() + value.tobytes()
    return repr(value).encode()


def _returning_exceptions(run):
    """run, with an exception it raises returned as its output.  The CLI
    operations never raise (see call_cli); for the in-process ones this makes
    one raising draw one failed operation instead of the end of the run."""
    def call():
        try:
            return run()
        except Exception as exc:  # noqa: BLE001 - a raise is a failure
            return exc
    return call


def _checking_exceptions(check):
    """check, failing an output that is an exception, and failing the
    operation when the check itself raises on the output.  Neither matches
    a documented defect."""
    def call(result):
        if isinstance(result, Exception):
            return _fail("raised %s: %s" % (type(result).__name__, result))
        try:
            return check(result)
        except Exception as exc:  # noqa: BLE001 - e.g. malformed output
            return _fail("check raised %s: %s" % (type(exc).__name__, exc))
    return call


class _Draws:
    """Stratified parameter draws for one operation kind.

    Each named parameter cuts (0, 1) into strata and visits every stratum
    once per block, at a seeded point inside it; integer parameters get one
    stratum per value.  The order of the strata is fixed by the parameter's
    name, not by the seed, so the i-th operation of every seed falls in the
    same strata: runs of different seeds see the same mix in the same order,
    and a run that covers only part of a block is not skewed by its seed.
    """

    def __init__(self, rng):
        self._rng = rng
        self._orders = {}
        self._pending = {}

    def _stratum(self, name, strata):
        pending = self._pending.setdefault(name, [])
        if not pending:
            order = self._orders.setdefault(
                name, np.random.default_rng(zlib.crc32(name.encode())))
            pending.extend(int(k) for k in order.permutation(strata))
        return pending.pop()

    def between(self, name, edges):
        """A value in one of the strata edges[k]..edges[k+1]."""
        k = self._stratum(name, len(edges) - 1)
        return edges[k] + (edges[k + 1] - edges[k]) * float(self._rng.random())

    def uniform(self, name, lo, hi):
        return self.between(name, np.linspace(lo, hi, 5))

    def integer(self, name, lo, hi):
        """Integer in [lo, hi]."""
        return lo + self._stratum(name, hi - lo + 1)


def _f(x):
    return repr(float(x))


def _fail(reason, defect=None):
    return Outcome(ok=False, reason=reason, defect=defect)


# ---------------------------------------------------------------------------
# oracle: spectrum --verify through the CLI
# ---------------------------------------------------------------------------

def rosen_morse_true_levels(A, B):
    """Bound levels of V = A - A tanh x + B / cosh^2 x from the standard
    Rosen-Morse II closed form (Cooper, Khare and Sukhatme, Phys. Rep. 251,
    1995): E_n = A - (s-n)^2 - A^2 / (4 (s-n)^2) for n < s - sqrt(|A|/2),
    with s = sqrt(1/4 - B) - 1/2.  Independent of the program."""
    s = math.sqrt(0.25 - B) - 0.5
    r = math.sqrt(abs(A) / 2.0)
    levels = []
    n = 0
    while n < s - r:
        q = s - n
        levels.append(A - q * q - A * A / (4.0 * q * q))
        n += 1
    return levels


# The symptoms of roadmap-3 on spectrum --verify: (exit code, text of the
# message).  A Rosen-Morse failure with any other symptom is unexplained.
_ROADMAP_3_SYMPTOMS = ((2, "verification failed"),  # a wrong excited level
                       (1, "boundary amplitude"),   # a spurious level near threshold
                       (0, "levels, expected"))     # a missing level


def _rosen_morse_defect(A, B, code, message):
    """'roadmap-3' when the failure shows one of the roadmap-3 symptoms and
    the program's Rosen-Morse levels above the ground state disagree with the
    closed form (count or any energy past 1e-3)."""
    if not any(code == c and text in message for c, text in _ROADMAP_3_SYMPTOMS):
        return None
    want = rosen_morse_true_levels(A, B)
    got = models.spectrum(models.RosenMorse(A=A, B=B), n_levels=8).epsilons
    if len(got) != len(want):
        return "roadmap-3"
    if any(abs(g - w) > ORACLE_GATE * abs(w) for g, w in zip(got[1:], want[1:])):
        return "roadmap-3"
    return None


def _osc_wall_defect(b, code, message):
    """'osc-wall-grid' where the default oracle grid for osc-inv-sq cannot
    verify the levels: below b = 0.5 the x^(1/2+nu) wall behaviour at
    x_min = 4h misses the 1e-3 gate (exit 2, verification failed), and from
    b = 2.5 the first interior point x = 5h breaks h^2 max|U| < 0.1
    (b/25 >= 0.1; exit 1 with that message)."""
    if b < 0.5 and code == 2 and "verification failed" in message:
        return "osc-wall-grid"
    if b >= 2.5 and code == 1 and "h^2 max|U|" in message:
        return "osc-wall-grid"
    return None


def _no_defect(code, message):
    return None


def _check_spectrum(expected_count, defect_of):
    """defect_of(exit code, message) names the documented defect whose
    symptom a failure shows, or None."""
    def check(result):
        code, out, err = result
        if code != 0:
            return _fail("exit %d: %s" % (code, err.strip()[:160]), defect_of(code, err))
        rows = json.loads(out)["rows"]
        if len(rows) != expected_count:
            reason = "%d levels, expected %d" % (len(rows), expected_count)
            return _fail(reason, defect_of(code, reason))
        worst = 0.0
        for row in rows:
            eps, ora = row[1], row[5]
            if eps is None or ora is None or not (math.isfinite(eps) and math.isfinite(ora)):
                return _fail("non-finite level")
            worst = max(worst, abs(ora - eps) / max(abs(eps), 1e-30))
        if not worst <= ORACLE_GATE:  # NaN fails too
            return _fail("oracle deviation %.3g" % worst)
        return Outcome(ok=True, error=worst, gate=ORACLE_GATE)
    return check


_SPECTRUM = ["spectrum", "--verify"] + _JSON_FLAGS


def _osc_spectrum(b, levels):
    """(params, argv, check) of spectrum --verify for osc-inv-sq at a = 1."""
    argv = _SPECTRUM + ["--model", "osc-inv-sq", "--a", "1", "--b", _f(b),
                        "--levels", str(levels)]
    return ({"b": b, "levels": levels}, argv,
            _check_spectrum(levels, functools.partial(_osc_wall_defect, b)))


def _rosen_morse_spectrum(A, B):
    """(params, argv, check) of spectrum --verify for Rosen-Morse, checked
    against the closed-form level count."""
    count = len(rosen_morse_true_levels(A, B))
    argv = _SPECTRUM + ["--model", "rosen-morse", "--A", _f(A), "--B", _f(B),
                        "--levels", "4"]
    return ({"A": A, "B": B, "levels": count}, argv,
            _check_spectrum(count, functools.partial(_rosen_morse_defect, A, B)))


def _oracle_argv(kind, d):
    """(params, argv, check) of one spectrum --verify operation."""
    if kind in ("ho-even", "ho-odd"):
        levels = d.integer("levels", 1, 4)
        params = {"parity": kind[3:], "levels": levels}
        argv = _SPECTRUM + ["--model", "ho", "--a", "1", "--parity", kind[3:],
                            "--levels", str(levels)]
        return params, argv, _check_spectrum(levels, _no_defect)
    if kind == "osc-inv-sq":
        # b stays in [0.5, 2.45]: outside it the default oracle grid cannot
        # verify the model (osc-wall-grid, left to a known-defect probe)
        return _osc_spectrum(d.uniform("b", 0.5, 2.45), d.integer("levels", 1, 3))
    if kind == "morse":
        # mu_scale = 2 sqrt(B) puts the model on its diagonal limit b = 1/4;
        # a = A / mu_scale in (-L-1/2, -L+1/2) gives L levels, and the top
        # level's decay rate 1 - u stays in [0.5, 0.85] so the grid keeps
        # to a few thousand rows.
        count = d.integer("levels", 1, 5)
        B = d.uniform("B", 0.5, 4.0)
        mu_scale = 2.0 * math.sqrt(B)
        a = -count - 0.5 + d.uniform("u", 0.15, 0.5)
        params = {"A": a * mu_scale, "B": B, "mu_scale": mu_scale, "levels": count}
        argv = _SPECTRUM + ["--model", "morse", "--A", _f(a * mu_scale), "--B", _f(B),
                            "--mu-scale", _f(mu_scale)]
        return params, argv, _check_spectrum(count, _no_defect)
    if kind == "rosen-morse":
        # s - sqrt(A/2) = u in (0.4, 0.9) gives one true level, kept away from
        # the threshold.  With two or more the program's excited levels are
        # wrong, and from A of about 1.2 it adds a spurious level 1 just under
        # the threshold (roadmap-3, left to a known-defect probe), so A stays
        # at or below 1.
        A = d.uniform("A", 0.2, 1.0)
        s = math.sqrt(A / 2.0) + d.uniform("u", 0.4, 0.9)
        return _rosen_morse_spectrum(A, 0.25 - (s + 0.5) ** 2)
    raise ValueError(kind)


def _cli_op(params, argv, check):
    """(params, run, check) of a CLI operation from its argv."""
    return params, (lambda: call_cli(argv)), check


def _oracle_op(kind, d):
    return _cli_op(*_oracle_argv(kind, d))


ORACLE_KINDS = ("ho-even", "ho-odd", "osc-inv-sq", "morse", "rosen-morse")


# ---------------------------------------------------------------------------
# quadrature: jmatrix --numeric, Gauss-rule and basis Gram checks, Pollaczek
# weight entries
# ---------------------------------------------------------------------------

def _check_jmatrix(result):
    code, out, err = result
    if code != 0:
        return _fail("exit %d: %s" % (code, err.strip()[:160]))
    lines = out.splitlines()[1:]
    analytic = np.array([float(line.split(",")[2]) for line in lines])
    numeric = np.array([float(line.split(",")[3]) for line in lines])
    if not (np.all(np.isfinite(analytic)) and np.all(np.isfinite(numeric))):
        return _fail("non-finite J-matrix entry")
    dev = float(np.max(np.abs(numeric - analytic)) / np.max(np.abs(numeric)))
    if not dev <= JMATRIX_GATE:
        return _fail("numeric/analytic deviation %.3g" % dev)
    return Outcome(ok=True, error=dev, gate=JMATRIX_GATE)


def _jmatrix_op(d):
    case = ("osc-pollaczek", "osc-dual-hahn", "morse", "rosen-morse")[
        d.integer("case", 0, 3)]
    size = d.integer("size", 8, 24)
    if case == "osc-pollaczek":
        b = d.uniform("b", -0.2, 3.0)
        model = ["--model", "osc-inv-sq", "--a", _f(d.uniform("a", 0.5, 3.0)),
                 "--b", _f(b if abs(b) > 1e-2 else 0.5)]
        eps = d.uniform("eps", -2.0, 6.0)
    elif case == "osc-dual-hahn":
        model = ["--model", "osc-inv-sq-super", "--b", _f(d.uniform("b", -2.0, -0.25)),
                 "--nu", _f(d.uniform("nu", 0.0, 1.5))]
        eps = d.uniform("eps", -2.0, 3.0)
    elif case == "morse":
        model = ["--model", "morse", "--A", _f(d.uniform("A", -6.0, 6.0)),
                 "--B", _f(d.uniform("B", -4.0, 4.0)), "--mu-scale", "2"]
        eps = -d.uniform("eps", 0.1, 3.0)
    else:
        model = ["--model", "rosen-morse", "--A", _f(d.uniform("A", 0.2, 2.0)),
                 "--B", _f(d.uniform("B", -4.0, 0.2))]
        eps = -d.uniform("eps", 0.1, 3.0)
    argv = ["jmatrix", "--numeric", "--size", str(size), "--epsilon", _f(eps)] + model
    params = {"case": case, "size": size, "argv": argv}
    return params, (lambda: call_cli(argv)), _check_jmatrix


def _laguerre_norms(nu, nmax):
    return np.array([math.exp(math.lgamma(n + nu + 1.0) - math.lgamma(n + 1.0))
                     for n in range(nmax + 1)])


def _jacobi_norms(a, b, nmax):
    s = a + b

    def log_head(n):  # log((2n+s+1) Gamma(n+s+1)), = log Gamma(s+2) at n = 0
        if n == 0:
            return math.lgamma(s + 2.0)
        return math.log(2 * n + s + 1.0) + math.lgamma(n + s + 1.0)

    return np.array([math.exp((s + 1.0) * math.log(2.0) + math.lgamma(n + a + 1.0)
                              + math.lgamma(n + b + 1.0) - math.lgamma(n + 1.0)
                              - log_head(n))
                     for n in range(nmax + 1)])


_GRAM_DEGREE = 12  # as in the orthogonality suite


def _gram_check(reference):
    """Check a Gram matrix against diag(reference) after normalization."""
    def check(gram):
        if not np.all(np.isfinite(gram)):
            return _fail("non-finite Gram entry")
        h = np.sqrt(np.outer(reference, reference))
        dev = float(np.max(np.abs(gram / h - np.eye(len(reference)))))
        if not dev <= ORTHOGONALITY_GATE:
            return _fail("orthogonality deviation %.3g" % dev)
        return Outcome(ok=True, error=dev, gate=ORTHOGONALITY_GATE)
    return check


def _gauss_op(d):
    nodes = d.integer("nodes", 16, 64)
    if d.integer("weight", 0, 1) == 0:
        nu = d.uniform("nu", -0.9, 4.0)
        weight, fam = ("laguerre", nu), orthopoly.LaguerreFamily(nu)
        seq_fn, ref = orthopoly.laguerre_sequence, _laguerre_norms(nu, _GRAM_DEGREE)
    else:
        a, b = d.uniform("a", -0.9, 3.0), d.uniform("b", -0.9, 3.0)
        weight, fam = ("jacobi", a, b), orthopoly.JacobiFamily(a, b)
        seq_fn, ref = orthopoly.jacobi_sequence, _jacobi_norms(a, b, _GRAM_DEGREE)

    def run():
        rule = oracle.gauss_rule(weight, nodes)
        seq = seq_fn(fam, _GRAM_DEGREE, rule.nodes)
        return (seq * rule.weights) @ seq.T

    return {"weight": list(weight), "nodes": nodes}, run, _gram_check(ref)


def _overlap_op(d):
    case = ("osc-pollaczek", "osc-dual-hahn", "morse", "rosen-morse")[
        d.integer("case", 0, 3)]
    nmax = d.integer("nmax", 14, 30)
    if case == "osc-pollaczek":
        nu = d.uniform("nu", -0.45, 2.5)
        spec, cmap, extra = basis.oscillator_pollaczek_basis(nu), basis.oscillator_map(), None
        params = {"nu": nu}
    elif case == "osc-dual-hahn":
        nu = d.uniform("nu", -0.45, 2.5)
        spec, cmap, extra = basis.oscillator_dual_hahn_basis(nu), basis.oscillator_map(), "1/y"
        params = {"nu": nu}
    elif case == "morse":
        nu, mu_scale = d.uniform("nu", 0.1, 4.0), d.uniform("mu_scale", 0.5, 4.0)
        spec, cmap, extra = basis.morse_basis(nu), basis.morse_map(mu_scale), "y"
        params = {"nu": nu, "mu_scale": mu_scale}
    else:
        mu, nu = d.uniform("mu", 0.1, 3.0), d.uniform("rm_nu", 0.1, 3.0)
        spec, cmap, extra = basis.rosen_morse_basis(mu, nu), basis.rosen_morse_map(), "1-y"
        params = {"mu": mu, "nu": nu}
    params.update(case=case, nmax=nmax)

    def run():
        return basis.overlap_matrix(spec, cmap, nmax, extra=extra)

    return params, run, _gram_check(np.ones(nmax + 1))


_POLLACZEK_DEGREE = 3  # entries 0 <= m <= n <= 3, as in the orthogonality suite

# adaptive_quad tolerance of the timed Pollaczek operations.  At the
# orthogonality suite's 1e-7 a rare operation meets the
# adaptive-quad-early-accept defect, whose rate falls with the tolerance;
# 1e-9 keeps the timed mix clear of it at three times the cost.
POLLACZEK_TOL = 1e-9
# A Pollaczek weight on which adaptive_quad at tol 1e-7 accepts entry (1, 1)
# as 5.18036 with error estimate 4e-8, where the integral is 5.18243.
_EARLY_ACCEPT = (1.9136534545663646, 0.6687256574122785, 0.4409535238890209)


def _pollaczek_op(d):
    mu, a = d.uniform("mu", 0.5, 2.0), d.uniform("a", 0.5, 2.0)
    return _pollaczek_call(mu, a, a * d.uniform("b", -0.9, 0.9), POLLACZEK_TOL)


def _pollaczek_call(mu, a, b, tol):
    """(params, run, check) of the Pollaczek weight's Gram matrix, entries
    m <= n integrated by adaptive_quad at tol and mirrored."""
    fam = orthopoly.PollaczekFamily(mu, a, b)

    def gram(tol):
        def entry(n, m):
            def f(th):
                x = np.cos(th)
                seq = orthopoly.pollaczek_sequence(fam, _POLLACZEK_DEGREE, x)
                return orthopoly.weight_eval(fam, x) * seq[n] * seq[m] * np.sin(th)
            return oracle.adaptive_quad(f, 1e-6, math.pi - 1e-6, tol=tol)[0]
        lower = np.array([[entry(n, m) if m <= n else 0.0
                           for m in range(_POLLACZEK_DEGREE + 1)]
                          for n in range(_POLLACZEK_DEGREE + 1)])
        return lower + np.tril(lower, -1).T

    ref = np.diag([math.exp(math.lgamma(n + 2.0 * mu) - math.lgamma(n + 1.0))
                   / (n + mu + a) for n in range(_POLLACZEK_DEGREE + 1)])

    def check(result):
        if not np.all(np.isfinite(result)):
            return _fail("non-finite weight integral")
        dev = float(np.max(np.abs(result - ref)))
        if not dev <= POLLACZEK_GATE:
            # the integrand is right when a tight tolerance meets the gate:
            # adaptive_quad accepted a panel whose error it underestimated
            tight = float(np.max(np.abs(gram(1e-10) - ref)))
            defect = "adaptive-quad-early-accept" if tight <= POLLACZEK_GATE else None
            return _fail("Pollaczek weight deviation %.3g" % dev, defect)
        return Outcome(ok=True, error=dev, gate=POLLACZEK_GATE)

    return {"mu": mu, "a": a, "b": b, "tol": tol}, (lambda: gram(tol)), check


# jmatrix twice per round: the four kinds' costs barely overlap, and with
# equal shares the median would sit in the gap between two of them.
QUADRATURE_KINDS = ("jmatrix", "jmatrix", "gauss", "overlap", "pollaczek")
_QUADRATURE_BUILDERS = {"jmatrix": _jmatrix_op, "gauss": _gauss_op,
                        "overlap": _overlap_op, "pollaczek": _pollaczek_op}


def _quadrature_op(kind, d):
    return _QUADRATURE_BUILDERS[kind](d)


# ---------------------------------------------------------------------------
# series: wavefunction --format csv through the CLI
# ---------------------------------------------------------------------------

def _hyperbolic(model):
    """True on the hyperbolic Pollaczek routes (ROADMAP item 4)."""
    if isinstance(model, (models.HarmonicOscillator, models.OscillatorInverseSquare)):
        return model.a > 0.0 and model.a != 1.0
    if isinstance(model, models.GeneralizedMorse):
        return model.b > 0.0 and model.b != 0.25
    return False


def _series_model(kind, d):
    """(model, CLI flags, epsilon, x range) for one series operation."""
    route = d.integer("route", 0, 2)
    if kind in ("ho", "osc-inv-sq"):
        # trigonometric (a < 0), mirrored hyperbolic (0 < a < 1), hyperbolic (a > 1)
        a = d.uniform("a", *((-3.0, -0.2), (0.2, 0.8), (1.2, 3.0))[route])
        eps = d.uniform("eps", 0.5, 8.0)
        if kind == "ho":
            parity = ("even", "odd")[d.integer("parity", 0, 1)]
            return (models.HarmonicOscillator(a=a, parity=parity),
                    ["--model", "ho", "--a", _f(a), "--parity", parity], eps, (-5.0, 5.0))
        b = d.uniform("b", -0.2, 3.0)
        b = b if abs(b) > 1e-2 else 0.5
        return (models.OscillatorInverseSquare(a=a, b=b),
                ["--model", "osc-inv-sq", "--a", _f(a), "--b", _f(b)], eps, (0.05, 5.0))
    if kind == "osc-inv-sq-super":
        b, nu = d.uniform("b", -2.0, -0.3), d.uniform("nu", 0.0, 1.5)
        eps = d.uniform("eps", -3.0, 1.8)
        return (models.SupercriticalInverseSquare(b=b, nu=nu),
                ["--model", "osc-inv-sq-super", "--b", _f(b), "--nu", _f(nu)],
                eps, (0.05, 5.0))
    if kind == "morse":
        # b = B/4 < 0 (trigonometric), 0 < b < 1/4 (mirrored), b > 1/4 (hyperbolic)
        bm = d.uniform("b", *((-2.0, -0.1), (0.02, 0.23), (0.3, 2.0))[route])
        A = d.uniform("A", -6.0, 6.0)
        eps = -d.uniform("eps", 0.1, 3.0)
        return (models.GeneralizedMorse(A=A, B=4.0 * bm, mu_scale=2.0),
                ["--model", "morse", "--A", _f(A), "--B", _f(4.0 * bm), "--mu-scale", "2"],
                eps, (-2.0, 8.0))
    if kind == "rosen-morse":
        A, B = d.uniform("A", 0.2, 2.0), d.uniform("B", -4.0, 0.2)
        eps = -d.uniform("eps", 0.1, 3.0)
        return (models.RosenMorse(A=A, B=B),
                ["--model", "rosen-morse", "--A", _f(A), "--B", _f(B)], eps, (-6.0, 6.0))
    raise ValueError(kind)


def _series_op(kind, d):
    model, flags, eps, x_range = _series_model(kind, d)
    # The hyperbolic routes keep N <= 120: from N of about 180 (Morse with b
    # just under 1/4) they overflow (roadmap-4, left to a known-defect probe).
    if _hyperbolic(model):
        N = d.integer("N_hyperbolic", 60, 120)
    else:
        N = d.integer("N", 100, 1000)
    return _series_call(model, flags, eps, x_range, N, d.integer("samples", 1001, 4001))


def _series_call(model, flags, eps, x_range, N, samples):
    """(params, run, check) of one wavefunction --format csv operation."""
    x_min, x_max = x_range
    argv = (["wavefunction", "--epsilon", _f(eps), "-N", str(N), "--samples", str(samples),
             "--x-min", _f(x_min), "--x-max", _f(x_max)] + flags)
    # roadmap-4's symptom: exit 0 on a hyperbolic route with a value
    # overflowed to non-finite, in the wavefunction or tail estimate or in the
    # recursion or closed-form coefficients (one step short of a NaN
    # wavefunction, these overflow while psi is still finite but near 1e300)
    overflow_defect = "roadmap-4" if _hyperbolic(model) else None

    def check(result):
        code, out, err = result
        if code != 0:
            return _fail("exit %d: %s" % (code, err.strip()[:160]))
        cols = [line.split(",") for line in out.splitlines()[1:]]
        if len(cols) != samples:
            return _fail("%d rows, expected %d" % (len(cols), samples))
        psi = np.array([float(c[1]) for c in cols])
        tail = float(cols[0][2])
        if not (np.all(np.isfinite(psi)) and math.isfinite(tail)):
            return _fail("non-finite wavefunction", overflow_defect)
        cf = models.closed_form_coefficients(model, eps, N)
        if cf is None:
            return Outcome(ok=True, error=0.0, gate=RECURSION_GATE)
        rc, _, _ = models.recursion_for(model, eps)
        dseq = operators.solve_recursion(rc, eps, N).d
        if not (np.all(np.isfinite(dseq)) and np.all(np.isfinite(cf))):
            return _fail("non-finite recursion coefficients", overflow_defect)
        dev = float(np.max(np.abs(dseq - cf)) / np.max(np.abs(cf)))
        if not dev <= RECURSION_GATE:
            return _fail("recursion/closed-form deviation %.3g" % dev)
        return Outcome(ok=True, error=dev, gate=RECURSION_GATE)

    params = {"argv": argv, "hyperbolic": _hyperbolic(model)}
    return params, (lambda: call_cli(argv)), check


SERIES_KINDS = ("ho", "osc-inv-sq", "osc-inv-sq-super", "morse", "rosen-morse")

WORKLOADS = {
    "oracle": (ORACLE_KINDS, _oracle_op),
    "quadrature": (QUADRATURE_KINDS, _quadrature_op),
    "series": (SERIES_KINDS, _series_op),
}


# ---------------------------------------------------------------------------
# known defects: one fixed input each, outside the timed mix
# ---------------------------------------------------------------------------

_PROBES = {
    "oracle": [
        # ROADMAP item 3's own example: levels -3.0625 and -0.2501, the
        # program gives -1.5625 for the second
        ("roadmap-3", lambda: _cli_op(*_rosen_morse_spectrum(1.0, -6.0))),
        ("osc-wall-grid", lambda: _cli_op(*_osc_spectrum(0.3, 1))),
        ("osc-wall-grid", lambda: _cli_op(*_osc_spectrum(2.7, 1))),
    ],
    "quadrature": [
        ("adaptive-quad-early-accept", lambda: _pollaczek_call(*_EARLY_ACCEPT, tol=1e-7)),
    ],
    "series": [
        # ROADMAP item 4's own example: 598 NaN coefficients at N = 1000
        ("roadmap-4", lambda: _series_call(
            models.OscillatorInverseSquare(a=2.0, b=0.75),
            ["--model", "osc-inv-sq", "--a", "2", "--b", "0.75"], 0.7, (0.05, 5.0),
            1000, 1001)),
    ],
}


def known_defect_probes(workload):
    """(defect, Op) for each documented defect that the workload's draws keep
    clear of, on a fixed input that shows it.  The timed operations stay out
    of these ranges so that none of them fails; a run executes the probes
    once, untimed, to report whether each defect still shows."""
    probes = []
    for k, (defect, build) in enumerate(_PROBES[workload]):
        params, run, check = build()
        probes.append((defect, Op(index=-1 - k, kind="probe", params=params,
                                  run=_returning_exceptions(run),
                                  check=_checking_exceptions(check))))
    return probes


def operations(workload, seed):
    """The endless operation stream of a workload for a seed."""
    kinds, build = WORKLOADS[workload]
    rng = np.random.default_rng([seed, list(WORKLOADS).index(workload)])
    draws = {kind: _Draws(rng) for kind in sorted(set(kinds))}
    index = 0
    while True:
        for kind in kinds:
            params, run, check = build(kind, draws[kind])
            yield Op(index=index, kind=kind, params=params, run=_returning_exceptions(run),
                     check=_checking_exceptions(check))
            index += 1
