"""Command-line interface: spectra, wavefunction tables, J-matrix dumps, and
the verification suites, with deterministic CSV/JSON output.

Exit codes: 0 success, 1 invalid parameters or unsupported request (the
message names the violated invariant; command-line usage errors and an
unwritable --output path included), 2 verification failure beyond
tolerance.  All numbers are printed with %.15g; identical configurations
produce byte-identical output (pass --epoch to pin the JSON timestamp).
"""

from __future__ import annotations

import argparse
import json
import math
import sys
import time
from functools import lru_cache

import numpy as np

from . import __version__, basis as bs, models as md, operators as op, oracle as oc
from . import orthopoly
from .exceptions import ParameterDomainError, TriwaveError

_SPECTRUM_COLUMNS = ["n", "epsilon", "nu", "mu", "epsilon_alt", "oracle", "rel_dev"]
_WAVEFUNCTION_COLUMNS = ["x", "psi", "tail_estimate", "converged"]
_JMATRIX_COLUMNS = ["m", "n", "analytic", "numeric"]


def _fmt(value):
    if value is None:
        return ""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, (int, np.integer)):
        return "%d" % value
    if value == 0.0:
        value = 0.0  # normalize negative zero
    return "%.15g" % value


def _start_output(out):
    """Empty an --output file just before its first write (see _open_output)."""
    if out is not sys.stdout:
        out.truncate(0)


def _emit(columns, rows, args, out, extra_meta=None):
    _start_output(out)
    if args.format == "csv":
        out.write(",".join(columns) + "\n")
        for row in rows:
            out.write(",".join(_fmt(v) for v in row) + "\n")
    else:
        meta = {"version": __version__,
                "config": {k: v for k, v in sorted(vars(args).items())
                           if k not in ("func",)},
                "timestamp": args.epoch if args.epoch is not None else int(time.time())}
        if extra_meta:
            meta.update(extra_meta)
        doc = {"meta": meta, "columns": columns,
               "rows": [[(None if v is None else v) for v in row] for row in rows]}
        json.dump(doc, out, indent=2, default=float)
        out.write("\n")


# ---------------------------------------------------------------------------
# Model construction from flags
# ---------------------------------------------------------------------------

def _build_model(args):
    name = args.model
    if name == "ho":
        return md.HarmonicOscillator(a=args.a if args.a is not None else 1.0,
                                     parity=args.parity)
    if name == "osc-inv-sq":
        if args.b is None:
            raise TriwaveError("osc-inv-sq needs --b")
        return md.OscillatorInverseSquare(a=args.a if args.a is not None else 1.0,
                                          b=args.b, branch=args.branch)
    if name == "osc-inv-sq-super":
        if args.b is None:
            raise TriwaveError("osc-inv-sq-super needs --b")
        return md.SupercriticalInverseSquare(b=args.b, nu=args.nu)
    if name == "morse":
        if args.big_a is None or args.big_b is None or args.mu_scale is None:
            raise TriwaveError("morse needs --A, --B and --mu-scale")
        return md.GeneralizedMorse(A=args.big_a, B=args.big_b, mu_scale=args.mu_scale)
    if name == "rosen-morse":
        if args.big_a is None or args.big_b is None:
            raise TriwaveError("rosen-morse needs --A and --B")
        return md.RosenMorse(A=args.big_a, B=args.big_b)
    raise TriwaveError("unknown model %r" % name)


@lru_cache(maxsize=16)
def _grid_solve_cached(model, x_min, x_max, h, k):
    return oc.grid_solve(model, x_min, x_max, h, k)


def _oracle_levels(model, n_levels):
    """Grid-oracle eigenvalues aligned with the model's level indices."""
    x_min, x_max, h, k = md.default_grid(model, n_levels)
    key_model = model
    if isinstance(model, md.HarmonicOscillator):
        key_model = md.HarmonicOscillator(a=model.a, parity="even")  # shared grid
    sol = _grid_solve_cached(key_model, x_min, x_max, h, k)
    if isinstance(model, md.HarmonicOscillator):
        start = 0 if model.parity == "even" else 1
        return sol.eigenvalues[start::2][:n_levels]
    return sol.eigenvalues[:n_levels]


# ---------------------------------------------------------------------------
# Commands
# ---------------------------------------------------------------------------

def cmd_spectrum(args, out):
    model = _build_model(args)
    res = md.spectrum(model, n_levels=args.levels)
    oracle_vals = None
    if args.verify and res.levels:
        oracle_vals = _oracle_levels(model, len(res.levels))
    rows = []
    worst = 0.0
    for i, lv in enumerate(res.levels):
        eps = lv.epsilon / 2.0 if args.hbar_omega else lv.epsilon
        ora = rel = None
        if oracle_vals is not None:
            ora = oracle_vals[i] / 2.0 if args.hbar_omega else oracle_vals[i]
            rel = abs(ora - eps) / max(abs(eps), 1e-30)
            worst = max(worst, rel)
        rows.append([lv.n, eps, lv.basis_params.get("nu"), lv.basis_params.get("mu"),
                     lv.extra.get("epsilon_alt"), ora, rel])
    _emit(_SPECTRUM_COLUMNS, rows, args, out, extra_meta={"notes": res.notes})
    if res.notes and args.format == "csv":
        for note in res.notes:
            print("# note: %s" % note, file=sys.stderr)
    if oracle_vals is not None and worst > args.tol:
        print("verification failed: worst relative deviation %.3g > %.3g"
              % (worst, args.tol), file=sys.stderr)
        return 2
    return 0


def cmd_wavefunction(args, out):
    model = _build_model(args)
    x = np.linspace(args.x_min, args.x_max, args.samples)
    psi, record = md.wavefunction(model, args.epsilon, args.truncation, x)
    rows = [[xi, pi, record.tail_estimate, record.converged]
            for xi, pi in zip(x, np.atleast_1d(psi))]
    _emit(_WAVEFUNCTION_COLUMNS, rows, args, out)
    return 0


def cmd_jmatrix(args, out):
    model = _build_model(args)
    size = args.size
    if not 1 <= size <= 64:
        raise TriwaveError("size must be between 1 and 64")
    rc, spec, cmap = md.recursion_for(model, args.epsilon)
    if args.perturb_alpha:
        spec = spec.perturbed(args.perturb_alpha)
    eps = args.epsilon
    diag, off = op.symmetric_form(rc, eps, size)
    analytic = np.zeros((size, size))
    idx = np.arange(size)
    analytic[idx, idx] = rc.jmatrix_scale * (diag - eps)
    analytic[idx[:-1], idx[1:]] = analytic[idx[1:], idx[:-1]] = rc.jmatrix_scale * off
    numeric = op.numeric_jmatrix(model, spec, cmap, eps, size) if args.numeric else None
    rows = [[m, n, analytic[m, n], None if numeric is None else numeric[m, n]]
            for m in range(size) for n in range(size)]
    _emit(_JMATRIX_COLUMNS, rows, args, out)
    return 0


# ---------------------------------------------------------------------------
# Verification suites
# ---------------------------------------------------------------------------

def _suite_tridiagonality(perturb_alpha=0.0):
    cases = [
        ("osc-pollaczek", md.OscillatorInverseSquare(a=2.0, b=0.75), 0.7),
        ("osc-dual-hahn", md.SupercriticalInverseSquare(b=-0.5, nu=0.5), 1.3),
        ("morse", md.GeneralizedMorse(A=-6.0, B=-4.0, mu_scale=2.0), -0.36),
        ("rosen-morse", md.RosenMorse(A=1.0, B=-2.0), -0.64),
    ]
    checks = []
    for name, model, eps in cases:
        rc, spec, cmap = md.recursion_for(model, eps)
        if perturb_alpha:
            spec = spec.perturbed(perturb_alpha)
        J = op.numeric_jmatrix(model, spec, cmap, eps, 13, n_nodes=32)
        mx = float(np.max(np.abs(J)))
        idx = np.arange(13)
        off = float(np.max(np.abs(J[np.abs(idx[:, None] - idx) >= 2])))
        checks.append(("tridiagonality/" + name, off / mx, 1e-8))
    return checks


def _suite_orthogonality():
    checks = []
    rule = oc.gauss_rule(("laguerre", 0.7), 16)
    fam = orthopoly.LaguerreFamily(0.7)
    seq = orthopoly.laguerre_sequence(fam, 12, rule.nodes)
    gram = (seq * rule.weights) @ seq.T
    hn = np.array([math.exp(math.lgamma(n + 1.7) - math.lgamma(n + 1.0))
                   for n in range(13)])
    dev = np.max(np.abs(gram / np.sqrt(np.outer(hn, hn)) - np.eye(13)))
    checks.append(("orthogonality/laguerre", float(dev), 1e-10))

    rule = oc.gauss_rule(("jacobi", 0.3, 1.2), 16)
    fam = orthopoly.JacobiFamily(0.3, 1.2)
    seq = orthopoly.jacobi_sequence(fam, 12, rule.nodes)
    gram = (seq * rule.weights) @ seq.T
    s = 1.5
    hn = np.array([2.0 ** (s + 1.0) / (2 * n + s + 1.0)
                   * math.exp(math.lgamma(n + 1.3) + math.lgamma(n + 2.2)
                              - math.lgamma(n + 1.0) - math.lgamma(n + s + 1.0))
                   for n in range(13)])
    dev = np.max(np.abs(gram / np.sqrt(np.outer(hn, hn)) - np.eye(13)))
    checks.append(("orthogonality/jacobi", float(dev), 1e-10))

    basis_cases = [
        ("osc-pollaczek", bs.oscillator_pollaczek_basis(1.0), bs.oscillator_map(), None),
        ("osc-dual-hahn", bs.oscillator_dual_hahn_basis(0.5), bs.oscillator_map(), "1/y"),
        ("morse", bs.morse_basis(1.2), bs.morse_map(2.0), "y"),
        ("rosen-morse", bs.rosen_morse_basis(0.8, 0.6), bs.rosen_morse_map(), "1-y"),
    ]
    for name, spec, cmap, extra in basis_cases:
        gram = bs.overlap_matrix(spec, cmap, 10, extra=extra)
        dev = float(np.max(np.abs(gram - np.eye(11))))
        checks.append(("orthogonality/basis-" + name, dev, 1e-10))

    fam = orthopoly.PollaczekFamily(1.0, 1.0, 0.0)

    def entry(n, m):
        def f(th):
            x = np.cos(th)
            seq = orthopoly.pollaczek_sequence(fam, 3, x)
            return orthopoly.weight_eval(fam, x) * seq[n] * seq[m] * np.sin(th)
        return oc.adaptive_quad(f, 1e-6, np.pi - 1e-6, tol=1e-7)[0]

    dev = 0.0
    for n in range(4):
        for m in range(n + 1):
            val = entry(n, m)
            ref = math.exp(math.lgamma(n + 2.0) - math.lgamma(n + 1.0)) / (n + 2.0) \
                if n == m else 0.0
            dev = max(dev, abs(val - ref))
    checks.append(("orthogonality/pollaczek-weight", dev, 1e-5))
    return checks


def _suite_recursion_closed_form():
    rng = np.random.default_rng(20240817)
    branch_dev = {}
    for _ in range(10):
        nu = rng.uniform(-0.45, 2.5)
        eps = rng.uniform(-4.0, 4.0)
        b_model = nu * nu - 0.25
        models_list = []
        if b_model > -0.25 and abs(b_model) > 1e-6:
            models_list += [
                ("osc a>1", md.OscillatorInverseSquare(a=rng.uniform(1.1, 5.0), b=b_model), eps),
                ("osc 0<a<1", md.OscillatorInverseSquare(a=rng.uniform(0.1, 0.9), b=b_model), eps),
                ("osc a<0", md.OscillatorInverseSquare(a=rng.uniform(-4.0, -0.1), b=b_model), eps),
            ]
        models_list.append(
            ("dual-hahn", md.SupercriticalInverseSquare(b=-rng.uniform(0.3, 2.0), nu=nu),
             rng.uniform(-3.0, 1.8)))
        for bm in (-rng.uniform(0.1, 2.0), rng.uniform(0.3, 2.0), rng.uniform(0.02, 0.23)):
            models_list.append(
                ("morse", md.GeneralizedMorse(A=rng.uniform(-3, 3) * 2.0, B=bm * 4.0,
                                              mu_scale=2.0), -rng.uniform(0.1, 3.0)))
        for name, model, e in models_list:
            rc, _, _ = md.recursion_for(model, e)
            d = op.solve_recursion(rc, e, 21).d
            cf = md.closed_form_coefficients(model, e, 21)
            scale = np.max(np.abs(cf))
            dev = float(np.max(np.abs(d - cf)) / scale)
            branch_dev[name] = max(branch_dev.get(name, 0.0), dev)
    return [("recursion-closed-form/" + k, v, 1e-9) for k, v in sorted(branch_dev.items())]


def _suite_spectrum_oracle():
    checks = []
    for name, model, n_levels in [
        ("ho-even", md.HarmonicOscillator(a=1.0, parity="even"), 4),
        ("ho-odd", md.HarmonicOscillator(a=1.0, parity="odd"), 4),
        ("osc-inv-sq", md.OscillatorInverseSquare(a=1.0, b=0.75), 3),
        ("morse", md.GeneralizedMorse(A=-6.0, B=1.0, mu_scale=2.0), 3),
        ("rosen-morse", md.RosenMorse(A=1.0, B=-2.0), 1),
    ]:
        res = md.spectrum(model, n_levels=n_levels)
        ora = _oracle_levels(model, len(res.levels))
        dev = float(np.max(np.abs(ora - res.epsilons) / np.abs(res.epsilons)))
        checks.append(("spectrum-oracle/" + name, dev, 1e-3))
    return checks


_SUITES = {
    "tridiagonality": lambda args: _suite_tridiagonality(args.perturb_alpha),
    "orthogonality": lambda args: _suite_orthogonality(),
    "recursion-closed-form": lambda args: _suite_recursion_closed_form(),
    "spectrum-oracle": lambda args: _suite_spectrum_oracle(),
}


def cmd_verify(args, out):
    names = list(_SUITES) if args.suite == "all" else [args.suite]
    checks = []
    for name in names:
        checks.extend(_SUITES[name](args))
    checks.sort(key=lambda c: c[0])
    report = {
        "meta": {"version": __version__, "suite": args.suite,
                 "perturb_alpha": args.perturb_alpha,
                 "timestamp": args.epoch if args.epoch is not None else int(time.time())},
        "checks": [{"name": n, "measured": m, "threshold": t, "pass": bool(m <= t)}
                   for n, m, t in checks],
    }
    report["passed"] = all(c["pass"] for c in report["checks"])
    _start_output(out)
    json.dump(report, out, indent=2, default=float)
    out.write("\n")
    return 0 if report["passed"] else 2


# ---------------------------------------------------------------------------
# Parser
# ---------------------------------------------------------------------------

def _add_model_flags(p):
    p.add_argument("--model", required=True,
                   choices=["ho", "osc-inv-sq", "osc-inv-sq-super", "morse",
                            "rosen-morse"])
    p.add_argument("--a", type=float, default=None,
                   help="dimensionless oscillator strength (ho, osc-inv-sq)")
    p.add_argument("--b", type=float, default=None,
                   help="inverse-square coupling (osc-inv-sq, osc-inv-sq-super)")
    p.add_argument("--A", dest="big_a", type=float, default=None,
                   help="potential strength A (morse, rosen-morse)")
    p.add_argument("--B", dest="big_b", type=float, default=None,
                   help="potential strength B (morse, rosen-morse)")
    p.add_argument("--mu-scale", type=float, default=None,
                   help="morse map scale (y = mu_scale * exp(-x))")
    p.add_argument("--parity", choices=["even", "odd"], default="even",
                   help="harmonic-oscillator parity branch")
    p.add_argument("--branch", choices=["+", "-"], default="+",
                   help="osc-inv-sq basis exponent branch")
    p.add_argument("--nu", type=float, default=0.0,
                   help="basis exponent for osc-inv-sq-super")


def _add_output_flags(p):
    p.add_argument("--format", choices=["csv", "json"], default="csv")
    p.add_argument("--output", default=None, help="output path (default stdout)")
    p.add_argument("--epoch", type=int, default=None,
                   help="pin the JSON meta timestamp (deterministic output)")


def _require_finite_flags(args):
    """Reject a NaN or infinite float flag before any command reads it."""
    for dest, value in vars(args).items():
        if isinstance(value, float) and not math.isfinite(value):
            flag = {"big_a": "A", "big_b": "B"}.get(dest, dest.replace("_", "-"))
            raise ParameterDomainError("--%s = %r is not finite" % (flag, value))


class _ArgumentParser(argparse.ArgumentParser):
    """argparse with usage errors on exit code 1 (invalid request) instead of
    argparse's 2, which this CLI reserves for a failed verification."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, "%s: error: %s\n" % (self.prog, message))


def _open_output(path):
    """The --output stream, opened before any work runs so an unwritable
    path fails at once.  A file is opened for appending and emptied only when
    the report is written, so a command that fails first leaves it as it was."""
    if path is None:
        return sys.stdout
    try:
        return open(path, "a")
    except OSError as exc:
        raise TriwaveError("cannot write --output %s: %s"
                           % (path, exc.strerror or exc)) from None


def main(argv=None):
    parser = _ArgumentParser(
        prog="triwave",
        description="Tridiagonal-representation solver for the 1D Schrodinger "
                    "equation (energies in E0 = hbar^2 lam^2/2m units).")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser(
        "spectrum", help="closed-form bound levels, optionally oracle-verified",
        epilog="CSV columns: " + ",".join(_SPECTRUM_COLUMNS)
               + ". epsilon_alt is the alternative rosen-morse closed form "
                 "(reported, never asserted); oracle/rel_dev fill only with "
                 "--verify.")
    _add_model_flags(p)
    _add_output_flags(p)
    p.add_argument("--levels", type=int, default=4)
    p.add_argument("--verify", action="store_true",
                   help="run the grid oracle and report deviations")
    p.add_argument("--tol", type=float, default=1e-3)
    p.add_argument("--hbar-omega", action="store_true",
                   help="print oscillator energies in units of hbar*omega = 2 E0")
    p.set_defaults(func=cmd_spectrum)

    p = sub.add_parser(
        "wavefunction", help="tabulate the expansion wavefunction",
        epilog="CSV columns: " + ",".join(_WAVEFUNCTION_COLUMNS))
    _add_model_flags(p)
    _add_output_flags(p)
    p.add_argument("--epsilon", type=float, required=True)
    p.add_argument("--x-min", type=float, default=-5.0)
    p.add_argument("--x-max", type=float, default=5.0)
    p.add_argument("--samples", type=int, default=201)
    p.add_argument("-N", "--truncation", type=int, default=50)
    p.set_defaults(func=cmd_wavefunction)

    p = sub.add_parser(
        "jmatrix", help="analytic (and optionally quadrature) wave-operator matrix",
        epilog="CSV columns: " + ",".join(_JMATRIX_COLUMNS)
               + ". numeric fills only with --numeric.")
    _add_model_flags(p)
    _add_output_flags(p)
    p.add_argument("--epsilon", type=float, required=True)
    p.add_argument("--size", type=int, default=8)
    p.add_argument("--numeric", action="store_true")
    p.add_argument("--perturb-alpha", type=float, default=0.0, help=argparse.SUPPRESS)
    p.set_defaults(func=cmd_jmatrix)

    p = sub.add_parser("verify", help="run a verification suite (JSON report)")
    p.add_argument("--suite", default="all",
                   choices=["tridiagonality", "orthogonality",
                            "recursion-closed-form", "spectrum-oracle", "all"])
    p.add_argument("--perturb-alpha", type=float, default=0.0, help=argparse.SUPPRESS)
    p.add_argument("--output", default=None)
    p.add_argument("--epoch", type=int, default=None)
    p.set_defaults(func=cmd_verify)

    args = parser.parse_args(argv)
    try:
        _require_finite_flags(args)
        out = _open_output(args.output)
        try:
            return args.func(args, out)
        finally:
            if out is not sys.stdout:
                out.close()
    except TriwaveError as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
