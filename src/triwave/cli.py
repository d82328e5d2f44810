"""Command-line interface: spectra, wavefunction tables, J-matrix dumps, and
the verification suites, with deterministic CSV/JSON output.

Exit codes: 0 success, 1 invalid parameters or unsupported request (the
message names the violated invariant; command-line usage errors and an
--output path or a stdout that cannot be written included), 2 verification
failure beyond tolerance.  A reader that closes stdout early (triwave ... |
head) ends the run with exit 1, no message and no traceback.  All numbers
are printed with %.15g; identical configurations produce byte-identical
output (pass --epoch to pin the JSON timestamp).
"""

from __future__ import annotations

import argparse
import itertools
import json
import math
import os
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
    """Empty an --output file just before its first write (see _open_output).
    Opened for appending, a file starts at its end; a FIFO cannot seek and a
    device starts at 0, so neither is truncated (ftruncate refuses both)."""
    if out is not sys.stdout and out.seekable() and out.tell():
        out.truncate(0)


def _csv_column(column):
    """(printf format, values) of one CSV column: a float array formats as
    %.15g (adding 0.0 turns -0.0 into 0.0, as _fmt does) and an integer
    array as %d, a constant is written into the format once, and any other
    column goes value by value through _fmt (arrays as Python values, so a
    bool array prints true/false)."""
    if np.ndim(column) == 0:
        return _fmt(column).replace("%", "%%"), []
    if isinstance(column, np.ndarray):
        if column.dtype.kind == "f":
            return "%.15g", (column + 0.0).tolist()
        if column.dtype.kind in "iu":
            return "%d", column.tolist()
        column = column.tolist()
    return "%s", [_fmt(v) for v in column]


def _meta(args, **fields):
    """JSON meta header: version, fields, timestamp (--epoch pins it)."""
    return {"version": __version__, **fields,
            "timestamp": args.epoch if args.epoch is not None else int(time.time())}


def _emit(names, columns, args, out, extra_meta=None):
    """Write the table whose columns (parallel to names) are arrays, lists or
    constants (a scalar, or None for an empty column) as CSV or JSON."""
    n_rows = max((len(c) for c in columns if np.ndim(c)), default=0)
    if args.format == "csv":
        _start_output(out)
        formats, values = zip(*map(_csv_column, columns))
        # every row in one printf pass over the row-major values
        cells = tuple(itertools.chain.from_iterable(zip(*(v for v in values if v))))
        out.write(",".join(names) + "\n" + (",".join(formats) + "\n") * n_rows % cells)
    else:
        meta = _meta(args, config={k: v for k, v in sorted(vars(args).items())
                                   if k not in ("func",)})
        if extra_meta:
            meta.update(extra_meta)
        values = [c.tolist() if isinstance(c, np.ndarray)
                  else c if np.ndim(c) else [c] * n_rows for c in columns]
        _write_json({"meta": meta, "columns": names, "rows": [list(r) for r in zip(*values)]},
                    out)


def _write_json(doc, out):
    """doc as out's whole content: JSON (numpy scalars as floats), newline."""
    _start_output(out)
    json.dump(doc, out, indent=2, default=float)
    out.write("\n")


# ---------------------------------------------------------------------------
# Model construction from flags
# ---------------------------------------------------------------------------

def _build_model(args):
    name = args.model
    a = args.a if args.a is not None else 1.0
    if name == "ho":
        return md.HarmonicOscillator(a=a, parity=args.parity)
    if name in ("osc-inv-sq", "osc-inv-sq-super"):
        if args.b is None:
            raise TriwaveError("%s needs --b" % name)
        if name == "osc-inv-sq":
            return md.OscillatorInverseSquare(a=a, b=args.b, branch=args.branch)
        return md.SupercriticalInverseSquare(b=args.b, nu=args.nu)
    if name == "morse":
        if args.big_a is None or args.big_b is None or args.mu_scale is None:
            raise TriwaveError("morse needs --A, --B and --mu-scale")
        return md.GeneralizedMorse(A=args.big_a, B=args.big_b, mu_scale=args.mu_scale)
    if args.big_a is None or args.big_b is None:  # rosen-morse, the last --model choice
        raise TriwaveError("rosen-morse needs --A and --B")
    return md.RosenMorse(A=args.big_a, B=args.big_b)


# no caller: perfbench/workloads.py clears it; it goes with ROADMAP item 1's benchmark change
_grid_solve_cached = lru_cache(maxsize=16)(oc.grid_solve)


# ---------------------------------------------------------------------------
# Commands
# ---------------------------------------------------------------------------

def cmd_spectrum(args, out):
    if args.levels < 1:
        raise ParameterDomainError("--levels = %d must be at least 1" % args.levels)
    if not args.tol > 0.0:
        raise ParameterDomainError("--tol = %r must be positive" % args.tol)
    model = _build_model(args)
    unit = 0.5 if args.hbar_omega else 1.0
    ora = rel = None
    if args.verify:
        check = md.check_spectrum(model, args.levels)
        res, ora, rel = check.result, check.oracle * unit, check.rel_dev
    else:
        res = md.spectrum(model, n_levels=args.levels)
    meta = {"notes": res.notes}
    if args.verify and check.rows is not None:
        meta["oracle"] = {"rows": check.rows, "passes": check.passes}
    levels = res.levels
    _emit(_SPECTRUM_COLUMNS,
          [[lv.n for lv in levels], res.epsilons * unit, [lv.nu for lv in levels],
           [lv.mu for lv in levels], [lv.epsilon_alt for lv in levels], ora, rel],
          args, out, extra_meta=meta)
    if res.notes and args.format == "csv":
        for note in res.notes:
            print("# note: %s" % note, file=sys.stderr)
    if args.verify and check.worst > args.tol:
        print("verification failed: worst relative deviation %.3g > %.3g"
              % (check.worst, args.tol), file=sys.stderr)
        return 2
    return 0


def cmd_wavefunction(args, out):
    if args.samples < 1:
        raise ParameterDomainError("--samples = %d must be at least 1" % args.samples)
    if args.truncation < 1:
        raise ParameterDomainError("-N = %d must be at least 1" % args.truncation)
    model = _build_model(args)
    x = np.linspace(args.x_min, args.x_max, args.samples)
    psi, record = md.wavefunction(model, args.epsilon, args.truncation, x)
    _emit(_WAVEFUNCTION_COLUMNS,
          [x, psi, record.coeffs.tail_estimate, record.converged], args, out)
    return 0


def cmd_jmatrix(args, out):
    model = _build_model(args)
    size = args.size
    if not 1 <= size <= 64:
        raise ParameterDomainError("--size = %d must be between 1 and 64" % size)
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
    m, n = np.divmod(np.arange(size * size), size)
    _emit(_JMATRIX_COLUMNS,
          [m, n, analytic.ravel(), None if numeric is None else numeric.ravel()],
          args, out)
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
    s = 1.5  # mu + nu of the Jacobi case
    # (name, weight id, family, squared norms h_0..h_12)
    for name, weight, fam, hn in [
        ("laguerre", ("laguerre", 0.7), orthopoly.LaguerreFamily(0.7),
         [math.exp(math.lgamma(n + 1.7) - math.lgamma(n + 1.0)) for n in range(13)]),
        ("jacobi", ("jacobi", 0.3, 1.2), orthopoly.JacobiFamily(0.3, 1.2),
         [2.0 ** (s + 1.0) / (2 * n + s + 1.0)
          * math.exp(math.lgamma(n + 1.3) + math.lgamma(n + 2.2)
                     - math.lgamma(n + 1.0) - math.lgamma(n + s + 1.0))
          for n in range(13)]),
    ]:
        rule = oc.gauss_rule(weight, 16)
        seq = orthopoly.sequence(fam, 12, rule.nodes)
        gram = (seq * rule.weights) @ seq.T
        hn = np.array(hn)
        dev = np.max(np.abs(gram / np.sqrt(np.outer(hn, hn)) - np.eye(13)))
        checks.append(("orthogonality/" + name, float(dev), 1e-10))

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

    # the Gram entries m <= n <= 3 of a Pollaczek weight, no Gauss rule of
    # its own: all ten integrands on one adaptive mesh
    fam = orthopoly.PollaczekFamily(1.0, 1.0, 0.0)
    rows, cols = np.array([(n, m) for n in range(4) for m in range(n + 1)]).T

    def entries(th):
        x = np.cos(th)
        seq = orthopoly.sequence(fam, 3, x)
        return orthopoly.weight_eval(fam, x) * seq[rows] * seq[cols] * np.sin(th)

    vals = oc.adaptive_quad(entries, 1e-6, np.pi - 1e-6, tol=1e-7)[0]
    refs = [math.exp(math.lgamma(n + 2.0) - math.lgamma(n + 1.0)) / (n + 2.0)
            if n == m else 0.0 for n, m in zip(rows, cols)]
    checks.append(("orthogonality/pollaczek-weight", float(np.max(np.abs(vals - refs))), 1e-5))
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
        checks.append(("spectrum-oracle/" + name, md.check_spectrum(model, n_levels).worst, 1e-3))
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
        "meta": _meta(args, suite=args.suite, perturb_alpha=args.perturb_alpha),
        "checks": [{"name": n, "measured": m, "threshold": t, "pass": bool(m <= t)}
                   for n, m, t in checks],
    }
    report["passed"] = all(c["pass"] for c in report["checks"])
    _write_json(report, out)
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

    def _print_message(self, message, file=None):
        """argparse's, but --help's text on stdout is flushed and a failed
        write raises (argparse drops it), so main reports it like any
        command's output."""
        if file is sys.stdout and message:
            file.write(message)
            file.flush()
        else:
            super()._print_message(message, file)


def _open_output(path):
    """(stream, created) of --output path, opened before any work runs so an
    unwritable path fails at once.  A file is opened for appending and emptied
    only when the report is written, so a command that fails first leaves it
    as it was, or removes it (main) where created says this run made it."""
    created = not os.path.lexists(path)
    return open(path, "a"), created


def _is_number(token):
    try:
        float(token)
    except ValueError:
        return False
    return True


def _attach_negative_values(argv):
    """argv with each token that float() accepts and that starts with '-'
    joined to the flag before it (--epsilon=-4.9e-05).  argparse reads a
    token starting with '-' as an option unless it looks like a negative
    number to argparse, and exponent forms and -inf do not."""
    out = []
    for token in argv:
        prev = out[-1] if out else ""
        if (token.startswith("-") and _is_number(token) and prev.startswith("-")
                and prev != "--" and "=" not in prev and not _is_number(prev)):
            out[-1] = prev + "=" + token
        else:
            out.append(token)
    return out


def _add_spectrum_flags(p):
    _add_model_flags(p)
    _add_output_flags(p)
    p.add_argument("--levels", type=int, default=4)
    p.add_argument("--verify", action="store_true",
                   help="run the grid oracle and report deviations")
    p.add_argument("--tol", type=float, default=1e-3)
    p.add_argument("--hbar-omega", action="store_true",
                   help="print oscillator energies in units of hbar*omega = 2 E0")
    p.set_defaults(func=cmd_spectrum)


def _add_wavefunction_flags(p):
    _add_model_flags(p)
    _add_output_flags(p)
    p.add_argument("--epsilon", type=float, required=True)
    p.add_argument("--x-min", type=float, default=-5.0)
    p.add_argument("--x-max", type=float, default=5.0)
    p.add_argument("--samples", type=int, default=201)
    p.add_argument("-N", "--truncation", type=int, default=50)
    p.set_defaults(func=cmd_wavefunction)


def _add_jmatrix_flags(p):
    _add_model_flags(p)
    _add_output_flags(p)
    p.add_argument("--epsilon", type=float, required=True)
    p.add_argument("--size", type=int, default=8)
    p.add_argument("--numeric", action="store_true")
    p.add_argument("--perturb-alpha", type=float, default=0.0, help=argparse.SUPPRESS)
    p.set_defaults(func=cmd_jmatrix)


def _add_verify_flags(p):
    p.add_argument("--suite", default="all",
                   choices=["tridiagonality", "orthogonality",
                            "recursion-closed-form", "spectrum-oracle", "all"])
    p.add_argument("--perturb-alpha", type=float, default=0.0, help=argparse.SUPPRESS)
    p.add_argument("--output", default=None)
    p.add_argument("--epoch", type=int, default=None)
    p.set_defaults(func=cmd_verify)


def _parser(argv):
    """The argparse tree with all four subcommands, so --help and the choices
    in a usage error list every one, but with flags only on those named in
    argv.  The top level takes no option with a value, so argparse hands the
    call to the first positional token: that subcommand is always built in
    full, and one left empty is never invoked."""
    parser = _ArgumentParser(
        prog="triwave",
        description="Tridiagonal-representation solver for the 1D Schrodinger "
                    "equation (energies in E0 = hbar^2 lam^2/2m units).")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, add_flags, kwargs in [
        ("spectrum", _add_spectrum_flags, dict(
            help="closed-form bound levels, optionally oracle-verified",
            epilog="CSV columns: " + ",".join(_SPECTRUM_COLUMNS)
                   + ". epsilon_alt is the alternative rosen-morse closed form "
                     "(reported, never asserted); oracle/rel_dev fill only with "
                     "--verify.")),
        ("wavefunction", _add_wavefunction_flags, dict(
            help="tabulate the expansion wavefunction",
            epilog="CSV columns: " + ",".join(_WAVEFUNCTION_COLUMNS))),
        ("jmatrix", _add_jmatrix_flags, dict(
            help="analytic (and optionally quadrature) wave-operator matrix",
            epilog="CSV columns: " + ",".join(_JMATRIX_COLUMNS)
                   + ". numeric fills only with --numeric.")),
        ("verify", _add_verify_flags, dict(
            help="run a verification suite (JSON report)")),
    ]:
        p = sub.add_parser(name, **kwargs)
        if name in argv:
            add_flags(p)
    return parser


def main(argv=None):
    argv = sys.argv[1:] if argv is None else argv
    created = False
    try:
        try:
            args = _parser(argv).parse_args(_attach_negative_values(argv))  # --help writes here
            _require_finite_flags(args)
            if args.output is None:
                code = args.func(args, sys.stdout)
                sys.stdout.flush()  # a closed pipe or a full device raises here, not at exit
                return code
        except OSError as exc:
            # devnull takes what is still buffered so the flush at exit
            # does not raise again (Python docs, signal module)
            os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
            if isinstance(exc, BrokenPipeError):
                return 1  # the reader closed stdout (triwave ... | head)
            raise TriwaveError("cannot write stdout: %s" % (exc.strerror or exc)) from None
        try:
            out, created = _open_output(args.output)
            with out:  # a write error may surface at the flush on close
                return args.func(args, out)
        except OSError as exc:
            raise TriwaveError("cannot write --output %s: %s"
                               % (args.output, exc.strerror or exc)) from None
    except TriwaveError as exc:
        print("error: %s" % exc, file=sys.stderr)
        if created:
            os.remove(args.output)
        return 1


if __name__ == "__main__":
    sys.exit(main())
