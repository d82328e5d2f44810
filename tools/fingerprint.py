"""Byte-identity fingerprints of triwave's outputs, one SHA-256 per group.

    python3 tools/fingerprint.py [--root CHECKOUT] [--runs]

Run it on two checkouts (say a commit and its parent) and compare the
lines: a refactor that claims identical outputs prints identical hashes.
--root picks the checkout whose ./src and ./perfbench are imported (default:
the one this script lives in), so an older checkout without this file can
be fingerprinted too.  --runs also prints one hash per run under its group,
to name the runs where two checkouts differ.

The groups:

* oracle, quadrature, series: the first 300, 400 and 150 operations of the
  benchmark workloads at seed 7, each output through
  perfbench.workloads.fingerprint, each operation starting with the caches
  cleared as the benchmark does;
* verify: `verify --suite all --epoch 0`, with and without
  `--perturb-alpha 0.1`;
* jmatrix: `jmatrix`, analytic and `--numeric`, for six model settings;
* spectrum: `spectrum` as CSV and as JSON, with and without `--verify`, for
  the spectrum-oracle suite's settings and a few deeper ones;
* spectrum-grid-fixes: the same for settings whose default oracle grid
  changed on purpose (osc-inv-sq at 6 or more levels, where h is now halved
  until the step bound holds; Rosen-Morse where --levels and the former
  default of 8 give different level counts, since the grid is now sized from
  the requested levels).  Only their --verify runs may differ across that
  change;
* grid-vectors: oracle.grid_solve's eigenvalues and eigenvectors (or the
  exception it raises), which no CLI output holds, on models.default_grid of
  seven model settings (both oscillator parities), at h = 1/64 on a double
  well and a triple well whose close levels take the eigenvector fallback
  of a cluster, and on that triple well at h = pi/400, where the fallback
  takes inverse-iteration steps;
* closed-forms: models.closed_form_coefficients at N = 200 for HO (both
  parities), osc-inv-sq and Morse couplings whose Pollaczek ratio lies
  below -1, at -1, inside (-1, 1) and above 1 (no other group sees this
  route: the series workload only checks against it);
* gauss-rules: oracle.gauss_rule's nodes and weights for Laguerre nu in
  {-0.5, 0, 0.7, 5} and Jacobi (0.3, 1.2), (-0.5, -0.5) at n in {1, 16, 64,
  128, 200}, each rule built afresh: the rules above 64 nodes, and the
  rescale branch of the Christoffel pass that the Laguerre ones from 128
  nodes take, which no other group reaches;
* spectrum-gate: `spectrum --verify --tol 1e-12`, as CSV and as JSON, for
  the spectrum-oracle suite's settings and the oscillator in hbar*omega
  units: a tolerance no oracle deviation meets, so each run takes the
  failing side of the gate (exit 2 and its "verification failed: worst
  relative deviation ..." line), which the spectrum group, at the default
  tolerance, never reaches;
* level-series: `wavefunction --format csv` at each level that
  models.spectrum lists for HO (both parities), osc-inv-sq (1, 0.75), Morse
  (-6, 1, 2) and Rosen-Morse (1, -2), (1, -6), (0.5, -12) and (0, -2000):
  no other group runs a recursion at a listed level, where the bases of
  the energy-dependent models meet their level's exponents;
* adaptive-quad: oracle.adaptive_quad's value and error estimate (or the
  exception it raises, with its message and estimates) on a smooth
  integrand, two endpoint singularities at the rounding floor, a stall, a
  spent evaluation budget, a non-finite integrand, the Pollaczek Gram
  entry (1, 1) of perfbench's adaptive-quad-early-accept weight at tol
  1e-7, and that weight's ten Gram entries as one vector integrand on one
  mesh at tol 1e-7 and 1e-9: no other group reaches the stall, budget or
  rounding-floor paths.

CLI runs go through perfbench.workloads.call_cli, so a run's exit code,
stdout and stderr (a traceback included) all enter its hash.
"""

from __future__ import annotations

import argparse
import hashlib
import itertools
import json
import math
import sys
from pathlib import Path

import numpy as np

SEED = 7
OPERATIONS = {"oracle": 300, "quadrature": 400, "series": 150}

_JSON = ["--format", "json", "--epoch", "0"]

JMATRIX_MODELS = [
    ["--model", "ho", "--a", "2"],
    ["--model", "ho", "--a", "2", "--parity", "odd"],
    ["--model", "osc-inv-sq", "--a", "2", "--b", "0.75"],
    ["--model", "osc-inv-sq-super", "--b", "-0.5", "--nu", "0.5"],
    ["--model", "morse", "--A", "-6", "--B", "-4", "--mu-scale", "2"],
    ["--model", "rosen-morse", "--A", "1", "--B", "-2"],
]
JMATRIX_EPSILONS = ["1.3", "1.3", "0.7", "1.3", "-0.36", "-0.64"]

SPECTRUM_MODELS = [
    ["--model", "ho", "--levels", "4"],
    ["--model", "ho", "--parity", "odd", "--levels", "4"],
    ["--model", "ho", "--levels", "8", "--hbar-omega"],
    ["--model", "osc-inv-sq", "--b", "0.75", "--levels", "3"],
    ["--model", "osc-inv-sq", "--b", "2", "--levels", "5"],
    ["--model", "osc-inv-sq-super", "--b", "-0.5"],
    ["--model", "morse", "--A", "-6", "--B", "1", "--mu-scale", "2"],
    ["--model", "morse", "--A", "-9", "--B", "2", "--mu-scale", "2.8284271247461903"],
    ["--model", "rosen-morse", "--A", "1", "--B", "-2"],
]
GRID_FIX_MODELS = [
    ["--model", "osc-inv-sq", "--b", "0.75", "--levels", "8"],
    ["--model", "osc-inv-sq", "--b", "0.75", "--levels", "32"],
    ["--model", "osc-inv-sq", "--b", "-0.1", "--levels", "6"],
    ["--model", "rosen-morse", "--A", "0.5", "--B", "-12", "--levels", "2"],
    ["--model", "rosen-morse", "--A", "0.5", "--B", "-200", "--levels", "9"],
]
GATE_MODELS = [
    ["--model", "ho", "--levels", "4"],
    ["--model", "ho", "--parity", "odd", "--levels", "4"],
    ["--model", "ho", "--levels", "8", "--hbar-omega"],
    ["--model", "osc-inv-sq", "--b", "0.75", "--levels", "3"],
    ["--model", "morse", "--A", "-6", "--B", "1", "--mu-scale", "2"],
    ["--model", "rosen-morse", "--A", "1", "--B", "-2", "--levels", "1"],
]

# (CLI model flags, triwave.models class, its parameters, n_levels) of the
# level-series group; osc-inv-sq evaluates on x > 0.
LEVEL_SERIES_MODELS = [
    (["--model", "ho"], "HarmonicOscillator", {"a": 1.0}, 4),
    (["--model", "ho", "--parity", "odd"], "HarmonicOscillator", {"a": 1.0, "parity": "odd"}, 4),
    (["--model", "osc-inv-sq", "--b", "0.75", "--x-min", "0.05"],
     "OscillatorInverseSquare", {"a": 1.0, "b": 0.75}, 3),
    (["--model", "morse", "--A", "-6", "--B", "1", "--mu-scale", "2"],
     "GeneralizedMorse", {"A": -6.0, "B": 1.0, "mu_scale": 2.0}, 8),
] + [(["--model", "rosen-morse", "--A", "%g" % A, "--B", "%g" % B],
      "RosenMorse", {"A": A, "B": B}, 8)
     for A, B in ((1.0, -2.0), (1.0, -6.0), (0.5, -12.0), (0.0, -2000.0))]

# (label, triwave.models class, its parameters, n_levels) of the grid-vectors
# group: each count is the one default_grid took when none was given.
GRID_MODELS = [
    ("ho-even", "HarmonicOscillator", {"a": 1.0}, 4),
    ("ho-odd", "HarmonicOscillator", {"a": 1.0, "parity": "odd"}, 4),
    ("osc-inv-sq-0.75", "OscillatorInverseSquare", {"a": 1.0, "b": 0.75}, 3),
    ("osc-inv-sq-2", "OscillatorInverseSquare", {"a": 1.0, "b": 2.0}, 3),
    ("morse-6", "GeneralizedMorse", {"A": -6.0, "B": 1.0, "mu_scale": 2.0}, 8),
    ("morse-9", "GeneralizedMorse", {"A": -9.0, "B": 4.0, "mu_scale": 4.0}, 8),
    ("rosen-morse", "RosenMorse", {"A": 1.0, "B": -2.0}, 8),
]


# (triwave.models class, its parameters, epsilon) of the closed-forms group.
# The oscillator ratio (a+1)/(a-1) and the Morse ratio (b+1/4)/(b-1/4), with
# b = B/mu_scale^2, each lie inside (-1, 1), at -1, below -1 and above 1.
_RATIO_A = (-3.0, -0.5, 0.0, 0.5, 0.999, 1.001, 2.0)
CLOSED_FORM_MODELS = (
    [("HarmonicOscillator", {"a": a}, 1.3) for a in _RATIO_A]
    + [("HarmonicOscillator", {"a": a, "parity": "odd"}, 1.3) for a in _RATIO_A]
    + [("OscillatorInverseSquare", {"a": a, "b": 0.75}, 1.3) for a in _RATIO_A]
    + [("GeneralizedMorse", {"A": -6.0, "B": 4.0 * b, "mu_scale": 2.0}, -0.36)
       for b in (-1.0, 0.0, 0.1, 0.2499, 0.2501, 0.5)])
CLOSED_FORM_N = 200

# (weight ids, node counts) of the gauss-rules group.
GAUSS_WEIGHTS = [("laguerre", -0.5), ("laguerre", 0.0), ("laguerre", 0.7), ("laguerre", 5.0),
                 ("jacobi", 0.3, 1.2), ("jacobi", -0.5, -0.5)]
GAUSS_NODES = (1, 16, 64, 128, 200)


def _double_well(x):
    return (x * x - 3.07 ** 2) ** 2 / 4.0


def _triple_well(x):
    return 4.0 * np.minimum(np.minimum((x + 8.0) ** 2, x * x), (x - 8.0) ** 2)


def _grid_runs(workloads):
    """[(label, thunk giving a grid solve's eigenvalues and eigenvectors in
    one array, or the exception it raised)]."""
    from triwave import models, oracle

    def run(solve):
        def vectors():
            sol = solve()
            return np.concatenate([sol.eigenvalues, sol.eigenvectors.ravel()])
        return workloads._returning_exceptions(vectors)

    def default(name, params, n_levels):
        model = getattr(models, name)(**params)
        return lambda: oracle.grid_solve(model.potential, *models.default_grid(model, n_levels),
                                         langer=model.half_line, symmetry=model.symmetry)

    runs = [(label, run(default(*row))) for label, *row in GRID_MODELS]
    runs.append(("double-well-3.07", run(
        lambda: oracle.grid_solve(_double_well, -9.07, 9.07, 1.0 / 64.0, 4))))
    runs.append(("triple-well", run(
        lambda: oracle.grid_solve(_triple_well, -14.0, 14.0, 1.0 / 64.0, 6))))
    runs.append(("triple-well-pi/400", run(
        lambda: oracle.grid_solve(_triple_well, -14.0, 14.0, math.pi / 400.0, 6))))
    return runs


def _closed_form_runs(workloads):
    """[(label, thunk giving the closed-form coefficients, or the exception
    they raised)]."""
    from triwave import models

    def run(name, params, eps):
        def coefficients():
            with np.errstate(over="ignore", invalid="ignore"):
                model = getattr(models, name)(**params)
                return models.closed_form_coefficients(model, eps, CLOSED_FORM_N)
        return workloads._returning_exceptions(coefficients)

    return [("%s %s eps=%g" % (name, json.dumps(params, sort_keys=True), eps),
             run(name, params, eps)) for name, params, eps in CLOSED_FORM_MODELS]


def _gauss_rule_runs(workloads):
    """[(label, thunk giving a Gauss rule's nodes and weights in one array,
    or the exception it raised)]."""
    from triwave import oracle

    def run(weight_id, n):
        def rule():
            r = oracle.gauss_rule(weight_id, n)
            return np.concatenate([r.nodes, r.weights])
        return workloads._returning_exceptions(rule)

    return [("%r n=%d" % (weight_id, n), run(weight_id, n))
            for weight_id in GAUSS_WEIGHTS for n in GAUSS_NODES]


def _adaptive_quad_runs(workloads):
    """[(label, thunk giving adaptive_quad's value and error estimate in one
    array, or the exception it raised as (type, message, estimates))]."""
    from triwave import oracle, orthopoly

    def run(f, a, b, **kwargs):
        def integrate():
            try:
                with np.errstate(divide="ignore"):
                    return np.concatenate(
                        [np.ravel(v) for v in oracle.adaptive_quad(f, a, b, **kwargs)])
            except Exception as exc:  # noqa: BLE001 - an older checkout may raise anything
                estimates = getattr(exc, "estimates", None)
                return (type(exc).__name__, str(exc),
                        None if estimates is None else np.ravel(estimates).tolist())
        return integrate

    fam = orthopoly.PollaczekFamily(*workloads._EARLY_ACCEPT)
    rows, cols = np.array([(n, m) for n in range(4) for m in range(n + 1)]).T

    def gram(th, rows=rows, cols=cols):
        x = np.cos(th)
        seq = orthopoly.pollaczek_sequence(fam, 3, x)
        return orthopoly.weight_eval(fam, x) * seq[rows] * seq[cols] * np.sin(th)

    theta = (1e-6, math.pi - 1e-6)
    return [
        ("smooth sin(x) on (0, pi) tol=1e-12", run(np.sin, 0.0, math.pi, tol=1e-12)),
        ("endpoint x^-0.5 on (1e-300, 1) tol=1e-10",
         run(lambda x: x ** -0.5, 1e-300, 1.0, tol=1e-10)),
        ("endpoint x^-0.999 on (1e-300, 1) tol=1e-10",
         run(lambda x: x ** -0.999, 1e-300, 1.0, tol=1e-10)),
        ("stall |x-0.3|^-0.98 on (0, 1) tol=1e-10",
         run(lambda x: np.abs(x - 0.3) ** -0.98, 0.0, 1.0, tol=1e-10)),
        ("budget sin(50x) on (0, 100) tol=1e-10 max_eval=200",
         run(lambda x: np.sin(50.0 * x), 0.0, 100.0, tol=1e-10, max_eval=200)),
        ("non-finite 1/(x-0.5) on (0, 1)", run(lambda x: 1.0 / (x - 0.5), 0.0, 1.0)),
        ("early-accept pollaczek entry (1, 1) tol=1e-7",
         run(lambda th: gram(th, 1, 1), *theta, tol=1e-7)),
    ] + [("early-accept pollaczek gram on one mesh tol=%g" % tol, run(gram, *theta, tol=tol))
         for tol in (1e-7, 1e-9)]


def _groups(workloads):
    """{group: [(label, thunk giving the run's output)]}."""
    from triwave import models

    def op_runs(name):
        ops = itertools.islice(workloads.operations(name, SEED), OPERATIONS[name])
        return [("%d %s %s" % (op.index, op.kind,
                               json.dumps(op.params, sort_keys=True, default=repr)), op.run)
                for op in ops]

    def cli_run(argv):
        return " ".join(argv), lambda: workloads.call_cli(argv)

    verify = [cli_run(["verify", "--suite", "all", "--epoch", "0"] + extra)
              for extra in ([], ["--perturb-alpha", "0.1"])]
    jmatrix = [cli_run(["jmatrix", "--epsilon", eps, "--size", "8"] + model + numeric)
               for model, eps in zip(JMATRIX_MODELS, JMATRIX_EPSILONS)
               for numeric in ([], ["--numeric"])]

    def spectrum(models):
        return [cli_run(["spectrum"] + model + fmt + verify_flag)
                for model in models
                for fmt in ([], _JSON)
                for verify_flag in ([], ["--verify"])]

    groups = {name: op_runs(name) for name in OPERATIONS}
    groups.update({"verify": verify, "jmatrix": jmatrix,
                   "spectrum": spectrum(SPECTRUM_MODELS),
                   "spectrum-grid-fixes": spectrum(GRID_FIX_MODELS),
                   "grid-vectors": _grid_runs(workloads),
                   "closed-forms": _closed_form_runs(workloads),
                   "gauss-rules": _gauss_rule_runs(workloads),
                   "spectrum-gate": [cli_run(["spectrum"] + model + fmt
                                             + ["--verify", "--tol", "1e-12"])
                                     for model in GATE_MODELS for fmt in ([], _JSON)],
                   "level-series": [
                       cli_run(["wavefunction", "--format", "csv",
                                "--epsilon=%r" % lv.epsilon] + flags)
                       for flags, name, params, n_levels in LEVEL_SERIES_MODELS
                       for lv in models.spectrum(getattr(models, name)(**params),
                                                 n_levels).levels],
                   "adaptive-quad": _adaptive_quad_runs(workloads)})
    return groups


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--root", type=Path, default=Path(__file__).resolve().parent.parent,
                        help="source checkout to fingerprint")
    parser.add_argument("--runs", action="store_true", help="also print one hash per run")
    args = parser.parse_args(argv)
    sys.path[:0] = [str(args.root / "src"), str(args.root / "perfbench")]
    import workloads

    for group, runs in _groups(workloads).items():
        digest = hashlib.sha256()
        lines = []
        for label, run in runs:
            workloads.clear_caches()
            data = workloads.fingerprint(run())
            digest.update(hashlib.sha256(data).digest())
            lines.append("%s  %s/%s" % (hashlib.sha256(data).hexdigest(), group, label))
        print("%s  %s" % (digest.hexdigest(), group))
        if args.runs:
            print("\n".join(lines))
    return 0


if __name__ == "__main__":
    sys.exit(main())
