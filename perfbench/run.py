"""triwave benchmark: run one workload from a seed and print its metrics.

    python3 perfbench/run.py --workload oracle --seed 1 --seconds 35 --trace 0

Run from the root of a source checkout; the package is imported from ./src.
Each workload is a closed loop: one client in this process issues one
operation at a time, each starting with the program's caches cleared, for
about --seconds seconds (BENCHMARK.json's run_seconds) in whole rounds.  Every
output is checked (see workloads.py).

--trace 0 (default) prints the end-to-end metrics.  --trace 1 is the
separate traced run: each operation runs once plain and once under the
tracer, the two outputs must be identical, and the per-layer metrics come
from the traced half.  End-to-end numbers never come from a traced run.

Times are reported in reference seconds: measured wall time scaled by the
host speed seen during the run (see calibration.py), because on a shared
virtual machine the CPU speed can drift by 2x within minutes.

The timed draws keep clear of the input ranges where a documented defect
(predictions.json) makes the program fail, so no timed operation should
fail.  Each defect is instead shown by a known-defect probe: a fixed input
run once after the timed loop, untimed and not counted in attempted/failed,
whose line reports whether the defect still shows.

Lines before the last describe the run; the last line is one JSON object
with the keys correct, attempted, failed and metrics.  `failed` counts every
timed operation that exited nonzero, produced a non-finite value or missed
its gate, or raised.  `correct` is false when any failure's symptom, or a
probe's, matches none of the documented defect classes, or a traced output
differs from its plain twin.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import warnings
from collections import Counter

# One thread per native library, set before numpy loads: the load stays one
# process on one core.
_THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")
for _var in _THREAD_VARS:
    os.environ[_var] = "1"

HERE = os.path.dirname(os.path.abspath(__file__))
SETUP_REPEATS = 11
SETUP_OPS = 256

# Set-up as a fresh process pays it: interpreter start-up excluded, then the
# package import and the generation of the first SETUP_OPS inputs.  The
# child then times the reference kernel (after one warm-up pass) so its
# set-up time can be scaled to the reference speed.
_SETUP_CHILD = """
import itertools, statistics, sys, time
t0 = time.perf_counter()
sys.path[:0] = [{src!r}, {here!r}]
import triwave.cli
import workloads
ops = list(itertools.islice(workloads.operations({workload!r}, {seed!r}), {n}))
setup = time.perf_counter() - t0
import calibration
kernel = statistics.median([calibration.kernel_seconds() for _ in range(6)][1:])
print(setup * calibration.REFERENCE_S / kernel)
"""


def _src_dir():
    """./src of the checkout, or exit when the package is not there."""
    src = os.path.join(os.getcwd(), "src")
    if not os.path.isfile(os.path.join(src, "triwave", "__init__.py")):
        sys.stderr.write("perfbench: no src/triwave under %s; run from the root "
                         "of a triwave checkout\n" % os.getcwd())
        sys.exit(2)
    return src


def measure_setup(src, workload, seed):
    """Median over SETUP_REPEATS fresh interpreters of import + input
    generation, in reference seconds."""
    code = _SETUP_CHILD.format(src=src, here=HERE, workload=workload, seed=seed,
                               n=SETUP_OPS)
    times = []
    for _ in range(SETUP_REPEATS):
        done = subprocess.run([sys.executable, "-c", code], capture_output=True,
                              text=True, timeout=120, check=True)
        times.append(float(done.stdout.strip().splitlines()[-1]))
    return statistics.median(times)


def checked(op, out):
    """op's check on its output, without the checks' own overflow noise."""
    import numpy
    with warnings.catch_warnings(), numpy.errstate(all="ignore"):
        warnings.simplefilter("ignore")
        return op.check(out)


def run_probes(workload):
    """Run the workload's known-defect probes once, untimed, and print what
    each shows.  Returns how many failed with a symptom of no documented
    defect."""
    import workloads

    unexplained = 0
    for defect, op in workloads.known_defect_probes(workload):
        workloads.clear_caches()
        outcome = checked(op, op.run())
        if outcome.ok:
            status = "passes now: the defect may be fixed"
        elif outcome.defect == defect:
            status = "still shows: " + outcome.reason
        else:
            status = "fails with another symptom: " + outcome.reason
            unexplained += 1
        print("# known defect %s %s %s" % (defect, json.dumps(op.params), status))
    return unexplained


def run_workload(workload, seed, seconds, trace):
    """Run whole rounds of operations for about `seconds`; returns the run
    record.  The run stops at the round boundary nearest the deadline, so
    every run weighs the operation kinds alike."""
    import workloads
    from calibration import HostSpeed
    from tracing import Tracer

    tracer = Tracer() if trace else None
    speed = HostSpeed()
    for _ in range(3):
        speed.sample(force=True)
    record = {"durations": [], "outcomes": [], "mismatches": [],
              "plain_s": 0.0, "traced_s": 0.0}
    round_size = len(workloads.WORKLOADS[workload][0])
    start = time.perf_counter()

    def plain(op):
        workloads.clear_caches()
        t0 = time.perf_counter()
        out = op.run()
        return out, time.perf_counter() - t0

    def traced(op):
        workloads.clear_caches()
        with tracer.patched():
            t0 = time.perf_counter()
            with tracer.operation(op.index):
                out = op.run()
            record["traced_s"] += time.perf_counter() - t0
        return out

    for op in workloads.operations(workload, seed):
        if op.index % round_size == 0:
            elapsed = time.perf_counter() - start
            rounds = op.index // round_size
            if elapsed + (elapsed / rounds if rounds else 0.0) / 2 >= seconds:
                break
        if tracer is None:
            out, dt = plain(op)
        else:
            # alternate which twin runs first: a repeat of the same
            # operation tends to run faster, which would bias the overhead
            if op.index % 2:
                traced_out = traced(op)
                out, dt = plain(op)
            else:
                out, dt = plain(op)
                traced_out = traced(op)
            record["plain_s"] += dt
            if workloads.fingerprint(traced_out) != workloads.fingerprint(out):
                record["mismatches"].append(op.index)
        outcome = checked(op, out)
        record["durations"].append(dt)
        record["outcomes"].append((op, outcome))
        speed.sample()
    speed.sample(force=True)
    record["tracer"] = tracer
    record["scale"] = speed.scale()
    return record


def summarize_outcomes(record):
    outcomes = [o for _, o in record["outcomes"]]
    failed = [o for o in outcomes if not o.ok]
    by_defect = Counter(o.defect or "unexplained" for o in failed)
    passing = [o.gate_ratio for o in outcomes if o.ok]
    return {
        "attempted": len(outcomes),
        "failed": len(failed),
        "by_defect": dict(sorted(by_defect.items())),
        "worst_gate_ratio": max(passing) if passing else float("nan"),
    }


def end_to_end_metrics(record, setup_s):
    from stats import timing_summary

    durations = [d * record["scale"] for d in record["durations"]]
    summary = timing_summary(durations)
    metrics = {"setup_s": (setup_s, "s"),
               "ops_per_s": (len(durations) / sum(durations), "1/s"),
               "op_s.p50": (summary["p50"], "s"),
               "op_s.tail": (summary["tail"], "s"),
               "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
                               "MB")}
    return metrics, summary


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=["oracle", "quadrature", "series"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)

    src = _src_dir()
    setup_s = measure_setup(src, args.workload, args.seed) if not args.trace else None
    sys.path[:0] = [src]
    import numpy

    print("# env " + json.dumps({
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "nproc": os.cpu_count(),
        "python": platform.python_version(), "numpy": numpy.__version__}))

    record = run_workload(args.workload, args.seed, args.seconds, args.trace)
    result = summarize_outcomes(record)
    unexplained = result["by_defect"].get("unexplained", 0) + run_probes(args.workload)
    for op, outcome in record["outcomes"]:
        if not outcome.ok and outcome.defect is None:
            print("# unexplained failure: op %d %s %s: %s"
                  % (op.index, op.kind, json.dumps(op.params), outcome.reason))
    print("# failures " + json.dumps(result["by_defect"]))
    by_kind = {}
    for (op, _), dt in zip(record["outcomes"], record["durations"]):
        by_kind.setdefault(op.kind, []).append(dt)
    print("# kinds " + json.dumps({
        kind: {"ops": len(ds), "measured_median_s": round(statistics.median(ds), 4)}
        for kind, ds in sorted(by_kind.items())}))
    print("fail_ratio %.6g ratio (%d of %d)" % (
        result["failed"] / max(result["attempted"], 1), result["failed"],
        result["attempted"]))
    print("worst_gate_ratio %.6g ratio" % result["worst_gate_ratio"])

    if args.trace:
        tracer = record["tracer"]
        metrics = tracer.layer_metrics(record["scale"])
        plain = record["plain_s"]
        metrics["trace.overhead_ratio"] = (
            record["traced_s"] / plain - 1.0 if plain else 0.0, "ratio")
        if record["mismatches"]:
            print("# traced output differs from the plain run for ops %s"
                  % record["mismatches"][:20])
        correct = unexplained == 0 and not record["mismatches"]
    else:
        metrics, summary = end_to_end_metrics(record, setup_s)
        print("# op_s.tail is p%d of %d operations"
              % (summary["tail_percentile"], summary["samples"]))
        correct = unexplained == 0
    print("# host speed: measured times x %.4g = reference seconds" % record["scale"])

    for name, (value, unit) in metrics.items():
        print("%s %.6g %s" % (name, value, unit))
    print(json.dumps({
        "correct": correct,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
