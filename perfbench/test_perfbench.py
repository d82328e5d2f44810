"""Tests of the benchmark's own machinery.

    python3 -m pytest perfbench/test_perfbench.py

Run from the root of the checkout.
"""

import importlib
import itertools
import os
import sys

import pytest

sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                                "src"))

import calibration  # noqa: E402
import stats  # noqa: E402
import tracing  # noqa: E402
import triwave.exceptions  # noqa: E402
import workloads  # noqa: E402


# -- span self-time arithmetic ----------------------------------------------

def test_self_time_subtracts_union_of_children():
    S = tracing.Span
    spans = [S("root", 0, None, 0.0, 10.0),
             S("a", 0, 0, 1.0, 3.0),
             S("b", 0, 0, 2.0, 5.0),   # overlaps a: together they cover [1, 5]
             S("c", 0, 2, 2.5, 3.5),   # grandchild: counts against b only
             S("d", 0, 0, 9.0, 12.0)]  # runs past the root: clipped to [9, 10]
    own = tracing.self_times(spans)
    assert own == pytest.approx([10.0 - 4.0 - 1.0, 2.0, 3.0 - 1.0, 1.0, 3.0])


def test_covered_length_merges_and_clips():
    assert tracing.covered_length([], 0.0, 1.0) == 0.0
    assert tracing.covered_length([(0.0, 1.0), (2.0, 3.0)], 0.0, 5.0) == 2.0
    assert tracing.covered_length([(0.0, 2.0), (1.0, 3.0)], 0.5, 2.5) == 2.0


class _Clock:
    """A clock that advances one unit per reading."""

    def __init__(self):
        self.t = 0.0

    def __call__(self):
        self.t += 1.0
        return self.t


def test_tracer_records_nested_spans_per_operation():
    tracer = tracing.Tracer(clock=_Clock())
    inner = tracer.wrap("inner", lambda: None)
    outer = tracer.wrap("outer", lambda: inner())
    with tracer.operation(0):
        outer()
    # readings: op 1, outer 2, inner 3..4, outer end 5, op end 6
    assert tracer.total_s["op"] == 5.0
    assert tracer.total_s["outer"] == 3.0
    assert tracer.self_s["outer"] == 2.0
    assert tracer.self_s["inner"] == 1.0
    assert tracer.self_s["op"] == 2.0
    assert tracer.calls["outer"] == tracer.calls["inner"] == 1
    outer()  # outside an operation: passes through, records nothing
    assert tracer.calls["outer"] == 1 and tracer.ops == 1


# -- choice of op_s.tail ------------------------------------------------------

@pytest.mark.parametrize("n, p", [(11, 9), (15, 33), (20, 50), (23, 56), (100, 90),
                                  (1000, 99), (5000, 99)])
def test_tail_percentile_is_highest_with_ten_beyond(n, p):
    assert stats.tail_percentile(n) == p
    values = [float(i) for i in range(n)]
    tail = stats.nearest_rank(values, p)
    assert sum(v > tail for v in values) >= 10
    assert sum(v > stats.nearest_rank(values, p + 1) for v in values) < 10


def test_tail_never_drops_below_the_median():
    assert stats.tail_percentile(10) is None
    for n in (3, 10, 13, 19):
        summary = stats.timing_summary([float(i) for i in range(n)])
        assert summary["tail_percentile"] == 50 and summary["samples"] == n
        assert summary["tail"] == stats.nearest_rank(range(n), 50)
    assert stats.timing_summary([float(i) for i in range(23)])["tail_percentile"] == 56


# -- seed determinism of the generated inputs ----------------------------------

def _inputs(workload, seed, n=40):
    return [(op.kind, op.params) for op in
            itertools.islice(workloads.operations(workload, seed), n)]


@pytest.mark.parametrize("workload", sorted(workloads.WORKLOADS))
def test_same_seed_same_inputs(workload):
    assert _inputs(workload, 7) == _inputs(workload, 7)
    assert _inputs(workload, 7) != _inputs(workload, 8)


@pytest.mark.parametrize("workload", sorted(workloads.WORKLOADS))
def test_rounds_hold_every_kind(workload):
    kinds, _ = workloads.WORKLOADS[workload]
    ops = _inputs(workload, 3, n=len(kinds) * 4)
    for r in range(4):
        got = sorted(kind for kind, _ in ops[r * len(kinds):(r + 1) * len(kinds)])
        assert got == sorted(kinds)


# -- the timed draws keep clear of the known defects ------------------------------

def _argv_value(argv, flag):
    return float(argv[argv.index(flag) + 1])


def test_timed_draws_keep_clear_of_the_known_defects():
    for op in itertools.islice(workloads.operations("oracle", 2), 100):
        if op.kind == "osc-inv-sq":
            assert 0.5 <= op.params["b"] <= 2.45
        if op.kind == "rosen-morse":
            assert op.params["levels"] == 1
    hyperbolic = [op for op in itertools.islice(workloads.operations("series", 2), 300)
                  if op.params["hyperbolic"]]
    assert len(hyperbolic) > 50
    assert all(_argv_value(op.params["argv"], "-N") <= 120 for op in hyperbolic)
    for op in itertools.islice(workloads.operations("quadrature", 2), 100):
        if op.kind == "pollaczek":
            assert op.params["tol"] == workloads.POLLACZEK_TOL < 1e-7


@pytest.mark.parametrize("workload", sorted(workloads.WORKLOADS))
def test_every_workload_has_known_defect_probes(workload):
    probes = workloads.known_defect_probes(workload)
    assert probes and all(op.index < 0 for _, op in probes)


# -- failures are attributed to a defect by their symptom -------------------------

def test_osc_wall_defect_matches_its_two_symptoms_only():
    defect = workloads._osc_wall_defect
    miss = "verification failed: worst relative deviation 0.00432 > 0.001"
    refusal = "error: h^2 max|U| = 0.102 >= 0.1; reduce h below 0.00386"
    assert defect(0.3, 2, miss) == defect(2.7, 1, refusal) == "osc-wall-grid"
    assert defect(1.0, 2, miss) is None  # inside the range the grid verifies
    assert defect(2.7, 2, miss) is None and defect(0.3, 1, refusal) is None
    assert defect(0.3, -1, "Traceback (most recent call last)") is None


def test_rosen_morse_defect_needs_a_documented_symptom():
    A, B = 1.0909776239648397, -8.47068572261849  # two true levels, level 1 wrong
    defect = workloads._rosen_morse_defect
    assert defect(A, B, 2, "verification failed: worst relative deviation 0.499") == "roadmap-3"
    assert defect(A, B, 0, "1 levels, expected 2") == "roadmap-3"
    assert defect(A, B, -1, "Traceback (most recent call last)") is None
    assert defect(0.5, -2.0, 2, "verification failed") is None  # one level: program right


def _hyperbolic_series_op():
    for op in workloads.operations("series", 1):
        argv = op.params["argv"]
        if op.kind == "ho" and float(argv[argv.index("--a") + 1]) > 1.0:
            return op, int(argv[argv.index("--samples") + 1])


def test_roadmap_4_needs_exit_0_and_an_overflow():
    op, samples = _hyperbolic_series_op()
    nan_csv = "x,psi,tail_estimate\n" + "0.0,nan,nan\n" * samples
    assert op.check((0, nan_csv, "")).defect == "roadmap-4"
    for result in [(-1, "", "Traceback (most recent call last)"), (1, "", "error: x")]:
        outcome = op.check(result)
        assert not outcome.ok and outcome.defect is None


def test_a_raising_operation_is_one_unexplained_failure():
    def run():
        raise triwave.exceptions.AccuracyError("no convergence")

    out = workloads._returning_exceptions(run)()
    outcome = workloads._checking_exceptions(lambda result: pytest.fail("checked"))(out)
    assert not outcome.ok and outcome.defect is None and "AccuracyError" in outcome.reason
    outcome = workloads._checking_exceptions(lambda result: 1 / 0)("output")
    assert not outcome.ok and outcome.defect is None and "ZeroDivisionError" in outcome.reason


# -- the traced run puts every attribute back ------------------------------------

def _current():
    return {(m, a): getattr(importlib.import_module("triwave." + m), a)
            for m, a in tracing.LAYERS}


def test_patching_is_restored_after_a_traced_run():
    before = _current()
    tracer = tracing.Tracer()
    op = next(op for op in workloads.operations("quadrature", 1) if op.kind == "gauss")
    workloads.clear_caches()
    with tracer.patched():
        inside = _current()
        with tracer.operation(op.index):
            op.run()
    assert all(inside[k] is not before[k] and inside[k].__wrapped__ is before[k]
               for k in before)
    assert all(_current()[k] is before[k] for k in before)
    assert tracer.calls["oracle.gauss_rule"] == 1
    assert tracer.counts["oracle.gauss_rule.nodes_built"] == op.params["nodes"]


def test_patching_is_restored_when_the_run_raises():
    before = _current()
    with pytest.raises(RuntimeError):
        with tracing.Tracer().patched():
            raise RuntimeError("boom")
    assert all(_current()[k] is before[k] for k in before)


# -- host-speed scaling ---------------------------------------------------------

def test_host_speed_scale_is_reference_over_mean_kernel_time():
    clock = _Clock()  # every reading advances one unit: each kernel pass takes 1
    speed = calibration.HostSpeed(clock=clock)
    speed.sample()  # one unit has passed: one pass per SAMPLE_EVERY_S of it
    passes = int(1 / calibration.SAMPLE_EVERY_S)
    assert speed.samples == [1.0] * passes
    speed.sample()  # one more unit since the last pass
    assert len(speed.samples) == 2 * passes
    assert speed.scale() == pytest.approx(calibration.REFERENCE_S)


def test_host_speed_forced_sample_runs_one_pass_when_none_is_due():
    speed = calibration.HostSpeed(clock=lambda: 0.0)  # time stands still
    speed.sample()
    assert speed.samples == []
    speed.sample(force=True)
    assert speed.samples == [0.0]


def test_host_speed_caps_the_passes_after_a_long_operation():
    clock = _Clock()
    speed = calibration.HostSpeed(clock=clock)
    clock.t += 1000.0
    speed.sample()
    assert len(speed.samples) == calibration.MAX_PASSES
