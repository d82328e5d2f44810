"""Spans and counters around the program's public functions, for the traced run.

The traced run swaps each function named in LAYERS for a wrapper on its
module and puts the original back afterwards.  The program's modules reach
one another through module attributes (``oracle.gauss_rule``,
``md.spectrum``) and their own globals, so in-module calls go through the
wrappers too.  Wrappers record only while an operation is open; outside one
(the benchmark's checks) they pass straight through.

A span records its name, start, end, parent and operation id.  Spans are kept
for the open operation only and folded into per-layer totals when it ends,
so a long run holds one operation's spans at a time.
"""

from __future__ import annotations

import contextlib
import importlib
import inspect
import time
from collections import Counter
from dataclasses import dataclass

import numpy as np

# (module, function) for every traced layer, outermost first.
LAYERS = (
    ("cli", "main"),
    ("models", "spectrum"),
    ("models", "recursion_for"),
    ("models", "wavefunction"),
    ("operators", "solve_recursion"),
    ("operators", "numeric_jmatrix"),
    ("basis", "overlap_matrix"),
    ("basis", "scaled_polynomials"),
    ("basis", "normalization"),
    ("oracle", "grid_solve"),
    ("oracle", "gauss_rule"),
    ("oracle", "tridiagonal_eigenvalues"),
    ("oracle", "tridiagonal_eigenvector"),
    ("oracle", "adaptive_quad"),
    ("orthopoly", "weight_eval"),
    ("orthopoly", "log_gamma_abs_squared"),
)

# The benchmark's own span around each operation; its self time is the part
# of the operation spent outside every traced layer.
OP_SPAN = "op"

# Counters per layer, each derived from the call's bound arguments and result.
COUNTERS = {
    "oracle.tridiagonal_eigenvalues": ("rows", "eigenvalues"),
    "oracle.tridiagonal_eigenvector": ("rows",),
    "oracle.grid_solve": ("points", "levels"),
    "oracle.gauss_rule": ("hits", "nodes_built"),
    "oracle.adaptive_quad": ("evals",),
    "operators.solve_recursion": ("terms",),
    "basis.scaled_polynomials": ("values",),
}


@dataclass(slots=True)
class Span:
    name: str
    op: int
    parent: int | None
    start: float
    end: float


def covered_length(intervals, lo, hi):
    """Length of the union of the intervals, clipped to [lo, hi]."""
    total = 0.0
    cur_start = cur_end = None
    for start, end in sorted(intervals):
        start, end = max(start, lo), min(end, hi)
        if end <= start:
            continue
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        else:
            cur_end = max(cur_end, end)
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def self_times(spans):
    """Self time of each span: its duration minus the part of it that its
    child spans cover."""
    children = [[] for _ in spans]
    for span in spans:
        if span.parent is not None:
            children[span.parent].append(span)
    return [s.end - s.start
            - covered_length([(c.start, c.end) for c in children[i]], s.start, s.end)
            for i, s in enumerate(spans)]


class Tracer:
    """Records spans and counters for one traced run."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.calls = Counter()
        self.self_s = Counter()
        self.total_s = Counter()
        self.counts = Counter()
        self.ops = 0
        self._op = None
        self._spans = []
        self._stack = []
        self._gauss_keys = set()

    # -- spans --------------------------------------------------------------

    def _open(self, name):
        parent = self._stack[-1] if self._stack else None
        self._spans.append(Span(name, self._op, parent, self.clock(), 0.0))
        self._stack.append(len(self._spans) - 1)

    def _close(self):
        self._spans[self._stack.pop()].end = self.clock()

    @contextlib.contextmanager
    def operation(self, op_id):
        """Open an operation: its root span, and a fresh view of the Gauss
        rule cache, which the benchmark clears before every operation."""
        self._op = op_id
        self._gauss_keys = set()
        self._open(OP_SPAN)
        try:
            yield
        finally:
            self._close()
            self._op = None
            self._fold()

    def _fold(self):
        for span, own in zip(self._spans, self_times(self._spans)):
            self.calls[span.name] += 1
            self.self_s[span.name] += own
            self.total_s[span.name] += span.end - span.start
        self.ops += 1
        self._spans = []
        self._stack = []

    # -- wrappers -----------------------------------------------------------

    def _count(self, name, args):
        """Add the counters of one call; args are its bound arguments, plus
        'result'."""
        c = self.counts
        if name == "oracle.tridiagonal_eigenvalues":
            c[name + ".rows"] += np.size(args["diag"])
            c[name + ".eigenvalues"] += np.size(args["result"])
        elif name == "oracle.tridiagonal_eigenvector":
            c[name + ".rows"] += np.size(args["diag"])
        elif name == "oracle.grid_solve":
            c[name + ".points"] += args["result"].x.size
            c[name + ".levels"] += args["result"].eigenvalues.size
        elif name == "oracle.gauss_rule":
            wid = args["weight_id"]
            key = ((wid[0],) + tuple(float(v) for v in wid[1:]), int(args["n"]))
            if key in self._gauss_keys:
                c[name + ".hits"] += 1
            else:
                self._gauss_keys.add(key)
                c[name + ".nodes_built"] += int(args["n"])
        elif name == "operators.solve_recursion":
            c[name + ".terms"] += int(args["N"])
        elif name == "basis.scaled_polynomials":
            c[name + ".values"] += (int(args["nmax"]) + 1) * np.size(args["y"])

    def _counting_integrand(self, f):
        """The integrand of adaptive_quad, counting the points it is
        evaluated at."""
        def counted(x):
            self.counts["oracle.adaptive_quad.evals"] += np.size(x)
            return f(x)
        return counted

    def wrap(self, name, fn):
        sig = inspect.signature(fn) if name in COUNTERS else None

        def wrapper(*args, **kwargs):
            if self._op is None:
                return fn(*args, **kwargs)
            if name == "oracle.adaptive_quad":
                args = (self._counting_integrand(args[0]),) + args[1:]
            self._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close()
            if sig is not None:
                bound = sig.bind(*args, **kwargs).arguments
                bound["result"] = result
                self._count(name, bound)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    @contextlib.contextmanager
    def patched(self):
        """Install the wrappers on the program's modules; restore the
        originals on exit, whatever happens inside."""
        saved = []
        try:
            for module_name, attr in LAYERS:
                module = importlib.import_module("triwave." + module_name)
                original = getattr(module, attr)
                saved.append((module, attr, original))
                setattr(module, attr, self.wrap(module_name + "." + attr, original))
            yield self
        finally:
            for module, attr, original in reversed(saved):
                setattr(module, attr, original)

    # -- results ------------------------------------------------------------

    def layer_metrics(self, scale=1.0):
        """Per-layer metrics as {name: (value, unit)}, per operation; times
        are multiplied by scale (reference seconds per measured second)."""
        ops = max(self.ops, 1)
        out = {}
        for module_name, attr in ((None, OP_SPAN),) + LAYERS:
            name = attr if module_name is None else module_name + "." + attr
            if module_name is not None:
                out[name + ".calls"] = (self.calls[name] / ops, "count/op")
            out[name + ".self_s"] = (self.self_s[name] * scale / ops, "s/op")
            out[name + ".total_s"] = (self.total_s[name] * scale / ops, "s/op")
            for counter in COUNTERS.get(name, ()):
                if counter == "hits":
                    calls = self.calls[name]
                    out[name + ".hit_ratio"] = (
                        self.counts[name + ".hits"] / calls if calls else 0.0, "ratio")
                else:
                    out[name + "." + counter] = (self.counts[name + "." + counter] / ops,
                                                 "count/op")
        return out
