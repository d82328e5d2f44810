"""Host-speed reference for the benchmark's timings.

On a shared 2-vCPU virtual machine (Python 3.11.7, numpy 2.4.6) the CPU
speed seen by one process drifted by up to 2x within minutes: a fixed
harmonic-oscillator solve took 1.4-3.1 s, and ten runs taken twenty
minutes apart differed in median by 30-50% with no code change.  Raw wall
times therefore cannot separate a code change from the host.  Every timing
the benchmark reports is scaled to a reference speed instead:

    reported = measured * REFERENCE_S / mean(kernel time during the run)

The kernel is fixed benchmark code mixing the program's kinds of work
(a Python loop over small numpy vectors as in a Sturm sweep, a pure-Python
list loop as in inverse iteration, whole-array numpy arithmetic as in series
evaluation), sampled between operations at regular wall-time intervals, so
its mean tracks the host's mean speed over the run.  One pass varies by up
to 2x from the next, more than the operations do, so the kernel runs about
once per SAMPLE_EVERY_S of the run (1% of its time): over 20 s runs of one
fixed operation, raw mean times of five runs spread over 2.02-2.43 s and
scaled ones over 886-933 reference units.  A change to triwave moves the
measured times and not the kernel, so it moves the reported times by the
same factor it would on a steady host.
"""

from __future__ import annotations

import time

import numpy as np

# Kernel time on that virtual machine at its fast state.  Only the scale
# of the reported seconds depends on it.
REFERENCE_S = 0.002
SAMPLE_EVERY_S = 0.2
MAX_PASSES = 50

_DIAG = np.linspace(2.0, 3.0, 400)
_OFF2 = np.full(400, 0.25)
_SHIFTS = np.linspace(1.03, 3.97, 16)
_VALUES = np.linspace(0.0, 1.0, 4096)


def kernel_seconds(clock=time.perf_counter):
    """Wall time of one pass of the reference kernel."""
    t0 = clock()
    q = _DIAG[0] - _SHIFTS
    count = (q < 0.0).astype(np.int64)
    for i in range(1, _DIAG.size):
        q = _DIAG[i] - _SHIFTS - _OFF2[i - 1] / q
        count += q < 0.0
    rows = [float(v) for v in _DIAG]
    acc = 0.0
    for i in range(1, len(rows)):
        acc += rows[i] * rows[i - 1] / (1.0 + rows[i])
    w = _VALUES.copy()
    for _ in range(20):
        w = np.sqrt(w * 0.5 + 0.25) * np.exp(-w)
    return clock() - t0


class HostSpeed:
    """Kernel samples taken through a run: call sample() between
    operations.  It runs one kernel pass for every SAMPLE_EVERY_S passed
    since its last passes (at most MAX_PASSES), so the samples spread evenly
    over the run's wall time however long its operations take."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.samples = []
        self._last = clock()

    def sample(self, force=False):
        due = int((self.clock() - self._last) / SAMPLE_EVERY_S)
        passes = min(due, MAX_PASSES) or int(force)
        for _ in range(passes):
            self.samples.append(kernel_seconds(self.clock))
        if passes:
            self._last = self.clock()

    def scale(self):
        """Factor that turns a measured time into reference seconds."""
        return REFERENCE_S * len(self.samples) / sum(self.samples)
