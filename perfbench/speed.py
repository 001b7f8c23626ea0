"""Machine-speed probe: scales a pass's times to a fixed reference speed.

The benchmark runs on shared machines whose speed moves by ±30 % for minutes
at a time, so a pass's raw time says as much about its neighbours as about
the program.  While a pass runs, a ``SIGALRM`` timer interrupts it every
``INTERVAL_S`` and times a fixed snippet of exact ``Fraction`` arithmetic on
small dicts, the kind of work the program itself does.  The snippet does not
touch ``springerloc``, so a change to the program reaches its time only
through the state it leaves the machine in, such as cold caches.
The pass's times, less the snippet's own, are then scaled by
``REFERENCE_S`` ÷ (trimmed mean of the snippet's times): a time in seconds at
the speed at which the snippet takes ``REFERENCE_S``.  Slowing the program
slows its scaled times as much as its raw ones; the machine's common
slowdown cancels.

Usage::

    probe = SpeedProbe()
    probe.start()
    ...            # the timed work
    probe.stop()
    scaled = probe.scale(raw_seconds - probe.total_s)
"""

from __future__ import annotations

import gc
import signal
import statistics
import time
from fractions import Fraction

INTERVAL_S = 0.05
# The snippet's trimmed-mean time on the machine the baseline was taken on
# (2-core shared virtual machine, Intel Xeon, 2.1 GHz).
REFERENCE_S = 5.0e-4
# Passes too short for this many timer ticks are topped up after the work.
MIN_SAMPLES = 8

_COEFFS = [Fraction(i + 1, 2 * i + 3) for i in range(8)]
_ROW = {(i, i % 3): Fraction(i, 7) for i in range(16)}


def snippet() -> None:
    """Eliminate with a fixed row: 128 ``Fraction`` products and differences."""
    row = dict(_ROW)
    for c in _COEFFS:
        for key, v in _ROW.items():
            row[key] -= c * v


class SpeedProbe:
    def __init__(self) -> None:
        self.samples: list[float] = []
        self.total_s = 0.0  # the snippet's time inside the timed work

    def _sample(self, *_args) -> None:
        # No collection inside the snippet: it would scan the program's heap.
        enabled = gc.isenabled()
        gc.disable()
        t0 = time.perf_counter()
        snippet()
        self.samples.append(time.perf_counter() - t0)
        if enabled:
            gc.enable()

    def start(self) -> None:
        signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)
        self.total_s = sum(self.samples)
        while len(self.samples) < MIN_SAMPLES:
            self._sample()

    @property
    def snippet_s(self) -> float:
        """Mean snippet time without the fastest and slowest tenth."""
        ordered = sorted(self.samples)
        cut = len(ordered) // 10
        return statistics.fmean(ordered[cut:len(ordered) - cut])

    def scale(self, seconds: float) -> float:
        return seconds * REFERENCE_S / self.snippet_s
