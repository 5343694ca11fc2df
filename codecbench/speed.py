"""How fast the machine runs right now, from a fixed reference kernel.

On a shared virtual machine the same code runs at speeds that drift by tens
of percent over seconds to minutes, as other tenants come and go.  The
reference kernel is a fixed mix of the work the codec does per call:
interpreted integer arithmetic like the range coder's and numpy calls on
tiny arrays like a small tensor's planes.  It runs nothing of the codec, so
a change to the codec cannot change its time.

SpeedGauge times the kernel between codec calls.  A call's time multiplied by
REFERENCE_S over the kernel's time around it is the time the call would take
on a machine that runs the kernel in REFERENCE_S: the drift cancels and a
change to the codec's own speed remains.

The machine switches between a fast and a slow state within fractions of a
second, so samples taken before and after a call tell its speed only when
the call is short.  A call of LONG_CALL_S or more spans many switches that
those samples cannot see, and its wall time counts as it is: on image-full
every call is that long, on prefix-ladder and small-tiles none is.
"""

from __future__ import annotations

import time

import numpy as np

__all__ = ["REFERENCE_S", "SpeedGauge", "reference_kernel"]

# The kernel's typical time on the 2-vCPU, 2.1 GHz machine the README's
# figures come from, so that scaled calls and the wall time of long calls
# share one scale there.
REFERENCE_S = 0.85e-3
LONG_CALL_S = 1.0
INTERVAL_S = 0.1       # calls between kernel samples, in seconds
SHARE = 0.02           # kernel time per sample over the calls it follows
MIN_REPEATS = 3
MAX_REPEATS = 50

_TINY = np.linspace(0.0, 1.0, 9)


def reference_kernel() -> float:
    """About a millisecond of fixed work; returns a value so none is skipped."""
    x = 0
    for i in range(1500):
        x = (x * 1103515245 + i) & 0xFFFFFFFF
        if x >> 31:
            x ^= 0x5BD1E995
    acc = 0.0
    for _ in range(100):
        acc += float(np.cumsum(_TINY * 3.0)[4])
    return acc + x


class SpeedGauge:
    """Converts wall-clock call times to reference-speed times.

    Calls are held until the next kernel sample, taken once at least
    INTERVAL_S of calls have accumulated, and at flush().  A sample is the
    fastest of several kernel runs, enough of them to cost about SHARE of
    the calls it follows: the fastest run skips the cold start after a large
    call, while a slow phase of the machine slows every run.  Each held call
    is scaled by REFERENCE_S over the mean of the samples before and after it.
    """

    def __init__(self) -> None:
        self.samples: list[float] = []
        self._pending: list[tuple[float, object]] = []
        self._pending_s = 0.0
        self._last = self._sample(MAX_REPEATS)

    def _sample(self, repeats: int) -> float:
        times = []
        for _ in range(repeats):
            start = time.perf_counter()
            reference_kernel()
            times.append(time.perf_counter() - start)
        secs = min(times)
        self.samples.append(secs)
        return secs

    def add(self, secs: float, sink) -> None:
        """Hold one call of `secs` wall seconds; sink(ref_secs) receives its
        reference-speed time once the sample after it is taken.  A call of
        LONG_CALL_S or more goes to sink at once, unscaled."""
        if secs >= LONG_CALL_S:
            sink(secs)
            return
        self._pending.append((secs, sink))
        self._pending_s += secs
        if self._pending_s >= INTERVAL_S:
            self.flush()

    def flush(self) -> None:
        if not self._pending:
            return
        repeats = round(SHARE * self._pending_s / REFERENCE_S)
        now = self._sample(min(max(repeats, MIN_REPEATS), MAX_REPEATS))
        scale = REFERENCE_S / (0.5 * (self._last + now))
        for secs, sink in self._pending:
            sink(secs * scale)
        self._pending = []
        self._pending_s = 0.0
        self._last = now
