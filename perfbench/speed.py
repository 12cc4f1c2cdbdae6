"""Machine-speed reference for the end-to-end times.

The cores of this kind of host are shared with other tenants, and the speed
they give one process drifts by tens of percent within a minute and more
between minutes; pure-Python code drifts most.  A wall time measured at one
moment is therefore not comparable with one measured at another.  What stays
comparable is the ratio of the workload's time to the time of a fixed
reference loop run in the same stretch of machine time, so the workload's
iteration time is reported at a nominal speed:

    scaled = measured * REF_S / mean(reference samples taken meanwhile)

`Sampler` takes the samples while a workload runs: an interval timer raises
SIGALRM every SAMPLE_PERIOD_S, and the handler runs the reference loop in the
main thread between two bytecodes of the program, so the two never run at the
same time.  The handler's own time is taken off the measured wall time.
"""

from __future__ import annotations

import signal
import time

REF_S = 0.03  # nominal reference-loop time; this host reads 0.025 to 0.04 s
SAMPLE_PERIOD_S = 0.5


class _Segment:
    __slots__ = ("a", "b")

    def __init__(self, a: float, b: float):
        self.a = a
        self.b = b

    def at(self, x: float) -> float:
        return self.a * x + self.b


def reference_loop(n: int = 20000) -> float:
    """Fixed pure-Python work of the kind the program does: float arithmetic,
    method calls, list indexing and float formatting."""
    segments = [_Segment(0.5 + k * 0.01, 0.25) for k in range(16)]
    acc = 0.0
    for i in range(n):
        x = (i % 97) * 0.013 + 0.5
        y = x
        for _ in range(3):
            y = 0.5 * (y + x / y)
        acc += abs(segments[i & 15].at(y) - x)
        acc += len(f"{y:.17g}")
    return acc


class Sampler:
    """Reference samples every SAMPLE_PERIOD_S while active (main thread only).

        with Sampler() as sampler:
            ...  # the workload
        sampler.stolen_s, sampler.samples
    """

    def __init__(self):
        self.samples: list[float] = []
        self.stolen_s = 0.0

    def _handler(self, signum, frame):
        t0 = time.perf_counter()
        reference_loop()
        self.samples.append(time.perf_counter() - t0)
        self.stolen_s += time.perf_counter() - t0

    def __enter__(self):
        self._previous = signal.signal(signal.SIGALRM, self._handler)
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_PERIOD_S, SAMPLE_PERIOD_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
        signal.signal(signal.SIGALRM, self._previous)
        if not self.samples:  # a workload shorter than one period
            self._handler(signal.SIGALRM, None)
        return False
