"""Machine-speed sampler: rescales wall times to a fixed reference speed.

On a shared virtual machine the speed of the CPU changes by up to about 2x
within seconds, so two runs of the same code can differ by more than an
optimisation would gain.  ``SpeedMeter`` samples that speed in-process, with no
thread: an interval timer raises SIGALRM every ``INTERVAL_S`` seconds, and the
handler times ``reference_loop``, a fixed piece of pure-Python work (Fraction
products and dict updates, like the program's exact kernel).  Python runs the
handler between bytecodes of the main thread, so a sample never overlaps the
program's own code.

``seconds(a, b)`` turns a wall interval into reference seconds: its wall time
without the sampler's own time, times ``REF_NOMINAL_S`` / (harmonic mean of the
reference-loop times sampled inside it).  That is the time the interval would
take on a machine where ``reference_loop`` takes ``REF_NOMINAL_S``.
``cpu_seconds(a, b, cpu)`` does the same for the process CPU time spent in the
interval.  The program does not run ``reference_loop``, so a change to the
program cannot move it.
"""

from __future__ import annotations

import bisect
import signal
import statistics
import time
from fractions import Fraction

INTERVAL_S = 0.02
REF_NOMINAL_S = 2.5e-4

_TERMS = [Fraction(7 * i + 1, i + 3) for i in range(8)]


def reference_loop() -> Fraction:
    total, partial = Fraction(0), {}
    for i, a in enumerate(_TERMS):
        for b in _TERMS:
            total += a * b
            partial[i] = total
    return total


class SpeedMeter:
    """Context manager: samples the reference speed while it is active."""

    def __init__(self):
        self.starts: list[float] = []      # start of each sample
        self.rates: list[float] = []       # 1 / reference-loop time of each sample
        self.own = [0.0]                   # cumulative wall time spent in samples
        self.own_cpu = [0.0]               # cumulative process CPU time spent in samples
        self._previous = None

    def __enter__(self) -> "SpeedMeter":
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)

    def _sample(self, signum, frame) -> None:
        c0, t0 = time.process_time(), time.perf_counter()
        reference_loop()
        t1, c1 = time.perf_counter(), time.process_time()
        self.starts.append(t0)
        self.rates.append(1.0 / (t1 - t0))
        self.own.append(self.own[-1] + (t1 - t0))
        self.own_cpu.append(self.own_cpu[-1] + (c1 - c0))

    def _window(self, a: float, b: float) -> tuple[int, int, float]:
        """Samples [i, j) taken inside [a, b], and the factor to reference seconds."""
        i = bisect.bisect_left(self.starts, a)
        j = bisect.bisect_right(self.starts, b)
        # an interval too short to hold a sample takes the speed of its neighbours
        rates = self.rates[i:j] or self.rates[max(i - 1, 0):i + 1]
        if not rates:
            raise RuntimeError("no speed sample taken yet")
        return i, j, REF_NOMINAL_S * statistics.fmean(rates)

    def seconds(self, a: float, b: float) -> tuple[float, float]:
        """(wall seconds of [a, b] without sampling, reference seconds of the same)."""
        i, j, factor = self._window(a, b)
        wall = b - a - (self.own[j] - self.own[i])
        return wall, wall * factor

    def cpu_seconds(self, a: float, b: float, cpu: float) -> float:
        """Reference seconds of ``cpu``, the process CPU time spent in [a, b], without sampling."""
        i, j, factor = self._window(a, b)
        return (cpu - (self.own_cpu[j] - self.own_cpu[i])) * factor
