"""Reference-speed clock: timings that do not move with the speed of the host.

The benchmark runs on a few virtual cores of a shared host.  Their speed
drifts by tens of percent over seconds to minutes, and up to twofold, as
other tenants load the machine, and CPU time drifts with wall time, so a raw
wall time measures the neighbours as much as the program.  While a
``RefClock`` section runs, a SIGALRM timer interrupts it every ``PERIOD_S``
seconds to time a fixed reference kernel of the benchmark's own code, so no
change to strz can move it.  Each sample stands for an equal slice of the
section's wall time, in which the work done is inversely proportional to the
kernel time; the section's time less the time spent in the kernel is
therefore scaled by ``NOMINAL_REF_S / harmonic mean of the kernel times``.
It reads as seconds on a CPU on which the kernel takes ``NOMINAL_REF_S``.

The kernel mixes the kinds of work the solvers do: 2D FFTs, dense complex
128x128 matrix products (as in the interpolation of ``rescale_field``),
complex phase factors exp(i V dt) on an L2-resident grid, and interpreted
Python.  On a 2-vCPU VM, over 100-150 s of split steps cut into 2 s
windows, the time per step varied by 9-16 % (coefficient of variation) in
raw wall time and by 2-5 % once rescaled by this kernel.  A 32^3 FFT and a
Python loop as the kernel left 7.8 % on pseudoconformal_2d; the arithmetic
mean or the median of the kernel times in place of the harmonic mean left
up to 6.6 % (pseudoconformal_2d) and 8.7 % (standing_wave_3d).
"""
from __future__ import annotations

import contextlib
import signal
import statistics
import time
from dataclasses import dataclass, field
from typing import List

import numpy as np

PERIOD_S = 0.05
NOMINAL_REF_S = 4.0e-3  # fixed once; changing it rescales every reported time
IDLE_SAMPLES = 5  # kernel runs timed after sections too short to be sampled

_rng = np.random.default_rng(0)
_PLANE = _rng.standard_normal((128, 128)) * (1 + 1j)
_POTENTIAL = _rng.standard_normal((128, 128))
_INTERP = _rng.standard_normal((128, 128)) * (1 + 1j)


def reference_kernel() -> None:
    for _ in range(2):
        np.fft.ifft2(np.fft.fft2(_PLANE))
        _INTERP @ _PLANE
    u = _PLANE
    for _ in range(4):
        u = u * np.exp(1j * _POTENTIAL)
    acc = 0
    for i in range(7000):
        acc += i * i


def time_kernel() -> float:
    start = time.perf_counter()
    reference_kernel()
    return time.perf_counter() - start


@dataclass
class Section:
    """One timed section: its wall time and the kernel times taken inside it."""

    wall_s: float = 0.0
    ref_s: List[float] = field(default_factory=list)

    @property
    def own_s(self) -> float:
        """Wall time less the time the reference kernel took."""
        return self.wall_s - sum(self.ref_s)


class WallClock:
    """Plain wall time: sections are not interrupted and are not rescaled."""

    @contextlib.contextmanager
    def section(self):
        sec = Section()
        start = time.perf_counter()
        try:
            yield sec
        finally:
            sec.wall_s = time.perf_counter() - start


class RefClock(WallClock):
    """Samples the reference kernel inside each section and rescales by it."""

    def __init__(self, period_s: float = PERIOD_S):
        self.period_s = period_s
        reference_kernel()  # FFT plans and caches warm before the first sample

    @contextlib.contextmanager
    def section(self):
        sec, sampling = Section(), True

        def sample(signum, frame):
            if sampling:  # a signal still pending once the timer is disarmed is dropped
                sec.ref_s.append(time_kernel())

        old = signal.signal(signal.SIGALRM, sample)
        try:
            start = time.perf_counter()
            signal.setitimer(signal.ITIMER_REAL, self.period_s, self.period_s)
            try:
                yield sec
            finally:
                signal.setitimer(signal.ITIMER_REAL, 0, 0)  # disarm before the handler goes
                sampling = False
                sec.wall_s = time.perf_counter() - start
        finally:
            signal.signal(signal.SIGALRM, old)

    def scaled(self, sections: List[Section], pooled: bool = False) -> List[float]:
        """Each section's own time at the nominal kernel speed, by the kernel
        times taken inside it, or by those of all ``sections`` when it has
        none or when ``pooled`` asks for that: sections far shorter than
        ``PERIOD_S`` hold zero or one sample each."""
        everything = [t for s in sections for t in s.ref_s] or [
            time_kernel() for _ in range(IDLE_SAMPLES)]
        return [s.own_s * NOMINAL_REF_S
                / statistics.harmonic_mean(everything if pooled or not s.ref_s else s.ref_s)
                for s in sections]
