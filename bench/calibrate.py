"""A fixed calibration kernel that measures the host's current speed.

The benchmark runs on a few cores of a shared host whose speed swings by a
factor of two within seconds, in CPU time as much as in wall time.  While an
untraced pass runs, :class:`Sampler` therefore interrupts it every
``PERIOD_S`` seconds (SIGALRM) and times a few steps of :func:`kernel` on the
same thread.  An instance's calibrated time is its wall time minus the time
spent in the kernel, scaled by the kernel's reference speed over its mean
speed during the instance:

    calibrated = (wall - kernel time) * REFERENCE_STEP_S / mean step time

The kernel mixes interpreted Python with numpy calls on arrays of a few
entries, the same mix as latfact's estimators and ascents, so a slower host
slows both alike.  It calls nothing in latfact, so a change to the library
moves the calibrated times in full.  ``REFERENCE_STEP_S`` is the kernel's
median step time on the 2-core Intel Xeon VM the benchmark was written on;
calibrated times are in seconds at that speed.
"""

from __future__ import annotations

import signal
from time import perf_counter

import numpy as np

REFERENCE_STEP_S = 25e-6
STEPS = 6000  # one kernel_seconds() call, about 0.15 s
SAMPLE_STEPS = 100  # one sample of the Sampler, about 2.5 ms
PERIOD_S = 0.05


_A = np.random.default_rng(0).standard_normal((8, 8))


def kernel(steps: int) -> float:
    """Fixed work: a normalized power iteration with a nonlinear map."""
    A = _A
    x = np.ones(8)
    acc = 0.0
    for _ in range(steps):
        y = A @ x
        m = np.abs(y).max()
        x = np.sign(y) * np.abs(y / m) ** 1.5 + 0.01
        x /= np.linalg.norm(x, 3.0)
        acc += float(np.sum(x * y)) + sum(v * v for v in x.tolist())
    return acc


def kernel_seconds(steps: int = STEPS) -> float:
    """Wall time of one kernel call."""
    start = perf_counter()
    kernel(steps)
    return perf_counter() - start


def scale(step_seconds: float) -> float:
    """Factor that turns a wall time into seconds at the reference speed."""
    return REFERENCE_STEP_S / step_seconds


class Sampler:
    """Context manager that samples the kernel's speed while it is open.

    The samples run on the calling thread, between the bytecodes of
    whatever it is running; they touch no state but their own.
    """

    def __init__(self):
        self.samples: list[tuple[float, float]] = []  # (start, seconds)
        self._previous = None

    def _sample(self, *_) -> None:
        start = perf_counter()
        kernel(SAMPLE_STEPS)
        self.samples.append((start, perf_counter() - start))

    def __enter__(self):
        self._sample()
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
        signal.signal(signal.SIGALRM, self._previous)
        return False

    def calibrated(self, start: float, end: float) -> float:
        """Calibrated seconds of the interval [start, end] of this thread.

        Without a sample inside the interval, the latest one before it
        gives the speed.
        """
        inside = [s for s in self.samples if start <= s[0] < end]
        kernel_time = sum(seconds for _, seconds in inside)
        speed = inside or [max(s for s in self.samples if s[0] < end)]
        step = sum(seconds for _, seconds in speed) / (len(speed) * SAMPLE_STEPS)
        return (end - start - kernel_time) * scale(step)
