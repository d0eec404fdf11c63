"""Samples the speed the host gives this process while an operation runs.

On a shared machine the process gets a share of a core that changes
from one second to the next, so the raw wall time of one operation
swings by tens of percent.  While a ``HostSpeedProbe`` is active, a
SIGALRM timer interrupts the process every ``INTERVAL_S`` and runs a
short fixed kernel, timing it.  The kernel calls no agequil code, so a
change to the program cannot move its time; only the host's speed does.

Usage::

    start = perf_counter()
    with HostSpeedProbe() as probe:
        agequil.cli.main(argv)
    wall = perf_counter() - start - probe.busy_s
    rescaled = wall * probe.speed()

``busy_s`` is the time the kernel slices took, so ``wall`` is the
operation's own time.  ``speed()`` is the mean over the samples of
``REFERENCE_SLICE_S / slice time``: 1 at the reference speed, below 1
on a slow stretch.  The first sample is taken on entry, so every probe
has at least one.  The signal is only handled between Python bytecodes,
so a long call into compiled code delays the next sample until it
returns.
"""

from __future__ import annotations

import signal
import statistics
from time import perf_counter

import numpy as np

INTERVAL_S = 0.2
SLICE_REPS = 450
# a slice takes about this long on the 2-core VM the benchmark was
# written on, so a rescaled wall time reads close to a raw one there
REFERENCE_SLICE_S = 0.02

_N = 40
_LOWER = np.full(_N - 1, -1.0)
_DIAG = np.full(_N, 2.5)
_UPPER = np.full(_N - 1, -1.0)
_RHS = np.linspace(0.0, 1.0, _N)


def kernel_slice() -> float:
    """Wall time of a fixed piece of work shaped like the solver's inner loops.

    A forward Thomas sweep over 40 unknowns in interpreted Python plus a
    few small-array numpy calls, repeated ``SLICE_REPS`` times.
    """
    start = perf_counter()
    for _ in range(SLICE_REPS):
        c, d = np.empty(_N - 1), np.empty(_N)
        c[0], d[0] = _UPPER[0] / _DIAG[0], _RHS[0] / _DIAG[0]
        for i in range(1, _N - 1):
            m = _DIAG[i] - _LOWER[i - 1] * c[i - 1]
            c[i] = _UPPER[i] / m
            d[i] = (_RHS[i] - _LOWER[i - 1] * d[i - 1]) / m
        np.dot(d[-2:], _RHS[-2:]) + (0.5 * _RHS + _DIAG).sum()
    return perf_counter() - start


def sample_speed() -> float:
    """The host's speed now, from five kernel slices in a row."""
    return statistics.fmean(REFERENCE_SLICE_S / kernel_slice() for _ in range(5))


class HostSpeedProbe:
    """Times a kernel slice on entry and every INTERVAL_S until exit."""

    def __init__(self) -> None:
        self.samples: list[float] = []

    def __enter__(self) -> HostSpeedProbe:
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        self._tick()
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc: object) -> None:
        # disarm before restoring, so no alarm reaches the old handler
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, self._previous)

    def _tick(self, *_: object) -> None:
        self.samples.append(kernel_slice())

    @property
    def busy_s(self) -> float:
        return sum(self.samples)

    def speed(self) -> float:
        return statistics.fmean(REFERENCE_SLICE_S / s for s in self.samples)
