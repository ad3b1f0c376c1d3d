"""Host speed, measured alongside the benchmark's operations.

On a shared two-core box the CPU's speed drifts: the same code runs up
to twice as slowly for stretches of a fraction of a second to minutes,
whatever this process does.  Raw timings across runs then spread by as
much as the drift.  So every time the benchmark reports is also given
on a *reference host*, one on which ``probe()`` takes ``REF_PROBE_S``:
each operation's CPU time is divided by how much slower than that the
probe ran while the operation ran.

Only CPU time is scaled that way.  The disk is the other half of the
reference host: each ``os.fsync`` counts ``REF_FSYNC_S``, because the
time a sync takes here jumps with other tenants' I/O.  The speed
while an operation runs is the mean of probes taken right before it,
right after it and every ``INTERVAL_S`` during it, from a ``SIGALRM``
handler.  Only the edge probes are taken while pool
workers run: a probe competing with them for the two cores would
measure that contention, not the host.  The probe is a fixed loop of the kinds of work
the library's kernels do per sample -- a bisect, arithmetic on a
seven-element array, a dict lookup, float conversions -- because an
integer-only loop slows down with the host by much less than they do.
It does not call the library, so a change to the library moves
operation times and leaves the probe alone.
"""

from __future__ import annotations

import math
import os
import signal
from bisect import bisect_right
from contextlib import contextmanager
from time import perf_counter

import numpy as np

#: The reference host: one probe takes exactly this long (about what
#: it takes on a quiet two-core box of 2026).
REF_PROBE_S = 1.5e-4
#: The reference host's disk: one ``os.fsync`` of a journal or cache
#: line takes this long (the median on a quiet two-core box of 2026).
REF_FSYNC_S = 1e-4
#: Probe period during an operation.
INTERVAL_S = 0.01

_X = np.linspace(0.0, 1.0, 7)
_Y = np.linspace(1.0, 2.0, 7)
_ENDS = [10, 20, 40, 80, 160]
_DIVISORS = {"offset": 1.0, "scale": 2.0}


def probe() -> float:
    """Seconds one fixed mixed Python/numpy loop takes right now."""
    start = perf_counter()
    total = 0.0
    for i in range(25):
        j = bisect_right(_ENDS, i * 7 % 170)
        a = _X * (_Y + j) + _DIVISORS["offset"]
        b = np.exp(-a / _DIVISORS["scale"])
        total += float(b.max()) + math.log1p(float(a.sum()))
    return perf_counter() - start


def edge() -> list:
    """Three probes in a row, taken between operations."""
    return [probe() for _ in range(3)]


def slowdown(probes: list) -> float:
    """How much slower than the reference host the probes ran."""
    return sum(probes) / len(probes) / REF_PROBE_S


def reference_seconds(elapsed: float, sampler: "Sampler", probes: list) -> float:
    """``elapsed`` host seconds, spent inside ``sampler``, on the reference host.

    The CPU part scales with the probes' slowdown; each ``os.fsync``
    the sampler saw costs ``REF_FSYNC_S`` instead of what it took.
    """
    cpu = elapsed - sampler.synced
    return cpu / slowdown(probes) + sampler.syncs * REF_FSYNC_S


class Sampler:
    """Watches the host inside a ``with`` block.

    With ``enabled``, probes the host every ``INTERVAL_S``.  The handler
    runs in the main thread between bytecodes, and also while the main
    thread waits on a lock or a pipe.  ``busy`` is the time the probes
    took, which the caller takes off the measured time.  Pool workers
    forked inside the block inherit no timer.

    Always counts this process's ``os.fsync`` calls into ``syncs`` and
    times them into ``synced``: the library makes every journal line
    and cache entry durable, and a disk wait neither follows the CPU's
    speed nor repeats from run to run.
    """

    def __init__(self, enabled: bool = True) -> None:
        self.enabled = enabled
        self.probes: list = []
        self.busy = 0.0
        self.syncs = 0
        self.synced = 0.0
        self._fsync = os.fsync
        if enabled:
            signal.signal(signal.SIGALRM, self._tick)

    def _tick(self, signum, frame) -> None:
        start = perf_counter()
        self.probes.append(probe())
        self.busy += perf_counter() - start

    def _timed_fsync(self, fd) -> None:
        busy, start = self.busy, perf_counter()
        try:
            self._fsync(fd)
        finally:
            self.syncs += 1
            self.synced += perf_counter() - start - (self.busy - busy)

    def __enter__(self) -> "Sampler":
        self.probes = []
        self.busy = 0.0
        self.syncs = 0
        self.synced = 0.0
        os.fsync = self._timed_fsync
        if self.enabled:
            signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc) -> None:
        if self.enabled:
            signal.setitimer(signal.ITIMER_REAL, 0, 0)
        os.fsync = self._fsync

    @contextmanager
    def paused(self, pause: bool = True):
        """No probes inside this block (when ``pause`` is true)."""
        if not (pause and self.enabled):
            yield
            return
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        try:
            yield
        finally:
            signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
