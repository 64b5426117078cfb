"""Host-speed calibration for the benchmark's timings.

On a shared host the speed of a core drifts by a third or more, in spells
that last from a second to tens of seconds, and a spell slows every wall
time of a sample alike, program and benchmark code.  :func:`measure` times
a fixed kernel that belongs to the benchmark, not to the program:
interpreted dict and integer loops plus numpy sorts and scans over arrays of
the size the engine works on.  A sample runs it right after its set-up and
right after its sweep, and :func:`scale` turns the two readings into the
factor that gives the sample's times as seconds on a reference host, one
that runs the kernel in ``REFERENCE_S``.  A change to the program moves the
scaled times; a change of host speed moves the kernel and the program alike
and cancels.  Each reading is the fastest of a few runs, so that a short
stall during the kernel does not count as a slow host.
"""

from __future__ import annotations

import time
from typing import Dict, List

import numpy as np

#: Kernel time of the reference host, in seconds (about what a 2-core
#: Intel Xeon guest takes when its host is quiet).
REFERENCE_S = 0.030

#: Kernel runs per reading.
REPEATS = 3

_N = 60_000


def kernel() -> int:
    """One fixed, deterministic unit of work; returns a checksum."""
    counts: Dict[int, int] = {}
    total = 0
    for i in range(20_000):
        key = (i * 7919) & 1023
        counts[key] = counts.get(key, 0) + 1
        total += key % 13
    rng = np.random.default_rng(12345)
    values = rng.random(_N)
    codes = rng.integers(0, 64, _N)
    for _ in range(3):
        order = np.argsort(values, kind="stable")
        values = np.cumsum(values[order]) % 1.0
        total += int(np.bincount(codes, minlength=64).argmax())
        total += int(np.searchsorted(np.sort(values), 0.5))
    return total + len(counts)


def measure() -> List[float]:
    """Wall times of ``REPEATS`` kernel runs, in seconds."""
    times = []
    for _ in range(REPEATS):
        started = time.perf_counter()
        kernel()
        times.append(time.perf_counter() - started)
    return times


def scale(calibration: Dict[str, List[float]]) -> float:
    """Factor from this sample's host seconds to reference seconds.

    ``calibration`` holds the ``before`` and ``after`` readings of one
    sample; the host speed of the sample is the mean of their fastest runs.
    """
    kernel_s = (min(calibration["before"]) + min(calibration["after"])) / 2
    return REFERENCE_S / kernel_s
