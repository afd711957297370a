"""Machine-speed reference: the benchmark's times at one fixed machine speed.

The 2-core VM this benchmark was defined on changed speed by up to a
factor of two within a minute, in CPU time as much as in wall time: one
analysis of a fixed matrix took 27 ms of CPU time in one 3 s window and
56 ms 48 s later.  Between analyses the loop therefore times a fixed
piece of work that does not touch cprank (:func:`reference_work`: small
eigendecompositions, determinants and elementwise numpy calls from a
Python loop, the mix of an analysis).  Each analysis is reported at the
speed at which that work takes ``REFERENCE_MS``: its wall time times
``REFERENCE_MS`` over the reference time measured around it.

A change to cprank moves the analyses and not the reference, so it shows
in full; a change in machine speed moves both, and cancels.  On that VM
the ratio of a fixed analysis's time to the reference time stayed
between 16.3 and 17.0 over four minutes in which the analysis's wall
time ranged from 40 to 51 ms.
"""

from __future__ import annotations

import statistics
import time

import numpy as np

import environment  # noqa: F401  (pins BLAS before numpy loads it)

# the reference's median time, in ms, on the 2-core 2.1 GHz Xeon VM the
# benchmark was defined on, in a fast minute; it only sets the scale
REFERENCE_MS = 2.0

# how often the loop samples the reference, and how many timed calls
# make one sample (their median)
SAMPLE_EVERY_S = 0.25
REPEATS = 3

_rng = np.random.default_rng(0)
_MATRICES = tuple(m @ m.T for m in (_rng.standard_normal((k, k)) for k in (3, 4, 6, 8, 12)))


def reference_work() -> None:
    """A fixed piece of work, about 2 ms, that uses no cprank code."""
    for _ in range(20):
        for S in _MATRICES:
            np.linalg.eigh(S)
            np.linalg.det(S[:3, :3])
            np.maximum(S, 0.0).sum()


def sample_ms() -> float:
    """The median time, in ms, of ``REPEATS`` calls of the reference work."""
    times = []
    for _ in range(REPEATS):
        t0 = time.perf_counter()
        reference_work()
        times.append(time.perf_counter() - t0)
    return 1e3 * statistics.median(times)


class Reference:
    """Reference samples taken between analyses, one at the start, one
    at most every ``SAMPLE_EVERY_S`` and one at :meth:`finish`."""

    def __init__(self) -> None:
        self.samples = [sample_ms()]
        self._last = time.perf_counter()

    def before_analysis(self) -> int:
        """Take a sample if one is due; the index of the latest sample."""
        if time.perf_counter() - self._last >= SAMPLE_EVERY_S:
            self.samples.append(sample_ms())
            self._last = time.perf_counter()
        return len(self.samples) - 1

    def finish(self) -> None:
        """Take the sample that closes the last interval."""
        self.samples.append(sample_ms())
        self._last = time.perf_counter()

    def reference_ms(self, index: int) -> float:
        """Reference time around an analysis that followed sample ``index``:
        the mean of that sample and the next."""
        return 0.5 * (self.samples[index] + self.samples[index + 1])


def scaled(wall: float, reference_ms: float) -> float:
    """A wall time, measured where the reference took ``reference_ms``, at
    the machine speed where it takes ``REFERENCE_MS``; in the same unit."""
    return wall * REFERENCE_MS / reference_ms
