"""Machine-speed calibration for the end-to-end timings.

The machine this benchmark was tuned on (a shared 2-core VM) changes
speed by 10–30 % over minutes: a fixed numpy kernel timed in ten
consecutive 12-second windows gave medians from 18.4 to 25.8 ms.  A
wall-clock median therefore drifts between runs by more than most
regressions worth catching.

So every timed interval is bracketed by :func:`calibrate`, a fixed
CPU kernel that touches nothing of the program, and reported scaled to
the speed at which that kernel takes :data:`REFERENCE_S`:

    adjusted = measured × REFERENCE_S / calibration

where ``calibration`` is the mean of the kernel's times just before
and just after the interval.  A slower program raises the adjusted
time; a slower machine raises both factors and cancels.  The raw
medians are printed beside the adjusted ones.
"""

from __future__ import annotations

import statistics
import time

import numpy as np

#: The calibration kernel's typical time on the tuning machine; it only
#: sets the scale, so adjusted times read as seconds there.
REFERENCE_S = 0.017

_RNG = np.random.default_rng(20200323)
_VALUES = _RNG.random(250_000)
_KEYS = _RNG.integers(0, 4096, 250_000)


def _kernel() -> None:
    # A little of what the pipeline does: sorting, grouping, weighted
    # counts and interpreted bookkeeping.
    np.sort(_VALUES)
    np.unique(_KEYS)
    np.bincount(_KEYS, weights=_VALUES)
    totals: dict[int, int] = {}
    for index in range(20_000):
        totals[index & 1023] = totals.get(index & 1023, 0) + index


def calibrate(repeats: int = 5) -> float:
    """Median seconds of ``repeats`` runs of the calibration kernel."""
    times = []
    for _ in range(repeats):
        start = time.perf_counter()
        _kernel()
        times.append(time.perf_counter() - start)
    return statistics.median(times)


def adjust(seconds: float, before: float, after: float) -> float:
    """``seconds`` at reference speed, given the calibrations around it."""
    return seconds * REFERENCE_S * 2.0 / (before + after)
