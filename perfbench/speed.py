"""Machine-speed probe: converts wall seconds to reference seconds.

Neighbours on a shared host slow every process on it, by up to 2x in
phases lasting seconds to minutes. Repeating work inside one run cannot
average out a phase that covers the whole run, so the benchmark scales
each measured interval by how fast the machine was around it.

:class:`SpeedProbe` times a short fixed kernel (dict-heavy Python plus a
small matrix product, the mix the program runs) between work items, at
most every ``PROBE_EVERY_S``. The kernel allocates nothing and runs with
the garbage collector off, so its time does not depend on the program's
heap. An interval of ``t`` wall seconds whose nearby probes took a median
``p`` seconds counts as ``t * (NOMINAL_PROBE_S / p) ** PROBE_EXPONENT``
reference seconds: its length on a machine where the probe takes
``NOMINAL_PROBE_S``.
Probes never run inside a timed item.
"""

from __future__ import annotations

import bisect
import gc
import statistics
import time
from typing import List

import numpy as np

#: Probe time of the reference machine (about the median on the 2-CPU
#: Xeon VM the benchmark was calibrated on).
NOMINAL_PROBE_S = 0.002

#: How much of the probe's slowdown an interval is taken to share. Over
#: 30 full runs, log wall time rose 0.6-0.85 times as fast as log probe
#: time (a neighbour slows the small cache-resident probe more than the
#: program), so scaling by the whole probe ratio over-corrected: runs on
#: a busy machine read faster than runs on a quiet one. Other loads slow
#: the program more than the probe; no exponent fits every hour.
PROBE_EXPONENT = 0.75

#: Minimum gap between probes during timed work.
PROBE_EVERY_S = 0.5

#: Probes within this many seconds of an interval scale it.
PROBE_WINDOW_S = 2.0

_NODES = [{"id": i, "name": str(i), "next": None} for i in range(3000)]
for _i, _node in enumerate(_NODES):
    _node["next"] = _NODES[(_i * 7) % len(_NODES)]
_A = np.random.RandomState(0).rand(64, 300)
_B = np.random.RandomState(1).rand(300, 128)
_C = np.empty((64, 128))


def _kernel() -> int:
    total = 0
    for _ in range(3):
        for node in _NODES:
            total += node["id"] + node["next"]["id"] + len(node["name"])
    for _ in range(8):
        np.matmul(_A, _B, out=_C)
    return total


class SpeedProbe:
    """Probe samples of one run, and the scaling they imply."""

    def __init__(self) -> None:
        self._times: List[float] = []  # probe end times, ascending
        self._seconds: List[float] = []

    def probe(self, count: int = 1) -> None:
        enabled = gc.isenabled()
        gc.disable()
        try:
            for _ in range(count):
                start = time.perf_counter()
                _kernel()
                end = time.perf_counter()
                self._times.append(end)
                self._seconds.append(end - start)
        finally:
            if enabled:
                gc.enable()

    def maybe_probe(self) -> None:
        """Probe if the last probe is ``PROBE_EVERY_S`` old."""
        if not self._times or (
            time.perf_counter() - self._times[-1] >= PROBE_EVERY_S
        ):
            self.probe()

    def reference_seconds(self, start: float, end: float) -> float:
        """Wall interval ``[start, end]`` in reference seconds."""
        lo = bisect.bisect_left(self._times, start - PROBE_WINDOW_S)
        hi = bisect.bisect_right(self._times, end + PROBE_WINDOW_S)
        window = self._seconds[lo:hi]
        if not window:  # fall back to the nearest probe
            i = min(bisect.bisect_left(self._times, start),
                    len(self._times) - 1)
            window = self._seconds[i:i + 1]
        speed = NOMINAL_PROBE_S / statistics.median(window)
        return (end - start) * speed ** PROBE_EXPONENT

    def samples(self) -> List[float]:
        return list(self._seconds)
