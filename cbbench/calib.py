"""Host-speed calibration: a fixed reference loop timed between calls.

The benchmark's host is a few vCPUs of a shared machine.  Its speed drifts
by up to 1.5x, in steps that last from seconds to minutes (a neighbour on
the sibling hyperthread, frequency changes), and CPU time drifts with it.
A raw wall time therefore measures the host as much as the program.

``Speedometer`` times a short reference loop of fixed work every
``EVERY_S`` seconds of measured work and scales each stretch of work by
``REF_S`` over the reference time around it.  The result is in reference
seconds: the time the work would take on a host where the reference loop
takes exactly ``REF_S``.  The raw time is kept beside it.  There are three
loops: interpreter arithmetic, interpreter work that allocates large lists,
and vectorised numpy work.  Each workload uses the one that tracks its own
slowdowns best.  Both are the
benchmark's own code, so no change to the program can move them.
"""

from __future__ import annotations

import statistics
import time

REF_S = 0.010            # a reference loop takes this long, by definition
EVERY_S = 0.5            # measured work between two reference samples
# each loop is sized to take about REF_S on a 2-vCPU x86 host
_LOOP = 60_000
_LIST = 35_000
_ARRAY_BITS = 19
_array = None


def interp_loop() -> int:
    """Fixed interpreter work: integer arithmetic and a float list."""
    s = 0
    for i in range(_LOOP):
        s += (i * i) ^ (i >> 3)
    xs = [x * 0.5 for x in range(_LOOP // 3)]
    return s + int(sum(xs))


def list_loop() -> int:
    """Fixed interpreter work that allocates: two lists of about 2 MiB of
    objects, so it slows down with the memory system as well."""
    xs = [i * 0.5 for i in range(_LIST)]
    ys = [int(x) ^ 5 for x in xs]
    return sum(ys)


def numpy_loop() -> int:
    """Fixed vectorised work: shifts and xors over a 4 MiB uint64 array.
    numpy is imported on first use, never before the program's import."""
    global _array
    import numpy as np

    if _array is None:
        _array = np.arange(1 << _ARRAY_BITS, dtype=np.uint64)
    a = _array
    for _ in range(8):
        a = a ^ (a >> np.uint64(3))
    return int(a[-1])


# a workload is calibrated by the loop whose kind of work dominates it
REFERENCES = {"interp": interp_loop, "lists": list_loop, "numpy": numpy_loop}


def reference_time(loop) -> float:
    """Median of three timings of a reference loop."""
    out = []
    for _ in range(3):
        t0 = time.perf_counter()
        loop()
        out.append(time.perf_counter() - t0)
    return statistics.median(out)


class Speedometer:
    """Accumulates measured work in raw and in reference seconds.

    Call ``add`` with the raw duration of each measured piece of work and
    ``close`` once after the last; a reference sample brackets every
    stretch of at most about ``EVERY_S`` of work.
    """

    def __init__(self, reference: str = "interp"):
        self.loop = REFERENCES[reference]
        self.raw_s = 0.0
        self.ref_s = 0.0
        self.samples = [reference_time(self.loop)]
        self.stretches: list[float] = []    # work between two samples
        self._pending = 0.0

    def due(self) -> bool:
        return self._pending >= EVERY_S

    def sample(self) -> None:
        """Take a reference sample; charge the pending work to the mean
        speed of the samples before and after it."""
        now = reference_time(self.loop)
        self.ref_s += self._pending * REF_S / ((self.samples[-1] + now) / 2)
        self.samples.append(now)
        self.stretches.append(self._pending)
        self._pending = 0.0

    def add(self, seconds: float) -> None:
        self.raw_s += seconds
        self._pending += seconds

    def close(self) -> None:
        if self._pending:
            self.sample()

