"""Machine-speed calibration for the benchmark's timings.

The machines this benchmark runs on share their cores with other work, and
their speed drifts: the same pass over the same corpus can take a third
longer a minute later, far more than any regression the bounds are meant
to catch.  So each run also times a fixed interpreter loop at regular
intervals between items, and reports times scaled to a machine on which
that loop takes REFERENCE_S:

    reported = measured * REFERENCE_S / median(loop times of the run)

Over a run the loop's median follows the machine's speed.  In two probes
of 100 and 150 s on a 2-vCPU machine (Python 3.11), fixed blocks of derive
and small-terms items slowed and sped up by 7 to 16 % (coefficient of
variation across ten-second windows); their ratio to this loop's median
time varied by 2 to 5 %.  Loops that allocate (object trees, dicts, JSON)
followed the machine worse, by 5 to 20 %.  The loop is part of the
benchmark, not of l2int, so no change to `src/` can move it.  Raw times
are kept in the run record next to the scaled ones.
"""

from __future__ import annotations

import statistics
import time

ITERATIONS = 50_000
REFERENCE_S = 0.004


def loop() -> int:
    s = 0
    for i in range(ITERATIONS):
        s += i * i % 7
    return s


class Calibrator:
    """Times `loop` at most every `every` seconds when asked."""

    def __init__(self, every: float = 0.1):
        self.every = every
        self.samples: list[float] = []
        self._last = float("-inf")

    def sample(self, repeats: int = 1) -> None:
        for _ in range(repeats):
            t0 = time.perf_counter()
            loop()
            self._last = time.perf_counter()
            self.samples.append(self._last - t0)

    def maybe(self) -> None:
        if time.perf_counter() - self._last >= self.every:
            self.sample()

    def factor(self, start: int = 0, end: int | None = None) -> float:
        """REFERENCE_S over the median loop time of samples[start:end]."""
        return REFERENCE_S / statistics.median(self.samples[start:end])
