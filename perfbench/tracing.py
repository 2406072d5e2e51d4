"""Spans and counters recorded around the benchmark's calls into l2int.

The benchmark never instruments `src/`: every span sits at a call site in
the benchmark's own code, around one call into a layer's public function.
A span records its name, start, end, parent span, item id and the input
node count of the item it belongs to.  Spans stay in memory until the run
ends.

`NullTracer` has the same interface and does nothing, so the untraced runs
that give the end-to-end metrics execute the same pipeline code.
"""

from __future__ import annotations

import json
import math
import statistics
import time
from collections import Counter, defaultdict
from contextlib import contextmanager

ITEM = "bench.item"
SETUP = "bench.setup"


class NullTracer:
    enabled = False

    def call(self, name, fn, *args, **kwargs):
        return fn(*args, **kwargs)

    @contextmanager
    def span(self, name, item=None, size=None):
        yield

    def count(self, name, n=1):
        pass

    def peak(self, name, value):
        pass


class Tracer:
    enabled = True

    def __init__(self):
        # (name, start, end, parent index, item id, item input nodes)
        self.spans: list[tuple] = []
        self.counts: Counter = Counter()
        self.peaks: dict[str, float] = {}
        self._stack: list[int] = []
        self._item = None
        self._size = None

    def _open(self, name):
        idx = len(self.spans)
        self.spans.append(None)
        self._stack.append(idx)
        return idx, time.perf_counter()

    def _close(self, idx, name, start):
        end = time.perf_counter()
        self._stack.pop()
        parent = self._stack[-1] if self._stack else -1
        self.spans[idx] = (name, start, end, parent, self._item, self._size)

    def call(self, name, fn, *args, **kwargs):
        idx, start = self._open(name)
        try:
            return fn(*args, **kwargs)
        finally:
            self._close(idx, name, start)

    @contextmanager
    def span(self, name, item=None, size=None):
        outer = self._item, self._size
        if item is not None:
            self._item, self._size = item, size
        idx, start = self._open(name)
        try:
            yield
        finally:
            self._close(idx, name, start)
            self._item, self._size = outer

    def count(self, name, n=1):
        self.counts[name] += n

    def peak(self, name, value):
        self.peaks[name] = max(self.peaks.get(name, value), value)

    def write(self, path):
        """Write every span as one JSON line."""
        with open(path, "w") as f:
            for name, start, end, parent, item, size in self.spans:
                f.write(json.dumps({
                    "name": name, "start": start, "end": end, "parent": parent,
                    "item": item, "nodes": size,
                }) + "\n")


def self_times(spans) -> list[float]:
    """Each span's duration minus the part of it its children cover.

    Children run inside their parent and one at a time, so the covered part
    is the sum of the children's durations.
    """
    own = [end - start for _, start, end, _, _, _ in spans]
    for name, start, end, parent, _, _ in spans:
        if parent >= 0:
            own[parent] -= end - start
    return own


def percentile(values, p: float) -> float:
    """The p-th percentile (0-100) by the inclusive method; 0.0 if empty."""
    if not values:
        return 0.0
    if len(values) == 1:
        return float(values[0])
    return statistics.quantiles(values, n=1000, method="inclusive")[round(p * 10) - 1]


def tail(values) -> tuple[float, float]:
    """The highest percentile with at least ten samples beyond it, and its value.

    The percentile is a whole number or, above 99, a tenth.  With fewer
    than twenty samples no percentile down to the median qualifies, and the
    maximum is returned as the 100th.
    """
    n = len(values)
    for p in (99.9, 99.8, 99.7, 99.6, 99.5, 99.4, 99.3, 99.2, 99.1, 99.0, *range(98, 49, -1)):
        if n * (100 - p) / 100 >= 10:
            return p, percentile(values, p)
    return 100.0, float(max(values))


def growth(points, min_nodes=25) -> float:
    """Least-squares slope of log(time) against log(nodes).

    Uses the points with at least min_nodes nodes; 0.0 when fewer than two
    distinct sizes qualify.
    """
    pts = [(math.log(n), math.log(t)) for n, t in points if n and n >= min_nodes and t > 0]
    if len({x for x, _ in pts}) < 2:
        return 0.0
    mx = statistics.fmean(x for x, _ in pts)
    my = statistics.fmean(y for _, y in pts)
    sxx = sum((x - mx) ** 2 for x, _ in pts)
    return sum((x - mx) * (y - my) for x, y in pts) / sxx


def layer_stats(spans) -> dict[str, dict]:
    """Calls, busy seconds, p99 and (node count, seconds) points per span name."""
    durations = defaultdict(list)
    points = defaultdict(list)
    for name, start, end, _, _, size in spans:
        durations[name].append(end - start)
        points[name].append((size, end - start))
    return {
        name: {
            "calls": len(ds),
            "s": sum(ds),
            "p99_ms": 1000 * percentile(ds, 99),
            "points": points[name],
        }
        for name, ds in durations.items()
    }
