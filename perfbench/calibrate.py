"""Fixed interpreter loops that measure how fast the machine runs right now.

On a shared machine the speed of one core drifts by half or more over tens
of seconds, as other tenants come and go.  The benchmark runs these loops
around every request and divides the request's time by the current
``slowness()``, so that a slow spell slows both and cancels out.  The loops
are frozen here, outside the program, so a change to chaindyn never changes
them.  Different code slows by different amounts in a slow spell, so there
are four loops, in the styles of chaindyn's hot paths, weighted equally:
distance scans into frozenset rows and their unions, integer BFS over
successor lists, dictionary lookups and small frozensets, and a
nearest-point scan by method calls.
"""

from __future__ import annotations

import gc
import math
import time


class _Grid:
    def __init__(self, n: int, wraps: bool):
        self.points = tuple((k / n,) for k in range(n))
        self.wraps = wraps

    def distance(self, a, b) -> float:
        best = 0.0
        for x, y in zip(a, b):
            d = abs(x - y)
            if self.wraps:
                d = min(d, 1.0 - d)
            if d > best:
                best = d
        return best

    def within(self, c, radius: float) -> list[int]:
        bound = radius + 1e-12
        return [i for i, p in enumerate(self.points) if self.distance(c, p) <= bound]

    def nearest(self, c) -> int:
        best_i, best_d = 0, math.inf
        for i, p in enumerate(self.points):
            d = self.distance(c, p)
            if d < best_d - 1e-12:
                best_i, best_d = i, d
        return best_i


_CIRCLE = _Grid(80, wraps=True)
_LINE = _Grid(64, wraps=False)
_SUCC = [((i * 7) % 400, (i * 13 + 1) % 400, (i + 1) % 400) for i in range(400)]
_TABLE = {i * 7919 % 1000003: (i, float(i)) for i in range(6000)}
_KEYS = [i * 7919 % 1000003 for i in range(6000)] * 2


def _rows_and_unions() -> int:
    rows = [frozenset(_CIRCLE.within(p, 3.0 / 80)) for p in _CIRCLE.points]
    total = 0
    for row in rows:
        out: set[int] = set()
        for z in row:
            out |= rows[z]
        total += len(out)
    return total


def _bfs() -> int:
    total = 0
    for src in range(0, 400, 7):
        dist = [-1] * 400
        dist[src] = 0
        frontier = [src]
        while frontier:
            nxt = []
            for u in frontier:
                for v in _SUCC[u]:
                    if dist[v] == -1:
                        dist[v] = dist[u] + 1
                        nxt.append(v)
            frontier = nxt
        total += sum(dist)
    return total


def _lookups() -> float:
    acc = 0.0
    for k in _KEYS:
        a, b = _TABLE[k]
        acc += b + (a, b, a + 1)[2]
    return acc + sum(len(frozenset(range(i, i + 12))) for i in range(0, 3000, 3))


def _nearest_scan() -> int:
    total = 0
    for x in range(64):
        c = _LINE.points[x]
        for _ in range(3):
            i = _LINE.nearest(c)
            c = _LINE.points[(i * 5 + 1) % 64]
            total += i
    return total


# Each loop with its median seconds on the 2-core 2.1 GHz Xeon VM (Python
# 3.11.7) where the baseline was measured; they only set the scale.
_LOOPS = ((_rows_and_unions, 0.004), (_bfs, 0.004), (_lookups, 0.003), (_nearest_scan, 0.0045))


def slowness() -> float:
    """Current loop time over reference loop time, averaged over the loops."""
    # With the collector on, the loops' time would depend on how many objects
    # the program left in the young generations, which a change can alter.
    enabled = gc.isenabled()
    gc.disable()
    try:
        total = 0.0
        for loop, reference_s in _LOOPS:
            t0 = time.perf_counter()
            loop()
            total += (time.perf_counter() - t0) / reference_s
        return total / len(_LOOPS)
    finally:
        if enabled:
            gc.enable()
