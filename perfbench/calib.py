"""Host-speed calibration for the benchmark.

The reference host is shared, and its speed drifts by tens of percent
within minutes.  A ``Calibrator`` times fixed work that shares no code with
ranslicer; timed beside the operations, it measures that drift, so an
operation's time can be given at the reference host's speed:

    time at reference speed = measured time * REF_S / calibration time

The work is plain Python on dicts, lists, tuples and a heap (build an
adjacency map, then a Dijkstra search, per path), because a loop of
integer arithmetic tracked the drift of the planner's time only half as
well.
"""

from __future__ import annotations

import heapq
import math
import random
import time

GRID = 16  # the calibration graph is a GRID x GRID grid
PATHS = 24  # shortest paths per calibration
REF_S = 0.0125  # a calibration's median wall time on the reference host (NOTES.md)


class Calibrator:
    def __init__(self):
        rng = random.Random(0)
        name = "cal-{:02d}-{:02d}".format
        self.links: list[tuple[str, str, float]] = []
        for i in range(GRID):
            for j in range(GRID):
                if i + 1 < GRID:
                    self.links.append((name(i, j), name(i + 1, j), rng.uniform(0.5, 2.0)))
                if j + 1 < GRID:
                    self.links.append((name(i, j), name(i, j + 1), rng.uniform(0.5, 2.0)))

    def __call__(self) -> tuple[float, float]:
        """Wall and CPU seconds of one calibration."""
        links = self.links
        cpu0, wall0 = time.process_time(), time.perf_counter()
        for k in range(PATHS):
            source, target = links[k][0], links[-1 - k][1]
            adjacency: dict[str, list[tuple[str, float]]] = {}
            for a, b, w in links:
                adjacency.setdefault(a, []).append((b, w))
                adjacency.setdefault(b, []).append((a, w))
            best = {source: 0.0}
            heap = [(0.0, source)]
            while heap:
                dist, node = heapq.heappop(heap)
                if node == target:
                    break
                if dist > best.get(node, math.inf):
                    continue
                for nxt, w in adjacency[node]:
                    if dist + w < best.get(nxt, math.inf):
                        best[nxt] = dist + w
                        heapq.heappush(heap, (dist + w, nxt))
        return time.perf_counter() - wall0, time.process_time() - cpu0


def at_reference(seconds: float, before: float, after: float) -> float:
    """``seconds`` at reference speed, given the calibrations around it."""
    return seconds * REF_S / ((before + after) / 2)
