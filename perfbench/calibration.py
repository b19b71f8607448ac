"""Host-speed gauge: a fixed kernel timed between slices of the run.

A shared host runs the same code at different speeds from one minute to
the next: its cores are time-sliced with other guests and its clock
rate moves, and a guest sees both only as everything taking longer.
On the reference machine the run phase's speed moved by a factor of 2.6
within a ten-run set, far more than any workload's own run-to-run
variation.

The gauge times small kernels that do not depend on the program under
test.  The run-phase kernel (a heap-based shortest-path search over
dicts, scipy's Dijkstra on a small sparse graph, short numpy reductions
and small-object churn, the kinds of work the simulator's run phase
does) is read after set-up and after every slice of the run phase.  A
slice's *speed factor* is ``REFERENCE_PASS_S`` over the mean pass time
of the two readings around it; a timing scaled by it is what the slice
would have taken on a host running the kernel at the reference speed.
Set-up is different code: mostly scipy's batched Dijkstra over the IP
topology, which waits on memory more and slowed only 2.0-fold where the
run phase and the run-phase kernel slowed 2.5-fold.  So set-up has its
own kernel, read just before and just after it, with its own reference
time.  Because the kernels are part of the benchmark, not of the
program, a change to the program moves the scaled timings in the same
proportion as the raw ones.
"""

from __future__ import annotations

import gc
import heapq
import random
import time
from typing import Callable, Dict, List, Tuple

import numpy as np
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import dijkstra

#: Mean pass time of :meth:`SpeedGauge.pass_once` at the reference speed:
#: that of the reference machine (2 x86 cores, Python 3.11.7, numpy
#: 2.4.6, scipy 1.17.1) in its slow state, where the workloads' episode
#: budgets were measured.  The same machine has also run twice as fast
#: (a pass then takes 1.7 ms).  It fixes the scale of every reported
#: timing and must never change, or timings stop being comparable
#: across commits.
REFERENCE_PASS_S = 0.0035

#: Mean pass time of :meth:`SpeedGauge.setup_pass_once` at the same
#: reference speed: measured beside the run-phase kernel in the slow
#: state (12.2 ms against 4.2 ms) and scaled by the run-phase kernel's
#: reference time.  Must never change either.
REFERENCE_SETUP_PASS_S = 0.0102

#: Kernel passes in one reading.
PASSES_PER_READING = 4

GRAPH_NODES = 300
GRAPH_DEGREE = 4
VECTOR_LENGTH = 400

#: The set-up kernel's graph has the IP topology's size at N = 2000
#: (2400 routers, about 1.5 links per router); Dijkstra runs from a
#: batch of sources, as the overlay build does.
SETUP_GRAPH_NODES = 2400
SETUP_SOURCES = 16
#: one column kept per overlay node
SETUP_COLUMNS = 2000


class _Point:
    __slots__ = ("x", "y", "w")

    def __init__(self, x: float, y: float, w: float) -> None:
        self.x = x
        self.y = y
        self.w = w


class SpeedGauge:
    """Times the run-phase and set-up kernels."""

    def __init__(self) -> None:
        rng = random.Random(20261017)
        adjacency: Dict[int, List[Tuple[int, float]]] = {n: [] for n in range(GRAPH_NODES)}
        rows, cols, weights = [], [], []
        for a in range(GRAPH_NODES):
            for b in rng.sample(range(GRAPH_NODES), GRAPH_DEGREE):
                if a != b:
                    weight = rng.uniform(1.0, 10.0)
                    adjacency[a].append((b, weight))
                    adjacency[b].append((a, weight))
                    rows.append(a)
                    cols.append(b)
                    weights.append(weight)
        self._adjacency = adjacency
        self._matrix = csr_matrix(
            (weights, (rows, cols)), shape=(GRAPH_NODES, GRAPH_NODES)
        )
        self._values = np.array([rng.uniform(0.0, 1.0) for _ in range(VECTOR_LENGTH)])
        self._limits = np.array([rng.uniform(0.0, 1.0) for _ in range(VECTOR_LENGTH)])
        self._coords = [(rng.random(), rng.random()) for _ in range(600)]
        rows, cols, weights = [], [], []
        for a in range(1, SETUP_GRAPH_NODES):
            for b in {rng.randrange(a) for _ in range(rng.choice((1, 2)))}:
                rows.append(a)
                cols.append(b)
                weights.append(rng.uniform(1.0, 10.0))
        self._setup_matrix = csr_matrix(
            (weights, (rows, cols)), shape=(SETUP_GRAPH_NODES, SETUP_GRAPH_NODES)
        )
        self._setup_sources = rng.sample(range(SETUP_GRAPH_NODES), SETUP_SOURCES)
        self._setup_columns = np.array(rng.sample(range(SETUP_GRAPH_NODES), SETUP_COLUMNS))
        self.setup_pass_once()  # warm every code path before the first reading

    def pass_once(self) -> float:
        """One pass of the run-phase kernel; returns a checksum so nothing
        is skipped."""
        adjacency = self._adjacency
        total = 0.0
        for source in (0, 1):
            distance = {source: 0.0}
            heap = [(0.0, source)]
            while heap:
                d, node = heapq.heappop(heap)
                if d > distance[node]:
                    continue
                for neighbour, weight in adjacency[node]:
                    candidate = d + weight
                    if candidate < distance.get(neighbour, float("inf")):
                        distance[neighbour] = candidate
                        heapq.heappush(heap, (candidate, neighbour))
            total += sum(distance.values())
        rows = dijkstra(self._matrix, directed=False, indices=range(6))
        total += float(rows[np.isfinite(rows)].sum())
        values, limits = self._values, self._limits
        for shift in range(24):
            slack = np.minimum(values, np.roll(limits, shift)) - 0.5 * values
            best = np.argpartition(slack, 20)[:20]
            total += float(slack[best].sum()) + float(np.count_nonzero(slack > 0.0))
        points = [_Point(x, y, x * y) for x, y in self._coords]
        points.sort(key=lambda point: point.w)
        total += sum(point.x - point.y for point in points[::3])
        return total

    def setup_pass_once(self) -> float:
        """One pass of the set-up kernel: batched Dijkstra over a
        router-scale graph keeping one column per overlay node, the bulk
        of set-up, plus a pass of the run-phase kernel for set-up's
        Python part (about a third of it)."""
        rows = dijkstra(self._setup_matrix, directed=False, indices=self._setup_sources)
        return float(rows[:, self._setup_columns].sum()) + self.pass_once()

    def read(self) -> float:
        """Mean seconds per pass of the run-phase kernel over one reading."""
        return self._reading(self.pass_once)

    def read_setup(self) -> float:
        """Mean seconds per pass of the set-up kernel over one reading."""
        return self._reading(self.setup_pass_once)

    @staticmethod
    def _reading(kernel: Callable[[], float]) -> float:
        """A first, untimed pass brings back into cache what the program
        evicted, so a reading measures the host, not the cache."""
        clock = time.perf_counter
        collecting = gc.isenabled()
        gc.disable()  # the program's heap size must not enter the reading
        try:
            kernel()
            start = clock()
            for _ in range(PASSES_PER_READING):
                kernel()
            reading = (clock() - start) / PASSES_PER_READING
        finally:
            if collecting:
                gc.enable()
        return reading


def speed_factor(before: float, after: float, reference: float = REFERENCE_PASS_S) -> float:
    """Scale for a timing taken between two readings: reference speed
    over the host's mean speed across them."""
    return reference / (0.5 * (before + after))
