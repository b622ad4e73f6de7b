"""Host-speed probe that runs alongside each timed match.

The machines this benchmark runs on are shared, and the speed at which
they run Python drifts by up to a factor of two, within seconds and over
minutes, while the work stays the same.  ``HostProbe`` samples that speed
during a match: a wall-clock interval timer (``SIGALRM``) interrupts the
match every ``INTERVAL_S`` seconds, and the handler times one run of a
fixed pure-Python kernel.  The match's wall time, less the time spent in
the handler, divided by the mean probe time, is its cost in units of the
kernel; times ``REF_PROBE_S`` it reads as seconds on a host where one
probe takes exactly that long.  The mean is the right average: a match
that spends a share of its time on a slow host is slowed by that share.

The kernel is the benchmark's own code and never changes with the
program, so a change to ``roadmatch`` moves the rescaled time just as it
moves the wall time.  Its work resembles the program's labeling:
breadth-first walks over a planar grid held as rotation tuples, with
``deque``, ``set`` and tuple labels.  The handler runs between bytecodes in
the main thread; no thread or process is started.

A probe finds its data evicted from the private caches by the match, so
it also reads the contention in the shared cache and memory that slows
the match.  That ties it, slightly, to the program: a program whose whole
working set fit in the private caches would leave the kernel's data warm,
and its probes would read about 15% faster than they do now.
"""

from __future__ import annotations

import random
import signal
from collections import deque
from time import perf_counter

# Seconds between probes, and the length of one probe on the machine the
# benchmark was written on (2 vCPUs, Python 3.11.7) in its fast phase.
# About 1% of a match goes to probing.
INTERVAL_S = 0.05
REF_PROBE_S = 0.0005
GRID = 20
DEPTH = 4
# Walk start vertices of one probe; fixed, so a probe is always the same work.
STARTS = tuple(range(7, GRID * GRID, 16))


def _grid(n: int, seed: int = 1):
    """Rotation tuples of an n x n grid with some diagonals, fixed by seed."""
    rng = random.Random(seed)
    nbrs = [[] for _ in range(n * n)]
    for r in range(n):
        for c in range(n):
            v = r * n + c
            if c + 1 < n:
                nbrs[v].append(v + 1)
                nbrs[v + 1].append(v)
            if r + 1 < n:
                nbrs[v].append(v + n)
                nbrs[v + n].append(v)
            if r + 1 < n and c + 1 < n and rng.random() < 0.2:
                nbrs[v].append(v + n + 1)
                nbrs[v + n + 1].append(v)
    return [tuple(sorted(a)) for a in nbrs]


_ROTATION = _grid(GRID)


def kernel() -> int:
    """Depth-limited BFS labels from the fixed start vertices."""
    rotation = _ROTATION
    total = 0
    for v in STARTS:
        visited = {v}
        order = []
        queue = deque([(v, 0)])
        while queue:
            u, dist = queue.popleft()
            if dist >= DEPTH:
                continue
            for w in rotation[u]:
                if w not in visited:
                    visited.add(w)
                    order.append(len(rotation[w]))
                    queue.append((w, dist + 1))
        total += len(tuple(order))
    return total


class HostProbe:
    """Context manager: probes the host while its block runs.

    One probe runs on entry and one on exit, outside the timer, so even a
    block shorter than ``INTERVAL_S`` has two samples.  ``spent_s`` is the
    handler time that fell inside the block.
    """

    def __init__(self):
        self.samples: list[float] = []
        self.spent_s = 0.0
        self._old = None

    def _probe(self) -> float:
        """Time one kernel run; returns its start."""
        t0 = perf_counter()
        kernel()
        self.samples.append(perf_counter() - t0)
        return t0

    def _handler(self, signum, frame):
        t0 = self._probe()
        self.spent_s += perf_counter() - t0

    def __enter__(self) -> HostProbe:
        self._probe()
        self._old = signal.signal(signal.SIGALRM, self._handler)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._old)
        self._probe()

    def mean_s(self) -> float:
        return sum(self.samples) / len(self.samples)

    def rescaled(self, wall_s: float) -> float:
        """``wall_s`` of the probed block, less probing, on the reference host."""
        return (wall_s - self.spent_s) * REF_PROBE_S / self.mean_s()
