"""Host-speed probe: a fixed reference computation timed beside the ops.

The shared host this benchmark runs on changes speed by 10-35% over minutes
as other tenants come and go.  The probe does a fixed amount of the two kinds
of work the workloads do: a numpy gather-and-compare like the blockage
kernel, and an interpreter-bound heap loop like the relaxation and the CLI's
start-up.  A run's slowdown is its median probe time over ``REFERENCE_MS``.
It is reported beside the end-to-end metrics, so that host drift between
runs is visible, and is folded into none of them.

The probe runs in its own interpreter, which imports numpy but not
radiofront, between ops and never during one; the child waits on its input
in between.
"""

from __future__ import annotations

import statistics
import subprocess
import sys

# median probe time on the 2-core Xeon VM the benchmark was defined on
REFERENCE_MS = 45.0

_CHILD = r"""
import heapq, sys, time
import numpy as np

rng = np.random.default_rng(0)
heights = rng.uniform(0.0, 20.0, 256 * 256)
idx = rng.integers(0, heights.size, 400_000)
zs = rng.uniform(0.0, 20.0, idx.size)
keys = rng.random(20_000).tolist()

def probe():
    t0 = time.perf_counter()
    for _ in range(10):
        int((heights.take(idx) > zs).sum())
    heap = []
    for i, k in enumerate(keys):
        heapq.heappush(heap, (k, i))
    while heap:
        heapq.heappop(heap)
    return (time.perf_counter() - t0) * 1e3

probe()
for _ in sys.stdin:
    print(repr(probe()), flush=True)
"""


class SpeedProbe:
    """A child interpreter that times the reference computation on request."""

    def __init__(self):
        self.times_ms: list[float] = []
        self._proc = subprocess.Popen([sys.executable, "-c", _CHILD], stdin=subprocess.PIPE,
                                      stdout=subprocess.PIPE, text=True)

    def measure(self) -> None:
        self._proc.stdin.write("\n")
        self._proc.stdin.flush()
        line = self._proc.stdout.readline()
        if not line:
            raise RuntimeError(f"speed probe exited with code {self._proc.wait()}")
        self.times_ms.append(float(line))

    def slowdown(self) -> float:
        """Median probe time over the reference time; 1.0 on the reference host."""
        return statistics.median(self.times_ms) / REFERENCE_MS

    def close(self) -> None:
        self._proc.stdin.close()
        try:
            self._proc.wait(timeout=30)
        except subprocess.TimeoutExpired:
            self._proc.kill()
            self._proc.wait()
        self._proc.stdout.close()
