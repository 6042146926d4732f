"""The machine's pace, sampled between cases with a fixed piece of work.

The host this benchmark was written on slows its guest's CPUs by up to 60%
for minutes at a time, in CPU time as much as in wall time.  A run therefore
interleaves its cases with a fixed reference chunk that does not use the
package -- a cheapest-insertion loop over a dict-cached distance table, and a
few small dense layers in numpy, the two shapes of the package's hot paths --
and times it.  The chunk's mean time over the run, against ``REF_CHUNK_S``,
is the run's pace; timings are reported at the reference pace.  The chunk
never changes with the package, so a faster or slower package still shows
in full.
"""

from __future__ import annotations

import math
import time

import numpy as np

# the mean chunk time in benchmark runs on the 2-vCPU Xeon VM of NOTES.md
REF_CHUNK_S = 0.0012
SHARE = 0.1     # seconds of chunks per second of timed work

_POINTS = [(10.0 * math.cos(0.7 * i), 10.0 * math.sin(1.3 * i)) for i in range(40)]
_H0 = np.random.default_rng(0).standard_normal((48, 32))
_W = np.random.default_rng(1).standard_normal((32, 32)) / 6.0


def chunk():
    """One piece of reference work; returns a checksum so nothing is skipped."""
    dist = {}

    def d(a, b):
        v = dist.get((a, b))
        if v is None:
            (x1, y1), (x2, y2) = _POINTS[a], _POINTS[b]
            v = dist[(a, b)] = math.hypot(x1 - x2, y1 - y2)
        return v

    route = [0, 1]
    for node in range(2, len(_POINTS)):
        best, where = math.inf, 0
        for i, a in enumerate(route):
            b = route[(i + 1) % len(route)]
            c = d(a, node) + d(node, b) - d(a, b)
            if c < best:
                best, where = c, i + 1
        route.insert(where, node)
    h = _H0
    pick = 0
    for _ in range(4):
        h = np.tanh(h @ _W)
        s = h.sum(axis=1)
        pick += int(np.argmax(np.where(s > 0, s, -np.inf)))
    return route[-1] + pick


class Pace:
    """Samples the pace in proportion to the time it is told was worked."""

    def __init__(self):
        self.owed = 0.0
        self.chunks = 0
        self.chunk_s = 0.0

    def after(self, worked_s):
        """Run chunks worth ``SHARE`` of ``worked_s`` (carried over across
        calls, so the samples follow the work's time)."""
        self.owed += SHARE * worked_s
        while self.owed > 0:
            start = time.perf_counter()
            chunk()
            elapsed = time.perf_counter() - start
            self.chunks += 1
            self.chunk_s += elapsed
            self.owed -= elapsed

    def factor(self):
        """Mean chunk time over the reference: above 1 is a slow machine."""
        return self.chunk_s / self.chunks / REF_CHUNK_S
