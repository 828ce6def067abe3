"""Fixed reference computations that gauge the machine's speed right now.

The host this benchmark runs on shares its CPUs and memory with other
machines, and its speed drifts by 20 to 40 % over seconds to minutes:
ten runs of one scenario took 0.61 s, and 0.47 s a minute later.  A
probe times a fixed mix of the kinds of work eulerchar does and never
calls eulerchar.  A run probes at most every quarter second between its
ops, and a time t it measured is reported as t * reference / p, where p
is the median probe of the run and reference the probe's duration at
the reference speed.  Two runs of the same code then agree, while a
change to eulerchar moves t and not p.

Each workload probes with the parts that match where its time goes:
memory bandwidth drifts apart from the speed of the interpreter, and a
probe of the wrong kind adds its own noise instead of removing the
host's.
"""

from __future__ import annotations

import statistics
import time

import numpy as np

_rng = np.random.default_rng(7)
_SMALL_MAT = _rng.normal(size=(4, 4))
_SMALL_VECS = [_rng.normal(size=4) for _ in range(64)]
_BIG = _rng.normal(size=(8192, 4))  # 256 KB: fits in cache
STREAM_POINTS = 200000


def _interp():
    acc = {}
    for i in range(6000):
        key = (i % 17, i % 5)
        acc[key] = acc.get(key, 0.0) * 0.5 + i * 1.0001
    return acc[(0, 0)]


def _small():
    total = 0.0
    for _ in range(30):
        for v in _SMALL_VECS:
            total += float(np.linalg.norm(_SMALL_MAT @ v))
    return total


def _big():
    # small arrays, many passes: the temporaries stay near 1 MB, below what
    # any workload's own ops add to its peak memory
    total = 0.0
    for _ in range(8):
        y = _BIG @ _SMALL_MAT
        z = np.sin(y) * np.cos(y)
        total += float(np.einsum("pi,pi->p", z, y).sum())
    return total


def _stream():
    """Points and 4x4 Jacobians (32 MB) that do not fit in cache.

    They are made and freed on each call, so they never add to the peak
    memory of the workload they run beside.
    """
    pts = np.full((STREAM_POINTS, 4), 0.5)
    jac = np.full((STREAM_POINTS, 4, 4), 0.25)
    j = np.einsum("pij,pj->pi", jac, pts)
    n = np.sqrt(np.einsum("pi,pi->p", j, j))
    return float((j / n[:, None]).sum())


# part -> (function, seconds at the reference speed)
PARTS = {
    "interp": (_interp, 0.0025),  # interpreter: dicts, tuples, float arithmetic
    "small": (_small, 0.009),     # many small numpy calls, bound by call overhead
    "big": (_big, 0.014),         # vectorized numpy on arrays that fit in cache
    "stream": (_stream, 0.024),   # vectorized numpy on arrays that do not
}


class Probe:
    """A probe made of the named parts of PARTS."""

    def __init__(self, parts):
        self.funcs = [PARTS[p][0] for p in parts]
        self.reference_s = sum(PARTS[p][1] for p in parts)

    def __call__(self) -> float:
        """Seconds taken by one probe."""
        start = time.perf_counter()
        for f in self.funcs:
            f()
        return time.perf_counter() - start

    def settled(self, count: int = 5) -> float:
        """Median of `count` probes, after one that warms the probe's own buffers."""
        self()
        return statistics.median(self() for _ in range(count))
