"""Machine-speed calibration.

This benchmark runs on shared machines whose speed drifts: on the 2-core
machine the reference figures come from, the loop below took from 1.1 to
2.1 ms from one 100 ms window to the next, in phases that last about a
second.
Every timed operation is therefore bracketed by a short calibration loop
(plain integer and dict work, then numpy scalar indexing and small array
comparisons, the two kinds of work the library does), and its time is
reported in reference-speed seconds: wall time scaled by
``REFERENCE_S / (mean of the two calibration times)``.  Raw wall times
are kept in the results file next to the scaled ones.
"""
from __future__ import annotations

import time

import numpy as np

REFERENCE_S = 0.0013  # the loop's time in the machine's fast phases


def calibrate() -> float:
    """Seconds the fixed calibration loop takes right now."""
    a = np.arange(64.0).reshape(8, 8)
    t0 = time.perf_counter()
    acc, seen = 0, {}
    for i in range(8000):
        acc = (acc + i * i) % 1_000_003
        seen[i & 255] = acc
    x = 0.0
    for i in range(600):
        x += abs(a[i & 7, (i >> 3) & 7] - a[(i >> 1) & 7, i & 7])
        if i & 15 == 0:
            x += float(np.flatnonzero(a[:, i & 7] >= 30.0).sum())
    return time.perf_counter() - t0
