"""A short probe of the host's current speed, taken between the timed jobs.

The host this benchmark was built on changes speed by up to 2.5x in phases
of seconds to minutes, from load outside it, on both vCPUs alike and in CPU
time as much as in wall time.  A run of tens of seconds can fall wholly in
a slow phase, so no minimum or median of raw times is steady from run to
run.  ``probe()`` times a fixed loop of big-integer and ``Fraction``
arithmetic, the kind of exact work kfacets does, without calling kfacets.
``worker.py`` probes before and after every job, and ``run.py`` scales each
job's time by ``REF_PROBE_S`` over the mean of its two probes: the time the
job would take on a host where the probe takes ``REF_PROBE_S``.  A change to
kfacets moves the job time and not the probe, so it shows in full.
"""

from __future__ import annotations

import time
from fractions import Fraction

# probe() on the reference host (a 2-vCPU x86_64 VM, Python 3.11, fast phase)
REF_PROBE_S = 0.003


def probe() -> float:
    """Seconds for a fixed integer and Fraction loop; the fastest of three."""
    best = float("inf")
    for _ in range(3):
        start = time.perf_counter()
        acc, big = 0, 3 ** 80
        for i in range(15_000):
            acc = (acc * 31 + i) % 1_000_003
        total = Fraction(0)
        for i in range(1, 800):
            total += Fraction(big % (i * 7919 + 1), i)
        best = min(best, time.perf_counter() - start)
    return best


def scaled(seconds: float, probe_s: float) -> float:
    """``seconds`` measured while the probe took ``probe_s``, at the reference speed."""
    return seconds * REF_PROBE_S / probe_s
