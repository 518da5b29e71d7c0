"""A fixed speed probe, timed before and after every timed sample.

On a shared host the same deterministic work runs at a speed that drifts
by tens of percent in spells of a few seconds (one design-FORM analysis
took between 0.53 and 1.37 s within six minutes on a 2-core Xeon VM), so
a median over a 30 s run still depends on which spells the run caught.
The benchmark therefore reports each timed sample scaled to a reference
speed: ``seconds * PROBE_REF_S / probe``, where ``probe`` is the mean
time of this module's fixed work right before and right after the
sample. That is the time the sample would take on a machine that runs
the probe in ``PROBE_REF_S``.
The probe is the benchmark's own code, so a change to relsens moves the
scaled figures as much as the raw ones; the raw figures are recorded
next to them.

The probe mixes the three kinds of work the workloads do: interpreter
loops, many numpy calls on tiny arrays, and bulk numpy on large arrays.
On the VM above, over ten 30 s runs per workload, scaling cut the
largest spread of the run medians (quartile distance over median) from
0.097 to 0.055; in calm spells it gains little.
"""

from __future__ import annotations

import time

import numpy as np

PROBE_REF_S = 0.1

_BULK = np.linspace(0.0, 1.0, 400_000)
_TINY = np.ones(8)


def _work():
    total = 0
    for i in range(400_000):
        total += i * i
    tiny = _TINY
    for _ in range(20_000):
        tiny = np.add(tiny, 1.0)
    for _ in range(5):
        bulk = np.exp(np.sqrt(_BULK))
        bulk.sort()
    return total, tiny, bulk


def probe_seconds():
    """Wall seconds of one pass of the fixed probe work."""
    t0 = time.perf_counter()
    _work()
    return time.perf_counter() - t0


def scaled(seconds, probe):
    """``seconds`` at the reference speed, given the probe time next to it."""
    return seconds * PROBE_REF_S / probe
