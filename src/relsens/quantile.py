"""numpy's default (linear) sample quantile, read from order statistics
the caller already has.

``np.quantile(values, q)`` lies a fraction t of the way from the order
statistic at index i = floor((n - 1) q) to the one at i + 1 (clamped to
n - 1), t = (n - 1) q - i, and numpy rounds the step as its ``_lerp``
does. The sampling path needs only such quantiles of finite 1-D samples:
subset simulation's thresholds and the KDE bandwidth's quartiles. Both
already order their sample for another reason, subset simulation to
take its seeds and the KDE to window its sums, so they read the two
order statistics from that ordering (``quantile_position`` and ``lerp``,
or ``sorted_quantile`` on a sorted sample) and get numpy's bits. That
skips the second pass over the sample that ``np.quantile`` makes:
``np.partition`` at numpy's 4-6 partition points took 0.26-0.37 ms on
20 000 values on a 2-CPU VM, against 0.03 ms for a single-pivot
partition and 0.1 ms for ``np.sort``. It also avoids the numpy.ma import
that ``np.quantile`` brings through ``np.unique`` (about 20 ms and 1 MB
per process).

Where the sample holds both 0.0 and -0.0, which of them an order
statistic is depends on how it was ordered, so a zero quantile's sign
may differ from numpy's; no caller tells the two apart.
"""

from __future__ import annotations

import math


def quantile_position(n, q):
    """(i, t) for the linear q-quantile of n values: it lies t of the way
    from the order statistic at index i to the one at min(i + 1, n - 1)."""
    virtual = (n - 1) * q
    i = math.floor(virtual)
    return i, virtual - i


def lerp(a, b, t):
    """a + (b - a) t as numpy's ``_lerp`` rounds it: from b, as
    b - (b - a)(1 - t), where t >= 0.5."""
    diff = b - a
    return b - diff * (1.0 - t) if t >= 0.5 else a + diff * t


def sorted_quantile(ordered, q):
    """np.quantile(ordered, q) for a sorted, finite 1-D ``ordered`` and q
    in [0, 1)."""
    i, t = quantile_position(len(ordered), q)
    j = min(i + 1, len(ordered) - 1)
    return lerp(float(ordered[i]), float(ordered[j]), t)
