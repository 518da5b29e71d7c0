"""numpy's default (linear) sample quantile, without numpy.ma.

``np.quantile`` and ``np.percentile`` call ``np.unique`` on the indices
they partition at, and ``np.unique`` imports ``numpy.ma`` on its first
call (about 20 ms and 1 MB per process). Subset simulation's thresholds
and the KDE bandwidth's interquartile range need nothing but the linear
quantile of a finite 1-D sample, so ``linear_quantile`` computes it with
``np.partition`` alone, in the same operations as numpy and so to the
same bits (checked against numpy 2.4).
"""

from __future__ import annotations

import numpy as np


def linear_quantile(values, q):
    """np.quantile(values, q) for finite 1-D ``values`` and q in [0, 1).

    The virtual index is (n - 1) q; its floor and the next index (clamped
    to n - 1) pick two order statistics a <= b, and with t the fractional
    part the result is numpy's ``_lerp``: a + (b - a) t, or
    b - (b - a)(1 - t) where t >= 0.5. A scalar q gives a float, an array
    of q an array.
    """
    values = np.asarray(values, dtype=float)
    n = len(values)
    q = np.asarray(q, dtype=float)
    virtual = (n - 1) * q
    lo = np.floor(virtual)
    i = lo.astype(np.intp)
    j = np.minimum(i + 1, n - 1)
    # numpy's own partition points, sorted and without repeats: equal
    # values (0.0 and -0.0 among them) then land where numpy's land
    kth = sorted({0, -1, *i.ravel().tolist(), *j.ravel().tolist()})
    part = np.partition(values, kth)
    a, b = part[i], part[j]
    t = virtual - lo
    diff = b - a
    out = np.asarray(a + diff * t)
    np.subtract(b, diff * (1 - t), out=out, where=t >= 0.5)
    return out if out.ndim else float(out)
