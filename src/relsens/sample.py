"""Sampling estimators of the failure probability.

Crude Monte Carlo and subset simulation. All randomness flows through
the counter-based Philox generator with an explicit seed, so runs are
exactly reproducible. Subset simulation draws a dedicated substream per
level, spawned from the seed alone: runs at other design values on the
same seed share its streams (the pipeline's design rows are such runs),
and runs on other seeds share none.

Crude MC draws its sample in chunks of MC_BATCH (25 000) rows, in
order, from one stream. It runs the package's only thread loop: the
calling thread and one helper per further available CPU, at most one
thread per chunk (numpy's and scipy's array kernels release the GIL).
Under one lock a thread takes the next chunk and draws it, and outside
the lock it maps, evaluates and reduces the chunk to its failure counts,
failure rows and packed failure bits, which become the chunk's result.
So the chunks in flight number ``workers``, and the working set is those
chunks plus the failure rows, whatever n is. Each thread owns two
buffers, its draws and its physical rows, and reuses them for every
chunk it takes.
Fresh arrays per chunk would be freed on the worker as it returns, and
glibc then hands the worker's heap back to the kernel and faults it in
again for the next chunk: on a 2-CPU VM that was about 22 000 page
faults per 10^6-row example2 run, against about 1 200 with the buffers,
and it made the run's time depend on how busy the host was. A chunk
that raises stops its thread, no thread takes a chunk after that, and
the error of the earliest failing chunk is raised once every thread has
joined. Everything after the sampling runs on the calling thread (see
``pipeline``).

The results do not depend on the number of workers, by construction:
the chunks are drawn in order with fixed sizes, each chunk is mapped
and evaluated alone, and the reductions are combined in chunk order.
They do not depend on the chunk size either, and match a run with
larger chunks, as far as tested: split Philox draws give the same values
as one draw, and the copula map and g act row by row. That the copula
product gives the same bits for any chunk of two rows or more, and the
bits of the row-major product u chol_z^T the samples were pinned with,
is a property of the BLAS, not a guarantee; ``tests/test_dists.py``
(``test_to_physical_keeps_the_bits_of_the_row_major_product``) pins it
on the shipped joints.

Subset simulation writes each level's chains into one array of u and
one of g, each allocated once for the level, and keeps one level alive
at a time: a level's samples are dropped as soon as the seeds of the
next level (or of the final pass at threshold 0) are taken from them.
Each level's threshold is numpy's linear p0-quantile of g, and its seeds
are the rows of the ns = floor(p0 n) smallest g in ascending g, as
``np.quantile`` and a full ``np.argsort(g)`` give them. Both come from
one ordering (``_threshold_and_seeds``): a single-pivot
``np.argpartition`` at the upper of the threshold's two order
statistics, and an ``np.argsort`` of the values it puts in front. On
20 000 values on a 2-CPU VM that took 0.08 ms, against 0.26 ms for
``np.quantile``'s multi-pivot partition and 0.29 ms for the full
argsort. Ties in g come from rejected moves, which repeat their chain's
state, so the order of tied rows does not change the seeds.
"""

from __future__ import annotations

import os
import threading
from dataclasses import dataclass, field

import numpy as np

from . import lsf as lsf_mod
from .errors import DomainError, NonFiniteGError, StagnationError
from .quantile import lerp, quantile_position

MC_BATCH = 25_000
MAX_LEVELS = 30                 # subset levels before giving up


def make_rng(seed_or_stream):
    return np.random.Generator(np.random.Philox(seed_or_stream))


@dataclass(frozen=True)
class McResult:
    """Crude Monte Carlo at one or more design values on one sample.

    pf_hat, n_fail and both ci95 bounds hold one value per design (one
    for a design-free limit state). failure_samples holds the rows that
    fail at any design, and ``failed_at`` marks, as bits packed along
    the design axis (``np.packbits(..., axis=1)``), the designs each row
    fails at.
    """

    pf_hat: np.ndarray
    n: int
    ci95: tuple                        # (lower, upper)
    failure_samples: np.ndarray = field(repr=False)
    n_fail: np.ndarray
    failed_at: np.ndarray = field(repr=False)
    workers: int = 1                   # threads that drew and evaluated chunks

    def failures(self, j):
        """The failure rows of design j, in draw order."""
        bit = (self.failed_at[:, j // 8] >> (7 - j % 8)) & 1
        return self.failure_samples[bit.astype(bool)]


@dataclass(frozen=True)
class SubsetResult:
    pf_hat: float
    levels: tuple                      # (threshold, conditional probability)
    last_level_samples: np.ndarray = field(repr=False)
    accept_rate: float                 # of the last conditional pass
    n_chains: int = 1                  # chains interleaved in last_level_samples
    g_evals: int = 0                   # rows passed to g, every pass


def _available_cpus():
    """CPUs this process may run on: its affinity mask where there is one."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def crude_mc(joint, limit_state, n, seed, a=None):
    """Direct Monte Carlo estimate of P(g <= 0).

    ``a`` is None for a design-free limit state, or a 1-D array of design
    values; g is then evaluated at every design on the same sample (common
    random numbers), so each design's result equals that of a run at that
    design alone. The result has one row per design either way: a single
    design is passed as ``[a]``. Deterministic for a given seed;
    failure_samples holds exactly the physical rows with g <= 0 (at some
    design), in draw order.

    The sample is drawn in chunks of MC_BATCH rows on the calling thread
    and ``workers - 1`` helpers (see the module docstring). The error of
    the earliest failing chunk is raised here, with a non-finite g
    reported at its row's index in the whole sample.
    """
    if n < 1:
        raise DomainError("n must be at least 1")
    designs = [None] if a is None else np.asarray(a, dtype=float)
    rng = make_rng(seed)
    sizes = [min(MC_BATCH, n - start) for start in range(0, n, MC_BATCH)]
    if len(sizes) > 1 and sizes[-1] == 1:
        # numpy multiplies a one-row matrix by another kernel, whose last
        # bits differ: a lone last row joins the chunk before it
        sizes[-2:] = [MC_BATCH + 1]
    workers = min(_available_cpus(), len(sizes))
    lock = threading.Lock()
    todo = iter(range(len(sizes)))     # taken in order
    chunks = [None] * len(sizes)
    errors = []                        # (chunk, exception)

    def evaluate(k, x):
        # design-major, so that each design's flags and the reductions
        # across designs run along contiguous rows
        fails = np.empty((len(designs), len(x)), dtype=bool)
        for j, a_j in enumerate(designs):
            try:
                fails[j] = lsf_mod.evaluate(limit_state, x, a_j) <= 0.0
            except NonFiniteGError as exc:
                raise NonFiniteGError(k * MC_BATCH + exc.row,
                                      exc.inputs) from None
        hit = np.logical_or.reduce(fails)
        return (np.count_nonzero(fails, axis=1), x[hit],
                np.packbits(fails[:, hit].T, axis=1))

    def work():
        nonlocal todo
        # x is (d, rows), so that each input's column of a chunk's (m, d)
        # view x_buf[:, :m].T is contiguous
        u_buf = np.empty((max(sizes), joint.dim))
        x_buf = np.empty((joint.dim, max(sizes)))
        while True:
            try:
                with lock:
                    k = next(todo, None)
                    if k is None:
                        return
                    u = rng.standard_normal(out=u_buf[:sizes[k]])
                chunks[k] = evaluate(
                    k, joint.to_physical(u, out=x_buf[:, :len(u)].T))
            except Exception as exc:   # raised on the calling thread
                errors.append((k, exc))
                todo = iter(())        # no thread takes another chunk
                return

    helpers = [threading.Thread(target=work) for _ in range(workers - 1)]
    for thread in helpers:
        thread.start()
    try:
        work()
    finally:
        todo = iter(())                # helpers stop if this thread raised
        for thread in helpers:
            thread.join()
    if errors:
        raise min(errors, key=lambda e: e[0])[1]
    counts, rows, bits = zip(*chunks)
    n_fail = np.sum(counts, axis=0)
    pf = n_fail / n
    half = 1.96 * np.sqrt(np.maximum(pf * (1.0 - pf), 0.0) / n)
    lo, hi = np.maximum(0.0, pf - half), np.minimum(1.0, pf + half)
    return McResult(pf_hat=pf, n=n, ci95=(lo, hi),
                    failure_samples=np.vstack(rows), n_fail=n_fail,
                    failed_at=np.vstack(bits), workers=workers)


def _conditional_level(G, seeds_u, seeds_g, threshold, n_out, rng, lam):
    """Adaptive conditional sampling: grow chains from the seeds until
    n_out samples conditional on {g <= threshold} exist.

    Proposal per component: v = sqrt(1-s^2) u + s xi with a common scale
    factor adapted toward acceptance 0.44. Rows are stacked step-major:
    row k * ns + c is step k of the chain grown from seed c. Every step
    is written into one (steps * ns, d) array of u and one of g, each
    allocated once, and the first n_out rows are returned.
    """
    ns, d = seeds_u.shape
    steps = int(np.ceil(n_out / ns))
    sigma0 = np.std(seeds_u, axis=0, ddof=1)
    sigma0 = np.where(sigma0 > 1e-12, sigma0, 1.0)
    u = np.empty((steps * ns, d))
    g = np.empty(steps * ns)
    cur_u, cur_g = u[:ns], g[:ns]
    cur_u[...] = seeds_u
    cur_g[...] = seeds_g
    acc_sum, acc_n = 0.0, 0
    for step in range(1, steps):
        s = np.minimum(lam * sigma0, 1.0)
        rho = np.sqrt(1.0 - s * s)
        cand = rho * cur_u + s * rng.standard_normal(cur_u.shape)
        g_cand = G(cand)
        acc = g_cand <= threshold
        rows = slice(step * ns, (step + 1) * ns)
        u[rows] = cur_u
        g[rows] = cur_g
        cur_u, cur_g = u[rows], g[rows]
        np.copyto(cur_u, cand, where=acc[:, None])
        np.copyto(cur_g, g_cand, where=acc)
        rate = float(np.mean(acc))
        acc_sum += rate
        acc_n += 1
        lam = float(np.exp(np.log(lam) + (rate - 0.44) / np.sqrt(step)))
    acc_rate = acc_sum / acc_n if acc_n else float("nan")
    return u[:n_out], g[:n_out], lam, acc_rate


def _threshold_and_seeds(g, p0, ns):
    """numpy's linear p0-quantile of g, to the bit, and the indices of the
    ns smallest g in ascending g, from one ordering (see the module
    docstring).

    The quantile lies between the order statistics i and i + 1 of g, so
    a partition at i + 1 puts the i + 2 smallest g in front, and only
    those are sorted. i + 1 < len(g) as p0 < 1, and ns <= i + 1, as
    ns = floor(p0 n) and i = floor((n - 1) p0).
    """
    i, frac = quantile_position(len(g), p0)
    low = np.argpartition(g, i + 1)[:i + 2]
    low = low[np.argsort(g[low])]
    return lerp(float(g[low[i]]), float(g[low[i + 1]]), frac), low[:ns]


def subset_simulation(joint, limit_state, n_per_level, p0, seed, a=None):
    """Subset-simulation estimate of a small failure probability.

    Thresholds sit at the p0-quantile of g per level (numpy's linear
    quantile, to the bit), and the rows of the ns = floor(p0 n_per_level)
    smallest g seed the next level's chains; conditional moves
    use component-wise adaptive Gaussian proposals targeting acceptance
    ~0.44. After the failure level is reached one more conditional pass
    is run at threshold 0, so ``last_level_samples`` holds n_per_level
    (correlated) samples from the failure domain, stacked step-major from
    ``n_chains`` chains: a chain's next state lies n_chains rows later.
    """
    if not 0.0 < p0 < 1.0:
        raise DomainError("p0 must lie in (0, 1)")
    if n_per_level * p0 < 10:
        raise DomainError("n_per_level * p0 must be at least 10")
    root = np.random.SeedSequence(seed)
    streams = root.spawn(MAX_LEVELS + 2)
    g_evals = 0

    def G(u):
        nonlocal g_evals
        g_evals += len(u)
        return lsf_mod.evaluate(limit_state, joint.to_physical(u), a)

    rng = make_rng(streams[0])
    u = rng.standard_normal((n_per_level, joint.dim))
    g = G(u)
    levels = []
    lam = 0.6
    acc_last = float("nan")
    prev_thresholds = []
    ns = int(np.floor(p0 * n_per_level))
    for level in range(1, MAX_LEVELS + 1):
        t, lowest = _threshold_and_seeds(g, p0, ns)
        if t <= 0.0:
            levels.append((0.0, float(np.mean(g <= 0.0))))
            break
        if len(prev_thresholds) >= 3 and all(
                abs(t - pt) <= 1e-12 * max(1.0, abs(t))
                for pt in prev_thresholds[-3:]):
            raise StagnationError(
                f"threshold stagnated at g = {t:.6g}, where g is flat, over "
                f"three levels at p0 = {p0!r}, n_per_level = {n_per_level}")
        prev_thresholds.append(t)
        levels.append((t, p0))
        rng = make_rng(streams[level])
        seeds = lowest[rng.permutation(ns)]
        seeds_u, seeds_g = u[seeds], g[seeds]
        del u, g, lowest, seeds      # the next level grows without this one
        u, g, lam, acc_last = _conditional_level(
            G, seeds_u, seeds_g, t, n_per_level, rng, lam)
    else:
        raise StagnationError(
            f"no failure level within {MAX_LEVELS} levels at p0 = {p0!r}, "
            f"n_per_level = {n_per_level}: the last threshold reached was "
            f"g = {t:.6g}, so pf is below about p0^{MAX_LEVELS} = "
            f"{p0 ** MAX_LEVELS:.3g}")

    pf = float(np.prod([p for _, p in levels]))

    # one extra conditional pass at threshold 0: n_per_level failure samples
    mask = g <= 0.0
    rng = make_rng(streams[-1])
    ns = int(np.count_nonzero(mask))
    perm = rng.permutation(ns)
    seeds_u, seeds_g = u[mask][perm], g[mask][perm]
    del u, g, mask
    u_fail, _, lam, acc = _conditional_level(
        G, seeds_u, seeds_g, 0.0, n_per_level, rng, lam)
    x_fail = joint.to_physical(u_fail)
    if not np.isnan(acc):
        acc_last = acc
    return SubsetResult(pf_hat=pf, levels=tuple(levels),
                        last_level_samples=x_fail,
                        accept_rate=acc_last, n_chains=ns, g_evals=g_evals)
