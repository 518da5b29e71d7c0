"""Sampling estimators of the failure probability.

Crude Monte Carlo and subset simulation. All randomness flows through
the counter-based Philox generator with an explicit seed; subset
simulation draws a dedicated substream per level, so runs are exactly
reproducible.

Crude MC draws its sample in chunks of MC_BATCH (25 000) rows, in
order, from one stream, and maps, evaluates and reduces the chunks on
worker threads (numpy's and scipy's array kernels release the GIL). A
worker returns only its chunk's failure counts, failure rows and packed
failure bits, so a finished chunk waiting to be collected holds its
failure rows, not its sample. At most ``workers + 1`` chunks are in
flight, drawn and not yet collected, so the working set is a few chunks
plus the failure rows, whatever n is; smaller chunks save little more
memory and hand off more often. Each chunk in flight owns two buffers,
its draws and its physical rows, which the next chunk drawn reuses once
it has been collected. Fresh arrays per chunk would be freed on the
worker as it returns, and glibc then hands the worker's heap back to
the kernel and faults it in again for the next chunk: on a 2-CPU VM
that was about 22 000 page faults per 10^6-row example2 run, against
about 1 200 with the buffers, and it made the run's time depend on how
busy the host was.

The results do not depend on the number of workers, by construction:
the chunk sizes are fixed, each chunk is mapped and evaluated alone,
and the chunks are collected in draw order. They do not depend on the
chunk size either, and match a run with larger chunks, as far as
tested: split Philox draws give the same values as one draw, and the
copula map and g act row by row; that the copula matmul gives the same
bits for any chunk of two rows or more was seen on the BLAS it was
tested with (2 to 39 rows against the full product), but is a property
of that BLAS, not a guarantee.

Subset simulation writes each level's chains into one array of u and
one of g, each allocated once for the level, and keeps one level alive
at a time: a level's samples are dropped as soon as the seeds of the
next level (or of the final pass at threshold 0) are taken from them.
Its thresholds are numpy's linear quantile, computed without the
numpy.ma import that ``np.quantile`` brings (``quantile``).
"""

from __future__ import annotations

import os
from collections import deque
from dataclasses import dataclass, field

import numpy as np

from . import lsf as lsf_mod
from .errors import DomainError, NonFiniteGError, StagnationError
from .quantile import linear_quantile

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
    workers: int = 1                   # threads that mapped and evaluated

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

    The sample is drawn in chunks of MC_BATCH rows, in order, on the
    calling thread from the one Philox stream of ``seed``. Each chunk's
    copula map, g evaluations and reduction to its failure rows run on
    one of ``workers`` threads (one per available CPU, at most one per
    chunk); a worker returns the chunk's failure count per design, its
    failure rows and their packed failure bits, and drops the rest of
    the chunk. At most ``workers + 1`` chunks are in flight (drawn and
    not yet collected), each drawn and mapped into buffers that it hands
    on to a later chunk once collected, and the chunks are collected in
    draw order. An error raised on a worker is re-raised here: the one
    of the earliest chunk that failed, with a non-finite g reported at
    its row's index in the whole sample.
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

    def evaluate(start, u, x):
        x = joint.to_physical(u, out=x)
        mask = np.empty((len(x), len(designs)), dtype=bool)
        for j, a_j in enumerate(designs):
            try:
                mask[:, j] = lsf_mod.evaluate(limit_state, x, a_j) <= 0.0
            except NonFiniteGError as exc:
                raise NonFiniteGError(start + exc.row, exc.inputs) from None
        hit = mask.any(axis=1)
        return (np.count_nonzero(mask, axis=0), x[hit],
                np.packbits(mask[hit], axis=1))

    # imported here, so that importing relsens loads no thread pool
    from concurrent.futures.thread import ThreadPoolExecutor

    pool = ThreadPoolExecutor(workers)
    chunks = []
    pending = deque()
    shape = (max(sizes), joint.dim)
    free = []                          # (u, x) buffers of collected chunks

    def collect():
        buffers, future = pending.popleft()
        chunks.append(future.result())
        free.append(buffers)

    try:
        for start, m in zip(range(0, n, MC_BATCH), sizes):
            u_buf, x_buf = (free.pop() if free else
                            (np.empty(shape), np.empty(shape)))
            u = rng.standard_normal(out=u_buf[:m])
            pending.append(((u_buf, x_buf),
                            pool.submit(evaluate, start, u, x_buf[:m])))
            if len(pending) > workers:
                collect()
        while pending:
            collect()
    finally:
        pool.shutdown(cancel_futures=True)

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


def subset_simulation(joint, limit_state, n_per_level, p0, seed, a=None):
    """Subset-simulation estimate of a small failure probability.

    Thresholds sit at the p0-quantile of g per level; conditional moves
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
    G = lambda u: lsf_mod.evaluate(limit_state, joint.to_physical(u), a)

    rng = make_rng(streams[0])
    u = rng.standard_normal((n_per_level, joint.dim))
    g = G(u)
    levels = []
    lam = 0.6
    acc_last = float("nan")
    prev_thresholds = []
    for level in range(1, MAX_LEVELS + 1):
        t = linear_quantile(g, p0)
        if t <= 0.0:
            levels.append((0.0, float(np.mean(g <= 0.0))))
            break
        if len(prev_thresholds) >= 3 and all(
                abs(t - pt) <= 1e-12 * max(1.0, abs(t))
                for pt in prev_thresholds[-3:]):
            raise StagnationError(
                f"threshold stagnated at {t:.6g} over three levels")
        prev_thresholds.append(t)
        levels.append((t, p0))
        order = np.argsort(g)
        ns = int(np.floor(p0 * n_per_level))
        rng = make_rng(streams[level])
        perm = rng.permutation(ns)
        seeds_u = u[order[:ns]][perm]
        seeds_g = g[order[:ns]][perm]
        del u, g, order              # the next level grows without this one
        u, g, lam, acc_last = _conditional_level(
            G, seeds_u, seeds_g, t, n_per_level, rng, lam)
    else:
        raise StagnationError(f"no failure level within {MAX_LEVELS} levels")

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
                        accept_rate=acc_last, n_chains=ns)
