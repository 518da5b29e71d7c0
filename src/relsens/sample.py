"""Sampling estimators of the failure probability.

Crude Monte Carlo and subset simulation. All randomness flows through
the counter-based Philox generator with an explicit seed; subset
simulation draws a dedicated substream per level, so runs are exactly
reproducible in sequential mode.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import lsf as lsf_mod
from .errors import DomainError, StagnationError

MC_BATCH = 200_000


def make_rng(seed_or_stream):
    return np.random.Generator(np.random.Philox(seed_or_stream))


@dataclass(frozen=True)
class McResult:
    pf_hat: float
    n: int
    ci95: tuple
    failure_samples: np.ndarray = field(repr=False)
    seed: int


@dataclass(frozen=True)
class SubsetResult:
    pf_hat: float
    levels: tuple                      # (threshold, conditional probability)
    last_level_samples: np.ndarray = field(repr=False)
    correlated: bool
    seed: int
    n_per_level: int = 0
    accept_rate: float = float("nan")
    n_chains: int = 1                  # chains interleaved in last_level_samples


def crude_mc(joint, limit_state, n, seed, a=None):
    """Direct Monte Carlo estimate of P(g <= 0).

    Deterministic for a given seed; failure_samples holds exactly the
    physical rows with g <= 0, in draw order.
    """
    if n < 1:
        raise DomainError("n must be at least 1")
    rng = make_rng(seed)
    n_fail = 0
    fail_rows = []
    done = 0
    while done < n:
        m = min(MC_BATCH, n - done)
        x, _ = joint.sample(m, rng)
        g = lsf_mod.evaluate(limit_state, x, a)
        mask = g <= 0.0
        n_fail += int(np.count_nonzero(mask))
        if mask.any():
            fail_rows.append(x[mask])
        done += m
    pf = n_fail / n
    half = 1.96 * np.sqrt(max(pf * (1.0 - pf), 0.0) / n)
    ci = (max(0.0, pf - half), min(1.0, pf + half))
    samples = np.vstack(fail_rows) if fail_rows else np.empty((0, joint.dim))
    return McResult(pf_hat=pf, n=n, ci95=ci, failure_samples=samples,
                    seed=seed)


def _conditional_level(G, seeds_u, seeds_g, threshold, n_out, rng, lam):
    """Adaptive conditional sampling: grow chains from the seeds until
    n_out samples conditional on {g <= threshold} exist.

    Proposal per component: v = sqrt(1-s^2) u + s xi with a common scale
    factor adapted toward acceptance 0.44. Rows are stacked step-major:
    row k * ns + c is step k of the chain grown from seed c.
    """
    ns, d = seeds_u.shape
    steps = int(np.ceil(n_out / ns))
    sigma0 = np.std(seeds_u, axis=0, ddof=1)
    sigma0 = np.where(sigma0 > 1e-12, sigma0, 1.0)
    out_u = [seeds_u]
    out_g = [seeds_g]
    cur_u = seeds_u.copy()
    cur_g = seeds_g.copy()
    acc_sum, acc_n = 0.0, 0
    for step in range(1, steps):
        s = np.minimum(lam * sigma0, 1.0)
        rho = np.sqrt(1.0 - s * s)
        cand = rho * cur_u + s * rng.standard_normal(cur_u.shape)
        g_cand = G(cand)
        acc = g_cand <= threshold
        cur_u = np.where(acc[:, None], cand, cur_u)
        cur_g = np.where(acc, g_cand, cur_g)
        out_u.append(cur_u.copy())
        out_g.append(cur_g.copy())
        rate = float(np.mean(acc))
        acc_sum += rate
        acc_n += 1
        lam = float(np.exp(np.log(lam) + (rate - 0.44) / np.sqrt(step)))
    u = np.vstack(out_u)[:n_out]
    g = np.concatenate(out_g)[:n_out]
    return u, g, lam, (acc_sum / acc_n if acc_n else float("nan"))


def subset_simulation(joint, limit_state, n_per_level, p0, seed, a=None,
                      max_levels=30):
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
    streams = root.spawn(max_levels + 2)
    G = lambda u: lsf_mod.evaluate(limit_state, joint.to_physical(u), a)

    rng = make_rng(streams[0])
    u = rng.standard_normal((n_per_level, joint.dim))
    g = G(u)
    levels = []
    lam = 0.6
    acc_last = float("nan")
    prev_thresholds = []
    for level in range(1, max_levels + 1):
        t = float(np.quantile(g, p0))
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
        u, g, lam, acc_last = _conditional_level(
            lambda uu: G(uu), seeds_u, seeds_g, t, n_per_level, rng, lam)
    else:
        raise StagnationError(f"no failure level within {max_levels} levels")

    pf = float(np.prod([p for _, p in levels]))

    # one extra conditional pass at threshold 0: n_per_level failure samples
    mask = g <= 0.0
    rng = make_rng(streams[-1])
    ns = int(np.count_nonzero(mask))
    perm = rng.permutation(ns)
    u_fail, _, lam, acc = _conditional_level(
        lambda uu: G(uu), u[mask][perm], g[mask][perm], 0.0,
        n_per_level, rng, lam)
    x_fail = joint.to_physical(u_fail)
    if not np.isnan(acc):
        acc_last = acc
    return SubsetResult(pf_hat=pf, levels=tuple(levels),
                        last_level_samples=np.atleast_2d(x_fail),
                        correlated=True, seed=seed,
                        n_per_level=n_per_level, accept_rate=acc_last,
                        n_chains=ns)
