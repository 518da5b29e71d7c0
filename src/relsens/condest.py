"""Conditional failure-probability curves from failure samples.

The Bayes identity pf(x) = f(x | F) / f(x) * pf turns the marginal
failure-sample density into the conditional failure probability, so the
whole curve is a post-processing step: no further model evaluations.

The conditional density comes from a Gaussian kernel density estimate
fitted to the samples mapped through z = Phi^{-1}(F(x)). The ratio
f(x | F) / f(x) is then f_Z(z | F) / phi(z), so the Jacobian of the map
cancels, and no kernel mass leaks outside a bounded support.

The kernel sum is exact up to a stated truncation, not binned. The model
keeps its points sorted, and each evaluation point sums the kernel only
over the contiguous run of points within (d_min + c) bandwidths of it,
where d_min is the distance to its nearest point and
c = sqrt(2 ln(n / TRUNCATION_RTOL)). An omitted term is at most
exp(-c^2 / 2) = TRUNCATION_RTOL / n times the largest term of the sum, so
all omitted terms together change each density value by less than
TRUNCATION_RTOL relative, far-tail values included. Most kernel terms of
a failure sample lie many bandwidths out, where exp underflows; the
window skips them instead of computing zeros and subnormals.

The sums run over blocks of consecutive evaluation points, not point by
point. Evaluation points are taken in sorted order, and a block builds
the kernel matrix of its rows against the union of their windows in four
in-place array passes (difference, square, scale by -1/(2 h^2), exp)
and sums each row. A block grows while rows x union width stays within
one element budget, KERNEL_BLOCK_TERMS (65 536 terms, 512 KiB); a point
whose own window is wider forms a block alone. The union contains each
row's own window, so every row sums at least the terms the truncation
bound needs and the bound holds as stated; the extra terms are ones it
allowed to drop. Because the summation is grouped by block, the last
bits of a value may depend on which points share its call; a given call
always returns the same values.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import special
from .errors import DegenerateSampleError, DomainError
from .quantile import linear_quantile

TRUNCATION_RTOL = 1e-16
KERNEL_BLOCK_TERMS = 65_536          # 512 KiB of float64 per kernel block
MIN_FAILURE_VALUES = 20
GRID_Z_LO, GRID_Z_HI = -4.753424308822899, 4.753424308817087


def silverman_bandwidth(values):
    """1.06 min(sd, iqr/1.34) n^(-1/5).

    When ties make the IQR zero the spread falls back to sd alone, as R's
    ``bw.nrd0`` does; only a sample with zero sd is degenerate. The
    quartiles are ``np.percentile``'s, to the bit (``linear_quantile``).
    """
    values = np.asarray(values, dtype=float)
    n = len(values)
    sd = float(np.std(values, ddof=1))
    q75, q25 = linear_quantile(values, [0.75, 0.25])
    iqr_spread = (q75 - q25) / 1.34
    spread = min(sd, iqr_spread) if iqr_spread > 0.0 else sd
    if spread <= 0.0:
        raise DegenerateSampleError("sample has zero spread")
    return 1.06 * spread * n ** (-0.2)


def _kernel_row_sums(t, p, scale, out):
    """out[k] = sum over j of exp(scale (t[k] - p[j])^2), for one block.

    Four in-place passes over the block; the block is freed on return,
    so the caller never holds two at once.
    """
    block = np.subtract.outer(t, p)
    np.square(block, out=block)
    block *= scale
    np.exp(block, out=block)
    block.sum(axis=1, out=out)


@dataclass(frozen=True)
class KdeModel:
    """Gaussian KDE of one input's failure-sample values in z space.

    ``points`` are kept sorted, which the windowed kernel sum relies on.
    ``kernel_terms`` counts the kernel terms its density calls evaluated.
    """

    points: np.ndarray = field(repr=False)
    bandwidth: float
    kernel_terms: int = field(default=0, init=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "points",
                           np.sort(np.asarray(self.points, dtype=float)))

    def windows(self, t):
        """Index range [lo, hi) of the sorted points within reach of each t.

        The reach is (d_min + c) bandwidths, where d_min is the distance
        from t to its nearest point and c = sqrt(2 ln(n / TRUNCATION_RTOL)).
        """
        p = self.points
        n = len(p)
        c = math.sqrt(2.0 * math.log(n / TRUNCATION_RTOL))
        right = np.searchsorted(p, t)
        d_min = np.minimum(np.abs(t - p[np.maximum(right - 1, 0)]),
                           np.abs(p[np.minimum(right, n - 1)] - t))
        reach = d_min + c * self.bandwidth
        return (np.searchsorted(p, t - reach, side="left"),
                np.searchsorted(p, t + reach, side="right"))

    def density_transformed(self, t):
        """Density of the fitted z values at each t.

        Each t sums the Gaussian kernel at least over its window (see
        ``windows``). The omitted terms total less than TRUNCATION_RTOL
        (1e-16) times the full sum, so each value equals the direct sum
        over all n points to within that and summation rounding; a value
        is exactly zero only where every kernel term underflows.

        The t are summed in sorted order, in blocks of consecutive points
        that share the union of their windows; a block grows while
        rows x union width stays within KERNEL_BLOCK_TERMS, so no
        temporary is larger than that budget or one point's own window.
        The union holds each point's own window, so the bound above still
        holds. Since the summation is grouped by block, the last bits of
        a value may depend on which points share its call; a given call
        always gives the same values, and a permutation of t the same
        values permuted. ``kernel_terms`` grows by the number of terms
        evaluated: rows x union width, summed over the blocks.
        """
        t = np.atleast_1d(np.asarray(t, dtype=float))
        p = self.points
        h = self.bandwidth
        order = np.argsort(t, kind="stable")
        ts = t[order]
        lo, hi = self.windows(ts)
        lo, hi = lo.tolist(), hi.tolist()
        m = len(ts)
        scale = -0.5 / (h * h)
        sums = np.empty(m)
        terms = 0
        k0 = 0
        with np.errstate(under="ignore"):
            while k0 < m:
                a, b = lo[k0], hi[k0]
                k1 = k0 + 1
                while k1 < m:
                    a1, b1 = min(a, lo[k1]), max(b, hi[k1])
                    if (k1 + 1 - k0) * (b1 - a1) > KERNEL_BLOCK_TERMS:
                        break
                    a, b = a1, b1
                    k1 += 1
                _kernel_row_sums(ts[k0:k1], p[a:b], scale, sums[k0:k1])
                terms += (k1 - k0) * (b - a)
                k0 = k1
        object.__setattr__(self, "kernel_terms", self.kernel_terms + terms)
        out = np.empty_like(sums)
        out[order] = sums / (len(p) * h * math.sqrt(2.0 * math.pi))
        return out


def kde_fit(values, marginal):
    """Fit the conditional-density KDE for one input's failure values, at
    z = Phi^{-1}(F(x))."""
    values = np.asarray(values, dtype=float)
    if len(values) < MIN_FAILURE_VALUES:
        raise DomainError(f"need at least {MIN_FAILURE_VALUES} failure values "
                          "for a density fit")
    pts = np.asarray(marginal.to_standard_normal(values), dtype=float)
    # bandwidth from the unsorted values: sorting would reorder the sd sum
    return KdeModel(points=pts, bandwidth=silverman_bandwidth(pts))


@dataclass(frozen=True)
class ConditionalPfCurve:
    """pf(x_i) on a grid, with the prior density f(x_i) on that grid.

    The decision layer integrates against ``density_prior``, so every
    curve carries it. ``density_conditional`` is f(x_i | F) where a KDE
    produced the curve, and ``kernel_terms`` the number of kernel terms
    its KDE evaluated.
    """

    grid: np.ndarray
    pf_values: np.ndarray
    source: str                      # analytic | form | kde
    pf_uncond: float
    density_prior: np.ndarray = field(repr=False)
    density_conditional: np.ndarray = field(repr=False, default=None)
    clip_fraction: float = 0.0
    n_failure_samples: int = 0
    ess: float = float("nan")
    kernel_terms: int = 0

    def __post_init__(self):
        g = np.asarray(self.grid, dtype=float)
        if not np.all(np.diff(g) > 0.0):
            raise DomainError("curve grid must be strictly increasing")
        object.__setattr__(self, "grid", g)
        object.__setattr__(self, "pf_values",
                           np.asarray(self.pf_values, dtype=float))


def default_grid(marginal, n):
    """Uniform grid of n points from the 1e-6 to the 1 - 1e-6 quantile: x at
    z = GRID_Z_LO to GRID_Z_HI (+-4.7534, scipy.special.ndtri at those p)."""
    x = marginal.from_standard_normal
    return np.linspace(x(GRID_Z_LO), x(GRID_Z_HI), n)


def effective_sample_size(values, stride=1):
    """Autocorrelation-based ESS; equals n for independent input.

    ``values`` may interleave ``stride`` chains step-major (row
    k * stride + c is step k of chain c), so the autocorrelation is taken
    at lags that are multiples of ``stride``: up to 200 steps of each
    chain.
    """
    v = np.asarray(values, dtype=float)
    n = len(v)
    v = v - v.mean()
    var = float(v @ v) / n
    if var <= 0.0:
        return float(n)
    s = 0.0
    for lag in range(stride, min(n - 1, 200 * stride), stride):
        rho = float(v[:-lag] @ v[lag:]) / ((n - lag) * var)
        if rho <= 0.05:
            break
        s += rho
    return n / (1.0 + 2.0 * s)


def conditional_pf_from_failure_samples(marginal, failure_values, pf_hat,
                                        grid, n_chains=1):
    """Estimate pf(x_i) on a grid from one input's failure-sample values.

    Values are clipped to [0, 1]; the clipped fraction is recorded on the
    curve. ``n_chains`` is the number of MCMC chains interleaved
    step-major in ``failure_values`` (1 for independent draws); it only
    sets the lags of the ESS.
    """
    if not 0.0 < pf_hat < 1.0:
        raise DomainError("pf_hat must lie in (0, 1)")
    grid = np.asarray(grid, dtype=float)
    model = kde_fit(failure_values, marginal)

    prior = np.asarray(marginal.pdf(grid), dtype=float)
    # ratio f(x|F)/f(x) collapses to f_Z(z)/phi(z): one KDE pass, no Jacobian
    z = np.asarray(marginal.to_standard_normal(grid), dtype=float)
    cond_z = model.density_transformed(z)
    phi_z = special.std_normal_pdf(z)
    raw = pf_hat * cond_z / phi_z
    cond = cond_z * prior / phi_z

    pf = np.clip(raw, 0.0, 1.0)
    clip_fraction = float(np.mean(raw > 1.0))
    return ConditionalPfCurve(
        grid=grid, pf_values=pf, source="kde",
        pf_uncond=float(pf_hat), density_prior=prior,
        density_conditional=cond, clip_fraction=clip_fraction,
        n_failure_samples=len(np.asarray(failure_values)),
        ess=effective_sample_size(failure_values, stride=n_chains),
        kernel_terms=model.kernel_terms)


def curve_from_function(marginal, pf_of_x, pf_uncond, grid,
                        source="analytic"):
    """Wrap a vectorized pf(x_i) callable as a curve on ``grid``."""
    grid = np.asarray(grid, dtype=float)
    return ConditionalPfCurve(
        grid=grid, pf_values=np.asarray(pf_of_x(grid), dtype=float),
        source=source, pf_uncond=float(pf_uncond),
        density_prior=np.asarray(marginal.pdf(grid), dtype=float))

