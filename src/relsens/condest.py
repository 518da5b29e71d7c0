"""Conditional failure-probability curves from failure samples.

The Bayes identity pf(x) = f(x | F) / f(x) * pf turns the marginal
failure-sample density into the conditional failure probability, so the
whole curve is a post-processing step: no further model evaluations.

The conditional density comes from a Gaussian kernel density estimate
fitted to the samples mapped through z = Phi^{-1}(F(x)). The ratio
f(x | F) / f(x) is then f_Z(z | F) / phi(z), so the Jacobian of the map
cancels, and no kernel mass leaks outside a bounded support.

The kernel sum is exact up to stated truncations, not binned. In units
of s = h sqrt(2) each term is exp(-(t - p)^2). The model keeps its points
sorted, and the targets t are split by d_min, the distance from t to its
nearest point:

- Near targets (d_min <= NEAR_CUT = 3, in units of s) are summed by the
  Taylor series of the fast Gauss transform (Greengard & Strain 1991).
  The sorted points are cut into boxes of width BOX_WIDTH = 0.5; with
  D = t - centre and d = p - centre,
  exp(-(D - d)^2) = exp(-D^2) exp(-d^2) sum_k (2 D d)^k / k!.
  The SERIES_TERMS = K = 30 box moments sum_p exp(-d^2) (2 d)^k / k! are
  built once per call, and each target takes one Horner sum in D over
  the boxes within its reach. Cutting the series after K terms errs by
  at most exp(-D^2 + |D| W) (|D| W)^K / K! per point (W = BOX_WIDTH),
  which peaks at 3e-30 near |D| = 4; a near target's sum is at least
  exp(-9), so even at n = 1e5 that is below 1e-21 relative. What is
  left is rounding: the values match the direct sum to 1e-13 relative.
- Tail targets (d_min > 3) sum the kernel directly, over the contiguous
  run of points within r = sqrt(d_min^2 + c^2) bandwidths of t, where
  c = sqrt(2 ln(n / TRUNCATION_RTOL)). An omitted term is at most
  exp(-r^2 / 2) = exp(-d_min^2 / 2) exp(-c^2 / 2), that is
  TRUNCATION_RTOL / n times the largest term of the sum, so all omitted
  terms together change a value by less than TRUNCATION_RTOL relative,
  far-tail values included. Most kernel terms of a failure sample lie
  many bandwidths out, where exp underflows; the window skips them
  instead of computing zeros and subnormals.

A near target's reach is the same r bandwidths, widened by half a box so
that every box holding a point of its window takes part; the truncation
bound above holds for it too.

Both sums run over blocks of consecutive sorted targets, not target by
target. A direct block builds the kernel matrix of its rows against the
union of their windows in four in-place passes (difference, square,
scale by -1/(2 h^2), exp) and sums each row; a series block runs its
Horner passes over its rows against the union of their boxes. Every
temporary lives in one buffer of KERNEL_BLOCK_TERMS float64 (65 536
terms, 512 KiB), which holds the box moments as well: a block grows while
it fits, and a lone target whose window is wider is summed in pieces.
A block's union spans at most twice its widest window, so tail targets
on either side of the points never share one. The union holds each row's
own window, so the bounds hold as stated; the extra terms are ones they
allowed to drop. Because the summation is grouped by block, the last
bits of a value may depend on which points share its call; a given call
always returns the same values.

The series is taken only where its n K box moments and K terms per box
within each near target's reach number fewer than the direct terms of
the near targets' windows. With few targets (on 20 000 points, a grid of
under 128 to 256) or few points per box it would cost more. There, and
where the box moments would take more than half the buffer (over 1092
boxes, a sample spread thinly over many bandwidths), all targets are
summed directly.
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
NEAR_CUT = 3.0                       # d_min / (h sqrt 2) summed by the series
BOX_WIDTH = 0.5                      # box width in units of h sqrt 2
SERIES_TERMS = 30
MIN_FAILURE_VALUES = 20
GRID_Z_LO, GRID_Z_HI = -4.753424308822899, 4.753424308817087

# 2^k / k!, which turns the moments sum exp(-d^2) d^k into the series' own
_SERIES_SCALE = np.array([[2.0 ** k / math.factorial(k)]
                          for k in range(SERIES_TERMS)])


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


def _blocks(t, lo, hi, budget, span):
    """Split the sorted rows t, with ranges [lo, hi), into blocks [k0, k1).

    A block grows while rows x union width stays within ``budget``, the
    union at most twice its widest range (so rows on either side of the
    points never share one) and its rows within ``span`` of its first.
    Yields (k0, k1, a, b), [a, b) being the union of the rows' ranges.
    """
    t, lo, hi = t.tolist(), lo.tolist(), hi.tolist()
    m = len(lo)
    k0 = 0
    while k0 < m:
        a, b = lo[k0], hi[k0]
        widest = b - a
        k1 = k0 + 1
        while k1 < m:
            a1, b1 = min(a, lo[k1]), max(b, hi[k1])
            widest1 = max(widest, hi[k1] - lo[k1])
            if ((k1 + 1 - k0) * (b1 - a1) > budget or b1 - a1 > 2 * widest1
                    or t[k1] - t[k0] > span):
                break
            a, b, widest = a1, b1, widest1
            k1 += 1
        yield k0, k1, a, b
        k0 = k1


def _direct_sums(t, p, lo, hi, scale, buf, out):
    """out[k] = sum over j in [lo[k], hi[k]) of exp(scale (t[k] - p[j])^2).

    Four in-place passes per block, in ``buf``; a lone row wider than
    ``buf`` is summed in pieces. Returns the number of terms evaluated.
    """
    terms = 0
    for k0, k1, a, b in _blocks(t, lo, hi, len(buf), math.inf):
        rows = k1 - k0
        step = max(1, len(buf) // rows)
        # at least one piece, so that an empty window sums to zero
        for a0 in range(a, max(b, a + 1), step):
            cols = p[a0:min(a0 + step, b)]
            block = buf[:rows * len(cols)].reshape(rows, len(cols))
            np.subtract.outer(t[k0:k1], cols, out=block)
            np.square(block, out=block)
            block *= scale
            np.exp(block, out=block)
            if a0 == a:
                block.sum(axis=1, out=out[k0:k1])
            else:
                out[k0:k1] += block.sum(axis=1)
        terms += rows * (b - a)
    return terms


def _box_moments(p, starts, centres, s, mom, free):
    """mom[k, j] = sum over box j of exp(-d^2) (2 d)^k / k!, d = (p - c_j) / s.

    The points are taken in chunks that fit ``free`` as K + 1 rows (d and
    its K weighted powers); each chunk adds its box segments' row sums.
    """
    n = len(p)
    chunk = len(free) // (SERIES_TERMS + 1)
    bounds = starts + [n]
    mom[...] = 0.0
    j0 = 0
    for c0 in range(0, n, chunk):
        c1 = min(n, c0 + chunk)
        d = free[:c1 - c0]
        pw = free[c1 - c0:(SERIES_TERMS + 1) * (c1 - c0)].reshape(
            SERIES_TERMS, c1 - c0)
        while bounds[j0 + 1] <= c0:
            j0 += 1
        segs = []
        j = j0
        while bounds[j] < c1:
            s0, s1 = max(bounds[j], c0), min(bounds[j + 1], c1)
            np.subtract(p[s0:s1], centres[j], out=d[s0 - c0:s1 - c0])
            segs.append(s0 - c0)
            j += 1
        d *= 1.0 / s
        np.square(d, out=pw[0])
        np.negative(pw[0], out=pw[0])
        np.exp(pw[0], out=pw[0])
        for k in range(1, SERIES_TERMS):
            np.multiply(pw[k - 1], d, out=pw[k])
        mom[:, j0:j] += np.add.reduceat(pw, segs, axis=1)
    mom *= _SERIES_SCALE


def _series_sums(t, lo, hi, span, centres, mom, s, free, out):
    """out[k] = sum over boxes j in [lo[k], hi[k]) of
    exp(-D^2) sum_i mom[i, j] D^i, D = (t[k] - c_j) / s, by Horner.

    Blocks of rows share the union of their boxes, and a block's rows lie
    within ``span`` of its first (the widest reach), so |D| stays below
    twice that and the Horner sums cannot overflow however sparse the
    boxes. Returns the number of series terms evaluated.
    """
    half = len(free) // 2
    terms = 0
    for k0, k1, a, b in _blocks(t, lo, hi, half, span):
        rows, w = k1 - k0, b - a
        dist = free[:rows * w].reshape(rows, w)
        acc = free[half:half + rows * w].reshape(rows, w)
        np.subtract.outer(t[k0:k1], centres[a:b], out=dist)
        dist *= 1.0 / s
        acc[...] = mom[-1, a:b]
        for k in range(SERIES_TERMS - 2, -1, -1):
            acc *= dist
            acc += mom[k, a:b]
        np.square(dist, out=dist)
        np.negative(dist, out=dist)
        np.exp(dist, out=dist)
        acc *= dist
        acc.sum(axis=1, out=out[k0:k1])
        terms += rows * w * SERIES_TERMS
    return terms


@dataclass(frozen=True)
class KdeModel:
    """Gaussian KDE of one input's failure-sample values in z space.

    ``points`` are kept sorted, which the windowed sums rely on.
    ``kernel_terms`` counts the work its density calls did: kernel terms
    summed directly, plus n K box-moment terms for each call that used the
    series, plus rows x boxes x K series terms (K = SERIES_TERMS).
    """

    points: np.ndarray = field(repr=False)
    bandwidth: float
    kernel_terms: int = field(default=0, init=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "points",
                           np.sort(np.asarray(self.points, dtype=float)))

    def _nearest(self, t):
        """Distance from each t to its nearest point."""
        p = self.points
        right = np.searchsorted(p, t)
        return np.minimum(np.abs(t - p[np.maximum(right - 1, 0)]),
                          np.abs(p[np.minimum(right, len(p) - 1)] - t))

    def _reach(self, d_min):
        """sqrt(d_min^2 + (c h)^2), c = sqrt(2 ln(n / TRUNCATION_RTOL))."""
        c = math.sqrt(2.0 * math.log(len(self.points) / TRUNCATION_RTOL))
        return np.hypot(d_min, c * self.bandwidth)

    def windows(self, t):
        """Index range [lo, hi) of the sorted points within reach of each t.

        The reach is sqrt(d_min^2 + c^2) bandwidths, where d_min is the
        distance from t to its nearest point in bandwidths and
        c = sqrt(2 ln(n / TRUNCATION_RTOL)): a point beyond it adds less
        than TRUNCATION_RTOL / n times the largest term of the sum.
        """
        return self._windows(t, self._nearest(t))

    def _windows(self, t, d_min):
        p = self.points
        reach = self._reach(d_min)
        return (np.searchsorted(p, t - reach, side="left"),
                np.searchsorted(p, t + reach, side="right"))

    def _boxes(self, width, limit):
        """Start index of each box of the sorted points, or None past
        ``limit`` boxes. A box opens at its first point and holds the
        points less than ``width`` above it."""
        p = self.points
        starts = []
        i = 0
        while i < len(p):
            if len(starts) == limit:
                return None
            starts.append(i)
            i = max(i + 1, int(p.searchsorted(p[i] + width)))
        return starts

    def _series(self, t, d_min, direct, buf, out):
        """Sum the near targets t by the box series into ``out`` and return
        the terms it took, or None where it would not save work: where the
        box moments would take over half of ``buf``, or the moments and
        series terms would be no fewer than the ``direct`` terms."""
        p = self.points
        if SERIES_TERMS * len(p) >= direct:
            return None
        s = self.bandwidth * math.sqrt(2.0)
        width = BOX_WIDTH * s
        starts = self._boxes(width, KERNEL_BLOCK_TERMS // (2 * SERIES_TERMS))
        if starts is None:
            return None
        centres = p[starts] + 0.5 * width
        reach = self._reach(d_min) + 0.5 * width
        lo = np.searchsorted(centres, t - reach, side="left")
        hi = np.searchsorted(centres, t + reach, side="right")
        if SERIES_TERMS * (len(p) + int((hi - lo).sum())) >= direct:
            return None
        cut = SERIES_TERMS * len(starts)
        mom = buf[:cut].reshape(SERIES_TERMS, len(starts))
        _box_moments(p, starts, centres, s, mom, buf[cut:])
        return SERIES_TERMS * len(p) + _series_sums(
            t, lo, hi, float(reach.max()), centres, mom, s, buf[cut:], out)

    def density_transformed(self, t):
        """Density of the fitted z values at each t.

        Targets within NEAR_CUT = 3 units of h sqrt(2) of a point are
        summed by the box series, the others directly over their windows
        (see ``windows`` and the module docstring); so are all targets
        where the n K box moments and the series terms would number no
        fewer than the near targets' direct terms, as with a short grid.
        Series truncation is
        below 1e-21 relative and the omitted window terms below
        TRUNCATION_RTOL (1e-16) relative, so each value equals the direct
        sum over all n points to within rounding: 1e-13 relative. A value
        is exactly zero only where every kernel term of its window
        underflows, which only a tail target's can.

        The t are summed in sorted order, in blocks of consecutive targets
        that share the union of their windows or boxes, within one buffer
        of KERNEL_BLOCK_TERMS floats. Since the summation is grouped by
        block, the last bits of a value may depend on which points share
        its call; a given call always gives the same values, and a
        permutation of t the same values permuted. ``kernel_terms`` grows
        by the direct terms, the n K moment terms if any target took the
        series, and rows x boxes x K series terms (K = SERIES_TERMS).
        """
        t = np.atleast_1d(np.asarray(t, dtype=float))
        p = self.points
        h = self.bandwidth
        s = h * math.sqrt(2.0)
        order = np.argsort(t, kind="stable")
        ts = t[order]
        sums = np.empty(len(ts))
        buf = np.empty(KERNEL_BLOCK_TERMS)
        d_min = self._nearest(ts)
        lo, hi = self._windows(ts, d_min)
        near = d_min <= NEAR_CUT * s
        n_near = int(near.sum())
        terms = 0
        with np.errstate(under="ignore"):
            if n_near:
                near_sums = np.empty(n_near)
                series = self._series(ts[near], d_min[near],
                                      int((hi - lo)[near].sum()), buf,
                                      near_sums)
                if series is None:
                    near[:] = False
                    n_near = 0
                else:
                    terms += series
                    sums[near] = near_sums
            if n_near < len(ts):
                tail = ~near
                tail_sums = np.empty(len(ts) - n_near)
                terms += _direct_sums(ts[tail], p, lo[tail], hi[tail],
                                      -0.5 / (h * h), buf, tail_sums)
                sums[tail] = tail_sums
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
    produced the curve, and ``kernel_terms`` the work its KDE did: kernel
    terms summed directly, n K box moments and rows x boxes x K series
    terms (see ``KdeModel``).
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

