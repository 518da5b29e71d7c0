"""Conditional failure-probability curves from failure samples.

The Bayes identity pf(x) = f(x | F) / f(x) * pf turns the marginal
failure-sample density into the conditional failure probability, so the
whole curve is a post-processing step: no further model evaluations.

The conditional density comes from a Gaussian kernel density estimate
fitted to the samples mapped through z = Phi^{-1}(F(x)). The ratio
f(x | F) / f(x) is then f_Z(z | F) / phi(z), so the Jacobian of the map
cancels, and no kernel mass leaks outside a bounded support.

The kernel sum is exact up to two stated truncations, not binned. In
units of s = h sqrt(2) each term is exp(-(t - p)^2). Each target t takes
only the points within its reach r = sqrt(d_min^2 + c^2) bandwidths,
where d_min is the distance from t to its nearest point and
c = sqrt(2 ln(n / TRUNCATION_RTOL)). A point beyond the reach adds at
most exp(-r^2 / 2) = exp(-d_min^2 / 2) exp(-c^2 / 2), that is
TRUNCATION_RTOL / n times the largest term of the sum, so all omitted
terms together change a value by less than TRUNCATION_RTOL relative,
far-tail values included. The targets are split by d_min:

- Tail targets (d_min > NEAR_CUT = 3, in units of s) sum the kernel
  directly over the points within their reach. Most kernel terms of a
  failure sample lie many bandwidths out, where exp underflows; the
  reach skips them instead of computing zeros and subnormals.
- Near targets (d_min <= 3) are summed by the Taylor series of the fast
  Gauss transform (Greengard & Strain 1991). The points fall into boxes
  of width BOX_WIDTH = W = 0.5 on a grid starting at the smallest point;
  with D = t - centre and d = p - centre, |d| <= W / 2 and
  exp(-(D - d)^2) = exp(-D^2) exp(-d^2) sum_k (2 D d)^k / k!.
  The SERIES_TERMS = K = 30 box moments sum_p exp(-d^2) (2 d)^k / k! are
  built once per call, and each target takes one Horner sum in D over
  each box whose centre lies within its reach plus half a box, so every
  point within its reach takes part. Cutting the series after K terms
  errs by at most exp(-D^2 + |D| W) (|D| W)^K / K! per point, which peaks
  at 3e-30 near |D| = 4; a near target's sum is at least exp(-9), so
  even at n = 1e5 that is below 1e-21 relative. |D| is bounded by the
  reach, so the Horner sums cannot overflow.
- A call whose near targets' windows hold fewer terms than the series
  would take, n K moments plus K per (target, box) pair, sums them
  directly as well: a short grid would otherwise pay the n K moments
  for a handful of targets.

What is left is rounding: the values match the sum over all n points to
1e-13 relative. Both sums run over the flat list of (target, point) or
(target, box) pairs, PAIR_CHUNK pairs at a time, and np.bincount adds
each chunk's terms into their targets; so the sums' temporaries stay
within a chunk however wide a target's reach (the box moments take a
few arrays of n floats). Where the chunk boundaries fall depends on the
other targets of a call, so the last bits of a value may too; a given
call always returns the same values.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import special
from .errors import DegenerateSampleError, DomainError
from .quantile import sorted_quantile

TRUNCATION_RTOL = 1e-16
PAIR_CHUNK = 8192                    # (target, point or box) pairs per pass
NEAR_CUT = 3.0                       # d_min / (h sqrt 2) summed by the series
BOX_WIDTH = 0.5                      # box width in units of h sqrt 2
SERIES_TERMS = 30
MIN_FAILURE_VALUES = 20
GRID_Z_LO, GRID_Z_HI = -4.753424308822899, 4.753424308817087


def silverman_bandwidth(values, ordered=None):
    """1.06 min(sd, iqr/1.34) n^(-1/5).

    When ties make the IQR zero the spread falls back to sd alone, as R's
    ``bw.nrd0`` does; only a sample with zero sd is degenerate. The sd is
    ``np.std(values, ddof=1)`` and the quartiles ``np.percentile(values,
    [75, 25])``, to the bit. The quartiles are read from ``ordered``,
    ``values`` sorted, which a caller that sorts them anyway passes in
    (``kde_fit``); without it they are sorted here. The sd is summed over
    ``values`` in their own order, as a reordered sum may differ in its
    last bits. On 20 000 values on a 2-CPU VM the quartiles of a sorted
    sample take a few microseconds, against 0.37 ms for
    ``np.percentile``'s multi-pivot partition.
    """
    values = np.asarray(values, dtype=float)
    if ordered is None:
        ordered = np.sort(values)
    n = len(values)
    sd = float(np.std(values, ddof=1))
    q75, q25 = sorted_quantile(ordered, 0.75), sorted_quantile(ordered, 0.25)
    iqr_spread = (q75 - q25) / 1.34
    spread = min(sd, iqr_spread) if iqr_spread > 0.0 else sd
    if spread <= 0.0:
        raise DegenerateSampleError("sample has zero spread")
    return 1.06 * spread * n ** (-0.2)


def _pair_sums(lo, hi, term):
    """sums[k] = sum over j in [lo[k], hi[k]) of term(k, j), with term
    vectorized over arrays of k and j.

    The (k, j) pairs of all rows are taken in order, PAIR_CHUNK at a time,
    and np.bincount adds each chunk's terms into their rows. Returns the
    sums and the number of pairs.
    """
    ends = np.cumsum(hi - lo)
    shift = hi - ends                # j = q + shift[k] for flat pair q of row k
    total = int(ends[-1]) if len(ends) else 0
    sums = np.zeros(len(lo))
    for q0 in range(0, total, PAIR_CHUNK):
        q = np.arange(q0, min(q0 + PAIR_CHUNK, total))
        k = np.searchsorted(ends, q, side="right")
        sums += np.bincount(k, term(k, q + shift[k]), minlength=len(lo))
    return sums, total


def _series_pairs(p, s, t, reach, direct_terms):
    """Box-series sums of the near targets t over the sorted points p, and
    the terms they take: n K box moments and K per (target, box) pair (see
    the module docstring). None, with no moments built, where that is more
    than ``direct_terms``, the terms of the targets' direct windows."""
    width = BOX_WIDTH * s
    box = np.floor((p - p[0]) * (1.0 / width))
    starts = np.flatnonzero(np.diff(box, prepend=-1.0))
    centres = p[0] + (box[starts] + 0.5) * width
    reach = reach + 0.5 * width
    lo = np.searchsorted(centres, t - reach, side="left")
    hi = np.searchsorted(centres, t + reach, side="right")
    terms = SERIES_TERMS * (len(p) + int(np.sum(hi - lo)))
    if terms > direct_terms:
        return None
    d = p - (p[0] + (box + 0.5) * width)
    del box                          # n-length arrays go before the pair passes
    d *= 1.0 / s
    w = np.exp(-d * d)
    d *= 2.0
    mom = np.empty((SERIES_TERMS, len(starts)))
    for k in range(SERIES_TERMS):
        mom[k] = np.add.reduceat(w, starts) / math.factorial(k)
        w *= d
    del d, w

    def horner(k, j):
        dist = (t[k] - centres[j]) * (1.0 / s)
        acc, coef = mom[-1].take(j), np.empty(len(j))
        for row in mom[-2::-1]:
            acc *= dist
            acc += row.take(j, out=coef)
        return acc * np.exp(-dist * dist)

    return _pair_sums(lo, hi, horner)[0], terms


@dataclass(frozen=True)
class KdeModel:
    """Gaussian KDE of one input's failure-sample values in z space.

    ``points`` are kept sorted, which the windowed sums rely on: points
    that are not sorted yet are sorted on construction.
    ``kernel_terms`` counts the work its density calls did: kernel terms
    summed directly, plus, for each call whose near targets take the box
    series, n K box-moment terms and K terms per (near target, box) pair
    (K = SERIES_TERMS).
    """

    points: np.ndarray = field(repr=False)
    bandwidth: float
    kernel_terms: int = field(default=0, init=False, compare=False)

    def __post_init__(self):
        p = np.asarray(self.points, dtype=float)
        # checking is cheaper than sorting, which costs as much on sorted
        # points as on shuffled ones
        object.__setattr__(self, "points",
                           p if np.all(p[:-1] <= p[1:]) else np.sort(p))

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
        return self._windows(t, self._reach(self._nearest(t)))

    def _windows(self, t, reach):
        p = self.points
        return (np.searchsorted(p, t - reach, side="left"),
                np.searchsorted(p, t + reach, side="right"))

    def density_transformed(self, t):
        """Density of the fitted z values at each t; NaN at a NaN t.

        Targets within NEAR_CUT = 3 units of h sqrt(2) of a point are
        summed by the box series, the others directly over their windows
        (see ``windows`` and the module docstring). Where the near targets'
        windows hold fewer terms than the series would take (n K moments,
        K per (target, box) pair), as on a short grid, they are summed
        directly too. Series truncation is below 1e-21 relative and the
        omitted window terms below TRUNCATION_RTOL (1e-16) relative, so
        each value equals the direct sum over all n points to within
        rounding: 1e-13 relative. A value is exactly zero only where every
        kernel term of its window underflows, which only a tail target's
        can.

        The t are summed in sorted order, so a permutation of t gives the
        same values permuted. ``kernel_terms`` grows by the direct terms,
        plus the series' n K moment terms and K terms per (near target,
        box) pair where it runs (K = SERIES_TERMS).
        """
        t = np.atleast_1d(np.asarray(t, dtype=float))
        p = self.points
        h = self.bandwidth
        s = h * math.sqrt(2.0)
        order = np.argsort(t, kind="stable")
        ts = t[order]
        d_min = self._nearest(ts)
        reach = self._reach(d_min)
        lo, hi = self._windows(ts, reach)
        near = d_min <= NEAR_CUT * s
        scale = -0.5 / (h * h)
        sums = np.empty(len(ts))
        with np.errstate(under="ignore"):
            series = None
            if near.any():
                series = _series_pairs(p, s, ts[near], reach[near],
                                       int(np.sum(hi[near] - lo[near])))
                if series is None:
                    near[:] = False
            tail = ts[~near]
            sums[~near], terms = _pair_sums(
                lo[~near], hi[~near],
                lambda k, j: np.exp((tail[k] - p[j]) ** 2 * scale))
            if series is not None:
                sums[near], series_terms = series
                terms += series_terms
        sums[np.isnan(ts)] = np.nan
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
    ordered = np.sort(pts)
    # the sd from the unsorted values: sorting would reorder its sum
    return KdeModel(points=ordered,
                    bandwidth=silverman_bandwidth(pts, ordered))


@dataclass(frozen=True)
class ConditionalPfCurve:
    """pf(x_i) on a grid, with the prior density f(x_i) on that grid.

    ``pf_values`` holds pf(x_i) at the ``grid`` values, ``source`` names
    the estimator and ``pf_uncond`` is pf. The decision layer integrates
    against ``density_prior``, so every curve carries it. From analytic
    and FORM, ``beta`` and ``rho`` give the curve in closed form,
    pf(x_i) = Phi((rho z - beta)/sqrt(1 - rho^2)) at z = Phi^-1(F(x_i)),
    and the safety EVPPI is taken from them instead. From a sampling
    method, ``density_conditional`` is f(x_i | F) (the prior at pf = 1),
    ``clip_fraction`` the share of grid values clipped to pf = 1, and
    ``kernel_terms`` the work its KDE did: kernel terms summed directly
    and, where the series ran, n K box moments and K per (near target,
    box) pair (see ``KdeModel``).
    """

    grid: np.ndarray
    pf_values: np.ndarray
    source: str                      # analytic | form | kde
    pf_uncond: float
    density_prior: np.ndarray = field(repr=False)
    density_conditional: np.ndarray = field(repr=False, default=None)
    clip_fraction: float = 0.0
    kernel_terms: int = 0
    beta: float = None
    rho: float = None

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
                                        grid):
    """Estimate pf(x_i) on a grid from one input's failure-sample values.

    Values are clipped to [0, 1]; the clipped fraction is recorded on the
    curve. At pf_hat = 1 every sample failed, so f(x | F) = f(x) and the
    curve is pf(x_i) = 1 exactly, with no fit.
    """
    if not 0.0 < pf_hat <= 1.0:
        raise DomainError("pf_hat must lie in (0, 1]")
    grid = np.asarray(grid, dtype=float)
    prior = np.asarray(marginal.pdf(grid), dtype=float)
    if pf_hat == 1.0:
        pf, cond, clip_fraction, terms = np.ones_like(grid), prior, 0.0, 0
    else:
        model = kde_fit(failure_values, marginal)
        # ratio f(x|F)/f(x) collapses to f_Z(z)/phi(z): one KDE pass, no
        # Jacobian
        z = np.asarray(marginal.to_standard_normal(grid), dtype=float)
        cond_z = model.density_transformed(z)
        phi_z = special.std_normal_pdf(z)
        raw = pf_hat * cond_z / phi_z
        cond = cond_z * prior / phi_z
        pf = np.clip(raw, 0.0, 1.0)
        clip_fraction = float(np.mean(raw > 1.0))
        terms = model.kernel_terms
    return ConditionalPfCurve(
        grid=grid, pf_values=pf, source="kde",
        pf_uncond=float(pf_hat), density_prior=prior,
        density_conditional=cond, clip_fraction=clip_fraction,
        kernel_terms=terms)


def curve_from_function(marginal, pf_values, pf_uncond, grid,
                        source="analytic", beta=None, rho=None):
    """Wrap a copy of pf(x_i) values, one per point of ``grid``, as a
    curve: a row of a larger array does not keep that array alive.
    ``beta`` and ``rho`` are the closed form of those values, if any."""
    return ConditionalPfCurve(
        grid=grid, pf_values=np.array(pf_values, dtype=float),
        source=source, pf_uncond=float(pf_uncond), beta=beta, rho=rho,
        density_prior=np.asarray(marginal.pdf(grid), dtype=float))
