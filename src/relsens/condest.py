"""Conditional failure-probability curves from failure samples.

The Bayes identity pf(x) = f(x | F) / f(x) * pf turns the marginal
failure-sample density into the conditional failure probability, so the
whole curve is a post-processing step: no further model evaluations.

The conditional density comes from a Gaussian kernel density estimate.
By default samples are mapped through z = Phi^{-1}(F(x)) first and the
density is carried back with the change-of-variables Jacobian, which
keeps kernel mass inside bounded supports; ``identity`` fits in physical
space instead.

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
"""

from __future__ import annotations

import csv
import math
import warnings
from dataclasses import dataclass, field

import numpy as np

from . import special
from .errors import CurvePointWarning, DegenerateSampleError, DomainError

TRANSFORM_STANDARD_NORMAL = "marginal-standard-normal"
TRANSFORM_IDENTITY = "identity"

DENSITY_FLOOR = 1e-300
TRUNCATION_RTOL = 1e-16


def silverman_bandwidth(values):
    """1.06 min(sd, iqr/1.34) n^(-1/5).

    When ties make the IQR zero the spread falls back to sd alone, as R's
    ``bw.nrd0`` does; only a sample with zero sd is degenerate.
    """
    values = np.asarray(values, dtype=float)
    n = len(values)
    sd = float(np.std(values, ddof=1))
    q75, q25 = np.percentile(values, [75.0, 25.0])
    iqr_spread = (q75 - q25) / 1.34
    spread = min(sd, iqr_spread) if iqr_spread > 0.0 else sd
    if spread <= 0.0:
        raise DegenerateSampleError("sample has zero spread")
    return 1.06 * spread * n ** (-0.2)


@dataclass(frozen=True)
class KdeModel:
    """Gaussian KDE of failure-sample values for one input.

    ``points`` are kept sorted, which the windowed kernel sum relies on.
    """

    points: np.ndarray = field(repr=False)
    bandwidth: float
    transform: str
    marginal: object

    def __post_init__(self):
        object.__setattr__(self, "points",
                           np.sort(np.asarray(self.points, dtype=float)))

    def density_transformed(self, t):
        """Density in the fitting space (z or x depending on transform).

        Sums the Gaussian kernel over the points within (d_min + c)
        bandwidths of each t, where d_min is the distance from t to its
        nearest point and c = sqrt(2 ln(n / TRUNCATION_RTOL)). The omitted
        terms total less than TRUNCATION_RTOL (1e-16) times the full sum,
        so each value equals the direct sum over all n points to within
        that and summation rounding; a value is exactly zero only where
        every kernel term underflows.
        """
        t = np.atleast_1d(np.asarray(t, dtype=float))
        p = self.points
        n = len(p)
        h = self.bandwidth
        norm = n * h * math.sqrt(2.0 * math.pi)
        c = math.sqrt(2.0 * math.log(n / TRUNCATION_RTOL))
        right = np.searchsorted(p, t)
        d_min = np.minimum(np.abs(t - p[np.maximum(right - 1, 0)]),
                           np.abs(p[np.minimum(right, n - 1)] - t))
        reach = d_min + c * h
        lo = np.searchsorted(p, t - reach, side="left")
        hi = np.searchsorted(p, t + reach, side="right")
        out = np.empty_like(t)
        with np.errstate(under="ignore"):
            for k, (tk, a, b) in enumerate(zip(t, lo, hi)):
                d = (tk - p[a:b]) / h
                out[k] = np.exp(-0.5 * d * d).sum()
        return out / norm

    def density_physical(self, x):
        """Estimated conditional density of the input itself."""
        x = np.atleast_1d(np.asarray(x, dtype=float))
        if self.transform == TRANSFORM_IDENTITY:
            return self.density_transformed(x)
        lo, hi = self.marginal.support
        inside = (x > lo) & (x < hi)
        out = np.zeros_like(x)
        if inside.any():
            z = self.marginal.to_standard_normal(x[inside])
            jac = self.marginal.pdf(x[inside]) / special.std_normal_pdf(z)
            out[inside] = self.density_transformed(z) * jac
        return out


def kde_fit(values, marginal, transform=TRANSFORM_STANDARD_NORMAL):
    """Fit the conditional-density KDE for one input's failure values."""
    values = np.asarray(values, dtype=float)
    if len(values) < 20:
        raise DomainError("need at least 20 failure values for a density fit")
    if transform == TRANSFORM_STANDARD_NORMAL:
        pts = np.asarray(marginal.to_standard_normal(values), dtype=float)
    elif transform == TRANSFORM_IDENTITY:
        pts = values.copy()
    else:
        raise DomainError(f"unknown transform mode {transform!r}")
    # bandwidth from the unsorted values: sorting would reorder the sd sum
    return KdeModel(points=pts, bandwidth=silverman_bandwidth(pts),
                    transform=transform, marginal=marginal)


@dataclass(frozen=True)
class ConditionalPfCurve:
    """pf(x_i) on a grid, with the densities that produced it."""

    input_index: int
    grid: np.ndarray
    pf_values: np.ndarray
    source: str                      # analytic | form | kde
    pf_uncond: float
    density_prior: np.ndarray = field(repr=False, default=None)
    density_conditional: np.ndarray = field(repr=False, default=None)
    clip_fraction: float = 0.0
    n_failure_samples: int = 0
    ess: float = float("nan")

    def __post_init__(self):
        g = np.asarray(self.grid, dtype=float)
        if np.any(np.diff(g) <= 0.0):
            raise DomainError("curve grid must be strictly increasing")
        object.__setattr__(self, "grid", g)
        object.__setattr__(self, "pf_values",
                           np.asarray(self.pf_values, dtype=float))


def default_grid(marginal, n=512, p_lo=1e-6, p_hi=None):
    """Uniform grid spanning the [p_lo, 1-p_lo] quantile range."""
    if p_hi is None:
        p_hi = 1.0 - p_lo
    return np.linspace(marginal.inv_cdf(p_lo), marginal.inv_cdf(p_hi), n)


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


def conditional_pf_from_failure_samples(marginal, i, failure_values, pf_hat,
                                        grid=None,
                                        transform=TRANSFORM_STANDARD_NORMAL,
                                        n_chains=1):
    """Estimate pf(x_i) on a grid from one input's failure-sample values.

    Values are clipped to [0, 1]; the clipped fraction is recorded on the
    curve. Grid points where the prior density underflows are dropped
    with a warning (identity mode only; the transformed fit cannot leak
    mass outside the support). ``n_chains`` is the number of MCMC chains
    interleaved step-major in ``failure_values`` (1 for independent
    draws); it only sets the lags of the ESS.
    """
    if not 0.0 < pf_hat < 1.0:
        raise DomainError("pf_hat must lie in (0, 1)")
    if grid is None:
        grid = default_grid(marginal)
    grid = np.asarray(grid, dtype=float)
    model = kde_fit(failure_values, marginal, transform)

    prior = np.asarray(marginal.pdf(grid), dtype=float)
    keep = prior > DENSITY_FLOOR
    if not keep.all():
        warnings.warn(
            f"input {i}: dropped {int(np.count_nonzero(~keep))} grid point(s) "
            "with underflowing prior density", CurvePointWarning, stacklevel=2)
        grid = grid[keep]
        prior = prior[keep]

    if transform == TRANSFORM_STANDARD_NORMAL:
        # ratio f(x|F)/f(x) collapses to f_Z(z)/phi(z): one KDE pass, no Jacobian
        z = np.asarray(marginal.to_standard_normal(grid), dtype=float)
        cond_z = model.density_transformed(z)
        phi_z = special.std_normal_pdf(z)
        raw = pf_hat * cond_z / phi_z
        cond = cond_z * prior / phi_z
    else:
        cond = model.density_transformed(grid)
        raw = pf_hat * cond / prior

    pf = np.clip(raw, 0.0, 1.0)
    clip_fraction = float(np.mean(raw > 1.0))
    return ConditionalPfCurve(
        input_index=i, grid=grid, pf_values=pf, source="kde",
        pf_uncond=float(pf_hat), density_prior=prior,
        density_conditional=cond, clip_fraction=clip_fraction,
        n_failure_samples=len(np.asarray(failure_values)),
        ess=effective_sample_size(failure_values, stride=n_chains))


def curve_from_function(marginal, i, pf_of_x, pf_uncond, grid=None,
                        source="analytic"):
    """Wrap a vectorized pf(x_i) callable as a curve on the default grid."""
    if grid is None:
        grid = default_grid(marginal)
    grid = np.asarray(grid, dtype=float)
    return ConditionalPfCurve(
        input_index=i, grid=grid,
        pf_values=np.asarray(pf_of_x(grid), dtype=float), source=source,
        pf_uncond=float(pf_uncond),
        density_prior=np.asarray(marginal.pdf(grid), dtype=float))


def write_curve_csv(path, curve):
    """CSV export: x, pf, density_prior, density_conditional."""
    prior = (curve.density_prior if curve.density_prior is not None
             else np.full_like(curve.grid, np.nan))
    cond = (curve.density_conditional if curve.density_conditional is not None
            else np.full_like(curve.grid, np.nan))
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["x", "pf", "density_prior", "density_conditional"])
        for xv, pv, dp, dc in zip(curve.grid, curve.pf_values, prior, cond):
            writer.writerow([repr(float(xv)), repr(float(pv)),
                             repr(float(dp)), repr(float(dc))])
