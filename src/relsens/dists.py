"""Univariate marginals, Gaussian-copula joint model and the analytic
linear-lognormal reliability oracle.

Marginal kinds are the four used throughout: normal, lognormal, Gumbel
(max) and Weibull. Dependence is a Gaussian copula whose correlation is
fitted from the physical correlation matrix (Nataf model): closed form
for lognormal pairs, identity for normal pairs, and a root-find on the
two-dimensional Gauss-Hermite correlation integral otherwise. Both
root-finds (that one and the Weibull shape from its cov) bisect to
adjacent floats (``_bisect``), so loading a config never imports
scipy.optimize.
"""

from __future__ import annotations

import functools
import math
import warnings
from dataclasses import dataclass, field

import numpy as np

from . import special
from .errors import (DomainError, FitError, InvalidCorrelationError,
                     NatafError, TransformClampWarning)

EULER_GAMMA = 0.5772156649015328606

P_FLOOR = 1e-300
P_CEIL = 1.0 - 1e-16

NORMAL = "normal"
LOGNORMAL = "lognormal"
GUMBEL = "gumbel"
WEIBULL = "weibull"
KINDS = (NORMAL, LOGNORMAL, GUMBEL, WEIBULL)


def _clamp_probability(p, context):
    """Clamp to [1e-300, 1 - 1e-16]; warn so clamping never passes silently."""
    p = np.asarray(p, dtype=float)
    clipped = (p < P_FLOOR) | (p > P_CEIL)
    if np.any(clipped):
        warnings.warn(
            f"{context}: {int(np.count_nonzero(clipped))} probability value(s) "
            "clamped to [1e-300, 1-1e-16]",
            TransformClampWarning, stacklevel=3)
        p = np.clip(p, P_FLOOR, P_CEIL)
    return p


@dataclass(frozen=True)
class Marginal:
    """A univariate distribution with native parameters.

    Parameter conventions (all scales strictly positive):
      normal    (mu, sigma)
      lognormal (mu_ln, sigma_ln)        moments of ln X
      gumbel    (location, scale)        max-type, F = exp(-exp(-(x-a)/b))
      weibull   (shape, scale)           F = 1 - exp(-(x/lam)^k)
    """

    kind: str
    params: tuple

    def __post_init__(self):
        if self.kind not in KINDS:
            raise DomainError(f"unknown marginal kind {self.kind!r}")
        p1, p2 = self.params
        if self.kind == NORMAL and p2 <= 0:
            raise DomainError("normal sigma must be positive")
        if self.kind == LOGNORMAL and p2 <= 0:
            raise DomainError("lognormal sigma_ln must be positive")
        if self.kind == GUMBEL and p2 <= 0:
            raise DomainError("gumbel scale must be positive")
        if self.kind == WEIBULL and (p1 <= 0 or p2 <= 0):
            raise DomainError("weibull shape and scale must be positive")
        object.__setattr__(self, "params", (float(p1), float(p2)))

    # -- moments ----------------------------------------------------------

    @property
    def mean(self):
        p1, p2 = self.params
        if self.kind == NORMAL:
            return p1
        if self.kind == LOGNORMAL:
            return math.exp(p1 + 0.5 * p2 * p2)
        if self.kind == GUMBEL:
            return p1 + EULER_GAMMA * p2
        return p2 * math.gamma(1.0 + 1.0 / p1)

    @property
    def std(self):
        p1, p2 = self.params
        if self.kind == NORMAL:
            return p2
        if self.kind == LOGNORMAL:
            return self.mean * math.sqrt(math.expm1(p2 * p2))
        if self.kind == GUMBEL:
            return math.pi * p2 / math.sqrt(6.0)
        g1 = math.gamma(1.0 + 1.0 / p1)
        g2 = math.gamma(1.0 + 2.0 / p1)
        return p2 * math.sqrt(g2 - g1 * g1)

    @property
    def cov(self):
        return self.std / self.mean

    # -- support ----------------------------------------------------------

    @property
    def support(self):
        if self.kind == NORMAL or self.kind == GUMBEL:
            return (-math.inf, math.inf)
        return (0.0, math.inf)

    @property
    def median(self):
        return self.inv_cdf(0.5)

    # -- density / distribution -------------------------------------------

    def pdf(self, x):
        x = np.asarray(x, dtype=float)
        p1, p2 = self.params
        with np.errstate(divide="ignore", invalid="ignore", under="ignore"):
            if self.kind == NORMAL:
                out = special.std_normal_pdf((x - p1) / p2) / p2
            elif self.kind == LOGNORMAL:
                out = np.where(
                    x > 0,
                    special.std_normal_pdf((np.log(np.where(x > 0, x, 1.0)) - p1) / p2)
                    / (np.where(x > 0, x, 1.0) * p2),
                    0.0)
            elif self.kind == GUMBEL:
                t = np.exp(-(x - p1) / p2)
                out = t * np.exp(-t) / p2
            else:
                xs = np.where(x > 0, x, 1.0) / p2
                out = np.where(
                    x > 0,
                    (p1 / p2) * xs ** (p1 - 1.0) * np.exp(-xs ** p1),
                    0.0)
        return out if out.ndim else float(out)

    def cdf(self, x):
        x = np.asarray(x, dtype=float)
        p1, p2 = self.params
        with np.errstate(divide="ignore", invalid="ignore", under="ignore"):
            if self.kind == NORMAL:
                out = special.std_normal_cdf((x - p1) / p2)
            elif self.kind == LOGNORMAL:
                out = np.where(
                    x > 0,
                    special.std_normal_cdf((np.log(np.where(x > 0, x, 1.0)) - p1) / p2),
                    0.0)
            elif self.kind == GUMBEL:
                out = np.exp(-np.exp(-(x - p1) / p2))
            else:
                out = np.where(x > 0, -np.expm1(-(np.where(x > 0, x, 0.0) / p2) ** p1), 0.0)
        out = np.asarray(out)
        return out if out.ndim else float(out)

    def sf(self, x):
        """Survival function 1 - F(x), accurate in the upper tail."""
        x = np.asarray(x, dtype=float)
        p1, p2 = self.params
        with np.errstate(divide="ignore", invalid="ignore", under="ignore"):
            if self.kind == NORMAL:
                out = special.std_normal_cdf(-(x - p1) / p2)
            elif self.kind == LOGNORMAL:
                out = np.where(
                    x > 0,
                    special.std_normal_cdf(-(np.log(np.where(x > 0, x, 1.0)) - p1) / p2),
                    1.0)
            elif self.kind == GUMBEL:
                out = -np.expm1(-np.exp(-(x - p1) / p2))
            else:
                out = np.where(x > 0,
                               np.exp(-(np.where(x > 0, x, 0.0) / p2) ** p1), 1.0)
        out = np.asarray(out)
        return out if out.ndim else float(out)

    def inv_cdf(self, p):
        p = np.asarray(p, dtype=float)
        if np.any((p <= 0.0) | (p >= 1.0)):
            raise DomainError("inv_cdf requires 0 < p < 1")
        p1, p2 = self.params
        if self.kind == NORMAL:
            out = p1 + p2 * np.asarray(special.std_normal_inv(p))
        elif self.kind == LOGNORMAL:
            out = np.exp(p1 + p2 * np.asarray(special.std_normal_inv(p)))
        elif self.kind == GUMBEL:
            out = p1 - p2 * np.log(-np.log(p))
        else:
            out = p2 * (-np.log1p(-p)) ** (1.0 / p1)
        out = np.asarray(out)
        return out if out.ndim else float(out)

    # -- standard-normal maps ----------------------------------------------
    # Written in terms of log Phi so that tail z values stay finite.

    def from_standard_normal(self, z):
        """x with F(x) = Phi(z); exact composition, no intermediate p."""
        z = np.asarray(z, dtype=float)
        p1, p2 = self.params
        if self.kind == NORMAL:
            out = p1 + p2 * z
        elif self.kind == LOGNORMAL:
            out = np.exp(p1 + p2 * z)
        elif self.kind == GUMBEL:
            out = p1 - p2 * np.log(-special.std_normal_log_cdf(z))
        else:
            out = p2 * (-np.asarray(special.std_normal_log_cdf(-z))) ** (1.0 / p1)
        out = np.asarray(out)
        return out if out.ndim else float(out)

    def to_standard_normal(self, x):
        """z = Phi^{-1}(F(x)), with the documented probability clamp."""
        x = np.asarray(x, dtype=float)
        lo, _ = self.support
        if np.any(x <= lo):
            raise DomainError(
                f"value outside the support of the {self.kind} marginal")
        p1, p2 = self.params
        if self.kind == NORMAL:
            out = (x - p1) / p2
        elif self.kind == LOGNORMAL:
            out = (np.log(x) - p1) / p2
        else:
            # route each tail through whichever of F and 1-F is accurate
            p = np.atleast_1d(np.asarray(self.cdf(x)))
            q = np.atleast_1d(np.asarray(self.sf(x)))
            out = np.empty_like(p)
            lower = p <= 0.5
            if lower.any():
                out[lower] = special.std_normal_inv(
                    _clamp_probability(p[lower], "to_standard_normal"))
            if (~lower).any():
                out[~lower] = -np.asarray(special.std_normal_inv(
                    _clamp_probability(q[~lower], "to_standard_normal")))
            out = out.reshape(np.shape(x))
        out = np.asarray(out)
        return out if out.ndim else float(out)


def _bisect(f, lo, hi):
    """Root of f in [lo, hi], bisected until the two ends are adjacent floats.

    Returns a point where f is exactly 0, or else the end with the smaller
    |f|. Raises ValueError if f(lo) and f(hi) share a sign or f is NaN.
    """
    f_lo, f_hi = f(lo), f(hi)
    while True:
        if math.isnan(f_lo) or math.isnan(f_hi):
            raise ValueError("residual is NaN")
        if f_lo == 0.0 or f_hi == 0.0:
            return lo if f_lo == 0.0 else hi
        if (f_lo < 0.0) == (f_hi < 0.0):
            raise ValueError("residual has the same sign at both ends")
        mid = 0.5 * (lo + hi)
        if mid == lo or mid == hi:
            return lo if abs(f_lo) <= abs(f_hi) else hi
        f_mid = f(mid)
        if (f_mid < 0.0) == (f_lo < 0.0):
            lo, f_lo = mid, f_mid
        else:
            hi, f_hi = mid, f_mid


def marginal_from_params(kind, p1, p2):
    return Marginal(kind, (p1, p2))


def fit_params_from_moments(kind, mean, cov):
    """Marginal with the requested mean and coefficient of variation."""
    if cov <= 0:
        raise DomainError("cov must be positive")
    if kind in (LOGNORMAL, GUMBEL, WEIBULL) and mean <= 0:
        raise DomainError(f"{kind} requires mean > 0 here")
    if kind == NORMAL:
        if mean == 0:
            raise DomainError("normal with mean 0 cannot be specified by cov")
        return Marginal(NORMAL, (mean, abs(mean) * cov))
    if kind == LOGNORMAL:
        s2 = math.log1p(cov * cov)
        return Marginal(LOGNORMAL, (math.log(mean) - 0.5 * s2, math.sqrt(s2)))
    if kind == GUMBEL:
        scale = mean * cov * math.sqrt(6.0) / math.pi
        return Marginal(GUMBEL, (mean - EULER_GAMMA * scale, scale))
    if kind == WEIBULL:
        target = cov * cov

        def resid(k):
            return (math.gamma(1.0 + 2.0 / k)
                    / math.gamma(1.0 + 1.0 / k) ** 2 - 1.0 - target)

        try:
            shape = _bisect(resid, 0.08, 400.0)
        except ValueError as exc:
            raise FitError(
                f"weibull shape fit failed for cov={cov}",
                residual=min(abs(resid(0.08)), abs(resid(400.0)))) from exc
        return Marginal(WEIBULL, (shape, mean / math.gamma(1.0 + 1.0 / shape)))
    raise DomainError(f"unknown marginal kind {kind!r}")


# ---------------------------------------------------------------------------
# correlation matrices and the Nataf fit
# ---------------------------------------------------------------------------

def validate_correlation(matrix, what="correlation matrix"):
    """Return the matrix as ndarray after checking symmetry/diag/PD."""
    r = np.asarray(matrix, dtype=float)
    if r.ndim != 2 or r.shape[0] != r.shape[1]:
        raise InvalidCorrelationError(f"{what} must be square")
    if not np.allclose(r, r.T, atol=1e-12):
        raise InvalidCorrelationError(f"{what} must be symmetric")
    if not np.allclose(np.diag(r), 1.0, atol=1e-12):
        raise InvalidCorrelationError(f"{what} must have unit diagonal")
    if np.any(np.abs(r) > 1.0 + 1e-12):
        raise InvalidCorrelationError(f"{what} entries must lie in [-1, 1]")
    try:
        np.linalg.cholesky(r)
    except np.linalg.LinAlgError as exc:
        raise InvalidCorrelationError(f"{what} is not positive definite") from exc
    return r


_GH_NODES, _GH_WEIGHTS = np.polynomial.hermite.hermgauss(32)


def _pair_physical_correlation(rho_z, mi, mj):
    """Physical-space correlation implied by copula correlation rho_z.

    32-point tensor Gauss-Hermite on E[Xi Xj] under the bivariate normal
    copula density.
    """
    z1 = math.sqrt(2.0) * _GH_NODES
    x1 = mi.from_standard_normal(z1)
    zc = rho_z * z1[:, None] + math.sqrt(1.0 - rho_z * rho_z) * z1[None, :]
    x2 = mj.from_standard_normal(zc)
    w2 = np.outer(_GH_WEIGHTS, _GH_WEIGHTS) / math.pi
    exy = float(np.sum(w2 * x1[:, None] * x2))
    return (exy - mi.mean * mj.mean) / (mi.std * mj.std)


def nataf_pair(mi, mj, rho_x):
    """Copula correlation for one pair of marginals."""
    if rho_x == 0.0:
        return 0.0
    if mi.kind == NORMAL and mj.kind == NORMAL:
        return float(rho_x)
    if mi.kind == LOGNORMAL and mj.kind == LOGNORMAL:
        di, dj = mi.cov, mj.cov
        return math.log1p(rho_x * di * dj) / (mi.params[1] * mj.params[1])
    try:
        return _bisect(lambda r: _pair_physical_correlation(r, mi, mj) - rho_x,
                       -0.999, 0.999)
    except ValueError as exc:
        raise NatafError(
            f"no copula correlation reproduces rho_x={rho_x} for "
            f"({mi.kind}, {mj.kind})") from exc


def nataf_fit(marginals, r_xx):
    """Copula correlation matrix reproducing the physical correlations.

    An indefinite result raises NatafError.
    """
    r_xx = validate_correlation(r_xx)
    n = len(marginals)
    if r_xx.shape[0] != n:
        raise InvalidCorrelationError("correlation size does not match inputs")
    r_z = np.eye(n)
    for i in range(n):
        for j in range(i + 1, n):
            r_z[i, j] = r_z[j, i] = nataf_pair(marginals[i], marginals[j],
                                               r_xx[i, j])
    try:
        np.linalg.cholesky(r_z)
    except np.linalg.LinAlgError as exc:
        raise NatafError(
            "fitted copula correlation is not positive definite") from exc
    return r_z


@dataclass(frozen=True)
class GaussianCopulaJoint:
    """Joint model: marginals tied together by a Gaussian copula."""

    marginals: tuple
    r_xx: np.ndarray
    r_z: np.ndarray
    chol_z: np.ndarray = field(repr=False)

    @classmethod
    def fit(cls, marginals, r_xx=None):
        marginals = tuple(marginals)
        n = len(marginals)
        if r_xx is None:
            r_xx = np.eye(n)
            r_z = np.eye(n)
        else:
            r_xx = validate_correlation(r_xx)
            r_z = nataf_fit(marginals, r_xx)
        return cls(marginals, r_xx, r_z, np.linalg.cholesky(r_z))

    @property
    def dim(self):
        return len(self.marginals)

    @functools.cached_property
    def independent(self):
        return bool(np.allclose(self.r_z, np.eye(self.dim)))

    def to_physical(self, u):
        """Map standard-normal coordinates to physical space (rows = points)."""
        u = np.asarray(u, dtype=float)
        squeeze = u.ndim == 1
        u2 = np.atleast_2d(u)
        z = u2 @ self.chol_z.T
        x = np.column_stack([m.from_standard_normal(z[:, i])
                             for i, m in enumerate(self.marginals)])
        return x[0] if squeeze else x

    def to_standard(self, x):
        """Inverse map; raises DomainError naming the offending component."""
        x = np.asarray(x, dtype=float)
        squeeze = x.ndim == 1
        x2 = np.atleast_2d(x)
        cols = []
        for i, m in enumerate(self.marginals):
            try:
                cols.append(np.atleast_1d(m.to_standard_normal(x2[:, i])))
            except DomainError as exc:
                raise DomainError(f"component {i}: {exc}") from exc
        z = np.column_stack(cols)
        u = np.linalg.solve(self.chol_z, z.T).T
        return u[0] if squeeze else u

    def sample(self, n, rng):
        """n joint samples; returns (x, u) with matching rows."""
        u = rng.standard_normal((n, self.dim))
        return self.to_physical(u), u


# ---------------------------------------------------------------------------
# analytic oracle: linear function of jointly normal logs
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class LognormalLinearProblem:
    """g = const + sum_i coeff_i ln X_i with ln X jointly normal.

    Failure is g <= 0, so the failure probability has the closed form
    Phi(-(const + c.mu)/sqrt(c' C c)).
    """

    const_term: float
    coeffs: np.ndarray
    mu_ln: np.ndarray
    c_ln: np.ndarray

    def __post_init__(self):
        c = np.asarray(self.coeffs, dtype=float)
        m = np.asarray(self.mu_ln, dtype=float)
        cov = np.asarray(self.c_ln, dtype=float)
        if len(c) != len(m) or cov.shape != (len(c), len(c)):
            raise DomainError("inconsistent problem dimensions")
        if not np.allclose(cov, cov.T, atol=1e-12):
            raise DomainError("covariance of logs must be symmetric")
        object.__setattr__(self, "coeffs", c)
        object.__setattr__(self, "mu_ln", m)
        object.__setattr__(self, "c_ln", cov)

    @classmethod
    def from_marginals(cls, marginals, r_xx=None, coeffs=None, const_term=0.0):
        """Build from lognormal marginals plus a physical correlation matrix."""
        if any(m.kind != LOGNORMAL for m in marginals):
            raise DomainError("analytic problem requires lognormal marginals")
        n = len(marginals)
        coeffs = np.ones(n) if coeffs is None else np.asarray(coeffs, float)
        mu = np.array([m.params[0] for m in marginals])
        sig = np.array([m.params[1] for m in marginals])
        if r_xx is None:
            cov = np.diag(sig ** 2)
        else:
            r_xx = validate_correlation(r_xx)
            deltas = np.array([m.cov for m in marginals])
            cov = np.log1p(r_xx * np.outer(deltas, deltas))
            np.fill_diagonal(cov, sig ** 2)
        return cls(const_term, coeffs, mu, cov)


def lognormal_linear_pf(problem):
    """Exact failure probability of a LognormalLinearProblem."""
    c = problem.coeffs
    var = float(c @ problem.c_ln @ c)
    if var <= 0.0:
        raise DomainError("degenerate problem: zero variance of g")
    num = problem.const_term + float(c @ problem.mu_ln)
    return float(special.std_normal_cdf(-num / math.sqrt(var)))


def lognormal_linear_conditional_pf(problem, i, x_i):
    """P(failure | X_i = x_i), by Gaussian conditioning of the logs.

    ``x_i`` may be an array; the result matches its shape.
    """
    x_i = np.asarray(x_i, dtype=float)
    if np.any(x_i <= 0.0):
        raise DomainError("conditioning value must be positive")
    c = problem.coeffs
    mu = problem.mu_ln
    cov = problem.c_ln
    n = len(c)
    if not 0 <= i < n:
        raise DomainError(f"input index {i} out of range")
    idx = [j for j in range(n) if j != i]
    cii = cov[i, i]
    if cii <= 0.0:
        raise DomainError("conditioning input has zero variance")
    t = np.log(x_i)
    kvec = cov[idx, i] / cii
    cov_c = cov[np.ix_(idx, idx)] - np.outer(kvec, cov[i, idx])
    cr = c[idx]
    var_c = float(cr @ cov_c @ cr)
    if var_c <= 0.0:
        raise DomainError("degenerate problem: zero conditional variance")
    mu_c = mu[idx][..., :] + np.multiply.outer(t - mu[i], kvec)
    num = problem.const_term + c[i] * t + mu_c @ cr
    out = np.asarray(special.std_normal_cdf(-num / math.sqrt(var_c)))
    return out if out.ndim else float(out)
