"""Univariate marginals, Gaussian-copula joint model and the analytic
linear-lognormal reliability oracle.

Marginal kinds are the four used throughout: normal, lognormal, Gumbel
(max) and Weibull. Dependence is a Gaussian copula whose correlation is
fitted from the physical correlation matrix (Nataf model): closed form
for lognormal pairs, identity for normal pairs, and a root-find on the
two-dimensional Gauss-Hermite correlation integral otherwise. Both
root-finds (that one and the Weibull shape from its cov) bisect to
adjacent floats (``_bisect``), so loading a config never imports
scipy.optimize. The 32-point Gauss-Hermite rule is built at the first
bisection of a pair, so a config without such a pair never imports
numpy.polynomial.

Every estimator works in standard-normal space, so a marginal is its
density plus one exact pair of maps x <-> z with F(x) = Phi(z). The
Gumbel and Weibull maps go through log Phi and its inverse, because
log F(x) = -exp(-(x-a)/b) and log(1 - F(x)) = -(x/lam)^k are exact
where F itself rounds to 0 or 1; no probability is formed or clamped on
the way. The p-quantile is ``from_standard_normal`` at Phi^{-1}(p).
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field

import numpy as np

from . import special
from .errors import DomainError, FitError, InvalidCorrelationError, NatafError

EULER_GAMMA = 0.5772156649015328606

NORMAL = "normal"
LOGNORMAL = "lognormal"
GUMBEL = "gumbel"
WEIBULL = "weibull"
KINDS = (NORMAL, LOGNORMAL, GUMBEL, WEIBULL)


@dataclass(frozen=True)
class Marginal:
    """A univariate distribution with native parameters, given by its
    density and its exact maps to and from standard-normal space.

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
        p1, p2 = map(float, self.params)
        if not (math.isfinite(p1) and math.isfinite(p2)):
            raise DomainError(f"{self.kind} parameters must be finite")
        if self.kind == NORMAL and not p2 > 0:
            raise DomainError("normal sigma must be positive")
        if self.kind == LOGNORMAL and not p2 > 0:
            raise DomainError("lognormal sigma_ln must be positive")
        if self.kind == GUMBEL and not p2 > 0:
            raise DomainError("gumbel scale must be positive")
        if self.kind == WEIBULL and not (p1 > 0 and p2 > 0):
            raise DomainError("weibull shape and scale must be positive")
        object.__setattr__(self, "params", (p1, p2))

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

    # -- standard-normal maps ----------------------------------------------
    # Written in terms of log Phi so that tail z values stay finite.

    def from_standard_normal(self, z):
        """x with F(x) = Phi(z); exact composition, no intermediate p."""
        z = np.asarray(z, dtype=float)
        p1, p2 = self.params
        if self.kind == NORMAL:
            out = p1 + p2 * z
        elif self.kind == LOGNORMAL:
            # inf past 709.78: lsf.evaluate rejects the g it gives
            with np.errstate(over="ignore"):
                out = np.exp(p1 + p2 * z)
        elif self.kind == GUMBEL:
            t = -np.asarray(special.std_normal_log_cdf(z))
            with np.errstate(divide="ignore"):
                out = p1 - p2 * np.log(t)
            # there -log Phi(z) ~ Phi(-z), whose log log_ndtr keeps exact
            out = _far_tail(out, t,
                            lambda: p1 - p2 * special.std_normal_log_cdf(-z))
        else:
            t = -np.asarray(special.std_normal_log_cdf(-z))
            # there -log Phi(-z) ~ Phi(z), so t^(1/k) = exp(log Phi(z) / k)
            out = _far_tail(p2 * t ** (1.0 / p1), t, lambda: p2 * np.exp(
                special.std_normal_log_cdf(z) / p1))
        out = np.asarray(out)
        return out if out.ndim else float(out)

    def to_standard_normal(self, x):
        """z with Phi(z) = F(x): the algebraic inverse of
        ``from_standard_normal``, through the exact log F (Gumbel) or
        log(1 - F) (Weibull). Raises DomainError outside the support."""
        x = np.asarray(x, dtype=float)
        if not np.all(x > self.support[0]):
            raise DomainError(
                f"value outside the support of the {self.kind} marginal")
        p1, p2 = self.params
        if self.kind == NORMAL:
            out = (x - p1) / p2
        elif self.kind == LOGNORMAL:
            out = (np.log(x) - p1) / p2
        elif self.kind == GUMBEL:
            y = -(x - p1) / p2
            t = np.exp(y)
            # there 1 - F ~ -log F = exp(y), so log(1 - F) = y
            out = _far_tail(special.std_normal_inv_log_cdf(-t), t,
                            lambda: -special.std_normal_inv_log_cdf(y))
        else:
            t = (x / p2) ** p1
            # there F ~ -log(1 - F) = t, so log F = k log(x / lam)
            out = _far_tail(-special.std_normal_inv_log_cdf(-t), t,
                            lambda: special.std_normal_inv_log_cdf(
                                p1 * np.log(x / p2)))
        out = np.asarray(out)
        return out if out.ndim else float(out)


def _far_tail(out, t, tail_value):
    """``out``, with ``tail_value()`` where t is below the smallest normal
    double. Each map's t is minus the log of a probability near 1 (Phi, F
    or 1 - F); below that bound t has lost digits or is 0, while it equals
    the other tail's probability to within a factor 1 + t, so the tail
    value is computed from that probability's exact log."""
    tail = t < np.finfo(float).tiny
    return np.where(tail, tail_value(), out) if tail.any() else out


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


def fit_params_from_moments(kind, mean, cov):
    """Marginal with the requested mean and coefficient of variation."""
    if not cov > 0:
        raise DomainError("cov must be positive")
    if kind in (LOGNORMAL, GUMBEL, WEIBULL) and not mean > 0:
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

def validate_correlation(matrix):
    """Return the matrix as ndarray after checking symmetry/diag/PD."""
    r = np.asarray(matrix, dtype=float)
    if r.ndim != 2 or r.shape[0] != r.shape[1]:
        raise InvalidCorrelationError("correlation matrix must be square")
    if not np.allclose(r, r.T, atol=1e-12):
        raise InvalidCorrelationError("correlation matrix must be symmetric")
    if not np.allclose(np.diag(r), 1.0, atol=1e-12):
        raise InvalidCorrelationError("correlation matrix must have unit diagonal")
    if np.any(np.abs(r) > 1.0 + 1e-12):
        raise InvalidCorrelationError("correlation matrix entries must lie in [-1, 1]")
    try:
        np.linalg.cholesky(r)
    except np.linalg.LinAlgError as exc:
        raise InvalidCorrelationError("correlation matrix is not positive definite") from exc
    return r


@functools.cache
def _gauss_hermite():
    """Nodes and weights of the 32-point Gauss-Hermite rule, built on the
    first call: only a correlated pair that is neither two normals nor two
    lognormals needs them, and numpy.polynomial costs about 0.75 MB."""
    from numpy.polynomial.hermite import hermgauss
    nodes, weights = hermgauss(32)
    nodes.flags.writeable = weights.flags.writeable = False   # shared
    return nodes, weights


def _pair_physical_correlation(rho_z, mi, mj):
    """Physical-space correlation implied by copula correlation rho_z.

    32-point tensor Gauss-Hermite on E[Xi Xj] under the bivariate normal
    copula density.
    """
    nodes, weights = _gauss_hermite()
    z1 = math.sqrt(2.0) * nodes
    x1 = mi.from_standard_normal(z1)
    zc = rho_z * z1[:, None] + math.sqrt(1.0 - rho_z * rho_z) * z1[None, :]
    x2 = mj.from_standard_normal(zc)
    w2 = np.outer(weights, weights) / math.pi
    exy = float(np.sum(w2 * x1[:, None] * x2))
    return (exy - mi.mean * mj.mean) / (mi.std * mj.std)


def nataf_pair(mi, mj, rho_x):
    """Copula correlation for one pair of marginals."""
    if rho_x == 0.0:
        return 0.0
    if mi.kind == NORMAL and mj.kind == NORMAL:
        return float(rho_x)
    try:
        if mi.kind == LOGNORMAL and mj.kind == LOGNORMAL:
            # log1p raises at 1 + rho_x cov_i cov_j <= 0, which no pair attains
            return (math.log1p(rho_x * mi.cov * mj.cov)
                    / (mi.params[1] * mj.params[1]))
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

    def to_physical(self, u, out=None):
        """Map a batch of standard-normal points (rows of a 2-D u) to
        physical space; returns one row per point, written into ``out``
        (an array of u's shape) if it is given.

        The copula product (``correlate``) is written into the rows it
        returns, and each input's column is then mapped in place
        (``map_marginals``), so no other (m, d) array is made. A fresh
        ``out`` is the transpose of a C-ordered (d, m) array, so those
        columns are contiguous; a given ``out`` should be laid out alike
        (crude MC passes such a view of its buffers).
        """
        return self.map_marginals(self.correlate(u, out))

    def correlate(self, u, out=None):
        """The copula coordinates of a batch of independent standard-normal
        points (rows of a 2-D u), one row per point, written into ``out``
        if it is given.

        The product is formed input-major, chol_z u^T of shape (d, m),
        straight into the (d, m) storage ``out.T``: the matmul that a fresh
        product would make, written into another array.
        """
        u = np.asarray(u, dtype=float)
        if out is None:
            out = np.empty((self.dim, len(u))).T
        np.matmul(self.chol_z, u.T, out=out.T)
        return out

    def map_marginals(self, z):
        """Map copula coordinates (rows of z) to physical rows in place,
        each input's column through its marginal; returns z."""
        for i, m in enumerate(self.marginals):
            z[:, i] = m.from_standard_normal(z[:, i])
        return z

    def to_standard(self, x):
        """Inverse map of a batch of physical points (rows of a 2-D x);
        raises DomainError naming the offending component."""
        x = np.asarray(x, dtype=float)
        cols = []
        for i, m in enumerate(self.marginals):
            try:
                cols.append(m.to_standard_normal(x[:, i]))
            except DomainError as exc:
                raise DomainError(f"component {i}: {exc}") from exc
        return np.linalg.solve(self.chol_z, np.column_stack(cols).T).T

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
    Phi(-(const + c.mu)/sqrt(c' C c)). ``const_term`` may hold one value
    per design; the results below then have one row per design.
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
    def from_marginals(cls, marginals, r_xx, coeffs=None, const_term=0.0):
        """Build from lognormal marginals plus a physical correlation matrix."""
        if any(m.kind != LOGNORMAL for m in marginals):
            raise DomainError("analytic problem requires lognormal marginals")
        n = len(marginals)
        coeffs = np.ones(n) if coeffs is None else np.asarray(coeffs, float)
        mu = np.array([m.params[0] for m in marginals])
        sig = np.array([m.params[1] for m in marginals])
        r_xx = validate_correlation(r_xx)
        deltas = np.array([m.cov for m in marginals])
        cov = np.log1p(r_xx * np.outer(deltas, deltas))
        np.fill_diagonal(cov, sig ** 2)
        return cls(const_term, coeffs, mu, cov)


def lognormal_linear_index(problem):
    """(beta, rho) of a LognormalLinearProblem: g's mean over its sd, so
    pf = Phi(-beta), and rho_i = -corr(g, ln X_i), so that pf given X_i is
    Phi((rho_i z_i - beta)/sqrt(1 - rho_i^2)) at z_i = Phi^-1(F_i(x_i)),
    FORM's conditional pf, exact here. beta has one value per constant
    term and rho one per input."""
    c, cov = problem.coeffs, problem.c_ln
    sd = math.sqrt(max(0.0, float(c @ cov @ c)))
    if sd == 0.0:
        raise DomainError("degenerate problem: zero variance of g")
    beta = (problem.const_term + float(c @ problem.mu_ln)) / sd
    return beta, -(cov @ c) / (sd * np.sqrt(np.diag(cov)))


def lognormal_linear_conditional_pf(problem, i, x_i):
    """P(failure | X_i = x_i), by Gaussian conditioning of the logs.

    ``x_i`` may be an array; the result matches its shape, with a leading
    design axis when the problem has one constant per design.
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
    num = np.add.outer(problem.const_term, c[i] * t) + mu_c @ cr
    out = np.asarray(special.std_normal_cdf(-num / math.sqrt(var_c)))
    return out if out.ndim else float(out)
