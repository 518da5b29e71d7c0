"""Standard-normal special functions.

Phi, log Phi, Phi^{-1} and the inverse of log Phi are thin wrappers over
``scipy.special``'s ``ndtr``, ``log_ndtr``, ``ndtri`` and ``ndtri_exp``.
Against 50-digit mpmath, ``ndtr`` and ``log_ndtr`` are accurate to a few
ulp times the condition number (about 1 + x^2), ``log_ndtr`` stays
accurate far below where Phi itself underflows, and ``ndtri`` is within
an ulp from p = 1e-300 to 1 - 1e-16. Against 60-digit mpmath over
log p from -727 to -1e-307 (z from -38 to 37.5), ``ndtri_exp`` is within
4.3e-16 max(1, |z|). The wrappers add the package's conventions: a
scalar gives a Python float, Phi^{-1} signals on p outside (0, 1), and
each imports its scipy function on its first call, as that import costs
0.29 s and 18 MB per process. Loading a config and sampling normal and
lognormal inputs evaluate no Phi; analytic and FORM runs, the Gumbel
and Weibull maps and ``bivariate_normal_cdf`` do. ``std_normal_cdf``
takes an ``out=`` array, so that a caller can form the argument and Phi
of a large batch in one buffer.

scipy has no bivariate normal CDF to 1e-12, so ``bivariate_normal_cdf``
is Genz's reformulation of the Drezner-Wesolowsky integral, absolute
error below 1e-12 (in practice ~5e-16), on numpy's 20-point
Gauss-Legendre rule at every r. Genz takes 6 or 12 points below
|r| = 0.75, which at beta 8 put ``form-curves``' safety EVPPI up to 4.5%
high, against 1.4% with 20. ``scipy.special.owens_t``
(through Owen's 1956 formula) was checked as a replacement against
60-digit mpmath quadrature and is less accurate: at h = 1, k = 1.0000001,
rho = 0.9999999 its worst absolute error was 1.7e-15 against Genz's
1.1e-16, and where the true value is below 1e-50 it returns about 1e-17
to 1e-20, where Genz returns 1e-27 or less.
"""

from __future__ import annotations

import functools

import numpy as np

from .errors import DomainError

SQRT_TWO_PI = np.sqrt(2.0 * np.pi)


def std_normal_pdf(x):
    x = np.asarray(x, dtype=float)
    with np.errstate(under="ignore"):
        out = np.exp(-0.5 * x * x) / SQRT_TWO_PI
    return out if out.ndim else float(out)


def std_normal_cdf(x, out=None):
    """Phi(x), written into ``out`` (an array of x's shape, which may be
    x itself) if it is given."""
    from scipy.special import ndtr
    out = ndtr(np.asarray(x, dtype=float), out=out)
    return out if out.ndim else float(out)


def std_normal_log_cdf(x):
    """log Phi(x), stable for arbitrarily negative arguments.

    Needed by the Gumbel/Weibull standard-normal maps, where Phi(x)
    itself rounds to 0 or 1 long before log Phi loses meaning.
    """
    from scipy.special import log_ndtr
    out = log_ndtr(np.asarray(x, dtype=float))
    return out if out.ndim else float(out)


def std_normal_inv_log_cdf(log_p):
    """z with log Phi(z) = log_p: the inverse of ``std_normal_log_cdf``.

    Needed by the Gumbel/Weibull maps to standard-normal space, which
    know log F or log(1 - F) exactly where F itself rounds to 0 or 1.
    """
    from scipy.special import ndtri_exp
    out = ndtri_exp(np.asarray(log_p, dtype=float))
    return out if out.ndim else float(out)


def std_normal_inv(p):
    """Quantile function of N(0, 1); signals on p outside (0, 1)."""
    from scipy.special import ndtri
    p = np.asarray(p, dtype=float)
    if not np.all((p > 0.0) & (p < 1.0)):
        raise DomainError("std_normal_inv requires 0 < p < 1")
    out = ndtri(p)
    return out if out.ndim else float(out)


# ---------------------------------------------------------------------------
# bivariate normal CDF (Genz's version of Drezner-Wesolowsky)
# ---------------------------------------------------------------------------

@functools.cache
def _gauss_legendre():
    """Nodes and weights of the 20-point Gauss-Legendre rule on [-1, 1],
    built on the first call: only ``form-curves`` evaluates the bivariate
    normal CDF, so no ``run`` imports numpy.polynomial for it."""
    from numpy.polynomial.legendre import leggauss
    nodes, weights = leggauss(20)
    nodes.flags.writeable = weights.flags.writeable = False   # shared
    return nodes, weights


def _bvnu(dh, dk, r):
    """P(X > dh, Y > dk) for standard bivariate normal with correlation r."""
    if np.isposinf(dh) or np.isposinf(dk):
        return 0.0
    if np.isneginf(dh):
        return 1.0 if np.isneginf(dk) else std_normal_cdf(-dk)
    if np.isneginf(dk):
        return std_normal_cdf(-dh)
    if r == 0.0:
        return std_normal_cdf(-dh) * std_normal_cdf(-dk)

    tp = 2.0 * np.pi
    h, k = dh, dk
    hk = h * k
    bvn = 0.0
    nodes, w = _gauss_legendre()
    xg = 1.0 + nodes                 # the rule on [0, 2]

    if abs(r) < 0.925:
        hs = (h * h + k * k) / 2.0
        asr = np.arcsin(r) / 2.0
        sn = np.sin(asr * xg)
        with np.errstate(under="ignore"):
            bvn = float(np.exp((sn * hk - hs) / (1.0 - sn * sn)) @ w)
        bvn = bvn * asr / tp + std_normal_cdf(-h) * std_normal_cdf(-k)
    else:
        if r < 0.0:
            k = -k
            hk = -hk
        if abs(r) < 1.0:
            ass = (1.0 - r) * (1.0 + r)
            a = np.sqrt(ass)
            bs = (h - k) ** 2
            asr = -(bs / ass + hk) / 2.0
            c = (4.0 - hk) / 8.0
            d = (12.0 - hk) / 80.0
            if asr > -100.0:
                bvn = a * np.exp(asr) * (1.0 - c * (bs - ass) * (1.0 - d * bs) / 3.0
                                         + c * d * ass * ass)
            if hk > -100.0:
                b = np.sqrt(bs)
                sp = SQRT_TWO_PI * std_normal_cdf(-b / a)
                bvn -= np.exp(-hk / 2.0) * sp * b * (1.0 - c * bs * (1.0 - d * bs) / 3.0)
            a = a / 2.0
            for wi, xi in zip(w, xg):
                xs = (a * xi) ** 2
                rs = np.sqrt(1.0 - xs)
                asr = -(bs / xs + hk) / 2.0
                if asr > -100.0:
                    sp = 1.0 + c * xs * (1.0 + 5.0 * d * xs)
                    ep = np.exp(-hk * (1.0 - rs) / (2.0 * (1.0 + rs))) / rs
                    bvn += a * wi * np.exp(asr) * (ep - sp)
            bvn = -bvn / tp
        if r > 0.0:
            bvn += std_normal_cdf(-max(h, k))
        elif h >= k:
            bvn = -bvn
        else:
            L = (std_normal_cdf(k) - std_normal_cdf(h) if h < 0.0
                 else std_normal_cdf(-h) - std_normal_cdf(-k))
            bvn = L - bvn
    return max(0.0, min(1.0, bvn))


def bivariate_normal_cdf(x1, x2, r):
    """P(X <= x1, Y <= x2) under a standard bivariate normal, corr ``r``.

    The limits r = +-1 reduce to the univariate min/difference forms.
    """
    if abs(r) > 1.0:
        raise DomainError(f"correlation must satisfy |r| <= 1, got {r}")
    if r == 1.0:
        return std_normal_cdf(min(x1, x2))
    if r == -1.0:
        return max(0.0, std_normal_cdf(x1) + std_normal_cdf(x2) - 1.0)
    return _bvnu(-float(x1), -float(x2), float(r))
