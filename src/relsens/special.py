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
and Weibull maps and ``form-curves`` do. Importing ``scipy.special``
also imports ``numpy.polynomial``, so the Gauss-Legendre rule of the
closed-form safety EVPPI costs no further import. ``std_normal_cdf``
takes an ``out=`` array, so that a caller can form the argument and Phi
of a large batch in one buffer.
"""

from __future__ import annotations

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
    itself rounds to 0 or 1 long before log Phi loses meaning, and by the
    safety EVPPI's rule, which cuts its integrand by its log.
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
