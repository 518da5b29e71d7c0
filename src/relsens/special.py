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
``std_normal_cdf`` takes an ``out=`` array, so that a caller can form
the argument and Phi of a large batch in one buffer.

The four ufuncs live in the compiled module ``scipy.special._ufuncs``,
which ``_ufuncs()`` loads on the first call of a wrapper, once per
process. Loading a config and sampling normal and lognormal inputs
evaluate no Phi; analytic and FORM runs, the Gumbel and Weibull maps and
``form-curves`` do. The loader does not run ``scipy/special/__init__.py``:
that imports scipy's array-API layer, which clones numpy and with it
imports ``numpy.f2py``, ``numpy.testing`` and ``numpy.ma``. In fresh
interpreters that had numpy, ``import scipy.special`` took 0.14-0.37 s
and peaked at 52.3-52.6 MB, and the loader 0.012-0.043 s and
31.9-32.2 MB (numpy alone: 26.8 MB; 2-CPU VM). It imports ``scipy``,
puts a bare package module named ``scipy.special`` (scipy's ``special``
directory as its ``__path__``) in ``sys.modules``, imports ``_ufuncs``
from it and removes the placeholder again. The ufuncs are the very
objects that the full package exports, which a later
``import scipy.special`` loads as usual. If the package is already
imported, the loader takes its ``_ufuncs``. A lock makes one thread load
while the others wait, since the first Phi may be evaluated on crude
MC's worker threads. The placeholder is in ``sys.modules`` for about
10 ms, once per process; a thread that imports ``scipy.special``
outside this module in that window gets the placeholder.
"""

from __future__ import annotations

import os
import sys
import threading
import types

import numpy as np

from .errors import DomainError

SQRT_TWO_PI = np.sqrt(2.0 * np.pi)

_LOAD_LOCK = threading.Lock()
_UFUNCS = None


def _ufuncs():
    """The module ``scipy.special._ufuncs``, loaded on the first call
    without running the package's ``__init__`` (see the module
    docstring)."""
    global _UFUNCS
    if _UFUNCS is None:
        with _LOAD_LOCK:
            if _UFUNCS is None:
                placeholder = None
                if "scipy.special" not in sys.modules:
                    import scipy
                    placeholder = types.ModuleType("scipy.special")
                    placeholder.__path__ = [os.path.join(p, "special")
                                            for p in scipy.__path__]
                    sys.modules.setdefault("scipy.special", placeholder)
                try:
                    from scipy.special import _ufuncs as _UFUNCS
                finally:
                    if (placeholder is not None
                            and sys.modules.get("scipy.special") is placeholder):
                        del sys.modules["scipy.special"]
    return _UFUNCS


def std_normal_pdf(x):
    x = np.asarray(x, dtype=float)
    with np.errstate(under="ignore"):
        out = np.exp(-0.5 * x * x) / SQRT_TWO_PI
    return out if out.ndim else float(out)


def std_normal_cdf(x, out=None):
    """Phi(x), written into ``out`` (an array of x's shape, which may be
    x itself) if it is given."""
    ndtr = _ufuncs().ndtr
    out = ndtr(np.asarray(x, dtype=float), out=out)
    return out if out.ndim else float(out)


def std_normal_log_cdf(x):
    """log Phi(x), stable for arbitrarily negative arguments.

    Needed by the Gumbel/Weibull standard-normal maps, where Phi(x)
    itself rounds to 0 or 1 long before log Phi loses meaning, and by the
    safety EVPPI's rule, which cuts its integrand by its log.
    """
    log_ndtr = _ufuncs().log_ndtr
    out = log_ndtr(np.asarray(x, dtype=float))
    return out if out.ndim else float(out)


def std_normal_inv_log_cdf(log_p):
    """z with log Phi(z) = log_p: the inverse of ``std_normal_log_cdf``.

    Needed by the Gumbel/Weibull maps to standard-normal space, which
    know log F or log(1 - F) exactly where F itself rounds to 0 or 1.
    """
    ndtri_exp = _ufuncs().ndtri_exp
    out = ndtri_exp(np.asarray(log_p, dtype=float))
    return out if out.ndim else float(out)


def std_normal_inv(p):
    """Quantile function of N(0, 1); signals on p outside (0, 1)."""
    ndtri = _ufuncs().ndtri
    p = np.asarray(p, dtype=float)
    if not np.all((p > 0.0) & (p < 1.0)):
        raise DomainError("std_normal_inv requires 0 < p < 1")
    out = ndtri(p)
    return out if out.ndim else float(out)
