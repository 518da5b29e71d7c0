"""Standard-normal special functions.

Phi, log Phi and Phi^{-1} are thin wrappers over ``scipy.special``'s
``ndtr``, ``log_ndtr`` and ``ndtri``. Against 50-digit mpmath, ``ndtr``
and ``log_ndtr`` are accurate to a few ulp times the condition number
(about 1 + x^2), ``log_ndtr`` stays accurate far below where Phi itself
underflows, and ``ndtri`` is within an ulp from p = 1e-300 to
1 - 1e-16. The wrappers add the conventions the rest of the package
relies on: a scalar argument gives a Python float, and Phi^{-1} signals
on p outside (0, 1).

scipy has no bivariate normal CDF to 1e-12, so ``bivariate_normal_cdf``
is Genz's reformulation of the Drezner-Wesolowsky integral, absolute
error below 1e-12 (in practice ~5e-16).
"""

from __future__ import annotations

import numpy as np
from scipy.special import log_ndtr, ndtr, ndtri

from .errors import DomainError

SQRT_TWO_PI = np.sqrt(2.0 * np.pi)


def std_normal_pdf(x):
    x = np.asarray(x, dtype=float)
    with np.errstate(under="ignore"):
        out = np.exp(-0.5 * x * x) / SQRT_TWO_PI
    return out if out.ndim else float(out)


def std_normal_cdf(x):
    out = ndtr(np.asarray(x, dtype=float))
    return out if out.ndim else float(out)


def std_normal_log_cdf(x):
    """log Phi(x), stable for arbitrarily negative arguments.

    Needed by the Gumbel/Weibull standard-normal maps, where Phi(x)
    itself rounds to 0 or 1 long before log Phi loses meaning.
    """
    out = log_ndtr(np.asarray(x, dtype=float))
    return out if out.ndim else float(out)


def std_normal_inv(p):
    """Quantile function of N(0, 1); signals on p outside (0, 1)."""
    p = np.asarray(p, dtype=float)
    if np.any((p <= 0.0) | (p >= 1.0)):
        raise DomainError("std_normal_inv requires 0 < p < 1")
    out = ndtri(p)
    return out if out.ndim else float(out)


# ---------------------------------------------------------------------------
# bivariate normal CDF (Genz's version of Drezner-Wesolowsky)
# ---------------------------------------------------------------------------

_GL6_W = np.array([0.1713244923791705, 0.3607615730481384, 0.4679139345726904])
_GL6_X = np.array([0.9324695142031522, 0.6612093864662647, 0.2386191860831970])
_GL12_W = np.array([0.04717533638651177, 0.1069393259953183, 0.1600783285433464,
                    0.2031674267230659, 0.2334925365383547, 0.2491470458134029])
_GL12_X = np.array([0.9815606342467191, 0.9041172563704750, 0.7699026741943050,
                    0.5873179542866171, 0.3678314989981802, 0.1252334085114692])
_GL20_W = np.array([0.01761400713915212, 0.04060142980038694, 0.06267204833410906,
                    0.08327674157670475, 0.1019301198172404, 0.1181945319615184,
                    0.1316886384491766, 0.1420961093183821, 0.1491729864726037,
                    0.1527533871307259])
_GL20_X = np.array([0.9931285991850949, 0.9639719272779138, 0.9122344282513259,
                    0.8391169718222188, 0.7463319064601508, 0.6360536807265150,
                    0.5108670019508271, 0.3737060887154196, 0.2277858511416451,
                    0.07652652113349733])


def _phid(x):
    return float(ndtr(x))


def _bvnu(dh, dk, r):
    """P(X > dh, Y > dk) for standard bivariate normal with correlation r."""
    if np.isposinf(dh) or np.isposinf(dk):
        return 0.0
    if np.isneginf(dh):
        return 1.0 if np.isneginf(dk) else _phid(-dk)
    if np.isneginf(dk):
        return _phid(-dh)
    if r == 0.0:
        return _phid(-dh) * _phid(-dk)

    tp = 2.0 * np.pi
    h, k = dh, dk
    hk = h * k
    bvn = 0.0
    if abs(r) < 0.3:
        w, xg = _GL6_W, _GL6_X
    elif abs(r) < 0.75:
        w, xg = _GL12_W, _GL12_X
    else:
        w, xg = _GL20_W, _GL20_X
    w = np.concatenate([w, w])
    xg = np.concatenate([1.0 - xg, 1.0 + xg])

    if abs(r) < 0.925:
        hs = (h * h + k * k) / 2.0
        asr = np.arcsin(r) / 2.0
        sn = np.sin(asr * xg)
        with np.errstate(under="ignore"):
            bvn = float(np.exp((sn * hk - hs) / (1.0 - sn * sn)) @ w)
        bvn = bvn * asr / tp + _phid(-h) * _phid(-k)
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
                sp = SQRT_TWO_PI * _phid(-b / a)
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
            bvn += _phid(-max(h, k))
        elif h >= k:
            bvn = -bvn
        else:
            L = _phid(k) - _phid(h) if h < 0.0 else _phid(-h) - _phid(-k)
            bvn = L - bvn
    return max(0.0, min(1.0, bvn))


def bivariate_normal_cdf(x1, x2, r):
    """P(X <= x1, Y <= x2) under a standard bivariate normal, corr ``r``.

    The limits r = +-1 reduce to the univariate min/difference forms.
    """
    if abs(r) > 1.0:
        raise DomainError(f"correlation must satisfy |r| <= 1, got {r}")
    if r == 1.0:
        return _phid(min(x1, x2))
    if r == -1.0:
        return max(0.0, _phid(x1) + _phid(x2) - 1.0)
    return _bvnu(-float(x1), -float(x2), float(r))
