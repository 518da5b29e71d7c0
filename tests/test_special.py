import os
import subprocess
import sys
from pathlib import Path

import mpmath
import numpy as np
import pytest

from relsens import std_normal_cdf, std_normal_inv, std_normal_pdf
from relsens.errors import DomainError
from relsens.special import std_normal_inv_log_cdf, std_normal_log_cdf

EPS = np.finfo(float).eps


def _mp_cdf(x):
    with mpmath.workdps(50):
        return float(mpmath.ncdf(float(x)))


def _mp_log_cdf(x):
    with mpmath.workdps(50):
        return float(mpmath.log(mpmath.ncdf(float(x))))


def _mp_inv(p):
    """Phi^{-1}(p) to 50 digits: Newton on the exact tail probability."""
    with mpmath.workdps(50):
        p = mpmath.mpf(float(p))
        q = min(p, 1 - p)                   # exact: p is a double
        x = mpmath.mpf(float(std_normal_inv(float(q))))
        for _ in range(4):
            x -= (mpmath.ncdf(x) - q) / mpmath.npdf(x)
        return float(x if p < 0.5 else -x)


def _mp_inv_log(y):
    """z with log Phi(z) = y to 60 digits, solved in the tail where Phi or
    1 - Phi is small."""
    with mpmath.workdps(60):
        y = mpmath.mpf(float(y))
        z0 = mpmath.mpf(float(std_normal_inv_log_cdf(float(y))))
        if y < mpmath.log(0.5):
            z = mpmath.findroot(lambda z: mpmath.log(mpmath.ncdf(z)) - y, z0)
        else:
            log_q = mpmath.log(-mpmath.expm1(y))
            z = mpmath.findroot(lambda z: mpmath.log(mpmath.ncdf(-z)) - log_q, z0)
        return float(z)


def _rel_err(got, ref):
    return np.abs(np.asarray(got) / np.asarray(ref) - 1.0)


# -- Phi, log Phi and Phi^{-1} against 50-digit mpmath --------------------------
# Phi at a double x is conditioned like x^2 (d log Phi / d log x ~ x^2 in the
# lower tail), so the bounds allow a few ulp times 1 + x^2.

def test_cdf_matches_mpmath_everywhere():
    x = np.linspace(-8.5, 8.5, 341)
    ref = np.array([_mp_cdf(v) for v in x])
    assert np.all(_rel_err(std_normal_cdf(x), ref) <= 4.0 * EPS * (1.0 + x * x))


def test_cdf_relative_accuracy_in_tails():
    x = np.linspace(-37.0, -5.0, 161)
    ref = np.array([_mp_cdf(v) for v in x])
    assert np.all(ref > 1e-300)             # no subnormal references
    assert np.all(_rel_err(std_normal_cdf(x), ref) <= 4.0 * EPS * (1.0 + x * x))


def test_log_cdf_matches_mpmath_down_to_minus_100():
    x = np.concatenate([np.linspace(-100.0, 10.0, 441), [-33.0, -37.0, -38.5]])
    ref = np.array([_mp_log_cdf(v) for v in x])
    got = std_normal_log_cdf(x)
    # absolute error of log Phi is the relative error of Phi itself
    assert np.all(np.abs(got - ref) <= 4.0 * EPS * (1.0 + x * x))
    assert np.max(_rel_err(got, ref)) < 5e-14


def test_inverse_matches_mpmath():
    p = np.concatenate([np.geomspace(1e-300, 0.49, 150),
                        1.0 - np.geomspace(1e-16, 0.49, 150),
                        [1e-6, 1.0 - 1e-6, 0.3, 0.7]])
    ref = np.array([_mp_inv(v) for v in p])
    got = std_normal_inv(p)
    assert np.all(np.abs(got - ref) <= 4.0 * EPS * np.abs(ref))
    # the ends of every default curve grid, to the last bit
    for v in (1e-6, 1.0 - 1e-6):
        assert std_normal_inv(v) == _mp_inv(v)


def test_inverse_log_cdf_matches_mpmath():
    # log p from -727 (z = -38) up to -1e-307 (z = 37.5) and the bulk
    y = np.concatenate([-np.geomspace(1e-307, 727.0, 300),
                        -np.linspace(0.01, 5.0, 50)])
    ref = np.array([_mp_inv_log(v) for v in y])
    got = std_normal_inv_log_cdf(y)
    assert np.all(np.abs(got - ref) <= 4.0 * EPS * np.maximum(1.0, np.abs(ref)))


def test_scalar_in_float_out():
    for fn, arg in ((std_normal_cdf, 0.3), (std_normal_log_cdf, -40.0),
                    (std_normal_inv, 0.2), (std_normal_pdf, 1.0),
                    (std_normal_inv_log_cdf, -0.5)):
        assert type(fn(arg)) is float
        assert type(fn(np.float64(arg))) is float
        assert fn(np.array([arg, arg])).shape == (2,)


def test_cdf_examples():
    # symmetry and a tail value checked against the erf-based oracle
    assert std_normal_inv(0.5) == pytest.approx(0.0, abs=1e-15)
    assert std_normal_cdf(-2.4393) == pytest.approx(0.0073578, rel=1e-4)
    x = np.linspace(-8, 8, 101)
    assert np.allclose(std_normal_cdf(x) + std_normal_cdf(-x), 1.0, atol=1e-15)


def test_cdf_strictly_increasing():
    # width limited to where float64 can still resolve the increments
    x = np.linspace(-8, 7, 2001)
    assert np.all(np.diff(std_normal_cdf(x)) > 0)


def test_pdf_cdf_pair():
    with mpmath.workdps(50):
        pdf = float(mpmath.npdf(1.3))
    assert std_normal_pdf(1.3) == pytest.approx(pdf, rel=1e-14)
    assert std_normal_cdf(1.3) == pytest.approx(_mp_cdf(1.3), rel=1e-14)


def test_inverse_accuracy_in_probability():
    # measured in the argument: cdf(inv(p)) must reproduce p
    p = np.concatenate([np.geomspace(1e-300, 0.5, 400),
                        1.0 - np.geomspace(1e-16, 0.5, 400)])
    x = std_normal_inv(p)
    back = std_normal_cdf(x)
    assert np.max(np.abs(back - p) / p) < 1e-12


def test_inverse_round_trip_central():
    x = np.linspace(-4.9, 4.9, 501)    # central 99.9999% of mass
    err = np.abs(std_normal_inv(std_normal_cdf(x)) - x)
    assert np.max(err / np.maximum(np.abs(x), 1e-3)) < 1e-10


def test_inverse_domain_errors():
    for bad in (0.0, 1.0, -0.2, 1.4, np.nan, [0.5, np.nan]):
        with pytest.raises(DomainError):
            std_normal_inv(bad)


def test_log_cdf_deep_tail():
    x = np.array([-5.0, -20.0, -37.0, -50.0, -100.0])
    ref = np.array([_mp_log_cdf(v) for v in x])
    assert np.max(np.abs(std_normal_log_cdf(x) - ref) / np.abs(ref)) < 1e-9
    assert std_normal_log_cdf(3.0) == pytest.approx(_mp_log_cdf(3.0), rel=1e-12)


# -- the ufunc loader, each case in a fresh interpreter -------------------------

_SRC = Path(__file__).resolve().parents[1] / "src"
_UFUNC_NAMES = ("ndtr", "log_ndtr", "ndtri", "ndtri_exp")


def _fresh(code):
    """The last line that ``code`` prints in a fresh interpreter."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(_SRC)] + [p for p in [env.get("PYTHONPATH")] if p])
    done = subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True, timeout=120,
                          check=True)
    return done.stdout.splitlines()[-1]


def test_scipy_special_imports_whole_after_the_loader():
    assert _fresh(f"""
import importlib, sys
from relsens import special
special.std_normal_cdf(0.5)
assert "scipy.special" not in sys.modules
ufuncs = special._ufuncs()
package = importlib.import_module("scipy.special")
print(hasattr(package, "erf"), package.__file__.endswith("__init__.py"),
      all(getattr(package, n) is getattr(ufuncs, n) for n in {_UFUNC_NAMES}))
""") == "True True True"


def test_first_calls_on_eight_threads_agree_and_leave_no_placeholder():
    assert _fresh("""
import sys, threading
from relsens import special
sys.setswitchinterval(1e-6)
start = threading.Barrier(8)
results = [None] * 8

def first_call(k):
    start.wait()
    results[k] = special.std_normal_log_cdf(-3.0)

threads = [threading.Thread(target=first_call, args=(k,)) for k in range(8)]
for t in threads:
    t.start()
for t in threads:
    t.join(60)
print(not any(t.is_alive() for t in threads), None not in results,
      len(set(results)), "scipy.special" in sys.modules,
      "scipy.special._ufuncs" in sys.modules)
""") == "True True 1 False True"


def test_loader_takes_the_ufuncs_of_an_imported_scipy_special():
    assert _fresh("""
import sys
import scipy.special
from relsens import special
special.std_normal_inv(0.25)
print(special._ufuncs() is scipy.special._ufuncs,
      sys.modules["scipy.special"] is scipy.special)
""") == "True True"
