import mpmath
import numpy as np
import pytest

from relsens import (bivariate_normal_cdf, std_normal_cdf, std_normal_inv,
                     std_normal_pdf)
from relsens.errors import DomainError
from relsens.special import std_normal_log_cdf

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


def test_scalar_in_float_out():
    for fn, arg in ((std_normal_cdf, 0.3), (std_normal_log_cdf, -40.0),
                    (std_normal_inv, 0.2), (std_normal_pdf, 1.0)):
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
    for bad in (0.0, 1.0, -0.2, 1.4):
        with pytest.raises(DomainError):
            std_normal_inv(bad)


def test_log_cdf_deep_tail():
    x = np.array([-5.0, -20.0, -37.0, -50.0, -100.0])
    ref = np.array([_mp_log_cdf(v) for v in x])
    assert np.max(np.abs(std_normal_log_cdf(x) - ref) / np.abs(ref)) < 1e-9
    assert std_normal_log_cdf(3.0) == pytest.approx(_mp_log_cdf(3.0), rel=1e-12)


# -- bivariate ---------------------------------------------------------------

def _bvn_oracle(x1, x2, r):
    from scipy.stats import multivariate_normal
    return multivariate_normal.cdf([x1, x2], mean=[0.0, 0.0],
                                   cov=[[1.0, r], [r, 1.0]],
                                   abseps=1e-12, releps=0.0)


def test_bvn_trivial_values():
    assert bivariate_normal_cdf(0.0, 0.0, 0.0) == pytest.approx(0.25, abs=1e-15)
    # arcsin identity at the origin
    for r in np.linspace(-0.95, 0.95, 20):
        expect = 0.25 + np.arcsin(r) / (2.0 * np.pi)
        assert bivariate_normal_cdf(0.0, 0.0, r) == pytest.approx(expect, abs=1e-13)


def test_bvn_degenerates_to_univariate():
    assert bivariate_normal_cdf(-1.3, np.inf, 0.4) == pytest.approx(
        std_normal_cdf(-1.3), abs=1e-15)
    assert bivariate_normal_cdf(-1.3, 50.0, 0.4) == pytest.approx(
        0.09680048458561036, rel=1e-12)


def test_bvn_against_scipy_grid():
    rng = np.random.default_rng(42)
    for _ in range(120):
        x1, x2 = rng.uniform(-5, 5, 2)
        r = rng.uniform(-0.999, 0.999)
        assert bivariate_normal_cdf(x1, x2, r) == pytest.approx(
            _bvn_oracle(x1, x2, r), abs=5e-7)  # scipy's own quadrature limit


def test_bvn_high_correlation_branch():
    # exercised separately because it uses a different expansion
    rng = np.random.default_rng(7)
    for _ in range(60):
        x1, x2 = rng.uniform(-4, 4, 2)
        r = float(rng.choice([-1.0, 1.0])) * rng.uniform(0.925, 0.9999)
        assert bivariate_normal_cdf(x1, x2, r) == pytest.approx(
            _bvn_oracle(x1, x2, r), abs=5e-7)


def test_bvn_exact_correlation_limits():
    assert bivariate_normal_cdf(0.3, 1.0, 1.0) == pytest.approx(
        std_normal_cdf(0.3), abs=1e-15)
    assert bivariate_normal_cdf(0.3, -0.3, -1.0) == pytest.approx(0.0, abs=1e-15)
    assert bivariate_normal_cdf(1.0, 0.5, -1.0) == pytest.approx(
        std_normal_cdf(1.0) + std_normal_cdf(0.5) - 1.0, abs=1e-14)


def test_bvn_symmetry_and_monotonicity():
    rng = np.random.default_rng(5)
    for _ in range(40):
        x1, x2 = rng.uniform(-3, 3, 2)
        r = rng.uniform(-0.99, 0.99)
        assert bivariate_normal_cdf(x1, x2, r) == pytest.approx(
            bivariate_normal_cdf(x2, x1, r), abs=1e-14)
    xs = np.linspace(-3, 3, 41)
    vals = [bivariate_normal_cdf(x, 0.7, 0.6) for x in xs]
    assert np.all(np.diff(vals) > 0)


def test_bvn_rejects_invalid_correlation():
    with pytest.raises(DomainError):
        bivariate_normal_cdf(0.0, 0.0, 1.2)
