import json
import math
import warnings

import mpmath
import numpy as np
import pytest
from scipy.integrate import quad
from scipy.optimize import brentq
from scipy.special import ndtri
from scipy.stats import gumbel_r, lognorm, norm, weibull_min

import relsens.dists as dists
from relsens import (GaussianCopulaJoint, LognormalLinearProblem, Marginal,
                     default_grid, fit_params_from_moments,
                     lognormal_linear_conditional_pf,
                     nataf_fit, std_normal_inv, validate_correlation)
from relsens.condest import GRID_Z_HI, GRID_Z_LO
from relsens.errors import (ConfigError, DomainError, FitError,
                            InvalidCorrelationError, NatafError)
from relsens.config import load_config, validate_config
from conftest import (CONFIG_DIR, EX1_RXX, EX1_SIGNS, PF_DEP, PF_IND,
                      lognormal_linear_pf)


# -- moment fits ---------------------------------------------------------------

def test_lognormal_moment_fit():
    m = fit_params_from_moments("lognormal", 100.0, 0.2)
    assert m.params[1] == pytest.approx(math.sqrt(math.log(1.04)), rel=1e-12)
    assert m.params[0] == pytest.approx(math.log(100) - math.log(1.04) / 2, rel=1e-12)
    assert m.mean == pytest.approx(100.0, rel=1e-12)
    assert m.cov == pytest.approx(0.2, rel=1e-12)


def test_gumbel_moment_fit():
    m = fit_params_from_moments("gumbel", 2500.0, 0.2)
    assert m.params[0] == pytest.approx(2274.9734, rel=1e-6)
    assert m.params[1] == pytest.approx(389.8484, rel=1e-6)
    assert m.mean == pytest.approx(2500.0, rel=1e-12)
    assert m.cov == pytest.approx(0.2, rel=1e-12)


def test_weibull_moment_fit_against_bisection_oracle():
    target = 0.1 * 0.1

    def resid(k):
        return math.gamma(1 + 2 / k) / math.gamma(1 + 1 / k) ** 2 - 1 - target

    lo, hi = 5.0, 20.0
    for _ in range(80):                      # plain bisection as the oracle
        mid = 0.5 * (lo + hi)
        if resid(lo) * resid(mid) <= 0:
            hi = mid
        else:
            lo = mid
    k_oracle = 0.5 * (lo + hi)
    m = fit_params_from_moments("weibull", 40.0, 0.1)
    assert m.params[0] == pytest.approx(k_oracle, rel=1e-9)
    assert m.params[0] == pytest.approx(12.153, rel=1e-3)
    assert m.params[1] == pytest.approx(40.0 / math.gamma(1 + 1 / k_oracle), rel=1e-9)
    assert m.mean == pytest.approx(40.0, rel=1e-8)
    assert m.cov == pytest.approx(0.1, rel=1e-8)


@pytest.mark.parametrize("kind,mean,cov", [
    ("normal", 250.0, 0.3), ("lognormal", 40.0, 0.25),
    ("gumbel", 2500.0, 0.2), ("weibull", 40.0, 0.1)])
def test_moment_round_trip(kind, mean, cov):
    m = fit_params_from_moments(kind, mean, cov)
    assert m.mean == pytest.approx(mean, rel=1e-8)
    assert m.cov == pytest.approx(cov, rel=1e-8)


def test_fit_rejects_bad_moments():
    with pytest.raises(DomainError):
        fit_params_from_moments("lognormal", -3.0, 0.2)
    with pytest.raises(DomainError):
        fit_params_from_moments("normal", 1.0, 0.0)


NAN = float("nan")


@pytest.mark.parametrize("build", [
    lambda: Marginal("normal", (0.0, NAN)),
    lambda: Marginal("normal", (NAN, 1.0)),
    lambda: Marginal("lognormal", (NAN, 0.5)),
    lambda: Marginal("gumbel", (2000.0, NAN)),
    lambda: Marginal("weibull", (NAN, 1.0)),
    lambda: Marginal("weibull", (10.0, NAN)),
    lambda: Marginal("normal", (math.inf, 1.0)),
    lambda: fit_params_from_moments("lognormal", 100.0, NAN),
    lambda: fit_params_from_moments("normal", NAN, 0.2),
    lambda: fit_params_from_moments("gumbel", NAN, 0.2),
    lambda: fit_params_from_moments("weibull", 40.0, NAN),
], ids=["normal-sigma", "normal-mu", "lognormal-mu", "gumbel-scale",
        "weibull-shape", "weibull-scale", "normal-inf-mu", "fit-lognormal-cov",
        "fit-normal-mean", "fit-gumbel-mean", "fit-weibull-cov"])
def test_nan_parameters_are_rejected(build):
    with pytest.raises(DomainError):
        build()


# -- root-finds (bisection to adjacent floats; brentq as the reference) -----------

WEIBULL_COVS = [0.02, 0.1, 0.3, 1.0, 2.0, 5.0]
NATAF_PAIRS = {
    "normal-gumbel": (("normal", 250.0, 0.3), ("gumbel", 2500.0, 0.2)),
    "normal-weibull": (("normal", 250.0, 0.3), ("weibull", 40.0, 0.1)),
    "gumbel-weibull": (("gumbel", 2500.0, 0.2), ("weibull", 40.0, 0.1)),
    "lognormal-gumbel": (("lognormal", 100.0, 0.2), ("gumbel", 2500.0, 0.2)),
}
NATAF_RHOS = [-0.7, -0.3, 0.3, 0.7, 0.9]


def _weibull_resid(cov):
    return lambda k: (math.gamma(1.0 + 2.0 / k) / math.gamma(1.0 + 1.0 / k) ** 2
                      - 1.0 - cov * cov)


def _nataf_resid(pair, rho_x):
    mi, mj = (fit_params_from_moments(*spec) for spec in NATAF_PAIRS[pair])
    return mi, mj, lambda r: dists._pair_physical_correlation(r, mi, mj) - rho_x


def _assert_full_precision(f, root):
    # the root is exact, or one adjacent float lies across the sign change
    f0 = f(root)
    if f0 == 0.0:
        return
    across = [f(np.nextafter(root, d)) for d in (-math.inf, math.inf)]
    assert any((fa < 0.0) != (f0 < 0.0) for fa in across)


@pytest.mark.parametrize("cov", WEIBULL_COVS)
def test_weibull_shape_matches_brentq(cov):
    resid = _weibull_resid(cov)
    ref = brentq(resid, 0.08, 400.0, xtol=1e-13, rtol=8.9e-16)
    shape = fit_params_from_moments("weibull", 40.0, cov).params[0]
    assert shape == pytest.approx(ref, rel=1e-12, abs=0.0)
    _assert_full_precision(resid, shape)


@pytest.mark.parametrize("rho_x", NATAF_RHOS)
@pytest.mark.parametrize("pair", sorted(NATAF_PAIRS))
def test_nataf_pair_matches_brentq(pair, rho_x):
    mi, mj, resid = _nataf_resid(pair, rho_x)
    ref = brentq(resid, -0.999, 0.999, xtol=1e-12)
    rho_z = dists.nataf_pair(mi, mj, rho_x)
    assert abs(rho_z - ref) <= 1e-12
    _assert_full_precision(resid, rho_z)


def test_weibull_fit_error_carries_residual():
    # cov 0.001 needs a shape beyond the bracket end 400
    with pytest.raises(FitError, match="cov=0.001") as info:
        fit_params_from_moments("weibull", 40.0, 0.001)
    assert info.value.residual == pytest.approx(
        _weibull_resid(0.001)(400.0), rel=1e-12)


def test_nataf_unreachable_correlation_raises():
    mi, mj, _ = _nataf_resid("normal-gumbel", 0.98)
    with pytest.raises(NatafError, match="rho_x=0.98"):
        dists.nataf_pair(mi, mj, 0.98)


def test_bisect_stops_at_exact_zero_and_rejects_bad_brackets():
    assert dists._bisect(lambda x: x - 0.5, 0.0, 1.0) == 0.5
    assert dists._bisect(lambda x: x - 1.0, 0.0, 1.0) == 1.0
    with pytest.raises(ValueError, match="same sign"):
        dists._bisect(lambda x: x + 1.0, 0.0, 1.0)
    with pytest.raises(ValueError, match="NaN"):
        dists._bisect(lambda x: math.nan, 0.0, 1.0)


def test_nan_residual_raises_instead_of_looping(monkeypatch):
    calls = []

    def resid(x):
        calls.append(x)
        return math.nan if 0.2 < x < 0.8 else x - 0.3

    with pytest.raises(ValueError, match="NaN"):
        dists._bisect(resid, 0.0, 1.0)
    assert len(calls) == 3                  # both ends and the first midpoint
    mi, mj, _ = _nataf_resid("normal-gumbel", 0.3)
    monkeypatch.setattr(dists, "_pair_physical_correlation",
                        lambda r, a, b: math.nan if abs(r) < 0.5 else r)
    with pytest.raises(NatafError):
        dists.nataf_pair(mi, mj, 0.3)

# -- quantiles and standard-normal maps ----------------------------------------

def _scipy_reference(m):
    """The scipy.stats distribution with the marginal's native parameters."""
    p1, p2 = m.params
    if m.kind == "normal":
        return norm(loc=p1, scale=p2)
    if m.kind == "lognormal":
        return lognorm(s=p2, scale=math.exp(p1))
    if m.kind == "gumbel":
        return gumbel_r(loc=p1, scale=p2)
    return weibull_min(c=p1, scale=p2)


@pytest.mark.parametrize("kind,mean,cov", [
    ("normal", 250.0, 0.3), ("lognormal", 100.0, 0.2),
    ("gumbel", 2500.0, 0.2), ("weibull", 40.0, 0.1)])
def test_cdf_inverse_round_trip(kind, mean, cov):
    m = fit_params_from_moments(kind, mean, cov)
    # central 99.9999% of mass
    p = np.linspace(5e-7, 1 - 5e-7, 801)
    x = m.from_standard_normal(std_normal_inv(p))
    assert np.all(np.diff(x) > 0)
    back = m.from_standard_normal(std_normal_inv(_scipy_reference(m).cdf(x)))
    assert np.max(np.abs(back - x) / np.abs(x)) < 1e-10


def test_pdf_integrates_to_cdf():
    m = fit_params_from_moments("weibull", 40.0, 0.1)
    val, _ = quad(m.pdf, 1e-9, 45.0, limit=200)
    assert val == pytest.approx(_scipy_reference(m).cdf(45.0), rel=1e-8)


def test_standard_normal_maps_match_cdf_inverse():
    for kind, mean, cov in (("gumbel", 2500.0, 0.2), ("weibull", 40.0, 0.1)):
        m = fit_params_from_moments(kind, mean, cov)
        z = np.linspace(-7, 7, 101)
        x = m.from_standard_normal(z)
        assert np.allclose(_scipy_reference(m).cdf(x), norm.cdf(z),
                           rtol=1e-10, atol=1e-12)
        assert np.max(np.abs(m.to_standard_normal(x) - z)) < 1e-7


def test_median_maps_to_zero():
    m = fit_params_from_moments("lognormal", 100.0, 0.2)
    x = m.from_standard_normal(std_normal_inv(0.5))
    assert m.to_standard_normal(x) == pytest.approx(0.0, abs=1e-12)


def test_support_violation_raises():
    m = fit_params_from_moments("lognormal", 100.0, 0.2)
    for bad in (-1.0, np.nan, [100.0, np.nan]):
        with pytest.raises(DomainError):
            m.to_standard_normal(bad)
    with pytest.raises(DomainError):
        fit_params_from_moments("normal", 250.0, 0.3).to_standard_normal(np.nan)


def _mp_to_standard_normal(m, x):
    """Phi^{-1}(F(x)) at 60 digits, solved in the tail where F or 1 - F
    is small, so no digit is lost to 1 - tiny."""
    with mpmath.workdps(60):
        x = mpmath.mpf(float(x))
        p1, p2 = m.params
        if m.kind == "gumbel":
            log_f = -mpmath.exp(-(x - p1) / p2)
            log_q = mpmath.log(-mpmath.expm1(log_f))
        else:
            log_q = -(x / p2) ** p1
            log_f = mpmath.log(-mpmath.expm1(log_q))
        if log_f < mpmath.log(0.5):
            z = mpmath.findroot(lambda z: mpmath.log(mpmath.ncdf(z)) - log_f,
                                -mpmath.sqrt(-2 * log_f))
        else:
            z = mpmath.findroot(lambda z: mpmath.log(mpmath.ncdf(-z)) - log_q,
                                mpmath.sqrt(-2 * log_q))
        return float(z)


@pytest.mark.parametrize("kind,mean,cov", [("gumbel", 2500.0, 0.2),
                                           ("weibull", 40.0, 0.1)])
def test_to_standard_normal_is_exact_inverse_in_the_tails(kind, mean, cov):
    m = fit_params_from_moments(kind, mean, cov)
    # Phi(-38) is below the smallest normal double: both ends of the grid
    # reach the tail where log Phi or the closed-form F rounds to 0
    z = np.linspace(-38.0, 38.0, 153)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        x = m.from_standard_normal(z)
        got = m.to_standard_normal(x)
    assert np.all(np.isfinite(x) & (x > m.support[0]))
    ref = np.array([_mp_to_standard_normal(m, v) for v in x])
    assert np.all(np.abs(got - ref) <= 2e-15 * np.maximum(1.0, np.abs(z)))


def test_weibull_far_lower_tail_is_finite_without_warning():
    # F(1e-25) is 3.0e-324, below the smallest normal double, so z comes
    # from log F = k log(x / lam) rather than from F itself
    m = fit_params_from_moments("weibull", 40.0, 0.1)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = m.to_standard_normal(1e-25)
    assert math.isfinite(got)
    ref = _mp_to_standard_normal(m, 1e-25)
    assert abs(got - ref) <= 2e-15 * abs(ref)


# endpoints of default_grid for the shipped marginals, recorded with the
# closed-form quantiles inv_cdf used before it became the standard-normal map
_SHIPPED_GRID_ENDS = [
    ("lognormal", 100.0, 0.2, "0x1.3202f33c9ca44p+5", "0x1.f6bf0be389cf6p+7"),
    ("lognormal", 40.0, 0.25, "0x1.8141e544c0784p+3", "0x1.f4528e3ae8c0dp+6"),
    ("lognormal", 1.0, 0.1, "0x1.3d174fc3d7eb3p-1", "0x1.9943d3d0d53c2p+0"),
    ("lognormal", 1.0, 0.2, "0x1.87b1db2edcfadp-2", "0x1.41c1f320fc09bp+1"),
    ("normal", 250.0, 0.3, "-0x1.aa06fca6a1ba0p+6", "0x1.2f40df94d347ap+9"),
    ("normal", 125.0, 0.3, "-0x1.aa06fca6a1ba0p+5", "0x1.2f40df94d347ap+8"),
    ("gumbel", 2500.0, 0.2, "0x1.38d401eefec61p+10", "0x1.deced8a97f002p+12"),
    ("weibull", 40.0, 0.1, "0x1.ac5f8ec480f54p+3", "0x1.9e4477eed1454p+5"),
]


@pytest.mark.parametrize("kind,mean,cov,lo,hi", _SHIPPED_GRID_ENDS)
def test_default_grid_is_bit_identical_to_closed_form_quantiles(kind, mean, cov,
                                                                lo, hi):
    grid = default_grid(fit_params_from_moments(kind, mean, cov), 512)
    assert grid[0] == float.fromhex(lo)
    assert grid[-1] == float.fromhex(hi)
    assert np.array_equal(grid, np.linspace(grid[0], grid[-1], len(grid)))


def test_default_grid_z_ends_are_scipy_ndtri_bit_for_bit():
    assert GRID_Z_LO == ndtri(1e-6)
    assert GRID_Z_HI == ndtri(1.0 - 1e-6)


# -- correlation and the Nataf fit ----------------------------------------------

def test_validate_correlation_rejects_bad_matrices():
    with pytest.raises(InvalidCorrelationError):
        validate_correlation([[1.0, 0.2], [0.3, 1.0]])
    with pytest.raises(InvalidCorrelationError):
        validate_correlation([[1.3, 0.0], [0.0, 1.0]])
    with pytest.raises(InvalidCorrelationError):
        validate_correlation([[1.0, 0.999], [0.999, -1.0]])
    ok = validate_correlation(EX1_RXX)
    assert ok.shape == (4, 4)


def test_nataf_normal_pair_is_identity():
    a = fit_params_from_moments("normal", 250.0, 0.3)
    b = fit_params_from_moments("normal", 125.0, 0.3)
    assert dists.nataf_pair(a, b, 0.3) == 0.3


def test_nataf_lognormal_closed_form():
    a = fit_params_from_moments("lognormal", 100.0, 0.2)
    b = fit_params_from_moments("lognormal", 1.0, 0.1)
    expect = math.log(1.01) / math.sqrt(math.log(1.04) * math.log(1.01))
    assert dists.nataf_pair(a, b, 0.5) == pytest.approx(expect, rel=1e-12)
    assert expect == pytest.approx(0.50367, abs=5e-5)


def test_nataf_lognormal_pair_rejects_an_unattainable_correlation():
    # 1 + rho_x di dj <= 0 has no copula correlation; validate says where
    a = fit_params_from_moments("lognormal", 100.0, 2.3)
    b = fit_params_from_moments("lognormal", 1.0, 1.9)
    with pytest.raises(NatafError, match="rho_x=-0.5"):
        dists.nataf_pair(a, b, -0.5)
    raw = json.loads((CONFIG_DIR / "example1_safety_dependent.json")
                     .read_text())
    raw["inputs"][1]["cov"] = 2.3
    raw["inputs"][3]["cov"] = 1.9
    raw["correlation"][1][3] = raw["correlation"][3][1] = -0.5
    with pytest.raises(ConfigError, match="^correlation: no copula correlation"):
        validate_config(raw)


def test_nataf_zero_preserved():
    a = fit_params_from_moments("gumbel", 2500.0, 0.2)
    b = fit_params_from_moments("weibull", 40.0, 0.1)
    assert dists.nataf_pair(a, b, 0.0) == 0.0


def test_nataf_integral_reproduces_target(ex2_marginals):
    # normal-gumbel pair: fitted rho_z must map back to rho_x
    m1, p = ex2_marginals[0], ex2_marginals[2]
    rho_z = dists.nataf_pair(m1, p, 0.3)
    assert rho_z > 0.3   # heavier-tailed pair needs a larger copula correlation
    back = dists._pair_physical_correlation(rho_z, m1, p)
    assert back == pytest.approx(0.3, abs=1e-6)


def test_nataf_fit_matches_sampled_correlation(ex2_joint):
    rng = np.random.Generator(np.random.Philox(99))
    x, _ = ex2_joint.sample(10**6, rng)
    emp = np.corrcoef(x.T)
    n = 10**6
    for i in range(4):
        for j in range(i + 1, 4):
            target = ex2_joint.r_xx[i, j]
            se = (1.0 - target**2) / math.sqrt(n)
            assert abs(emp[i, j] - target) < 3.0 * se + 1e-12


# -- transforms -----------------------------------------------------------------

def test_round_trip_identity_independent(ex1_joint):
    rng = np.random.Generator(np.random.Philox(1))
    u = rng.standard_normal((1000, 4)).clip(-6, 6)
    x = ex1_joint.to_physical(u)
    back = ex1_joint.to_standard(x)
    assert np.max(np.abs(back - u) / np.maximum(np.abs(u), 1.0)) < 1e-8
    x2 = ex1_joint.to_physical(back)
    assert np.max(np.abs(x2 - x) / np.abs(x)) < 1e-8


def test_round_trip_identity_dependent(ex2_joint):
    rng = np.random.Generator(np.random.Philox(2))
    u = rng.standard_normal((1000, 4)).clip(-6, 6)
    x = ex2_joint.to_physical(u)
    back = ex2_joint.to_standard(x)
    assert np.max(np.abs(back - u) / np.maximum(np.abs(u), 1.0)) < 1e-8


def test_to_physical_writes_into_out(ex2_joint):
    # the map into a given buffer is the map into a fresh array, bit for bit,
    # and matches each marginal applied to its copula column
    u = np.random.Generator(np.random.Philox(3)).standard_normal((500, 4))
    x = ex2_joint.to_physical(u)
    buf = np.full((600, 4), np.nan)
    out = ex2_joint.to_physical(u, out=buf[:500])
    assert out.base is buf
    assert out.tobytes() == x.tobytes()
    assert np.isnan(buf[500:]).all()
    z = u @ ex2_joint.chol_z.T
    for i, m in enumerate(ex2_joint.marginals):
        assert x[:, i].tobytes() == m.from_standard_normal(z[:, i]).tobytes()


@pytest.mark.parametrize("config",
                         sorted(p.name for p in CONFIG_DIR.glob("*.json")))
def test_to_physical_keeps_the_bits_of_the_row_major_product(config):
    # to_physical forms chol_z u^T; that it has the bits of u chol_z^T, the
    # product crude-MC and subset samples were pinned with, is a property
    # of the BLAS, checked here at every row count up to 64 and at chunk
    # sizes the samplers use
    joint = load_config(CONFIG_DIR / config).joint
    d = joint.dim
    u_all = np.random.Generator(np.random.Philox(5)).standard_normal(
        (25_001, d))
    for m in [*range(1, 65), 151, 2000, 3594, 25_000, 25_001]:
        u = u_all[:m]
        z = u @ joint.chol_z.T
        ref = np.empty((m, d))
        for i, marginal in enumerate(joint.marginals):
            ref[:, i] = marginal.from_standard_normal(z[:, i])
        assert joint.to_physical(u).tobytes() == ref.tobytes(), m
        for out in (np.empty((d, m)).T, np.empty((m, d))):
            joint.to_physical(u, out=out)
            assert out.tobytes() == ref.tobytes(), m


def test_independent_copula_is_identity(ex1_joint):
    assert np.array_equal(ex1_joint.r_z, np.eye(4))


def test_cholesky_transform_example():
    # 2-D normal pair with copula correlation 0.5 at z = (1, 1)
    a = fit_params_from_moments("normal", 0.0 + 1.0, 1.0)  # mean 1, sd 1
    b = fit_params_from_moments("normal", 1.0, 1.0)
    joint = GaussianCopulaJoint.fit((a, b), [[1.0, 0.5], [0.5, 1.0]])
    x = np.array([[2.0, 2.0]])       # z = (1, 1)
    u = joint.to_standard(x)[0]
    assert u[0] == pytest.approx(1.0, abs=1e-12)
    assert u[1] == pytest.approx((1.0 - 0.5) / math.sqrt(0.75), abs=1e-12)


def test_to_standard_names_offending_component(ex1_joint):
    x = np.array([[100.0, 40.0, -1.0, 1.0]])
    with pytest.raises(DomainError, match="component 2"):
        ex1_joint.to_standard(x)


def test_median_point_maps_to_origin(ex1_joint):
    x = np.array([[m.from_standard_normal(std_normal_inv(0.5))
                   for m in ex1_joint.marginals]])
    assert np.max(np.abs(ex1_joint.to_standard(x))) < 1e-12


# -- linear lognormal oracle ------------------------------------------------------

def test_pf_independent(ex1_problem):
    assert lognormal_linear_pf(ex1_problem) == pytest.approx(PF_IND, rel=1e-12)
    assert lognormal_linear_pf(ex1_problem) == pytest.approx(7.4e-3, rel=6e-3)


def test_pf_dependent(ex1_problem_dep):
    assert lognormal_linear_pf(ex1_problem_dep) == pytest.approx(PF_DEP, rel=1e-12)
    assert lognormal_linear_pf(ex1_problem_dep) == pytest.approx(1.7e-2, rel=2e-2)


def test_pf_vanishes_for_small_variance(ex1_marginals):
    prob = LognormalLinearProblem(
        const_term=0.0, coeffs=EX1_SIGNS,
        mu_ln=np.array([m.params[0] for m in ex1_marginals]),
        c_ln=np.diag([1e-12] * 4))
    assert lognormal_linear_pf(prob) < 1e-300


def test_pf_zero_variance_raises(ex1_marginals):
    prob = LognormalLinearProblem(
        const_term=0.0, coeffs=EX1_SIGNS,
        mu_ln=np.array([m.params[0] for m in ex1_marginals]),
        c_ln=np.zeros((4, 4)))
    with pytest.raises(DomainError):
        lognormal_linear_pf(prob)


def test_conditional_reduces_to_lower_dimensional_problem(ex1_problem,
                                                          ex1_marginals):
    # conditioning R at any value must equal the 3-input problem shifted by ln r
    r = ex1_marginals[0].from_standard_normal(std_normal_inv(0.5))
    got = lognormal_linear_conditional_pf(ex1_problem, 0, r)
    reduced = LognormalLinearProblem(
        const_term=math.log(r), coeffs=EX1_SIGNS[1:],
        mu_ln=ex1_problem.mu_ln[1:], c_ln=ex1_problem.c_ln[1:, 1:])
    assert got == pytest.approx(lognormal_linear_pf(reduced), rel=1e-12)


@pytest.mark.parametrize("problem_name", ["ex1_problem", "ex1_problem_dep"])
def test_law_of_total_probability(problem_name, request, ex1_marginals):
    problem = request.getfixturevalue(problem_name)
    pf = lognormal_linear_pf(problem)
    m = ex1_marginals[1]   # integrate over the load

    def integrand(z):
        x = m.from_standard_normal(z)
        return lognormal_linear_conditional_pf(problem, 1, x) * norm.pdf(z)

    total, _ = quad(integrand, -9.0, 9.0, epsabs=1e-13, epsrel=1e-10, limit=300)
    assert total == pytest.approx(pf, rel=1e-6)


def test_conditional_threshold_location(ex1_problem, ex1_marginals):
    # the resistance value with conditional pf = 1e-2 sits near 82.7
    r = np.linspace(70.0, 95.0, 2001)
    pfr = lognormal_linear_conditional_pf(ex1_problem, 0, r)
    crossing = r[np.argmin(np.abs(pfr - 1e-2))]
    assert crossing == pytest.approx(82.7, abs=0.2)
    assert np.all(np.diff(pfr) < 0)      # decreasing in the resistance


def test_conditional_rejects_nonpositive(ex1_problem):
    with pytest.raises(DomainError):
        lognormal_linear_conditional_pf(ex1_problem, 0, -5.0)
