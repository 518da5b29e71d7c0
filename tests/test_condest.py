import json
import math
from pathlib import Path

import numpy as np
import pytest

from relsens import (conditional_pf_from_failure_samples, crude_mc,
                     default_grid, kde_fit, lognormal_linear_conditional_pf,
                     lognormal_linear_pf, marginal_from_params)
from relsens import config as config_mod, pipeline
from relsens.condest import (TRANSFORM_IDENTITY, effective_sample_size,
                             silverman_bandwidth, write_curve_csv)
from relsens.errors import DegenerateSampleError, DomainError
from conftest import PF_IND

ROOT = Path(__file__).resolve().parent.parent


def draw_ex1_failures(joint, limit_state, n_f, seed):
    """Exactly n_f iid failure samples via crude Monte Carlo filtering."""
    out = []
    got = 0
    k = 0
    while got < n_f:
        res = crude_mc(joint, limit_state, n=int(1.3 * n_f / PF_IND) + 1000,
                       seed=seed + 1000 * k)
        out.append(res.failure_samples)
        got += len(res.failure_samples)
        k += 1
    return np.vstack(out)[:n_f]


# -- kernel density fit -----------------------------------------------------------

def test_bandwidth_formula():
    rng = np.random.default_rng(0)
    v = rng.standard_normal(500)
    sd = np.std(v, ddof=1)
    q75, q25 = np.percentile(v, [75, 25])
    expect = 1.06 * min(sd, (q75 - q25) / 1.34) * 500 ** (-0.2)
    assert silverman_bandwidth(v) == pytest.approx(expect, rel=1e-12)


def test_bandwidth_falls_back_to_sd_when_iqr_is_zero():
    # tied values (a stuck MCMC chain) make the IQR zero while sd > 0
    v = np.r_[-np.linspace(1, 2, 20), np.zeros(60), np.linspace(1, 2, 20)]
    sd = np.std(v, ddof=1)
    assert sd > 0.9
    assert silverman_bandwidth(v) == 1.06 * sd * len(v) ** (-0.2)


def direct_density(values, h, t):
    """The kernel sum over every (evaluation point, sample) pair."""
    d = (np.asarray(t)[:, None] - np.asarray(values)[None, :]) / h
    with np.errstate(under="ignore"):
        return np.exp(-0.5 * d * d).sum(axis=1) / (
            len(values) * h * math.sqrt(2.0 * math.pi))


def far_points(values, h):
    """Points beyond the data where the density is subnormal or zero."""
    steps = h * np.array([30.0, 37.8, 38.2, 38.5, 39.0, 60.0])
    return np.r_[values.min() - steps, values.max() + steps]


@pytest.mark.parametrize("sample", ["normal", "two-cluster"])
def test_windowed_kernel_matches_direct_sum(sample):
    rng = np.random.default_rng(11)
    if sample == "normal":
        v = rng.standard_normal(3000)
    else:
        v = np.r_[rng.normal(-20.0, 1.0, 1500), rng.normal(20.0, 0.5, 500)]
    m = marginal_from_params("normal", 0.0, 1.0)
    model = kde_fit(v, m, transform=TRANSFORM_IDENTITY)
    h = model.bandwidth
    t = np.r_[np.linspace(v.min() - 3.0, v.max() + 3.0, 1001),
              far_points(v, h)]
    got = model.density_transformed(t)
    ref = direct_density(v, h, t)
    tiny = np.finfo(float).tiny
    assert np.any((ref > 0.0) & (ref < tiny))     # subnormal densities
    assert np.any(ref == 0.0)
    assert np.array_equal(got == 0.0, ref == 0.0)
    nz = ref != 0.0
    assert np.allclose(got[nz], ref[nz], rtol=1e-13, atol=0.0)


def test_kde_density_unchanged_by_shuffling():
    m = marginal_from_params("lognormal", 0.0, 0.5)
    rng = np.random.default_rng(12)
    v = np.exp(0.5 * rng.standard_normal(4000) + 1.0)
    a = kde_fit(v, m)
    b = kde_fit(rng.permutation(v), m)
    assert np.array_equal(a.points, b.points)
    z = np.linspace(-10.0, 12.0, 2001)
    da, db = a.density_transformed(z), b.density_transformed(z)
    assert np.array_equal(da == 0.0, db == 0.0)
    assert np.allclose(da, db, rtol=1e-13, atol=0.0)


def test_kde_sorts_points_but_keeps_the_unsorted_bandwidth():
    m = marginal_from_params("lognormal", 0.0, 0.5)
    v = np.exp(0.5 * np.random.default_rng(13).standard_normal(5000))
    model = kde_fit(v, m)
    z = m.to_standard_normal(v)
    assert np.array_equal(model.points, np.sort(z))
    assert model.bandwidth == silverman_bandwidth(z)


def test_kde_recovers_normal_density():
    rng = np.random.default_rng(1)
    v = rng.standard_normal(100_000)
    m = marginal_from_params("normal", 0.0, 1.0)
    model = kde_fit(v, m, transform=TRANSFORM_IDENTITY)
    phi0 = 1.0 / math.sqrt(2 * math.pi)
    assert model.density_physical(0.0)[0] == pytest.approx(phi0, rel=0.05)


def test_kde_two_cluster_symmetry():
    m = marginal_from_params("normal", 2.0, 1.0)
    v = np.array([1.0] * 10 + [3.0] * 10)
    model = kde_fit(v, m, transform=TRANSFORM_IDENTITY)
    x = np.linspace(0.0, 4.0, 41)
    d = model.density_physical(x)
    assert np.allclose(d, d[::-1], rtol=1e-12)


def test_kde_needs_enough_points():
    m = marginal_from_params("normal", 0.0, 1.0)
    with pytest.raises(DomainError):
        kde_fit(np.ones(10), m)
    with pytest.raises(DegenerateSampleError):
        kde_fit(np.ones(50), m, transform=TRANSFORM_IDENTITY)


def test_transformed_kde_keeps_mass_inside_support():
    # lognormal support is (0, inf): the default transform cannot leak mass
    m = marginal_from_params("lognormal", 0.0, 0.6)
    rng = np.random.default_rng(2)
    v = np.exp(0.6 * rng.standard_normal(2000))
    model = kde_fit(v, m)
    assert np.all(model.density_physical(np.array([-0.5, -0.1, 0.0])) == 0.0)
    ident = kde_fit(v, m, transform=TRANSFORM_IDENTITY)
    assert np.any(ident.density_physical(np.array([-0.1, -0.05])) > 0.0)


def test_transformed_kde_density_integrates_to_one():
    m = marginal_from_params("lognormal", 0.0, 0.5)
    rng = np.random.default_rng(3)
    v = np.exp(0.5 * rng.standard_normal(5000))
    model = kde_fit(v, m)
    x = np.linspace(1e-6, 15.0, 20_001)
    total = np.trapezoid(model.density_physical(x), x)
    assert total == pytest.approx(1.0, abs=1e-3)


def test_kde_on_short_column_failure_samples(ex2_mc, ex2_marginals):
    # failure pushes the bending moment above its prior mean
    m1_fail = ex2_mc.failure_samples[:, 0]
    model = kde_fit(m1_fail, ex2_marginals[0])
    grid = default_grid(ex2_marginals[0])
    dens = model.density_physical(grid)
    kde_mean = np.trapezoid(grid * dens, grid)
    assert kde_mean > 250.0
    assert np.trapezoid(dens, grid) == pytest.approx(1.0, abs=5e-3)


# -- conditional pf curves ----------------------------------------------------------

def test_flat_curve_for_irrelevant_input():
    # failure samples distributed exactly like the prior: ratio is 1
    m = marginal_from_params("lognormal", 1.0, 0.3)
    rng = np.random.default_rng(4)
    v = np.exp(1.0 + 0.3 * rng.standard_normal(20_000))
    grid = default_grid(m, p_lo=0.01)   # central 98%: enough local samples
    curve = conditional_pf_from_failure_samples(m, 0, v, 0.2, grid)
    assert np.max(np.abs(curve.pf_values / 0.2 - 1.0)) < 0.20
    total = np.trapezoid(curve.pf_values * m.pdf(grid), grid)
    assert total == pytest.approx(0.2, rel=0.05)


def test_example1_curve_against_analytic(ex1_joint, ex1_lsf, ex1_problem,
                                         ex1_marginals):
    # pointwise accuracy holds where the failure samples actually live;
    # beyond the central ~90% of the conditional mass the local sample
    # count drops below what a 30% band supports at this sample size
    fails = draw_ex1_failures(ex1_joint, ex1_lsf, 1000, seed=31)
    m = ex1_marginals[0]
    lo, hi = np.quantile(fails[:, 0], [0.05, 0.95])
    grid = np.linspace(lo, hi, 256)
    curve = conditional_pf_from_failure_samples(m, 0, fails[:, 0], PF_IND,
                                                grid)
    oracle = lognormal_linear_conditional_pf(ex1_problem, 0, grid)
    assert np.max(np.abs(curve.pf_values / oracle - 1.0)) < 0.30
    assert curve.n_failure_samples == 1000
    assert curve.source == "kde"


def test_law_of_total_probability_from_samples(ex1_joint, ex1_lsf,
                                               ex1_marginals):
    fails = draw_ex1_failures(ex1_joint, ex1_lsf, 2000, seed=57)
    for i, m in enumerate(ex1_marginals):
        curve = conditional_pf_from_failure_samples(m, i, fails[:, i], PF_IND)
        total = np.trapezoid(curve.pf_values * curve.density_prior, curve.grid)
        assert total == pytest.approx(PF_IND, rel=0.05)


def test_estimator_consistency(ex1_joint, ex1_lsf, ex1_problem, ex1_marginals):
    # weighted L1 error against the analytic oracle shrinks with sample size
    m = ex1_marginals[1]
    grid = default_grid(m, n=256)
    oracle = lognormal_linear_conditional_pf(ex1_problem, 1, grid)
    w = m.pdf(grid)
    medians = []
    for n_f in (100, 1000, 10_000):
        errs = []
        for k in range(20):
            fails = draw_ex1_failures(ex1_joint, ex1_lsf, n_f,
                                      seed=800_000 + 63 * k)
            curve = conditional_pf_from_failure_samples(m, 1, fails[:, 1],
                                                        PF_IND, grid)
            errs.append(np.trapezoid(np.abs(curve.pf_values - oracle) * w,
                                     grid))
        medians.append(np.median(errs))
    assert medians[0] > medians[1] > medians[2]


def test_curve_validation():
    m = marginal_from_params("lognormal", 0.0, 0.3)
    v = np.exp(0.3 * np.random.default_rng(5).standard_normal(100))
    with pytest.raises(DomainError):
        conditional_pf_from_failure_samples(m, 0, v, 0.0)
    with pytest.raises(DomainError):
        conditional_pf_from_failure_samples(m, 0, v, 0.5,
                                            grid=np.array([2.0, 1.0]))


def test_clip_fraction_reported():
    m = marginal_from_params("lognormal", 0.0, 0.3)
    # all failure mass far in the tail: the ratio overshoots 1 somewhere
    v = np.exp(0.3 * (3.5 + 0.1 * np.random.default_rng(6).standard_normal(500)))
    curve = conditional_pf_from_failure_samples(m, 0, v, 0.5)
    assert np.all(curve.pf_values <= 1.0)
    assert curve.clip_fraction > 0.0


def test_effective_sample_size():
    rng = np.random.default_rng(7)
    iid = rng.standard_normal(4000)
    assert effective_sample_size(iid) > 2500
    ar = np.empty(4000)
    ar[0] = 0.0
    for k in range(1, 4000):            # strongly autocorrelated chain
        ar[k] = 0.95 * ar[k - 1] + rng.standard_normal()
    assert effective_sample_size(ar) < 600


def test_effective_sample_size_of_step_major_chains():
    # 400 stationary AR(1) chains of 25 steps stacked as subset simulation
    # stacks them: row k * 400 + c is step k of chain c
    rng = np.random.default_rng(17)
    n_chains, steps, phi = 400, 25, 0.8
    x = np.empty((steps, n_chains))
    x[0] = rng.standard_normal(n_chains)
    for k in range(1, steps):
        x[k] = phi * x[k - 1] + math.sqrt(1 - phi * phi) * rng.standard_normal(n_chains)
    v = x.ravel()
    n = len(v)
    # adjacent rows come from different chains, so lag-1 sees no correlation
    assert effective_sample_size(v) > 0.9 * n
    expect = n * (1 - phi) / (1 + phi)
    assert 0.5 * expect < effective_sample_size(v, stride=n_chains) < 2 * expect


def _ess_unstrided(values):
    """Reference ESS over lags 1..199 of a single sequence (no stride)."""
    v = np.asarray(values, dtype=float)
    n = len(v)
    v = v - v.mean()
    var = float(v @ v) / n
    s = 0.0
    for lag in range(1, min(n - 1, 200)):
        rho = float(v[:-lag] @ v[lag:]) / ((n - lag) * var)
        if rho <= 0.05:
            break
        s += rho
    return n / (1.0 + 2.0 * s)


def _pipeline_config(base, overrides):
    raw = json.loads((ROOT / "configs" / base).read_text())
    raw.update(overrides)
    return config_mod.validate_config(raw)


def test_mc_ess_is_the_unstrided_estimate():
    cfg = _pipeline_config("example1_safety_dependent.json",
                           {"method": "mc", "n": 100_000, "seed": 3,
                            "grid_points": 64})
    res = pipeline.run_analysis(cfg)
    samples = crude_mc(cfg.joint, cfg.limit_state, cfg.n, cfg.seed).failure_samples
    for i, name in enumerate(cfg.names):
        assert res.curves[name].ess == _ess_unstrided(samples[:, i])


def test_subset_ess_sees_chain_correlation():
    cfg = _pipeline_config("example1_safety_dependent.json",
                           {"method": "subset", "n_per_level": 20_000,
                            "seed": 1})
    res = pipeline.run_analysis(cfg)
    for name, diag in res.diagnostics["kde_inputs"].items():
        assert diag["n_failure_samples"] == 20_000
        assert diag["ess"] < 10_000, name


def test_kde_curves_do_not_depend_on_threads():
    cfg = _pipeline_config("example1_safety_dependent.json",
                           {"method": "mc", "n": 100_000, "seed": 3})
    one = pipeline.run_analysis(cfg, threads=1)
    two = pipeline.run_analysis(cfg, threads=2)
    for name in cfg.names:
        assert one.curves[name].source == "kde"
        assert np.array_equal(one.curves[name].pf_values,
                              two.curves[name].pf_values)
        assert np.array_equal(one.curves[name].density_conditional,
                              two.curves[name].density_conditional)
    assert one.diagnostics["kde_inputs"] == two.diagnostics["kde_inputs"]


# pf, normalized EVPPI and pf curves of two seeded KDE runs, recorded with the
# windowed kernel sum and scipy's Phi^{-1} (ndtri), which places the curve grid
PINNED = json.loads((ROOT / "tests" / "data" / "kde_runs_pinned.json").read_text())


@pytest.mark.parametrize("run", PINNED, ids=[r["overrides"]["method"]
                                             for r in PINNED])
def test_kde_runs_reproduce_pinned_values(run):
    cfg = _pipeline_config(run["config"], run["overrides"])
    res = pipeline.run_analysis(cfg)
    assert res.pf == run["pf"]
    evppi = {e.name: e.normalized for e in res.safety_report.entries}
    assert evppi.keys() == run["evppi_normalized"].keys()
    for name, want in run["evppi_normalized"].items():
        assert evppi[name] == pytest.approx(want, rel=1e-12, abs=0.0)
    for name, want in run["pf_curves"].items():
        got = res.curves[name].pf_values
        want = np.asarray(want)
        assert np.array_equal(got == 0.0, want == 0.0)
        assert np.allclose(got, want, rtol=1e-12, atol=0.0)
    for name, diag in res.diagnostics["kde_inputs"].items():
        curve = res.curves[name]
        assert diag == {"n_failure_samples": curve.n_failure_samples,
                        "ess": curve.ess, "clip_fraction": curve.clip_fraction}



# example 2 (normal, Gumbel and Weibull inputs, Nataf-fitted copula) through
# mc and the physical-space KDE: method mc, n 2e5, seed 21, grid_points 128,
# recorded from the tree whose Weibull shape and copula correlations came from
# scipy's brentq (Weibull xtol 1e-13, Nataf xtol 1e-12, both rtol 8.9e-16).
# The full-precision bisection moves the fitted values by about 1e-14, so pf
# must be equal and the EVPPI and pf curves equal to rtol 1e-10.
COLUMN_PINNED = json.loads(
    (ROOT / "tests" / "data" / "column_mc_pinned.json").read_text())


def test_column_mc_reproduces_pinned_values():
    run = COLUMN_PINNED
    cfg = _pipeline_config(run["config"], run["overrides"])
    res = pipeline.run_analysis(cfg)
    assert res.pf == run["pf"]
    evppi = {e.name: e.normalized for e in res.safety_report.entries}
    assert evppi.keys() == run["evppi_normalized"].keys()
    for name, want in run["evppi_normalized"].items():
        assert evppi[name] == pytest.approx(want, rel=1e-10, abs=0.0)
    for name, want in run["pf_curves"].items():
        got = res.curves[name].pf_values
        want = np.asarray(want)
        assert np.array_equal(got == 0.0, want == 0.0)
        assert np.allclose(got, want, rtol=1e-10, atol=0.0)

def test_curve_csv(tmp_path, ex1_marginals):
    m = ex1_marginals[0]
    rng = np.random.default_rng(8)
    v = np.exp(m.params[0] + m.params[1] * (rng.standard_normal(400) - 1.0))
    curve = conditional_pf_from_failure_samples(m, 0, v, 0.01)
    path = tmp_path / "curve.csv"
    write_curve_csv(path, curve)
    data = np.genfromtxt(path, delimiter=",", names=True)
    assert data.dtype.names == ("x", "pf", "density_prior",
                                "density_conditional")
    assert np.array_equal(data["x"], curve.grid)
    assert np.array_equal(data["pf"], curve.pf_values)
