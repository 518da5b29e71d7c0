import json
import math
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings

from relsens import (ConditionalPfCurve, Marginal,
                     conditional_pf_from_failure_samples, crude_mc,
                     default_grid, kde_fit, lognormal_linear_conditional_pf,
                     std_normal_inv)
from relsens import cli, condest, config as config_mod, pipeline, sample
from relsens.condest import (BOX_WIDTH, NEAR_CUT, PAIR_CHUNK, SERIES_TERMS,
                             TRUNCATION_RTOL, KdeModel, effective_sample_size,
                             silverman_bandwidth)
from relsens.errors import DegenerateSampleError, DomainError
from conftest import PF_IND
from test_quantile import samples

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


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(v=samples())
def test_bandwidth_is_np_std_and_np_percentile_bit_for_bit(v):
    # the formula on numpy's own sd and quartiles; the quartiles come from
    # the sorted values, whether sorted here or passed in, and the sd from
    # the values in their own order
    sd = np.std(v, ddof=1)
    q75, q25 = np.percentile(v, [75, 25])
    iqr_spread = (q75 - q25) / 1.34
    spread = min(sd, iqr_spread) if iqr_spread > 0.0 else sd
    for ordered in (None, np.sort(v)):
        if spread <= 0.0:
            with pytest.raises(DegenerateSampleError):
                silverman_bandwidth(v, ordered)
        else:
            got = silverman_bandwidth(v, ordered)
            assert np.float64(got).tobytes() == np.float64(
                1.06 * spread * len(v) ** (-0.2)).tobytes()


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
    m = Marginal("normal", (0.0, 1.0))
    model = kde_fit(v, m)
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


def exact_density(values, h, t):
    """The kernel sum over every point, each term computed as the direct
    path computes it and the terms added exactly (math.fsum)."""
    v = np.asarray(values, dtype=float)
    scale = -0.5 / (h * h)
    with np.errstate(under="ignore"):
        sums = [math.fsum(np.exp((x - v) ** 2 * scale).tolist()) for x in t]
    return np.array(sums) / (len(v) * h * math.sqrt(2.0 * math.pi))


def nearest_distance(values, t):
    return np.array([np.abs(x - values).min() for x in t])


def own_boxes(values, h, t):
    """Boxes each target t takes, rebuilt from the box rule: the points fall
    into cells of width BOX_WIDTH h sqrt(2) on a grid from the smallest
    point, a box per occupied cell centred on it, and a target takes the
    boxes whose centres lie within its window reach,
    sqrt(d_min^2 + (c h)^2), plus half a box."""
    p = np.sort(values)
    width = BOX_WIDTH * h * math.sqrt(2.0)
    centres = p[0] + (np.unique(np.floor((p - p[0]) * (1.0 / width)))
                      + 0.5) * width
    c = math.sqrt(2.0 * math.log(len(p) / TRUNCATION_RTOL))
    reach = np.hypot(nearest_distance(p, t), c * h) + 0.5 * width
    return np.array([np.sum((centres >= x - r) & (centres <= x + r))
                     for x, r in zip(t, reach)], dtype=int)


def expected_terms(model, t):
    """kernel_terms of one density call: the tail targets' windows, then
    the n K box moments and K per near target's box if any target is near,
    or the near targets' windows where those hold fewer terms."""
    h = model.bandwidth
    s = h * math.sqrt(2.0)
    near = nearest_distance(model.points, t) <= NEAR_CUT * s
    lo, hi = model.windows(t)
    windows = hi - lo
    moments = len(model.points) if near.any() else 0
    boxes = int(own_boxes(model.points, h, t[near]).sum())
    series = SERIES_TERMS * (moments + boxes)
    return int(windows[~near].sum()) + min(series, int(windows[near].sum()))


@pytest.mark.parametrize("sample, core, series", [
    ("20", 151, False), ("3000", 151, True), ("20000", 51, True),
    ("100000", 51, True), ("two-cluster", 151, True),
    ("20000", 16, False), ("20000", 256, True),
    pytest.param("spike", 151, True, id="spike"),
    pytest.param("thin-spread", 151, False, id="thin-spread")])
def test_kernel_sum_matches_an_exact_direct_sum(sample, core, series):
    rng = np.random.default_rng(21)
    if sample == "two-cluster":
        v = np.r_[rng.normal(-20.0, 1.0, 1500), rng.normal(20.0, 0.5, 500)]
    elif sample == "spike":
        # 70 000 points within 0.01 at the right of a broad cluster: the tail
        # targets just right of it each reach more points than a pair chunk
        v = np.r_[rng.standard_normal(50_000), 5.0 + 0.01 * rng.random(70_000)]
    elif sample == "thin-spread":
        # 1200 points spread thinly far right of a cluster: over a thousand
        # boxes, most holding one point
        v = np.r_[rng.standard_normal(20_000), np.linspace(10.0, 1000.0, 1200)]
    else:
        v = rng.standard_normal(int(sample))
    model = kde_fit(v, Marginal("normal", (0.0, 1.0)))
    h = model.bandwidth
    s = h * math.sqrt(2.0)
    # the core of the data, a spread across the data and beyond it, both
    # sides of the near/tail cut at each end, tail targets either side of
    # the points, and the subnormal and zero far tail
    cut = NEAR_CUT * s * np.array([0.5, 0.99, 1.0 - 1e-12, 1.0 + 1e-12,
                                   1.01, 2.0])
    tails = np.array([4.0, 5.0]) * s
    t = np.sort(np.r_[np.linspace(*np.percentile(v, [5, 95]), core),
                      np.linspace(v.min() - 3.0, v.max() + 3.0, 41),
                      v.min() - cut, v.max() + cut, v.min() - tails,
                      v.max() + tails, far_points(v, h)])
    near = nearest_distance(v, t) <= NEAR_CUT * s
    assert near.sum() > 10 and (~near).sum() > 10
    got = model.density_transformed(t)
    assert model.kernel_terms == expected_terms(model, t)
    if sample == "spike":
        lo, hi = model.windows(v.max() + cut[-2:])
        assert (hi - lo).min() > PAIR_CHUNK
    # whether the series does less work than summing every window directly;
    # on 20 points, with few targets, or with most targets among thinly
    # spread points, the n K box moments and the boxes cost more
    lo, hi = model.windows(t)
    assert (model.kernel_terms < int((hi - lo).sum())) == series
    ref = exact_density(v, h, t)
    tiny = np.finfo(float).tiny
    assert np.any((ref > 0.0) & (ref < tiny))
    assert np.array_equal(got == 0.0, ref == 0.0)
    nz = ref != 0.0
    assert np.allclose(got[nz], ref[nz], rtol=1e-13, atol=0.0)


def test_tail_targets_either_side_of_the_points_never_share_a_block():
    # tail targets at both ends each sum only their own window: none pays
    # for the points between the ends, nor for box moments
    v = np.random.default_rng(22).standard_normal(3000)
    model = kde_fit(v, Marginal("normal", (0.0, 1.0)))
    s = model.bandwidth * math.sqrt(2.0)
    t = np.r_[v.min() - np.array([5.0, 4.0]) * s,
              v.max() + np.array([4.0, 5.0]) * s]
    got = model.density_transformed(t)
    lo, hi = model.windows(t)
    assert model.kernel_terms == int((hi - lo).sum()) < 3000
    assert np.allclose(got, exact_density(v, model.bandwidth, t),
                       rtol=1e-13, atol=0.0)


def test_a_short_grid_sums_its_near_targets_directly():
    # 16 grid targets over 20 000 points: their windows hold fewer terms
    # than the n K box moments alone, so they are summed directly, and the
    # values stay within rounding of the box series they took before
    v = np.random.default_rng(23).standard_normal(20_000)
    m = Marginal("normal", (0.0, 1.0))
    model = kde_fit(v, m)
    h = model.bandwidth
    t = default_grid(m, 16)
    got = model.density_transformed(t)
    lo, hi = model.windows(t)
    assert model.kernel_terms == int((hi - lo).sum()) < SERIES_TERMS * len(v)
    near = nearest_distance(v, t) <= NEAR_CUT * h * math.sqrt(2.0)
    assert near.sum() > 10
    c = math.sqrt(2.0 * math.log(len(v) / TRUNCATION_RTOL))
    series, terms = condest._series_pairs(
        model.points, h * math.sqrt(2.0), t[near],
        np.hypot(nearest_distance(v, t[near]), c * h), math.inf)
    assert terms + int((hi - lo)[~near].sum()) > model.kernel_terms
    norm = len(v) * h * math.sqrt(2.0 * math.pi)
    assert np.allclose(got[near], series / norm, rtol=1e-13, atol=0.0)
    assert np.allclose(got, exact_density(v, h, t), rtol=1e-13, atol=0.0)
    # the shipped 512-point grid keeps the series
    wide = KdeModel(points=model.points, bandwidth=h)
    t = default_grid(m, 512)
    wide.density_transformed(t)
    lo, hi = wide.windows(t)
    assert wide.kernel_terms == expected_terms(wide, t) < int((hi - lo).sum())


@pytest.mark.parametrize("others", ["none", "right-tail", "core"])
def test_a_nan_target_gives_nan_whatever_its_neighbours(others):
    v = np.random.default_rng(22).standard_normal(3000)
    model = kde_fit(v, Marginal("normal", (0.0, 1.0)))
    s = model.bandwidth * math.sqrt(2.0)
    t = {"none": [], "right-tail": [v.max() + 4.0 * s, v.max() + 5.0 * s],
         "core": [0.0]}[others]
    got = model.density_transformed(np.r_[t, math.nan])
    assert math.isnan(got[-1])
    assert np.allclose(got[:-1], exact_density(v, model.bandwidth, t),
                       rtol=1e-13, atol=0.0)


def test_empty_and_single_point_evaluation():
    v = np.random.default_rng(15).standard_normal(3000)
    m = Marginal("normal", (0.0, 1.0))
    model = kde_fit(v, m)
    empty = model.density_transformed(np.array([]))
    assert empty.shape == (0,)
    assert model.kernel_terms == 0
    for t in (0.3, v.max() + 38.2 * model.bandwidth, v.max() + 60.0):
        got = model.density_transformed(t)
        ref = direct_density(v, model.bandwidth, [t])
        assert got.shape == (1,)
        assert (got[0] == 0.0) == (ref[0] == 0.0)
        assert got[0] == pytest.approx(ref[0], rel=1e-13, abs=0.0)


def test_unsorted_points_evaluate_as_sorted_and_repeat_exactly():
    rng = np.random.default_rng(16)
    v = np.r_[rng.normal(-3.0, 1.0, 4000), rng.normal(4.0, 0.3, 1000)]
    m = Marginal("normal", (0.0, 1.0))
    model = kde_fit(v, m)
    t = np.r_[np.linspace(-12.0, 12.0, 700), far_points(v, model.bandwidth)]
    shuffled = rng.permutation(len(t))
    ref = model.density_transformed(t)
    # t is summed in sorted order, so a permutation changes no bit
    got = model.density_transformed(t[shuffled])
    assert np.array_equal(got, ref[shuffled])
    assert np.array_equal(got, model.density_transformed(t[shuffled]))


def test_kernel_blocks_stay_within_their_memory_budget():
    v = np.random.default_rng(18).standard_normal(20_000)
    m = Marginal("normal", (0.0, 1.0))
    model = kde_fit(v, m)
    t = np.linspace(-6.0, 6.0, 512)
    tracemalloc.start()
    try:
        model.density_transformed(t)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    # the full 512 x 20 000 kernel matrix would take 80 MiB
    assert peak < 1 << 20


def test_kde_density_unchanged_by_shuffling():
    m = Marginal("lognormal", (0.0, 0.5))
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
    m = Marginal("lognormal", (0.0, 0.5))
    v = np.exp(0.5 * np.random.default_rng(13).standard_normal(5000))
    model = kde_fit(v, m)
    z = m.to_standard_normal(v)
    assert np.array_equal(model.points, np.sort(z))
    assert model.bandwidth == silverman_bandwidth(z)


def test_kde_recovers_normal_density():
    rng = np.random.default_rng(1)
    v = rng.standard_normal(100_000)
    m = Marginal("normal", (0.0, 1.0))
    model = kde_fit(v, m)
    phi0 = 1.0 / math.sqrt(2 * math.pi)
    assert model.density_transformed(0.0)[0] == pytest.approx(phi0, rel=0.05)


def test_kde_two_cluster_symmetry():
    # on N(2, 1) the fit is at z = x - 2: clusters at z = -1 and +1
    m = Marginal("normal", (2.0, 1.0))
    v = np.array([1.0] * 10 + [3.0] * 10)
    model = kde_fit(v, m)
    x = np.linspace(0.0, 4.0, 41)
    d = model.density_transformed(x - 2.0)
    assert np.allclose(d, d[::-1], rtol=1e-12)


def test_kde_needs_enough_points():
    m = Marginal("normal", (0.0, 1.0))
    with pytest.raises(DomainError):
        kde_fit(np.ones(10), m)
    with pytest.raises(DegenerateSampleError):
        kde_fit(np.ones(50), m)


def _conditional_density(m, values, x):
    # f(x | F) of the z-space fit, as a curve reports it; it does not depend
    # on pf_hat
    return conditional_pf_from_failure_samples(
        m, values, 0.5, x).density_conditional


def test_transformed_kde_keeps_mass_inside_support():
    # lognormal support is (0, inf): the fit in z cannot leak mass, while
    # the same kernel fitted on the raw x values puts some of it below 0
    m = Marginal("lognormal", (0.0, 0.6))
    rng = np.random.default_rng(2)
    v = np.exp(0.6 * rng.standard_normal(2000))
    x = np.linspace(1e-6, 15.0, 20_001)
    assert np.trapezoid(_conditional_density(m, v, x), x) == pytest.approx(
        1.0, abs=1e-9)
    ident = KdeModel(points=v, bandwidth=silverman_bandwidth(v))
    assert np.all(ident.density_transformed(np.array([-0.1, -0.05])) > 0.0)
    assert np.trapezoid(ident.density_transformed(x), x) < 1.0 - 1e-3


def test_transformed_kde_density_integrates_to_one():
    m = Marginal("lognormal", (0.0, 0.5))
    rng = np.random.default_rng(3)
    v = np.exp(0.5 * rng.standard_normal(5000))
    x = np.linspace(1e-6, 15.0, 20_001)
    total = np.trapezoid(_conditional_density(m, v, x), x)
    assert total == pytest.approx(1.0, abs=1e-3)


def test_kde_on_short_column_failure_samples(ex2_mc, ex2_marginals):
    # failure pushes the bending moment above its prior mean
    m1_fail = ex2_mc.failure_samples[:, 0]
    grid = default_grid(ex2_marginals[0], 512)
    dens = _conditional_density(ex2_marginals[0], m1_fail, grid)
    kde_mean = np.trapezoid(grid * dens, grid)
    assert kde_mean > 250.0
    assert np.trapezoid(dens, grid) == pytest.approx(1.0, abs=5e-3)


# -- conditional pf curves ----------------------------------------------------------

def test_flat_curve_for_irrelevant_input():
    # failure samples distributed exactly like the prior: ratio is 1
    m = Marginal("lognormal", (1.0, 0.3))
    rng = np.random.default_rng(4)
    v = np.exp(1.0 + 0.3 * rng.standard_normal(20_000))
    # central 98%: enough local samples
    grid = np.linspace(m.from_standard_normal(std_normal_inv(0.01)),
                       m.from_standard_normal(std_normal_inv(1.0 - 0.01)), 512)
    curve = conditional_pf_from_failure_samples(m, v, 0.2, grid)
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
    curve = conditional_pf_from_failure_samples(m, fails[:, 0], PF_IND, grid)
    oracle = lognormal_linear_conditional_pf(ex1_problem, 0, grid)
    assert np.max(np.abs(curve.pf_values / oracle - 1.0)) < 0.30
    assert curve.source == "kde"


def test_law_of_total_probability_from_samples(ex1_joint, ex1_lsf,
                                               ex1_marginals):
    fails = draw_ex1_failures(ex1_joint, ex1_lsf, 2000, seed=57)
    for i, m in enumerate(ex1_marginals):
        curve = conditional_pf_from_failure_samples(m, fails[:, i], PF_IND,
                                                    default_grid(m, 512))
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
            curve = conditional_pf_from_failure_samples(m, fails[:, 1],
                                                        PF_IND, grid)
            errs.append(np.trapezoid(np.abs(curve.pf_values - oracle) * w,
                                     grid))
        medians.append(np.median(errs))
    assert medians[0] > medians[1] > medians[2]


def test_curve_validation():
    m = Marginal("lognormal", (0.0, 0.3))
    v = np.exp(0.3 * np.random.default_rng(5).standard_normal(100))
    for pf_hat in (0.0, -0.1, 1.0 + 1e-12, math.nan):
        with pytest.raises(DomainError, match=r"pf_hat must lie in \(0, 1\]"):
            conditional_pf_from_failure_samples(m, v, pf_hat,
                                                default_grid(m, 512))
    with pytest.raises(DomainError):
        conditional_pf_from_failure_samples(m, v, 0.5, np.array([2.0, 1.0]))


@pytest.mark.parametrize("grid", [[0.0, math.nan, 1.0], [0.0, 1.0, 0.5]],
                         ids=["nan", "unsorted"])
def test_curve_rejects_a_grid_that_is_not_strictly_increasing(grid):
    with pytest.raises(DomainError, match="strictly increasing"):
        ConditionalPfCurve(grid, np.full(3, 0.1), "analytic", 0.1,
                           np.ones(3))


def test_every_sample_failing_gives_the_exact_flat_curve():
    # pf_hat = 1: f(x | F) = f(x), so pf(x_i) = 1 with no density fit; five
    # values are too few for one
    m = Marginal("lognormal", (0.0, 0.3))
    v = np.exp(0.3 * np.random.default_rng(8).standard_normal(5))
    curve = conditional_pf_from_failure_samples(m, v, 1.0, default_grid(m, 64))
    assert np.array_equal(curve.pf_values, np.ones(64))
    assert np.array_equal(curve.density_conditional, curve.density_prior)
    assert curve.density_prior.min() > 0.0
    assert (curve.kernel_terms, curve.clip_fraction,
            curve.source) == (0, 0.0, "kde")


def test_clip_fraction_reported():
    m = Marginal("lognormal", (0.0, 0.3))
    # all failure mass far in the tail: the ratio overshoots 1 somewhere
    v = np.exp(0.3 * (3.5 + 0.1 * np.random.default_rng(6).standard_normal(500)))
    curve = conditional_pf_from_failure_samples(m, v, 0.5, default_grid(m, 512))
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


def test_mc_run_states_no_autocorrelation_ess():
    # crude MC's failure rows are independent draws, so a row's ESS is its
    # n_failure_samples, which the run states once
    cfg = _pipeline_config("example1_safety_dependent.json",
                           {"method": "mc", "n": 100_000, "seed": 3,
                            "grid_points": 64})
    res = pipeline.run_analysis(cfg)
    samples = crude_mc(cfg.joint, cfg.limit_state, cfg.n, cfg.seed).failure_samples
    assert res.diagnostics["n_failure_samples"] == len(samples)
    assert "ess" not in res.diagnostics
    for diag in res.diagnostics["kde_inputs"].values():
        assert set(diag) == {"clip_fraction", "kernel_terms"}
    for i in range(len(cfg.names)):
        assert effective_sample_size(samples[:, i]) == _ess_unstrided(samples[:, i])


def test_subset_ess_sees_chain_correlation():
    cfg = _pipeline_config("example1_safety_dependent.json",
                           {"method": "subset", "n_per_level": 20_000,
                            "seed": 1})
    res = pipeline.run_analysis(cfg)
    ss = sample.subset_simulation(cfg.joint, cfg.limit_state, cfg.n_per_level,
                                  cfg.p0, cfg.seed)
    x = ss.last_level_samples
    assert res.diagnostics["n_failure_samples"] == len(x) == 20_000
    assert list(res.diagnostics["ess"]) == list(cfg.names)
    for i, name in enumerate(cfg.names):
        ess = res.diagnostics["ess"][name]
        assert ess == effective_sample_size(x[:, i], stride=ss.n_chains)
        assert ess < 10_000, name
    for diag in res.diagnostics["kde_inputs"].values():
        assert set(diag) == {"clip_fraction", "kernel_terms"}


def test_kernel_terms_count_the_block_sums():
    # the benchmark's dependent-subset workload at seed 1: each curve's count
    # is exactly its tail windows, n K box moments and K per near target's box
    cfg = _pipeline_config("example1_safety_dependent.json",
                           {"method": "subset", "n_per_level": 20_000,
                            "seed": 1})
    res = pipeline.run_analysis(cfg)
    samples = sample.subset_simulation(cfg.joint, cfg.limit_state,
                                       cfg.n_per_level, cfg.p0,
                                       cfg.seed).last_level_samples
    total = all_direct = 0
    for i, (name, m) in enumerate(zip(cfg.names, cfg.marginals)):
        model = kde_fit(samples[:, i], m)
        t = m.to_standard_normal(res.curves[name].grid)
        terms = res.diagnostics["kde_inputs"][name]["kernel_terms"]
        assert terms == res.curves[name].kernel_terms
        assert terms == expected_terms(model, t), name
        total += terms
        lo, hi = model.windows(t)
        all_direct += int((hi - lo).sum())
    # summing every target directly over its window would take over twice
    # the work
    assert total < 0.5 * all_direct


def test_kde_curves_do_not_depend_on_threads(tmp_path, monkeypatch):
    raw = json.loads((ROOT / "configs" / "example1_safety_dependent.json")
                     .read_text())
    cfg_path = tmp_path / "mc.json"
    # five crude-MC chunks, the last one ragged
    cfg_path.write_text(json.dumps(dict(raw, method="mc", n=230_017, seed=3)))
    outs = []
    for cpus, threads in ((1, "2"), (4, "1")):
        monkeypatch.setattr(sample, "_available_cpus", lambda: cpus)
        out = tmp_path / f"cpus{cpus}"
        assert cli.main(["run", str(cfg_path), "--out", str(out),
                         "--threads", threads]) == 0
        outs.append(out)
    names = sorted(p.name for p in outs[0].glob("*.csv"))
    assert names == sorted(p.name for p in outs[1].glob("*.csv"))
    assert len(names) == 9
    for name in names:
        assert (outs[0] / name).read_bytes() == (outs[1] / name).read_bytes()
    reports = [json.loads((out / "report.json").read_text()) for out in outs]
    assert [r["diagnostics"]["workers"] for r in reports] == [1, 4]
    kde_inputs = [r["diagnostics"]["kde_inputs"] for r in reports]
    assert kde_inputs[0] == kde_inputs[1]


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
        assert diag == {"clip_fraction": curve.clip_fraction,
                        "kernel_terms": curve.kernel_terms}



# example 2 (normal, Gumbel and Weibull inputs, Nataf-fitted copula) through
# mc and the KDE in z space: method mc, n 2e5, seed 21, grid_points 128. pf
# and the M1 and M2 curves were recorded from the tree whose Weibull shape and
# copula correlations came from scipy's brentq (Weibull xtol 1e-13, Nataf
# xtol 1e-12, both rtol 8.9e-16); M1 and M2 are normal, so their z map is
# affine and a fit in x gave the same curves. The P and Y curves and the
# normalized EVPPI were recorded with the bisection and the z-space fit. The
# full-precision bisection moves the fitted values by about 1e-14, so pf must
# be equal and the EVPPI and pf curves equal to rtol 1e-10.
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


def test_curve_csv(tmp_path):
    raw = json.loads((ROOT / "configs" / "example1_safety.json").read_text())
    raw.update(method="mc", n=50_000, seed=8, grid_points=64)
    cfg_path = tmp_path / "mc.json"
    cfg_path.write_text(json.dumps(raw))
    out = tmp_path / "run"
    assert cli.main(["run", str(cfg_path), "--out", str(out)]) == 0
    curve = pipeline.run_analysis(config_mod.validate_config(raw)).curves["R"]
    data = np.genfromtxt(out / "pf_curve_R.csv", delimiter=",", names=True)
    assert data.dtype.names == ("x", "pf", "density_prior",
                                "density_conditional")
    assert np.array_equal(data["x"], curve.grid)
    assert np.array_equal(data["pf"], curve.pf_values)
