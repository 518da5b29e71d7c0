import math

import numpy as np
import pytest

from relsens import (LimitState, crude_mc, evaluate, lognormal_linear_pf,
                     subset_simulation)
from relsens.errors import DomainError, StagnationError
from conftest import PF_IND


A_HALF = math.exp(-0.9416278773557891)       # design factor giving pf = 1/2
A_RARE = 1.4363                              # design factor giving pf ~ 3.7e-4


def _pf_design(ex1_problem, a):
    from dataclasses import replace
    return lognormal_linear_pf(replace(ex1_problem, const_term=math.log(a)))


# -- crude Monte Carlo ---------------------------------------------------------

def test_mc_reproducible_bitwise(ex1_joint, ex1_lsf):
    r1 = crude_mc(ex1_joint, ex1_lsf, n=50_000, seed=77)
    r2 = crude_mc(ex1_joint, ex1_lsf, n=50_000, seed=77)
    assert r1.pf_hat == r2.pf_hat
    assert np.array_equal(r1.failure_samples, r2.failure_samples)
    r3 = crude_mc(ex1_joint, ex1_lsf, n=50_000, seed=78)
    assert r3.pf_hat != r1.pf_hat


def test_mc_certain_failure(ex1_joint):
    always = LimitState.from_expression("0*R - 1", ("R", "S", "XR", "XS"))
    res = crude_mc(ex1_joint, always, n=500, seed=1)
    assert res.pf_hat == 1.0
    assert res.failure_samples.shape == (500, 4)
    assert res.ci95 == (1.0, 1.0)


def test_mc_failure_rows_are_failures(ex1_joint, ex1_lsf):
    res = crude_mc(ex1_joint, ex1_lsf, n=300_000, seed=5)
    g = evaluate(ex1_lsf, res.failure_samples)
    assert np.all(g <= 0.0)
    assert len(res.failure_samples) == round(res.pf_hat * res.n)


def test_mc_example1_value(ex1_joint, ex1_lsf):
    res = crude_mc(ex1_joint, ex1_lsf, n=10**6, seed=123)
    se = math.sqrt(PF_IND * (1 - PF_IND) / 10**6)
    assert abs(res.pf_hat - PF_IND) < 3 * se
    assert res.ci95[0] < PF_IND < res.ci95[1]


def test_mc_example2_value(ex2_mc):
    assert 0.0092 <= ex2_mc.pf_hat <= 0.0096
    assert len(ex2_mc.failure_samples) == round(ex2_mc.pf_hat * 10**6)


def test_mc_ci_coverage(ex1_joint, ex1_lsf):
    hits = 0
    for seed in range(200):
        res = crude_mc(ex1_joint, ex1_lsf, n=100_000, seed=10_000 + seed)
        hits += res.ci95[0] <= PF_IND <= res.ci95[1]
    assert hits >= 180           # nominal 95%, required >= 90%


# -- subset simulation ------------------------------------------------------------

def test_subset_single_level_case(ex1_joint, ex1_design_lsf, ex1_problem):
    pf_true = _pf_design(ex1_problem, A_HALF)
    assert pf_true == pytest.approx(0.5, abs=1e-12)
    res = subset_simulation(ex1_joint, ex1_design_lsf, n_per_level=2000,
                            p0=0.1, seed=42, a=A_HALF)
    assert len(res.levels) == 1
    assert res.levels[0][0] == 0.0
    assert res.pf_hat == pytest.approx(0.5, abs=0.05)
    assert res.correlated


def test_subset_result_invariants(ex1_joint, ex1_lsf):
    res = subset_simulation(ex1_joint, ex1_lsf, n_per_level=2000, p0=0.1,
                            seed=3)
    probs = [p for _, p in res.levels]
    assert res.pf_hat == pytest.approx(float(np.prod(probs)), rel=1e-12)
    assert all(0.0 < p <= 1.0 for p in probs)
    thresholds = [t for t, _ in res.levels]
    assert all(t2 < t1 for t1, t2 in zip(thresholds, thresholds[1:]))
    assert res.last_level_samples.shape == (2000, 4)
    g = evaluate(ex1_lsf, res.last_level_samples)
    assert np.all(g <= 0.0)


def test_subset_failure_samples_are_step_major_chains(ex1_joint, ex1_lsf):
    # a chain's next state lies n_chains rows later: it repeats the current
    # state exactly when the move was rejected; adjacent rows belong to
    # different chains and coincide only where two chains share a seed
    res = subset_simulation(ex1_joint, ex1_lsf, n_per_level=2000, p0=0.1,
                            seed=3)
    x = res.last_level_samples
    k = res.n_chains
    assert 1 < k < len(x)
    repeat = np.mean(np.all(x[k:] == x[:-k], axis=1))
    assert 0.2 < repeat < 0.9
    assert np.mean(np.all(x[1:] == x[:-1], axis=1)) < 0.01


def test_subset_reproducible(ex1_joint, ex1_lsf):
    a = subset_simulation(ex1_joint, ex1_lsf, n_per_level=1000, p0=0.1, seed=9)
    b = subset_simulation(ex1_joint, ex1_lsf, n_per_level=1000, p0=0.1, seed=9)
    assert a.pf_hat == b.pf_hat
    assert np.array_equal(a.last_level_samples, b.last_level_samples)


def test_subset_within_three_cov_of_analytic(ex1_joint, ex1_lsf):
    est = np.array([
        subset_simulation(ex1_joint, ex1_lsf, n_per_level=2000, p0=0.1,
                          seed=100 + k).pf_hat
        for k in range(20)])
    cov = est.std(ddof=1) / est.mean()
    assert np.all(np.abs(est / PF_IND - 1.0) <= 3.0 * cov)


def test_subset_mean_and_cov_at_rare_level(ex1_joint, ex1_design_lsf,
                                           ex1_problem):
    pf_true = _pf_design(ex1_problem, A_RARE)
    assert pf_true == pytest.approx(3.7e-4, rel=2e-2)
    est = np.array([
        subset_simulation(ex1_joint, ex1_design_lsf, n_per_level=10_000,
                          p0=0.1, seed=5000 + k, a=A_RARE).pf_hat
        for k in range(100)])
    assert abs(est.mean() / pf_true - 1.0) < 0.10
    assert est.std(ddof=1) / est.mean() <= 0.15


def test_subset_unbiased_at_component_level(ex1_joint, ex1_lsf):
    est = np.array([
        subset_simulation(ex1_joint, ex1_lsf, n_per_level=2000, p0=0.1,
                          seed=7000 + k).pf_hat
        for k in range(100)])
    assert abs(est.mean() / PF_IND - 1.0) < 0.10


def test_subset_parameter_validation(ex1_joint, ex1_lsf):
    with pytest.raises(DomainError):
        subset_simulation(ex1_joint, ex1_lsf, n_per_level=50, p0=0.1, seed=0)
    with pytest.raises(DomainError):
        subset_simulation(ex1_joint, ex1_lsf, n_per_level=1000, p0=1.2, seed=0)


def test_subset_stagnation_detected(ex1_joint):
    stuck = LimitState.from_expression("0*R + 1", ("R", "S", "XR", "XS"))
    with pytest.raises(StagnationError):
        subset_simulation(ex1_joint, stuck, n_per_level=500, p0=0.1, seed=0)
