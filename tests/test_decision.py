import math
from dataclasses import replace

import numpy as np
import pytest

from relsens import (DesignDecision, SafetyDecision, crude_mc, cvppi_curve,
                     evpi_safety, evppi_design, evppi_form_safety,
                     evppi_safety, lognormal_linear_conditional_pf,
                     lognormal_linear_pf, normalize, prior_action,
                     prior_design, relativize, solve_form, threshold_sweep)
from relsens.condest import (ConditionalPfCurve,
                             conditional_pf_from_failure_samples,
                             curve_from_function, default_grid)
from relsens.decision import (DO_NOTHING, REPLACE, EvppiEntry, EvppiReport,
                              posterior_loss_curve)
from relsens.errors import ConfigError, DomainError
from relsens.form import conditional_pf_x
from conftest import BETA0_IND, PF_DEP, PF_IND

EXACT_EVPPI = np.array([349077.6, 454015.3, 130691.2, 349077.6])
CF = 1e8


def analytic_curve(problem, marginals, i, grid=None):
    pf = lognormal_linear_pf(problem)
    return curve_from_function(
        marginals[i], i,
        lambda x: lognormal_linear_conditional_pf(problem, i, x),
        pf, grid=grid)


def analytic_curves(problem, marginals, grid=None):
    return [analytic_curve(problem, marginals, i, grid)
            for i in range(len(marginals))]


def design_curves(problem, marginals, i, grid_a, x_grid=None):
    """One conditional curve per design value, for input i."""
    curves = []
    pf_list = []
    for a in grid_a:
        p = replace(problem, const_term=math.log(a))
        curves.append(analytic_curve(p, marginals, i, x_grid))
        pf_list.append(lognormal_linear_pf(p))
    return curves, np.asarray(pf_list)


# -- prior action and CVPPI -------------------------------------------------------

def test_prior_action_cases():
    d = SafetyDecision(c_f=1e8, c_r=1e6)
    assert prior_action(7.4e-3, d) == DO_NOTHING
    assert prior_action(d.ratio, d) == DO_NOTHING        # tie rule
    d2 = SafetyDecision(c_f=1e8, c_r=1e5)
    assert prior_action(1.7e-2, d2) == REPLACE
    with pytest.raises(DomainError):
        prior_action(1.2, d)


def test_cvppi_flat_curve_is_zero(ex1_marginals):
    m = ex1_marginals[0]
    grid = default_grid(m)
    curve = ConditionalPfCurve(0, grid, np.full(grid.size, PF_IND),
                               "analytic", PF_IND)
    d = SafetyDecision(c_f=1e8, c_r=1e6)
    assert np.all(cvppi_curve(curve, d) == 0.0)


def test_cvppi_nonzero_exactly_in_change_region(ex1_problem, ex1_marginals):
    curve = analytic_curve(ex1_problem, ex1_marginals, 0)
    d = SafetyDecision(c_f=1e8, c_r=1e6)
    values = cvppi_curve(curve, d)
    assert np.array_equal(values > 0, curve.pf_values > d.ratio)


def test_cvppi_zero_at_decision_boundary(ex1_marginals):
    m = ex1_marginals[0]
    grid = np.array([80.0, 90.0, 100.0])
    d = SafetyDecision(c_f=1e8, c_r=1e6)
    curve = ConditionalPfCurve(0, grid, np.array([0.5, d.ratio, 1e-4]),
                               "analytic", PF_IND)
    values = cvppi_curve(curve, d)
    assert values[1] == 0.0
    assert values[0] > 0.0


# -- EVPI --------------------------------------------------------------------------

def test_evpi_values():
    d = SafetyDecision(c_f=1e8, c_r=1e6)
    assert evpi_safety(7.4e-3, d) == pytest.approx(7.4e-3 * 9.9e7, rel=1e-12)
    assert evpi_safety(0.0, d) == 0.0
    d2 = SafetyDecision(c_f=1e8, c_r=1e5)
    assert evpi_safety(1.7e-2, d2) == pytest.approx(1e5 * (1 - 1.7e-2), rel=1e-12)


def test_evpi_dominates_evppi(ex1_problem, ex1_marginals):
    curves = analytic_curves(ex1_problem, ex1_marginals)
    for ratio in (1e-4, 1e-3, 1e-2, 0.1):
        d = SafetyDecision(c_f=CF, c_r=ratio * CF)
        evpi = evpi_safety(PF_IND, d)
        for curve, m in zip(curves, ex1_marginals):
            v = evppi_safety(curve, m, d)
            assert 0.0 <= v <= evpi * (1 + 1e-9)


# -- safety EVPPI: reference values ---------------------------------------------------

def test_safety_evppi_reference_values(ex1_problem, ex1_marginals):
    d = SafetyDecision(c_f=CF, c_r=1e6)
    curves = analytic_curves(ex1_problem, ex1_marginals)
    got = np.array([evppi_safety(c, m, d)
                    for c, m in zip(curves, ex1_marginals)])
    assert np.max(np.abs(got / EXACT_EVPPI - 1.0)) < 5e-3


def test_safety_evppi_table3_normalized(ex1_problem, ex1_marginals):
    names = ("R", "S", "XR", "XS")
    expect = {1e-3: (25.0, 49.0, 0.5, 25.0), 1e-2: (27.0, 35.0, 10.0, 27.0)}
    curves = analytic_curves(ex1_problem, ex1_marginals)
    for ratio, want in expect.items():
        d = SafetyDecision(c_f=CF, c_r=ratio * CF)
        entries = [EvppiEntry(n, evppi_safety(c, m, d))
                   for n, c, m in zip(names, curves, ex1_marginals)]
        report = normalize(EvppiReport(tuple(entries), method="analytic"))
        got = 100 * np.array([e.normalized for e in report.entries])
        assert np.max(np.abs(got - np.array(want))) < 1.5


def test_safety_evppi_table4_dependent_analytic(ex1_problem_dep,
                                                ex1_marginals):
    curves = analytic_curves(ex1_problem_dep, ex1_marginals)
    expect = {1e-3: (15.0, 61.0, 0.0, 24.0), 1e-2: (26.0, 41.0, 4.0, 29.0)}
    for ratio, want in expect.items():
        d = SafetyDecision(c_f=CF, c_r=ratio * CF)
        vals = np.array([evppi_safety(c, m, d)
                         for c, m in zip(curves, ex1_marginals)])
        got = 100 * vals / vals.sum()
        assert np.max(np.abs(got - np.array(want))) < 2.0


def test_safety_evppi_table4_dependent_mc_kde(ex1_joint_dep, ex1_lsf,
                                              ex1_marginals):
    mc = crude_mc(ex1_joint_dep, ex1_lsf, n=10**6, seed=88)
    d = SafetyDecision(c_f=CF, c_r=1e6)
    vals = []
    for i, m in enumerate(ex1_marginals):
        curve = conditional_pf_from_failure_samples(
            m, i, mc.failure_samples[:, i], mc.pf_hat)
        vals.append(evppi_safety(curve, m, d))
    got = 100 * np.array(vals) / np.sum(vals)
    assert np.max(np.abs(got - np.array([26.0, 41.0, 4.0, 29.0]))) < 2.0


def test_safety_evppi_closed_form_agreement(ex1_joint, ex1_lsf, ex1_marginals):
    # exact-in-U problem: quadrature over FORM curves must hit the closed form
    res = solve_form(ex1_joint, ex1_lsf)
    d = SafetyDecision(c_f=CF, c_r=1e6)
    for i, m in enumerate(ex1_marginals):
        grid = default_grid(m, n=65536, p_lo=1e-12)
        curve = curve_from_function(
            m, i, lambda x: conditional_pf_x(ex1_joint, i, x, res),
            PF_IND, grid, source="form")
        quadr = evppi_safety(curve, m, d)
        closed = evppi_form_safety(res.beta0, res.alpha[i], d.c_f, d.c_r)
        assert quadr == pytest.approx(closed, rel=1e-6)


def test_scaling_invariance(ex1_problem, ex1_marginals):
    curves = analytic_curves(ex1_problem, ex1_marginals)
    lam = 7.5
    d1 = SafetyDecision(c_f=CF, c_r=1e6)
    d2 = SafetyDecision(c_f=lam * CF, c_r=lam * 1e6)
    for curve, m in zip(curves, ex1_marginals):
        v1 = evppi_safety(curve, m, d1)
        v2 = evppi_safety(curve, m, d2)
        assert v2 == pytest.approx(lam * v1, rel=1e-12)
    assert evpi_safety(PF_IND, d2) == pytest.approx(
        lam * evpi_safety(PF_IND, d1), rel=1e-12)


# -- normalize / relativize ------------------------------------------------------------

def test_normalize_sums_to_one():
    report = EvppiReport((EvppiEntry("a", 3.0), EvppiEntry("b", 1.0)),
                         method="analytic")
    out = normalize(report)
    assert sum(e.normalized for e in out.entries) == pytest.approx(1.0,
                                                                   abs=1e-9)
    assert out.entries[0].normalized == pytest.approx(0.75)


def test_normalize_single_nonzero():
    report = EvppiReport((EvppiEntry("a", 0.0), EvppiEntry("b", 2.0)),
                         method="analytic")
    out = normalize(report)
    assert out.entries[1].normalized == 1.0


def test_normalize_all_zero_flagged():
    report = EvppiReport((EvppiEntry("a", 0.0),), method="analytic")
    out = normalize(report)
    assert out.diagnostics.get("normalized_undefined")


def test_relativize_bounds(ex1_problem, ex1_marginals):
    d = SafetyDecision(c_f=CF, c_r=1e6)
    curves = analytic_curves(ex1_problem, ex1_marginals)
    entries = tuple(EvppiEntry(str(i), evppi_safety(c, m, d))
                    for i, (c, m) in enumerate(zip(curves, ex1_marginals)))
    report = relativize(EvppiReport(entries, method="analytic"),
                        evpi_safety(PF_IND, d))
    for e in report.entries:
        assert 0.0 <= e.relative <= 1.0


# -- design case -------------------------------------------------------------------------

def test_prior_design_table2(ex1_problem, ex1_problem_dep):
    grid = np.linspace(0.5, 2.0, 151)
    cases = [(ex1_problem, 1e5, 1.57), (ex1_problem_dep, 1e5, 1.87),
             (ex1_problem, 1e6, 1.23), (ex1_problem_dep, 1e6, 1.41)]
    for problem, c_delta, expect in cases:
        d = DesignDecision(c_f=CF, cost_model=f"{c_delta}*a", grid=grid)
        pf_a = np.array([
            lognormal_linear_pf(replace(problem, const_term=math.log(a)))
            for a in grid])
        out = prior_design(pf_a, d)
        assert out["a_opt"] == pytest.approx(expect, abs=0.01)


def test_prior_design_tie_and_constant_pf():
    d = DesignDecision(c_f=1e6, cost_model="0*a + 5", grid=np.array([1.0, 2.0]))
    out = prior_design(np.array([0.5, 0.5]), d)
    assert out["a_opt"] == 1.0                    # tie -> smallest a
    d2 = DesignDecision(c_f=1e6, cost_model="a", grid=np.array([1.0, 2.0]))
    assert prior_design(np.array([1e-9, 1e-9]), d2)["a_opt"] == 1.0


def test_design_evppi_single_choice_is_zero(ex1_problem, ex1_marginals):
    d = DesignDecision(c_f=CF, cost_model="1e5*a", grid=np.array([1.57]))
    curves, pf_a = design_curves(ex1_problem, ex1_marginals, 1, d.grid)
    out = evppi_design(curves, pf_a, d, ex1_marginals[1])
    # residue bounded by the clipped tail mass of the default grid times c_f
    assert abs(out["raw"]) < 2e-6 * CF
    assert out["evppi"] < 2e-6 * CF


def test_design_evppi_table3_columns(ex1_problem, ex1_marginals):
    grid = np.linspace(0.5, 2.0, 151)
    expect = {1e5: (26.0, 41.0, 7.0, 26.0), 1e6: (26.0, 41.0, 6.0, 26.0)}
    for c_delta, want in expect.items():
        d = DesignDecision(c_f=CF, cost_model=f"{c_delta}*a", grid=grid)
        vals = []
        for i, m in enumerate(ex1_marginals):
            curves, pf_a = design_curves(ex1_problem, ex1_marginals, i, grid)
            vals.append(evppi_design(curves, pf_a, d, m)["evppi"])
        got = 100 * np.array(vals) / np.sum(vals)
        assert np.max(np.abs(got - np.array(want))) < 1.5


def test_design_evppi_discretization_table6(ex1_problem, ex1_marginals):
    expect = {3: (27.0, 36.0, 9.0, 27.0), 4: (26.0, 44.0, 5.0, 26.0),
              6: (26.0, 39.0, 8.0, 26.0)}
    for m_count, want in expect.items():
        grid = np.linspace(0.5, 2.0, m_count)
        d = DesignDecision(c_f=CF, cost_model="1e5*a", grid=grid)
        vals = []
        for i, marg in enumerate(ex1_marginals):
            curves, pf_a = design_curves(ex1_problem, ex1_marginals, i, grid)
            vals.append(evppi_design(curves, pf_a, d, marg)["evppi"])
        got = 100 * np.array(vals) / np.sum(vals)
        assert np.max(np.abs(got - np.array(want))) < 2.0


def test_posterior_loss_upper_bound(ex1_problem, ex1_marginals):
    # a coarse design set can never beat a finer superset, pointwise
    x_grid = default_grid(ex1_marginals[1])
    fine = np.linspace(0.5, 2.0, 151)
    coarse = np.linspace(0.5, 2.0, 4)
    assert set(np.round(coarse, 10)) <= set(np.round(fine, 10))
    d_f = DesignDecision(c_f=CF, cost_model="1e5*a", grid=fine)
    d_c = DesignDecision(c_f=CF, cost_model="1e5*a", grid=coarse)
    curves_f, _ = design_curves(ex1_problem, ex1_marginals, 1, fine, x_grid)
    curves_c, _ = design_curves(ex1_problem, ex1_marginals, 1, coarse, x_grid)
    loss_f = posterior_loss_curve(curves_f, d_f)
    loss_c = posterior_loss_curve(curves_c, d_c)
    assert np.all(loss_c >= loss_f - 1e-9)
    assert np.any(loss_c > loss_f + 1.0)


def test_design_refinement_bounds_and_convergence(ex1_problem, ex1_marginals):
    # under grid nesting ({3, 6} within 11 within 21) both loss terms are
    # monotone: a richer design set can only lower the prior loss and the
    # expected posterior loss. Their difference (the EVPPI) converges but
    # not monotonically, so only convergence is asserted for it.
    def terms(m_count, i=1):
        grid = np.linspace(0.5, 2.0, m_count)
        d = DesignDecision(c_f=CF, cost_model="1e5*a", grid=grid)
        curves, pf_a = design_curves(ex1_problem, ex1_marginals, i, grid)
        out = evppi_design(curves, pf_a, d, ex1_marginals[i])
        return out["prior_loss"], out["posterior_loss"], out["evppi"]

    res = {m: terms(m) for m in (3, 6, 11, 21, 151)}
    for chain in ((3, 11, 21), (6, 11, 21)):   # strict subset chains
        for coarse, fine in zip(chain, chain[1:]):
            assert res[coarse][0] >= res[fine][0] - 1e-9
            assert res[coarse][1] >= res[fine][1] - 1e-9
    ref = res[151][2]
    assert abs(res[21][2] - ref) < abs(res[3][2] - ref)
    assert abs(res[21][2] - ref) < 0.02 * ref


def test_design_evppi_negative_floor(ex1_marginals):
    m = ex1_marginals[0]
    grid_x = default_grid(m)
    d = DesignDecision(c_f=CF, cost_model="1e5*a", grid=np.array([1.0]))
    pf_a = np.array([1e-4])
    # conditional curve systematically above the unconditional pf: the
    # raw difference goes negative and must be floored, with a flag
    curve = ConditionalPfCurve(0, grid_x, np.full(grid_x.size, 2e-4),
                               "kde", 1e-4)
    out = evppi_design([curve], pf_a, d, m)
    assert out["raw"] < 0.0
    assert out["evppi"] == 0.0
    assert out["negative_clipped"]


def test_design_grid_mismatch_rejected(ex1_problem, ex1_marginals):
    d = DesignDecision(c_f=CF, cost_model="1e5*a", grid=np.array([1.0, 1.5]))
    c1 = analytic_curve(ex1_problem, ex1_marginals, 0)
    c2 = analytic_curve(ex1_problem, ex1_marginals, 0,
                        grid=np.linspace(50.0, 200.0, 100))
    with pytest.raises(ConfigError):
        evppi_design([c1, c2], np.array([1e-3, 1e-4]), d, ex1_marginals[0])



def test_design_grid_compared_unless_shared(ex1_problem, ex1_marginals):
    # curves on one grid array skip the value comparison; a distinct array
    # is still compared, so an equal-length grid with other values fails
    d = DesignDecision(c_f=CF, cost_model="1e5*a", grid=np.array([1.0, 1.5]))
    grid = default_grid(ex1_marginals[0], 64)
    shared = [analytic_curve(ex1_problem, ex1_marginals, 0, grid=grid)
              for _ in range(2)]
    assert shared[0].grid is shared[1].grid
    copied = [shared[0],
              analytic_curve(ex1_problem, ex1_marginals, 0, grid=grid.copy())]
    assert np.array_equal(posterior_loss_curve(shared, d),
                          posterior_loss_curve(copied, d))
    shifted = analytic_curve(ex1_problem, ex1_marginals, 0, grid=grid * 1.001)
    with pytest.raises(ConfigError, match="share one grid"):
        evppi_design([shared[0], shifted], np.array([1e-3, 1e-4]), d,
                     ex1_marginals[0])

# -- threshold sweep ------------------------------------------------------------------------

def test_threshold_sweep_peaks_near_pf(ex1_problem_dep, ex1_marginals):
    names = ("R", "S", "XR", "XS")
    curves = analytic_curves(ex1_problem_dep, ex1_marginals)
    ratios = np.geomspace(1e-5, 0.3, 40)
    rows = threshold_sweep(curves, ex1_marginals, names, CF, ratios, PF_DEP)
    nearest = ratios[np.argmin(np.abs(np.log(ratios) - np.log(PF_DEP)))]
    log_step = np.log(ratios[1] / ratios[0])
    for j, name in enumerate(names):
        absolute = np.array([r["report"].entries[j].absolute for r in rows])
        relative = np.array([r["report"].entries[j].relative for r in rows])
        assert ratios[np.argmax(relative)] == pytest.approx(nearest, rel=1e-12)
        # absolute peaks at the same ratio or an adjacent grid point
        gap = abs(np.log(ratios[np.argmax(absolute)]) - np.log(nearest))
        assert gap <= log_step * 1.0001


def test_threshold_sweep_vanishes_as_ratio_grows(ex1_problem, ex1_marginals):
    curves = analytic_curves(ex1_problem, ex1_marginals)
    rows = threshold_sweep(curves, ex1_marginals, ("R", "S", "XR", "XS"),
                           CF, [0.9], PF_IND)
    for e in rows[0]["report"].entries:
        assert e.absolute < 1e-3 * CF * PF_IND


def test_threshold_sweep_single_ratio_matches_direct(ex1_problem,
                                                     ex1_marginals):
    curves = analytic_curves(ex1_problem, ex1_marginals)
    rows = threshold_sweep(curves, ex1_marginals, ("R", "S", "XR", "XS"),
                           CF, [1e-2], PF_IND)
    d = SafetyDecision(c_f=CF, c_r=1e6)
    direct = [evppi_safety(c, m, d) for c, m in zip(curves, ex1_marginals)]
    got = [e.absolute for e in rows[0]["report"].entries]
    assert np.allclose(got, direct, rtol=1e-12)


def test_threshold_sweep_rejects_bad_grid(ex1_problem, ex1_marginals):
    curves = analytic_curves(ex1_problem, ex1_marginals)
    with pytest.raises(DomainError):
        threshold_sweep(curves, ex1_marginals, ("R", "S", "XR", "XS"),
                        CF, [0.5, 1.5], PF_IND)
