import math
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

from relsens import (DesignDecision, SafetyDecision, crude_mc, cvppi_curve,
                     evpi_safety, evppi_design, evppi_form_safety,
                     evppi_report, evppi_safety, lsf,
                     lognormal_linear_conditional_pf,
                     pipeline, prior_choice, prior_design, solve_form,
                     std_normal_inv, threshold_sweep)
from relsens.condest import (ConditionalPfCurve,
                             conditional_pf_from_failure_samples,
                             curve_from_function, default_grid)
from relsens.config import load_config
from relsens.decision import posterior_loss_curve
from relsens.errors import ConfigError, DomainError, UnknownIdentifierError
from relsens.form import conditional_pf_x, copula_rho
from conftest import (BETA0_IND, CONFIG_DIR, PF_DEP, PF_IND,
                      lognormal_linear_pf)

EXACT_EVPPI = np.array([349077.6, 454015.3, 130691.2, 349077.6])
CF = 1e8


def analytic_curve(problem, marginals, i, grid=None):
    pf = lognormal_linear_pf(problem)
    if grid is None:
        grid = default_grid(marginals[i], 512)
    return curve_from_function(
        marginals[i], lognormal_linear_conditional_pf(problem, i, grid),
        pf, grid)


def analytic_curves(problem, marginals, grid=None):
    return [analytic_curve(problem, marginals, i, grid)
            for i in range(len(marginals))]


def design_curves(problem, marginals, i, grid_a, x_grid=None):
    """Input i's reference curve (its grid and prior density), its
    conditional pf values with a row per design value, and the pf of every
    design."""
    curves = [analytic_curve(replace(problem, const_term=math.log(a)),
                             marginals, i, x_grid) for a in grid_a]
    return (curves[0], np.vstack([c.pf_values for c in curves]),
            np.array([c.pf_uncond for c in curves]))


# -- prior action and CVPPI -------------------------------------------------------

def test_prior_action_cases():
    # the safety decision's actions: 0 does nothing, 1 replaces
    d = SafetyDecision(c_f=1e8, c_r=1e6)
    assert prior_choice(d.failure_rows(7.4e-3), d) == (0, 7.4e-3 * 1e8)
    tie = d.c_r / d.c_f
    assert prior_choice(d.failure_rows(tie), d)[0] == 0    # tie rule
    d2 = SafetyDecision(c_f=1e8, c_r=1e5)
    assert prior_choice(d2.failure_rows(1.7e-2), d2) == (1, 1e5)
    for pf in (1.2, -1e-3, math.nan):
        with pytest.raises(DomainError, match=r"pf must lie in \[0, 1\]"):
            prior_choice(d.failure_rows(pf), d)


def test_cvppi_flat_curve_is_zero(ex1_marginals):
    m = ex1_marginals[0]
    grid = default_grid(m, 512)
    curve = ConditionalPfCurve(grid, np.full(grid.size, PF_IND),
                               "analytic", PF_IND, m.pdf(grid))
    d = SafetyDecision(c_f=1e8, c_r=1e6)
    assert np.all(cvppi_curve(curve, d) == 0.0)


def test_cvppi_nonzero_exactly_in_change_region(ex1_problem, ex1_marginals):
    curve = analytic_curve(ex1_problem, ex1_marginals, 0)
    d = SafetyDecision(c_f=1e8, c_r=1e6)
    values = cvppi_curve(curve, d)
    assert np.array_equal(values > 0, curve.pf_values > d.c_r / d.c_f)


def test_cvppi_zero_at_decision_boundary(ex1_marginals):
    m = ex1_marginals[0]
    grid = np.array([80.0, 90.0, 100.0])
    d = SafetyDecision(c_f=1e8, c_r=1e6)
    curve = ConditionalPfCurve(grid, np.array([0.5, d.c_r / d.c_f, 1e-4]),
                               "analytic", PF_IND, m.pdf(grid))
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
    # at pf = Phi(8) the rounded 1 - pf is 7% above Phi(-8): beta keeps it
    d3 = SafetyDecision(c_f=1.0, c_r=0.5)
    pf = math.erfc(-8.0 / math.sqrt(2.0)) / 2.0
    survival = math.erfc(8.0 / math.sqrt(2.0)) / 2.0
    assert evpi_safety(pf, d3, beta=-8.0) == pytest.approx(0.5 * survival,
                                                           rel=1e-14)


def test_evpi_dominates_evppi(ex1_problem, ex1_marginals):
    curves = analytic_curves(ex1_problem, ex1_marginals)
    for ratio in (1e-4, 1e-3, 1e-2, 0.1):
        d = SafetyDecision(c_f=CF, c_r=ratio * CF)
        evpi = evpi_safety(PF_IND, d)
        for curve in curves:
            v = evppi_safety(curve, d)
            assert 0.0 <= v <= evpi * (1 + 1e-9)


# -- safety EVPPI: reference values ---------------------------------------------------

def test_safety_evppi_reference_values(ex1_problem, ex1_marginals):
    d = SafetyDecision(c_f=CF, c_r=1e6)
    curves = analytic_curves(ex1_problem, ex1_marginals)
    got = np.array([evppi_safety(c, d) for c in curves])
    assert np.max(np.abs(got / EXACT_EVPPI - 1.0)) < 5e-3


def test_safety_evppi_table3_normalized(ex1_problem, ex1_marginals):
    names = ("R", "S", "XR", "XS")
    expect = {1e-3: (25.0, 49.0, 0.5, 25.0), 1e-2: (27.0, 35.0, 10.0, 27.0)}
    curves = analytic_curves(ex1_problem, ex1_marginals)
    for ratio, want in expect.items():
        d = SafetyDecision(c_f=CF, c_r=ratio * CF)
        report = evppi_report(names, [evppi_safety(c, d) for c in curves],
                              method="analytic")
        got = 100 * np.array([e.normalized for e in report.entries])
        assert np.max(np.abs(got - np.array(want))) < 1.5


def test_safety_evppi_table4_dependent_analytic(ex1_problem_dep,
                                                ex1_marginals):
    curves = analytic_curves(ex1_problem_dep, ex1_marginals)
    expect = {1e-3: (15.0, 61.0, 0.0, 24.0), 1e-2: (26.0, 41.0, 4.0, 29.0)}
    for ratio, want in expect.items():
        d = SafetyDecision(c_f=CF, c_r=ratio * CF)
        vals = np.array([evppi_safety(c, d) for c in curves])
        got = 100 * vals / vals.sum()
        assert np.max(np.abs(got - np.array(want))) < 2.0


def test_safety_evppi_table4_dependent_mc_kde(ex1_joint_dep, ex1_lsf,
                                              ex1_marginals):
    mc = crude_mc(ex1_joint_dep, ex1_lsf, n=10**6, seed=88)
    d = SafetyDecision(c_f=CF, c_r=1e6)
    vals = []
    for i, m in enumerate(ex1_marginals):
        curve = conditional_pf_from_failure_samples(
            m, mc.failure_samples[:, i], mc.pf_hat[0], default_grid(m, 512))
        vals.append(evppi_safety(curve, d))
    got = 100 * np.array(vals) / np.sum(vals)
    assert np.max(np.abs(got - np.array([26.0, 41.0, 4.0, 29.0]))) < 2.0


def test_safety_evppi_closed_form_agreement(ex1_joint, ex1_joint_dep, ex1_lsf,
                                            ex1_marginals):
    # exact-in-U problem: quadrature over FORM curves must hit the closed form
    # at the correlation rho_i = (L alpha)_i of z_i with the linear margin
    d = SafetyDecision(c_f=CF, c_r=1e6)
    for joint, pf in ((ex1_joint, PF_IND), (ex1_joint_dep, PF_DEP)):
        res = solve_form(joint, ex1_lsf)
        for i, m in enumerate(ex1_marginals):
            grid = np.linspace(
                m.from_standard_normal(std_normal_inv(1e-12)),
                m.from_standard_normal(std_normal_inv(1.0 - 1e-12)), 65536)
            curve = curve_from_function(
                m, conditional_pf_x(joint, i, grid, res.beta0,
                                    copula_rho(joint, res))[0],
                pf, grid, source="form")
            quadr = evppi_safety(curve, d)
            rho_i = float(res.alpha[0] @ joint.chol_z[i])
            closed = evppi_form_safety(res.beta0[0], rho_i, d.c_f, d.c_r)
            assert quadr == pytest.approx(closed, rel=1e-6)


def test_scaling_invariance(ex1_problem, ex1_marginals):
    curves = analytic_curves(ex1_problem, ex1_marginals)
    lam = 7.5
    d1 = SafetyDecision(c_f=CF, c_r=1e6)
    d2 = SafetyDecision(c_f=lam * CF, c_r=lam * 1e6)
    for curve in curves:
        v1 = evppi_safety(curve, d1)
        v2 = evppi_safety(curve, d2)
        assert v2 == pytest.approx(lam * v1, rel=1e-12)
    assert evpi_safety(PF_IND, d2) == pytest.approx(
        lam * evpi_safety(PF_IND, d1), rel=1e-12)


# -- report shares -----------------------------------------------------------------------

def test_normalize_sums_to_one():
    out = evppi_report(("a", "b"), (3.0, 1.0), method="analytic")
    assert sum(e.normalized for e in out.entries) == pytest.approx(1.0,
                                                                   abs=1e-9)
    assert out.entries[0].normalized == pytest.approx(0.75)


def test_normalize_single_nonzero():
    out = evppi_report(("a", "b"), (0.0, 2.0), method="analytic")
    assert out.entries[1].normalized == 1.0


def test_normalize_all_zero_flagged():
    out = evppi_report(("a",), (0.0,), method="analytic")
    assert math.isnan(out.entries[0].normalized)


def test_relativize_bounds(ex1_problem, ex1_marginals):
    d = SafetyDecision(c_f=CF, c_r=1e6)
    curves = analytic_curves(ex1_problem, ex1_marginals)
    report = evppi_report([str(i) for i in range(len(curves))],
                          [evppi_safety(c, d) for c in curves],
                          method="analytic", evpi=evpi_safety(PF_IND, d))
    for e in report.entries:
        assert 0.0 <= e.relative <= 1.0


def test_evppi_report_relative_share_needs_a_nonnegative_evpi():
    names, values = ("a", "b"), (3.0, 1.0)
    out = evppi_report(names, values, method="analytic")
    assert math.isnan(out.evpi)
    assert all(math.isnan(e.relative) for e in out.entries)
    out = evppi_report(names, values, method="analytic", evpi=0.0)
    assert out.evpi == 0.0
    assert [e.relative for e in out.entries] == [0.0, 0.0]
    out = evppi_report(names, values, method="analytic", evpi=4.0)
    assert [e.relative for e in out.entries] == [0.75, 0.25]
    with pytest.raises(DomainError, match="nonnegative"):
        evppi_report(names, values, method="analytic", evpi=-1.0)


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
    curve, rows, pf_a = design_curves(ex1_problem, ex1_marginals, 1, d.grid)
    out = evppi_design(curve, rows, pf_a, d)
    # residue bounded by the clipped tail mass of the default grid times c_f
    assert abs(out["raw"]) < 2e-6 * CF
    assert out["evppi"] < 2e-6 * CF


def test_design_evppi_table3_columns(ex1_problem, ex1_marginals):
    grid = np.linspace(0.5, 2.0, 151)
    expect = {1e5: (26.0, 41.0, 7.0, 26.0), 1e6: (26.0, 41.0, 6.0, 26.0)}
    for c_delta, want in expect.items():
        d = DesignDecision(c_f=CF, cost_model=f"{c_delta}*a", grid=grid)
        vals = []
        for i in range(len(ex1_marginals)):
            curve, rows, pf_a = design_curves(ex1_problem, ex1_marginals,
                                              i, grid)
            vals.append(evppi_design(curve, rows, pf_a, d)["evppi"])
        got = 100 * np.array(vals) / np.sum(vals)
        assert np.max(np.abs(got - np.array(want))) < 1.5


def test_design_evppi_discretization_table6(ex1_problem, ex1_marginals):
    expect = {3: (27.0, 36.0, 9.0, 27.0), 4: (26.0, 44.0, 5.0, 26.0),
              6: (26.0, 39.0, 8.0, 26.0)}
    for m_count, want in expect.items():
        grid = np.linspace(0.5, 2.0, m_count)
        d = DesignDecision(c_f=CF, cost_model="1e5*a", grid=grid)
        vals = []
        for i in range(len(ex1_marginals)):
            curve, rows, pf_a = design_curves(ex1_problem, ex1_marginals,
                                              i, grid)
            vals.append(evppi_design(curve, rows, pf_a, d)["evppi"])
        got = 100 * np.array(vals) / np.sum(vals)
        assert np.max(np.abs(got - np.array(want))) < 2.0


def test_posterior_loss_upper_bound(ex1_problem, ex1_marginals):
    # a coarse design set can never beat a finer superset, pointwise
    x_grid = default_grid(ex1_marginals[1], 512)
    fine = np.linspace(0.5, 2.0, 151)
    coarse = np.linspace(0.5, 2.0, 4)
    assert set(np.round(coarse, 10)) <= set(np.round(fine, 10))
    d_f = DesignDecision(c_f=CF, cost_model="1e5*a", grid=fine)
    d_c = DesignDecision(c_f=CF, cost_model="1e5*a", grid=coarse)
    _, rows_f, _ = design_curves(ex1_problem, ex1_marginals, 1, fine, x_grid)
    _, rows_c, _ = design_curves(ex1_problem, ex1_marginals, 1, coarse, x_grid)
    loss_f = posterior_loss_curve(rows_f, d_f)
    loss_c = posterior_loss_curve(rows_c, d_c)
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
        curve, rows, pf_a = design_curves(ex1_problem, ex1_marginals, i, grid)
        out = evppi_design(curve, rows, pf_a, d)
        return out["prior_loss"], out["posterior_loss"], out["evppi"]

    res = {m: terms(m) for m in (3, 6, 11, 21, 151)}
    for chain in ((3, 11, 21), (6, 11, 21)):   # strict subset chains
        for coarse, fine in zip(chain, chain[1:]):
            assert res[coarse][0] >= res[fine][0] - 1e-9
            assert res[coarse][1] >= res[fine][1] - 1e-9
    ref = res[151][2]
    assert abs(res[21][2] - ref) < abs(res[3][2] - ref)
    assert abs(res[21][2] - ref) < 0.02 * ref


def test_design_evppi_takes_one_curve_with_a_row_per_design(ex1_problem,
                                                            ex1_marginals):
    grid = np.linspace(0.5, 2.0, 31)
    d = DesignDecision(c_f=CF, cost_model="1e5*a", grid=grid)
    for i in range(len(ex1_marginals)):
        ref, rows, pf_a = design_curves(ex1_problem, ex1_marginals, i, grid)
        out = evppi_design(ref, rows, pf_a, d)
        # the posterior loss is integrated against the reference density
        post = posterior_loss_curve(rows, d)
        assert out["posterior_loss"] == float(
            np.trapezoid(post * ref.density_prior, ref.grid))
        doubled = replace(ref, density_prior=2.0 * ref.density_prior)
        assert evppi_design(doubled, rows, pf_a, d)["posterior_loss"] == (
            2.0 * out["posterior_loss"])
    with pytest.raises(ConfigError, match="conditional pf row per design"):
        evppi_design(ref, rows[:-1], pf_a, d)


def test_design_evppi_negative_floor(ex1_marginals):
    m = ex1_marginals[0]
    grid_x = default_grid(m, 512)
    d = DesignDecision(c_f=CF, cost_model="1e5*a", grid=np.array([1.0]))
    pf_a = np.array([1e-4])
    # conditional curve systematically above the unconditional pf: the
    # raw difference goes negative and must be floored, with a flag
    rows = np.full((1, grid_x.size), 2e-4)
    curve = ConditionalPfCurve(grid_x, rows[0], "kde", 1e-4, m.pdf(grid_x))
    out = evppi_design(curve, rows, pf_a, d)
    assert out["raw"] < 0.0
    assert out["evppi"] == 0.0
    assert out["negative_clipped"]


# -- threshold sweep ------------------------------------------------------------------------

def test_threshold_sweep_peaks_near_pf(ex1_problem_dep, ex1_marginals):
    names = ("R", "S", "XR", "XS")
    curves = analytic_curves(ex1_problem_dep, ex1_marginals)
    ratios = np.geomspace(1e-5, 0.3, 40)
    rows = threshold_sweep(curves, names, CF, ratios, PF_DEP)
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
    rows = threshold_sweep(curves, ("R", "S", "XR", "XS"),
                           CF, [0.9], PF_IND)
    for e in rows[0]["report"].entries:
        assert e.absolute < 1e-3 * CF * PF_IND


def test_threshold_sweep_single_ratio_matches_direct(ex1_problem,
                                                     ex1_marginals):
    curves = analytic_curves(ex1_problem, ex1_marginals)
    rows = threshold_sweep(curves, ("R", "S", "XR", "XS"),
                           CF, [1e-2], PF_IND)
    d = SafetyDecision(c_f=CF, c_r=1e6)
    direct = [evppi_safety(c, d) for c in curves]
    got = [e.absolute for e in rows[0]["report"].entries]
    assert np.allclose(got, direct, rtol=1e-12)


def test_threshold_sweep_rejects_bad_grid(ex1_problem, ex1_marginals):
    curves = analytic_curves(ex1_problem, ex1_marginals)
    with pytest.raises(DomainError):
        threshold_sweep(curves, ("R", "S", "XR", "XS"),
                        CF, [0.5, 1.5], PF_IND)


def _form_sweep_rows(cfg, res, i):
    """Input i's FORM conditional pf values of example1_design, a row per
    design."""
    grid = default_grid(cfg.marginals[i], cfg.grid_points)
    return conditional_pf_x(cfg.joint, i, grid, res.beta0,
                            copula_rho(cfg.joint, res))


def test_posterior_loss_curve_equals_the_plain_expression_bit_for_bit(
        ex1_design_sweep):
    cfg, res = ex1_design_sweep
    d = cfg.design
    costs = d.costs
    for i in range(cfg.joint.dim):
        rows = _form_sweep_rows(cfg, res, i)
        want = (costs[:, None] + d.c_f * rows).min(axis=0)
        assert posterior_loss_curve(rows, d).tobytes() == want.tobytes()
    one = DesignDecision(c_f=d.c_f, cost_model=d.cost_model,
                         grid=d.grid[75:76])
    row = rows[75:76]
    want = (costs[75] + d.c_f * row[0])
    assert posterior_loss_curve(row, one).tobytes() == want.tobytes()


def test_posterior_loss_curve_peaks_near_its_loss_matrix(ex1_design_sweep):
    cfg, res = ex1_design_sweep
    rows = _form_sweep_rows(cfg, res, 0)
    posterior_loss_curve(rows, cfg.design)
    tracemalloc.start()
    try:
        posterior_loss_curve(rows, cfg.design)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1.5 * rows.nbytes


@pytest.mark.parametrize("cost", [None, "1e5", "0*a + 5"])
def test_design_costs_are_the_cost_model_on_the_grid_bit_for_bit(cost):
    # the expression evaluated directly, as the design cost was before it
    # became a limit state of the design value alone
    d = load_config(CONFIG_DIR / "example1_design.json").design
    if cost is not None:
        d = DesignDecision(c_f=d.c_f, cost_model=cost, grid=d.grid)
    want = np.asarray(lsf._eval(lsf.parse(d.cost_model), {"a": d.grid}),
                      dtype=float)
    want = np.broadcast_to(want, d.grid.shape)
    assert d.costs.shape == d.grid.shape
    assert d.costs.tobytes() == want.tobytes()


def test_a_cost_model_may_reference_only_the_design_value():
    with pytest.raises(UnknownIdentifierError, match=r"\['R'\]"):
        DesignDecision(c_f=CF, cost_model="R*a", grid=np.array([1.0]))


@pytest.mark.parametrize("method", ["analytic", "form", "mc"])
@pytest.mark.parametrize("name", ["example1_safety.json",
                                  "example1_safety_dependent.json"])
def test_cvppi_and_safety_evppi_equal_the_change_region_expression_bit_for_bit(
        name, method):
    # the accept/replace choice as it was written before it became the
    # two-action loss table: |c_f pf(x) - c_r| where the action at x differs
    # from the prior one, else 0; and the safety EVPPI: at mc its
    # trapezoid, at analytic and FORM the closed form in (beta, rho)
    cfg = load_config(CONFIG_DIR / name)
    result = pipeline.run_analysis(replace(cfg, method=method, n=20_000))
    c_f = cfg.safety.c_f
    decisions = [SafetyDecision(c_f=c_f, c_r=r * c_f)
                 for r in np.geomspace(1e-5, 0.3, 40)] + [cfg.safety]
    missed = 0
    for d in decisions:
        for curve in result.curves.values():
            pf = curve.pf_values
            prior_is_replace = curve.pf_uncond > d.c_r / d.c_f
            want = np.where((pf > d.c_r / d.c_f) != prior_is_replace,
                            np.abs(d.c_f * pf - d.c_r), 0.0)
            got = cvppi_curve(curve, d)
            assert got.tobytes() == want.tobytes()
            if method == "mc":
                evppi = float(np.trapezoid(want * curve.density_prior,
                                           curve.grid))
            else:
                evppi = evppi_form_safety(curve.beta, curve.rho, d.c_f, d.c_r)
            assert evppi_safety(curve, d) == evppi
            if not want.any():
                # the decision changes nowhere on the grid: the trapezoid
                # reads 0, and the closed form the value beyond it
                missed += 1
                assert evppi > 0.0 if method != "mc" else evppi == 0.0
    assert missed >= (0 if method == "mc" else 12)
