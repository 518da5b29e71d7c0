import json
import math
from dataclasses import replace
from pathlib import Path

import mpmath
import numpy as np
import pytest

from relsens import cli, condest, config as config_mod, dists, lsf, pipeline, sample
from relsens.decision import threshold_sweep
from relsens.errors import DomainError, EvalError
from conftest import EX1_SIGNS, lognormal_linear_pf
from test_form import _evppi_safety_mpmath

ROOT = Path(__file__).resolve().parent.parent


def _design_config(method, start=0.5, stop=2.0, count=151, **overrides):
    raw = json.loads((ROOT / "configs" / "example1_design.json").read_text())
    raw["method"] = method
    raw["decision"]["design"]["grid"] = {"start": start, "stop": stop,
                                         "count": count}
    raw.update(overrides)
    return raw


def test_analytic_broadcast_equals_per_design_loop():
    cfg = config_mod.validate_config(_design_config("analytic"))
    est = pipeline.estimate(cfg, cfg.design.grid)
    coeffs, design_sign = config_mod.as_lognormal_linear(cfg.limit_state,
                                                         cfg.marginals)
    for j, a in enumerate(cfg.design.grid):
        problem = dists.LognormalLinearProblem.from_marginals(
            cfg.marginals, np.eye(len(cfg.marginals)), coeffs,
            design_sign * math.log(a))
        pf = lognormal_linear_pf(problem)
        assert est.pf[j] == pytest.approx(pf, rel=1e-14, abs=0.0)
        for i, (name, m) in enumerate(zip(cfg.names, cfg.marginals)):
            grid = condest.default_grid(m, cfg.grid_points)
            loop = dists.lognormal_linear_conditional_pf(problem, i, grid)
            assert np.allclose(est.values(i)[j], loop, rtol=1e-14, atol=0.0)


@pytest.mark.parametrize("case", ["design_free", "design_grid"])
@pytest.mark.parametrize("method", ["analytic", "form", "mc", "subset"])
def test_every_estimator_returns_one_row_per_design(method, case):
    overrides = {"n": 200_000, "n_per_level": 500, "grid_points": 64}
    if case == "design_free":
        raw = json.loads((ROOT / "configs" / "example1_safety.json").read_text())
        raw.update(method=method, **overrides)
    else:
        raw = _design_config(method, 0.5, 1.5, 5, **overrides)
    cfg = config_mod.validate_config(raw)
    designs = None if cfg.design is None else cfg.design.grid
    m = 1 if designs is None else len(designs)
    est = pipeline.estimate(cfg, designs)
    assert est.pf.shape == (m,)
    assert all(est.values(i).shape == (m, 64) for i in range(len(cfg.names)))
    if method == "analytic":
        problem = config_mod.analytic_problem(cfg, designs)
        assert np.shape(problem.const_term) == (m,)
    if method == "mc":
        mc = sample.crude_mc(cfg.joint, cfg.limit_state, cfg.n, cfg.seed,
                             a=designs)
        assert mc.pf_hat.shape == mc.n_fail.shape == (m,)
        assert mc.ci95[0].shape == mc.ci95[1].shape == (m,)
        assert mc.failed_at.shape == (len(mc.failure_samples), (m + 7) // 8)
        assert np.array_equal(mc.pf_hat, est.pf)
    # g takes row batches only
    with pytest.raises(EvalError, match="expected rows of 4 inputs"):
        lsf.evaluate(cfg.limit_state, np.ones(4),
                     None if designs is None else 1.0)


# independent inputs are the dependent case with a unit correlation matrix
@pytest.mark.parametrize("config, add_correlation", [
    ("example1_safety_dependent.json", False),
    ("example1_design.json", True),
    ("example1_safety.json", False),
    ("example1_design.json", False),
], ids=["safety", "design", "safety_independent", "design_independent"])
def test_form_matches_analytic_on_dependent_inputs(config, add_correlation):
    # FORM is exact on the lognormal-linear model, so it meets the oracle to
    # the 1e-8 the north star asks of it
    raw = config_mod.read_config(ROOT / "configs" / config)
    if add_correlation:
        raw["correlation"] = config_mod.read_config(
            ROOT / "configs" / "example1_safety_dependent.json")["correlation"]
    form_res, exact = (pipeline.run_analysis(config_mod.validate_config(
                           {**raw, "method": method}))
                       for method in ("form", "analytic"))
    assert form_res.pf == pytest.approx(exact.pf, rel=1e-12, abs=0.0)
    for name, curve in form_res.curves.items():
        assert np.array_equal(curve.grid, exact.curves[name].grid)
    got, expect = ((r.safety_report if r.design is None
                    else r.design["report"]).entries
                   for r in (form_res, exact))
    assert [e.name for e in got] == [e.name for e in expect]
    for e_form, e_exact in zip(got, expect):
        assert e_form.absolute == pytest.approx(e_exact.absolute, rel=1e-8,
                                                abs=0.0)


def test_design_reference_row_is_the_sweep_row():
    # the reported curves and pf are row a_opt of the sweep, not a new solve
    cfg = config_mod.validate_config(_design_config("form"))
    res = pipeline.run_analysis(cfg)
    j = res.design["prior"]["index"]
    assert res.pf == res.design["pf_per_design"][j]
    sweep = pipeline.estimate(cfg, cfg.design.grid)
    for i, name in enumerate(cfg.names):
        assert np.array_equal(res.curves[name].pf_values, sweep.values(i)[j])
    assert res.diagnostics["form"]["solves"] == cfg.design.grid.size


def test_design_mc_row_equals_single_design_run():
    cfg = config_mod.validate_config(_design_config(
        "mc", n=50_000, seed=5, grid_points=128,
        decision={"design": {"c_f": 1e8, "cost": "1e7*a",
                             "grid": {"start": 0.5, "stop": 1.2, "count": 8}}}))
    res = pipeline.run_analysis(cfg)
    a_opt = res.design["prior"]["a_opt"]
    assert 0.5 < a_opt < 1.2
    one = sample.crude_mc(cfg.joint, cfg.limit_state, cfg.n, cfg.seed,
                          a=[a_opt])
    assert res.pf == one.pf_hat[0]
    assert res.diagnostics["n_failure_samples"] == len(one.failure_samples)
    assert res.diagnostics["ci95"] == [one.ci95[0][0], one.ci95[1][0]]
    for i, name in enumerate(cfg.names):
        curve = condest.conditional_pf_from_failure_samples(
            cfg.marginals[i], one.failure_samples[:, i], one.pf_hat[0],
            res.curves[name].grid)
        assert np.array_equal(res.curves[name].pf_values, curve.pf_values)
    counts = res.diagnostics["n_failure_samples_per_design"]
    assert len(counts) == 8 and counts == sorted(counts, reverse=True)
    assert counts[res.design["prior"]["index"]] == len(one.failure_samples)


def test_design_subset_rows_equal_single_design_runs():
    # row j is the one-design run at a_j on the run's seed, whatever its
    # index in the grid: pf, the four curves, the levels and the chain ESS
    sizes = {"n_per_level": 500, "seed": 5, "grid_points": 64}
    cfg = config_mod.validate_config(_design_config("subset", 0.5, 1.5, 5,
                                                    **sizes))
    est = pipeline.estimate(cfg, cfg.design.grid)
    for j, a in enumerate(cfg.design.grid.tolist()):
        one_cfg = config_mod.validate_config(_design_config("subset", a, a, 1,
                                                            **sizes))
        one = pipeline.estimate(one_cfg, one_cfg.design.grid)
        assert est.pf[j] == one.pf[0]
        for i in range(len(cfg.names)):
            assert np.array_equal(est.values(i)[j], one.values(i)[0])
        assert est.row_diagnostics(j) == one.row_diagnostics(0)
    res = pipeline.run_analysis(cfg)
    j = res.design["prior"]["index"]
    assert j > 0                     # the reported row is not the first
    x = sample.subset_simulation(cfg.joint, cfg.limit_state, cfg.n_per_level,
                                 cfg.p0, cfg.seed, a=cfg.design.grid[j])
    assert res.pf == x.pf_hat
    assert res.diagnostics["ess"] == {
        name: condest.effective_sample_size(x.last_level_samples[:, i],
                                            stride=x.n_chains)
        for i, name in enumerate(cfg.names)}


def test_design_subset_runs_on_adjacent_seeds_share_no_row_stream():
    # designs 1e-4 apart: when row j ran on seed + j + 1, seed 2's row j
    # reran seed 1's row j + 1 and repeated its curves
    curves = []
    for seed in (1, 2):
        cfg = config_mod.validate_config(_design_config(
            "subset", 1.0, 1.0004, 5, n_per_level=500, seed=seed,
            grid_points=64))
        curves.append(pipeline.estimate(cfg, cfg.design.grid).values(0))
    assert not any(np.array_equal(r, s) for r in curves[0] for s in curves[1])


def test_starved_designs_are_named():
    cfg = config_mod.validate_config(_design_config("mc", 1.0, 2.0, 11,
                                                    n=20_000, seed=3))
    with pytest.raises(DomainError) as info:
        pipeline.run_analysis(cfg)
    msg = str(info.value)
    assert "need at least 20 failure values" in msg
    mc = sample.crude_mc(cfg.joint, cfg.limit_state, cfg.n, cfg.seed,
                         a=cfg.design.grid)
    starved = [(a, int(c)) for a, c in zip(cfg.design.grid.tolist(), mc.n_fail)
               if c < 20]
    assert starved and starved[-1][0] == 2.0
    assert msg.endswith(", ".join(f"a = {a!r} ({c})" for a, c in starved))


def test_starved_safety_mc_run_names_the_count_and_n():
    # subset simulation always ends with n_per_level >= 100 failure samples,
    # so only crude MC can starve
    raw = json.loads((ROOT / "configs" / "example1_safety.json").read_text())
    cfg = config_mod.validate_config(dict(raw, method="mc", n=1000))
    count = int(sample.crude_mc(cfg.joint, cfg.limit_state, cfg.n,
                                cfg.seed).n_fail[0])
    with pytest.raises(DomainError) as info:
        pipeline.run_analysis(cfg)
    floor = condest.MIN_FAILURE_VALUES
    assert str(info.value) == (f"need at least {floor} failure values for "
                               f"the density fits (raise n); found {count}")


@pytest.mark.parametrize("stage", ["safety", "design"])
@pytest.mark.parametrize("method", ["mc", "subset"])
def test_g_evals_count_every_row_passed_to_g(monkeypatch, method, stage):
    overrides = {"n": 60_017, "n_per_level": 500, "grid_points": 32}
    if stage == "safety":
        raw = json.loads((ROOT / "configs" / "example1_safety.json").read_text())
        raw.update(method=method, **overrides)
    else:
        raw = _design_config(method, 0.8, 1.2, 3, **overrides)
    cfg = config_mod.validate_config(raw)
    rows = []
    evaluate_g = lsf.evaluate

    def counting(limit_state, x, a=None):
        rows.append(len(x))
        return evaluate_g(limit_state, x, a)

    monkeypatch.setattr(sample.lsf_mod, "evaluate", counting)
    res = pipeline.run_analysis(cfg)
    assert res.diagnostics["g_evals"] == sum(rows)
    if method == "mc":
        designs = 1 if stage == "safety" else 3
        assert sum(rows) == cfg.n * designs


def test_cli_design_report_has_details_and_counts(tmp_path):
    cfg_path = tmp_path / "subset.json"
    cfg_path.write_text(json.dumps(_design_config(
        "subset", 0.8, 1.2, 3, n_per_level=500, seed=4, grid_points=64)))
    out = tmp_path / "run"
    assert cli.main(["run", str(cfg_path), "--out", str(out)]) == 0
    report = json.loads((out / "report.json").read_text())
    diagnostics = report["diagnostics"]
    assert diagnostics["n_failure_samples"] == 500
    assert "n_failure_samples_per_design" not in diagnostics
    assert list(diagnostics["ess"]) == ["R", "S", "XR", "XS"]
    details = report["design"]["details"]
    assert list(details) == ["R", "S", "XR", "XS"]
    for entry, detail in zip(report["design"]["report"]["entries"],
                             details.values()):
        assert set(detail) == {"raw", "negative_clipped"}
        assert detail["negative_clipped"] == (detail["raw"] < 0.0)
        assert entry["absolute"] == max(0.0, detail["raw"])
    assert math.isfinite(report["pf"])


# example1_safety and example1_design by FORM, run through
# pipeline.run_analysis at the commit whose FormResult still had a scalar
# one-problem shape beside the lockstep rows, and written with json.dumps
# (shortest round-trip floats): the safety run's pf and pf curves at
# grid_points 128, and the design run's a_opt, pf there, normalized EVPPI
# and raw EVPPI differences. The safety run's normalized EVPPIs are the
# shares of test_form's 50-digit mpmath quadrature of the closed form at
# that run's beta0 and alpha, normalized in mpmath.
FORM_PINNED = json.loads(
    (ROOT / "tests" / "data" / "form_runs_pinned.json").read_text())


def _pinned_config(run):
    raw = json.loads((ROOT / "configs" / run["config"]).read_text())
    raw.update(run["overrides"])
    return config_mod.validate_config(raw)


def test_form_safety_run_reproduces_pinned_values():
    run = FORM_PINNED["safety"]
    res = pipeline.run_analysis(_pinned_config(run))
    assert res.pf == pytest.approx(run["pf"], rel=1e-12, abs=0.0)
    evppi = {e.name: e.normalized for e in res.safety_report.entries}
    assert evppi == pytest.approx(run["evppi_normalized"], rel=1e-12, abs=0.0)
    assert res.curves.keys() == run["pf_curves"].keys()
    for name, want in run["pf_curves"].items():
        assert np.allclose(res.curves[name].pf_values, want, rtol=1e-12,
                           atol=0.0)


def test_form_design_run_reproduces_pinned_values():
    run = FORM_PINNED["design"]
    res = pipeline.run_analysis(_pinned_config(run))
    prior = res.design["prior"]
    assert prior["a_opt"] == run["a_opt"]
    assert prior["pf"] == pytest.approx(run["pf_at_a_opt"], rel=1e-12, abs=0.0)
    evppi = {e.name: e.normalized for e in res.design["report"].entries}
    assert evppi == pytest.approx(run["evppi_normalized"], rel=1e-12, abs=0.0)
    raw = {name: out["raw"] for name, out in res.design["details"].items()}
    assert raw == pytest.approx(run["raw"], rel=1e-12, abs=0.0)


# -- the safety EVPPI at analytic and FORM: one closed form ---------------------

def _mpmath_log_margin(cfg):
    """beta and rho of example 1's log-margin g = sum_i c_i ln X_i, in
    50-digit mpmath from the configured lognormal parameters and physical
    correlations."""
    with mpmath.workdps(50):
        mu = [mpmath.mpf(m.params[0]) for m in cfg.marginals]
        sig = [mpmath.mpf(m.params[1]) for m in cfg.marginals]
        delta = [mpmath.sqrt(mpmath.expm1(s * s)) for s in sig]
        n = len(mu)
        cov = [[sig[i] ** 2 if i == j else mpmath.log1p(
                    mpmath.mpf(cfg.joint.r_xx[i, j]) * delta[i] * delta[j])
                for j in range(n)] for i in range(n)]
        cc = [mpmath.fsum(cov[i][j] * EX1_SIGNS[j] for j in range(n))
              for i in range(n)]
        sd = mpmath.sqrt(mpmath.fsum(EX1_SIGNS[i] * cc[i] for i in range(n)))
        beta = mpmath.fsum(EX1_SIGNS[i] * mu[i] for i in range(n)) / sd
        return beta, [-cc[i] / (sd * sig[i]) for i in range(n)]


@pytest.mark.parametrize("name", ["example1_safety.json",
                                  "example1_safety_dependent.json"])
def test_analytic_safety_evppi_matches_mpmath(name):
    # at the configured costs and across the sweep, whose ends the grid's
    # trapezoid read up to 9% low, or 0 where the decision changes only
    # beyond the grid
    cfg = config_mod.load_config(ROOT / "configs" / name)
    res = pipeline.run_analysis(cfg)
    beta, rho = _mpmath_log_margin(cfg)
    c_f = cfg.safety.c_f
    rows = threshold_sweep(list(res.curves.values()), cfg.names, c_f,
                           [1e-5, 0.1, 0.3], res.pf)
    for ratio, report in [(cfg.safety.c_r / c_f, res.safety_report),
                          *((row["ratio"], row["report"]) for row in rows)]:
        for entry, rho_i in zip(report.entries, rho):
            want = c_f * _evppi_safety_mpmath(beta, rho_i, ratio)
            assert abs(entry.absolute / want - 1) <= 1e-12, (ratio, entry)


def test_analytic_inputs_of_equal_rho_get_the_same_evppi_bits():
    # R and XS have the same sigma_ln and opposite signs in g
    res = pipeline.run_analysis(
        config_mod.load_config(ROOT / "configs" / "example1_safety.json"))
    evppi = {e.name: e.absolute for e in res.safety_report.entries}
    assert evppi["R"].hex() == evppi["XS"].hex()


@pytest.mark.parametrize("name, method", [
    ("example1_safety.json", "analytic"), ("example1_safety.json", "form"),
    ("example1_safety_dependent.json", "analytic"),
    ("example1_safety_dependent.json", "form"),
    ("example2_safety.json", "form")])
def test_safety_evppi_lies_between_zero_and_the_evpi(name, method):
    cfg = config_mod.load_config(ROOT / "configs" / name)
    res = pipeline.run_analysis(replace(cfg, method=method))
    rows = threshold_sweep(list(res.curves.values()), cfg.names,
                           cfg.safety.c_f, np.geomspace(1e-5, 0.3, 40),
                           res.pf)
    for report in [res.safety_report, *(row["report"] for row in rows)]:
        assert report.evpi > 0.0
        for entry in report.entries:
            assert 0.0 <= entry.absolute <= report.evpi, entry.name


def _one_input_config(name, expression):
    raw = json.loads((ROOT / "configs" / name).read_text())
    return config_mod.validate_config(
        dict(raw, method="form", lsf={"expression": expression}))


def test_one_input_form_safety_run_gives_that_input_the_evpi():
    # |rho_R| = 1: R's curve is a step, and learning R resolves the decision
    res = pipeline.run_analysis(_one_input_config("example1_safety.json",
                                                  "R - 50"))
    report = res.safety_report
    evppi = {e.name: e.absolute for e in report.entries}
    assert evppi["R"] == pytest.approx(report.evpi, rel=1e-12, abs=0.0)
    assert [evppi[name] for name in ("S", "XR", "XS")] == [0.0, 0.0, 0.0]
    step = res.curves["R"].pf_values
    assert set(step.tolist()) == {0.0, 1.0}
    assert np.all(np.diff(step) <= 0.0)      # fails below R = 50


def test_one_input_form_design_row_needs_exact_regions():
    with pytest.raises(DomainError, match=(
            r"^at a = 0\.5, R's conditional pf is a step \(\|rho\| = 1\), "
            r"for which the design EVPPI needs exact decision regions$")):
        pipeline.run_analysis(_one_input_config("example1_design.json",
                                                "a*R - 60"))
