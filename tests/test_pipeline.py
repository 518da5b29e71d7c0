import json
import math
from pathlib import Path

import numpy as np
import pytest

from relsens import cli, condest, config as config_mod, dists, lsf, pipeline, sample
from relsens.errors import DomainError, EvalError

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
        pf = dists.lognormal_linear_pf(problem)
        assert est.pf[j] == pytest.approx(pf, rel=1e-14, abs=0.0)
        for i, (name, m) in enumerate(zip(cfg.names, cfg.marginals)):
            grid = condest.default_grid(m, cfg.grid_points)
            loop = dists.lognormal_linear_conditional_pf(problem, i, grid)
            assert np.allclose(est.values[name][j], loop, rtol=1e-14, atol=0.0)


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
    assert all(est.values[name].shape == (m, 64) for name in cfg.names)
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


@pytest.mark.parametrize("stage", ["safety", "design"])
def test_form_matches_analytic_on_dependent_inputs(stage):
    # FORM is exact on the lognormal-linear model with correlated inputs too
    raw = config_mod.read_config(ROOT / "configs" / "example1_safety_dependent.json")
    if stage == "design":
        raw = _design_config("analytic", correlation=raw["correlation"])
    form_res, exact = (pipeline.run_analysis(config_mod.validate_config(
                           {**raw, "method": method}))
                       for method in ("form", "analytic"))
    assert form_res.pf == pytest.approx(exact.pf, rel=1e-12, abs=0.0)
    for name, curve in form_res.curves.items():
        assert np.array_equal(curve.grid, exact.curves[name].grid)
    got, expect = ((r.safety_report if stage == "safety"
                    else r.design["report"]).entries
                   for r in (form_res, exact))
    assert [e.name for e in got] == [e.name for e in expect]
    for e_form, e_exact in zip(got, expect):
        assert e_form.absolute == pytest.approx(e_exact.absolute, rel=1e-7,
                                                abs=0.0)


def test_design_reference_row_is_the_sweep_row():
    # the reported curves and pf are row a_opt of the sweep, not a new solve
    cfg = config_mod.validate_config(_design_config("form"))
    res = pipeline.run_analysis(cfg)
    j = res.design["prior"]["index"]
    assert res.pf == res.design["pf_per_design"][j]
    sweep = pipeline.estimate(cfg, cfg.design.grid)
    for name in cfg.names:
        assert np.array_equal(res.curves[name].pf_values, sweep.values[name][j])
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


@pytest.mark.parametrize("method, size, setting", [
    ("mc", {"n": 1000}, "n"), ("subset", {"n_per_level": 100}, "n_per_level")],
    ids=["mc", "subset"])
def test_starved_safety_runs_name_the_count_and_the_setting(
        monkeypatch, method, size, setting):
    raw = json.loads((ROOT / "configs" / "example1_safety.json").read_text())
    cfg = config_mod.validate_config(dict(raw, method=method, **size))
    if method == "subset":
        # the schema's n_per_level of at least 100 always yields 100 failure
        # values, so raise the floor to see the subset wording
        monkeypatch.setattr(condest, "MIN_FAILURE_VALUES", 101)
    count = (int(sample.crude_mc(cfg.joint, cfg.limit_state, cfg.n,
                                 cfg.seed).n_fail[0])
             if method == "mc" else 100)
    with pytest.raises(DomainError) as info:
        pipeline.run_analysis(cfg)
    floor = condest.MIN_FAILURE_VALUES
    assert str(info.value) == (f"need at least {floor} failure values for "
                               f"the density fits (raise {setting}); "
                               f"found {count}")


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
    assert report["diagnostics"]["n_failure_samples_per_design"] == [500] * 3
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
# (shortest round-trip floats): the safety run's pf, normalized EVPPI and
# pf curves at grid_points 128, and the design run's a_opt, pf there,
# normalized EVPPI and raw EVPPI differences
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
