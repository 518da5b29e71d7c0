import csv
import io
import json
import hashlib
import math
import os
import subprocess
import sys
import threading
import warnings
from pathlib import Path

import numpy as np
import pytest

from dataclasses import replace

from relsens import cli, decision, form, pipeline, sample
from relsens.config import load_config, validate_config
from relsens.errors import ConfigError, DomainError

CONFIG_DIR = Path(__file__).resolve().parent.parent / "configs"
SRC_DIR = Path(__file__).resolve().parent.parent / "src"
SHIPPED_CONFIGS = ["example1_safety.json", "example1_safety_dependent.json",
                   "example1_design.json", "example2_safety.json"]


def _base_config(**overrides):
    raw = {
        "inputs": [
            {"name": "R", "dist": "lognormal", "mean": 100, "cov": 0.2},
            {"name": "S", "dist": "lognormal", "mean": 40, "cov": 0.25},
            {"name": "XR", "dist": "lognormal", "mean": 1, "cov": 0.1},
            {"name": "XS", "dist": "lognormal", "mean": 1, "cov": 0.2},
        ],
        "lsf": {"expression": "ln(XR) + ln(R) - ln(XS) - ln(S)"},
        "decision": {"safety": {"c_f": 1e8, "c_r": 1e6}},
        "method": "analytic",
        "seed": 5,
        "outputs": "out",
    }
    raw.update(overrides)
    return raw


# -- validation -----------------------------------------------------------------

def test_shipped_configs_valid():
    for name in SHIPPED_CONFIGS:
        cfg = load_config(CONFIG_DIR / name)
        assert len(cfg.names) == 4


_LOAD_AND_LIST_MODULES = """
import sys
import relsens.cli
from relsens.config import load_config
load_config(sys.argv[1])
print(" ".join(m for m in ("scipy.optimize", "scipy.integrate", "jsonschema")
               if m in sys.modules))
"""


def _child_env():
    env = dict(os.environ)
    env.pop("PYTHONUNBUFFERED", None)   # buffered pipes, as users get them
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC_DIR)] + [p for p in [env.get("PYTHONPATH")] if p])
    return env


def _modules_after_load(config_name, prelude=""):
    out = subprocess.run(
        [sys.executable, "-c", prelude + _LOAD_AND_LIST_MODULES,
         str(CONFIG_DIR / config_name)],
        env=_child_env(), capture_output=True, text=True, check=True)
    return out.stdout.split()


@pytest.mark.parametrize("name", SHIPPED_CONFIGS)
def test_configs_load_without_scipy_optimize(name):
    # lognormal fits are closed form; the Weibull shape and the other Nataf
    # pairs of example 2 are bisected in relsens.dists; the schema is
    # checked by relsens.config's own walker, not by jsonschema
    assert _modules_after_load(name) == []


def test_scipy_module_probe_sees_an_imported_module():
    # positive control: the probe above does report a module once loaded
    found = _modules_after_load("example2_safety.json",
                                prelude="import scipy.optimize\n")
    assert "scipy.optimize" in found


def test_module_probe_sees_jsonschema_once_imported():
    found = _modules_after_load("example1_safety.json",
                                prelude="import jsonschema\n")
    assert found == ["jsonschema"]


def test_undeclared_lsf_variable_named():
    raw = _base_config(lsf={"expression": "ln(R) - ln(Q)"})
    with pytest.raises(ConfigError, match="Q"):
        validate_config(raw)


def test_bad_correlation_diagonal():
    raw = _base_config(correlation=[[1.3, 0, 0, 0], [0, 1, 0, 0],
                                    [0, 0, 1, 0], [0, 0, 0, 1]])
    with pytest.raises(ConfigError, match="diagonal"):
        validate_config(raw)


def test_duplicate_names_rejected():
    raw = _base_config()
    raw["inputs"][1]["name"] = "R"
    with pytest.raises(ConfigError, match="unique"):
        validate_config(raw)


def test_method_requirements():
    with pytest.raises(ConfigError, match="requires n"):
        validate_config(_base_config(method="mc"))
    with pytest.raises(ConfigError, match="n_per_level"):
        validate_config(_base_config(method="subset"))


def test_analytic_accepts_product_difference():
    # a difference of input products shares its failure event with a
    # linear function of the logs, so the analytic route applies
    raw = _base_config(lsf={"expression": "R - S*XR"})
    cfg = validate_config(raw)
    assert cfg.method == "analytic"


def test_analytic_requires_linear_log_form():
    raw = _base_config(lsf={"expression": "R - S - XR"})
    with pytest.raises(ConfigError, match="analytic"):
        validate_config(raw)


def test_analytic_rejects_non_lognormal():
    raw = _base_config()
    raw["inputs"][0] = {"name": "R", "dist": "normal", "mean": 100, "cov": 0.2}
    with pytest.raises(ConfigError, match="lognormal"):
        validate_config(raw)


def test_safety_block_rejected_for_design_lsf():
    raw = _base_config(lsf={"expression": "a*XR*R - XS*S"})
    with pytest.raises(ConfigError, match="design parameter"):
        validate_config(raw)


def test_schema_violation_has_field_path():
    raw = _base_config(method="magic")
    with pytest.raises(ConfigError, match="method"):
        validate_config(raw)


@pytest.mark.parametrize("name", ["example1_safety_dependent.json",
                                  "example2_safety.json"])
@pytest.mark.parametrize("command", ["run", "sweep"])
def test_form_runs_on_dependent_inputs(tmp_path, capsys, name, command):
    out = tmp_path / "out"
    code = cli.main([command, str(CONFIG_DIR / name), "--method", "form",
                     "--out", str(out)])
    assert code == 0
    assert "warning" not in capsys.readouterr().err
    table = "evppi_table.csv" if command == "run" else "sweep.csv"
    assert (out / table).stat().st_size > 0


def test_native_params_accepted():
    raw = _base_config()
    raw["inputs"][0] = {"name": "R", "dist": "lognormal",
                        "params": [4.5855598, 0.1980422]}
    cfg = validate_config(raw)
    assert cfg.marginals[0].mean == pytest.approx(100.0, rel=1e-4)


# -- CLI ------------------------------------------------------------------------

def test_cli_validate_exit_codes(tmp_path):
    assert cli.main(["validate", str(CONFIG_DIR / "example1_safety.json")]) == 0
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(_base_config(method="magic")))
    assert cli.main(["validate", str(bad)]) == 2
    assert cli.main(["validate", str(tmp_path / "missing.json")]) == 2


def _nan_cost(raw):
    raw["decision"]["safety"]["c_f"] = float("nan")


def _infinite_cov(raw):
    raw["inputs"][0]["cov"] = float("inf")


def _overflowing_safety_cost(raw):
    raw["decision"]["safety"]["c_f"] = 1e300


def _design_config(raw):
    raw.update(json.loads((CONFIG_DIR / "example1_design.json").read_text()))


def _overflowing_design_cost(raw):
    _design_config(raw)
    raw["decision"]["design"]["c_f"] = 1e300


def _overflowing_design_grid(raw):
    # a constant cost stays finite on any grid
    _design_config(raw)
    raw["decision"]["design"]["cost"] = "1e5"
    raw["decision"]["design"]["grid"]["stop"] = 1e300
    raw["method"] = "form"


# json.dumps writes NaN and inf as the non-standard tokens NaN and Infinity,
# which no bound in the schema can catch; the number 1e400 is valid JSON and
# parses to inf
@pytest.mark.parametrize("command", ["validate", "run"])
@pytest.mark.parametrize("token, edit, message", [
    ("NaN", _nan_cost, "config is not valid JSON: NaN is not a number"),
    ("Infinity", _infinite_cov,
     "config is not valid JSON: Infinity is not a number"),
    ("1e400", _overflowing_safety_cost, "decision/safety: costs must be finite"),
    ("1e400", _overflowing_design_cost, "decision/design: c_f must be positive "
     "and finite"),
    ("1e400", _overflowing_design_grid, "decision/design: design grid must be "
     "nonempty, finite"),
], ids=["nan_cost", "infinite_cov", "overflowing_safety_cost",
        "overflowing_design_cost", "overflowing_design_grid"])
def test_cli_rejects_nan_and_infinity(tmp_path, capsys, command, token, edit,
                                      message):
    raw = _base_config()
    edit(raw)
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(raw).replace("1e+300", "1e400"))
    assert token in path.read_text()
    out = tmp_path / "out"
    args = [command, str(path)] + (["--out", str(out)] if command == "run" else [])
    assert cli.main(args) == 2
    assert message in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("command", ["validate", "run"])
def test_a_design_cost_not_finite_on_the_grid_exits_2_without_a_warning(
        tmp_path, capsys, command):
    # sqrt(a) is NaN at the negative design values; the limit state puts
    # no sign constraint on a, so the cost model is what rejects the grid
    raw = json.loads((CONFIG_DIR / "example1_design.json").read_text())
    raw.update(lsf={"expression": "XR*R - XS*S + 10*a"})
    raw["decision"]["design"]["cost"] = "1e5*sqrt(a)"
    raw["decision"]["design"]["grid"]["start"] = -0.5
    path = _write_config(tmp_path / "bad.json", raw)
    out = tmp_path / "out"
    args = [command, str(path)] + (["--out", str(out)] if command == "run" else [])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert cli.main(args) == 2
    err = capsys.readouterr().err
    assert err.endswith("decision/design: cost model is not finite on the "
                        "design grid\n")
    assert err.count("\n") == 1
    assert not out.exists()


def test_cli_rejects_the_deleted_kde_transform_key(tmp_path, capsys):
    # every density is fitted in z space; the key that chose the space is gone
    raw = json.loads((CONFIG_DIR / "example2_safety.json").read_text())
    raw["kde_transform"] = "identity"
    path = _write_config(tmp_path / "column.json", raw)
    assert cli.main(["validate", str(path)]) == 2
    assert "'kde_transform' was unexpected" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["validate", "run"])
def test_cli_rejects_the_deleted_builtin_lsf_key(tmp_path, capsys, command):
    # a limit state is given by its expression text; the built-in ids are gone
    raw = json.loads((CONFIG_DIR / "example1_safety.json").read_text())
    raw["lsf"] = {"builtin": "example1_safety"}
    path = _write_config(tmp_path / "builtin.json", raw)
    out = tmp_path / "out"
    args = [command, str(path)] + (["--out", str(out)] if command == "run" else [])
    assert cli.main(args) == 2
    assert "lsf: 'expression' is a required property" in capsys.readouterr().err
    assert not out.exists()


def test_cli_rejects_a_marginal_parameter_that_overflows(tmp_path, capsys):
    # a valid JSON number that parses to inf reaches the marginal fit
    raw = _base_config()
    raw["inputs"][0]["mean"] = 1e300
    path = tmp_path / "overflow.json"
    path.write_text(json.dumps(raw).replace("1e+300", "1e400"))
    assert "1e400" in path.read_text()
    assert cli.main(["validate", str(path)]) == 2
    assert "parameters must be finite" in capsys.readouterr().err


def _negative_analytic_design(raw):
    raw["decision"]["design"]["grid"]["start"] = -0.5


def _negative_design_at(method, **sizes):
    # a*XR*R - XS*S fails with certainty at a <= 0, whatever the estimator
    def edit(raw):
        _negative_analytic_design(raw)
        raw.update(method=method, **sizes)
    return edit


def _starved_subset_level(raw):
    raw.update(method="subset", n_per_level=100, p0=0.05)


def _form_expression(text):
    def edit(raw):
        raw.update(method="form", lsf={"expression": text})
    return edit


def _form_design_cost(text):
    def edit(raw):
        raw["method"] = "form"
        raw["decision"]["design"]["cost"] = text
    return edit


# these configs used to pass validate and fail in run with exit 3; those
# with a non-finite constant part failed in run or validate with a Python
# traceback (exit 1), or ran on a complex constant's real part
@pytest.mark.parametrize("command", ["validate", "run"])
@pytest.mark.parametrize("name, edit, field", [
    ("example1_design.json", _negative_analytic_design, "decision/design/grid"),
    ("example1_design.json", _negative_design_at("form"), "decision/design/grid"),
    ("example1_design.json", _negative_design_at("mc", n=200_000),
     "decision/design/grid"),
    ("example1_design.json", _negative_design_at("subset", n_per_level=2000),
     "decision/design/grid"),
    ("example1_safety.json", _starved_subset_level, "n_per_level"),
    ("example1_safety.json", _form_expression("XR*R - XS*S + 0*10^400"), "lsf"),
    ("example1_safety.json", _form_expression("XR*R - XS*S + 1/0"), "lsf"),
    ("example1_safety.json", _form_expression("XR*R - (-8)^(1/3)*XS*S"), "lsf"),
    ("example1_design.json", _form_design_cost("1/0*a"), "decision/design"),
    ("example1_design.json", _form_design_cost("(-1)^0.5*a"), "decision/design"),
], ids=["analytic_negative_design", "form_negative_design", "mc_negative_design",
        "subset_negative_design", "subset_n_per_level_times_p0",
        "lsf_overflowing_constant", "lsf_constant_division_by_zero",
        "lsf_complex_constant", "cost_constant_division_by_zero",
        "cost_complex_constant"])
def test_cli_rejects_configs_that_fail_at_run_time(tmp_path, capsys, command,
                                                   name, edit, field):
    raw = json.loads((CONFIG_DIR / name).read_text())
    edit(raw)
    path = _write_config(tmp_path / "bad.json", raw)
    out = tmp_path / "out"
    args = [command, str(path)] + (["--out", str(out)] if command == "run" else [])
    assert cli.main(args) == 2
    assert f"{field}: " in capsys.readouterr().err
    assert not out.exists()


def test_cli_form_runs_where_a_trial_step_gives_a_non_finite_g(tmp_path):
    # the first HL-RF trial takes Y's Weibull map to 0, where g is not
    # finite: the line search rejects that step instead of ending the run
    raw = json.loads((CONFIG_DIR / "example2_safety.json").read_text())
    raw["inputs"][0]["cov"] = 0.085
    raw["inputs"][1]["mean"] = 6
    raw["inputs"][3]["mean"] = 850
    raw["method"] = "form"
    path = _write_config(tmp_path / "column.json", raw)
    out = tmp_path / "run"
    assert cli.main(["validate", str(path)]) == 0
    assert cli.main(["run", str(path), "--out", str(out)]) == 0
    diagnostics = json.loads((out / "report.json").read_text())["diagnostics"]
    assert diagnostics["form"]["not_converged"] == []
    assert diagnostics["beta0"] == pytest.approx(9.184, abs=1e-3)


def test_cli_run_outputs(tmp_path):
    out = tmp_path / "run"
    code = cli.main(["run", str(CONFIG_DIR / "example1_safety.json"),
                     "--out", str(out)])
    assert code == 0
    table = (out / "evppi_table.csv").read_text().splitlines()
    assert table[0] == "input,absolute,normalized,relative"
    values = {row.split(",")[0]: float(row.split(",")[1]) for row in table[1:]}
    expect = {"R": 349.0, "S": 454.0, "XR": 131.0, "XS": 349.0}
    for name, v in expect.items():
        assert values[name] / 1e3 == pytest.approx(v, rel=1e-2)
    for name in ("R", "S", "XR", "XS"):
        assert (out / f"pf_curve_{name}.csv").exists()
        assert (out / f"cvppi_{name}.csv").exists()
    report = json.loads((out / "report.json").read_text())
    assert report["pf"] == pytest.approx(0.0073582, rel=1e-4)
    assert report["manifest"]["seed"] == 1



def test_cli_run_times_config_load(tmp_path):
    # example 2 at a small n: its load includes the Weibull and Nataf fits
    raw = json.loads((CONFIG_DIR / "example2_safety.json").read_text())
    cfg_path = tmp_path / "column.json"
    cfg_path.write_text(json.dumps(dict(raw, n=50_000)))
    out = tmp_path / "run"
    assert cli.main(["run", str(cfg_path), "--out", str(out)]) == 0
    report = json.loads((out / "report.json").read_text())
    stages = report["diagnostics"]["stage_seconds"]
    assert list(stages) == ["load", "reliability", "safety_evppi"]
    assert 0.0 < stages["load"] < report["manifest"]["wall_seconds"]
    assert "stage_diagnostics" not in report["manifest"]
    assert "load" in report["diagnostics"]["stage_seconds"]

def test_cli_run_manifest_checksums(tmp_path):
    out = tmp_path / "run"
    assert cli.main(["run", str(CONFIG_DIR / "example1_safety.json"),
                     "--out", str(out)]) == 0
    report = json.loads((out / "report.json").read_text())
    for fname, digest in report["manifest"]["outputs"].items():
        data = (out / fname).read_bytes()
        assert hashlib.sha256(data).hexdigest() == digest


def test_cli_run_deterministic_output(tmp_path):
    base = _base_config(method="mc", n=50_000, seed=11)
    cfg_path = tmp_path / "mc.json"
    cfg_path.write_text(json.dumps(base))
    outs = []
    for sub in ("a", "b"):
        out = tmp_path / sub
        assert cli.main(["run", str(cfg_path), "--out", str(out)]) == 0
        outs.append(out)
    for fname in ("evppi_table.csv", "pf_curve_R.csv", "cvppi_S.csv"):
        assert (outs[0] / fname).read_bytes() == (outs[1] / fname).read_bytes()


def test_cli_run_reports_kde_diagnostics_per_input(tmp_path):
    cfg_path = tmp_path / "mc.json"
    cfg_path.write_text(json.dumps(_base_config(method="mc", n=50_000, seed=11)))
    out = tmp_path / "run"
    assert cli.main(["run", str(cfg_path), "--out", str(out)]) == 0
    report = json.loads((out / "report.json").read_text())
    per_input = report["diagnostics"]["kde_inputs"]
    assert list(per_input) == ["R", "S", "XR", "XS"]
    n_fail = report["diagnostics"]["n_failure_samples"]
    # crude MC's rows are independent draws: no autocorrelation ESS
    assert "ess" not in report["diagnostics"]
    for diag in per_input.values():
        assert set(diag) == {"clip_fraction", "kernel_terms"}
        assert 0.0 <= diag["clip_fraction"] <= 1.0
        assert diag["kernel_terms"] > 0
    # each figure is written once: pf at the top, the KDE maxima nowhere
    assert report["pf"] == n_fail / report["diagnostics"]["n"]
    assert "pf" not in report["diagnostics"]
    assert "diagnostics" not in report["safety"]


def test_cli_run_seed_override_changes_mc(tmp_path):
    base = _base_config(method="mc", n=50_000, seed=11)
    cfg_path = tmp_path / "mc.json"
    cfg_path.write_text(json.dumps(base))
    a, b = tmp_path / "a", tmp_path / "b"
    assert cli.main(["run", str(cfg_path), "--out", str(a)]) == 0
    assert cli.main(["run", str(cfg_path), "--out", str(b), "--seed", "12"]) == 0
    assert (a / "evppi_table.csv").read_bytes() != (b / "evppi_table.csv").read_bytes()


def _runs_on_one_and_four_cpus(tmp_path, monkeypatch, raw):
    """Run ``raw`` as the worker threads would on one CPU and on four;
    return the two output directories and the workers each report names."""
    cfg_path = tmp_path / "mc.json"
    cfg_path.write_text(json.dumps(raw))
    outs, workers = [], []
    for cpus in (1, 4):
        monkeypatch.setattr(sample, "_available_cpus", lambda: cpus)
        out = tmp_path / f"cpus{cpus}"
        assert cli.main(["run", str(cfg_path), "--out", str(out)]) == 0
        outs.append(out)
        workers.append(json.loads((out / "report.json").read_text())
                       ["diagnostics"].get("workers"))
    return outs, workers


def _assert_same_csvs(one, four, count):
    names = sorted(p.name for p in one.glob("*.csv"))
    assert names == sorted(p.name for p in four.glob("*.csv"))
    assert len(names) == count
    for name in names:
        assert (one / name).read_bytes() == (four / name).read_bytes(), name


def test_cli_mc_safety_does_not_depend_on_the_cpu_count(tmp_path, monkeypatch):
    # the short column at n 2e5: eight crude-MC chunks, Nataf-fitted copula
    raw = json.loads((CONFIG_DIR / "example2_safety.json").read_text())
    raw.update(method="mc", n=200_000, seed=4)
    (one, four), workers = _runs_on_one_and_four_cpus(tmp_path, monkeypatch,
                                                      raw)
    assert workers == [1, 4]
    _assert_same_csvs(one, four, 2 * len(raw["inputs"]) + 1)


def test_cli_design_run(tmp_path):
    out = tmp_path / "design"
    assert cli.main(["run", str(CONFIG_DIR / "example1_design.json"),
                     "--out", str(out)]) == 0
    report = json.loads((out / "report.json").read_text())
    assert report["design"]["a_opt"] == pytest.approx(1.57, abs=0.01)
    table = (out / "evppi_table.csv").read_text().splitlines()
    assert table[0] == "input,absolute,normalized,relative"


def _run_design_form(tmp_path, sub, *extra):
    out = tmp_path / sub
    assert cli.main(["run", str(CONFIG_DIR / "example1_design.json"),
                     "--method", "form", "--out", str(out), *extra]) == 0
    return out, json.loads((out / "report.json").read_text())


def test_cli_design_form_matches_analytic(tmp_path, capsys):
    # FORM is exact on the lognormal-linear model
    _, form_report = _run_design_form(tmp_path, "form")
    assert "warning" not in capsys.readouterr().err
    analytic = tmp_path / "analytic"
    assert cli.main(["run", str(CONFIG_DIR / "example1_design.json"),
                     "--method", "analytic", "--out", str(analytic)]) == 0
    analytic_report = json.loads((analytic / "report.json").read_text())
    assert form_report["design"]["a_opt"] == analytic_report["design"]["a_opt"]
    assert form_report["design"]["a_opt"] == pytest.approx(1.57, abs=0.01)
    assert form_report["design"]["pf_at_a_opt"] == form_report["pf"]
    assert form_report["pf"] == pytest.approx(analytic_report["pf"], rel=1e-10)
    # each figure is written once: pf and a_opt are not repeated as
    # diagnostics, and the design report carries no empty diagnostics
    assert "pf" not in form_report["diagnostics"]
    assert "a_opt" not in form_report["diagnostics"]
    assert "diagnostics" not in form_report["design"]["report"]
    got = form_report["design"]["report"]["entries"]
    expect = analytic_report["design"]["report"]["entries"]
    assert [e["name"] for e in got] == [e["name"] for e in expect]
    for e_form, e_exact in zip(got, expect):
        assert abs(e_form["normalized"] - e_exact["normalized"]) <= 1e-8
    diag = form_report["diagnostics"]["form"]
    assert diag["solves"] == 151        # one lockstep row per design
    assert diag["not_converged"] == []
    # every row starts at the origin: 6.9 iterations per design here, at most 8
    assert diag["solves"] <= diag["iterations"] < 7 * diag["solves"]
    # no row halves its step: G(0), the starting 9-point stencils, then one
    # stencil per row and iteration, in a handful of lockstep calls
    assert diag["g_rows"] == 10 * diag["solves"] + 9 * diag["iterations"]
    assert diag["g_calls"] <= 12


def test_cli_reports_form_non_convergence(tmp_path, capsys, monkeypatch):
    from relsens import form

    solve = form.solve_form
    monkeypatch.setattr(form, "solve_form",
                        lambda *a, **k: solve(*a, max_iterations=1, **k))
    _, report = _run_design_form(tmp_path, "capped")
    # one HL-RF step cannot pass the step-size test from any start here
    grid = load_config(CONFIG_DIR / "example1_design.json").design.grid.tolist()
    failed = report["diagnostics"]["form"]["not_converged"]
    assert failed == grid
    warnings = [line for line in capsys.readouterr().err.splitlines()
                if line.startswith("warning:")]
    assert warnings == ["warning: FORM search did not converge for: "
                        + ", ".join(map(str, failed))]
    # sweep runs the same analysis and must not hide a capped search either
    assert cli.main(["sweep", str(CONFIG_DIR / "example1_safety.json"),
                     "--method", "form", "--out", str(tmp_path / "sweep")]) == 0
    warnings = [line for line in capsys.readouterr().err.splitlines()
                if line.startswith("warning:")]
    assert warnings == ["warning: FORM search did not converge for: "
                        "reliability"]


def test_cli_mc_design_does_not_depend_on_the_cpu_count(tmp_path, monkeypatch):
    raw = json.loads((CONFIG_DIR / "example1_design.json").read_text())
    raw.update(method="mc", n=200_000)
    raw["decision"]["design"]["grid"] = {"start": 0.5, "stop": 1.5,
                                         "count": 21}
    (one, four), workers = _runs_on_one_and_four_cpus(tmp_path, monkeypatch,
                                                      raw)
    assert workers == [1, 4]
    _assert_same_csvs(one, four, 5)


def _report_without_timings(out):
    report = json.loads((out / "report.json").read_text())
    del report["diagnostics"]["stage_seconds"], report["manifest"]["wall_seconds"]
    return report


@pytest.mark.parametrize("stage", ["safety", "design"])
@pytest.mark.parametrize("method", ["analytic", "form"])
def test_cli_closed_forms_do_not_depend_on_the_cpu_count(tmp_path, monkeypatch,
                                                         method, stage):
    name = ("example1_design.json" if stage == "design"
            else "example1_safety_dependent.json")
    raw = json.loads((CONFIG_DIR / name).read_text())
    raw["method"] = method
    (one, four), workers = _runs_on_one_and_four_cpus(tmp_path, monkeypatch,
                                                      raw)
    # only crude MC draws on worker threads, and only it reports them
    assert workers == [None, None]
    # the table and four pf curves; a safety run adds four cvppi curves
    _assert_same_csvs(one, four, 5 if stage == "design" else 9)
    reports = [_report_without_timings(out) for out in (one, four)]
    assert reports[0] == reports[1]


@pytest.mark.parametrize("cpus", [1, 2, 4])
def test_cli_closed_form_raises_the_earliest_inputs_error(tmp_path, monkeypatch,
                                                          capsys, cpus):
    # inputs 1 and 3 fail; the run stops at input 1 whatever the CPU count
    conditional_pf_x = form.conditional_pf_x

    def failing(joint, i, x_i, beta0, rho):
        if i in (1, 3):
            raise DomainError(f"input {i} failed")
        return conditional_pf_x(joint, i, x_i, beta0, rho)

    monkeypatch.setattr(form, "conditional_pf_x", failing)
    monkeypatch.setattr(sample, "_available_cpus", lambda: cpus)
    threads = threading.active_count()
    assert cli.main(["run", str(CONFIG_DIR / "example1_design.json"),
                     "--method", "form", "--out",
                     str(tmp_path / "out")]) == cli.EXIT_NUMERIC
    assert capsys.readouterr().err == "numeric failure in run: input 1 failed\n"
    assert threading.active_count() == threads


@pytest.mark.parametrize("method", ["analytic", "form"])
def test_cli_closed_form_design_run_starts_no_thread(tmp_path, monkeypatch,
                                                     method):
    # at four CPUs the design stage's four inputs, each 151 designs x 512
    # grid points, run one after another on the calling thread
    started = []
    start = threading.Thread.start

    def counting_start(thread):
        started.append(thread)
        start(thread)

    monkeypatch.setattr(threading.Thread, "start", counting_start)
    monkeypatch.setattr(sample, "_available_cpus", lambda: 4)
    out = tmp_path / "out"
    assert cli.main(["run", str(CONFIG_DIR / "example1_design.json"),
                     "--method", method, "--out", str(out)]) == 0
    assert started == []
    report = json.loads((out / "report.json").read_text())
    assert "workers" not in report["diagnostics"]


def test_cli_sweep(tmp_path):
    out = tmp_path / "sweep"
    code = cli.main(["sweep", str(CONFIG_DIR / "example1_safety_dependent.json"),
                     "--out", str(out), "--ratio-min", "1e-4",
                     "--ratio-max", "0.1", "--ratio-count", "7"])
    assert code == 0
    rows = (out / "sweep.csv").read_text().splitlines()
    header = rows[0].split(",")
    assert header[0] == "ratio"
    assert "S_normalized" in header
    assert len(rows) == 8


def test_cli_sweep_requires_safety(tmp_path):
    assert cli.main(["sweep", str(CONFIG_DIR / "example1_design.json"),
                     "--out", str(tmp_path)]) == 2


def test_cli_sweep_bad_ratio_grid(tmp_path):
    assert cli.main(["sweep", str(CONFIG_DIR / "example1_safety.json"),
                     "--out", str(tmp_path), "--ratio-min", "0.5",
                     "--ratio-max", "1.5", "--ratio-count", "3"]) == 2


@pytest.mark.parametrize("args", [["--ratio-count", "-1"],
                                  ["--ratio-count", "0"],
                                  ["--ratio-min", "0"]],
                         ids=["count-negative", "count-zero", "min-zero"])
def test_cli_sweep_rejects_bad_ratio_arguments(tmp_path, args):
    out = tmp_path / "sweep"
    assert cli.main(["sweep", str(CONFIG_DIR / "example1_safety.json"),
                     "--out", str(out), *args]) == 2
    assert not (out / "sweep.csv").exists()


def test_cli_sweep_has_no_threads_option(tmp_path, capsys):
    with pytest.raises(SystemExit) as info:
        cli.main(["sweep", str(CONFIG_DIR / "example1_safety.json"),
                  "--out", str(tmp_path), "--threads", "2"])
    assert info.value.code == 2
    assert "--threads" in capsys.readouterr().err


@pytest.mark.parametrize("method, size", [
    ("analytic", {}), ("form", {}), ("mc", {"n": 50_000}),
    ("subset", {"n_per_level": 2000})], ids=["analytic", "form", "mc", "subset"])
def test_cli_runs_where_almost_every_sample_fails(tmp_path, method, size):
    # XR's mean at 0.071 puts pf at 0.999995: crude MC and subset simulation
    # see every sample fail, and their curves are pf(x_i) = 1 exactly, so
    # the EVPPIs are exactly 0; the closed forms give 4.6e-31, 2.1e-17 and
    # 2.3e-142 beside an EVPI of 5.10
    raw = json.loads((CONFIG_DIR / "example1_safety.json").read_text())
    raw["inputs"][2]["mean"] = 0.071
    cfg_path = tmp_path / "pf1.json"
    cfg_path.write_text(json.dumps(dict(raw, method=method, **size)))
    out = tmp_path / "run"
    assert cli.main(["run", str(cfg_path), "--out", str(out)]) == 0
    table = np.genfromtxt(out / "evppi_table.csv", delimiter=",", names=True,
                          dtype=None, encoding="utf-8")
    assert list(table["input"]) == ["R", "S", "XR", "XS"]
    report = json.loads((out / "report.json").read_text())
    assert report["pf"] > 0.99999
    if method in ("analytic", "form"):
        evpi = report["safety"]["evpi"]
        assert evpi > 5.0
        assert np.all((table["absolute"] >= 0.0)
                      & (table["absolute"] <= 1e-15 * evpi))
    else:
        assert np.array_equal(table["absolute"], np.zeros(4))
        assert report["pf"] == 1.0
        for name in ("R", "S", "XR", "XS"):
            curve = np.genfromtxt(out / f"pf_curve_{name}.csv",
                                  delimiter=",", names=True)
            assert np.array_equal(curve["pf"], np.ones(len(curve)))
            assert np.array_equal(curve["density_conditional"],
                                  curve["density_prior"])


def test_cli_form_trial_points_past_the_lognormal_range_warn_nothing(
        tmp_path, capsys):
    # R - 1e9 fails everywhere; FORM's far trial points map R to inf, whose
    # g the line search rejects, and numpy's overflow warning stays silent
    raw = json.loads((CONFIG_DIR / "example1_safety.json").read_text())
    cfg_path = tmp_path / "far.json"
    cfg_path.write_text(json.dumps(dict(raw, method="form",
                                        lsf={"expression": "R - 1e9"})))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert cli.main(["run", str(cfg_path), "--out",
                         str(tmp_path / "run")]) == 0
    assert capsys.readouterr().err == ""


def test_cli_form_curves(tmp_path):
    code = cli.main(["form-curves", "--betas", "3.0902,2.3263",
                     "--cost-ratio", "1e-3", "--mode", "safety",
                     "--out", str(tmp_path)])
    assert code == 0
    rows = (tmp_path / "curves.csv").read_text().splitlines()
    assert rows[0] == "mode,beta,pf,alpha,alpha_sq,evppi"
    assert len(rows) == 1 + 2 * 99
    data = np.array([r.split(",")[1:] for r in rows[1:]], dtype=float)
    # curves for the pf nearest the ratio dominate at every alpha
    b1 = data[data[:, 0] == 3.0902]
    b2 = data[data[:, 0] == 2.3263]
    assert np.all(b1[:, 4] >= b2[:, 4])


def test_cli_form_curves_design_mode(tmp_path):
    code = cli.main(["form-curves", "--betas", "3,4,5", "--mode", "design",
                     "--out", str(tmp_path)])
    assert code == 0
    rows = (tmp_path / "curves.csv").read_text().splitlines()[1:]
    data = np.array([r.split(",")[1:] for r in rows], dtype=float)
    for beta in (3.0, 4.0, 5.0):
        curve = data[data[:, 0] == beta][:, 4]
        # normalized by the alpha = 1 closed-form value: strictly inside (0, 1)
        assert np.all((curve > 0.0) & (curve < 1.0))
        assert np.all(np.diff(curve) >= -1e-12)


# -- CSV files: the bytes csv.writer wrote --------------------------------------

SPECIALS = [math.nan, math.inf, -math.inf, -0.0, 5e-324,
            1.7976931348623157e308]


def _csv_module_bytes(header, rows):
    """The bytes of a file csv.writer writes ``header`` and ``rows`` to,
    each number in its shortest round-trip form."""
    buf = io.StringIO(newline="")
    writer = csv.writer(buf)
    writer.writerow(header)
    writer.writerows([[x if isinstance(x, str) else repr(float(x))
                       for x in row] for row in rows])
    return buf.getvalue().encode()


def _with_specials(values):
    out = np.array(values, dtype=float)
    out[:len(SPECIALS)] = SPECIALS
    return out


def _entries_with_specials(report):
    return replace(report, entries=tuple(
        replace(e, absolute=SPECIALS[k], normalized=SPECIALS[k + 1],
                relative=SPECIALS[k + 2])
        for k, e in enumerate(report.entries)))


def _report_rows(report):
    return [[e.name, e.absolute, e.normalized, e.relative]
            for e in report.entries]


@pytest.mark.parametrize("name", ["example1_safety.json",
                                  "example1_design.json"])
def test_cli_run_csvs_are_what_csv_writer_writes(tmp_path, monkeypatch,
                                                 name):
    results = []

    def run_analysis(cfg):
        result = real(cfg)
        for curve in result.curves.values():
            for key in ("grid", "pf_values", "density_prior"):
                object.__setattr__(curve, key,
                                   _with_specials(getattr(curve, key)))
            object.__setattr__(curve, "density_conditional",
                               _with_specials(curve.density_prior[::-1]))
        if result.safety_report is not None:
            result.safety_report = _entries_with_specials(
                result.safety_report)
        else:
            result.design["report"] = _entries_with_specials(
                result.design["report"])
        results.append(result)
        return result

    real = pipeline.run_analysis
    monkeypatch.setattr(pipeline, "run_analysis", run_analysis)
    out = tmp_path / "run"
    with np.errstate(over="ignore", invalid="ignore"):   # cvppi of inf pf
        assert cli.main(["run", str(CONFIG_DIR / name),
                         "--out", str(out)]) == 0
    result, = results
    cfg = load_config(CONFIG_DIR / name)
    expect = {"evppi_table.csv": _csv_module_bytes(
        ["input", "absolute", "normalized", "relative"],
        _report_rows(result.safety_report or result.design["report"]))}
    for n, curve in result.curves.items():
        expect[f"pf_curve_{n}.csv"] = _csv_module_bytes(
            ["x", "pf", "density_prior", "density_conditional"],
            zip(curve.grid, curve.pf_values, curve.density_prior,
                curve.density_conditional))
        if cfg.safety is not None:
            with np.errstate(over="ignore", invalid="ignore"):
                values = decision.cvppi_curve(curve, cfg.safety)
            expect[f"cvppi_{n}.csv"] = _csv_module_bytes(
                ["x", "cvppi"], zip(curve.grid, values))
    assert sorted(p.name for p in out.glob("*.csv")) == sorted(expect)
    for fname, data in expect.items():
        assert (out / fname).read_bytes() == data, fname
    first_rows = (out / "pf_curve_R.csv").read_bytes().split(b"\r\n")[1:7]
    assert [row.split(b",")[0] for row in first_rows] == [
        b"nan", b"inf", b"-inf", b"-0.0", b"5e-324",
        b"1.7976931348623157e+308"]


def test_cli_sweep_csv_is_what_csv_writer_writes(tmp_path, monkeypatch):
    sweeps = []

    def threshold_sweep(*args):
        rows = real(*args)
        for row, x in zip(rows, SPECIALS):
            row["ratio"] = x
        rows[1]["report"] = _entries_with_specials(rows[1]["report"])
        sweeps.append(rows)
        return rows

    real = decision.threshold_sweep
    monkeypatch.setattr(decision, "threshold_sweep", threshold_sweep)
    assert cli.main(["sweep", str(CONFIG_DIR / "example1_safety.json"),
                     "--out", str(tmp_path), "--ratio-count", "9"]) == 0
    rows, = sweeps
    header = ["ratio"]
    for e in rows[0]["report"].entries:
        header += [f"{e.name}_absolute", f"{e.name}_relative",
                   f"{e.name}_normalized"]
    expect = _csv_module_bytes(header, [
        [row["ratio"], *(x for e in row["report"].entries
                         for x in (e.absolute, e.relative, e.normalized))]
        for row in rows])
    assert (tmp_path / "sweep.csv").read_bytes() == expect


@pytest.mark.parametrize("mode", ["safety", "design"])
def test_cli_form_curves_csv_is_what_csv_writer_writes(tmp_path, monkeypatch,
                                                       mode):
    keys = ["beta", "pf", "alpha", "alpha_sq", "evppi"]
    tables = []

    def form_evppi_curves(*args):
        rows = real(*args)
        for k, key in enumerate(keys):
            for row, x in zip(rows[k:], SPECIALS):
                row[key] = x
        tables.append(rows)
        return rows

    real = pipeline.form_evppi_curves
    monkeypatch.setattr(pipeline, "form_evppi_curves", form_evppi_curves)
    assert cli.main(["form-curves", "--betas", "1,2.5", "--mode", mode,
                     "--out", str(tmp_path)]) == 0
    rows, = tables
    expect = _csv_module_bytes(["mode", *keys],
                               [[mode, *(r[key] for key in keys)]
                                for r in rows])
    assert (tmp_path / "curves.csv").read_bytes() == expect


def test_cli_form_curves_rejects_bad_beta(tmp_path):
    assert cli.main(["form-curves", "--betas", "-1.0",
                     "--out", str(tmp_path)]) == 2


@pytest.mark.parametrize("beta", ["nan", "inf"])
def test_cli_form_curves_rejects_non_finite_beta(tmp_path, beta):
    assert cli.main(["form-curves", "--betas", f"2.0,{beta}",
                     "--out", str(tmp_path)]) == 2
    assert not (tmp_path / "curves.csv").exists()


@pytest.mark.parametrize("mode", ["safety", "design"])
@pytest.mark.parametrize("beta", ["38.5", "40"])
def test_cli_form_curves_rejects_beta_whose_pf_underflows(tmp_path, capsys,
                                                         mode, beta):
    # Phi(-beta) is 0 in double precision beyond beta 37.7
    assert cli.main(["form-curves", "--betas", f"2.0,{beta}", "--mode", mode,
                     "--out", str(tmp_path)]) == 2
    assert not (tmp_path / "curves.csv").exists()
    assert f"beta {float(beta)!r}" in capsys.readouterr().err


def _write_config(path, raw):
    path.write_text(json.dumps(raw))
    return path


@pytest.mark.parametrize("base, overrides", [
    (_base_config(method="mc"), {"n": 1e5, "seed": 5.0}),
    (_base_config(), {"grid_points": 64.0}),
])
def test_float_written_integers_run_like_their_integer_twins(
        tmp_path, base, overrides):
    # JSON Schema counts 1e5 and 5.0 as integers, so the schema admits them
    twin = {k: int(v) for k, v in overrides.items()}
    outs = []
    for sub, values in (("float", overrides), ("int", twin)):
        cfg_path = _write_config(tmp_path / f"{sub}.json", dict(base, **values))
        outs.append(tmp_path / sub)
        assert cli.main(["run", str(cfg_path), "--out", str(outs[-1])]) == 0
    names = sorted(p.name for p in outs[0].glob("*.csv"))
    assert len(names) == 9
    for name in names:
        assert (outs[0] / name).read_bytes() == (outs[1] / name).read_bytes()


def test_float_written_design_count_runs_like_its_integer_twin(tmp_path):
    raw = json.loads((CONFIG_DIR / "example1_design.json").read_text())
    raw["decision"]["design"]["grid"]["count"] = 151.0
    cfg_path = _write_config(tmp_path / "design.json", raw)
    float_out, int_out = tmp_path / "float", tmp_path / "int"
    assert cli.main(["run", str(cfg_path), "--out", str(float_out)]) == 0
    assert cli.main(["run", str(CONFIG_DIR / "example1_design.json"),
                     "--out", str(int_out)]) == 0
    for path in sorted(int_out.glob("*.csv")):
        assert (float_out / path.name).read_bytes() == path.read_bytes()


def _reject_constant(token):
    raise ValueError(f"report.json holds the non-JSON token {token}")


@pytest.mark.parametrize("name", ["example1_safety.json", "example1_design.json"])
def test_report_json_is_strict_json(tmp_path, name):
    out = tmp_path / "run"
    assert cli.main(["run", str(CONFIG_DIR / name), "--out", str(out)]) == 0
    report = json.loads((out / "report.json").read_text(),
                        parse_constant=_reject_constant)
    if report["design"] is not None:
        # the design stage has no EVPI, so no relative EVPPI either
        block = report["design"]["report"]
        assert block["evpi"] is None
        assert [e["relative"] for e in block["entries"]] == [None] * 4
        table = (out / "evppi_table.csv").read_text().splitlines()[1:]
        assert [row.rsplit(",", 1)[1] for row in table] == ["nan"] * 4


# -- the CLI as a separate process ------------------------------------------------

def _relsens(*args, cwd):
    return subprocess.run([sys.executable, "-m", "relsens.cli", *args],
                          env=_child_env(), cwd=cwd, capture_output=True,
                          text=True, timeout=120)


def test_cli_process_exit_codes_and_streams(tmp_path):
    done = _relsens("run", str(CONFIG_DIR / "example1_safety.json"),
                    "--out", "ok", cwd=tmp_path)
    assert done.returncode == 0
    report = json.loads((tmp_path / "ok" / "report.json").read_text())
    assert done.stdout == f"pf = {report['pf']:.6g}; wrote 10 files to ok\n"
    assert done.stderr == ""
    outputs = report["manifest"]["outputs"]
    assert len(outputs) == 9
    for fname, digest in outputs.items():
        data = (tmp_path / "ok" / fname).read_bytes()
        assert hashlib.sha256(data).hexdigest() == digest

    bad = _write_config(tmp_path / "bad.json", _base_config(method="magic"))
    done = _relsens("validate", str(bad), cwd=tmp_path)
    assert done.returncode == 2
    assert done.stdout == ""
    assert done.stderr == ("invalid: method: 'magic' is not one of "
                           "['analytic', 'form', 'mc', 'subset']\n")

    # about 7 failures in 1000 draws: too few for the KDE
    starved = _write_config(tmp_path / "starved.json",
                            _base_config(method="mc", n=1000))
    done = _relsens("run", str(starved), "--out", "starved", cwd=tmp_path)
    assert done.returncode == 3
    assert done.stdout == ""
    assert done.stderr.startswith("numeric failure in run: ")
    assert done.stderr.endswith("\n") and done.stderr.count("\n") == 1
    assert not (tmp_path / "starved").exists()
    done = _relsens("sweep", str(starved), "--out", "starved_sweep",
                    cwd=tmp_path)
    assert done.returncode == 3
    assert done.stdout == ""
    assert done.stderr.startswith("numeric failure in sweep: ")
    assert not (tmp_path / "starved_sweep").exists()


def test_cli_module_skips_interpreter_teardown(tmp_path):
    # an atexit hook runs at teardown; os._exit skips it once main() is done
    code = ("import atexit, runpy, sys\n"
            "atexit.register(print, 'teardown ran')\n"
            "sys.argv = ['relsens', 'validate', sys.argv[1]]\n"
            "runpy.run_module('relsens.cli', run_name='__main__')\n")
    done = subprocess.run(
        [sys.executable, "-c", code, str(CONFIG_DIR / "example1_safety.json")],
        env=_child_env(), cwd=tmp_path, capture_output=True, text=True,
        timeout=120)
    assert done.returncode == 0
    assert done.stdout == ("valid: 4 inputs, method analytic, "
                           "decision blocks: safety\n")


def test_cli_process_exception_still_exits_with_traceback(tmp_path):
    code = ("import relsens.cli as cli\n"
            "def boom(argv=None): raise RuntimeError('escaped main')\n"
            "cli.main = boom\n"
            "cli.entry()\n")
    done = subprocess.run([sys.executable, "-c", code], env=_child_env(),
                          cwd=tmp_path, capture_output=True, text=True,
                          timeout=120)
    assert done.returncode == 1
    assert "Traceback" in done.stderr
    assert done.stderr.rstrip().endswith("RuntimeError: escaped main")


# -- which of the lazily imported modules a command loads ------------------------

_ESTIMATORS = ("relsens.pipeline", "relsens.condest", "relsens.sample",
               "relsens.form")
# what scipy.special's full import would add to its compiled ufuncs
_ARRAY_API_LAYER = ("scipy._lib._array_api", "numpy.f2py", "numpy.testing")
_LAZY_MODULES = ("scipy.special._ufuncs", "scipy.special", "scipy.integrate",
                 "numpy.ma", "numpy.polynomial", *_ESTIMATORS, "hashlib",
                 *_ARRAY_API_LAYER)

_RUN_AND_PROBE_MODULES = f"""
import sys
from relsens import cli
code = cli.main(sys.argv[1:])
print(code, *(m for m in {_LAZY_MODULES!r} if m in sys.modules))
"""


def _probe_modules(tmp_path, *argv):
    """Exit code of ``relsens <argv>`` in a fresh interpreter, and which of
    _LAZY_MODULES got imported."""
    done = subprocess.run(
        [sys.executable, "-c", _RUN_AND_PROBE_MODULES, *argv],
        env=_child_env(), cwd=tmp_path, capture_output=True, text=True,
        timeout=120, check=True)
    code, *loaded = done.stdout.splitlines()[-1].split()
    return int(code), set(loaded)


def _modules_loaded(tmp_path, command, name, **overrides):
    """_probe_modules of ``relsens <command>`` on a shipped config (with
    overrides)."""
    raw = json.loads((CONFIG_DIR / name).read_text())
    path = _write_config(tmp_path / name, dict(raw, **overrides))
    out = (["--out", str(tmp_path / "out")] if command in ("run", "sweep")
           else [])
    return _probe_modules(tmp_path, command, str(path), *out)


# -- scipy.special's ufuncs are loaded only where Phi is evaluated ----------------

def _special_loaded(tmp_path, command, name, **overrides):
    """Exit code, and whether scipy.special._ufuncs got imported."""
    code, loaded = _modules_loaded(tmp_path, command, name, **overrides)
    return code, "scipy.special._ufuncs" in loaded


@pytest.mark.parametrize("name", SHIPPED_CONFIGS[:3])
def test_example1_validate_does_not_import_scipy_special(tmp_path, name):
    assert _special_loaded(tmp_path, "validate", name) == (0, False)


@pytest.mark.parametrize("name, overrides", [
    ("example1_safety.json", {"method": "mc", "n": 200_000}),
    ("example1_safety_dependent.json",
     {"method": "subset", "n_per_level": 2000})])
def test_example1_sampling_runs_do_not_import_scipy_special(tmp_path, name,
                                                            overrides):
    # lognormal maps and the failure-sample KDE evaluate no Phi
    assert _special_loaded(tmp_path, "run", name, **overrides) == (0, False)


@pytest.mark.parametrize("name, overrides", [
    ("example1_safety.json", {"method": "analytic"}),
    ("example1_safety.json", {"method": "form"}),
    ("example2_safety.json", {"n": 200_000})])
def test_runs_that_evaluate_phi_import_scipy_special(tmp_path, name,
                                                     overrides):
    # positive control: the probe above sees the ufuncs once imported
    assert _special_loaded(tmp_path, "run", name, **overrides) == (0, True)


@pytest.mark.parametrize("command, name, overrides", [
    ("run", "example1_safety.json", {"method": "analytic"}),
    ("run", "example1_safety.json", {"method": "form"}),
    ("run", "example1_design.json", {"method": "form"}),
    ("validate", "example2_safety.json", {}),
    ("run", "example2_safety.json", {"n": 200_000}),
    ("sweep", "example1_safety.json", {"method": "form"}),
    ("form-curves", "safety", None),
    ("form-curves", "design", None)])
def test_phi_loads_the_ufuncs_without_the_scipy_special_package(
        tmp_path, command, name, overrides):
    # the package's __init__ would clone numpy in scipy's array-API layer
    if command == "form-curves":
        code, loaded = _probe_modules(tmp_path, command, "--betas", "1,2,3",
                                      "--mode", name, "--out", str(tmp_path))
    else:
        code, loaded = _modules_loaded(tmp_path, command, name, **overrides)
    assert code == 0
    assert "scipy.special._ufuncs" in loaded
    assert loaded.isdisjoint({"scipy.special", *_ARRAY_API_LAYER})


# -- numpy.ma and numpy.polynomial are imported only where they are used -----

@pytest.mark.parametrize("overrides", [
    {"method": "subset", "n_per_level": 2000},
    {"method": "mc", "n": 200_000}])
def test_dependent_sampling_runs_import_no_numpy_ma_or_polynomial(tmp_path,
                                                                  overrides):
    # the subset thresholds and the KDE bandwidth's quartiles are computed
    # without np.quantile, whose np.unique imports numpy.ma; lognormal
    # pairs fit the copula in closed form, without the Gauss-Hermite rule
    code, loaded = _modules_loaded(tmp_path, "run",
                                   "example1_safety_dependent.json",
                                   **overrides)
    assert code == 0
    assert loaded.isdisjoint({"numpy.ma", "numpy.polynomial"})
    # nor does either run import FORM
    assert "relsens.form" not in loaded
    assert {"relsens.pipeline", "relsens.sample", "hashlib"} <= loaded


@pytest.mark.parametrize("name", SHIPPED_CONFIGS[:3])
def test_example1_validate_does_not_import_numpy_polynomial(tmp_path, name):
    code, loaded = _modules_loaded(tmp_path, "validate", name)
    assert (code, "numpy.polynomial" in loaded) == (0, False)


def test_nataf_bisection_imports_numpy_polynomial(tmp_path):
    # positive control: example 2's normal-Gumbel pairs need the rule
    code, loaded = _modules_loaded(tmp_path, "validate",
                                   "example2_safety.json")
    assert (code, "numpy.polynomial" in loaded) == (0, True)


# -- each command imports only the relsens modules it runs ---------------------

@pytest.mark.parametrize("name", SHIPPED_CONFIGS)
def test_validate_imports_no_estimator(tmp_path, name):
    code, loaded = _modules_loaded(tmp_path, "validate", name)
    assert code == 0
    assert loaded.isdisjoint(_ESTIMATORS)
    # only the manifest needs hashlib, and validate writes none
    assert "hashlib" not in loaded


def test_form_run_imports_form_and_pipeline(tmp_path):
    # positive control: the probe sees relsens modules once imported
    code, loaded = _modules_loaded(tmp_path, "run", "example1_safety.json",
                                   method="form")
    assert code == 0
    assert {"relsens.form", "relsens.pipeline"} <= loaded


# -- no command imports scipy.integrate ---------------------------------------

@pytest.mark.parametrize("command", ["validate", "run", "sweep"])
@pytest.mark.parametrize("name, overrides", [
    *((name, {}) for name in SHIPPED_CONFIGS[:3]),
    ("example1_safety.json", {"method": "form"}),
    ("example2_safety.json", {"n": 200_000}),
    ("example1_design.json", {"method": "form"})])
def test_validate_and_run_do_not_import_scipy_integrate(tmp_path, command,
                                                        name, overrides):
    code, loaded = _modules_loaded(tmp_path, command, name, **overrides)
    # sweep takes a safety block only
    refused = command == "sweep" and "design" in name
    assert (code, "scipy.integrate" in loaded) == (2 if refused else 0, False)


def test_form_curves_safety_does_not_import_scipy_integrate(tmp_path):
    # the safety EVPPI is a fixed Gauss-Legendre rule from numpy
    code, loaded = _probe_modules(tmp_path, "form-curves", "--betas", "2",
                                  "--mode", "safety", "--out", str(tmp_path))
    assert (code, "scipy.integrate" in loaded) == (0, False)


_CRUDE_MC_DIGEST = """
import hashlib, sys
from relsens import config, sample
sys.setswitchinterval(1e-6)
cfg = config.load_config(sys.argv[1])
before = "scipy.special._ufuncs" in sys.modules
mc = sample.crude_mc(cfg.joint, cfg.limit_state, cfg.n, cfg.seed)
print(before, mc.workers, mc.n_fail.tolist(),
      hashlib.sha256(mc.failure_samples.tobytes()).hexdigest())
"""


def test_scipy_special_first_imported_on_crude_mc_workers(tmp_path):
    # without the correlation nothing evaluates Phi before sampling, so the
    # Gumbel and Weibull maps load scipy.special's ufuncs on the worker
    # threads; the sample must equal that of a process which imported
    # scipy.special first
    raw = json.loads((CONFIG_DIR / "example2_safety.json").read_text())
    del raw["correlation"]
    path = _write_config(tmp_path / "column.json", dict(raw, n=200_000))

    def digest(prelude=""):
        done = subprocess.run(
            [sys.executable, "-c", prelude + _CRUDE_MC_DIGEST, str(path)],
            env=_child_env(), capture_output=True, text=True, timeout=120,
            check=True)
        return done.stdout.split(maxsplit=1)

    before, lazy = digest()
    assert before == "False"
    before, eager = digest("import scipy.special\n")
    assert before == "True"
    assert lazy == eager
