import json
import hashlib
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from relsens import cli
from relsens.config import load_config, validate_config
from relsens.errors import ConfigError

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
        "lsf": {"builtin": "example1_safety"},
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


_LOAD_AND_LIST_SCIPY = """
import sys
import relsens.cli
from relsens.config import load_config
load_config(sys.argv[1])
print(" ".join(m for m in ("scipy.optimize", "scipy.integrate")
               if m in sys.modules))
"""


def _scipy_modules_after_load(config_name, prelude=""):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC_DIR)] + [p for p in [env.get("PYTHONPATH")] if p])
    out = subprocess.run(
        [sys.executable, "-c", prelude + _LOAD_AND_LIST_SCIPY,
         str(CONFIG_DIR / config_name)],
        env=env, capture_output=True, text=True, check=True)
    return out.stdout.split()


@pytest.mark.parametrize("name", SHIPPED_CONFIGS)
def test_configs_load_without_scipy_optimize(name):
    # lognormal fits are closed form; the Weibull shape and the other Nataf
    # pairs of example 2 are bisected in relsens.dists
    assert _scipy_modules_after_load(name) == []


def test_scipy_module_probe_sees_an_imported_module():
    # positive control: the probe above does report a module once loaded
    found = _scipy_modules_after_load("example2_safety.json",
                                      prelude="import scipy.optimize\n")
    assert "scipy.optimize" in found


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
    raw = _base_config(lsf={"builtin": "example1_design"})
    with pytest.raises(ConfigError, match="design parameter"):
        validate_config(raw)


def test_schema_violation_has_field_path():
    raw = _base_config(method="magic")
    with pytest.raises(ConfigError, match="method"):
        validate_config(raw)


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
    assert report["manifest"]["stage_diagnostics"] == stages

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
    for diag in per_input.values():
        assert diag["n_failure_samples"] == n_fail
        assert 0.0 < diag["ess"] <= n_fail
        assert 0.0 <= diag["clip_fraction"] <= 1.0


def test_cli_run_seed_override_changes_mc(tmp_path):
    base = _base_config(method="mc", n=50_000, seed=11)
    cfg_path = tmp_path / "mc.json"
    cfg_path.write_text(json.dumps(base))
    a, b = tmp_path / "a", tmp_path / "b"
    assert cli.main(["run", str(cfg_path), "--out", str(a)]) == 0
    assert cli.main(["run", str(cfg_path), "--out", str(b), "--seed", "12"]) == 0
    assert (a / "evppi_table.csv").read_bytes() != (b / "evppi_table.csv").read_bytes()


def test_cli_run_threads_equivalent(tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    assert cli.main(["run", str(CONFIG_DIR / "example1_safety.json"),
                     "--out", str(a)]) == 0
    assert cli.main(["run", str(CONFIG_DIR / "example1_safety.json"),
                     "--out", str(b), "--threads", "4"]) == 0
    assert (a / "evppi_table.csv").read_bytes() == (b / "evppi_table.csv").read_bytes()


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
    # FORM is exact on the lognormal-linear model, warm-started or not
    _, form_report = _run_design_form(tmp_path, "form")
    assert "warning" not in capsys.readouterr().err
    analytic = tmp_path / "analytic"
    assert cli.main(["run", str(CONFIG_DIR / "example1_design.json"),
                     "--method", "analytic", "--out", str(analytic)]) == 0
    analytic_report = json.loads((analytic / "report.json").read_text())
    assert form_report["design"]["a_opt"] == analytic_report["design"]["a_opt"]
    got = form_report["design"]["report"]["entries"]
    expect = analytic_report["design"]["report"]["entries"]
    assert [e["name"] for e in got] == [e["name"] for e in expect]
    for e_form, e_exact in zip(got, expect):
        assert abs(e_form["normalized"] - e_exact["normalized"]) <= 1e-8
    diag = form_report["diagnostics"]["form"]
    assert diag["solves"] == 152        # 151 designs plus the one at a_opt
    assert diag["not_converged"] == []
    # warm starts take about 4 iterations per solve here, 7 from the origin
    assert diag["solves"] <= diag["iterations"] < 5 * diag["solves"]


def test_cli_reports_form_non_convergence(tmp_path, capsys, monkeypatch):
    from relsens import form

    solve = form.solve_form
    monkeypatch.setattr(form, "solve_form",
                        lambda *a, **k: solve(*a, max_iterations=1, **k))
    _, report = _run_design_form(tmp_path, "capped")
    # one HL-RF step cannot pass the step-size test from any start here
    grid = load_config(CONFIG_DIR / "example1_design.json").design.grid.tolist()
    failed = report["diagnostics"]["form"]["not_converged"]
    assert failed == [*grid, "reliability"]
    warnings = [line for line in capsys.readouterr().err.splitlines()
                if line.startswith("warning:")]
    assert warnings == ["warning: FORM search did not converge for: "
                        + ", ".join(map(str, failed))]


def test_cli_design_form_threads_byte_identical(tmp_path):
    one, _ = _run_design_form(tmp_path, "one", "--threads", "1")
    two, _ = _run_design_form(tmp_path, "two", "--threads", "2")
    names = sorted(p.name for p in one.glob("*.csv"))
    assert names == sorted(p.name for p in two.glob("*.csv"))
    assert len(names) == 5
    for name in names:
        assert (one / name).read_bytes() == (two / name).read_bytes()


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


def test_cli_form_curves_rejects_bad_beta(tmp_path):
    assert cli.main(["form-curves", "--betas", "-1.0",
                     "--out", str(tmp_path)]) == 2
