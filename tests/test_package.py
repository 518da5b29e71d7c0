"""The ``relsens`` namespace: its names resolve lazily, from their modules."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import relsens

SRC_DIR = Path(__file__).resolve().parent.parent / "src"

# every class and function the package exports
EXPORTED = (
    "ConditionalPfCurve", "DesignDecision", "EvppiEntry", "EvppiReport",
    "FormResult", "GaussianCopulaJoint", "KdeModel", "LimitState",
    "LognormalLinearProblem", "Marginal", "McResult", "SafetyDecision",
    "SubsetResult", "conditional_pf_from_failure_samples",
    "conditional_pf_u", "conditional_pf_x", "crude_mc", "cvppi_curve",
    "default_grid", "evaluate", "evpi_safety", "evppi_design",
    "evppi_form_design", "evppi_form_safety", "evppi_report",
    "evppi_safety", "fit_params_from_moments", "kde_fit",
    "lognormal_linear_conditional_pf", "lognormal_linear_index",
    "nataf_fit", "parse", "prior_choice", "prior_design", "solve_form",
    "std_normal_cdf", "std_normal_inv", "std_normal_pdf",
    "subset_simulation", "threshold_sweep", "threshold_u",
    "validate_correlation")


@pytest.mark.parametrize("name", EXPORTED)
def test_exported_name_is_its_modules_object(name):
    obj = getattr(relsens, name)
    module = obj.__module__
    assert module.startswith("relsens.")
    assert getattr(sys.modules[module], name) is obj
    namespace = {}
    exec(f"from relsens import {name}", namespace)
    assert namespace[name] is obj


def test_all_and_dir_list_the_exported_names():
    assert sorted(relsens.__all__) == sorted(EXPORTED)
    listed = dir(relsens)
    assert set(EXPORTED) <= set(listed)
    # and what the module itself defines
    assert {"__version__", "__name__", "__all__"} <= set(listed)
    assert listed == sorted(listed)


def test_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="no_such_name"):
        relsens.no_such_name
    assert not hasattr(relsens, "no_such_name")


def test_import_relsens_loads_no_submodule():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC_DIR)] + [p for p in [env.get("PYTHONPATH")] if p])
    code = ("import sys, relsens; "
            "print(*(m for m in sys.modules if m.startswith('relsens.')))")
    done = subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True, timeout=60,
                          check=True)
    assert done.stdout.split() == []
