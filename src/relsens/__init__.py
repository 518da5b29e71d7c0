"""relsens: decision-sensitivity metrics for reliability models.

Computes the expected value of partial perfect information (EVPPI) for
the inputs of a reliability model in two decision contexts (safety
assessment and reliability-based design), with analytic, FORM-based and
sampling-based estimators.

``import relsens`` loads no submodule. Each name of ``__all__`` is
imported from its module on first access (PEP 562), so a process loads
only the modules it uses: ``relsens validate`` and the config load need
``cli``, ``config``, ``decision``, ``dists``, ``lsf``, ``special`` and
``errors``, and never compile the estimators (see ``cli``). A submodule
is an attribute of the package only once imported: use
``from relsens import dists`` or ``import relsens.dists``.
"""

import importlib

__version__ = "0.1.0"

_EXPORTS = {
    "condest": ("ConditionalPfCurve", "KdeModel",
                "conditional_pf_from_failure_samples", "default_grid",
                "kde_fit"),
    "decision": ("DesignDecision", "EvppiEntry", "EvppiReport",
                 "SafetyDecision", "cvppi_curve", "evpi_safety",
                 "evppi_design", "evppi_report", "evppi_safety",
                 "prior_choice", "prior_design", "threshold_sweep"),
    "dists": ("GaussianCopulaJoint", "LognormalLinearProblem", "Marginal",
              "fit_params_from_moments", "lognormal_linear_conditional_pf",
              "lognormal_linear_index", "nataf_fit", "validate_correlation"),
    "form": ("FormResult", "conditional_pf_u", "conditional_pf_x",
             "evppi_form_design", "evppi_form_safety", "solve_form",
             "threshold_u"),
    "lsf": ("LimitState", "evaluate", "parse"),
    "sample": ("McResult", "SubsetResult", "crude_mc", "subset_simulation"),
    "special": ("std_normal_cdf", "std_normal_inv", "std_normal_pdf"),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items()
              for name in names}

__all__ = sorted(_MODULE_OF)


def __getattr__(name):
    module = _MODULE_OF.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f"{__name__}.{module}"), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted({*globals(), *__all__})
