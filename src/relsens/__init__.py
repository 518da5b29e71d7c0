"""relsens: decision-sensitivity metrics for reliability models.

Computes the expected value of partial perfect information (EVPPI) for
the inputs of a reliability model in two decision contexts (safety
assessment and reliability-based design), with analytic, FORM-based and
sampling-based estimators.
"""

__version__ = "0.1.0"

from .condest import (ConditionalPfCurve, KdeModel,
                      conditional_pf_from_failure_samples, default_grid,
                      kde_fit)
from .decision import (DesignDecision, EvppiEntry, EvppiReport,
                       SafetyDecision, cvppi_curve, evpi_safety,
                       evppi_design, evppi_report, evppi_safety,
                       prior_choice, prior_design, threshold_sweep)
from .dists import (GaussianCopulaJoint, LognormalLinearProblem, Marginal,
                    fit_params_from_moments, lognormal_linear_conditional_pf,
                    lognormal_linear_index, nataf_fit, validate_correlation)
from .form import (FormResult, conditional_pf_u, conditional_pf_x,
                   evppi_form_design, evppi_form_safety, solve_form,
                   threshold_u)
from .lsf import LimitState, evaluate, parse
from .sample import McResult, SubsetResult, crude_mc, subset_simulation
from .special import std_normal_cdf, std_normal_inv, std_normal_pdf

__all__ = [name for name in dir() if not name.startswith("_")]
