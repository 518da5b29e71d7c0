from pathlib import Path

import numpy as np
import pytest

from relsens import (GaussianCopulaJoint, LognormalLinearProblem,
                     fit_params_from_moments, lognormal_linear_index,
                     std_normal_cdf)
from relsens import crude_mc, solve_form
from relsens.config import load_config

CONFIG_DIR = Path(__file__).resolve().parent.parent / "configs"

# component model: R, S, XR, XS all lognormal, g linear in the logs
EX1_MOMENTS = (("R", 100.0, 0.2), ("S", 40.0, 0.25),
               ("XR", 1.0, 0.1), ("XS", 1.0, 0.2))
EX1_SIGNS = np.array([1.0, -1.0, 1.0, -1.0])
EX1_RXX = np.array([[1.0, 0.0, 0.5, 0.0],
                    [0.0, 1.0, 0.0, 0.5],
                    [0.5, 0.0, 1.0, 0.5],
                    [0.0, 0.5, 0.5, 1.0]])

# short column: M1, M2 normal, P gumbel, Y weibull; M/P block correlated
EX2_MOMENTS = (("M1", "normal", 250.0, 0.3), ("M2", "normal", 125.0, 0.3),
               ("P", "gumbel", 2500.0, 0.2), ("Y", "weibull", 40.0, 0.1))
EX2_RXX = np.array([[1.0, 0.5, 0.3, 0.0],
                    [0.5, 1.0, 0.3, 0.0],
                    [0.3, 0.3, 1.0, 0.0],
                    [0.0, 0.0, 0.0, 1.0]])

# frozen closed-form reference values (independent oracle computations)
PF_IND = 0.0073582059410070245
PF_DEP = 0.017257273017773737
BETA0_IND = 2.4392836482690896


def lognormal_linear_pf(problem):
    """The oracle's pf, Phi(-beta), as the analytic method forms it."""
    return std_normal_cdf(-lognormal_linear_index(problem)[0])


@pytest.fixture(scope="session")
def ex1_marginals():
    return tuple(fit_params_from_moments("lognormal", mean, cov)
                 for _, mean, cov in EX1_MOMENTS)


@pytest.fixture(scope="session")
def ex1_joint(ex1_marginals):
    return GaussianCopulaJoint.fit(ex1_marginals)


@pytest.fixture(scope="session")
def ex1_joint_dep(ex1_marginals):
    return GaussianCopulaJoint.fit(ex1_marginals, EX1_RXX)


@pytest.fixture(scope="session")
def ex1_problem(ex1_marginals):
    return LognormalLinearProblem.from_marginals(ex1_marginals, np.eye(4),
                                                 coeffs=EX1_SIGNS)


@pytest.fixture(scope="session")
def ex1_problem_dep(ex1_marginals):
    return LognormalLinearProblem.from_marginals(ex1_marginals, EX1_RXX,
                                                 coeffs=EX1_SIGNS)


@pytest.fixture(scope="session")
def ex1_lsf():
    return load_config(CONFIG_DIR / "example1_safety.json").limit_state


@pytest.fixture(scope="session")
def ex1_design_lsf():
    return load_config(CONFIG_DIR / "example1_design.json").limit_state


@pytest.fixture(scope="session")
def ex2_marginals():
    return tuple(fit_params_from_moments(kind, mean, cov)
                 for _, kind, mean, cov in EX2_MOMENTS)


@pytest.fixture(scope="session")
def ex2_joint(ex2_marginals):
    return GaussianCopulaJoint.fit(ex2_marginals, EX2_RXX)


@pytest.fixture(scope="session")
def ex2_lsf():
    return load_config(CONFIG_DIR / "example2_safety.json").limit_state


@pytest.fixture(scope="session")
def ex2_mc(ex2_joint, ex2_lsf):
    # one large reference run shared by the sampling and acceptance tests
    return crude_mc(ex2_joint, ex2_lsf, n=10**6, seed=2)


@pytest.fixture(scope="session")
def ex1_design_sweep():
    """example1_design as shipped, and its FORM solve at all 151 designs."""
    cfg = load_config(CONFIG_DIR / "example1_design.json")
    return cfg, solve_form(cfg.joint, cfg.limit_state, cfg.design.grid)
