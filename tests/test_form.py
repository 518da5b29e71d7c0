import math

import numpy as np
import pytest
from scipy.integrate import quad
from scipy.special import erf as sp_erf

from relsens import (conditional_pf_u, conditional_pf_x, evpi_safety,
                     evppi_form_design, evppi_form_safety, find_design_point,
                     lognormal_linear_conditional_pf, solve_form,
                     std_normal_cdf, threshold_u, threshold_x)
from relsens.decision import SafetyDecision
from relsens.errors import DomainError
from relsens.form import correlated_importance
from conftest import BETA0_IND, EX1_SIGNS


def _phi_oracle(x):
    return 0.5 * (1.0 + sp_erf(x / math.sqrt(2.0)))


def _evppi_safety_quadrature(beta0, alpha_i, c_f, c_r):
    """Integral of |c_f pf(u) - c_r| phi(u) over the decision-change domain."""
    ratio = c_r / c_f
    u_t = threshold_u(beta0, alpha_i, ratio)
    prior_do_nothing = _phi_oracle(-beta0) <= ratio
    if prior_do_nothing == (alpha_i > 0.0):
        lo, hi = u_t, 8.5
    else:
        lo, hi = -8.5, u_t
    if lo >= hi:
        return 0.0
    root = math.sqrt(1.0 - alpha_i * alpha_i)

    def integrand(u):
        pfu = _phi_oracle((alpha_i * u - beta0) / root)
        return abs(c_f * pfu - c_r) * math.exp(-0.5 * u * u) / math.sqrt(2 * math.pi)

    value, _ = quad(integrand, lo, hi, epsabs=1e-13 * c_f, epsrel=1e-12,
                    limit=200)
    return abs(value)


def _ex1_alpha(marginals):
    sig = np.array([m.params[1] for m in marginals])
    sg = math.sqrt(float(np.sum(sig**2)))
    return -EX1_SIGNS * sig / sg


# -- design-point search ----------------------------------------------------------

def test_linear_lsf_recovered_exactly():
    rng = np.random.default_rng(314)
    for _ in range(100):
        n = int(rng.integers(2, 21))
        alpha = rng.standard_normal(n)
        alpha /= np.linalg.norm(alpha)
        beta = rng.uniform(1.0, 4.0)
        res = find_design_point(lambda u: beta - u @ alpha, n)
        assert res.converged
        assert res.beta0 == pytest.approx(beta, abs=1e-8)
        assert np.max(np.abs(res.alpha - alpha)) < 1e-7
        assert res.iterations <= 3


@pytest.mark.parametrize("joint, lsf", [("ex1_joint", "ex1_lsf"),
                                        ("ex1_joint_dep", "ex1_lsf"),
                                        ("ex2_joint", "ex2_lsf")])
def test_restart_at_design_point_converges_at_once(joint, lsf, request):
    joint, lsf = request.getfixturevalue(joint), request.getfixturevalue(lsf)
    first = solve_form(joint, lsf)
    again = solve_form(joint, lsf, u0=first.u_star)
    assert again.converged
    assert again.iterations <= 2
    assert again.beta0 == pytest.approx(first.beta0, abs=1e-10)


# solve_form(ex1_joint, ex1_lsf) at the commit before G took the trial point
# and its gradient stencil in one batched call (one call per point then),
# printed with float.hex(); independent inputs make the batch exact
EX1_BETA0_BITS = "0x1.383a72537ddd3p+1"
EX1_ALPHA_BITS = ("-0x1.06ab8e1e27e18p-1", "0x1.4692264ef9c6bp-1",
                  "-0x1.089b73be23b21p-2", "0x1.06ab8e1d2ae71p-1")


def test_batched_stencil_reproduces_pointwise_search(ex1_joint, ex1_lsf):
    res = solve_form(ex1_joint, ex1_lsf)
    assert res.beta0 == float.fromhex(EX1_BETA0_BITS)
    assert res.alpha.tolist() == [float.fromhex(h) for h in EX1_ALPHA_BITS]


def test_form_result_invariants(ex1_joint, ex1_lsf):
    res = solve_form(ex1_joint, ex1_lsf)
    assert res.converged
    assert np.linalg.norm(res.alpha) == pytest.approx(1.0, abs=1e-8)
    assert np.linalg.norm(res.u_star) == pytest.approx(res.beta0, abs=1e-8)
    assert float(res.alpha @ res.u_star) == pytest.approx(res.beta0, abs=1e-6)


def test_example1_form(ex1_joint, ex1_lsf, ex1_marginals):
    res = solve_form(ex1_joint, ex1_lsf)
    assert res.beta0 == pytest.approx(BETA0_IND, abs=1e-6)
    expect = _ex1_alpha(ex1_marginals)
    assert np.max(np.abs(res.alpha - expect)) < 1e-6
    assert res.iterations <= 3          # exactly linear in u
    sq = 100 * res.alpha**2
    assert np.max(np.abs(sq - np.array([26, 41, 7, 26]))) < 0.5


def test_example2_form(ex2_joint, ex2_lsf):
    res = solve_form(ex2_joint, ex2_lsf)
    assert res.converged
    assert res.beta0 == pytest.approx(2.46602125, abs=2e-6)
    assert np.allclose(res.alpha**2, [0.2406, 0.0802, 0.1453, 0.5339],
                       atol=5e-4)
    # importance mapped back to the physical inputs
    gamma = correlated_importance(res.alpha, ex2_joint.chol_z)
    assert np.max(np.abs(100 * gamma**2 - np.array([7, 7, 20, 65]))) < 2.0
    # independent inputs: importance collapses to alpha
    same = correlated_importance(res.alpha, np.eye(4))
    assert np.allclose(same, res.alpha)


def test_x_star_consistent(ex1_joint, ex1_lsf):
    from relsens import evaluate
    res = solve_form(ex1_joint, ex1_lsf)
    assert abs(evaluate(ex1_lsf, res.x_star)) < 1e-6


# -- conditional probabilities -----------------------------------------------------

def test_conditional_pf_u_flat_when_insensitive():
    u = np.linspace(-4, 4, 9)
    vals = conditional_pf_u(3.0, 0.0, u)
    assert np.allclose(vals, _phi_oracle(-3.0), rtol=1e-14)


def test_conditional_pf_u_half_at_crossing():
    assert conditional_pf_u(2.4, 0.55, 2.4 / 0.55) == pytest.approx(0.5, abs=1e-14)


def test_conditional_pf_u_load_example():
    got = conditional_pf_u(2.4393, 0.6378, 0.0)
    expect = _phi_oracle(-2.4393 / math.sqrt(1 - 0.6378**2))
    assert got == pytest.approx(expect, rel=1e-12)
    assert got == pytest.approx(7.7e-4, rel=2e-2)


def test_conditional_pf_u_degenerate():
    with pytest.raises(DomainError):
        conditional_pf_u(2.0, 1.0, 0.3)


def test_conditional_pf_x_median_matches_u_zero(ex1_joint, ex1_lsf):
    res = solve_form(ex1_joint, ex1_lsf)
    m = ex1_joint.marginals[0]
    got = conditional_pf_x(ex1_joint, 0, m.median, res)
    assert got == pytest.approx(conditional_pf_u(res.beta0, res.alpha[0], 0.0),
                                rel=1e-12)


def test_conditional_pf_x_monotone_in_resistance(ex1_joint, ex1_lsf):
    res = solve_form(ex1_joint, ex1_lsf)
    r = np.linspace(50.0, 200.0, 200)
    vals = conditional_pf_x(ex1_joint, 0, r, res)
    assert np.all(np.diff(vals) < 0)


def test_conditional_pf_x_exact_for_linear(ex1_joint, ex1_lsf, ex1_problem):
    # FORM is exact here, so the curve must match the analytic oracle
    res = solve_form(ex1_joint, ex1_lsf)
    for i, m in enumerate(ex1_joint.marginals):
        x = m.inv_cdf(np.linspace(0.01, 0.99, 50))
        got = conditional_pf_x(ex1_joint, i, x, res)
        expect = lognormal_linear_conditional_pf(ex1_problem, i, x)
        assert np.max(np.abs(got / expect - 1.0)) < 1e-6


def test_conditional_pf_x_rejects_dependent(ex2_joint, ex2_lsf):
    res = solve_form(ex2_joint, ex2_lsf)
    with pytest.raises(DomainError):
        conditional_pf_x(ex2_joint, 0, 250.0, res)


# -- thresholds ---------------------------------------------------------------------

def test_threshold_full_sensitivity_is_beta():
    assert threshold_u(2.4, 1.0, 0.01) == pytest.approx(2.4, abs=1e-12)


def test_threshold_defining_property():
    for alpha in (-0.7, -0.2, 0.3, 0.9):
        for ratio in (1e-3, 1e-2, 0.2):
            ut = threshold_u(2.4393, alpha, ratio)
            assert conditional_pf_u(2.4393, alpha, ut) == pytest.approx(
                ratio, rel=1e-10)


def test_threshold_load_value():
    ut = threshold_u(2.4393, 0.6378, 1e-2)
    assert ut == pytest.approx(1.0155, abs=1e-3)


def test_threshold_x_is_marginal_map(ex1_joint, ex1_lsf):
    res = solve_form(ex1_joint, ex1_lsf)
    i = 1
    ut = threshold_u(res.beta0, res.alpha[i], 1e-2)
    xt = threshold_x(ex1_joint, i, res.beta0, res.alpha[i], 1e-2)
    assert xt == pytest.approx(
        float(ex1_joint.marginals[i].from_standard_normal(ut)), rel=1e-12)


def test_threshold_errors():
    with pytest.raises(DomainError):
        threshold_u(2.4, 0.0, 0.01)
    with pytest.raises(DomainError):
        threshold_u(2.4, 0.5, 1.5)


# -- safety EVPPI ----------------------------------------------------------------------

def test_evppi_safety_zero_alpha():
    assert evppi_form_safety(2.4393, 0.0, 1e8, 1e6) == 0.0


def test_evppi_safety_reference_values(ex1_marginals):
    alpha = _ex1_alpha(ex1_marginals)
    expect = np.array([349.0, 454.0, 131.0, 349.0])
    for a, e in zip(alpha, expect):
        got = evppi_form_safety(BETA0_IND, a, 1e8, 1e6)
        assert got / 1e3 == pytest.approx(e, rel=1e-2)


def test_evppi_safety_closed_equals_quadrature():
    for beta in np.linspace(1.0, 5.0, 10):
        for alpha in np.linspace(0.0, 0.99, 10):
            for ratio in (1e-4, 1e-3, 1e-2):
                closed = evppi_form_safety(beta, alpha, 1.0, ratio)
                if closed <= 1e-12:
                    continue
                quadr = _evppi_safety_quadrature(beta, alpha, 1.0, ratio)
                assert quadr == pytest.approx(closed, rel=1e-8), (beta, alpha, ratio)


def test_evppi_safety_sign_flip_invariant():
    rng = np.random.default_rng(8)
    for _ in range(50):
        beta = rng.uniform(1.0, 4.5)
        alpha = rng.uniform(0.05, 0.99)
        ratio = 10 ** rng.uniform(-4, -1)
        plus = evppi_form_safety(beta, alpha, 1e8, ratio * 1e8)
        minus = evppi_form_safety(beta, -alpha, 1e8, ratio * 1e8)
        assert minus == pytest.approx(plus, rel=1e-10, abs=1e-12)


def test_evppi_safety_bounded_by_evpi():
    for beta in np.linspace(1.0, 5.0, 10):
        pf = std_normal_cdf(-beta)
        for alpha in np.linspace(-0.99, 0.99, 9):
            for ratio in (1e-4, 1e-3, 1e-2):
                d = SafetyDecision(c_f=1e8, c_r=ratio * 1e8)
                v = evppi_form_safety(beta, alpha, 1e8, ratio * 1e8)
                assert 0.0 <= v <= evpi_safety(pf, d) * (1 + 1e-12)


def test_evppi_safety_full_information_limit():
    # |alpha| = 1: learning the input resolves the decision entirely
    beta, ratio = 2.4393, 1e-2
    pf = std_normal_cdf(-beta)
    v = evppi_form_safety(beta, 1.0, 1e8, 1e6)
    d = SafetyDecision(c_f=1e8, c_r=1e6)
    assert v == pytest.approx(evpi_safety(pf, d), rel=1e-12)


# -- design EVPPI ------------------------------------------------------------------------

def test_evppi_design_zero_alpha():
    assert evppi_form_design(3.0, 0.0, 1e8) == 0.0


def test_evppi_design_full_sensitivity_limit():
    got = evppi_form_design(3.0, 1.0, 1.0)
    phi3 = math.exp(-4.5) / math.sqrt(2 * math.pi)
    expect = _phi_oracle(-3.0) + 3.0 * phi3
    assert got == pytest.approx(expect, rel=1e-12)
    assert got == pytest.approx(0.014646, abs=5e-6)
    # continuity: alpha just below 1 approaches the limit
    assert evppi_form_design(3.0, 1.0 - 1e-13, 1.0) == pytest.approx(got, rel=1e-5)


def test_evppi_design_monotone_in_alpha():
    for beta in (2.0, 3.0, 4.0):
        vals = [evppi_form_design(beta, a, 1.0)
                for a in np.linspace(0.0, 1.0, 99)]
        assert np.all(np.diff(vals) >= -1e-15)
        assert all(v >= 0.0 for v in vals)


def test_evppi_design_normalized_curves_collapse():
    # normalized by the alpha^2 = 1 value the curves nearly coincide
    a2 = np.linspace(0.01, 1.0, 99)
    curves = []
    for beta in (3.0, 4.0, 5.0):
        ref = evppi_form_design(beta, 1.0, 1.0)
        curves.append([evppi_form_design(beta, math.sqrt(s), 1.0) / ref
                       for s in a2])
    curves = np.array(curves)
    spread = np.max(curves.max(axis=0) - curves.min(axis=0))
    assert spread < 0.05
