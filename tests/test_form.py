import json
import math
import tracemalloc
import warnings
from pathlib import Path

import mpmath
import numpy as np
import pytest
from scipy.special import erf as sp_erf

from relsens import (conditional_pf_u, conditional_pf_x, evpi_safety,
                     evppi_form_design, evppi_form_safety,
                     lognormal_linear_conditional_pf, solve_form,
                     std_normal_cdf, std_normal_inv, threshold_u)
from relsens.condest import default_grid
from relsens.decision import SafetyDecision
from relsens.errors import DomainError, NonFiniteGError, SingularPointError
from relsens.form import copula_rho, find_design_points, standard_space_lsf
from relsens.lsf import LimitState
from relsens.pipeline import ALPHA_GRID
from conftest import BETA0_IND, EX1_SIGNS


def _phi_oracle(x):
    return 0.5 * (1.0 + sp_erf(x / math.sqrt(2.0)))


def _evppi_safety_mpmath(beta0, alpha_i, ratio):
    """Safety EVPPI at c_f = 1: the integral of |pf(u) - r| phi(u) over the
    decision-change half-line, by 50-digit mpmath quadrature."""
    with mpmath.workdps(50):
        b, a, r = mpmath.mpf(beta0), abs(mpmath.mpf(alpha_i)), mpmath.mpf(ratio)
        s = mpmath.sqrt(1 - a * a)
        u_t = (s * mpmath.sqrt(2) * mpmath.erfinv(2 * r - 1) + b) / a
        side = 1 if mpmath.ncdf(-b) <= r else -1
        # breaks at u_t, at the step of pf(u) at beta0/a, and spaced 8-fold
        # from u_t over the widths of that step and of phi(u)'s decay
        # there, on to the normal's bulk
        decay = 1 / max(1, abs(u_t))
        reach = max(32 * decay, 8 - side * u_t)
        step = min(s / a, decay) / 4
        points = [u_t]
        while side * (points[-1] - u_t) < reach:
            points.append(u_t + side * step)
            step *= 8
        if side * (b / a - u_t) > 0:
            points.append(b / a)
        points = sorted(points)
        points = points + [mpmath.inf] if side > 0 else [-mpmath.inf] + points
        k = 1 / (s * mpmath.sqrt(2))

        def integrand(u):
            # relative to phi(u_t): mpmath.quad stops at an absolute error
            # near 1e-50, far above the deep-tail values themselves
            return ((mpmath.erfc((b - a * u) * k) / 2 - r)
                    * mpmath.exp((u_t - u) * (u_t + u) / 2))

        value = mpmath.quad(integrand, points, method="gauss-legendre")
        return abs(value) * mpmath.npdf(u_t)


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
        res = find_design_points(lambda u, rows: beta - u @ alpha,
                                 np.zeros((1, n)))
        assert res.converged
        assert res.beta0[0] == pytest.approx(beta, abs=1e-8)
        assert np.max(np.abs(res.alpha[0] - alpha)) < 1e-7
        assert res.iterations <= 3


@pytest.mark.parametrize("joint, lsf", [("ex1_joint", "ex1_lsf"),
                                        ("ex1_joint_dep", "ex1_lsf"),
                                        ("ex2_joint", "ex2_lsf")])
def test_restart_at_design_point_converges_at_once(joint, lsf, request):
    joint, lsf = request.getfixturevalue(joint), request.getfixturevalue(lsf)
    first = solve_form(joint, lsf)
    again = find_design_points(standard_space_lsf(joint, lsf), first.u_star)
    assert again.converged
    assert again.iterations <= 2
    assert again.beta0[0] == pytest.approx(first.beta0[0], abs=1e-10)


# solve_form(ex1_joint, ex1_lsf) at the commit before G took the trial point
# and its gradient stencil in one batched call (one call per point then),
# printed with float.hex(); independent inputs make the batch exact
EX1_BETA0_BITS = "0x1.383a72537ddd3p+1"
EX1_ALPHA_BITS = ("-0x1.06ab8e1e27e18p-1", "0x1.4692264ef9c6bp-1",
                  "-0x1.089b73be23b21p-2", "0x1.06ab8e1d2ae71p-1")


def test_batched_stencil_reproduces_pointwise_search(ex1_joint, ex1_lsf):
    res = solve_form(ex1_joint, ex1_lsf)
    assert res.beta0[0] == float.fromhex(EX1_BETA0_BITS)
    assert res.alpha[0].tolist() == [float.fromhex(h) for h in EX1_ALPHA_BITS]


def test_lockstep_rows_equal_one_row_solves(ex1_joint, ex1_design_lsf):
    designs = np.linspace(0.5, 2.0, 151)
    sweep = solve_form(ex1_joint, ex1_design_lsf, designs)
    assert sweep.beta0.shape == (151,) and sweep.alpha.shape == (151, 4)
    assert sweep.u_star.shape == (151, 4)
    assert sweep.converged and sweep.row_converged.all()
    assert sweep.iterations == sweep.row_iterations.sum()
    for j, a in enumerate(designs):
        one = solve_form(ex1_joint, ex1_design_lsf, [a])
        assert abs(sweep.beta0[j] - one.beta0[0]) <= 1e-12
        assert np.max(np.abs(sweep.alpha[j] - one.alpha[0])) <= 1e-10
        assert sweep.row_converged[j] == one.converged
        assert sweep.row_iterations[j] == one.iterations


# beta0, alpha and u_star of every row of the example1_design sweep, printed
# with float.hex() at the commit whose line search still halved settled
# rows 30 times; that search made 100 G calls and 23875 G rows
DESIGN_POINTS = json.loads(
    (Path(__file__).resolve().parent / "data" / "form_runs_pinned.json")
    .read_text())["design_points"]


def test_settled_rows_stop_halving(ex1_joint, ex1_design_lsf):
    grid = DESIGN_POINTS["designs"]
    designs = np.linspace(grid["start"], grid["stop"], grid["count"])
    G = standard_space_lsf(ex1_joint, ex1_design_lsf, designs)
    seen = []

    def counting_G(u, rows):
        seen.append(len(u))
        return G(u, rows)

    res = find_design_points(counting_G, np.zeros((len(designs), 4)))
    assert (res.g_calls, res.g_rows) == (len(seen), sum(seen))
    assert res.g_calls <= 12
    assert res.converged and res.row_iterations.sum() == 1045

    def unhex(values):
        return np.vectorize(float.fromhex, otypes=[float])(values)
    assert np.array_equal(res.beta0, unhex(DESIGN_POINTS["beta0"]))
    assert np.array_equal(res.alpha, unhex(DESIGN_POINTS["alpha"]))
    assert np.array_equal(res.u_star, unhex(DESIGN_POINTS["u_star"]))


def test_lockstep_rows_converge_on_their_own_counts(ex1_joint, ex1_design_lsf):
    # capped rounds: rows that converge stop, the rest report False
    designs = np.linspace(0.5, 2.0, 7)
    capped = solve_form(ex1_joint, ex1_design_lsf, designs, max_iterations=6)
    full = solve_form(ex1_joint, ex1_design_lsf, designs)
    assert list(capped.row_converged) == [n <= 6 for n in full.row_iterations]
    assert not capped.converged
    assert np.array_equal(capped.row_iterations,
                          np.minimum(full.row_iterations, 6))


def test_a_non_finite_trial_halves_the_step_of_its_row_alone():
    # row 0: g = sqrt(4 - u_0) - 0.5, not finite beyond u_0 = 4, where its
    # first full step (to u_0 = 6) lands; row 1: a linear g, whose first
    # step is accepted. G raises as lsf.evaluate does.
    alpha = np.array([0.6, 0.8])

    def G(u, rows):
        with np.errstate(invalid="ignore"):
            g = np.where(rows == 0, np.sqrt(4.0 - u[:, 0]) - 0.5,
                         2.0 - u @ alpha)
        bad = ~np.isfinite(g)
        if bad.any():
            raise NonFiniteGError(int(np.argmax(bad)), {})
        return g

    def solo(row):
        return find_design_points(lambda u, rows: G(u, np.full(len(u), row)),
                                  np.zeros((1, 2)))

    both = find_design_points(G, np.zeros((2, 2)))
    assert both.converged
    assert both.beta0[0] == pytest.approx(3.75, abs=1e-8)
    assert both.beta0[1] == pytest.approx(2.0, abs=1e-8)
    for row in (0, 1):
        one = solo(row)
        assert both.beta0[row] == one.beta0[0]
        assert np.array_equal(both.u_star[row], one.u_star[0])
        assert both.row_iterations[row] == one.iterations


@pytest.mark.parametrize("expression, message", [
    ("R - R + 1", "zero gradient at the starting point"),
    ("abs(R - 100) - 300", "zero gradient during iteration")],
    ids=["constant", "flat-beyond-a-kink"])
def test_a_zero_gradient_raises(ex1_joint, expression, message):
    # a constant g is flat at the origin and at the nudged start; |R - 100|
    # has slope there, but the search runs R down towards 0, where g is flat
    limit_state = LimitState.from_expression(expression, ("R", "S", "XR", "XS"))
    with pytest.raises(SingularPointError, match=message):
        solve_form(ex1_joint, limit_state)


def test_form_result_invariants(ex1_joint, ex1_lsf):
    res = solve_form(ex1_joint, ex1_lsf)
    alpha, u_star, beta0 = res.alpha[0], res.u_star[0], res.beta0[0]
    assert res.converged
    assert np.linalg.norm(alpha) == pytest.approx(1.0, abs=1e-8)
    assert np.linalg.norm(u_star) == pytest.approx(beta0, abs=1e-8)
    assert float(alpha @ u_star) == pytest.approx(beta0, abs=1e-6)


def test_example1_form(ex1_joint, ex1_lsf, ex1_marginals):
    res = solve_form(ex1_joint, ex1_lsf)
    assert res.beta0[0] == pytest.approx(BETA0_IND, abs=1e-6)
    expect = _ex1_alpha(ex1_marginals)
    assert np.max(np.abs(res.alpha[0] - expect)) < 1e-6
    assert res.iterations <= 3          # exactly linear in u
    sq = 100 * res.alpha[0]**2
    assert np.max(np.abs(sq - np.array([26, 41, 7, 26]))) < 0.5


def test_example2_form(ex2_joint, ex2_lsf):
    res = solve_form(ex2_joint, ex2_lsf)
    assert res.converged
    assert res.beta0[0] == pytest.approx(2.46602125, abs=2e-6)
    assert np.allclose(res.alpha[0]**2, [0.2406, 0.0802, 0.1453, 0.5339],
                       atol=5e-4)


def test_x_star_consistent(ex1_joint, ex1_lsf):
    # the design point lies on the limit state: G(u*) = g(x(u*)) = 0
    res = solve_form(ex1_joint, ex1_lsf)
    G = standard_space_lsf(ex1_joint, ex1_lsf)
    assert abs(G(res.u_star, np.array([0]))[0]) < 1e-6


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


def test_conditional_pf_u_is_a_step_at_unit_alpha():
    # the limit of Phi((alpha_i u - beta0)/sqrt(1 - alpha_i^2)) at
    # |alpha_i| = 1: failure where alpha_i u > beta0, with no warning
    u = np.array([-1e300, 1.9, 2.0, 2.0 + 1e-15, 1e300])
    step = [0.0, 0.0, 0.5, 1.0, 1.0]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert conditional_pf_u(2.0, 1.0, u).tolist() == step
        assert conditional_pf_u(2.0, -1.0, -u).tolist() == step
        assert conditional_pf_u(2.0, 1.0, 1.9) == 0.0
        # a step row leaves the bits of the other rows alone
        rows = conditional_pf_u(np.array([2.0, 2.0]), np.array([1.0, 0.5]), u)
    assert rows[0].tolist() == step
    assert rows[1].tobytes() == conditional_pf_u(2.0, 0.5, u).tobytes()
    with pytest.raises(DomainError, match="must not exceed 1"):
        conditional_pf_u(2.0, 1.0 + 2**-52, 0.3)


def _sweep_inputs(cfg, res, i):
    """beta0 and rho_i of every design, and z on input i's default grid."""
    m = cfg.marginals[i]
    z = m.to_standard_normal(default_grid(m, cfg.grid_points))
    return res.beta0, res.alpha @ cfg.joint.chol_z[i], z


def test_conditional_pf_u_equals_the_plain_expression_bit_for_bit(
        ex1_design_sweep):
    # one buffer for the argument and Phi: the same operations in the same
    # order as the expression, so the same bits
    cfg, res = ex1_design_sweep
    for i in range(cfg.joint.dim):
        beta0, rho, z = _sweep_inputs(cfg, res, i)
        b, r = beta0[:, None], rho[:, None]
        want = std_normal_cdf((r * z - b) / np.sqrt(1.0 - r * r))
        got = conditional_pf_u(beta0, rho, z)
        assert got.shape == (len(beta0), len(z))
        assert got.tobytes() == want.tobytes()
    b, r = beta0[75], rho[75]
    want = std_normal_cdf((r * z - b) / np.sqrt(1.0 - r * r))
    assert conditional_pf_u(b, r, z).tobytes() == want.tobytes()
    scalar = conditional_pf_u(b, r, z[100])
    assert type(scalar) is float
    assert scalar == std_normal_cdf((r * z[100] - b) / np.sqrt(1.0 - r * r))


def test_conditional_pf_x_of_a_sweep_peaks_near_its_result(ex1_design_sweep):
    cfg, res = ex1_design_sweep
    grid = default_grid(cfg.marginals[0], cfg.grid_points)
    rho = copula_rho(cfg.joint, res)
    conditional_pf_x(cfg.joint, 0, grid, res.beta0, rho)    # warm imports
    tracemalloc.start()
    try:
        out = conditional_pf_x(cfg.joint, 0, grid, res.beta0, rho)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert out.shape == (151, len(grid))
    assert peak < 1.5 * out.nbytes


def test_conditional_pf_x_median_matches_u_zero(ex1_joint, ex1_lsf):
    res = solve_form(ex1_joint, ex1_lsf)
    m = ex1_joint.marginals[0]
    got = conditional_pf_x(ex1_joint, 0,
                           m.from_standard_normal(std_normal_inv(0.5)),
                           res.beta0, copula_rho(ex1_joint, res))
    assert got.shape == (1, 1)
    assert got[0, 0] == pytest.approx(
        conditional_pf_u(res.beta0[0], res.alpha[0, 0], 0.0), rel=1e-12)


def test_conditional_pf_x_monotone_in_resistance(ex1_joint, ex1_lsf):
    res = solve_form(ex1_joint, ex1_lsf)
    r = np.linspace(50.0, 200.0, 200)
    vals = conditional_pf_x(ex1_joint, 0, r, res.beta0,
                            copula_rho(ex1_joint, res))[0]
    assert np.all(np.diff(vals) < 0)


def test_conditional_pf_x_exact_for_linear(ex1_joint, ex1_problem,
                                           ex1_joint_dep, ex1_problem_dep,
                                           ex1_lsf):
    # FORM is exact here, so the curve must match the analytic oracle; with
    # dependent inputs it conditions on the copula coordinate z_i
    for joint, problem in ((ex1_joint, ex1_problem),
                           (ex1_joint_dep, ex1_problem_dep)):
        res = solve_form(joint, ex1_lsf)
        for i, m in enumerate(joint.marginals):
            x = m.from_standard_normal(
                std_normal_inv(np.linspace(0.01, 0.99, 50)))
            got = conditional_pf_x(joint, i, x, res.beta0,
                                   copula_rho(joint, res))[0]
            expect = lognormal_linear_conditional_pf(problem, i, x)
            assert np.max(np.abs(got / expect - 1.0)) < 1e-6


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


# alpha from form-curves' grid, close to 1, and negative
SAFETY_ALPHAS = (*ALPHA_GRID[[0, 49, 98]], 0.999, 0.99999, -0.5)


def _rel_error(got, ref):
    return float(abs(mpmath.mpf(got) / ref - 1))


def test_evppi_safety_closed_equals_quadrature():
    for beta in (0.5, 2.0, 5.0, 12.0):
        for ratio in (1e-5, 1e-3, 1e-2, 0.3):
            for alpha in SAFETY_ALPHAS:
                ref = _evppi_safety_mpmath(beta, alpha, ratio)
                if ref > 1e-30:
                    got = evppi_form_safety(beta, alpha, 1.0, ratio)
                    assert _rel_error(got, ref) <= 1e-12, (beta, alpha, ratio)


@pytest.mark.parametrize("beta", [15.0, 20.0, 30.0])
def test_evppi_safety_high_beta_matches_mpmath(beta):
    # values 1e-55 to 1e-198, which an absolute cut-off (a bivariate
    # normal CDF that drops terms below e^-100) reads orders too high
    for alpha in (0.90, 0.93, 0.95, 0.97, 0.99):
        ref = _evppi_safety_mpmath(beta, alpha, 1e-3)
        got = evppi_form_safety(beta, alpha, 1.0, 1e-3)
        assert _rel_error(got, ref) <= 1e-12, alpha


def test_evppi_safety_alpha_near_one_matches_mpmath():
    # pf(u) steps from r to 1 over a width s/a next to u_t; a quadrature
    # over u itself steps over it and reads up to 1e-3 off here
    for beta in (0.5, 3.0, 8.0):
        for alpha in (1 - 1e-7, 1 - 1e-9, 1 - 1e-12):
            ref = _evppi_safety_mpmath(beta, alpha, 1e-3)
            got = evppi_form_safety(beta, alpha, 1.0, 1e-3)
            assert _rel_error(got, ref) <= 1e-12, (beta, alpha)


def test_evppi_safety_emits_no_warning():
    # cost ratios near 0 and 1, near-ties, and |alpha| near 0 and 1
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for beta in (-30.0, -3.0, 0.0, 3.0, 8.0, 37.5):
            for alpha in (1e-300, 1e-8, 0.3, 0.7, 1 - 1e-9, 1 - 2**-53):
                for ratio in (1e-300, 1e-3, 0.5, 1 - 1e-9, 1 - 2**-53):
                    v = evppi_form_safety(beta, alpha, 1.0, ratio)
                    assert 0.0 <= v <= 1.0
        ratio = 1e-3
        tie = -std_normal_inv(ratio)
        for alpha in (1e-8, 1e-6, 1e-4):
            for beta in (tie - 1e-6, tie, tie + 1e-6):
                assert evppi_form_safety(beta, alpha, 1.0, ratio) >= 0.0


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


@pytest.mark.parametrize("beta0, alpha_i, costs", [
    (math.nan, 0.5, (1e8, 1e6)), (math.inf, 0.5, (1e8, 1e6)),
    (2.4, math.nan, (1e8, 1e6)), (2.4, 1.0 + 1e-15, (1e8, 1e6)),
    (2.4, 0.5, (math.nan, 1e6)), (2.4, 0.5, (1e8, math.nan))],
    ids=["beta-nan", "beta-inf", "alpha-nan", "alpha-above-1", "cf-nan",
         "cr-nan"])
def test_evppi_safety_rejects_nan_and_out_of_range_arguments(beta0, alpha_i,
                                                             costs):
    with pytest.raises(DomainError):
        evppi_form_safety(beta0, alpha_i, *costs)


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


@pytest.mark.parametrize("beta0, alpha_i, c_f", [
    (math.nan, 0.5, 1e8), (-math.inf, 0.5, 1e8), (3.0, math.nan, 1e8),
    (3.0, -1.0 - 1e-15, 1e8), (3.0, 0.5, math.nan), (3.0, 0.5, 0.0)],
    ids=["beta-nan", "beta-inf", "alpha-nan", "alpha-below-minus-1",
         "cf-nan", "cf-zero"])
def test_evppi_design_rejects_nan_and_out_of_range_arguments(beta0, alpha_i,
                                                             c_f):
    with pytest.raises(DomainError):
        evppi_form_design(beta0, alpha_i, c_f)
