"""Design-point search and the FORM-based closed forms.

The search is the improved HL-RF iteration: the classic update direction
safeguarded by an Armijo line search on the merit function
m(u) = ||u||^2/2 + c |G(u)| with adaptive penalty c. G is evaluated on
rows of points: each trial point and its central-difference gradient
stencil in standard-normal space go through G in one call.

Sign convention: alpha = -grad G(u*)/||grad G(u*)||, so the linearized
limit state is G1(U) = beta0 - alpha.U and beta0 = alpha.u*.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import lsf as lsf_mod
from . import special
from .errors import DomainError, SingularPointError


@dataclass(frozen=True)
class FormResult:
    beta0: float
    alpha: np.ndarray
    u_star: np.ndarray
    x_star: np.ndarray
    iterations: int
    converged: bool
    grad_norm: float


def standard_space_lsf(joint, limit_state, a=None):
    """G(u) = g(to_physical(u), a) on rows of u (a 1-D u gives a float)."""
    def G(u):
        return lsf_mod.evaluate(limit_state, joint.to_physical(u), a)
    return G


def find_design_point(G, n, u0=None, max_iterations=100, fd_step=1e-5,
                      tol_u=1e-6, tol_g=1e-6):
    """Most likely failure point of G in n-dimensional standard space.

    G takes a 2-D array of points (one per row) and returns one value per
    row. Each trial point is evaluated in one call together with its 2n
    central-difference stencil points, which give the gradient there.

    Returns converged=False with the last iterate after
    ``max_iterations``; a vanishing gradient raises SingularPointError.
    """
    offsets = np.vstack([np.zeros(n), np.eye(n), -np.eye(n)]) * fd_step

    def g_and_grad(u):
        vals = np.asarray(G(u + offsets), dtype=float)
        return float(vals[0]), (vals[1:n + 1] - vals[n + 1:]) / (2.0 * fd_step)

    u = np.zeros(n) if u0 is None else np.asarray(u0, dtype=float).copy()
    g0_scale = 1.0 + abs(float(G(np.zeros((1, n)))[0]))

    gu, gr = g_and_grad(u)
    if np.linalg.norm(gr) < 1e-14:
        # symmetric LSFs often have zero slope exactly at the origin
        u = u + 1e-3
        gu, gr = g_and_grad(u)
        if np.linalg.norm(gr) < 1e-14:
            raise SingularPointError("zero gradient at the starting point")

    converged = False
    iterations = 0
    for iterations in range(1, max_iterations + 1):
        gn2 = float(gr @ gr)
        u_hlrf = ((gr @ u - gu) / gn2) * gr
        d = u_hlrf - u
        # merit with penalty always dominating the constraint multiplier
        c = 2.0 * np.linalg.norm(u) / math.sqrt(gn2) + 10.0
        m0 = 0.5 * float(u @ u) + c * abs(gu)
        step = 1.0
        for _ in range(30):
            u_new = u + step * d
            g_new, gr_new = g_and_grad(u_new)
            if 0.5 * float(u_new @ u_new) + c * abs(g_new) <= m0 - 1e-12 * m0:
                break
            step *= 0.5
        else:
            u_new = u + step * d
            g_new, gr_new = g_and_grad(u_new)
        du = np.linalg.norm(u_new - u)
        u, gu, gr = u_new, g_new, gr_new
        if np.linalg.norm(gr) < 1e-14:
            raise SingularPointError("zero gradient during iteration")
        if du <= tol_u and abs(gu) <= tol_g * g0_scale:
            converged = True
            break

    grad_norm = float(np.linalg.norm(gr))
    alpha = -gr / grad_norm
    beta0 = float(alpha @ u)
    return FormResult(beta0=beta0, alpha=alpha, u_star=u.copy(),
                      x_star=np.array([]), iterations=iterations,
                      converged=converged, grad_norm=grad_norm)


def solve_form(joint, limit_state, a=None, **kwargs):
    """find_design_point on a physical problem; fills in x_star."""
    G = standard_space_lsf(joint, limit_state, a)
    res = find_design_point(G, joint.dim, **kwargs)
    return FormResult(beta0=res.beta0, alpha=res.alpha, u_star=res.u_star,
                      x_star=np.asarray(joint.to_physical(res.u_star)),
                      iterations=res.iterations, converged=res.converged,
                      grad_norm=res.grad_norm)


def correlated_importance(alpha, chol_z):
    """Input-importance factors for dependent inputs.

    Maps the standard-space sensitivities back through the copula factor
    (gamma = alpha L^-1, normalized); reduces to alpha itself when the
    inputs are independent.
    """
    g = np.asarray(alpha, dtype=float) @ np.linalg.inv(chol_z)
    return g / np.linalg.norm(g)


# ---------------------------------------------------------------------------
# conditional failure probabilities and thresholds
# ---------------------------------------------------------------------------

def conditional_pf_u(beta0, alpha_i, u_i):
    """FORM failure probability conditional on U_i = u_i."""
    if abs(alpha_i) >= 1.0:
        raise DomainError("conditional pf is a step function at |alpha_i| = 1")
    u_i = np.asarray(u_i, dtype=float)
    out = np.asarray(special.std_normal_cdf(
        (alpha_i * u_i - beta0) / math.sqrt(1.0 - alpha_i * alpha_i)))
    return out if out.ndim else float(out)


def conditional_pf_x(joint, i, x_i, form_result):
    """FORM failure probability conditional on X_i = x_i.

    Only valid when the inputs are independent (the marginal map then
    equals the full transform for component i).
    """
    if not joint.independent:
        raise DomainError(
            "conditional_pf_x requires independent inputs; "
            "use the failure-sample estimator for dependent models")
    z = joint.marginals[i].to_standard_normal(x_i)
    return conditional_pf_u(form_result.beta0, form_result.alpha[i], z)


def threshold_u(beta0, alpha_i, cr_over_cf):
    """u_i at which the conditional failure probability equals cr/cf."""
    if alpha_i == 0.0:
        raise DomainError("alpha_i = 0: no threshold (the curve is flat)")
    if not 0.0 < cr_over_cf < 1.0:
        raise DomainError("cost ratio must lie in (0, 1)")
    s = math.sqrt(max(0.0, 1.0 - alpha_i * alpha_i))
    return (s * special.std_normal_inv(cr_over_cf) + beta0) / alpha_i


def threshold_x(joint, i, beta0, alpha_i, cr_over_cf):
    """Physical threshold on X_i (independent inputs)."""
    if not joint.independent:
        raise DomainError("threshold_x requires independent inputs")
    u = threshold_u(beta0, alpha_i, cr_over_cf)
    return float(joint.marginals[i].from_standard_normal(u))


# ---------------------------------------------------------------------------
# EVPPI closed forms
# ---------------------------------------------------------------------------

def _sign_factor(pf, ratio, alpha_i):
    s = (pf - ratio) * alpha_i
    if s == 0.0:
        return -1.0
    return math.copysign(1.0, s)


def evppi_form_safety(beta0, alpha_i, c_f, c_r):
    """Value of learning input i in the accept/replace decision.

    The bivariate-normal closed form of the integral of
    |c_f pf(u) - c_r| phi(u) over the decision-change domain, where
    pf(u) = Phi((alpha_i u - beta0) / sqrt(1 - alpha_i^2)); invariant to
    the sign of alpha_i.
    """
    if not c_f > c_r > 0.0:
        raise DomainError("costs must satisfy c_f > c_r > 0")
    if alpha_i == 0.0:
        return 0.0
    ratio = c_r / c_f
    pf = special.std_normal_cdf(-beta0)
    u_t = threshold_u(beta0, alpha_i, ratio)
    s = _sign_factor(pf, ratio, alpha_i)
    p2 = special.bivariate_normal_cdf(-beta0, s * u_t, -s * alpha_i)
    return abs(c_f * p2 - c_r * special.std_normal_cdf(s * u_t))


def evppi_form_design(beta0, alpha_i, c_f):
    """Value of learning input i in the affine design problem.

    Uses the design cost calibrated so the prior optimum sits at a = 0;
    nonnegative and nondecreasing in |alpha_i|, zero at alpha_i = 0.
    """
    if c_f <= 0.0:
        raise DomainError("c_f must be positive")
    a2 = alpha_i * alpha_i
    if a2 > 1.0:
        raise DomainError("|alpha_i| must not exceed 1")
    pf0 = special.std_normal_cdf(-beta0)
    dens = special.std_normal_pdf(beta0)
    if a2 == 0.0:
        return 0.0
    if a2 == 1.0:
        # limit: b -> inf while b*sqrt(1-a2) -> 0 and Phi(-b) -> 0
        return (pf0 + dens * beta0) * c_f
    b = math.sqrt(beta0 * beta0 - math.log1p(-a2))
    value = (pf0 + dens * (beta0 - b * math.sqrt(1.0 - a2))
             - special.std_normal_cdf(-b))
    return max(0.0, value * c_f)
