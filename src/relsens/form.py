"""Design-point search and the FORM-based closed forms.

The search is the improved HL-RF iteration: the classic update direction
safeguarded by an Armijo line search on the merit function
m(u) = ||u||^2/2 + c |G(u)| with adaptive penalty c. It runs in lockstep
over a set of independent problems, one per row, such as the values of
a design grid: every round makes one G call that holds each unconverged
row's trial point with its central-difference gradient stencil in
standard-normal space, and a trial the Armijo test rejects is retried at
half the step for that row alone. A row whose full step is already within
TOL_U and whose |G| is within TOL_G (1 + |G(0)|) is settled: if its
full-step trial is rejected, it keeps its current point, which already
meets the convergence test, instead of halving down to the rounding floor.
Results always have one row per problem; a design-free limit state is the
one-row case.

Sign convention: alpha = -grad G(u*)/||grad G(u*)||, so the linearized
limit state is G1(U) = beta0 - alpha.U and beta0 = alpha.u*.

Conditioning on one input happens in copula space. The copula maps U to
Z = L U (L the Cholesky factor of the copula correlation), and X_i is a
monotone function of Z_i alone, so conditioning on X_i = x_i is
conditioning on Z_i = z_i. Z_i and alpha.U are standard normals with
correlation rho_i = (L alpha)_i, which gives every joint model the one
formula pf(z_i) = Phi((rho_i z_i - beta0) / sqrt(1 - rho_i^2)). With
independent inputs L = I and rho_i = alpha_i.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from . import lsf as lsf_mod
from . import special
from .errors import DomainError, NonFiniteGError, SingularPointError

FD_STEP = 1e-5                  # central-difference step in standard space
TOL_U = 1e-6                    # converged: step length at most this
TOL_G = 1e-6                    # ... and |G| at most this times 1 + |G(0)|


@dataclass(frozen=True)
class FormResult:
    """Design points of a lockstep search, one row per problem.

    ``beta0`` has one entry per row, and ``alpha`` and ``u_star`` have one
    row of n values per row. ``row_iterations`` and ``row_converged`` hold
    each row's iteration count and convergence flag; ``iterations`` is
    their total and ``converged`` is true when every row converged.
    ``g_calls`` and ``g_rows`` count the G calls of the search and the
    points they held, the G(0) scale call included.
    """

    beta0: np.ndarray
    alpha: np.ndarray
    u_star: np.ndarray
    iterations: int
    converged: bool
    row_iterations: np.ndarray
    row_converged: np.ndarray
    g_calls: int
    g_rows: int


def standard_space_lsf(joint, limit_state, a=None):
    """G(u, rows) = g(to_physical(u), a) on rows of u.

    ``a`` is None for a design-free limit state, or a 1-D array of design
    values; point k of u then belongs to design rows[k].
    """
    designs = None if a is None else np.asarray(a, dtype=float)

    def G(u, rows):
        return lsf_mod.evaluate(limit_state, joint.to_physical(u),
                                None if designs is None else designs[rows])
    return G


def _rowdot(a, b):
    # one BLAS dot per row: each row gets the bits of its own 1-D a @ b
    return (a[:, None, :] @ b[:, :, None])[:, 0, 0]


def find_design_points(G, u0, max_iterations=100):
    """Most likely failure points of m problems in n-dimensional standard
    space, searched in lockstep from the rows of ``u0`` (shape (m, n)).

    G(u, rows) maps points u (k, n), point k belonging to problem rows[k],
    to one value per point. A row that has not converged after
    ``max_iterations`` keeps its last iterate with row_converged False; a
    vanishing gradient in any row raises SingularPointError. Returns a
    FormResult with one row per problem.

    Each round tries every active row's full step first. A rejected row
    halves its step, up to 30 times, unless it is settled: its full step
    is at most TOL_U long and its |G| at most TOL_G (1 + |G(0)|). A
    settled row keeps its current point, so it converges in that round.
    A trial whose point or stencil gives a non-finite G is rejected for its
    row alone: G is evaluated again without that row's points.
    """
    u = np.array(u0, dtype=float)
    m, n = u.shape
    offsets = np.vstack([np.zeros(n), np.eye(n), -np.eye(n)]) * FD_STEP
    k = len(offsets)
    g_calls = g_rows = 0

    def g_of(points, rows):
        nonlocal g_calls, g_rows
        g_calls += 1
        g_rows += len(points)
        return np.asarray(G(points, rows), dtype=float)

    def g_and_grad(points, rows):
        vals = g_of((points[:, None, :] + offsets).reshape(-1, n),
                    np.repeat(rows, k)).reshape(-1, k)
        return vals[:, 0], (vals[:, 1:n + 1] - vals[:, n + 1:]) / (2.0 * FD_STEP)

    def trial_g_and_grad(points, rows):
        # G = inf fails the Armijo test; exc.row counts k points per row
        g, grad = np.full(len(points), np.inf), np.zeros_like(points)
        live = np.arange(len(points))
        while live.size:
            try:
                g[live], grad[live] = g_and_grad(points[live], rows[live])
                break
            except NonFiniteGError as exc:
                live = np.delete(live, exc.row // k)
        return g, grad

    rows = np.arange(m)
    g0_scale = 1.0 + np.abs(g_of(np.zeros((m, n)), rows))

    gu, gr = g_and_grad(u, rows)
    flat = np.sqrt(_rowdot(gr, gr)) < 1e-14
    if flat.any():
        # symmetric LSFs often have zero slope exactly at the origin
        u[flat] += 1e-3
        gu[flat], gr[flat] = g_and_grad(u[flat], rows[flat])
        if np.any(np.sqrt(_rowdot(gr[flat], gr[flat])) < 1e-14):
            raise SingularPointError("zero gradient at the starting point")

    row_iterations = np.full(m, max_iterations)
    converged = np.zeros(m, dtype=bool)
    active = rows
    for iteration in range(1, max_iterations + 1):
        ua, ga, gra = u[active], gu[active], gr[active]
        gn2 = _rowdot(gra, gra)
        d = ((_rowdot(gra, ua) - ga) / gn2)[:, None] * gra - ua
        # merit with penalty always dominating the constraint multiplier
        uu = _rowdot(ua, ua)
        c = 2.0 * np.sqrt(uu) / np.sqrt(gn2) + 10.0
        m0 = 0.5 * uu + c * np.abs(ga)
        g_tol = TOL_G * g0_scale[active]
        settled = (np.sqrt(_rowdot(d, d)) <= TOL_U) & (np.abs(ga) <= g_tol)
        step = np.ones(len(active))
        u_new, g_new, gr_new = (np.empty_like(ua), np.empty_like(ga),
                                np.empty_like(gra))
        todo = np.arange(len(active))
        for _ in range(30):
            trial = ua[todo] + step[todo, None] * d[todo]
            g_t, gr_t = trial_g_and_grad(trial, active[todo])
            ok = (0.5 * _rowdot(trial, trial) + c[todo] * np.abs(g_t)
                  <= m0[todo] - 1e-12 * m0[todo])
            accepted = todo[ok]
            u_new[accepted], g_new[accepted], gr_new[accepted] = (
                trial[ok], g_t[ok], gr_t[ok])
            todo = todo[~ok]
            # a rejected settled row keeps its point: du = 0 converges it
            keep = settled[todo]
            stay = todo[keep]
            u_new[stay], g_new[stay], gr_new[stay] = ua[stay], ga[stay], gra[stay]
            todo = todo[~keep]
            if not todo.size:
                break
            step[todo] *= 0.5
        else:
            trial = ua[todo] + step[todo, None] * d[todo]
            u_new[todo] = trial
            g_new[todo], gr_new[todo] = g_and_grad(trial, active[todo])
        du = np.sqrt(_rowdot(u_new - ua, u_new - ua))
        u[active], gu[active], gr[active] = u_new, g_new, gr_new
        if np.any(np.sqrt(_rowdot(gr_new, gr_new)) < 1e-14):
            raise SingularPointError("zero gradient during iteration")
        done = (du <= TOL_U) & (np.abs(g_new) <= g_tol)
        converged[active[done]] = True
        row_iterations[active[done]] = iteration
        active = active[~done]
        if not active.size:
            break

    alpha = -gr / np.sqrt(_rowdot(gr, gr))[:, None]
    return FormResult(beta0=_rowdot(alpha, u), alpha=alpha, u_star=u,
                      iterations=int(row_iterations.sum()),
                      converged=bool(converged.all()),
                      row_iterations=row_iterations, row_converged=converged,
                      g_calls=g_calls, g_rows=g_rows)


def solve_form(joint, limit_state, a=None, **kwargs):
    """Design points of a physical problem, one row per design.

    ``a`` is None for a design-free limit state (one row) or a 1-D array
    of design values, whose searches run in lockstep from the origin.
    """
    m = 1 if a is None else len(a)
    return find_design_points(standard_space_lsf(joint, limit_state, a),
                              np.zeros((m, joint.dim)), **kwargs)


# ---------------------------------------------------------------------------
# conditional failure probabilities and the threshold
# ---------------------------------------------------------------------------

def conditional_pf_u(beta0, alpha_i, u_i):
    """FORM failure probability conditional on U_i = u_i.

    ``beta0`` and ``alpha_i`` may hold one value per design; the result
    then has one row per design and one column per value of ``u_i``. At
    |alpha_i| = 1 it is the limit, a step: 1 where alpha_i u_i > beta0, 0
    below and 1/2 at beta0.
    """
    beta0 = np.asarray(beta0, dtype=float)
    alpha_i = np.asarray(alpha_i, dtype=float)
    if np.any(np.abs(alpha_i) > 1.0):
        raise DomainError("|alpha_i| must not exceed 1")
    if beta0.ndim:
        beta0, alpha_i = beta0[:, None], alpha_i[:, None]
    # (alpha_i u_i - beta0) / sqrt(1 - alpha_i^2), then Phi, in one buffer;
    # a step row's divisor is 1e-300, which leaves +-inf or 0
    out = np.asarray(alpha_i * np.asarray(u_i, dtype=float))
    out -= beta0
    with np.errstate(over="ignore"):
        out /= np.maximum(np.sqrt(1.0 - alpha_i * alpha_i), 1e-300)
    special.std_normal_cdf(out, out=out)
    return out if out.ndim else float(out)


def copula_rho(joint, res):
    """rho_i = (L alpha)_i of every row and input of the FormResult ``res``,
    (rows, inputs), for L = ``joint.chol_z``, clipped to [-1, 1] against
    rounding. Column i is the 1-D product ``res.alpha @ L[i]``, to the bit."""
    return np.clip(np.stack([res.alpha @ r for r in joint.chol_z], -1), -1, 1)


def conditional_pf_x(joint, i, x_i, beta0, rho):
    """FORM failure probability conditional on X_i = x_i: one row per value
    of ``beta0``, a FormResult's, and one column per value of ``x_i``.

    X_i = x_i fixes the copula coordinate z_i, whose correlation with the
    linearized margin's alpha.U is rho_i, column i of ``rho`` =
    ``copula_rho``; for independent inputs rho_i = alpha_i exactly.
    """
    z = joint.marginals[i].to_standard_normal(x_i)
    return conditional_pf_u(beta0, rho[..., i], z)


def threshold_u(beta0, alpha_i, cr_over_cf):
    """u_i at which the conditional failure probability equals cr/cf."""
    if alpha_i == 0.0:
        raise DomainError("alpha_i = 0: no threshold (the curve is flat)")
    if not 0.0 < cr_over_cf < 1.0:
        raise DomainError("cost ratio must lie in (0, 1)")
    s = math.sqrt(max(0.0, 1.0 - alpha_i * alpha_i))
    return (s * special.std_normal_inv(cr_over_cf) + beta0) / alpha_i


# ---------------------------------------------------------------------------
# EVPPI closed forms
# ---------------------------------------------------------------------------

def _check_beta_alpha(beta0, alpha_i):
    """Reject a beta0 that is not finite and an |alpha_i| that is not at most
    1; the comparisons are positive, so NaN fails them."""
    if not -math.inf < beta0 < math.inf:
        raise DomainError(f"beta0 must be finite, got {beta0}")
    if not abs(alpha_i) <= 1.0:
        raise DomainError(f"|alpha_i| must not exceed 1, got {alpha_i}")


@functools.cache
def _legendre_panels():
    """The safety EVPPI's rule on w >= 0: 256 panels of width 0.5 from
    w = 0 on, with 20 Gauss-Legendre nodes each. Returns the 257 panel
    ends, the nodes (one row per panel) and their weights. Built on the
    first call, which imports numpy.polynomial (2.6-6.7 ms, 0.75 MB)."""
    from numpy.polynomial.legendre import leggauss
    t, weights = leggauss(20)
    ends = 0.5 * np.arange(257)
    rule = ends, ends[:-1, None] + (t + 1.0) / 4.0, weights / 4.0
    for arr in rule:
        arr.flags.writeable = False                 # shared by every call
    return rule


def evppi_form_safety(beta0, alpha_i, c_f, c_r):
    """Value of learning input i in the accept/replace decision.

    With a = |alpha_i|, s = sqrt(1 - a^2) and r = c_r/c_f, learning U_i = u
    gives pf(u) = Phi((a u - beta0)/s), and the value is the integral of
    c_f |pf(u) - r| phi(u) over the half-line beyond u_t = ``threshold_u``
    where that changes the decision: above u_t when pf <= r, the prior
    being to do nothing, and below it otherwise. That is c_f times the
    probability of a wedge in the (U_i, X) plane, X standard normal: u
    beyond u_t and X between x_t = Phi^-1(r) and (a u - beta0)/s. Sliced
    at fixed x, it is an integral over x beyond x_t of phi(x)
    Phi(-(s x + beta0)/a) above and phi(x) Phi((s x + beta0)/a) below,
    products of positive factors, whose log is concave. The paper's
    closed form c_f Phi2 - c_r Phi cancels, by up to 1.6e-10 relative at
    r = 1e-5, and a bivariate normal CDF that drops terms below e^-100
    read 500 times too high at beta0 = 15 and 1e8 times at 30.

    The integral is over w > 0 in x = x_t +- h w (below), by one fixed
    rule (``_legendre_panels``): 20 Gauss-Legendre nodes on each panel of
    width 0.5, the panels running to the first end where the log
    integrand is 80 below its value at w = 0, so the tail left out is of
    order e^-80 of the value. Over beta0 from -30 to 37.5, |alpha_i| from
    1e-300 to 1 and r from 1e-300 to 1 - 2^-53, no case took more than
    153 of the rule's 256 panels. All nodes are evaluated in one pass.
    Against 50-digit mpmath the values are within 3e-13 wherever they
    exceed 1e-300, for beta0 up to 30 and r from 1e-5 to 0.3.

    Invariant to the sign of alpha_i; alpha_i = 0 gives 0 and |alpha_i| = 1
    the EVPI, as pf(u) is then a step and the Phi factor a constant. A
    beta0 that is not finite, an |alpha_i| above 1 and costs outside
    c_f > c_r > 0 raise DomainError, NaN included.
    """
    if not c_f > c_r > 0.0:
        raise DomainError("costs must satisfy c_f > c_r > 0")
    _check_beta_alpha(beta0, alpha_i)
    beta0, a = float(beta0), abs(float(alpha_i))
    if a == 0.0:
        return 0.0
    s = math.sqrt(1.0 - a * a)
    x_t = special.std_normal_inv(c_r / c_f)
    u_t = threshold_u(beta0, a, c_r / c_f)
    # x = x_t +- h w over w > 0, where u(x) = u_t +- g w: with h = min(1,
    # a/s) neither factor has a feature narrower than about 1 in w. pf <= r
    # is -beta0 <= x_t, which does not round pf near 1.
    side = 1.0 if -beta0 <= x_t else -1.0
    h, g = (1.0, s / a) if s <= a else (a / s, 1.0)
    ends, nodes, weights = _legendre_panels()
    log_f = (-0.5 * (x_t + side * h * ends) ** 2
             + special.std_normal_log_cdf(-side * u_t - g * ends))
    # the log is concave: past its first fall of 80 it stays below
    w = nodes[:np.count_nonzero(log_f > log_f[0] - 80.0)]
    f = (special.std_normal_pdf(x_t + side * h * w)
         * special.std_normal_cdf(-side * u_t - g * w))
    return c_f * h * float(np.sum(f @ weights))


def evppi_form_design(beta0, alpha_i, c_f):
    """Value of learning input i in the affine design problem.

    Uses the design cost calibrated so the prior optimum sits at a = 0;
    nonnegative and nondecreasing in |alpha_i|, zero at alpha_i = 0. A
    beta0 that is not finite, an |alpha_i| above 1 and a c_f that is not
    positive raise DomainError, NaN included.
    """
    if not c_f > 0.0:
        raise DomainError("c_f must be positive")
    _check_beta_alpha(beta0, alpha_i)
    a2 = alpha_i * alpha_i
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
