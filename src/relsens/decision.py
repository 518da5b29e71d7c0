"""Decision models and the EVPPI engines built on conditional-pf curves.

Both decision contexts are a choice among actions, each with a cost c_k
and a failure probability pf_k, at an expected loss of c_k + c_f pf_k.
The reliability-based design has one action per value of the design
parameter on a discrete grid, costing c_d(a). The safety assessment is
the two-action case: doing nothing costs 0 and fails with pf, replacing
costs c_r and never fails, so c_r/c_f acts as the probability threshold.
The prior choice is the first action of least expected loss.

No model is evaluated here. A safety EVPPI takes one curve per input:
the closed form ``form.evppi_form_safety`` in the curve's (beta, rho)
where it has them (analytic and FORM), and otherwise (the KDE curves of
mc and subset) the trapezoid of the pointwise value against the prior
density the curve carries. A design EVPPI takes an input's
(n_designs, n_grid) array of pf rows and a curve for the grid and prior
density, and is the trapezoid of the posterior loss at every method.
The decision-change region is detected pointwise, so non-monotone curves
need no special treatment. ``evppi_report`` builds either context's
report in one pass.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import lsf as lsf_mod, special
from .errors import ConfigError, DomainError, NonFiniteGError


@dataclass(frozen=True)
class SafetyDecision:
    c_f: float
    c_r: float

    def __post_init__(self):
        if not (np.inf > self.c_f > self.c_r > 0.0):
            raise DomainError("costs must be finite and satisfy c_f > c_r > 0")

    @property
    def costs(self):
        return np.array([0.0, self.c_r])

    @staticmethod
    def failure_rows(pf):
        """Each action's failure probability: (pf, 0)."""
        pf = np.asarray(pf, dtype=float)
        return np.stack([pf, np.zeros_like(pf)])


@dataclass(frozen=True)
class DesignDecision:
    """Failure cost, design-cost expression in ``a`` and the design grid;
    ``costs`` is the design cost at each grid value."""

    c_f: float
    cost_model: str
    grid: np.ndarray
    costs: np.ndarray = field(repr=False, init=False)

    def __post_init__(self):
        if not np.inf > self.c_f > 0.0:
            raise DomainError("c_f must be positive and finite")
        g = np.asarray(self.grid, dtype=float)
        if not (g.size >= 1 and np.all(np.isfinite(g))
                and np.all(np.diff(g) > 0.0)):
            raise DomainError(
                "design grid must be nonempty, finite, strictly increasing")
        object.__setattr__(self, "grid", g)
        cost = lsf_mod.LimitState.from_expression(self.cost_model, ())
        try:
            costs = lsf_mod.evaluate(cost, np.empty((g.size, 0)),
                                     g if cost.has_design_param else None)
        except NonFiniteGError:
            raise DomainError("cost model is not finite on the design grid") from None
        object.__setattr__(self, "costs", costs)


# ---------------------------------------------------------------------------
# the action-cost table
# ---------------------------------------------------------------------------

def loss_table(failure_rows, decision):
    """Expected losses c_k + c_f pf_k, one row per action, from the
    failure probabilities ``failure_rows`` with one row per action."""
    loss = decision.c_f * np.asarray(failure_rows, dtype=float)
    loss += decision.costs.reshape((-1,) + (1,) * (loss.ndim - 1))
    return loss


def prior_choice(failure, decision):
    """(index, expected loss) of the action of least expected loss, from
    each action's failure probability; ties go to the first action."""
    failure = np.asarray(failure, dtype=float)
    if not np.all((failure >= 0.0) & (failure <= 1.0)):
        raise DomainError("pf must lie in [0, 1]")
    losses = loss_table(failure, decision)
    k = int(np.argmin(losses))       # argmin returns the first minimizer
    return k, float(losses[k])


# ---------------------------------------------------------------------------
# safety assessment
# ---------------------------------------------------------------------------

def cvppi_curve(curve, decision):
    """Pointwise value of knowing x_i: the prior action's expected loss
    minus the least expected loss at x_i."""
    prior, _ = prior_choice(decision.failure_rows(curve.pf_uncond), decision)
    loss = loss_table(decision.failure_rows(curve.pf_values), decision)
    return loss[prior] - loss.min(axis=0)


def evppi_safety(curve, decision):
    """Expected value of learning X_i, integrated over its prior: in closed
    form where the curve has one, else by the trapezoid on its grid."""
    if curve.rho is not None:
        from . import form

        return form.evppi_form_safety(curve.beta, curve.rho, decision.c_f,
                                      decision.c_r)
    values = cvppi_curve(curve, decision)
    return float(np.trapezoid(values * curve.density_prior, curve.grid))


def evpi_safety(pf, decision, beta=None):
    """Value of resolving all uncertainty in the safety decision.

    Where pf is Phi(-beta) (analytic and FORM), the survival probability
    of the replace-prior value c_r (1 - pf) is taken as Phi(beta), which
    keeps its digits where pf rounds near 1."""
    prior, _ = prior_choice(decision.failure_rows(pf), decision)
    if prior == 0:
        return pf * (decision.c_f - decision.c_r)
    survival = 1.0 - pf if beta is None else special.std_normal_cdf(beta)
    return decision.c_r * survival


# ---------------------------------------------------------------------------
# reliability-based design
# ---------------------------------------------------------------------------

def prior_design(pf_per_design, decision):
    """Minimum-expected-loss design on the grid; ties pick the smallest a."""
    pf = np.asarray(pf_per_design, dtype=float)
    if pf.shape != decision.grid.shape:
        raise ConfigError("pf_per_design must match the design grid")
    j, loss = prior_choice(pf, decision)
    return {"a_opt": float(decision.grid[j]), "expected_loss": loss,
            "index": j, "pf": float(pf[j])}


def posterior_loss_curve(pf_rows, decision):
    """min_j [c_d(a_j) + c_f pf_j(x)] at each grid point, from the
    (n_designs, n_grid) array ``pf_rows`` of conditional pf values."""
    return loss_table(pf_rows, decision).min(axis=0)


def evppi_design(curve, pf_rows, pf_per_design, decision):
    """Expected value of learning X_i before choosing the design.

    ``pf_rows`` holds the conditional pf values, one row per design value,
    on the grid of ``curve``, which supplies only that grid and the prior
    density. The value is the prior loss minus the trapezoid of the
    posterior loss. perfbench's ``ORACLE_DESIGN`` was frozen from this
    quadrature, so it stays until ROADMAP item 12's region formulas
    replace it.

    Sampling noise can push the raw estimate slightly negative; the
    value is floored at zero and the raw difference is reported.
    """
    if len(pf_rows) != decision.grid.size:
        raise ConfigError("need one conditional pf row per design value")
    prior = prior_design(pf_per_design, decision)["expected_loss"]
    post = posterior_loss_curve(pf_rows, decision)
    posterior = float(np.trapezoid(post * curve.density_prior, curve.grid))
    raw = prior - posterior
    return {"evppi": max(0.0, raw), "raw": raw, "prior_loss": prior,
            "posterior_loss": posterior, "negative_clipped": raw < 0.0}


# ---------------------------------------------------------------------------
# report assembly
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class EvppiEntry:
    name: str
    absolute: float
    normalized: float
    relative: float


@dataclass(frozen=True)
class EvppiReport:
    method: str
    evpi: float
    entries: tuple                   # of EvppiEntry, one per input


def evppi_report(names, absolute, method, evpi=None):
    """Report of each input's absolute EVPPI and its two shares.

    ``normalized`` is the share of the EVPPI sum, NaN when that sum is not
    positive. ``relative`` is the share of ``evpi`` when one is given (0
    when the EVPI is 0), and NaN otherwise.
    """
    if evpi is not None and evpi < 0.0:
        raise DomainError("EVPI must be nonnegative")
    absolute = [float(v) for v in absolute]
    total = float(np.sum(absolute))
    nan = float("nan")
    entries = tuple(
        EvppiEntry(name=name, absolute=v,
                   normalized=v / total if total > 0.0 else nan,
                   relative=(nan if evpi is None
                             else v / evpi if evpi > 0.0 else 0.0))
        for name, v in zip(names, absolute))
    return EvppiReport(entries=entries, method=method,
                       evpi=nan if evpi is None else float(evpi))


def safety_report(curves, names, decision, method, pf):
    """EVPPI report for the safety case from per-input curves; the EVPI
    takes the curves' shared beta where they carry one."""
    return evppi_report(names, [evppi_safety(c, decision) for c in curves],
                        method, evpi_safety(pf, decision, curves[0].beta))


def threshold_sweep(curves, names, c_f, ratios, pf):
    """EVPPI versus the cost ratio, holding the pf curves fixed.

    Returns one row per ratio: the absolute, relative and normalized
    EVPPI of every input, plus the EVPI.
    """
    ratios = np.asarray(ratios, dtype=float)
    if np.any((ratios <= 0.0) | (ratios >= 1.0)):
        raise DomainError("cost ratios must lie in (0, 1)")
    rows = []
    for ratio in ratios:
        decision = SafetyDecision(c_f=c_f, c_r=ratio * c_f)
        report = safety_report(curves, names, decision, method="sweep",
                               pf=pf)
        rows.append({"ratio": float(ratio), "report": report})
    return rows
