"""Decision models and the EVPPI engines built on conditional-pf curves.

Two decision contexts are covered. The safety assessment is the binary
choice between accepting the system and replacing it, where c_r/c_f acts
as the probability threshold. The reliability-based design picks a value
of the design parameter from a discrete grid, trading design cost
against expected failure cost.

Quadratures are trapezoidal over the curve grids; the decision-change
region is detected pointwise, so non-monotone curves need no special
treatment.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

import numpy as np

from . import lsf as lsf_mod
from .errors import ConfigError, DomainError

DO_NOTHING = "do_nothing"
REPLACE = "replace"


@dataclass(frozen=True)
class SafetyDecision:
    c_f: float
    c_r: float

    def __post_init__(self):
        if not self.c_f > self.c_r > 0.0:
            raise DomainError("costs must satisfy c_f > c_r > 0")

    @property
    def ratio(self):
        return self.c_r / self.c_f


@dataclass(frozen=True)
class DesignDecision:
    """Failure cost, design-cost expression in ``a`` and the design grid."""

    c_f: float
    cost_model: str
    grid: np.ndarray
    _cost_ast: object = field(repr=False, init=False, default=None)

    def __post_init__(self):
        if self.c_f <= 0.0:
            raise DomainError("c_f must be positive")
        g = np.asarray(self.grid, dtype=float)
        if g.size < 1 or np.any(np.diff(g) <= 0.0):
            raise DomainError("design grid must be nonempty, strictly increasing")
        object.__setattr__(self, "grid", g)
        ast = lsf_mod.parse(self.cost_model)
        extra = lsf_mod.variables(ast) - {lsf_mod.DESIGN_SYMBOL}
        if extra:
            raise DomainError(f"cost model may only reference 'a', got {sorted(extra)}")
        object.__setattr__(self, "_cost_ast", ast)
        if not np.all(np.isfinite(self.design_cost(g))):
            raise DomainError("cost model is not finite on the design grid")

    def design_cost(self, a):
        a = np.asarray(a, dtype=float)
        out = np.asarray(lsf_mod._eval(self._cost_ast, {lsf_mod.DESIGN_SYMBOL: a}),
                         dtype=float)
        out = np.broadcast_to(out, a.shape) if out.shape != a.shape else out
        return out if out.ndim else float(out)


# ---------------------------------------------------------------------------
# safety assessment
# ---------------------------------------------------------------------------

def prior_action(pf, decision):
    """Optimal action before any observation; ties go to doing nothing."""
    if not 0.0 <= pf <= 1.0:
        raise DomainError("pf must lie in [0, 1]")
    return DO_NOTHING if pf <= decision.ratio else REPLACE


def cvppi_curve(curve, decision):
    """Pointwise value of knowing x_i: |c_f pf(x) - c_r| where the
    conditionally optimal action differs from the prior one, else 0."""
    prior = prior_action(curve.pf_uncond, decision)
    cond_replace = curve.pf_values > decision.ratio
    changed = cond_replace != (prior == REPLACE)
    return np.where(changed,
                    np.abs(decision.c_f * curve.pf_values - decision.c_r),
                    0.0)


def evppi_safety(curve, marginal, decision):
    """Expected value of learning X_i, integrated over its prior."""
    values = cvppi_curve(curve, decision)
    density = (curve.density_prior if curve.density_prior is not None
               else np.asarray(marginal.pdf(curve.grid), dtype=float))
    return float(np.trapezoid(values * density, curve.grid))


def evpi_safety(pf, decision):
    """Value of resolving all uncertainty in the safety decision."""
    if not 0.0 <= pf <= 1.0:
        raise DomainError("pf must lie in [0, 1]")
    if pf <= decision.ratio:
        return pf * (decision.c_f - decision.c_r)
    return decision.c_r * (1.0 - pf)


# ---------------------------------------------------------------------------
# reliability-based design
# ---------------------------------------------------------------------------

def prior_design(pf_per_design, decision):
    """Minimum-expected-loss design on the grid; ties pick the smallest a."""
    pf = np.asarray(pf_per_design, dtype=float)
    if pf.shape != decision.grid.shape:
        raise ConfigError("pf_per_design must match the design grid")
    losses = decision.design_cost(decision.grid) + pf * decision.c_f
    j = int(np.argmin(losses))       # argmin returns the first minimizer
    return {"a_opt": float(decision.grid[j]),
            "expected_loss": float(losses[j]),
            "index": j,
            "pf": float(pf[j])}


def posterior_loss_curve(curves_by_design, decision):
    """min_j [c_d(a_j) + c_f pf_j(x)] on the shared curve grid."""
    grid0 = curves_by_design[0].grid
    for c in curves_by_design[1:]:
        if c.grid is grid0:            # the pipeline's curves share one array
            continue
        if len(c.grid) != len(grid0) or not np.allclose(c.grid, grid0):
            raise ConfigError("conditional curves must share one grid")
    costs = decision.design_cost(decision.grid)
    loss = np.vstack([costs[j] + decision.c_f * c.pf_values
                      for j, c in enumerate(curves_by_design)])
    return loss.min(axis=0)


def evppi_design(curves_by_design, pf_per_design, decision, marginal):
    """Expected value of learning X_i before choosing the design.

    Sampling noise can push the raw estimate slightly negative; the
    value is floored at zero and the raw difference is reported.
    """
    if len(curves_by_design) != decision.grid.size:
        raise ConfigError("need one conditional curve per design value")
    prior = prior_design(pf_per_design, decision)["expected_loss"]
    post = posterior_loss_curve(curves_by_design, decision)
    grid = curves_by_design[0].grid
    c0 = curves_by_design[0]
    density = (c0.density_prior if c0.density_prior is not None
               else np.asarray(marginal.pdf(grid), dtype=float))
    posterior = float(np.trapezoid(post * density, grid))
    raw = prior - posterior
    return {"evppi": max(0.0, raw), "raw": raw, "prior_loss": prior,
            "posterior_loss": posterior, "negative_clipped": raw < 0.0}


# ---------------------------------------------------------------------------
# report assembly and normalizations
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class EvppiEntry:
    name: str
    absolute: float
    normalized: float = float("nan")
    relative: float = float("nan")


@dataclass(frozen=True)
class EvppiReport:
    entries: tuple
    method: str
    evpi: float = float("nan")
    diagnostics: dict = field(default_factory=dict)

    def absolute(self):
        return np.array([e.absolute for e in self.entries])

    def by_name(self, name):
        for e in self.entries:
            if e.name == name:
                return e
        raise KeyError(name)


def normalize(report):
    """Fill normalized values (shares of the EVPPI sum)."""
    total = float(report.absolute().sum())
    if total <= 0.0:
        diag = dict(report.diagnostics)
        diag["normalized_undefined"] = True
        return replace(report, diagnostics=diag)
    entries = tuple(replace(e, normalized=e.absolute / total)
                    for e in report.entries)
    return replace(report, entries=entries)


def relativize(report, evpi):
    """Fill relative values (shares of the EVPI)."""
    if evpi < 0.0:
        raise DomainError("EVPI must be nonnegative")
    entries = tuple(
        replace(e, relative=(e.absolute / evpi if evpi > 0.0 else 0.0))
        for e in report.entries)
    return replace(report, entries=entries, evpi=float(evpi))


def safety_report(curves, marginals, names, decision, method,
                  pf=None, diagnostics=None):
    """EVPPI report for the safety case from per-input curves."""
    entries = []
    for name, curve, marginal in zip(names, curves, marginals):
        entries.append(EvppiEntry(name=name,
                                  absolute=evppi_safety(curve, marginal, decision)))
    report = EvppiReport(entries=tuple(entries), method=method,
                         diagnostics=diagnostics or {})
    report = normalize(report)
    if pf is not None:
        report = relativize(report, evpi_safety(pf, decision))
    return report


def threshold_sweep(curves, marginals, names, c_f, ratios, pf):
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
        report = safety_report(curves, marginals, names, decision,
                               method="sweep", pf=pf)
        rows.append({"ratio": float(ratio), "report": report})
    return rows
