"""Decision models and the EVPPI engines built on conditional-pf curves.

Two decision contexts are covered. The safety assessment is the binary
choice between accepting the system and replacing it, where c_r/c_f acts
as the probability threshold. The reliability-based design picks a value
of the design parameter from a discrete grid, trading design cost
against expected failure cost.

Every EVPPI is a quadrature of conditional pf values against the prior
density a curve carries, so no model is evaluated here. A safety EVPPI
takes one curve per input; a design EVPPI takes an input's
(n_designs, n_grid) array of pf rows and a curve for the grid and prior
density. Quadratures are trapezoidal; the decision-change region is
detected pointwise, so non-monotone curves need no special treatment.
``evppi_report`` builds either context's report in one pass.
"""

from __future__ import annotations

from dataclasses import dataclass, field

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
        if not (np.inf > self.c_f > self.c_r > 0.0):
            raise DomainError("costs must be finite and satisfy c_f > c_r > 0")

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
        if not np.inf > self.c_f > 0.0:
            raise DomainError("c_f must be positive and finite")
        g = np.asarray(self.grid, dtype=float)
        if not (g.size >= 1 and np.all(np.isfinite(g))
                and np.all(np.diff(g) > 0.0)):
            raise DomainError(
                "design grid must be nonempty, finite, strictly increasing")
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


def evppi_safety(curve, decision):
    """Expected value of learning X_i, integrated over its prior."""
    values = cvppi_curve(curve, decision)
    return float(np.trapezoid(values * curve.density_prior, curve.grid))


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


def posterior_loss_curve(pf_rows, decision):
    """min_j [c_d(a_j) + c_f pf_j(x)] at each grid point, from the
    (n_designs, n_grid) array ``pf_rows`` of conditional pf values."""
    costs = decision.design_cost(decision.grid)
    loss = decision.c_f * pf_rows
    loss += costs[:, None]
    return loss.min(axis=0)


def evppi_design(curve, pf_rows, pf_per_design, decision):
    """Expected value of learning X_i before choosing the design.

    ``pf_rows`` holds the conditional pf values, one row per design value,
    on the grid of ``curve``, which supplies only that grid and the prior
    density.

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
    """EVPPI report for the safety case from per-input curves."""
    return evppi_report(names, [evppi_safety(c, decision) for c in curves],
                        method, evpi_safety(pf, decision))


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
