"""Orchestration: from a validated RunConfig to curves and reports.

One estimator serves both decision stages. ``estimate`` computes pf and
every input's conditional-pf curve at each value of the design grid,
which it carries as an array axis; a design-free limit state (the safety
stage) is the one-row case. The design stage picks the prior-optimal
design from those rows, reports the curves of its row and takes each
input's design EVPPI straight from the rows, so no reliability analysis
is repeated. The decision layer is shared. ``run_analysis`` times two
stages: ``reliability``, then ``safety_evppi`` or ``design_evppi``.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np

from . import condest, config as config_mod, decision as dec, dists, form, sample, special
from .errors import ConfigError, DomainError


@dataclass
class AnalysisResult:
    pf: float
    curves: dict                       # name -> ConditionalPfCurve
    safety_report: object = None
    design: dict = None                # prior design + per-input EVPPI
    diagnostics: dict = field(default_factory=dict)


@dataclass(frozen=True)
class Estimate:
    """Reliability results with one row per design (one row for safety).

    ``at_row(j)`` gives row j's per-input ConditionalPfCurve objects and
    its method diagnostics; ``diagnostics`` holds figures of all rows.
    """

    pf: np.ndarray                     # (n_designs,)
    values: dict                       # name -> (n_designs, n_grid) pf(x_i)
    at_row: object
    diagnostics: dict


def _grids(cfg):
    return {name: condest.default_grid(m, cfg.grid_points)
            for name, m in zip(cfg.names, cfg.marginals)}


def estimate(cfg, designs=None):
    """pf and conditional-pf curves at every design value.

    ``designs`` is the design grid, or None for a design-free limit state.
    """
    grids = _grids(cfg)
    if cfg.method == "analytic":
        return _analytic(cfg, grids, designs)
    if cfg.method == "form":
        return _form(cfg, grids, designs)
    if cfg.method == "mc":
        return _mc(cfg, grids, designs)
    if cfg.method == "subset":
        return _subset(cfg, grids, designs)
    raise ConfigError(f"unknown method {cfg.method!r}")


def _function_estimate(cfg, grids, pf, values, source, row_diagnostics,
                       diagnostics):
    """Estimate of a closed-form method: row curves wrap the value rows."""
    def at_row(j):
        curves = {name: condest.curve_from_function(
                      m, lambda x, row=values[name][j]: row, pf[j],
                      grids[name], source=source)
                  for name, m in zip(cfg.names, cfg.marginals)}
        return curves, row_diagnostics(j)

    return Estimate(pf, values, at_row, diagnostics)


def _analytic(cfg, grids, designs):
    problem = config_mod.analytic_problem(cfg, designs)
    pf = dists.lognormal_linear_pf(problem)
    values = {name: dists.lognormal_linear_conditional_pf(problem, i,
                                                          grids[name])
              for i, name in enumerate(cfg.names)}
    return _function_estimate(cfg, grids, pf, values, "analytic",
                              lambda j: {}, {})


def _form(cfg, grids, designs):
    res = form.solve_form(cfg.joint, cfg.limit_state, designs)
    pf = special.std_normal_cdf(-res.beta0)
    values = {name: form.conditional_pf_x(cfg.joint, i, grids[name], res)
              for i, name in enumerate(cfg.names)}
    labels = ["reliability"] if designs is None else designs.tolist()
    diagnostics = {"form": {
        "solves": len(res.beta0), "iterations": res.iterations,
        "g_calls": res.g_calls, "g_rows": res.g_rows,
        "not_converged": [label for label, ok in zip(labels, res.row_converged)
                          if not ok]}}

    def row_diagnostics(j):
        return {"beta0": float(res.beta0[j]),
                "alpha_sq": (res.alpha[j] ** 2).tolist(),
                "form_iterations": int(res.row_iterations[j])}

    return _function_estimate(cfg, grids, pf, values, "form", row_diagnostics,
                              diagnostics)


def _kde_estimate(cfg, grids, designs, pf, counts, failure_rows, n_chains,
                  row_diagnostics):
    """Estimate of a sampling method from each row's failure samples.

    ``failure_rows(j)`` returns the ``counts[j]`` failure samples of row
    j; every row needs condest.MIN_FAILURE_VALUES of them for the density
    fits, at the safety and the design stage alike.
    """
    counts = [int(c) for c in counts]
    starved = [j for j, c in enumerate(counts) if c < condest.MIN_FAILURE_VALUES]
    if starved:
        setting = "n" if cfg.method == "mc" else "n_per_level"
        if designs is None:
            where, found = "", f"found {counts[0]}"
        else:
            a = designs.tolist()
            where, found = "per design ", "too few at " + ", ".join(
                f"a = {a[j]!r} ({counts[j]})" for j in starved)
        raise DomainError(
            f"need at least {condest.MIN_FAILURE_VALUES} failure values "
            f"{where}for the density fits (raise {setting}); {found}")
    rows = []
    for j in range(len(pf)):
        samples = failure_rows(j)
        rows.append({name: condest.conditional_pf_from_failure_samples(
                         cfg.marginals[i], samples[:, i], pf[j], grids[name],
                         n_chains=n_chains[j])
                     for i, name in enumerate(cfg.names)})
    values = {name: np.vstack([row[name].pf_values for row in rows])
              for name in cfg.names}
    diagnostics = ({} if designs is None else
                   {"n_failure_samples_per_design": counts})
    return Estimate(pf, values, lambda j: (rows[j], row_diagnostics(j)),
                    diagnostics)


def _mc(cfg, grids, designs):
    mc = sample.crude_mc(cfg.joint, cfg.limit_state, cfg.n, cfg.seed,
                         a=designs)
    lo, hi = mc.ci95

    def row_diagnostics(j):
        return {"n": mc.n, "ci95": [float(lo[j]), float(hi[j])],
                "n_failure_samples": int(mc.n_fail[j]), "workers": mc.workers}

    return _kde_estimate(cfg, grids, designs, mc.pf_hat, mc.n_fail,
                         mc.failures, [1] * len(mc.pf_hat), row_diagnostics)


def _subset(cfg, grids, designs):
    # one run per design, each on its own stream
    starts = ([(cfg.seed, None)] if designs is None else
              [(cfg.seed + j + 1, a) for j, a in enumerate(designs)])
    runs = [sample.subset_simulation(cfg.joint, cfg.limit_state,
                                     cfg.n_per_level, cfg.p0, seed, a=a)
            for seed, a in starts]
    pf = np.array([ss.pf_hat for ss in runs])

    def row_diagnostics(j):
        return {"levels": [list(t) for t in runs[j].levels],
                "n_failure_samples": len(runs[j].last_level_samples),
                "accept_rate": runs[j].accept_rate,
                "samples_correlated": True}

    return _kde_estimate(cfg, grids, designs, pf,
                         [len(ss.last_level_samples) for ss in runs],
                         lambda j: runs[j].last_level_samples,
                         [ss.n_chains for ss in runs], row_diagnostics)


def run_analysis(cfg):
    """Full pipeline for one configuration."""
    t0 = time.perf_counter()
    designs = None if cfg.design is None else cfg.design.grid
    est = estimate(cfg, designs)
    # a parametric limit state has no reliability of its own: report the
    # curves of the prior-optimal design's row
    prior = None if designs is None else dec.prior_design(est.pf, cfg.design)
    j = 0 if prior is None else prior["index"]
    curves, row_diagnostics = est.at_row(j)
    pf = float(est.pf[j])
    t1 = time.perf_counter()

    # validate_config admits exactly one of the safety and design blocks
    safety_report = design_block = None
    if prior is None:
        stage = "safety_evppi"
        method_label = {"mc": "mc-kde", "subset": "subset-kde"}.get(
            cfg.method, cfg.method)
        safety_report = dec.safety_report(
            [curves[n] for n in cfg.names], cfg.names, cfg.safety,
            method=method_label, pf=pf)
    else:
        stage = "design_evppi"
        design_block = _design_evppi(cfg, est, prior, curves)
    stage_seconds = {"reliability": t1 - t0,
                     stage: time.perf_counter() - t1}

    diagnostics = {"method": cfg.method, "seed": cfg.seed,
                   **row_diagnostics, **est.diagnostics}
    kde_inputs = {name: {"n_failure_samples": c.n_failure_samples,
                         "ess": c.ess, "clip_fraction": c.clip_fraction,
                         "kernel_terms": c.kernel_terms}
                  for name, c in curves.items() if c.source == "kde"}
    if kde_inputs:
        diagnostics["kde_inputs"] = kde_inputs
    diagnostics["stage_seconds"] = stage_seconds
    return AnalysisResult(pf=pf, curves=curves, safety_report=safety_report,
                          design=design_block, diagnostics=diagnostics)


def _design_evppi(cfg, est, prior, ref_curves):
    """The inner-optimization EVPPI of every input over the design rows."""
    details = {name: dec.evppi_design(ref_curves[name], est.values[name],
                                      est.pf, cfg.design)
               for name in cfg.names}
    report = dec.evppi_report(cfg.names,
                              [details[n]["evppi"] for n in cfg.names],
                              f"{cfg.method}-design")
    return {"prior": prior, "pf_per_design": est.pf.tolist(),
            "report": report, "details": details}


# -- FORM sensitivity curves ----------------------------------------------------

ALPHA_GRID = np.linspace(0.01, 0.99, 99)


def form_evppi_curves(betas, cost_ratio, mode):
    """EVPPI against |alpha| for each reliability index.

    Safety mode evaluates the accept/replace closed form with c_f = 1;
    design mode evaluates the affine-design closed form normalized by its
    value at alpha^2 = 1. A beta whose pf Phi(-beta) underflows to zero
    (beta above about 37.7) is rejected: its safety curve would be all
    zeros and its design curve a ratio of underflowed values.
    """
    if mode not in ("safety", "design"):
        raise ConfigError(f"unknown mode {mode!r}")
    rows = []
    for beta in betas:
        if not (beta > 0.0 and np.isfinite(beta)):
            raise ConfigError("betas must be positive and finite")
        pf = float(special.std_normal_cdf(-beta))
        if pf == 0.0:
            raise ConfigError(f"beta {beta!r}: pf = Phi(-beta) underflows to 0")
        if mode == "safety":
            values = [form.evppi_form_safety(beta, a, 1.0, cost_ratio)
                      for a in ALPHA_GRID]
        else:
            ref = form.evppi_form_design(beta, 1.0, 1.0)   # >= pf > 0
            values = [form.evppi_form_design(beta, a, 1.0) / ref
                      for a in ALPHA_GRID]
        for a, v in zip(ALPHA_GRID, values):
            rows.append({"beta": float(beta), "pf": pf, "alpha": float(a),
                         "alpha_sq": float(a * a), "evppi": float(v)})
    return rows
