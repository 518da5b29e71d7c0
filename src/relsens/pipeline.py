"""Orchestration: from a validated RunConfig to curves and reports.

Each method produces the unconditional failure probability and one
conditional-pf curve per input; the decision layer is shared. Per-input
work is pure, so it can fan out across one thread pool per analysis.
"""

from __future__ import annotations

import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field

import numpy as np

from . import condest, config as config_mod, decision as dec, dists, form, sample, special
from .errors import ConfigError


@dataclass
class StageTimer:
    stages: dict = field(default_factory=dict)

    def time(self, name):
        timer = self

        class _Ctx:
            def __enter__(self):
                self.t0 = time.perf_counter()

            def __exit__(self, *exc):
                timer.stages[name] = timer.stages.get(name, 0.0) + (
                    time.perf_counter() - self.t0)

        return _Ctx()


@dataclass
class AnalysisResult:
    pf: float
    curves: dict                       # name -> ConditionalPfCurve
    safety_report: object = None
    design: dict = None                # prior design + per-input EVPPI
    form_result: object = None
    diagnostics: dict = field(default_factory=dict)


def _grids(cfg):
    return {name: condest.default_grid(m, cfg.grid_points)
            for name, m in zip(cfg.names, cfg.marginals)}


def _map_inputs(cfg, fn, pool):
    items = list(enumerate(cfg.names))
    if pool is not None:
        return dict(zip(cfg.names, pool.map(lambda it: fn(*it), items)))
    return {name: fn(i, name) for i, name in items}


# -- per-method reliability + curves ------------------------------------------


def _analytic_curves(cfg, grids, a=None, pool=None):
    problem = config_mod.analytic_problem(cfg, a)
    pf = dists.lognormal_linear_pf(problem)

    def one(i, name):
        return condest.curve_from_function(
            cfg.marginals[i], i,
            lambda x: dists.lognormal_linear_conditional_pf(problem, i, x),
            pf, grids[name], source="analytic")

    return pf, _map_inputs(cfg, one, pool)


def _form_curves(cfg, grids, a=None, pool=None, u0=None):
    res = form.solve_form(cfg.joint, cfg.limit_state, a, u0=u0)
    pf = float(special.std_normal_cdf(-res.beta0))

    def one(i, name):
        return condest.curve_from_function(
            cfg.marginals[i], i,
            lambda x: form.conditional_pf_x(cfg.joint, i, x, res),
            pf, grids[name], source="form")

    return pf, _map_inputs(cfg, one, pool), res


def _kde_curves(cfg, grids, pf_hat, failure_samples, pool=None, n_chains=1):
    def one(i, name):
        return condest.conditional_pf_from_failure_samples(
            cfg.marginals[i], i, failure_samples[:, i], pf_hat,
            grids[name], transform=cfg.kde_transform, n_chains=n_chains)

    return _map_inputs(cfg, one, pool)


def run_analysis(cfg, threads=None):
    """Full pipeline for one configuration."""
    pool = (ThreadPoolExecutor(max_workers=threads)
            if threads and threads > 1 else None)
    try:
        return _run_analysis(cfg, pool)
    finally:
        if pool is not None:
            pool.shutdown()


def _run_analysis(cfg, pool):
    timer = StageTimer()
    grids = _grids(cfg)
    diagnostics = {"method": cfg.method, "seed": cfg.seed}
    form_result = None
    form_solves = []                   # (design value or "reliability", result)

    design_block = None
    a_ref = None
    if cfg.design is not None:
        # a parametric limit state has no reliability of its own: run the
        # design stage first and report curves at the prior-optimal design
        with timer.time("design_evppi"):
            design_block = _design_analysis(cfg, grids, pool, form_solves)
        a_ref = design_block["prior"]["a_opt"]
        diagnostics["a_opt"] = a_ref

    with timer.time("reliability"):
        if cfg.method == "analytic":
            pf, curves = _analytic_curves(cfg, grids, a=a_ref, pool=pool)
        elif cfg.method == "form":
            pf, curves, form_result = _form_curves(cfg, grids, a=a_ref,
                                                   pool=pool)
            form_solves.append(("reliability", form_result))
            diagnostics["beta0"] = form_result.beta0
            diagnostics["alpha_sq"] = (form_result.alpha ** 2).tolist()
            diagnostics["form_iterations"] = form_result.iterations
            diagnostics["form"] = {
                "solves": len(form_solves),
                "iterations": sum(r.iterations for _, r in form_solves),
                "not_converged": [label for label, r in form_solves
                                  if not r.converged]}
        elif cfg.method == "mc":
            mc = sample.crude_mc(cfg.joint, cfg.limit_state, cfg.n, cfg.seed,
                                 a=a_ref)
            pf = mc.pf_hat
            diagnostics["n"] = mc.n
            diagnostics["ci95"] = list(mc.ci95)
            diagnostics["n_failure_samples"] = len(mc.failure_samples)
            curves = _kde_curves(cfg, grids, pf, mc.failure_samples, pool)
        elif cfg.method == "subset":
            ss = sample.subset_simulation(cfg.joint, cfg.limit_state,
                                          cfg.n_per_level, cfg.p0, cfg.seed,
                                          a=a_ref)
            pf = ss.pf_hat
            diagnostics["levels"] = [list(t) for t in ss.levels]
            diagnostics["n_failure_samples"] = len(ss.last_level_samples)
            diagnostics["samples_correlated"] = True
            curves = _kde_curves(cfg, grids, pf, ss.last_level_samples, pool,
                                 n_chains=ss.n_chains)
        else:
            raise ConfigError(f"unknown method {cfg.method!r}")

    diagnostics["pf"] = pf
    kde_inputs = {name: {"n_failure_samples": c.n_failure_samples,
                         "ess": c.ess, "clip_fraction": c.clip_fraction}
                  for name, c in curves.items() if c.source == "kde"}
    if kde_inputs:
        diagnostics["kde_inputs"] = kde_inputs
    method_label = {"mc": "mc-kde", "subset": "subset-kde"}.get(cfg.method,
                                                                cfg.method)

    safety_report = None
    if cfg.safety is not None:
        with timer.time("safety_evppi"):
            curve_list = [curves[n] for n in cfg.names]
            extra = {
                "n_failure_samples": max(c.n_failure_samples for c in curve_list),
                "clip_fraction": max(c.clip_fraction for c in curve_list),
            }
            safety_report = dec.safety_report(
                curve_list, cfg.marginals, cfg.names, cfg.safety,
                method=method_label, pf=pf, diagnostics=extra)

    diagnostics["stage_seconds"] = dict(timer.stages)
    return AnalysisResult(pf=pf, curves=curves, safety_report=safety_report,
                          design=design_block, form_result=form_result,
                          diagnostics=diagnostics)


def _design_analysis(cfg, grids, pool, form_solves):
    """Per-design reliability plus the inner-optimization EVPPI.

    FORM solves start from the previous design's design point and are
    appended to ``form_solves`` as (design value, result).
    """
    grid = cfg.design.grid
    pf_per_design = np.empty(grid.size)
    curve_sets = {name: [] for name in cfg.names}
    for j, a in enumerate(grid):
        if cfg.method == "analytic":
            pf_a, curves_a = _analytic_curves(cfg, grids, a=a, pool=pool)
        elif cfg.method == "form":
            u0 = form_solves[-1][1].u_star if form_solves else None
            pf_a, curves_a, res = _form_curves(cfg, grids, a=a, pool=pool,
                                               u0=u0)
            form_solves.append((float(a), res))
        elif cfg.method == "mc":
            mc = sample.crude_mc(cfg.joint, cfg.limit_state, cfg.n,
                                 cfg.seed + j + 1, a=a)
            pf_a = mc.pf_hat
            curves_a = _kde_curves(cfg, grids, pf_a, mc.failure_samples, pool)
        else:
            ss = sample.subset_simulation(cfg.joint, cfg.limit_state,
                                          cfg.n_per_level, cfg.p0,
                                          cfg.seed + j + 1, a=a)
            pf_a = ss.pf_hat
            curves_a = _kde_curves(cfg, grids, pf_a, ss.last_level_samples,
                                   pool, n_chains=ss.n_chains)
        pf_per_design[j] = pf_a
        for name in cfg.names:
            curve_sets[name].append(curves_a[name])

    prior = dec.prior_design(pf_per_design, cfg.design)
    entries = []
    details = {}
    for name, marginal in zip(cfg.names, cfg.marginals):
        out = dec.evppi_design(curve_sets[name], pf_per_design, cfg.design,
                               marginal)
        entries.append(dec.EvppiEntry(name=name, absolute=out["evppi"]))
        details[name] = out
    report = dec.normalize(dec.EvppiReport(entries=tuple(entries),
                                           method=f"{cfg.method}-design"))
    return {"prior": prior, "pf_per_design": pf_per_design.tolist(),
            "report": report, "details": details}


# -- FORM sensitivity curves ----------------------------------------------------

ALPHA_GRID = np.linspace(0.01, 0.99, 99)


def form_evppi_curves(betas, cost_ratio, mode):
    """EVPPI against |alpha| for each reliability index.

    Safety mode evaluates the accept/replace closed form with c_f = 1;
    design mode evaluates the affine-design closed form normalized by its
    value at alpha^2 = 1.
    """
    if mode not in ("safety", "design"):
        raise ConfigError(f"unknown mode {mode!r}")
    rows = []
    for beta in betas:
        if beta <= 0.0:
            raise ConfigError("betas must be positive")
        pf = float(special.std_normal_cdf(-beta))
        if mode == "safety":
            values = [form.evppi_form_safety(beta, a, 1.0, cost_ratio)
                      for a in ALPHA_GRID]
        else:
            ref = form.evppi_form_design(beta, 1.0, 1.0)
            values = [form.evppi_form_design(beta, a, 1.0) / ref
                      for a in ALPHA_GRID]
        for a, v in zip(ALPHA_GRID, values):
            rows.append({"beta": float(beta), "pf": pf, "alpha": float(a),
                         "alpha_sq": float(a * a), "evppi": float(v)})
    return rows
