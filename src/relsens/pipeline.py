"""Orchestration: from a validated RunConfig to curves and reports.

One estimator serves both decision stages. ``estimate`` computes pf at
each value of the design grid, which it carries as an array axis, and
gives every input's conditional-pf curve at each; a design-free limit
state (the safety stage) is the one-row case. The design stage picks the
prior-optimal design from pf, reports the curves of its row and takes
each input's design EVPPI straight from the rows, so no reliability
analysis is repeated. The decision layer is shared.

At mc and subset a design row is the one-design run at its design value
on the run's seed: crude MC evaluates every design on one sample, and
subset simulation runs every design on the seed's streams. Each fact
about a row's sample is stated once, by its sampler. Crude MC reports
starvation and ``n_failure_samples_per_design``, and no autocorrelation
ESS, as its rows are independent draws: a row's ESS is its
``n_failure_samples``. Subset reports the chain ESS (Au & Beck 2001) of
each input at the reported row as ``diagnostics.ess``.

At analytic and FORM every conditional pf has one form, pf(z) =
Phi((rho_ji z - beta_j)/sqrt(1 - rho_ji^2)) in the copula coordinate z
of input i at design row j. FORM takes beta0 and rho = L alpha
(``form.copula_rho``), and the analytic method the log-margin's index
and correlations (``dists.lognormal_linear_index``); either is computed
once per run. Each curve carries its (beta_j, rho_ji), from which the
safety stage and ``sweep`` take the EVPPI in closed form
(``form.evppi_form_safety``), with no quadrature over the grid. At
|rho_ji| = 1 the curve is a step. The design stage integrates the rows
on the grid, which cannot place a step, so a design row with one raises.

Only crude MC's sampling runs on threads (see ``sample``); every other
step runs on the calling thread. The per-input stage of ``run_analysis``
takes each input in turn: its (designs x grid) conditional pf rows, its
curve at the reported row and, at the design stage, its design EVPPI.
At analytic and FORM the rows are the closed forms, evaluated when the
input's turn comes and dropped after it (the curve copies its row), so
one input's rows are kept at a time. At example 1's design stage that is
one Phi pass over 151 x 512 values per input. Two threads take that
stage from 5.1-5.5 ms to 3.9-4.7 ms (medians on a 2-CPU VM) once an
earlier crude-MC run in the process has warmed the helper's heap, and by
an uneven amount in a fresh process; the package keeps its one thread
loop in crude MC for simplicity. The KDE fits of mc and subset run one
after another in ``estimate``: their pair sums make many small numpy
calls, and on 2 threads the four curves of a run were slower (18.5 ->
20.0 ms on dependent-subset's sample, 12-15 -> 16-18 ms on column-mc's).

``run_analysis`` times two stages: ``reliability`` (the FORM search, the
sampling, the KDE fits and the reported row's diagnostics, such as
subset's ESS), then ``safety_evppi`` or ``design_evppi``, which holds the
per-input stage and the report. At mc, ``diagnostics.workers`` is the
number of threads crude MC drew on.

Importing this module loads ``condest``, ``quantile`` and ``sample``
with it; ``sample`` stays a module-level import (the import order is
explained in ``cli``). ``form`` is imported only by ``_form`` and
``form_evppi_curves``, so mc and subset runs never compile it.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np

from . import condest, config as config_mod, decision as dec, dists, sample, special
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

    ``values(i)`` gives input i's (n_designs, n_grid) conditional pf rows,
    and ``curve(i, j, row)`` its ConditionalPfCurve at design row j, whose
    pf values are ``row`` = values(i)[j]. At analytic and FORM these
    evaluate the closed forms when called; at mc and subset they read the
    curves ``estimate`` fitted. ``row_diagnostics(j)`` gives row j's
    method diagnostics, and ``diagnostics`` holds figures of all rows.
    """

    pf: np.ndarray                     # (n_designs,)
    values: object
    curve: object
    row_diagnostics: object
    diagnostics: dict


def estimate(cfg, designs=None):
    """pf and conditional-pf curves at every design value.

    ``designs`` is the design grid, or None for a design-free limit state.
    """
    grids = [condest.default_grid(m, cfg.grid_points) for m in cfg.marginals]
    if cfg.method == "analytic":
        return _analytic(cfg, grids, designs)
    if cfg.method == "form":
        return _form(cfg, grids, designs)
    if cfg.method == "mc":
        return _mc(cfg, grids, designs)
    if cfg.method == "subset":
        return _subset(cfg, grids, designs)
    raise ConfigError(f"unknown method {cfg.method!r}")


def _function_estimate(cfg, grids, designs, beta, rho, values, source,
                       row_diagnostics, diagnostics):
    """Estimate of a closed-form method: row j has pf Phi(-beta[j]), and
    input i's conditional pf at its copula coordinate z is
    Phi((r z - beta[j])/sqrt(1 - r^2)), r = rho[j, i]. Row curves wrap the
    value rows and carry (beta[j], r). A design row with |r| = 1, a step,
    raises: the design EVPPI's trapezoid cannot place a step."""
    if designs is not None and np.any(np.abs(rho) == 1.0):
        j, i = np.argwhere(np.abs(rho) == 1.0)[0]
        raise DomainError(f"at a = {float(designs[j])!r}, {cfg.names[i]}'s "
                          "conditional pf is a step (|rho| = 1), for which "
                          "the design EVPPI needs exact decision regions")
    pf = special.std_normal_cdf(-beta)

    def curve(i, j, row):
        return condest.curve_from_function(cfg.marginals[i], row, pf[j],
                                           grids[i], source=source,
                                           beta=beta[j], rho=rho[j, i])

    return Estimate(pf, values, curve, row_diagnostics, diagnostics)


def _analytic(cfg, grids, designs):
    problem = config_mod.analytic_problem(cfg, designs)
    beta, rho = dists.lognormal_linear_index(problem)
    rho = np.broadcast_to(rho, (len(beta), len(rho)))
    return _function_estimate(
        cfg, grids, designs, beta, rho,
        lambda i: dists.lognormal_linear_conditional_pf(problem, i, grids[i]),
        "analytic", lambda j: {}, {})


def _form(cfg, grids, designs):
    from . import form

    res = form.solve_form(cfg.joint, cfg.limit_state, designs)
    rho = form.copula_rho(cfg.joint, res)
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

    return _function_estimate(
        cfg, grids, designs, res.beta0, rho,
        lambda i: form.conditional_pf_x(cfg.joint, i, grids[i], res.beta0, rho),
        "form", row_diagnostics, diagnostics)


def _kde_estimate(cfg, grids, pf, failure_rows, diagnostics, row_diagnostics):
    """Estimate of a sampling method: fits the failure samples
    ``failure_rows(j)`` of each row j here, one after another."""
    rows = []
    for j in range(len(pf)):
        samples = failure_rows(j)
        rows.append([condest.conditional_pf_from_failure_samples(
                         m, samples[:, i], pf[j], grids[i])
                     for i, m in enumerate(cfg.marginals)])
    return Estimate(pf,
                    lambda i: np.vstack([row[i].pf_values for row in rows]),
                    lambda i, j, row: rows[j][i], row_diagnostics,
                    diagnostics)


def _mc(cfg, grids, designs):
    mc = sample.crude_mc(cfg.joint, cfg.limit_state, cfg.n, cfg.seed,
                         a=designs)
    counts = mc.n_fail.tolist()
    starved = [j for j, c in enumerate(counts) if c < condest.MIN_FAILURE_VALUES]
    if starved:
        if designs is None:
            where, found = "", f"found {counts[0]}"
        else:
            a = designs.tolist()
            where, found = "per design ", "too few at " + ", ".join(
                f"a = {a[j]!r} ({counts[j]})" for j in starved)
        raise DomainError(
            f"need at least {condest.MIN_FAILURE_VALUES} failure values "
            f"{where}for the density fits (raise n); {found}")
    lo, hi = mc.ci95

    def row_diagnostics(j):
        return {"n": mc.n, "ci95": [float(lo[j]), float(hi[j])],
                "n_failure_samples": counts[j], "workers": mc.workers}

    diagnostics = {"g_evals": mc.n * len(counts)}
    if designs is not None:
        diagnostics["n_failure_samples_per_design"] = counts
    return _kde_estimate(cfg, grids, mc.pf_hat, mc.failures, diagnostics,
                         row_diagnostics)


def _subset(cfg, grids, designs):
    runs = [sample.subset_simulation(cfg.joint, cfg.limit_state,
                                     cfg.n_per_level, cfg.p0, cfg.seed, a=a)
            for a in ([None] if designs is None else designs)]

    def row_diagnostics(j):
        ss = runs[j]
        x = ss.last_level_samples
        return {"levels": [list(t) for t in ss.levels],
                "n_failure_samples": len(x), "accept_rate": ss.accept_rate,
                "ess": {name: condest.effective_sample_size(
                            x[:, i], stride=ss.n_chains)
                        for i, name in enumerate(cfg.names)}}

    return _kde_estimate(cfg, grids, np.array([ss.pf_hat for ss in runs]),
                         lambda j: runs[j].last_level_samples,
                         {"g_evals": sum(ss.g_evals for ss in runs)},
                         row_diagnostics)


def run_analysis(cfg):
    """Full pipeline for one configuration."""
    t0 = time.perf_counter()
    designs = None if cfg.design is None else cfg.design.grid
    est = estimate(cfg, designs)
    # a parametric limit state has no reliability of its own: report the
    # curves of the prior-optimal design's row
    prior = None if designs is None else dec.prior_design(est.pf, cfg.design)
    j = 0 if prior is None else prior["index"]
    row_diagnostics = est.row_diagnostics(j)
    t1 = time.perf_counter()

    curves, details = {}, {}
    for i, name in enumerate(cfg.names):
        values = est.values(i)
        curves[name] = est.curve(i, j, values[j])
        if prior is not None:
            details[name] = dec.evppi_design(curves[name], values, est.pf,
                                             cfg.design)
    pf = float(est.pf[j])

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
        report = dec.evppi_report(cfg.names,
                                  [d["evppi"] for d in details.values()],
                                  f"{cfg.method}-design")
        design_block = {"prior": prior, "pf_per_design": est.pf.tolist(),
                        "report": report, "details": details}
    stage_seconds = {"reliability": t1 - t0,
                     stage: time.perf_counter() - t1}

    diagnostics = {"method": cfg.method, "seed": cfg.seed,
                   **row_diagnostics, **est.diagnostics}
    kde_inputs = {name: {"clip_fraction": c.clip_fraction,
                         "kernel_terms": c.kernel_terms}
                  for name, c in curves.items() if c.source == "kde"}
    if kde_inputs:
        diagnostics["kde_inputs"] = kde_inputs
    diagnostics["stage_seconds"] = stage_seconds
    return AnalysisResult(pf=pf, curves=curves, safety_report=safety_report,
                          design=design_block, diagnostics=diagnostics)


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
    from . import form

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
