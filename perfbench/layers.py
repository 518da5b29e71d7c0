"""Which relsens functions the traced run wraps, and the metrics it reports.

Every wrapped function is reached through a module attribute or a class
method at call time, so replacing that attribute puts a span around each
call the program makes. Spans that are not reported on their own still
matter: they keep their time out of their parent's self time.
"""

from __future__ import annotations

import numpy as np

from layertrace import SpanStats, Tracer

KINDS = ("normal", "lognormal", "gumbel", "weibull")
IMPORT_PACKAGES = ("numpy", "scipy", "jsonschema", "relsens")

# reported self times, one per layer boundary
SELF_TIMED = (
    "config.validate_config", "dists.nataf_fit",
    "dists.sample", "dists.to_physical",
    *(f"dists.from_standard_normal.{k}" for k in KINDS),
    "dists.to_standard_normal",
    "special.std_normal_log_cdf", "special.std_normal_inv",
    "lsf.evaluate",
    "sample.crude_mc", "sample.subset_simulation",
    "form.solve_form", "form.conditional_pf_x",
    "condest.curve_from_function", "decision.evppi_design",
    "condest.kde_density", "condest.effective_sample_size",
    "pipeline.run_analysis", "cli.cmd_run",
)

# name -> unit of every per-layer metric, in report order
METRICS = {
    **{f"import.{p}_s": "s" for p in IMPORT_PACKAGES},
    **{f"{name}.self_s": "s" for name in SELF_TIMED},
    **{f"dists.from_standard_normal.{k}.values": "count" for k in KINDS},
    "dists.to_standard_normal.values": "count",
    "lsf.evaluate.calls": "count",
    "lsf.evaluate.rows": "count",
    "sample.g_evals": "count",
    "sample.failure_samples": "count",
    "sample.failure_yield": "1",
    "sample.subset.levels": "count",
    "sample.subset.accept_rate": "1",
    "form.solve_form.calls": "count",
    "form.iterations": "count",
    "form.g_evals_per_solve": "count",
    "form.converged_frac": "1",
    "condest.kde.kernel_evals": "count",
    "pipeline.run_analysis.total_s": "s",
    "trace.layer_share": "1",
    "trace.overhead_s": "s",
}

# counters reported as they stand
COUNTED = (
    *(f"dists.from_standard_normal.{k}.values" for k in KINDS),
    "dists.to_standard_normal.values", "lsf.evaluate.rows",
    "sample.g_evals", "sample.failure_samples", "sample.subset.levels",
    "form.iterations", "condest.kde.kernel_evals",
)


def _size(tracer, key, value):
    tracer.counts[key] += np.size(value)


def _count_g(tracer, result, limit_state, x, a=None):
    rows = 1 if np.ndim(x) == 1 else np.shape(x)[0]
    tracer.counts["lsf.evaluate.rows"] += rows
    if tracer.inside("sample."):
        tracer.counts["sample.g_evals"] += rows
    if tracer.inside("form.solve_form"):
        tracer.counts["form.g_evals"] += rows


def _count_mc(tracer, result, *args, **kwargs):
    tracer.counts["sample.failure_samples"] += len(result.failure_samples)


def _count_subset(tracer, result, *args, **kwargs):
    tracer.counts["sample.failure_samples"] += len(result.last_level_samples)
    tracer.counts["sample.subset.levels"] += len(result.levels)
    tracer.counts["sample.subset.accept_rate_sum"] += result.accept_rate


def _count_form(tracer, result, *args, **kwargs):
    tracer.counts["form.iterations"] += result.iterations
    tracer.counts["form.converged"] += bool(result.converged)


def _count_kernels(tracer, result, model, t):
    tracer.counts["condest.kde.kernel_evals"] += len(model.points) * np.size(t)


def build_tracer():
    """A Tracer wired to relsens's layer boundaries (not yet installed)."""
    from relsens import (cli, condest, config, decision, dists, form, lsf,
                         pipeline, sample, special)

    t = Tracer()
    t.wrap(config, "validate_config", "config.validate_config")
    t.wrap(dists, "nataf_fit", "dists.nataf_fit")
    t.wrap(dists.GaussianCopulaJoint, "sample", "dists.sample")
    t.wrap(dists.GaussianCopulaJoint, "to_physical", "dists.to_physical")
    t.wrap(dists.Marginal, "from_standard_normal",
           lambda m, z: f"dists.from_standard_normal.{m.kind}",
           lambda tr, r, m, z: _size(
               tr, f"dists.from_standard_normal.{m.kind}.values", z))
    t.wrap(dists.Marginal, "to_standard_normal", "dists.to_standard_normal",
           lambda tr, r, m, x: _size(tr, "dists.to_standard_normal.values", x))
    t.wrap(special, "std_normal_log_cdf", "special.std_normal_log_cdf")
    t.wrap(special, "std_normal_inv", "special.std_normal_inv")
    t.wrap(lsf, "evaluate", "lsf.evaluate", _count_g)
    t.wrap(sample, "crude_mc", "sample.crude_mc", _count_mc)
    t.wrap(sample, "subset_simulation", "sample.subset_simulation", _count_subset)
    t.wrap(form, "solve_form", "form.solve_form", _count_form)
    t.wrap(form, "conditional_pf_x", "form.conditional_pf_x")
    t.wrap(condest, "curve_from_function", "condest.curve_from_function")
    t.wrap(condest, "conditional_pf_from_failure_samples", "condest.kde_curve")
    t.wrap(condest, "kde_fit", "condest.kde_fit")
    t.wrap(condest.KdeModel, "density_transformed", "condest.kde_density",
           _count_kernels)
    t.wrap(condest, "effective_sample_size", "condest.effective_sample_size")
    t.wrap(decision, "evppi_design", "decision.evppi_design")
    t.wrap(decision, "safety_report", "decision.safety_report")
    t.wrap(pipeline, "run_analysis", "pipeline.run_analysis")
    t.wrap(cli, "cmd_run", "cli.cmd_run")
    return t


def layer_metrics(tracer):
    """Per-layer figures of one traced ``relsens run`` (no import.*/trace.*)."""
    empty = SpanStats()

    def span(name):
        return tracer.spans.get(name, empty)

    def count(key):
        return tracer.counts.get(key, 0)

    def ratio(num, den):
        return num / den if den else 0.0

    out = {f"{name}.self_s": span(name).self for name in SELF_TIMED}
    out.update({key: count(key) for key in COUNTED})
    form_calls = span("form.solve_form").calls
    run = span("pipeline.run_analysis")
    out.update({
        "lsf.evaluate.calls": span("lsf.evaluate").calls,
        "sample.failure_yield": ratio(count("sample.failure_samples"),
                                      count("sample.g_evals")),
        "sample.subset.accept_rate": ratio(
            count("sample.subset.accept_rate_sum"),
            span("sample.subset_simulation").calls),
        "form.solve_form.calls": form_calls,
        "form.g_evals_per_solve": ratio(count("form.g_evals"), form_calls),
        "form.converged_frac": ratio(count("form.converged"), form_calls),
        "pipeline.run_analysis.total_s": run.total,
        # share of run_analysis spent inside the wrapped layers below it
        "trace.layer_share": ratio(run.total - run.self, run.total),
    })
    return out
