"""Command-line front end: ``relsens validate | run | sweep | form-curves``.

Exit codes: 0 success, 2 configuration error, 3 numeric failure. All
numbers in CSV outputs use the shortest round-trip decimal form, so a
fixed config and seed reproduce files byte for byte. ``report.json`` is
strict JSON: a non-finite number is written as ``null``.

``main()`` returns the exit code, for callers in the same process. The
console script and ``python -m relsens.cli`` go through ``entry()``,
which flushes stdout and stderr and ends the process with ``os._exit``:
every output file is closed by then, and the interpreter's teardown (its
final garbage collection over all loaded modules) would add only time.

Each command imports only the modules it runs. ``validate`` loads
``config``, ``decision``, ``dists``, ``lsf``, ``special`` and ``errors``
besides this module, and no estimator. ``run`` and ``sweep`` import
``pipeline`` (and through it ``condest``, ``quantile`` and ``sample``)
as their first step, and ``form`` only for a FORM search or a
closed-form safety EVPPI (FORM, and analytic safety), so mc and subset
runs never load it; ``form-curves`` imports ``pipeline`` and ``form``.
Only ``run``'s manifest imports ``hashlib`` itself. What this saves is
the compile and dataclass set-up of the estimators in ``validate`` and
in a bare ``import relsens``; a run compiles the same modules, only
later. The run imports ``pipeline`` before the config load, and
``pipeline`` imports ``sample`` at module level, because peak RSS
depends on import order: compiling ``pipeline`` and ``sample`` after
the Nataf fit and the load of scipy.special's ufuncs raised column-mc's
peak RSS from 45.81 to 45.93 MB (medians of 20 alternating cold runs a
side, higher in 18 of 20 pairs, 2-CPU VM). Deferring ``sample`` alone
raised it by 0.5 MB when the Nataf fit still imported the whole of
scipy.special.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
import time
from dataclasses import asdict
from pathlib import Path

import numpy as np

from . import __version__, config as config_mod, decision as dec
from .errors import ConfigError, RelsensError

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_NUMERIC = 3

THREADS_HELP = ("accepted for compatibility and not used: crude MC runs at "
                "most one worker thread per CPU in the process's affinity "
                "mask (restrict it with taskset), whatever this value, and "
                "every other stage runs on one thread; results never depend "
                "on either")


def _floats(values):
    """The shortest round-trip decimal form of each of ``values``."""
    return map(repr, np.asarray(values, dtype=float).tolist())


def _sha256(path):
    import hashlib

    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(65536), b""):
            h.update(chunk)
    return h.hexdigest()


def _write_csv(path, header, columns):
    """Write ``header`` and the rows of ``columns``, each a sequence of
    strings, as ``csv.writer`` writes them: comma-separated, every line
    ended by CR LF. No field is quoted, as none needs it: they are
    numbers, input names (identifiers) and fixed words. The rows are
    streamed, not joined into one string per file."""
    with open(path, "w", newline="") as fh:
        fh.write(",".join(header) + "\r\n")
        fh.writelines(",".join(row) + "\r\n" for row in zip(*columns))


def _report_columns(report):
    entries = report.entries
    return [[e.name for e in entries],
            *(_floats([getattr(e, key) for e in entries])
              for key in ("absolute", "normalized", "relative"))]


def _strict_json(obj):
    """``obj`` with every non-finite float replaced by None."""
    if isinstance(obj, float):
        return obj if math.isfinite(obj) else None
    if isinstance(obj, dict):
        return {k: _strict_json(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_strict_json(v) for v in obj]
    return obj


def _apply_overrides(raw, args):
    if getattr(args, "seed", None) is not None:
        raw["seed"] = args.seed
    if getattr(args, "out", None) is not None:
        raw["outputs"] = args.out
    if getattr(args, "method", None) is not None:
        raw["method"] = args.method
    return raw


def _load(args):
    raw = config_mod.read_config(args.config)
    return config_mod.validate_config(_apply_overrides(raw, args))


def _outdir(cfg):
    """Make the output directory of ``cfg``. Called once the analysis has
    returned, so a run that fails leaves no directory behind."""
    outdir = Path(cfg.outputs)
    outdir.mkdir(parents=True, exist_ok=True)
    return outdir


def _warn_form_non_convergence(result):
    failed = result.diagnostics.get("form", {}).get("not_converged")
    if failed:
        print("warning: FORM search did not converge for: "
              + ", ".join(map(str, failed)), file=sys.stderr)


# -- subcommands ---------------------------------------------------------------

def cmd_validate(args):
    try:
        cfg = config_mod.load_config(args.config)
    except ConfigError as exc:
        print(f"invalid: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    print(f"valid: {len(cfg.names)} inputs, method {cfg.method}, "
          f"decision blocks: "
          f"{'safety ' if cfg.safety else ''}{'design' if cfg.design else ''}".strip())
    return EXIT_OK


def cmd_run(args):
    from . import pipeline      # before _load (module docstring)

    t0 = time.perf_counter()
    cfg = _load(args)                  # JSON, schema, marginal and Nataf fits
    load_seconds = time.perf_counter() - t0
    written = []
    try:
        result = pipeline.run_analysis(cfg)
        outdir = _outdir(cfg)
        result.diagnostics["stage_seconds"] = {
            "load": load_seconds, **result.diagnostics["stage_seconds"]}

        # validate_config admits exactly one of the safety and design blocks
        table_report = (result.safety_report if cfg.safety is not None
                        else result.design["report"])
        table_path = outdir / "evppi_table.csv"
        _write_csv(table_path, ["input", "absolute", "normalized", "relative"],
                   _report_columns(table_report))
        written.append(table_path)

        for name in cfg.names:
            curve = result.curves[name]
            cpath = outdir / f"pf_curve_{name}.csv"
            grid = list(_floats(curve.grid))     # written to both files
            cond = (curve.density_conditional
                    if curve.density_conditional is not None
                    else np.full_like(curve.grid, np.nan))
            _write_csv(cpath, ["x", "pf", "density_prior", "density_conditional"],
                       [grid, *(_floats(v) for v in (curve.pf_values,
                                                     curve.density_prior, cond))])
            written.append(cpath)
            if cfg.safety is not None:
                vpath = outdir / f"cvppi_{name}.csv"
                values = dec.cvppi_curve(curve, cfg.safety)
                _write_csv(vpath, ["x", "cvppi"], [grid, _floats(values)])
                written.append(vpath)

        report = {
            "pf": result.pf,
            "safety": (asdict(result.safety_report)
                       if result.safety_report else None),
            "design": None,
            "diagnostics": result.diagnostics,
        }
        if result.design is not None:
            report["design"] = {
                "a_opt": result.design["prior"]["a_opt"],
                "pf_at_a_opt": result.design["prior"]["pf"],
                "prior_expected_loss": result.design["prior"]["expected_loss"],
                "report": asdict(result.design["report"]),
                "details": {name: {"raw": out["raw"],
                                   "negative_clipped": out["negative_clipped"]}
                            for name, out in result.design["details"].items()},
            }
        manifest = {
            "config_sha256": _sha256(args.config),
            "seed": cfg.seed,
            "method": cfg.method,
            "tool_version": __version__,
            "wall_seconds": time.perf_counter() - t0,
            "outputs": {p.name: _sha256(p) for p in written},
        }
        report["manifest"] = manifest
        with open(outdir / "report.json", "w") as fh:
            json.dump(_strict_json(report), fh, indent=2, allow_nan=False)
        print(f"pf = {result.pf:.6g}; wrote {len(written) + 1} files to {outdir}")
        _warn_form_non_convergence(result)
        return EXIT_OK
    except RelsensError as exc:
        for p in written:
            p.unlink(missing_ok=True)
        print(f"numeric failure in run: {exc}", file=sys.stderr)
        return EXIT_NUMERIC


def cmd_sweep(args):
    from . import pipeline      # before _load (module docstring)

    cfg = _load(args)
    if cfg.safety is None:
        print("sweep requires a safety decision block", file=sys.stderr)
        return EXIT_CONFIG
    if args.ratio_count < 1:
        print("--ratio-count must be at least 1", file=sys.stderr)
        return EXIT_CONFIG
    if not (0.0 < args.ratio_min < 1.0 and 0.0 < args.ratio_max < 1.0):
        print("ratio grid must lie inside (0, 1)", file=sys.stderr)
        return EXIT_CONFIG
    ratios = np.geomspace(args.ratio_min, args.ratio_max, args.ratio_count)
    try:
        result = pipeline.run_analysis(cfg)
        outdir = _outdir(cfg)
        rows = dec.threshold_sweep([result.curves[n] for n in cfg.names],
                                   cfg.names, cfg.safety.c_f, ratios,
                                   result.pf)
        header = ["ratio"]
        columns = [_floats([row["ratio"] for row in rows])]
        for k, n in enumerate(cfg.names):
            for key in ("absolute", "relative", "normalized"):
                header.append(f"{n}_{key}")
                columns.append(_floats([getattr(row["report"].entries[k], key)
                                        for row in rows]))
        _write_csv(outdir / "sweep.csv", header, columns)
        print(f"wrote sweep.csv ({len(rows)} ratios) to {outdir}")
        _warn_form_non_convergence(result)
        return EXIT_OK
    except RelsensError as exc:
        print(f"numeric failure in sweep: {exc}", file=sys.stderr)
        return EXIT_NUMERIC


def cmd_form_curves(args):
    from . import pipeline

    try:
        betas = [float(b) for b in args.betas.split(",")]
        rows = pipeline.form_evppi_curves(betas, args.cost_ratio, args.mode)
    except (ValueError, RelsensError) as exc:
        print(f"invalid form-curves request: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    outdir = Path(args.out or ".")
    outdir.mkdir(parents=True, exist_ok=True)
    path = outdir / "curves.csv"
    keys = ["beta", "pf", "alpha", "alpha_sq", "evppi"]
    _write_csv(path, ["mode", *keys],
               [[args.mode] * len(rows),
                *(_floats([r[key] for r in rows]) for key in keys)])
    print(f"wrote {path} ({len(rows)} rows)")
    return EXIT_OK


# -- entry point -----------------------------------------------------------------

def build_parser():
    parser = argparse.ArgumentParser(
        prog="relsens",
        description="Decision-sensitivity (EVPPI) analysis for reliability models")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("validate", help="check a config file")
    p.add_argument("config")
    p.set_defaults(func=cmd_validate)

    p = sub.add_parser("run", help="run the configured analysis")
    p.add_argument("config")
    p.add_argument("--seed", type=int)
    p.add_argument("--out")
    p.add_argument("--method", choices=["analytic", "form", "mc", "subset"])
    p.add_argument("--threads", type=int, default=1, help=THREADS_HELP)
    p.set_defaults(func=cmd_run)

    p = sub.add_parser("sweep", help="EVPPI against the cost ratio")
    p.add_argument("config")
    p.add_argument("--ratio-min", type=float, default=1e-5)
    p.add_argument("--ratio-max", type=float, default=0.3)
    p.add_argument("--ratio-count", type=int, default=40)
    p.add_argument("--seed", type=int)
    p.add_argument("--out")
    p.add_argument("--method", choices=["analytic", "form", "mc", "subset"])
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("form-curves",
                       help="closed-form EVPPI against the sensitivity index")
    p.add_argument("--betas", required=True,
                   help="comma-separated reliability indices")
    p.add_argument("--cost-ratio", type=float, default=1e-3,
                   help="c_r / c_f of the safety mode; design mode ignores it")
    p.add_argument("--mode", choices=["safety", "design"], default="safety")
    p.add_argument("--out")
    p.set_defaults(func=cmd_form_curves)
    return parser


def main(argv=None):
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (ConfigError, OSError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except RelsensError as exc:
        print(f"numeric failure: {exc}", file=sys.stderr)
        return EXIT_NUMERIC


def entry():
    """Run ``main()`` and end the process without interpreter teardown.

    An exception that escapes ``main()`` propagates, so the process still
    exits with its traceback.
    """
    code = main()
    sys.stdout.flush()
    sys.stderr.flush()
    os._exit(code)


if __name__ == "__main__":
    entry()
