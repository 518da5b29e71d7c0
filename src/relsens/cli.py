"""Command-line front end: ``relsens validate | run | sweep | form-curves``.

Exit codes: 0 success, 2 configuration error, 3 numeric failure. All
numbers in CSV outputs use the shortest round-trip decimal form, so a
fixed config and seed reproduce files byte for byte.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import json
import sys
import time
from pathlib import Path

import numpy as np

from . import __version__, config as config_mod, decision as dec
from . import condest, pipeline
from .errors import ConfigError, RelsensError

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_NUMERIC = 3


def _fmt(x):
    return repr(float(x))


def _sha256(path):
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(65536), b""):
            h.update(chunk)
    return h.hexdigest()


def _write_csv(path, header, rows):
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)


def _report_rows(report):
    rows = []
    for e in report.entries:
        rows.append([e.name, _fmt(e.absolute), _fmt(e.normalized),
                     _fmt(e.relative)])
    return rows


def _report_dict(report):
    return {
        "method": report.method,
        "evpi": report.evpi,
        "entries": [{"name": e.name, "absolute": e.absolute,
                     "normalized": e.normalized, "relative": e.relative}
                    for e in report.entries],
        "diagnostics": report.diagnostics,
    }


def _apply_overrides(raw, args):
    if getattr(args, "seed", None) is not None:
        raw["seed"] = args.seed
    if getattr(args, "out", None) is not None:
        raw["outputs"] = args.out
    if getattr(args, "method", None) is not None:
        raw["method"] = args.method
    return raw


def _load(args):
    with open(args.config) as fh:
        raw = json.load(fh)
    return config_mod.validate_config(_apply_overrides(raw, args))


# -- subcommands ---------------------------------------------------------------

def cmd_validate(args):
    try:
        cfg = config_mod.load_config(args.config)
    except (ConfigError, OSError, json.JSONDecodeError) as exc:
        print(f"invalid: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    print(f"valid: {len(cfg.names)} inputs, method {cfg.method}, "
          f"decision blocks: "
          f"{'safety ' if cfg.safety else ''}{'design' if cfg.design else ''}".strip())
    return EXIT_OK


def cmd_run(args):
    t0 = time.perf_counter()
    cfg = _load(args)                  # JSON, schema, marginal and Nataf fits
    load_seconds = time.perf_counter() - t0
    outdir = Path(cfg.outputs)
    outdir.mkdir(parents=True, exist_ok=True)
    written = []
    try:
        result = pipeline.run_analysis(cfg, threads=args.threads)
        result.diagnostics["stage_seconds"] = {
            "load": load_seconds, **result.diagnostics["stage_seconds"]}

        # validate_config admits exactly one of the safety and design blocks
        table_report = (result.safety_report if cfg.safety is not None
                        else result.design["report"])
        table_path = outdir / "evppi_table.csv"
        _write_csv(table_path, ["input", "absolute", "normalized", "relative"],
                   _report_rows(table_report))
        written.append(table_path)

        for name in cfg.names:
            curve = result.curves[name]
            cpath = outdir / f"pf_curve_{name}.csv"
            condest.write_curve_csv(cpath, curve)
            written.append(cpath)
            if cfg.safety is not None:
                vpath = outdir / f"cvppi_{name}.csv"
                values = dec.cvppi_curve(curve, cfg.safety)
                _write_csv(vpath, ["x", "cvppi"],
                           [[_fmt(x), _fmt(v)]
                            for x, v in zip(curve.grid, values)])
                written.append(vpath)

        report = {
            "pf": result.pf,
            "safety": (_report_dict(result.safety_report)
                       if result.safety_report else None),
            "design": None,
            "diagnostics": result.diagnostics,
        }
        if result.design is not None:
            report["design"] = {
                "a_opt": result.design["prior"]["a_opt"],
                "pf_at_a_opt": result.design["prior"]["pf"],
                "prior_expected_loss": result.design["prior"]["expected_loss"],
                "report": _report_dict(result.design["report"]),
            }
        manifest = {
            "config_sha256": _sha256(args.config),
            "seed": cfg.seed,
            "method": cfg.method,
            "tool_version": __version__,
            "wall_seconds": time.perf_counter() - t0,
            "stage_diagnostics": result.diagnostics["stage_seconds"],
            "outputs": {p.name: _sha256(p) for p in written},
        }
        report["manifest"] = manifest
        with open(outdir / "report.json", "w") as fh:
            json.dump(report, fh, indent=2)
        print(f"pf = {result.pf:.6g}; wrote {len(written) + 1} files to {outdir}")
        failed = result.diagnostics.get("form", {}).get("not_converged")
        if failed:
            print("warning: FORM search did not converge for: "
                  + ", ".join(map(str, failed)), file=sys.stderr)
        return EXIT_OK
    except RelsensError as exc:
        for p in written:
            p.unlink(missing_ok=True)
        print(f"numeric failure in run: {exc}", file=sys.stderr)
        return EXIT_NUMERIC


def cmd_sweep(args):
    cfg = _load(args)
    if cfg.safety is None:
        print("sweep requires a safety decision block", file=sys.stderr)
        return EXIT_CONFIG
    ratios = np.geomspace(args.ratio_min, args.ratio_max, args.ratio_count)
    if np.any((ratios <= 0.0) | (ratios >= 1.0)):
        print("ratio grid must lie inside (0, 1)", file=sys.stderr)
        return EXIT_CONFIG
    outdir = Path(cfg.outputs)
    outdir.mkdir(parents=True, exist_ok=True)
    try:
        result = pipeline.run_analysis(cfg, threads=args.threads)
        rows = dec.threshold_sweep([result.curves[n] for n in cfg.names],
                                   cfg.marginals, cfg.names, cfg.safety.c_f,
                                   ratios, result.pf)
        header = ["ratio"]
        for n in cfg.names:
            header += [f"{n}_absolute", f"{n}_relative", f"{n}_normalized"]
        out_rows = []
        for row in rows:
            rep = row["report"]
            vals = [_fmt(row["ratio"])]
            for e in rep.entries:
                vals += [_fmt(e.absolute), _fmt(e.relative), _fmt(e.normalized)]
            out_rows.append(vals)
        _write_csv(outdir / "sweep.csv", header, out_rows)
        print(f"wrote sweep.csv ({len(out_rows)} ratios) to {outdir}")
        return EXIT_OK
    except RelsensError as exc:
        print(f"numeric failure in sweep: {exc}", file=sys.stderr)
        return EXIT_NUMERIC


def cmd_form_curves(args):
    try:
        betas = [float(b) for b in args.betas.split(",")]
        rows = pipeline.form_evppi_curves(betas, args.cost_ratio, args.mode)
    except (ValueError, RelsensError) as exc:
        print(f"invalid form-curves request: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    outdir = Path(args.out or ".")
    outdir.mkdir(parents=True, exist_ok=True)
    path = outdir / "curves.csv"
    _write_csv(path, ["mode", "beta", "pf", "alpha", "alpha_sq", "evppi"],
               [[args.mode, _fmt(r["beta"]), _fmt(r["pf"]), _fmt(r["alpha"]),
                 _fmt(r["alpha_sq"]), _fmt(r["evppi"])] for r in rows])
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
    p.add_argument("--threads", type=int, default=1)
    p.set_defaults(func=cmd_run)

    p = sub.add_parser("sweep", help="EVPPI against the cost ratio")
    p.add_argument("config")
    p.add_argument("--ratio-min", type=float, default=1e-5)
    p.add_argument("--ratio-max", type=float, default=0.3)
    p.add_argument("--ratio-count", type=int, default=40)
    p.add_argument("--seed", type=int)
    p.add_argument("--out")
    p.add_argument("--method", choices=["analytic", "form", "mc", "subset"])
    p.add_argument("--threads", type=int, default=1)
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("form-curves",
                       help="closed-form EVPPI against the sensitivity index")
    p.add_argument("--betas", required=True,
                   help="comma-separated reliability indices")
    p.add_argument("--cost-ratio", type=float, default=1e-3)
    p.add_argument("--mode", choices=["safety", "design"], default="safety")
    p.add_argument("--out")
    p.set_defaults(func=cmd_form_curves)
    return parser


def main(argv=None):
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except (OSError, json.JSONDecodeError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except RelsensError as exc:
        print(f"numeric failure: {exc}", file=sys.stderr)
        return EXIT_NUMERIC


if __name__ == "__main__":
    sys.exit(main())
