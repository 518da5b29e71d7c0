"""The benchmark's workloads and the frozen references that check them.

Each workload is a shipped example config with only the method, the
sample size and the seed overridden; the seed comes from the benchmark's
``--seed``. The reference values live here, not in ``relsens``, so that a
defect in the program cannot move the result and its reference together.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from pathlib import Path


@dataclass(frozen=True)
class Workload:
    name: str
    base: str                       # file under configs/
    overrides: dict
    why: str
    oracle: dict = None             # input -> analytic normalized EVPPI
    evppi_tol: float = None         # largest accepted |EVPPI - oracle|


# Normalized EVPPI of the lognormal-linear analytic method on the shipped
# configs (method "analytic"), frozen at relsens 0.1.0.
ORACLE_DESIGN = {"R": 0.2623215513260862, "S": 0.4092020026133254,
                 "XR": 0.06615584057559885, "XS": 0.2623206054849896}
ORACLE_DEPENDENT = {"R": 0.2557806390307593, "S": 0.4098645542521545,
                    "XR": 0.040422535006564814, "XS": 0.2939322717105215}

# Short-column pf pooled over 32 crude-MC runs of 1e6 samples each
# (seeds 100..131): 296967 failures in 3.2e7 draws.
COLUMN_PF_REF = 0.00928021875
COLUMN_PF_REF_SD = math.sqrt(COLUMN_PF_REF * (1.0 - COLUMN_PF_REF) / 3.2e7)


WORKLOADS = {w.name: w for w in (
    Workload(
        "column-mc", "example2_safety.json", {},
        why="paper example 2 as shipped: crude MC at n=1e6 with correlated "
            "normal/Gumbel/Weibull inputs; bulk RNG, copula map, marginal "
            "transforms and a large-array LSF, no FORM"),
    Workload(
        "component-design-form", "example1_design.json", {"method": "form"},
        why="paper example 1 design stage by FORM over 151 designs: "
            "deterministic, Python-overhead bound (many tiny LSF and "
            "transform calls), no sampling, no KDE",
        oracle=ORACLE_DESIGN, evppi_tol=1e-8),
    Workload(
        "component-dependent-subset", "example1_safety_dependent.json",
        {"method": "subset", "n_per_level": 20000},
        why="paper example 1 with dependent inputs by subset simulation: "
            "MCMC in small batches, lognormal marginals, KDE-dominated "
            "analysis and the largest memory peak",
        oracle=ORACLE_DEPENDENT, evppi_tol=0.05),
)}


def make_config(workload, root, seed, path):
    """Write the workload's config for ``seed`` to ``path``; return it."""
    with open(Path(root) / "configs" / workload.base) as fh:
        raw = json.load(fh)
    raw.update(workload.overrides)
    raw["seed"] = seed
    with open(path, "w") as fh:
        json.dump(raw, fh, indent=2)
    return raw


def size(raw):
    """The workload size figures recorded with every result."""
    out = {"method": raw["method"]}
    for key in ("n", "n_per_level"):
        if key in raw:
            out[key] = raw[key]
    design = raw["decision"].get("design")
    if design is not None:
        out["designs"] = design["grid"]["count"]
    return out


def check_values(workload, pf, normalized, raw):
    """Workload-specific correctness; returns (evppi_err or None, problems)."""
    problems = []
    err = None
    if workload.oracle is not None:
        err = max(abs(normalized[k] - v) for k, v in workload.oracle.items())
        if not err <= workload.evppi_tol:
            problems.append(f"evppi_err {err:.3g} exceeds {workload.evppi_tol:g}")
    if workload.name == "column-mc":
        # five standard deviations of the run's own estimate plus the reference's
        n = raw["n"]
        half = 5.0 * (math.sqrt(COLUMN_PF_REF * (1.0 - COLUMN_PF_REF) / n)
                      + COLUMN_PF_REF_SD)
        if not abs(pf - COLUMN_PF_REF) <= half:
            problems.append(f"pf {pf!r} outside {COLUMN_PF_REF} +/- {half:.3g}")
    return err, problems
