"""Declarative run configuration: JSON schema plus semantic validation.

Inputs are specified by moments (mean and c.o.v., the canonical form) or
by native parameters. The limit state is a builtin id or expression
text. The decision block carries a safety case (design-free limit state)
or a design case (limit state with the design parameter ``a``), never
both.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from importlib import resources

import jsonschema
import numpy as np

from . import dists, lsf as lsf_mod
from .decision import DesignDecision, SafetyDecision
from .errors import ConfigError, RelsensError

DEFAULT_GRID_POINTS = 512


def _schema():
    text = (resources.files("relsens") / "schema" / "config.schema.json").read_text()
    return json.loads(text)


@dataclass(frozen=True)
class RunConfig:
    names: tuple
    marginals: tuple
    joint: dists.GaussianCopulaJoint
    limit_state: lsf_mod.LimitState
    safety: SafetyDecision = None
    design: DesignDecision = None
    method: str = "analytic"
    n: int = None
    n_per_level: int = None
    p0: float = 0.1
    seed: int = 0
    kde_transform: str = "marginal-standard-normal"
    grid_points: int = DEFAULT_GRID_POINTS
    outputs: str = "out"
    raw: dict = field(repr=False, default=None)


def _build_marginal(spec):
    kind = spec["dist"]
    if "params" in spec:
        if "mean" in spec or "cov" in spec:
            raise ConfigError(
                f"input {spec['name']!r}: give either moments or params, not both")
        return dists.marginal_from_params(kind, *spec["params"])
    if "mean" not in spec or "cov" not in spec:
        raise ConfigError(
            f"input {spec['name']!r}: needs mean and cov (or native params)")
    return dists.fit_params_from_moments(kind, spec["mean"], spec["cov"])


def validate_config(raw):
    """Schema plus semantic validation; returns a RunConfig.

    Raises ConfigError with a field path on any violation.
    """
    try:
        jsonschema.validate(raw, _schema())
    except jsonschema.ValidationError as exc:
        path = "/".join(str(p) for p in exc.absolute_path) or "<root>"
        raise ConfigError(f"{path}: {exc.message}") from exc

    names = tuple(spec["name"] for spec in raw["inputs"])
    if len(set(names)) != len(names):
        raise ConfigError("inputs: names must be unique")

    try:
        marginals = tuple(_build_marginal(s) for s in raw["inputs"])
    except RelsensError as exc:
        raise ConfigError(f"inputs: {exc}") from exc

    correlation = raw.get("correlation")
    try:
        if correlation is not None:
            correlation = np.asarray(correlation, dtype=float)
            if correlation.shape != (len(names), len(names)):
                raise ConfigError(
                    f"correlation: expected a {len(names)}x{len(names)} matrix")
            dists.validate_correlation(correlation)
        joint = dists.GaussianCopulaJoint.fit(marginals, correlation)
    except ConfigError:
        raise
    except RelsensError as exc:
        raise ConfigError(f"correlation: {exc}") from exc

    lspec = raw["lsf"]
    try:
        if "builtin" in lspec:
            limit_state = lsf_mod.builtin(lspec["builtin"])
            if limit_state.input_names != names:
                raise ConfigError(
                    f"lsf: builtin {lspec['builtin']!r} expects inputs "
                    f"{list(limit_state.input_names)}, config declares {list(names)}")
        else:
            limit_state = lsf_mod.LimitState.from_expression(lspec["expression"], names)
    except ConfigError:
        raise
    except RelsensError as exc:
        raise ConfigError(f"lsf: {exc}") from exc

    safety = design = None
    dblock = raw["decision"]
    if "safety" in dblock:
        if limit_state.has_design_param:
            raise ConfigError(
                "decision/safety: the limit state takes a design parameter, "
                "so the accept/replace case has no fixed system to assess; "
                "use a design-free limit state for the safety block")
        s = dblock["safety"]
        if s["c_r"] >= s["c_f"]:
            raise ConfigError("decision/safety: requires c_r < c_f")
        safety = SafetyDecision(c_f=s["c_f"], c_r=s["c_r"])
    if "design" in dblock:
        d = dblock["design"]
        if not limit_state.has_design_param:
            raise ConfigError(
                "decision/design: limit state has no design parameter 'a'")
        g = d["grid"]
        grid = np.linspace(g["start"], g["stop"], g["count"])
        try:
            design = DesignDecision(c_f=d["c_f"], cost_model=d["cost"], grid=grid)
        except RelsensError as exc:
            raise ConfigError(f"decision/design: {exc}") from exc
    if design is None and limit_state.has_design_param:
        raise ConfigError("lsf has a design parameter but no design block")
    if design is None and safety is None:
        raise ConfigError("decision: needs a safety and/or design block")

    method = raw["method"]
    if method == "mc" and "n" not in raw:
        raise ConfigError("method mc requires n")
    if method == "subset" and "n_per_level" not in raw:
        raise ConfigError("method subset requires n_per_level")
    if method == "analytic":
        try:
            as_lognormal_linear(limit_state, marginals)
        except RelsensError as exc:
            raise ConfigError(f"method analytic: {exc}") from exc

    return RunConfig(
        names=names, marginals=marginals, joint=joint, limit_state=limit_state,
        safety=safety, design=design, method=method,
        n=raw.get("n"), n_per_level=raw.get("n_per_level"),
        p0=raw.get("p0", 0.1), seed=raw["seed"],
        kde_transform=raw.get("kde_transform", "marginal-standard-normal"),
        grid_points=raw.get("grid_points", DEFAULT_GRID_POINTS),
        outputs=raw.get("outputs", "out"), raw=raw)


def load_config(path):
    try:
        with open(path) as fh:
            raw = json.load(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read config: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config is not valid JSON: {exc}") from exc
    return validate_config(raw)


# ---------------------------------------------------------------------------
# recognizing analytically solvable limit states
# ---------------------------------------------------------------------------

def _ln_terms(node, sign=1.0):
    """Flatten a +/- chain of ln(var) terms; None when the shape differs."""
    if isinstance(node, lsf_mod.BinOp) and node.op in ("+", "-"):
        left = _ln_terms(node.left, sign)
        right = _ln_terms(node.right, sign if node.op == "+" else -sign)
        if left is None or right is None:
            return None
        return left + right
    if isinstance(node, lsf_mod.Neg):
        return _ln_terms(node.operand, -sign)
    if (isinstance(node, lsf_mod.Call) and node.func == "ln"
            and isinstance(node.args[0], lsf_mod.Var)):
        return [(node.args[0].name, sign)]
    return None


def _product_factors(node):
    """Variable names in a pure product chain; None when it is not one."""
    if isinstance(node, lsf_mod.BinOp) and node.op == "*":
        left = _product_factors(node.left)
        right = _product_factors(node.right)
        if left is None or right is None:
            return None
        return left + right
    if isinstance(node, lsf_mod.Var):
        return [node.name]
    return None


def as_lognormal_linear(limit_state, marginals):
    """Map a limit state onto the linear-in-logs analytic family.

    Recognizes a signed sum of ln(X_i) terms, or a difference of two
    variable products (optionally carrying the design factor), both of
    which share the failure event with const + sum_i c_i ln X_i <= 0.
    Returns (coeffs, design_in_const) or raises ConfigError.
    """
    if any(m.kind != dists.LOGNORMAL for m in marginals):
        raise ConfigError("the analytic method requires all-lognormal inputs")
    names = limit_state.input_names
    terms = _ln_terms(limit_state.ast)
    design = lsf_mod.DESIGN_SYMBOL
    if terms is None:
        node = limit_state.ast
        if isinstance(node, lsf_mod.BinOp) and node.op == "-":
            pos = _product_factors(node.left)
            neg = _product_factors(node.right)
            if pos is not None and neg is not None:
                terms = ([(nm, 1.0) for nm in pos] + [(nm, -1.0) for nm in neg])
    if terms is None:
        raise ConfigError(
            "limit state is not linear in the logs; "
            "use the form, mc or subset method")
    coeffs = dict.fromkeys(names, 0.0)
    design_sign = 0.0
    for nm, s in terms:
        if nm == design:
            design_sign += s
        elif nm in coeffs:
            coeffs[nm] += s
        else:
            raise ConfigError(f"unknown name {nm!r} in limit state")
    if limit_state.has_design_param and design_sign == 0.0:
        raise ConfigError("design parameter must enter multiplicatively")
    return np.array([coeffs[nm] for nm in names]), design_sign


def analytic_problem(cfg, a=None):
    """LognormalLinearProblem for the configured model, at design ``a``."""
    coeffs, design_sign = as_lognormal_linear(cfg.limit_state, cfg.marginals)
    const = 0.0
    if cfg.limit_state.has_design_param:
        if a is None:
            raise ConfigError("this limit state needs a design value")
        if a <= 0.0:
            raise ConfigError("analytic design values must be positive")
        const = design_sign * float(np.log(a))
    corr = None if cfg.joint.independent else cfg.joint.r_xx
    return dists.LognormalLinearProblem.from_marginals(
        cfg.marginals, corr, coeffs, const)
