"""Declarative run configuration: JSON schema plus semantic validation.

Inputs are specified by moments (mean and c.o.v., the canonical form) or
by native parameters. The limit state is expression text. The decision
block carries a safety case (design-free limit state) or a design case
(limit state with the design parameter ``a``), never both.

``schema/config.schema.json`` is the single source of the structural
rules. A small walker in this module checks a config against it with
JSON Schema semantics for the keywords the schema uses: ``type``
(``object``, ``array``, ``string``, ``number``, ``integer``; a bool is
not a number, an integer-valued float is an integer), ``required``,
``properties``, ``additionalProperties: false``, ``items``,
``minItems``, ``maxItems``, ``minProperties``, ``enum``, ``pattern``,
``minimum``, ``exclusiveMinimum`` and ``exclusiveMaximum``. The schema
is read once per process, and any other keyword in it raises
``NotImplementedError``, so a schema edit cannot go unchecked.
"""

from __future__ import annotations

import ast
import contextlib
import functools
import json
import re
from dataclasses import dataclass
from importlib import resources

import numpy as np

from . import dists, lsf as lsf_mod
from .decision import DesignDecision, SafetyDecision
from .errors import ConfigError, RelsensError

DEFAULT_GRID_POINTS = 512


# ---------------------------------------------------------------------------
# the schema walker
# ---------------------------------------------------------------------------

_TYPES = {
    "object": lambda v: isinstance(v, dict),
    "array": lambda v: isinstance(v, list),
    "string": lambda v: isinstance(v, str),
    "number": lambda v: isinstance(v, (int, float)) and not isinstance(v, bool),
    "integer": lambda v: (isinstance(v, int) and not isinstance(v, bool)
                          or isinstance(v, float) and v.is_integer()),
}
_KEYWORDS = {
    "$schema", "title",                   # annotations: nothing to check
    "type", "required", "properties", "additionalProperties", "items",
    "minItems", "maxItems", "minProperties", "enum", "pattern", "minimum",
    "exclusiveMinimum", "exclusiveMaximum"}


def _check_keywords(schema, where="<root>"):
    """Raise NotImplementedError where ``schema`` asks for more than the walker does."""
    unknown = sorted(set(schema) - _KEYWORDS)
    if schema.get("type", "object") not in tuple(_TYPES):    # no hash: may be a list
        unknown.append(f"type {schema['type']!r}")
    if schema.get("additionalProperties", False) is not False:
        unknown.append("additionalProperties other than false")
    if unknown:
        raise NotImplementedError(
            f"config schema at {where}: not implemented: {', '.join(unknown)}")
    for name, sub in schema.get("properties", {}).items():
        _check_keywords(sub, f"{where}/properties/{name}")
    if "items" in schema:
        _check_keywords(schema["items"], f"{where}/items")


@functools.cache
def _schema():
    text = (resources.files("relsens") / "schema" / "config.schema.json").read_text()
    schema = json.loads(text)
    _check_keywords(schema)
    return schema


def _too_few(bound, message):
    return "should be non-empty" if bound == 1 else message


def _too_many(bound, message):
    return "is expected to be empty" if bound == 0 else message


def _schema_error(value, schema):
    """(path, message) of the first schema violation in ``value``, or None.

    The path is a list of keys and indices from the root of ``value``.
    """
    if "type" in schema and not _TYPES[schema["type"]](value):
        return [], f"{value!r} is not of type {schema['type']!r}"
    if "enum" in schema and value not in schema["enum"]:
        return [], f"{value!r} is not one of {schema['enum']!r}"
    if _TYPES["number"](value):
        if "minimum" in schema and value < schema["minimum"]:
            return [], f"{value!r} is less than the minimum of {schema['minimum']!r}"
        if "exclusiveMinimum" in schema and value <= schema["exclusiveMinimum"]:
            return [], (f"{value!r} is less than or equal to the minimum of "
                        f"{schema['exclusiveMinimum']!r}")
        if "exclusiveMaximum" in schema and value >= schema["exclusiveMaximum"]:
            return [], (f"{value!r} is greater than or equal to the maximum of "
                        f"{schema['exclusiveMaximum']!r}")
    elif isinstance(value, str):
        if "pattern" in schema and not re.search(schema["pattern"], value):
            return [], f"{value!r} does not match {schema['pattern']!r}"
    elif isinstance(value, list):
        if len(value) < schema.get("minItems", 0):
            return [], f"{value!r} {_too_few(schema['minItems'], 'is too short')}"
        if len(value) > schema.get("maxItems", len(value)):
            return [], f"{value!r} {_too_many(schema['maxItems'], 'is too long')}"
        for i, item in enumerate(value):
            found = "items" in schema and _schema_error(item, schema["items"])
            if found:
                return [i] + found[0], found[1]
    elif isinstance(value, dict):
        for name in schema.get("required", ()):
            if name not in value:
                return [], f"{name!r} is a required property"
        if len(value) < schema.get("minProperties", 0):
            return [], (f"{value!r} "
                        f"{_too_few(schema['minProperties'], 'does not have enough properties')}")
        properties = schema.get("properties", {})
        extras = sorted(k for k in value if k not in properties)
        if extras and schema.get("additionalProperties") is False:
            return [], ("Additional properties are not allowed ("
                        + ", ".join(map(repr, extras))
                        + (" was" if len(extras) == 1 else " were")
                        + " unexpected)")
        for name, sub in properties.items():
            found = name in value and _schema_error(value[name], sub)
            if found:
                return [name] + found[0], found[1]
    return None


@dataclass(frozen=True)
class RunConfig:
    names: tuple
    marginals: tuple
    joint: dists.GaussianCopulaJoint
    limit_state: lsf_mod.LimitState
    safety: SafetyDecision | None
    design: DesignDecision | None
    method: str
    n: int | None
    n_per_level: int | None
    p0: float
    seed: int
    grid_points: int
    outputs: str


def _build_marginal(spec):
    kind = spec["dist"]
    if "params" in spec:
        if "mean" in spec or "cov" in spec:
            raise ConfigError(
                f"input {spec['name']!r}: give either moments or params, not both")
        return dists.Marginal(kind, tuple(spec["params"]))
    if "mean" not in spec or "cov" not in spec:
        raise ConfigError(
            f"input {spec['name']!r}: needs mean and cov (or native params)")
    return dists.fit_params_from_moments(kind, spec["mean"], spec["cov"])


@contextlib.contextmanager
def _at(where):
    """Raise a package error from the block as a ConfigError at ``where``."""
    try:
        yield
    except RelsensError as exc:
        raise ConfigError(f"{where}: {exc}") from exc


def validate_config(raw):
    """Schema plus semantic validation; returns a RunConfig.

    Raises ConfigError with a field path on any violation.
    """
    found = _schema_error(raw, _schema())
    if found:
        path = "/".join(map(str, found[0])) or "<root>"
        raise ConfigError(f"{path}: {found[1]}")

    names = tuple(spec["name"] for spec in raw["inputs"])
    if len(set(names)) != len(names):
        raise ConfigError("inputs: names must be unique")

    with _at("inputs"):
        marginals = tuple(_build_marginal(s) for s in raw["inputs"])

    correlation = raw.get("correlation")
    with _at("correlation"):
        if correlation is not None:
            correlation = np.asarray(correlation, dtype=float)
            if correlation.shape != (len(names), len(names)):
                raise ConfigError(f"expected a {len(names)}x{len(names)} matrix")
            dists.validate_correlation(correlation)
        joint = dists.GaussianCopulaJoint.fit(marginals, correlation)

    with _at("lsf"):
        limit_state = lsf_mod.LimitState.from_expression(
            raw["lsf"]["expression"], names)

    safety = design = None
    dblock = raw["decision"]
    if "safety" in dblock:
        if limit_state.has_design_param:
            raise ConfigError(
                "decision/safety: the limit state takes a design parameter, "
                "so the accept/replace case has no fixed system to assess; "
                "use a design-free limit state for the safety block")
        s = dblock["safety"]
        with _at("decision/safety"):
            safety = SafetyDecision(c_f=s["c_f"], c_r=s["c_r"])
    if "design" in dblock:
        d = dblock["design"]
        if not limit_state.has_design_param:
            raise ConfigError(
                "decision/design: limit state has no design parameter 'a'")
        g = d["grid"]
        with np.errstate(over="ignore", invalid="ignore"):
            # DesignDecision rejects a grid that is not finite
            grid = np.linspace(g["start"], g["stop"], int(g["count"]))
        if np.any(grid <= 0.0) and any(
                nm == lsf_mod.DESIGN_SYMBOL
                for nm, _ in _log_linear_terms(limit_state) or ()):
            raise ConfigError("decision/design/grid: the design value enters "
                              "the limit state as a factor or as ln(a), so it "
                              "must be positive")
        with _at("decision/design"):
            design = DesignDecision(c_f=d["c_f"], cost_model=d["cost"], grid=grid)

    method, p0 = raw["method"], raw.get("p0", 0.1)
    if method == "mc" and "n" not in raw:
        raise ConfigError("method mc requires n")
    if method == "subset":
        if "n_per_level" not in raw:
            raise ConfigError("method subset requires n_per_level")
        if raw["n_per_level"] * p0 < 10:
            raise ConfigError("n_per_level: method subset needs "
                              "n_per_level * p0 of at least 10")
    if method == "analytic":
        with _at("method analytic"):
            as_lognormal_linear(limit_state, marginals)

    # the schema admits integer-valued floats such as 1e6 as integers
    n, n_per_level = (int(raw[k]) if k in raw else None
                      for k in ("n", "n_per_level"))
    return RunConfig(
        names=names, marginals=marginals, joint=joint, limit_state=limit_state,
        safety=safety, design=design, method=method,
        n=n, n_per_level=n_per_level,
        p0=p0, seed=int(raw["seed"]),
        grid_points=int(raw.get("grid_points", DEFAULT_GRID_POINTS)),
        outputs=raw.get("outputs", "out"))


def _reject_constant(token):
    raise ConfigError(f"config is not valid JSON: {token} is not a number")


def read_config(path):
    """The raw config object of a JSON file, not yet validated.

    Python's JSON reader accepts the non-standard tokens NaN, Infinity and
    -Infinity; they are rejected here, since no bound in the schema can
    catch a NaN.
    """
    try:
        with open(path) as fh:
            return json.load(fh, parse_constant=_reject_constant)
    except OSError as exc:
        raise ConfigError(f"cannot read config: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config is not valid JSON: {exc}") from exc


def load_config(path):
    return validate_config(read_config(path))


# ---------------------------------------------------------------------------
# recognizing analytically solvable limit states
# ---------------------------------------------------------------------------

def _ln_terms(node, sign=1.0):
    """Flatten a +/- chain of ln(var) terms; None when the shape differs."""
    if isinstance(node, ast.BinOp) and isinstance(node.op, (ast.Add, ast.Sub)):
        left = _ln_terms(node.left, sign)
        right = _ln_terms(node.right,
                          sign if isinstance(node.op, ast.Add) else -sign)
        if left is None or right is None:
            return None
        return left + right
    if isinstance(node, ast.UnaryOp):    # unary minus, the only one admitted
        return _ln_terms(node.operand, -sign)
    if (isinstance(node, ast.Call) and node.func.id == "ln"
            and isinstance(node.args[0], ast.Name)):
        return [(node.args[0].id, sign)]
    return None


def _product_factors(node):
    """Variable names in a pure product chain; None when it is not one."""
    if isinstance(node, ast.BinOp) and isinstance(node.op, ast.Mult):
        left = _product_factors(node.left)
        right = _product_factors(node.right)
        if left is None or right is None:
            return None
        return left + right
    if isinstance(node, ast.Name):
        return [node.id]
    return None


def _log_linear_terms(limit_state):
    """Signed (name, sign) terms of a limit state that is a signed sum of
    ln(var) terms, or a difference of two variable products; both share
    the failure event with sum sign * ln(name) <= 0. None when the shape
    differs. A name may be the design parameter."""
    node = limit_state.tree
    terms = _ln_terms(node)
    if (terms is None and isinstance(node, ast.BinOp)
            and isinstance(node.op, ast.Sub)):
        pos = _product_factors(node.left)
        neg = _product_factors(node.right)
        if pos is not None and neg is not None:
            terms = [(nm, 1.0) for nm in pos] + [(nm, -1.0) for nm in neg]
    return terms


def as_lognormal_linear(limit_state, marginals):
    """Map a limit state onto the linear-in-logs analytic family.

    Needs all-lognormal inputs and a limit state of the shape
    ``_log_linear_terms`` recognizes, so that failure is
    const + sum_i c_i ln X_i <= 0, the design factor (if any) going into
    the constant. Returns (coeffs, design_in_const) or raises ConfigError.
    """
    if any(m.kind != dists.LOGNORMAL for m in marginals):
        raise ConfigError("the analytic method requires all-lognormal inputs")
    names = limit_state.input_names
    terms = _log_linear_terms(limit_state)
    design = lsf_mod.DESIGN_SYMBOL
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
    """LognormalLinearProblem for the configured model, with one constant
    term per row: one row per value of the 1-D design array ``a``, or one
    row (constant 0) for a design-free limit state and ``a`` None."""
    coeffs, design_sign = as_lognormal_linear(cfg.limit_state, cfg.marginals)
    const = np.zeros(1)
    if cfg.limit_state.has_design_param:
        if a is None:
            raise ConfigError("this limit state needs a design value")
        a = np.asarray(a, dtype=float)
        if np.any(a <= 0.0):
            raise ConfigError("analytic design values must be positive")
        const = design_sign * np.log(a)
    return dists.LognormalLinearProblem.from_marginals(
        cfg.marginals, cfg.joint.r_xx, coeffs, const)
