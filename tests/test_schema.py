"""The config schema walker against jsonschema, the reference implementation,
and the contract that every valid config runs.

Mutated versions of the shipped configs must get the same accept/reject
decision from ``relsens.config`` and from ``jsonschema``; where jsonschema
finds exactly one violation, the walker must report the same path and
message. Configs whose values, not structure, are mutated must be rejected
by ``validate_config`` or run, apart from two run-time failures whose
messages say what to change.
"""

import copy
import json
from pathlib import Path

import jsonschema
import pytest
from hypothesis import given, settings, strategies as st

from relsens import config, pipeline
from relsens.config import validate_config
from relsens.errors import ConfigError, DomainError, StagnationError

CONFIG_DIR = Path(__file__).resolve().parent.parent / "configs"
SHIPPED = {p.name: json.loads(p.read_text())
           for p in sorted(CONFIG_DIR.glob("*.json"))}
SCHEMA = config._schema()
REFERENCE = jsonschema.Draft202012Validator(SCHEMA)


def _property_names(schema):
    names = set(schema.get("properties", {}))
    for sub in schema.get("properties", {}).values():
        names |= _property_names(sub)
    if "items" in schema:
        names |= _property_names(schema["items"])
    return names


# values near the schema's own: enum members, names that do and do not match
# the input-name pattern, bounds, bools, integer-valued floats, non-finite
_LEAVES = st.one_of(
    st.none(), st.booleans(),
    st.integers(-2, 200),
    st.sampled_from([0, 1, 16, 100, 10**6, 0.0, 0.5, 1.0, 5.0, 64.0, 1e6,
                     -1.5, float("inf"), float("nan")]),
    st.floats(-10.0, 10.0),
    st.sampled_from(["normal", "lognormal", "gumbel", "weibull", "analytic",
                     "form", "mc", "subset", "identity", "R", "_x9", "9x",
                     "a b", "", "ln(R) - ln(S)", "example1_safety"]),
)
_VALUES = st.recursive(
    _LEAVES,
    lambda inner: st.one_of(
        st.lists(inner, max_size=3),
        st.dictionaries(st.sampled_from(sorted(_property_names(SCHEMA))
                                        + ["bogus"]), inner, max_size=3)),
    max_leaves=6)


def _paths(value, path=()):
    yield path
    if isinstance(value, dict):
        for key, item in value.items():
            yield from _paths(item, path + (key,))
    elif isinstance(value, list):
        for i, item in enumerate(value):
            yield from _paths(item, path + (i,))


def _mutate(raw, data):
    """Replace, delete or add one node of ``raw``; returns the new root."""
    path = data.draw(st.sampled_from(list(_paths(raw))))
    action = data.draw(st.sampled_from(["replace", "delete", "add"]))
    if not path:
        return data.draw(_VALUES) if action == "replace" else raw
    parent = raw
    for key in path[:-1]:
        parent = parent[key]
    node = parent[path[-1]]
    if action == "replace":
        parent[path[-1]] = data.draw(_VALUES)
    elif action == "delete":
        del parent[path[-1]]
    elif isinstance(node, dict):
        key = data.draw(st.sampled_from(sorted(_property_names(SCHEMA))
                                        + ["bogus"]))
        node[key] = data.draw(_VALUES)
    elif isinstance(node, list):
        node.append(data.draw(_VALUES))
    return raw


@pytest.mark.parametrize("name", sorted(SHIPPED))
@settings(max_examples=250, deadline=None, derandomize=True, database=None)
@given(data=st.data())
def test_walker_agrees_with_jsonschema_on_mutated_configs(name, data):
    raw = copy.deepcopy(SHIPPED[name])
    for _ in range(data.draw(st.integers(1, 3))):
        raw = _mutate(raw, data)
    errors = list(REFERENCE.iter_errors(raw))
    found = config._schema_error(raw, SCHEMA)
    assert (found is None) == (not errors)
    if len(errors) == 1:
        assert found == (list(errors[0].absolute_path), errors[0].message)


@pytest.mark.parametrize("path, value, ok", [
    (["seed"], True, False),          # a bool is not an integer
    (["seed"], 5.0, True),            # an integer-valued float is one
    (["seed"], 5.5, False),
    (["seed"], -1, False),
    (["p0"], False, False),           # nor is a bool a number
    (["p0"], 1, False),               # exclusiveMaximum
    (["n"], 1e6, True),
    (["grid_points"], 15, False),
    (["inputs", 0, "name"], "_R2", True),
    (["inputs", 0, "name"], "2R", False),
    (["inputs", 0, "params"], [4.6, 0.2], True),
    (["inputs", 0, "params"], [4.6, 0.2, 1.0], False),
    (["inputs", 0, "params"], [4.6], False),
    (["lsf", "builtin"], "example1_safety", False),
])
def test_walker_types_and_bounds(path, value, ok):
    raw = copy.deepcopy(SHIPPED["example1_safety.json"])
    node = raw
    for key in path[:-1]:
        node = node[key]
    node[path[-1]] = value
    assert (config._schema_error(raw, SCHEMA) is None) == ok
    assert REFERENCE.is_valid(raw) == ok


def test_schema_error_keeps_path_and_message():
    raw = copy.deepcopy(SHIPPED["example1_design.json"])
    raw["decision"]["design"]["grid"]["count"] = 0
    with pytest.raises(ConfigError) as exc:
        validate_config(raw)
    assert str(exc.value) == ("decision/design/grid/count: "
                              "0 is less than the minimum of 1")


@pytest.mark.parametrize("schema, where", [
    ({"type": "object", "format": "email"}, "<root>"),
    ({"properties": {"x": {"type": "string", "minLength": 1}}},
     "<root>/properties/x"),
    ({"items": {"oneOf": [{"type": "number"}]}}, "<root>/items"),
    ({"additionalProperties": {"type": "number"}}, "<root>"),
    ({"type": ["number", "null"]}, "<root>"),
    ({"type": "boolean"}, "<root>"),
    ({"type": "object", "maxProperties": 1}, "<root>"),
])
def test_walker_rejects_unimplemented_schema_keywords(schema, where):
    with pytest.raises(NotImplementedError, match=where):
        config._check_keywords(schema)


# -- every valid config runs -------------------------------------------------------

# the run-time failures a valid config may still meet, each naming the
# setting to raise: crude MC with too few failure samples for the density
# fits, and subset simulation with no failure level within 30 levels (which
# names p0 and n_per_level)
RUN_TIME_FAILURES = ((DomainError, "for the density fits (raise n); "),
                     (StagnationError, "no failure level within 30 levels"))


def _factor(data, decades):
    return 10.0 ** data.draw(st.floats(-decades, decades))


def _mutate_values(raw, data):
    """Scale means and CoVs by up to 10^+-1.5 and costs by up to 10^+-3,
    redraw one correlation, draw a design grid of 1-12 values, the curve
    grid and the method."""
    for spec in raw["inputs"]:
        spec["mean"] *= _factor(data, 1.5)
        spec["cov"] *= _factor(data, 1.5)
    if "correlation" in raw:
        d = len(raw["inputs"])
        i, j = data.draw(st.sampled_from([(i, j) for i in range(d)
                                          for j in range(i + 1, d)]))
        raw["correlation"][i][j] = raw["correlation"][j][i] = data.draw(
            st.floats(-0.95, 0.95))
    decision = raw["decision"]
    if "safety" in decision:
        for key in ("c_f", "c_r"):
            decision["safety"][key] *= _factor(data, 3.0)
    else:
        design = decision["design"]
        design["c_f"] *= _factor(data, 3.0)
        design["cost"] = f"{1e5 * _factor(data, 3.0)!r}*a"
        start = data.draw(st.floats(0.2, 3.0))
        design["grid"] = {"start": start,
                          "stop": start + data.draw(st.floats(0.0, 2.0)),
                          "count": data.draw(st.integers(1, 12))}
    raw["grid_points"] = data.draw(st.integers(16, 128))
    raw["method"] = data.draw(st.sampled_from(["analytic", "form", "mc",
                                              "subset"]))
    if raw["method"] == "mc":
        raw["n"] = data.draw(st.sampled_from([50_000, 200_000]))
    elif raw["method"] == "subset":
        raw["n_per_level"] = 1000
    return raw


@pytest.mark.parametrize("name", sorted(SHIPPED))
@settings(max_examples=30, deadline=None, derandomize=True, database=None)
@given(data=st.data())
def test_mutated_configs_are_rejected_or_run(name, data):
    raw = _mutate_values(copy.deepcopy(SHIPPED[name]), data)
    try:
        cfg = validate_config(raw)
    except ConfigError:
        return
    try:
        result = pipeline.run_analysis(cfg)
    except (DomainError, StagnationError) as exc:
        assert any(isinstance(exc, kind) and text in str(exc)
                   for kind, text in RUN_TIME_FAILURES), repr(exc)
        return
    report = result.safety_report
    if report is not None and cfg.method in ("analytic", "form"):
        # the closed form is exact to rounding: 0 <= EVPPI_i <= EVPI
        for entry in report.entries:
            assert 0.0 <= entry.absolute <= report.evpi, entry
