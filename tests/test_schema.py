"""The config schema walker against jsonschema, the reference implementation.

Mutated versions of the shipped configs must get the same accept/reject
decision from ``relsens.config`` and from ``jsonschema``; where jsonschema
finds exactly one violation, the walker must report the same path and
message.
"""

import copy
import json
from pathlib import Path

import jsonschema
import pytest
from hypothesis import given, settings, strategies as st

from relsens import config
from relsens.config import validate_config
from relsens.errors import ConfigError

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
    (["lsf", "expression"], "ln(R) - ln(S)", False),   # maxProperties
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
])
def test_walker_rejects_unimplemented_schema_keywords(schema, where):
    with pytest.raises(NotImplementedError, match=where):
        config._check_keywords(schema)
