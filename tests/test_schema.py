"""Tests of :mod:`repro.schema`, the package's one JSON-Schema validator.

Each of the 13 supported keywords gets accept and reject cases with the
exact message; a keyword outside the subset is refused when the schema
is compiled.  When ``jsonschema`` is installed, a seeded differential
fuzz over all five shipped schemas checks that every decision, message
and error path equals ``jsonschema.validate``'s.
"""

from __future__ import annotations

import copy
import json
from pathlib import Path
import random
import re
import subprocess
import sys

import pytest

from repro.experiments.bench_schema import (
    BOUNDS_PRUNING_SCHEMA,
    HIER_SCALE_SCHEMA,
    OPT_LOOP_SCHEMA,
    SCENARIO_SWEEP_SCHEMA,
)
from repro.schema import CompiledSchema, SchemaError
from repro.serve.protocol import REQUEST_SCHEMA

REPO_ROOT = Path(__file__).resolve().parent.parent
RESULTS = REPO_ROOT / "benchmarks" / "results"


def _error(schema, payload):
    """The (message, path) ``CompiledSchema`` raises, or None."""
    try:
        CompiledSchema(schema).validate(payload)
    except SchemaError as exc:
        return exc.message, exc.path
    return None


# -- keywords ----------------------------------------------------------------

_CASES = [
    # (schema, payload, expected message or None if accepted)
    ({"type": "integer"}, 3, None),
    ({"type": "integer"}, 1.0, None),
    ({"type": "integer"}, 1.5, "1.5 is not of type 'integer'"),
    ({"type": "integer"}, True, "True is not of type 'integer'"),
    ({"type": "number"}, 2.5, None),
    ({"type": "number"}, False, "False is not of type 'number'"),
    ({"type": "number"}, "1", "'1' is not of type 'number'"),
    ({"type": "boolean"}, True, None),
    ({"type": "boolean"}, 1, "1 is not of type 'boolean'"),
    ({"type": "string"}, "", None),
    ({"type": "object"}, [], "[] is not of type 'object'"),
    ({"type": "array"}, {}, "{} is not of type 'array'"),
    ({"type": ["number", "null"]}, None, None),
    ({"type": ["number", "null"]}, "x",
     "'x' is not of type 'number', 'null'"),
    ({"required": ["a", "b"]}, {"a": 1, "b": 2}, None),
    ({"required": ["a", "b"]}, {}, "'a' is a required property"),
    ({"required": ["a"]}, [1], None),
    ({"properties": {"a": {"type": "string"}}}, {"b": 1}, None),
    ({"properties": {"a": {"type": "string"}}}, {"a": 1},
     "1 is not of type 'string'"),
    ({"additionalProperties": {"type": "number"}}, {"x": 1, "y": 2.5},
     None),
    ({"additionalProperties": {"type": "number"}}, {"x": "1"},
     "'1' is not of type 'number'"),
    ({"properties": {"x": {}}, "additionalProperties": {"type": "number"}},
     {"x": "listed, so not additional"}, None),
    ({"items": {"type": "integer"}}, [1, 2], None),
    ({"items": {"type": "integer"}}, [1, "2"],
     "'2' is not of type 'integer'"),
    ({"const": 1}, 1, None),
    ({"const": 1}, 1.0, None),
    ({"const": 1}, True, "1 was expected"),
    ({"const": True}, 1, "True was expected"),
    ({"const": True}, True, None),
    ({"enum": ["I", "II"]}, "II", None),
    ({"enum": ["I", "II"]}, "III", "'III' is not one of ['I', 'II']"),
    ({"enum": [0, 1]}, False, "False is not one of [0, 1]"),
    ({"pattern": r"^\d+$"}, "42", None),
    ({"pattern": r"^\d+$"}, "4x", "'4x' does not match '^\\\\d+$'"),
    ({"pattern": r"^\d+$"}, 42, None),
    ({"minimum": 1}, 1, None),
    ({"minimum": 1}, 0.5, "0.5 is less than the minimum of 1"),
    ({"minimum": 1}, "0", None),
    ({"exclusiveMinimum": 0}, 1e-9, None),
    ({"exclusiveMinimum": 0}, 0,
     "0 is less than or equal to the minimum of 0"),
    ({"minLength": 1}, "a", None),
    ({"minLength": 1}, "", "'' should be non-empty"),
    ({"minLength": 3}, "ab", "'ab' is too short"),
    ({"minItems": 1}, [0], None),
    ({"minItems": 1}, [], "[] should be non-empty"),
    ({"minItems": 2}, [0], "[0] is too short"),
    ({"$schema": "http://json-schema.org/draft-07/schema#"}, "any", None),
]


@pytest.mark.parametrize("schema,payload,message", _CASES,
                         ids=[f"{next(iter(c[0]))}-{i}"
                              for i, c in enumerate(_CASES)])
def test_keyword(schema, payload, message):
    error = _error(schema, payload)
    assert (error and error[0]) == message


def test_error_is_a_value_error_with_path():
    schema = {"properties": {"a": {"items": {"minimum": 0}}}}
    with pytest.raises(ValueError) as exc:
        CompiledSchema(schema).validate({"a": [0, -1]})
    assert isinstance(exc.value, SchemaError)
    assert exc.value.path == ("a", 1)
    assert str(exc.value) == exc.value.message


def test_shallowest_error_is_reported():
    schema = {"required": ["b"],
              "properties": {"a": {"type": "string"}}}
    assert _error(schema, {"a": 1}) == ("'b' is a required property", ())


def test_first_required_property_wins_a_tie():
    assert _error({"required": ["x", "y"]}, {}) == \
        ("'x' is a required property", ())


@pytest.mark.parametrize("schema", [
    {"maximum": 1},
    {"properties": {"a": {"anyOf": []}}},
    {"items": [{"type": "string"}]},
    {"additionalProperties": False},
    {"type": "decimal"},
    True,
])
def test_unsupported_schema_raises_at_construction(schema):
    with pytest.raises(ValueError):
        CompiledSchema(schema)


def test_malformed_pattern_raises_at_construction():
    with pytest.raises(re.error):
        CompiledSchema({"properties": {"grid": {"pattern": "("}}})


def test_shipped_schemas_compile():
    for schema in (REQUEST_SCHEMA, SCENARIO_SWEEP_SCHEMA, HIER_SCALE_SCHEMA,
                   OPT_LOOP_SCHEMA, BOUNDS_PRUNING_SCHEMA):
        CompiledSchema(schema)


def test_importing_the_validators_leaves_jsonschema_unloaded():
    code = ("import sys, repro.serve, repro.experiments.bench_schema; "
            "sys.exit('jsonschema' in sys.modules)")
    result = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True,
        timeout=120, env={"PYTHONPATH": str(REPO_ROOT / "src"),
                          "PATH": "/usr/bin:/bin"})
    assert result.returncode == 0, result.stderr


# -- differential fuzz against jsonschema ------------------------------------

FULL_REQUEST = {
    "v": 1, "id": "req-1", "op": "edit", "circuit": "s27", "config": "I",
    "algebra": "grid", "grid": "-8:60:512",
    "delay": {"kind": "frozen", "value": 1.0, "mu": 1.0, "sigma": 0.1,
              "base": 1.0, "speedup": 0.15, "floor": 0.3, "spread": 0.2,
              "relative_sigma": 0.0, "delays": {"G1": 1.0, "G2": 2.5}},
    "gate": "G14", "mu": 1.0, "sigma": 0.1, "clear": False,
    "bench": "INPUT(a)\nOUTPUT(y)\ny = NOT(a)\n", "net": "G17",
    "direction": "rise",
}

_SEEDS = [
    (REQUEST_SCHEMA, FULL_REQUEST),
    (SCENARIO_SWEEP_SCHEMA, RESULTS / "BENCH_scenario_sweep.json"),
    (HIER_SCALE_SCHEMA, RESULTS / "BENCH_hier_scale.json"),
    (OPT_LOOP_SCHEMA, RESULTS / "BENCH_opt_loop.json"),
    (BOUNDS_PRUNING_SCHEMA, RESULTS / "BENCH_bounds_pruning.json"),
]

_VALUES = [
    None, True, False, 0, 1, -1, 7, 8, 0.0, 1.0, 8.0, -0.5, 2.5, 1e300,
    "", "x", "I", "II", "rise", "analyze", "grid", "1:2", "a:b:3",
    "-8:60:512", "spsta-hier-scale", "mean-ksigma", [], [1], ["x"], {},
    {"kind": "unit"}, {"kind": "frozen", "delays": {"g": "1"}},
    {"start": 0, "stop": 1, "n": 4},
]

PAYLOADS_PER_SCHEMA = 2000


def _slots(node, out):
    """Every (container, key) in ``node``, parents before children."""
    if isinstance(node, dict):
        for key, value in node.items():
            out.append((node, key))
            _slots(value, out)
    elif isinstance(node, list):
        for index, value in enumerate(node):
            out.append((node, index))
            _slots(value, out)
    return out


def _mutate(rng, payload):
    """Apply one random structural or value mutation in place."""
    slots = _slots(payload, [])
    if not slots:
        return
    container, key = rng.choice(slots)
    roll = rng.random()
    if roll < 0.2:
        del container[key]
    elif roll < 0.3 and isinstance(container, dict):
        container[rng.choice(["extra", "zz", "aa", str(key) + "_"])] = \
            copy.deepcopy(rng.choice(_VALUES))
    elif roll < 0.4 and isinstance(container[key], list):
        container[key].append(copy.deepcopy(rng.choice(
            container[key] or _VALUES)))
    elif roll < 0.5:
        # Graft a copy of another subtree of the same payload.
        donor, donor_key = rng.choice(slots)
        container[key] = copy.deepcopy(donor[donor_key])
    else:
        container[key] = copy.deepcopy(rng.choice(_VALUES))


def _jsonschema_error(validator, best_match, payload):
    error = best_match(validator.iter_errors(payload))
    return None if error is None else (error.message, tuple(error.path))


def test_differential_fuzz_matches_jsonschema():
    jsonschema = pytest.importorskip("jsonschema")
    best_match = jsonschema.exceptions.best_match
    rng = random.Random(20240517)
    checked = rejected = 0
    mismatches = []
    for schema, seed in _SEEDS:
        # jsonschema.validate = check_schema + best_match(iter_errors);
        # check the schema once and reuse the validator.
        cls = jsonschema.validators.validator_for(schema)
        cls.check_schema(schema)
        reference = cls(schema)
        compiled = CompiledSchema(schema)
        base = seed if isinstance(seed, dict) \
            else json.loads(seed.read_text())
        for _ in range(PAYLOADS_PER_SCHEMA):
            payload = copy.deepcopy(base)
            for _ in range(rng.randint(1, 3)):
                _mutate(rng, payload)
            expected = _jsonschema_error(reference, best_match, payload)
            try:
                compiled.validate(payload)
                got = None
            except SchemaError as exc:
                got = (exc.message, exc.path)
            checked += 1
            rejected += expected is not None
            if got != expected:
                mismatches.append((payload, expected, got))
    assert checked >= 10_000
    assert mismatches == []
    # The mutations must exercise both outcomes.
    assert 0.3 * checked < rejected < 0.98 * checked
