"""Schemas of the machine-readable benchmark-trajectory artifacts.

``benchmarks/test_bench_scenario.py`` measures the scenario-batched
backend against the looped fast engine over a trajectory of grid sizes
and writes ``BENCH_scenario_sweep.json``;
``benchmarks/test_bench_hier.py`` measures the hierarchical partition
scheduler against the flat fast engine over a trajectory of circuit
sizes (10^4 to 10^6 gates) and writes ``BENCH_hier_scale.json`` (CI
uploads both as build artifacts).  This module is the single source of
truth for those formats: the writers validate before writing and
``tests/test_bench_schema.py`` pins the schemas themselves, so a format
drift fails fast on both ends.

In the hier-scale trajectory a point's ``flat_seconds`` (and hence
``speedup``) may be ``null``: at the top of the trajectory the flat
engine's whole-design state no longer fits the memory budget, so there
is no baseline to run — the point instead carries a
``flat_infeasible_reason`` recording the projected footprint.  The
validator enforces that null-consistency.

Validation prefers `jsonschema <https://python-jsonschema.readthedocs.io>`_
when importable and falls back to an equivalent structural check — the
schema is deliberately simple enough to verify by hand.
"""

from __future__ import annotations

from typing import Any, Dict, List

from repro.schema import CompiledSchema

try:                                        # pragma: no cover - optional
    import jsonschema                       # type: ignore[import-untyped]
except ImportError:                         # pragma: no cover
    jsonschema = None

#: JSON-Schema (draft 7 subset) of the scenario-sweep benchmark artifact.
SCENARIO_SWEEP_SCHEMA: Dict[str, Any] = {
    "$schema": "http://json-schema.org/draft-07/schema#",
    "type": "object",
    "required": ["report", "version", "circuit", "n_scenarios",
                 "algebra", "headline", "trajectory"],
    "properties": {
        "report": {"const": "spsta-scenario-sweep"},
        "version": {"type": "integer", "minimum": 1},
        "circuit": {"type": "string", "minLength": 1},
        "n_scenarios": {"type": "integer", "minimum": 1},
        "algebra": {"type": "string", "minLength": 1},
        "repeats": {"type": "integer", "minimum": 1},
        "headline": {
            "type": "object",
            "required": ["grid_n", "speedup"],
            "properties": {
                "grid_n": {"type": "integer", "minimum": 8},
                "speedup": {"type": "number", "exclusiveMinimum": 0},
            },
        },
        "trajectory": {
            "type": "array",
            "minItems": 1,
            "items": {
                "type": "object",
                "required": ["grid", "batched_seconds", "looped_seconds",
                             "speedup"],
                "properties": {
                    "grid": {
                        "type": "object",
                        "required": ["start", "stop", "n"],
                        "properties": {
                            "start": {"type": "number"},
                            "stop": {"type": "number"},
                            "n": {"type": "integer", "minimum": 8},
                        },
                    },
                    "batched_seconds": {"type": "number",
                                        "exclusiveMinimum": 0},
                    "looped_seconds": {"type": "number",
                                       "exclusiveMinimum": 0},
                    "speedup": {"type": "number", "exclusiveMinimum": 0},
                },
            },
        },
    },
}

#: Bump on breaking format changes (mirrors the lint report convention).
SCENARIO_SWEEP_VERSION = 1


def _fail(message: str) -> None:
    raise ValueError(f"BENCH_scenario_sweep payload invalid: {message}")


def _check_number(obj: Dict[str, Any], key: str, positive: bool = False,
                  where: str = "") -> None:
    value = obj.get(key)
    if not isinstance(value, (int, float)) or isinstance(value, bool):
        _fail(f"{where}{key} must be a number, got {value!r}")
    if positive and value <= 0:
        _fail(f"{where}{key} must be > 0, got {value!r}")


def _validate_fallback(payload: Dict[str, Any]) -> None:
    """Structural validation mirroring :data:`SCENARIO_SWEEP_SCHEMA`."""
    if not isinstance(payload, dict):
        _fail("top level must be an object")
    for key in SCENARIO_SWEEP_SCHEMA["required"]:
        if key not in payload:
            _fail(f"missing required key {key!r}")
    if payload["report"] != "spsta-scenario-sweep":
        _fail(f"report must be 'spsta-scenario-sweep', "
              f"got {payload['report']!r}")
    if not isinstance(payload["version"], int) or payload["version"] < 1:
        _fail("version must be an integer >= 1")
    for key in ("circuit", "algebra"):
        if not isinstance(payload[key], str) or not payload[key]:
            _fail(f"{key} must be a non-empty string")
    if not isinstance(payload["n_scenarios"], int) \
            or payload["n_scenarios"] < 1:
        _fail("n_scenarios must be an integer >= 1")
    headline = payload["headline"]
    if not isinstance(headline, dict):
        _fail("headline must be an object")
    if not isinstance(headline.get("grid_n"), int):
        _fail("headline.grid_n must be an integer")
    _check_number(headline, "speedup", positive=True, where="headline.")
    trajectory = payload["trajectory"]
    if not isinstance(trajectory, list) or not trajectory:
        _fail("trajectory must be a non-empty array")
    for i, point in enumerate(trajectory):
        where = f"trajectory[{i}]."
        if not isinstance(point, dict):
            _fail(f"trajectory[{i}] must be an object")
        grid = point.get("grid")
        if not isinstance(grid, dict):
            _fail(f"{where}grid must be an object")
        _check_number(grid, "start", where=where + "grid.")
        _check_number(grid, "stop", where=where + "grid.")
        if not isinstance(grid.get("n"), int) or grid["n"] < 8:
            _fail(f"{where}grid.n must be an integer >= 8")
        for key in ("batched_seconds", "looped_seconds", "speedup"):
            _check_number(point, key, positive=True, where=where)


_SCENARIO_SWEEP = CompiledSchema(SCENARIO_SWEEP_SCHEMA)


def validate_scenario_sweep(payload: Dict[str, Any]) -> None:
    """Raise ``ValueError`` if ``payload`` violates the artifact schema."""
    if jsonschema is not None:
        try:
            _SCENARIO_SWEEP.validate(payload)
        except jsonschema.ValidationError as exc:
            raise ValueError(
                f"BENCH_scenario_sweep payload invalid: {exc.message}"
            ) from exc
        return
    _validate_fallback(payload)


def trajectory_speedups(payload: Dict[str, Any]) -> List[float]:
    """The per-grid speedups, in trajectory order (payload assumed valid)."""
    return [point["speedup"] for point in payload["trajectory"]]


#: JSON-Schema (draft 7 subset) of the hier-scale benchmark artifact.
#: ``flat_seconds``/``speedup`` are nullable — see the module docstring;
#: the cross-field consistency between them is checked by
#: :func:`validate_hier_scale` (draft-07 conditionals would obscure an
#: otherwise hand-checkable schema).
HIER_SCALE_SCHEMA: Dict[str, Any] = {
    "$schema": "http://json-schema.org/draft-07/schema#",
    "type": "object",
    "required": ["report", "version", "workers", "algebra",
                 "memory_budget_bytes", "headline", "trajectory"],
    "properties": {
        "report": {"const": "spsta-hier-scale"},
        "version": {"type": "integer", "minimum": 1},
        "workers": {"type": "integer", "minimum": 1},
        "algebra": {"type": "string", "minLength": 1},
        "memory_budget_bytes": {"type": "integer", "exclusiveMinimum": 0},
        "repeats": {"type": "integer", "minimum": 1},
        "headline": {
            "type": "object",
            "required": ["n_gates", "speedup"],
            "properties": {
                "n_gates": {"type": "integer", "minimum": 1},
                "speedup": {"type": "number", "exclusiveMinimum": 0},
            },
        },
        "trajectory": {
            "type": "array",
            "minItems": 1,
            "items": {
                "type": "object",
                "required": ["n_gates", "n_regions", "grid_n",
                             "hier_seconds", "flat_seconds", "speedup",
                             "peak_rss_bytes", "complete"],
                "properties": {
                    "n_gates": {"type": "integer", "minimum": 1},
                    "n_regions": {"type": "integer", "minimum": 1},
                    "grid_n": {"type": "integer", "minimum": 8},
                    "hier_seconds": {"type": "number",
                                     "exclusiveMinimum": 0},
                    "flat_seconds": {"type": ["number", "null"],
                                     "exclusiveMinimum": 0},
                    "speedup": {"type": ["number", "null"],
                                "exclusiveMinimum": 0},
                    "flat_infeasible_reason": {"type": "string",
                                               "minLength": 1},
                    "peak_rss_bytes": {"type": "integer",
                                       "exclusiveMinimum": 0},
                    "complete": {"const": True},
                    "dedup_hits": {"type": "integer", "minimum": 0},
                },
            },
        },
    },
}

#: Bump on breaking format changes.
HIER_SCALE_VERSION = 1


def _hier_fail(message: str) -> None:
    raise ValueError(f"BENCH_hier_scale payload invalid: {message}")


def _check_nullable_number(obj: Dict[str, Any], key: str,
                           where: str) -> None:
    value = obj.get(key)
    if value is None:
        return
    if not isinstance(value, (int, float)) or isinstance(value, bool):
        _hier_fail(f"{where}{key} must be a number or null, got {value!r}")
    if value <= 0:
        _hier_fail(f"{where}{key} must be > 0, got {value!r}")


def _validate_hier_fallback(payload: Dict[str, Any]) -> None:
    """Structural validation mirroring :data:`HIER_SCALE_SCHEMA`."""
    if not isinstance(payload, dict):
        _hier_fail("top level must be an object")
    for key in HIER_SCALE_SCHEMA["required"]:
        if key not in payload:
            _hier_fail(f"missing required key {key!r}")
    if payload["report"] != "spsta-hier-scale":
        _hier_fail(f"report must be 'spsta-hier-scale', "
                   f"got {payload['report']!r}")
    if not isinstance(payload["version"], int) or payload["version"] < 1:
        _hier_fail("version must be an integer >= 1")
    if not isinstance(payload["workers"], int) or payload["workers"] < 1:
        _hier_fail("workers must be an integer >= 1")
    if not isinstance(payload["algebra"], str) or not payload["algebra"]:
        _hier_fail("algebra must be a non-empty string")
    budget = payload["memory_budget_bytes"]
    if not isinstance(budget, int) or isinstance(budget, bool) \
            or budget <= 0:
        _hier_fail("memory_budget_bytes must be an integer > 0")
    headline = payload["headline"]
    if not isinstance(headline, dict):
        _hier_fail("headline must be an object")
    if not isinstance(headline.get("n_gates"), int) \
            or headline["n_gates"] < 1:
        _hier_fail("headline.n_gates must be an integer >= 1")
    value = headline.get("speedup")
    if not isinstance(value, (int, float)) or isinstance(value, bool) \
            or value <= 0:
        _hier_fail("headline.speedup must be a number > 0")
    trajectory = payload["trajectory"]
    if not isinstance(trajectory, list) or not trajectory:
        _hier_fail("trajectory must be a non-empty array")
    for i, point in enumerate(trajectory):
        where = f"trajectory[{i}]."
        if not isinstance(point, dict):
            _hier_fail(f"trajectory[{i}] must be an object")
        for key in ("n_gates", "n_regions", "grid_n", "peak_rss_bytes"):
            value = point.get(key)
            if not isinstance(value, int) or isinstance(value, bool) \
                    or value < 1:
                _hier_fail(f"{where}{key} must be an integer >= 1")
        if point["grid_n"] < 8:
            _hier_fail(f"{where}grid_n must be an integer >= 8")
        value = point.get("hier_seconds")
        if not isinstance(value, (int, float)) or isinstance(value, bool) \
                or value <= 0:
            _hier_fail(f"{where}hier_seconds must be a number > 0")
        if "flat_seconds" not in point or "speedup" not in point:
            _hier_fail(f"{where}flat_seconds and speedup are required")
        _check_nullable_number(point, "flat_seconds", where)
        _check_nullable_number(point, "speedup", where)
        if point.get("complete") is not True:
            _hier_fail(f"{where}complete must be true")


_HIER_SCALE = CompiledSchema(HIER_SCALE_SCHEMA)


def validate_hier_scale(payload: Dict[str, Any]) -> None:
    """Raise ``ValueError`` if ``payload`` violates the artifact schema.

    On top of the structural schema, enforces the null-consistency the
    format promises: ``flat_seconds`` and ``speedup`` are null together,
    and a null baseline must carry a ``flat_infeasible_reason``.
    """
    if jsonschema is not None:
        try:
            _HIER_SCALE.validate(payload)
        except jsonschema.ValidationError as exc:
            raise ValueError(
                f"BENCH_hier_scale payload invalid: {exc.message}"
            ) from exc
    else:
        _validate_hier_fallback(payload)
    for i, point in enumerate(payload["trajectory"]):
        where = f"trajectory[{i}]."
        flat_null = point["flat_seconds"] is None
        if flat_null != (point["speedup"] is None):
            _hier_fail(f"{where}flat_seconds and speedup must be "
                       f"null together")
        if flat_null and not point.get("flat_infeasible_reason"):
            _hier_fail(f"{where}flat_infeasible_reason is required when "
                       f"flat_seconds is null")


def hier_speedups(payload: Dict[str, Any]) -> Dict[int, float]:
    """Measured speedups by gate count, flat-infeasible points omitted
    (payload assumed valid)."""
    return {point["n_gates"]: point["speedup"]
            for point in payload["trajectory"]
            if point["speedup"] is not None}


#: JSON-Schema (draft 7 subset) of the optimizer-loop benchmark artifact
#: (``benchmarks/test_bench_opt.py`` -> ``BENCH_opt_loop.json``): the same
#: optimizer move schedule re-timed incrementally per move vs with a full
#: analysis per move, per circuit.
OPT_LOOP_SCHEMA: Dict[str, Any] = {
    "$schema": "http://json-schema.org/draft-07/schema#",
    "type": "object",
    "required": ["report", "version", "algebra", "metric", "headline",
                 "circuits"],
    "properties": {
        "report": {"const": "spsta-opt-loop"},
        "version": {"type": "integer", "minimum": 1},
        "algebra": {"type": "string", "minLength": 1},
        "metric": {"type": "string", "minLength": 1},
        "repeats": {"type": "integer", "minimum": 1},
        "headline": {
            "type": "object",
            "required": ["circuit", "speedup"],
            "properties": {
                "circuit": {"type": "string", "minLength": 1},
                "speedup": {"type": "number", "exclusiveMinimum": 0},
            },
        },
        "circuits": {
            "type": "array",
            "minItems": 1,
            "items": {
                "type": "object",
                "required": ["circuit", "n_gates", "moves",
                             "incremental_seconds", "full_seconds",
                             "speedup", "recomputed_gates",
                             "full_gate_evals"],
                "properties": {
                    "circuit": {"type": "string", "minLength": 1},
                    "n_gates": {"type": "integer", "minimum": 1},
                    "moves": {"type": "integer", "minimum": 1},
                    "incremental_seconds": {"type": "number",
                                            "exclusiveMinimum": 0},
                    "full_seconds": {"type": "number",
                                     "exclusiveMinimum": 0},
                    "speedup": {"type": "number", "exclusiveMinimum": 0},
                    "recomputed_gates": {"type": "integer", "minimum": 1},
                    "full_gate_evals": {"type": "integer", "minimum": 1},
                },
            },
        },
    },
}

#: Bump on breaking format changes.
OPT_LOOP_VERSION = 1


def _opt_fail(message: str) -> None:
    raise ValueError(f"BENCH_opt_loop payload invalid: {message}")


def _validate_opt_fallback(payload: Dict[str, Any]) -> None:
    """Structural validation mirroring :data:`OPT_LOOP_SCHEMA`."""
    if not isinstance(payload, dict):
        _opt_fail("top level must be an object")
    for key in OPT_LOOP_SCHEMA["required"]:
        if key not in payload:
            _opt_fail(f"missing required key {key!r}")
    if payload["report"] != "spsta-opt-loop":
        _opt_fail(f"report must be 'spsta-opt-loop', "
                  f"got {payload['report']!r}")
    if not isinstance(payload["version"], int) or payload["version"] < 1:
        _opt_fail("version must be an integer >= 1")
    for key in ("algebra", "metric"):
        if not isinstance(payload[key], str) or not payload[key]:
            _opt_fail(f"{key} must be a non-empty string")
    headline = payload["headline"]
    if not isinstance(headline, dict):
        _opt_fail("headline must be an object")
    if not isinstance(headline.get("circuit"), str) \
            or not headline["circuit"]:
        _opt_fail("headline.circuit must be a non-empty string")
    value = headline.get("speedup")
    if not isinstance(value, (int, float)) or isinstance(value, bool) \
            or value <= 0:
        _opt_fail("headline.speedup must be a number > 0")
    circuits = payload["circuits"]
    if not isinstance(circuits, list) or not circuits:
        _opt_fail("circuits must be a non-empty array")
    for i, point in enumerate(circuits):
        where = f"circuits[{i}]."
        if not isinstance(point, dict):
            _opt_fail(f"circuits[{i}] must be an object")
        if not isinstance(point.get("circuit"), str) \
                or not point["circuit"]:
            _opt_fail(f"{where}circuit must be a non-empty string")
        for key in ("n_gates", "moves", "recomputed_gates",
                    "full_gate_evals"):
            value = point.get(key)
            if not isinstance(value, int) or isinstance(value, bool) \
                    or value < 1:
                _opt_fail(f"{where}{key} must be an integer >= 1")
        for key in ("incremental_seconds", "full_seconds", "speedup"):
            value = point.get(key)
            if not isinstance(value, (int, float)) \
                    or isinstance(value, bool) or value <= 0:
                _opt_fail(f"{where}{key} must be a number > 0")


_OPT_LOOP = CompiledSchema(OPT_LOOP_SCHEMA)


def validate_opt_loop(payload: Dict[str, Any]) -> None:
    """Raise ``ValueError`` if ``payload`` violates the artifact schema."""
    if jsonschema is not None:
        try:
            _OPT_LOOP.validate(payload)
        except jsonschema.ValidationError as exc:
            raise ValueError(
                f"BENCH_opt_loop payload invalid: {exc.message}"
            ) from exc
        return
    _validate_opt_fallback(payload)


def opt_speedups(payload: Dict[str, Any]) -> Dict[str, float]:
    """Measured incremental-vs-full speedups by circuit name (payload
    assumed valid)."""
    return {point["circuit"]: point["speedup"]
            for point in payload["circuits"]}


#: JSON-Schema (draft 7 subset) of the bounds-pruning benchmark artifact
#: (``benchmarks/test_bench_bounds.py`` -> ``BENCH_bounds_pruning.json``):
#: the same ``optimize_spsta`` mean-ksigma run executed with and without
#: the certified interval pruning of :mod:`repro.bounds`.  The headline
#: claim is not a speedup but a *certificate*: ``identical`` asserts the
#: two runs produced bit-identical moves and final metric while
#: ``pruned_candidates`` gates were provably excluded — so it is pinned
#: ``const true`` and ``pruned_candidates`` has a floor of 1 (an artifact
#: that pruned nothing, or changed the result, does not validate).
BOUNDS_PRUNING_SCHEMA: Dict[str, Any] = {
    "$schema": "http://json-schema.org/draft-07/schema#",
    "type": "object",
    "required": ["report", "version", "algebra", "metric", "k_sigma",
                 "headline", "circuits"],
    "properties": {
        "report": {"const": "spsta-bounds-pruning"},
        "version": {"type": "integer", "minimum": 1},
        "algebra": {"type": "string", "minLength": 1},
        "metric": {"const": "mean-ksigma"},
        "k_sigma": {"type": "number", "exclusiveMinimum": 0},
        "headline": {
            "type": "object",
            "required": ["circuit", "pruned_candidates", "identical"],
            "properties": {
                "circuit": {"type": "string", "minLength": 1},
                "pruned_candidates": {"type": "integer", "minimum": 1},
                "identical": {"const": True},
            },
        },
        "circuits": {
            "type": "array",
            "minItems": 1,
            "items": {
                "type": "object",
                "required": ["circuit", "n_gates", "n_endpoints",
                             "clock_period", "pruned_candidates",
                             "pruned_endpoints", "moves", "identical",
                             "pruned_seconds", "unpruned_seconds"],
                "properties": {
                    "circuit": {"type": "string", "minLength": 1},
                    "n_gates": {"type": "integer", "minimum": 1},
                    "n_endpoints": {"type": "integer", "minimum": 1},
                    "clock_period": {"type": "number",
                                     "exclusiveMinimum": 0},
                    "pruned_candidates": {"type": "integer", "minimum": 1},
                    "pruned_endpoints": {"type": "integer", "minimum": 0},
                    "moves": {"type": "integer", "minimum": 0},
                    "identical": {"const": True},
                    "pruned_seconds": {"type": "number",
                                       "exclusiveMinimum": 0},
                    "unpruned_seconds": {"type": "number",
                                         "exclusiveMinimum": 0},
                },
            },
        },
    },
}

#: Bump on breaking format changes.
BOUNDS_PRUNING_VERSION = 1


def _bounds_fail(message: str) -> None:
    raise ValueError(f"BENCH_bounds_pruning payload invalid: {message}")


def _validate_bounds_fallback(payload: Dict[str, Any]) -> None:
    """Structural validation mirroring :data:`BOUNDS_PRUNING_SCHEMA`."""
    if not isinstance(payload, dict):
        _bounds_fail("top level must be an object")
    for key in BOUNDS_PRUNING_SCHEMA["required"]:
        if key not in payload:
            _bounds_fail(f"missing required key {key!r}")
    if payload["report"] != "spsta-bounds-pruning":
        _bounds_fail(f"report must be 'spsta-bounds-pruning', "
                     f"got {payload['report']!r}")
    if not isinstance(payload["version"], int) or payload["version"] < 1:
        _bounds_fail("version must be an integer >= 1")
    if not isinstance(payload["algebra"], str) or not payload["algebra"]:
        _bounds_fail("algebra must be a non-empty string")
    if payload["metric"] != "mean-ksigma":
        _bounds_fail(f"metric must be 'mean-ksigma', "
                     f"got {payload['metric']!r}")
    k_sigma = payload["k_sigma"]
    if not isinstance(k_sigma, (int, float)) or isinstance(k_sigma, bool) \
            or k_sigma <= 0:
        _bounds_fail("k_sigma must be a number > 0")
    headline = payload["headline"]
    if not isinstance(headline, dict):
        _bounds_fail("headline must be an object")
    if not isinstance(headline.get("circuit"), str) \
            or not headline["circuit"]:
        _bounds_fail("headline.circuit must be a non-empty string")
    value = headline.get("pruned_candidates")
    if not isinstance(value, int) or isinstance(value, bool) or value < 1:
        _bounds_fail("headline.pruned_candidates must be an integer >= 1")
    if headline.get("identical") is not True:
        _bounds_fail("headline.identical must be true")
    circuits = payload["circuits"]
    if not isinstance(circuits, list) or not circuits:
        _bounds_fail("circuits must be a non-empty array")
    for i, point in enumerate(circuits):
        where = f"circuits[{i}]."
        if not isinstance(point, dict):
            _bounds_fail(f"circuits[{i}] must be an object")
        if not isinstance(point.get("circuit"), str) \
                or not point["circuit"]:
            _bounds_fail(f"{where}circuit must be a non-empty string")
        for key, floor in (("n_gates", 1), ("n_endpoints", 1),
                           ("pruned_candidates", 1),
                           ("pruned_endpoints", 0), ("moves", 0)):
            value = point.get(key)
            if not isinstance(value, int) or isinstance(value, bool) \
                    or value < floor:
                _bounds_fail(f"{where}{key} must be an integer "
                             f">= {floor}")
        for key in ("clock_period", "pruned_seconds", "unpruned_seconds"):
            value = point.get(key)
            if not isinstance(value, (int, float)) \
                    or isinstance(value, bool) or value <= 0:
                _bounds_fail(f"{where}{key} must be a number > 0")
        if point.get("identical") is not True:
            _bounds_fail(f"{where}identical must be true")


_BOUNDS_PRUNING = CompiledSchema(BOUNDS_PRUNING_SCHEMA)


def validate_bounds_pruning(payload: Dict[str, Any]) -> None:
    """Raise ``ValueError`` if ``payload`` violates the artifact schema."""
    if jsonschema is not None:
        try:
            _BOUNDS_PRUNING.validate(payload)
        except jsonschema.ValidationError as exc:
            raise ValueError(
                f"BENCH_bounds_pruning payload invalid: {exc.message}"
            ) from exc
        return
    _validate_bounds_fallback(payload)


def pruned_fractions(payload: Dict[str, Any]) -> Dict[str, float]:
    """Fraction of gates certified never-critical, by circuit (payload
    assumed valid)."""
    return {point["circuit"]: point["pruned_candidates"] / point["n_gates"]
            for point in payload["circuits"]}
