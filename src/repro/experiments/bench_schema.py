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

Each schema is checked by :class:`repro.schema.CompiledSchema`, with the
messages ``jsonschema.validate`` would give.
"""

from __future__ import annotations

from typing import Any, Dict, List

from repro.schema import CompiledSchema, SchemaError

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


def _check(schema: CompiledSchema, artifact: str,
           payload: Dict[str, Any]) -> None:
    try:
        schema.validate(payload)
    except SchemaError as exc:
        raise ValueError(
            f"{artifact} payload invalid: {exc.message}") from exc


_SCENARIO_SWEEP = CompiledSchema(SCENARIO_SWEEP_SCHEMA)


def validate_scenario_sweep(payload: Dict[str, Any]) -> None:
    """Raise ``ValueError`` if ``payload`` violates the artifact schema."""
    _check(_SCENARIO_SWEEP, "BENCH_scenario_sweep", payload)


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


_HIER_SCALE = CompiledSchema(HIER_SCALE_SCHEMA)


def validate_hier_scale(payload: Dict[str, Any]) -> None:
    """Raise ``ValueError`` if ``payload`` violates the artifact schema.

    On top of the structural schema, enforces the null-consistency the
    format promises: ``flat_seconds`` and ``speedup`` are null together,
    and a null baseline must carry a ``flat_infeasible_reason``.
    """
    _check(_HIER_SCALE, "BENCH_hier_scale", payload)
    for i, point in enumerate(payload["trajectory"]):
        where = f"BENCH_hier_scale payload invalid: trajectory[{i}]."
        flat_null = point["flat_seconds"] is None
        if flat_null != (point["speedup"] is None):
            raise ValueError(f"{where}flat_seconds and speedup must be "
                             f"null together")
        if flat_null and not point.get("flat_infeasible_reason"):
            raise ValueError(f"{where}flat_infeasible_reason is required "
                             f"when flat_seconds is null")


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


_OPT_LOOP = CompiledSchema(OPT_LOOP_SCHEMA)


def validate_opt_loop(payload: Dict[str, Any]) -> None:
    """Raise ``ValueError`` if ``payload`` violates the artifact schema."""
    _check(_OPT_LOOP, "BENCH_opt_loop", payload)


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


_BOUNDS_PRUNING = CompiledSchema(BOUNDS_PRUNING_SCHEMA)


def validate_bounds_pruning(payload: Dict[str, Any]) -> None:
    """Raise ``ValueError`` if ``payload`` violates the artifact schema."""
    _check(_BOUNDS_PRUNING, "BENCH_bounds_pruning", payload)


def pruned_fractions(payload: Dict[str, Any]) -> Dict[str, float]:
    """Fraction of gates certified never-critical, by circuit (payload
    assumed valid)."""
    return {point["circuit"]: point["pruned_candidates"] / point["n_gates"]
            for point in payload["circuits"]}
