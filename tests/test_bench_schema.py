"""Schema tests for the benchmark-trajectory artifact formats.

Covers ``BENCH_scenario_sweep.json``, ``BENCH_hier_scale.json``,
``BENCH_opt_loop.json`` and ``BENCH_bounds_pruning.json``.
Every case runs the package's one validator (:mod:`repro.schema`) in
two environments: with the optional ``jsonschema`` package importable
and with it hidden (``fallback``), and the decisions must agree.  When
``jsonschema`` is installed, every mutation's decision is also checked
against ``jsonschema.validate``.  The committed artifacts themselves are
validated too: a format change that forgets to regenerate them fails
here.
"""

from __future__ import annotations

import copy
import json
from pathlib import Path
import sys

import pytest

from repro.experiments.bench_schema import (
    BOUNDS_PRUNING_SCHEMA,
    BOUNDS_PRUNING_VERSION,
    HIER_SCALE_SCHEMA,
    HIER_SCALE_VERSION,
    OPT_LOOP_SCHEMA,
    OPT_LOOP_VERSION,
    SCENARIO_SWEEP_SCHEMA,
    SCENARIO_SWEEP_VERSION,
    hier_speedups,
    opt_speedups,
    pruned_fractions,
    trajectory_speedups,
    validate_bounds_pruning,
    validate_hier_scale,
    validate_opt_loop,
    validate_scenario_sweep,
)
from repro.schema import CompiledSchema, SchemaError

RESULTS = (Path(__file__).resolve().parent.parent
           / "benchmarks" / "results")
ARTIFACT = RESULTS / "BENCH_scenario_sweep.json"
HIER_ARTIFACT = RESULTS / "BENCH_hier_scale.json"
OPT_ARTIFACT = RESULTS / "BENCH_opt_loop.json"
BOUNDS_ARTIFACT = RESULTS / "BENCH_bounds_pruning.json"

#: ``jsonschema`` importable, or hidden from import (``fallback``).
ENVIRONMENTS = ["jsonschema", "fallback"]


def _in_environment(request, monkeypatch, validate):
    """Return ``validate`` after setting up the ``request.param``
    environment; the one validator must decide alike in both."""
    if request.param == "jsonschema":
        pytest.importorskip("jsonschema")
    else:
        monkeypatch.setitem(sys.modules, "jsonschema", None)
    return validate


def _valid_payload() -> dict:
    point = {
        "grid": {"start": -8.0, "stop": 45.0, "n": 32},
        "batched_seconds": 0.5,
        "looped_seconds": 6.5,
        "speedup": 13.0,
    }
    return {
        "report": "spsta-scenario-sweep",
        "version": SCENARIO_SWEEP_VERSION,
        "circuit": "s1196",
        "n_scenarios": 64,
        "algebra": "grid",
        "repeats": 3,
        "headline": {"grid_n": 32, "speedup": 13.0},
        "trajectory": [point],
    }


def _mutations():
    """(label, mutator) pairs, each producing one schema violation."""
    def drop(key):
        def mutate(p):
            del p[key]
        return mutate

    def set_(key, value):
        def mutate(p):
            p[key] = value
        return mutate

    def in_point(key, value):
        def mutate(p):
            p["trajectory"][0][key] = value
        return mutate

    return [
        ("missing report", drop("report")),
        ("missing trajectory", drop("trajectory")),
        ("wrong report tag", set_("report", "spsta-lint")),
        ("version zero", set_("version", 0)),
        ("empty circuit", set_("circuit", "")),
        ("n_scenarios zero", set_("n_scenarios", 0)),
        ("empty trajectory", set_("trajectory", [])),
        ("headline missing speedup", set_("headline", {"grid_n": 32})),
        ("negative batched seconds", in_point("batched_seconds", -1.0)),
        ("zero speedup", in_point("speedup", 0.0)),
        ("string looped seconds", in_point("looped_seconds", "fast")),
        ("grid missing n",
         in_point("grid", {"start": -8.0, "stop": 45.0})),
        ("boolean version", set_("version", True)),
        ("headline grid below 8 bins",
         set_("headline", {"grid_n": 4, "speedup": 13.0})),
        ("repeats zero", set_("repeats", 0)),
    ]


@pytest.fixture(params=ENVIRONMENTS)
def validator(request, monkeypatch):
    """Run each test with and without ``jsonschema`` importable."""
    return _in_environment(request, monkeypatch, validate_scenario_sweep)


class TestValidation:
    def test_valid_payload_passes(self, validator):
        validator(_valid_payload())

    def test_repeats_is_optional(self, validator):
        payload = _valid_payload()
        del payload["repeats"]
        validator(payload)

    @pytest.mark.parametrize("label,mutate", _mutations(),
                             ids=[m[0] for m in _mutations()])
    def test_invalid_payload_rejected(self, validator, label, mutate):
        payload = copy.deepcopy(_valid_payload())
        mutate(payload)
        with pytest.raises(ValueError, match="payload invalid"):
            validator(payload)


class TestCommittedArtifact:
    def test_artifact_exists(self):
        assert ARTIFACT.is_file(), (
            "benchmarks/results/BENCH_scenario_sweep.json missing — "
            "run `pytest benchmarks/test_bench_scenario.py` to regenerate")

    def test_artifact_validates(self, validator):
        validator(json.loads(ARTIFACT.read_text()))

    def test_artifact_headline_matches_trajectory(self):
        payload = json.loads(ARTIFACT.read_text())
        headline = payload["headline"]
        match = [p for p in payload["trajectory"]
                 if p["grid"]["n"] == headline["grid_n"]]
        assert len(match) == 1
        assert match[0]["speedup"] == headline["speedup"]

    def test_artifact_records_the_target_sweep(self):
        payload = json.loads(ARTIFACT.read_text())
        assert payload["circuit"] == "s1196"
        assert payload["n_scenarios"] == 64


class TestHelpers:
    def test_trajectory_speedups_order(self):
        payload = _valid_payload()
        payload["trajectory"] = [
            dict(payload["trajectory"][0], speedup=s)
            for s in (13.0, 10.7, 4.8)
        ]
        assert trajectory_speedups(payload) == [13.0, 10.7, 4.8]


def _valid_hier_payload() -> dict:
    measured = {
        "n_gates": 100_000, "n_regions": 16, "grid_n": 512,
        "hier_seconds": 4.2, "flat_seconds": 24.1, "speedup": 5.7,
        "peak_rss_bytes": 150 * 1024 ** 2, "complete": True,
        "dedup_hits": 14,
    }
    infeasible = {
        "n_gates": 1_000_000, "n_regions": 32, "grid_n": 512,
        "hier_seconds": 39.0, "flat_seconds": None, "speedup": None,
        "flat_infeasible_reason": "flat grid state exceeds the budget",
        "peak_rss_bytes": 761 * 1024 ** 2, "complete": True,
        "dedup_hits": 30,
    }
    return {
        "report": "spsta-hier-scale",
        "version": HIER_SCALE_VERSION,
        "workers": 8,
        "algebra": "grid",
        "memory_budget_bytes": 2 * 1024 ** 3,
        "repeats": 1,
        "headline": {"n_gates": 100_000, "speedup": 5.7},
        "trajectory": [measured, infeasible],
    }


def _hier_mutations():
    """(label, mutator) pairs, each producing one schema violation."""
    def drop(key):
        def mutate(p):
            del p[key]
        return mutate

    def set_(key, value):
        def mutate(p):
            p[key] = value
        return mutate

    def in_point(index, key, value):
        def mutate(p):
            p["trajectory"][index][key] = value
        return mutate

    def drop_in_point(index, key):
        def mutate(p):
            del p["trajectory"][index][key]
        return mutate

    return [
        ("missing report", drop("report")),
        ("wrong report tag", set_("report", "spsta-scenario-sweep")),
        ("version zero", set_("version", 0)),
        ("workers zero", set_("workers", 0)),
        ("empty algebra", set_("algebra", "")),
        ("missing budget", drop("memory_budget_bytes")),
        ("zero budget", set_("memory_budget_bytes", 0)),
        ("empty trajectory", set_("trajectory", [])),
        ("headline missing speedup",
         set_("headline", {"n_gates": 100_000})),
        ("negative hier seconds", in_point(0, "hier_seconds", -1.0)),
        ("zero speedup", in_point(0, "speedup", 0.0)),
        ("string flat seconds", in_point(0, "flat_seconds", "slow")),
        ("incomplete run", in_point(0, "complete", False)),
        ("missing flat_seconds", drop_in_point(0, "flat_seconds")),
        ("null flat with measured speedup",
         in_point(1, "speedup", 5.0)),
        ("null flat without reason",
         drop_in_point(1, "flat_infeasible_reason")),
        ("measured flat with null speedup",
         in_point(0, "speedup", None)),
        ("negative dedup hits", in_point(0, "dedup_hits", -1)),
        ("empty infeasible reason",
         in_point(0, "flat_infeasible_reason", "")),
    ]


@pytest.fixture(params=ENVIRONMENTS)
def hier_validator(request, monkeypatch):
    """Run each hier-scale test with and without ``jsonschema``."""
    return _in_environment(request, monkeypatch, validate_hier_scale)


class TestHierScaleValidation:
    def test_valid_payload_passes(self, hier_validator):
        hier_validator(_valid_hier_payload())

    def test_optional_keys_may_be_absent(self, hier_validator):
        payload = _valid_hier_payload()
        del payload["repeats"]
        del payload["trajectory"][0]["dedup_hits"]
        hier_validator(payload)

    @pytest.mark.parametrize("label,mutate", _hier_mutations(),
                             ids=[m[0] for m in _hier_mutations()])
    def test_invalid_payload_rejected(self, hier_validator, label, mutate):
        payload = copy.deepcopy(_valid_hier_payload())
        mutate(payload)
        with pytest.raises(ValueError, match="payload invalid"):
            hier_validator(payload)


class TestCommittedHierArtifact:
    def test_artifact_exists(self):
        assert HIER_ARTIFACT.is_file(), (
            "benchmarks/results/BENCH_hier_scale.json missing — run "
            "`pytest benchmarks/test_bench_hier.py` to regenerate")

    def test_artifact_validates(self, hier_validator):
        hier_validator(json.loads(HIER_ARTIFACT.read_text()))

    def test_artifact_headline_meets_the_acceptance_floor(self):
        payload = json.loads(HIER_ARTIFACT.read_text())
        assert payload["headline"]["n_gates"] == 100_000
        assert payload["workers"] == 8
        assert payload["headline"]["speedup"] >= 4.0
        speedups = hier_speedups(payload)
        assert speedups[100_000] == payload["headline"]["speedup"]

    def test_artifact_million_gate_point_fits_the_budget(self):
        payload = json.loads(HIER_ARTIFACT.read_text())
        point = next(p for p in payload["trajectory"]
                     if p["n_gates"] == 1_000_000)
        assert point["complete"] is True
        assert point["flat_seconds"] is None
        assert point["peak_rss_bytes"] < payload["memory_budget_bytes"]


class TestHierHelpers:
    def test_hier_speedups_skips_infeasible_points(self):
        payload = _valid_hier_payload()
        assert hier_speedups(payload) == {100_000: 5.7}


def _valid_opt_payload() -> dict:
    point = {
        "circuit": "s1196",
        "n_gates": 529,
        "moves": 60,
        "incremental_seconds": 0.6,
        "full_seconds": 5.5,
        "speedup": 9.2,
        "recomputed_gates": 3600,
        "full_gate_evals": 31740,
    }
    return {
        "report": "spsta-opt-loop",
        "version": OPT_LOOP_VERSION,
        "algebra": "moment",
        "metric": "yield",
        "repeats": 3,
        "headline": {"circuit": "s1196", "speedup": 9.2},
        "circuits": [point],
    }


def _opt_mutations():
    """(label, mutator) pairs, each producing one schema violation."""
    def drop(key):
        def mutate(p):
            del p[key]
        return mutate

    def set_(key, value):
        def mutate(p):
            p[key] = value
        return mutate

    def in_point(key, value):
        def mutate(p):
            p["circuits"][0][key] = value
        return mutate

    return [
        ("missing report", drop("report")),
        ("missing circuits", drop("circuits")),
        ("wrong report tag", set_("report", "spsta-hier-scale")),
        ("version zero", set_("version", 0)),
        ("empty algebra", set_("algebra", "")),
        ("empty metric", set_("metric", "")),
        ("empty circuits", set_("circuits", [])),
        ("headline missing speedup", set_("headline",
                                          {"circuit": "s1196"})),
        ("empty circuit name", in_point("circuit", "")),
        ("n_gates zero", in_point("n_gates", 0)),
        ("moves zero", in_point("moves", 0)),
        ("negative incremental seconds",
         in_point("incremental_seconds", -1.0)),
        ("zero speedup", in_point("speedup", 0.0)),
        ("string full seconds", in_point("full_seconds", "slow")),
        ("fractional recomputed gates",
         in_point("recomputed_gates", 3.5)),
    ]


@pytest.fixture(params=ENVIRONMENTS)
def opt_validator(request, monkeypatch):
    """Run each opt-loop test with and without ``jsonschema`` importable."""
    return _in_environment(request, monkeypatch, validate_opt_loop)


class TestOptLoopValidation:
    def test_valid_payload_passes(self, opt_validator):
        opt_validator(_valid_opt_payload())

    def test_repeats_is_optional(self, opt_validator):
        payload = _valid_opt_payload()
        del payload["repeats"]
        opt_validator(payload)

    @pytest.mark.parametrize("label,mutate", _opt_mutations(),
                             ids=[m[0] for m in _opt_mutations()])
    def test_invalid_payload_rejected(self, opt_validator, label, mutate):
        payload = copy.deepcopy(_valid_opt_payload())
        mutate(payload)
        with pytest.raises(ValueError, match="payload invalid"):
            opt_validator(payload)


class TestCommittedOptArtifact:
    def test_artifact_exists(self):
        assert OPT_ARTIFACT.is_file(), (
            "benchmarks/results/BENCH_opt_loop.json missing — run "
            "`pytest benchmarks/test_bench_opt.py` to regenerate")

    def test_artifact_validates(self, opt_validator):
        opt_validator(json.loads(OPT_ARTIFACT.read_text()))

    def test_artifact_headline_meets_the_acceptance_floor(self):
        payload = json.loads(OPT_ARTIFACT.read_text())
        assert payload["headline"]["circuit"] == "s1196"
        assert payload["headline"]["speedup"] >= 5.0
        speedups = opt_speedups(payload)
        assert speedups["s1196"] == payload["headline"]["speedup"]
        assert set(speedups) == {"s1196", "s9234"}

    def test_artifact_work_accounting_is_consistent(self):
        payload = json.loads(OPT_ARTIFACT.read_text())
        for point in payload["circuits"]:
            # The full baseline recomputes every gate per applied edit;
            # the incremental side must have done strictly less work.
            assert point["full_gate_evals"] % point["n_gates"] == 0
            assert point["recomputed_gates"] < point["full_gate_evals"]


class TestOptHelpers:
    def test_opt_speedups_by_circuit(self):
        payload = _valid_opt_payload()
        payload["circuits"].append(
            dict(payload["circuits"][0], circuit="s9234", speedup=5.7))
        assert opt_speedups(payload) == {"s1196": 9.2, "s9234": 5.7}


def _valid_bounds_payload() -> dict:
    point = {
        "circuit": "s1196",
        "n_gates": 529,
        "n_endpoints": 36,
        "clock_period": 16.5,
        "pruned_candidates": 3,
        "pruned_endpoints": 1,
        "moves": 4,
        "identical": True,
        "pruned_seconds": 0.2,
        "unpruned_seconds": 0.25,
    }
    return {
        "report": "spsta-bounds-pruning",
        "version": BOUNDS_PRUNING_VERSION,
        "algebra": "moment",
        "metric": "mean-ksigma",
        "k_sigma": 3.0,
        "headline": {"circuit": "s1196", "pruned_candidates": 3,
                     "identical": True},
        "circuits": [point],
    }


def _bounds_mutations():
    """(label, mutator) pairs, each producing one schema violation."""
    def drop(key):
        def mutate(p):
            del p[key]
        return mutate

    def set_(key, value):
        def mutate(p):
            p[key] = value
        return mutate

    def in_point(key, value):
        def mutate(p):
            p["circuits"][0][key] = value
        return mutate

    return [
        ("missing report", drop("report")),
        ("missing circuits", drop("circuits")),
        ("wrong report tag", set_("report", "spsta-opt-loop")),
        ("version zero", set_("version", 0)),
        ("empty algebra", set_("algebra", "")),
        ("wrong metric", set_("metric", "yield")),
        ("k_sigma zero", set_("k_sigma", 0.0)),
        ("empty circuits", set_("circuits", [])),
        ("headline not identical",
         set_("headline", {"circuit": "s1196", "pruned_candidates": 3,
                           "identical": False})),
        ("headline pruned nothing",
         set_("headline", {"circuit": "s1196", "pruned_candidates": 0,
                           "identical": True})),
        ("empty circuit name", in_point("circuit", "")),
        ("n_gates zero", in_point("n_gates", 0)),
        ("n_endpoints zero", in_point("n_endpoints", 0)),
        ("clock period zero", in_point("clock_period", 0.0)),
        ("pruned nothing", in_point("pruned_candidates", 0)),
        ("negative pruned endpoints", in_point("pruned_endpoints", -1)),
        ("result not identical", in_point("identical", False)),
        ("negative pruned seconds", in_point("pruned_seconds", -1.0)),
        ("string unpruned seconds", in_point("unpruned_seconds", "slow")),
    ]


@pytest.fixture(params=ENVIRONMENTS)
def bounds_validator(request, monkeypatch):
    """Run each bounds-pruning test with and without ``jsonschema``."""
    return _in_environment(request, monkeypatch, validate_bounds_pruning)


class TestBoundsPruningValidation:
    def test_valid_payload_passes(self, bounds_validator):
        bounds_validator(_valid_bounds_payload())

    @pytest.mark.parametrize("label,mutate", _bounds_mutations(),
                             ids=[m[0] for m in _bounds_mutations()])
    def test_invalid_payload_rejected(self, bounds_validator, label,
                                      mutate):
        payload = copy.deepcopy(_valid_bounds_payload())
        mutate(payload)
        with pytest.raises(ValueError, match="payload invalid"):
            bounds_validator(payload)


class TestCommittedBoundsArtifact:
    def test_artifact_exists(self):
        assert BOUNDS_ARTIFACT.is_file(), (
            "benchmarks/results/BENCH_bounds_pruning.json missing — run "
            "`pytest benchmarks/test_bench_bounds.py` to regenerate")

    def test_artifact_validates(self, bounds_validator):
        bounds_validator(json.loads(BOUNDS_ARTIFACT.read_text()))

    def test_artifact_certifies_pruning_on_both_circuits(self):
        payload = json.loads(BOUNDS_ARTIFACT.read_text())
        by_circuit = {p["circuit"]: p for p in payload["circuits"]}
        assert set(by_circuit) == {"s1196", "s9234"}
        for point in by_circuit.values():
            assert point["identical"] is True
            assert point["pruned_candidates"] >= 1
        assert payload["headline"]["circuit"] == "s1196"
        assert (payload["headline"]["pruned_candidates"]
                == by_circuit["s1196"]["pruned_candidates"])


class TestBoundsHelpers:
    def test_pruned_fractions_by_circuit(self):
        payload = _valid_bounds_payload()
        payload["circuits"].append(
            dict(payload["circuits"][0], circuit="s9234", n_gates=5597,
                 pruned_candidates=6))
        fractions = pruned_fractions(payload)
        assert fractions["s1196"] == pytest.approx(3 / 529)
        assert fractions["s9234"] == pytest.approx(6 / 5597)


_NULL_CONSISTENCY = {"null flat with measured speedup",
                     "null flat without reason",
                     "measured flat with null speedup"}


def _schema_cases():
    """(schema, valid payload, mutations) for every artifact format.

    The hier null-consistency mutations are dropped: they pass the
    schema and are refused by :func:`validate_hier_scale` alone.
    """
    hier = [m for m in _hier_mutations() if m[0] not in _NULL_CONSISTENCY]
    return [
        (SCENARIO_SWEEP_SCHEMA, _valid_payload(), _mutations()),
        (HIER_SCALE_SCHEMA, _valid_hier_payload(), hier),
        (OPT_LOOP_SCHEMA, _valid_opt_payload(), _opt_mutations()),
        (BOUNDS_PRUNING_SCHEMA, _valid_bounds_payload(),
         _bounds_mutations()),
    ]


def test_decisions_match_jsonschema_validate():
    jsonschema = pytest.importorskip("jsonschema")
    for schema, valid, mutations in _schema_cases():
        compiled = CompiledSchema(schema)
        for label, mutate in [("valid", lambda p: None)] + mutations:
            payload = copy.deepcopy(valid)
            mutate(payload)
            try:
                jsonschema.validate(payload, schema)
                expected = "accept"
            except jsonschema.ValidationError:
                expected = "reject"
            try:
                compiled.validate(payload)
                got = "accept"
            except SchemaError:
                got = "reject"
            assert got == expected == (
                "accept" if label == "valid" else "reject"), label
