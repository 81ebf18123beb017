"""Conformance harness: pair comparison, policies, report, CLI."""

import json
import math

import pytest

from repro.cli import main
from repro.netlist.benchmarks import benchmark_circuit
from repro.verify import (
    CONTAINMENT_POLICIES,
    GUARDRAIL_MAX_CLIP_FRACTION,
    POLICIES,
    run_conformance,
    verify_circuit,
)
from repro.verify.harness import (
    _compare_pair,
    _containment_check,
    fuzz_profiles,
    sweep_grid_for,
)
from repro.verify.policies import ContainmentPolicy, TolerancePolicy


def _stats_table(table):
    """Adapter: {(net, direction): (p, mean, std, count)} -> stats fn."""
    return lambda net, direction: table[(net, direction)]


class TestComparePair:
    POLICY = TolerancePolicy(pair="a-vs-b", description="test",
                             abs_probability=0.01, abs_mean=0.1,
                             abs_std=0.1, min_occurrences=10)

    def test_agreement_passes(self):
        table = {("y", "rise"): (0.5, 1.0, 0.2, 100),
                 ("y", "fall"): (0.5, 1.1, 0.2, 100)}
        check = _compare_pair(self.POLICY, ["y"], _stats_table(table),
                              _stats_table(table))
        assert check.passed
        assert check.n_comparisons == 6   # probability + mean + std, twice

    def test_probability_divergence_detected(self):
        a = {("y", "rise"): (0.5, 1.0, 0.2, 100),
             ("y", "fall"): (0.5, 1.0, 0.2, 100)}
        b = {("y", "rise"): (0.55, 1.0, 0.2, 100),
             ("y", "fall"): (0.5, 1.0, 0.2, 100)}
        check = _compare_pair(self.POLICY, ["y"], _stats_table(a),
                              _stats_table(b))
        assert not check.passed
        [divergence] = check.divergences
        assert divergence.metric == "probability"
        assert divergence.net == "y"
        assert divergence.delta == pytest.approx(0.05)

    def test_mean_divergence_detected(self):
        a = {("y", "rise"): (0.5, 1.0, 0.2, 100),
             ("y", "fall"): (0.0, math.nan, math.nan, 0)}
        b = {("y", "rise"): (0.5, 1.5, 0.2, 100),
             ("y", "fall"): (0.0, math.nan, math.nan, 0)}
        check = _compare_pair(self.POLICY, ["y"], _stats_table(a),
                              _stats_table(b))
        assert [d.metric for d in check.divergences] == ["mean"]

    def test_min_occurrences_gates_moments_not_probability(self):
        # 5 occurrences < min_occurrences=10: the wild moment mismatch is
        # ignored, but the probability mismatch still counts.
        a = {("y", "rise"): (0.5, 1.0, 0.2, 5),
             ("y", "fall"): (0.5, 1.0, 0.2, 5)}
        b = {("y", "rise"): (0.4, 9.9, 9.9, 5),
             ("y", "fall"): (0.5, 1.0, 0.2, 5)}
        check = _compare_pair(self.POLICY, ["y"], _stats_table(a),
                              _stats_table(b))
        assert [d.metric for d in check.divergences] == ["probability"]

    def test_absent_transition_skips_moments(self):
        table = {("y", "rise"): (0.0, math.nan, math.nan, 0),
                 ("y", "fall"): (0.0, math.nan, math.nan, 0)}
        check = _compare_pair(self.POLICY, ["y"], _stats_table(table),
                              _stats_table(table))
        assert check.passed
        assert check.n_comparisons == 2   # probabilities only


class TestPolicies:
    def test_every_pair_has_a_policy(self):
        expected = {"fast-vs-naive/moment", "fast-vs-naive/mixture",
                    "fast-vs-naive/grid", "stream-vs-event/mc",
                    "moment-vs-grid", "mixture-vs-grid",
                    "moment-vs-mc", "mixture-vs-mc", "grid-vs-mc",
                    "batched-vs-fast/moment", "batched-vs-fast/mixture",
                    "batched-vs-fast/grid", "batched-vs-mc",
                    "hier-vs-flat/moment", "hier-vs-flat/mixture",
                    "hier-vs-flat/grid",
                    "incremental-vs-full/moment",
                    "incremental-vs-full/mixture",
                    "incremental-vs-full/grid"}
        assert set(POLICIES) == expected

    def test_replication_pairs_are_tightest(self):
        for name, policy in POLICIES.items():
            if name.startswith(("fast-vs-naive", "batched-vs-fast",
                                "hier-vs-flat", "incremental-vs-full")):
                assert policy.abs_probability <= 1e-9, name
                assert not policy.endpoints_only, name
            if name.endswith("-vs-mc") and "stream" not in name:
                assert policy.min_occurrences > 0, name

    def test_guardrail_threshold_positive(self):
        assert 0.0 < GUARDRAIL_MAX_CLIP_FRACTION <= 1e-3

    def test_containment_policies_registered(self):
        assert set(CONTAINMENT_POLICIES) == {"bounds-vs-bdd/exact",
                                             "bounds-vs-mc/hoeffding"}
        exact = CONTAINMENT_POLICIES["bounds-vs-bdd/exact"]
        assert exact.slack == 0.0          # soundness admits no tolerance
        assert exact.max_launch_points is not None
        sampled = CONTAINMENT_POLICIES["bounds-vs-mc/hoeffding"]
        assert sampled.delta is not None and 0.0 < sampled.delta < 1.0


class TestContainmentCheck:
    POLICY = ContainmentPolicy(pair="bounds-vs-test", description="test")

    def test_contained_passes(self):
        from repro.bounds import Interval
        intervals = {"y": Interval(0.2, 0.6)}
        check = _containment_check(self.POLICY, intervals, {"y": 0.4}, 0.0)
        assert check.passed
        assert check.n_comparisons == 1
        assert check.max_delta["probability"] == 0.0

    def test_escape_detected_with_distance(self):
        from repro.bounds import Interval
        intervals = {"y": Interval(0.2, 0.6)}
        check = _containment_check(self.POLICY, intervals, {"y": 0.7}, 0.0)
        assert not check.passed
        [divergence] = check.divergences
        assert divergence.delta == pytest.approx(0.1)
        assert divergence.value_b == pytest.approx(0.6)

    def test_slack_widens_the_interval(self):
        from repro.bounds import Interval
        intervals = {"y": Interval(0.2, 0.6)}
        check = _containment_check(self.POLICY, intervals, {"y": 0.7}, 0.2)
        assert check.passed


class TestVerifyCircuit:
    def test_s27_conforms(self):
        conformance = verify_circuit(benchmark_circuit("s27"),
                                     trials=4000, seed=0)
        assert conformance.passed, conformance.to_dict()
        assert conformance.guardrail["mass_checks"] > 0
        # s27 is under the BDD containment gate, so both containment
        # checks run on top of the tolerance pairs.
        assert len(conformance.checks) == (len(POLICIES)
                                           + len(CONTAINMENT_POLICIES))
        pairs = {check.pair for check in conformance.checks}
        assert pairs == set(POLICIES) | set(CONTAINMENT_POLICIES)

    def test_sweep_grid_pitch_divides_unit_delay(self):
        grid = sweep_grid_for(benchmark_circuit("s27"))
        assert (1.0 / grid.dt) == pytest.approx(round(1.0 / grid.dt))


class TestRunConformance:
    def test_fuzz_profiles_deterministic(self):
        assert fuzz_profiles(7, 4) == fuzz_profiles(7, 4)
        assert fuzz_profiles(7, 2) != fuzz_profiles(8, 2)

    def test_small_sweep_passes_and_serializes(self):
        report = run_conformance(seed=0, n_random=1, benches=("s27",),
                                 trials=2000)
        assert report.passed
        assert report.n_comparisons > 0
        payload = json.loads(report.to_json())
        assert payload["report"] == "spsta-conformance"
        assert payload["passed"] is True
        assert len(payload["circuits"]) == 2
        assert set(payload["policies"]) == set(POLICIES)
        assert (set(payload["containment_policies"])
                == set(CONTAINMENT_POLICIES))
        rendered = report.render()
        assert "PASS" in rendered and "s27" in rendered


class TestVerifyCli:
    def test_exit_zero_and_json_on_pass(self, tmp_path, capsys):
        out = tmp_path / "report.json"
        code = main(["verify", "--seed", "0", "--random", "1",
                     "--benches", "s27", "--trials", "1000",
                     "--json", str(out)])
        assert code == 0
        payload = json.loads(out.read_text())
        assert payload["passed"] is True
        assert "PASS" in capsys.readouterr().out

    def test_exit_nonzero_on_guardrail_failure(self, monkeypatch, capsys):
        from repro.stats.grid import TimeGrid
        import repro.verify.harness as harness

        monkeypatch.setattr(harness, "sweep_grid_for",
                            lambda netlist: TimeGrid(-2.0, 10.0, 384))
        with pytest.warns(Warning):
            code = main(["verify", "--seed", "0", "--random", "0",
                         "--benches", "s27", "--trials", "500"])
        assert code == 1
        assert "FAIL" in capsys.readouterr().out
