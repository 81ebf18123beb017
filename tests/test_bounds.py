"""Soundness tests for repro.bounds — the certified interval engine.

Every test here checks a *containment* claim, not a closeness claim:
certified intervals must contain the exact / sampled / engine-computed
reference, with zero slack against the exact rational signal
probabilities (the interval ends are rounded outward) and only the
mathematically required slack elsewhere (Hoeffding half-widths, the
engines' float results).
"""

from fractions import Fraction
import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.bounds import (
    ArrivalBounds,
    DelayBounds,
    Interval,
    compute_bounds,
    gate_interval_frechet,
    gate_interval_independent,
    hoeffding_slack,
    sample_signal_probabilities,
)
from repro.core.delay import NormalDelay, UnitDelay
from repro.core.inputs import CONFIG_I, CONFIG_II
from repro.core.probability import (
    gate_signal_probability,
    signal_probabilities,
)
from repro.core.spsta import MixtureAlgebra, MomentAlgebra, run_spsta
from repro.logic.gates import GateType, gate_spec
from repro.netlist.benchmarks import benchmark_circuit
from repro.netlist.core import Gate, Netlist
from repro.netlist.generator import GeneratorProfile, generate_circuit
from repro.verify.harness import (
    _containment_check,
    _exact_signal_probabilities,
    fuzz_profiles,
)
from repro.verify.policies import CONTAINMENT_POLICIES

DYADIC = (0.0, 0.25, 0.5, 0.75, 1.0)
GATE_TYPES = (GateType.AND, GateType.NAND, GateType.OR, GateType.NOR,
              GateType.XOR, GateType.XNOR)


def _random_circuit(seed, n_gates=22, xor_fraction=0.15):
    return generate_circuit(GeneratorProfile(
        name=f"bounds{seed}", n_inputs=5, n_outputs=3, n_dffs=2,
        n_gates=n_gates, depth=4, seed=seed, xor_fraction=xor_fraction))


def _exact_gate_probability(gate_type, probs):
    """P(y = 1) of one gate in exact rationals, by its truth table."""
    spec = gate_spec(gate_type)
    total = Fraction(0)
    for bits in itertools.product((0, 1), repeat=len(probs)):
        if spec.eval_bits(bits):
            weight = Fraction(1)
            for bit, p in zip(bits, probs):
                weight *= Fraction(p) if bit else 1 - Fraction(p)
            total += weight
    return total


def _tree_netlist():
    """A fanout-free tree: every net feeds exactly one gate."""
    return Netlist("tree", ["a", "b", "c", "d", "e"], ["y"], [
        Gate("n1", GateType.AND, ("a", "b")),
        Gate("n2", GateType.NOR, ("c", "d")),
        Gate("n3", GateType.XOR, ("n1", "n2")),
        Gate("y", GateType.NAND, ("n3", "e")),
    ])


class TestInterval:
    def test_rejects_inverted_and_out_of_range(self):
        with pytest.raises(ValueError):
            Interval(0.6, 0.4)
        with pytest.raises(ValueError):
            Interval(-0.1, 0.5)
        with pytest.raises(ValueError):
            Interval(0.5, 1.1)

    def test_point_width_complement_contains(self):
        p = Interval.point(0.25)
        assert p.is_point and p.width == 0.0
        iv = Interval(0.2, 0.6)
        assert iv.complement() == Interval(0.4, 0.8)
        assert iv.contains(0.6) and not iv.contains(0.61)
        assert iv.contains(0.61, slack=0.02)


class TestDelayBounds:
    def test_rejects_inverted_boxes(self):
        with pytest.raises(ValueError):
            DelayBounds(2.0, 1.0, 0.1, 0.2)
        with pytest.raises(ValueError):
            DelayBounds(1.0, 2.0, 0.2, 0.1)
        with pytest.raises(ValueError):
            DelayBounds(1.0, 2.0, -0.1, 0.1)

    def test_from_point_is_degenerate(self):
        db = DelayBounds.from_point(1.5, 0.2)
        assert db.mu_lo == db.mu_hi == 1.5
        assert db.sigma_lo == db.sigma_hi == 0.2


class TestTransferFunctions:
    @settings(max_examples=100, deadline=None)
    @given(gate_type=st.sampled_from(GATE_TYPES),
           probs=st.lists(st.floats(0.0, 1.0), min_size=2, max_size=4))
    def test_point_inputs_reproduce_point_propagation(self, gate_type,
                                                      probs):
        # Width-0 in: the scalar formula's own expressions with each end
        # rounded outward, so the interval brackets both the point
        # propagation and the exact rational result, a few ulps wide.
        out = gate_interval_independent(
            gate_type, [Interval.point(p) for p in probs])
        point = gate_signal_probability(gate_type, probs)
        assert out.lo <= point <= out.hi
        assert out.contains(_exact_gate_probability(gate_type, probs))
        assert out.width <= 16 * math.ulp(1.0)

    @settings(max_examples=100, deadline=None)
    @given(gate_type=st.sampled_from(GATE_TYPES),
           probs=st.lists(st.sampled_from(DYADIC), min_size=2, max_size=4))
    def test_exact_point_inputs_stay_points(self, gate_type, probs):
        # Dyadic inputs make every operation exact: width-0 out,
        # bit-identical to the scalar formula.
        out = gate_interval_independent(
            gate_type, [Interval.point(p) for p in probs])
        exact = gate_signal_probability(gate_type, probs)
        assert out.lo == exact and out.hi == exact

    @settings(max_examples=100, deadline=None)
    @given(gate_type=st.sampled_from(GATE_TYPES),
           probs=st.lists(st.floats(0.0, 1.0), min_size=2, max_size=4))
    def test_frechet_contains_the_independent_point(self, gate_type,
                                                    probs):
        # Independence is one admissible joint, so the Fréchet interval
        # must contain the independent closed form (float slack only).
        frechet = gate_interval_frechet(
            gate_type, [Interval.point(p) for p in probs])
        exact = gate_signal_probability(gate_type, probs)
        assert frechet.contains(exact, slack=1e-12)

    @settings(max_examples=60, deadline=None)
    @given(gate_type=st.sampled_from(GATE_TYPES),
           boxes=st.lists(st.tuples(st.floats(0.0, 1.0),
                                    st.floats(0.0, 1.0)),
                          min_size=2, max_size=3),
           picks=st.lists(st.floats(0.0, 1.0), min_size=3, max_size=3))
    def test_interval_transfer_contains_every_member_point(
            self, gate_type, boxes, picks):
        # Pick one point inside each input box; the interval transfer
        # must contain the scalar result at that point.
        intervals = [Interval(min(a, b), max(a, b)) for a, b in boxes]
        chosen = [iv.lo + t * (iv.hi - iv.lo)
                  for iv, t in zip(intervals, picks)]
        exact = gate_signal_probability(gate_type, chosen)
        for fn in (gate_interval_independent, gate_interval_frechet):
            assert fn(gate_type, intervals).contains(exact, slack=1e-9)


class TestSpContainment:
    def test_dyadic_launches_contain_exact_bdd_at_zero_slack(self):
        # Dyadic probabilities make every interval operation exact in
        # binary float arithmetic: soundness must hold with NO slack
        # even through reconvergence (the exact reference is a global
        # BDD collapse, structural correlation included).
        for seed in range(6):
            netlist = _random_circuit(seed)
            rng = np.random.default_rng(seed)
            launch = {net: float(rng.choice(DYADIC))
                      for net in netlist.launch_points}
            certified = compute_bounds(netlist, launch=launch)
            exact = _exact_signal_probabilities(netlist, launch)
            assert exact is not None
            for net, value in exact.items():
                assert certified.sp[net].contains(value, slack=0.0), \
                    (seed, net, certified.sp[net], value)

    @pytest.mark.parametrize("name", ["s27", "fuzz-5-0"])
    def test_config_ii_contains_exact_bdd_at_zero_slack(self, name):
        # CONFIG II's launch probability 0.2 is not dyadic: the sweep's
        # exact-BDD containment policy must hold at zero slack anyway.
        netlist = (benchmark_circuit(name) if name == "s27"
                   else generate_circuit(fuzz_profiles(5, 1)[0]))
        policy = CONTAINMENT_POLICIES["bounds-vs-bdd/exact"]
        exact = _exact_signal_probabilities(
            netlist, CONFIG_II.signal_probability)
        check = _containment_check(
            policy, compute_bounds(netlist, stats=CONFIG_II).sp, exact,
            policy.slack)
        assert policy.slack == 0.0
        assert check.n_comparisons == len(netlist.nets)
        assert not check.divergences, check.divergences[:3]

    @settings(max_examples=15, deadline=None)
    @given(seed=st.integers(0, 10_000), p=st.floats(0.01, 0.99))
    def test_float_launches_contain_exact_bdd(self, seed, p):
        netlist = _random_circuit(seed)
        certified = compute_bounds(netlist, launch=p)
        exact = _exact_signal_probabilities(netlist, p)
        assert exact is not None
        for net, value in exact.items():
            assert certified.sp[net].contains(value, slack=1e-9), \
                (net, certified.sp[net], value)

    def test_fanout_free_tree_collapses_to_points_bit_identical(self):
        netlist = _tree_netlist()
        launch = {"a": 0.25, "b": 0.75, "c": 0.5, "d": 0.125, "e": 0.875}
        certified = compute_bounds(netlist, launch=launch)
        exact = signal_probabilities(netlist, launch)
        assert set(certified.regimes.values()) == {"independent"}
        for net, iv in certified.sp.items():
            assert iv.is_point, net
            assert iv.lo == exact[net], net     # bit-identical, not approx
        # Launches that round widen only the ends whose operations
        # rounded: still a few ulps around the point propagation, and
        # containing the exact rational value.
        launch = {"a": 0.3, "b": 0.7, "c": 0.5, "d": 0.1, "e": 0.9}
        certified = compute_bounds(netlist, launch=launch)
        point = signal_probabilities(netlist, launch)
        exact = _exact_signal_probabilities(netlist, launch)
        for net, iv in certified.sp.items():
            assert iv.lo <= point[net] <= iv.hi, net
            assert iv.contains(exact[net]), net
            assert iv.width <= 16 * math.ulp(1.0), net

    def test_intervals_nest_when_launches_tighten(self):
        for seed in range(4):
            netlist = _random_circuit(seed)
            wide = compute_bounds(netlist, launch=Interval(0.2, 0.8))
            narrow = compute_bounds(netlist, launch=Interval(0.4, 0.6))
            for net in wide.sp:
                assert wide.sp[net].lo <= narrow.sp[net].lo, net
                assert narrow.sp[net].hi <= wide.sp[net].hi, net

    def test_sampled_frequencies_inside_hoeffding_slack(self):
        netlist = benchmark_circuit("s27")
        trials = 4000
        certified = compute_bounds(netlist, stats=CONFIG_I)
        sampled = sample_signal_probabilities(
            netlist, launch=CONFIG_I.signal_probability, trials=trials,
            rng=np.random.default_rng(0))
        slack = hoeffding_slack(trials, 1e-9)
        for net, freq in sampled.items():
            assert certified.sp[net].contains(freq, slack=slack), net


class TestArrivalContainment:
    EPS = 1e-9

    def _assert_contained(self, netlist, result, certified):
        for net in netlist.nets:
            box = certified.arrivals[net]
            for direction in ("rise", "fall"):
                p, mean, std = result.report(net, direction)
                if p == 0.0 or math.isnan(mean):
                    continue
                assert box.mu_lo - self.EPS <= mean <= box.mu_hi + self.EPS, \
                    (net, direction, mean, box)
                assert std <= box.sigma_hi + self.EPS, \
                    (net, direction, std, box)
                assert box.sigma_lo - self.EPS <= std, \
                    (net, direction, std, box)

    @pytest.mark.parametrize("algebra_cls", [MomentAlgebra, MixtureAlgebra])
    @pytest.mark.parametrize("stats", [CONFIG_I, CONFIG_II],
                             ids=["cfgI", "cfgII"])
    def test_any_mode_contains_both_algebras(self, algebra_cls, stats):
        netlist = benchmark_circuit("s27")
        model = NormalDelay(1.0, 0.1)
        result = run_spsta(netlist, stats, model, algebra_cls())
        certified = compute_bounds(netlist, stats=stats, delay_model=model,
                                   include_sp=False, mode="any")
        self._assert_contained(netlist, result, certified)

    @pytest.mark.parametrize("bench", ["s27", "s208"])
    def test_moment_mode_contains_moment_algebra(self, bench):
        netlist = benchmark_circuit(bench)
        model = NormalDelay(1.0, 0.1)
        result = run_spsta(netlist, CONFIG_I, model, MomentAlgebra())
        certified = compute_bounds(netlist, stats=CONFIG_I,
                                   delay_model=model, include_sp=False,
                                   mode="moment")
        self._assert_contained(netlist, result, certified)

    @settings(max_examples=10, deadline=None)
    @given(seed=st.integers(0, 10_000))
    def test_moment_mode_contains_on_random_circuits(self, seed):
        netlist = _random_circuit(seed)
        result = run_spsta(netlist, CONFIG_I, UnitDelay(), MomentAlgebra())
        certified = compute_bounds(netlist, stats=CONFIG_I,
                                   include_sp=False, mode="moment")
        self._assert_contained(netlist, result, certified)

    def test_endpoint_criticality_contains_engine_severity(self):
        netlist = benchmark_circuit("s208")
        k = 3.0
        result = run_spsta(netlist, CONFIG_I, UnitDelay(), MomentAlgebra())
        certified = compute_bounds(netlist, stats=CONFIG_I, k_sigma=k,
                                   include_sp=False, mode="moment")
        for net in netlist.endpoints:
            lo, hi = certified.endpoint_criticality[net]
            worst = -math.inf
            for direction in ("rise", "fall"):
                p, mean, std = result.report(net, direction)
                if p > 0.0 and not math.isnan(mean):
                    worst = max(worst, mean + k * std)
            if worst > -math.inf:
                assert lo - self.EPS <= worst <= hi + self.EPS, \
                    (net, lo, worst, hi)

    def test_moment_mode_is_never_looser_than_any_mode(self):
        netlist = benchmark_circuit("s208")
        kwargs = dict(stats=CONFIG_I, include_sp=False)
        any_box = compute_bounds(netlist, mode="any", **kwargs)
        moment_box = compute_bounds(netlist, mode="moment", **kwargs)
        for net in netlist.endpoints:
            assert (moment_box.arrivals[net].var_hi
                    <= any_box.arrivals[net].var_hi + self.EPS), net


class TestCertifiedSets:
    def test_yield_bounds_ordered_and_in_range(self):
        certified = compute_bounds(benchmark_circuit("s27"),
                                   stats=CONFIG_I)
        for clock in (1.0, 5.0, 10.0, 50.0):
            lo, hi = certified.yield_bounds(clock)
            assert 0.0 <= lo <= hi <= 1.0, clock

    def test_thresholds_sweep_the_certified_sets(self):
        netlist = benchmark_circuit("s27")
        certified = compute_bounds(netlist, stats=CONFIG_I)
        huge = 1e9
        assert (set(certified.never_critical_endpoints(huge))
                == set(netlist.endpoints))
        assert (certified.non_critical_gates(huge)
                == {g.name for g in netlist.combinational_gates})
        assert certified.never_critical_endpoints(-huge) == []
        assert certified.non_critical_gates(-huge) == frozenset()

    def test_mode_validation(self):
        with pytest.raises(ValueError, match="mode"):
            compute_bounds(benchmark_circuit("s27"), mode="bogus")

    def test_hoeffding_slack_validation(self):
        with pytest.raises(ValueError):
            hoeffding_slack(0)
        with pytest.raises(ValueError):
            hoeffding_slack(100, delta=0.0)
        assert hoeffding_slack(20_000) == pytest.approx(0.02315, abs=1e-4)

    def test_arrival_bounds_criticality(self):
        box = ArrivalBounds(mu_lo=1.0, mu_hi=2.0, var_hi=0.25,
                            sigma_lo=0.1)
        lo, hi = box.criticality(2.0)
        assert lo == pytest.approx(1.2)
        assert hi == pytest.approx(3.0)


class TestOptimizerPruningIdentity:
    def test_pruning_is_bit_identical_with_candidates_pruned(self):
        from repro.opt.spsta_opt import optimize_spsta
        netlist = benchmark_circuit("s1196")
        kwargs = dict(metric="mean-ksigma", k_sigma=3.0,
                      max_iterations=6, stats=CONFIG_I,
                      rng=np.random.default_rng(0))
        pruned = optimize_spsta(netlist, 16.5, bounds_pruning=True,
                                **kwargs)
        plain = optimize_spsta(netlist, 16.5, bounds_pruning=False,
                               **kwargs)
        assert pruned.bounds_pruning and not plain.bounds_pruning
        assert pruned.pruned_candidates > 0
        assert plain.pruned_candidates == 0
        # Bit-identical outcome: the exclusions are provable no-ops.
        assert dict(pruned.sizes) == dict(plain.sizes)
        assert pruned.metric_after == plain.metric_after
        assert pruned.moves == plain.moves

    def test_yield_metric_documents_pruning_as_noop(self):
        from repro.opt.spsta_opt import optimize_spsta
        netlist = benchmark_circuit("s27")
        result = optimize_spsta(netlist, 6.0, metric="yield",
                                max_iterations=2, bounds_pruning=True)
        assert not result.bounds_pruning
        assert result.pruned_candidates == 0


class TestStemSweepReference:
    """The bitset sweep against a brute-force rule: a stem reconverges
    at a gate iff it lies in the inclusive fan-in cones of two or more
    of the gate's inputs."""

    @staticmethod
    def _reference(netlist):
        from repro.netlist.analysis import fanin_cone, net_depths
        depths = net_depths(netlist)
        stems = [net for net in netlist.nets
                 if sum(1 for sink in netlist.fanouts(net)
                        if netlist.gates[sink].gate_type
                        is not GateType.DFF) >= 2]
        events = {}                  # gate -> {stem: depth}
        for gate in netlist.combinational_gates:
            cones = [fanin_cone(netlist, src) for src in gate.inputs]
            hits = {stem: depths[gate.name] - depths[stem]
                    for stem in stems
                    if sum(stem in cone for cone in cones) >= 2}
            if hits:
                events[gate.name] = hits
        records = {}
        for gate in netlist.combinational_gates:
            for stem in stems:
                if stem not in events.get(gate.name, {}):
                    continue
                depth = events[gate.name][stem]
                first, n, deepest = records.get(stem, (gate.name, 0, 0))
                records[stem] = (first, n + 1, max(deepest, depth))
        metrics = {}
        for endpoint in netlist.endpoints:
            cone = fanin_cone(netlist, endpoint)
            seen = {stem: depth for gate in cone
                    for stem, depth in events.get(gate, {}).items()}
            if seen:
                metrics[endpoint] = {
                    "reconvergent_stems": len(seen),
                    "max_correlation_depth": max(
                        max(events[g].values())
                        for g in cone if g in events)}
        support = {net: sum(netlist.is_launch_point(n)
                            for n in fanin_cone(netlist, net))
                   for net in netlist.nets}
        return stems, records, metrics, frozenset(events), support

    @pytest.mark.parametrize("netlist", [
        benchmark_circuit("s27"), benchmark_circuit("s208"),
        _random_circuit(7, n_gates=60, xor_fraction=0.2)],
        ids=lambda netlist: netlist.name)
    def test_sweep_matches_brute_force(self, netlist):
        from repro.bounds import launch_support_counts, sweep_stems
        stems, records, metrics, gates, support = self._reference(netlist)
        sweep = sweep_stems(netlist)
        assert list(sweep.stems) == stems
        assert {stem: (r.first_gate, r.n_gates, r.max_depth)
                for stem, r in sweep.records.items()} == records
        assert sweep.endpoint_metrics == metrics
        assert sweep.reconvergent_gates == gates
        assert gates, "the case must exercise reconvergence"
        assert launch_support_counts(netlist) == support

    def test_run_lint_sweeps_once(self, monkeypatch):
        from repro.bounds import stems
        from repro.lint import LintConfig, run_lint
        calls = []
        sweep = stems._sweep
        monkeypatch.setattr(stems, "_sweep",
                            lambda netlist: calls.append(1) or sweep(netlist))
        netlist = benchmark_circuit("s298")
        run_lint(netlist, LintConfig())
        assert len(calls) == 1
        stems.sweep_stems(netlist)          # outside a lint: sweeps again
        assert len(calls) == 2
