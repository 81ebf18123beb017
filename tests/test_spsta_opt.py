"""Tests for repro.opt.spsta_opt — SPSTA-in-the-loop optimization."""

import numpy as np
import pytest

from repro.core.spsta import GridAlgebra, MixtureAlgebra
from repro.netlist.benchmarks import benchmark_circuit
from repro.opt import SizedNormalDelay, optimize_spsta
import repro.opt.spsta_opt as spsta_opt
from repro.stats.grid import TimeGrid
from repro.stats.normal import Normal


class TestSizedNormalDelay:
    def test_upsizing_scales_mean_and_sigma(self):
        model = SizedNormalDelay(base=2.0, sigma=0.2, sizes={"g": 2.0})
        gate = benchmark_circuit("s27").combinational_gates[0]
        assert model.delay(gate) == Normal(2.0, 0.2)
        sized = type(gate)("g", gate.gate_type, gate.inputs) \
            if hasattr(gate, "gate_type") else gate
        assert model.size_of("g") == 2.0
        assert model.size_of("other") == 1.0
        assert model.delay(sized) == Normal(1.0, 0.1)


class TestOptimizeSpsta:
    def test_yield_improves_on_tight_clock(self):
        result = optimize_spsta(benchmark_circuit("s298"),
                                clock_period=5.0, target_yield=0.999,
                                max_area=10.0)
        assert result.metric == "yield"
        assert result.metric_after > result.metric_before
        assert result.accepted_moves > 0
        assert result.area_cost > 0.0
        assert result.recomputed_gates > 0

    def test_generous_clock_needs_no_work(self):
        result = optimize_spsta(benchmark_circuit("s298"),
                                clock_period=50.0)
        assert result.met_target
        assert result.iterations == 0
        assert result.sizes == {}
        assert result.metric_after == result.metric_before

    def test_area_budget_is_a_hard_bound(self):
        for max_area in (0.4, 1.0, 2.5):
            result = optimize_spsta(benchmark_circuit("s298"),
                                    clock_period=5.0, target_yield=0.999,
                                    max_area=max_area, anneal=True,
                                    anneal_moves=40,
                                    rng=np.random.default_rng(0))
            assert result.area_cost <= max_area

    def test_same_seed_is_deterministic(self):
        kwargs = dict(clock_period=5.5, max_area=8.0, anneal=True,
                      anneal_moves=30, target_yield=0.999)
        a = optimize_spsta(benchmark_circuit("s298"),
                           rng=np.random.default_rng(11), **kwargs)
        b = optimize_spsta(benchmark_circuit("s298"),
                           rng=np.random.default_rng(11), **kwargs)
        assert a == b

    def test_different_seeds_anneal_differently(self):
        kwargs = dict(clock_period=5.5, max_area=8.0, anneal=True,
                      anneal_moves=30, target_yield=0.999,
                      max_iterations=0)
        a = optimize_spsta(benchmark_circuit("s298"),
                          rng=np.random.default_rng(1), **kwargs)
        b = optimize_spsta(benchmark_circuit("s298"),
                          rng=np.random.default_rng(2), **kwargs)
        assert a.moves != b.moves

    def test_verify_moves_conformance(self):
        for algebra in (None, MixtureAlgebra()):
            result = optimize_spsta(benchmark_circuit("s27"),
                                    clock_period=3.5, max_area=4.0,
                                    algebra=algebra, verify_moves=True,
                                    anneal=True, anneal_moves=10,
                                    rng=np.random.default_rng(0))
            applied = sum(2 - m.accepted for m in result.moves)
            assert result.verified_moves == applied

    def test_mean_ksigma_metric(self):
        before = optimize_spsta(benchmark_circuit("s298"),
                                clock_period=5.0, metric="mean-ksigma",
                                max_iterations=0)
        result = optimize_spsta(benchmark_circuit("s298"),
                                clock_period=5.0, metric="mean-ksigma",
                                max_area=10.0)
        assert result.metric == "mean-ksigma"
        # Lower is better in time units.
        assert result.metric_after <= before.metric_before
        assert result.met_target == \
            (result.metric_after <= 5.0)

    def test_retime_full_matches_incremental(self):
        kwargs = dict(clock_period=5.5, max_area=6.0, anneal=True,
                      anneal_moves=20, target_yield=0.999)
        inc = optimize_spsta(benchmark_circuit("s298"),
                             rng=np.random.default_rng(3),
                             retime="incremental", **kwargs)
        full = optimize_spsta(benchmark_circuit("s298"),
                              rng=np.random.default_rng(3),
                              retime="full", **kwargs)
        assert inc.sizes == full.sizes
        assert inc.metric_after == full.metric_after
        assert inc.recomputed_gates < full.recomputed_gates

    def test_reverts_are_restores(self, monkeypatch):
        """Every rejected move's revert returns the override map to the
        one before the move, so it is served from the undo record; the
        run itself is the one full re-timing makes."""
        from repro.core.incremental_spsta import IncrementalSpsta

        stats = []
        for name in ("set_delay", "clear_delay"):
            original = getattr(IncrementalSpsta, name)

            def spy(self, *args, _original=original, **kwargs):
                update = _original(self, *args, **kwargs)
                stats.append(update)
                return update

            monkeypatch.setattr(IncrementalSpsta, name, spy)
        kwargs = dict(clock_period=5.0, max_area=8.0, anneal=True,
                      anneal_moves=40, target_yield=0.9999)
        inc = optimize_spsta(benchmark_circuit("s298"),
                             rng=np.random.default_rng(3), **kwargs)
        restores = [u for u in stats if u.cone_size == 0]
        rejected = sum(not m.accepted for m in inc.moves)
        assert len(restores) >= rejected > 0
        assert all(u.recomputed == 0 for u in restores)
        assert sum(u.restored for u in restores) > 0
        monkeypatch.undo()
        full = optimize_spsta(benchmark_circuit("s298"),
                              rng=np.random.default_rng(3),
                              retime="full", **kwargs)

        def decisions(result):
            return [(m.phase, m.gate, m.size, m.accepted, m.metric_after)
                    for m in result.moves]

        assert decisions(inc) == decisions(full)
        assert (inc.sizes, inc.metric_after) == (full.sizes,
                                                 full.metric_after)

    def test_mc_validation_agrees_with_the_spsta_metric(self):
        result = optimize_spsta(benchmark_circuit("s27"),
                                clock_period=4.0, max_area=6.0,
                                mc_validate=4000,
                                rng=np.random.default_rng(0))
        assert result.mc_validation is not None
        assert result.mc_validation.trials == 4000
        assert result.mc_validation.joint_yield == \
            pytest.approx(result.metric_after, abs=0.08)

    def test_validation_errors(self):
        netlist = benchmark_circuit("s27")
        with pytest.raises(ValueError):
            optimize_spsta(netlist, clock_period=0.0)
        with pytest.raises(ValueError):
            optimize_spsta(netlist, clock_period=5.0, metric="slack")
        with pytest.raises(ValueError):
            optimize_spsta(netlist, clock_period=5.0, target_yield=1.5)
        with pytest.raises(ValueError):
            optimize_spsta(netlist, clock_period=5.0, retime="lazy")
        with pytest.raises(ValueError):
            optimize_spsta(netlist, clock_period=5.0,
                           algebra=GridAlgebra(TimeGrid(0.0, 10.0, 64)))


#: The repository benchmark's optimizer call (perfbench signoff-batch).
PERFBENCH_S1196 = dict(clock_period=13.0, metric="yield",
                       target_yield=0.9999, anneal=True, anneal_moves=60)


class TestConePricing:
    """Greedy moves are priced on the worst endpoint's fan-in cone; a
    whole-netlist pass (the cone lookup patched to return every gate)
    is the reference the cone must match bit for bit."""

    @staticmethod
    def _whole_netlist(monkeypatch):
        monkeypatch.setattr(
            spsta_opt, "_pricing_cone",
            lambda netlist, endpoint: (netlist.launch_points,
                                       netlist.combinational_gates))

    @staticmethod
    def _outcome(result):
        return (result.moves, dict(result.sizes), result.metric_before,
                result.metric_after, result.recomputed_gates)

    @pytest.mark.parametrize("name, kwargs", [
        ("s1196", dict(PERFBENCH_S1196, seed=1)),
        ("s1196", dict(clock_period=16.5, metric="mean-ksigma",
                       k_sigma=3.0, max_iterations=6,
                       bounds_pruning=True, seed=0)),
        ("s9234", dict(clock_period=17.0, target_yield=0.9999,
                       max_iterations=6, seed=0)),
    ], ids=["s1196-yield-anneal", "s1196-ksigma-pruned", "s9234-greedy"])
    def test_cone_pricing_is_bit_identical(self, monkeypatch, name,
                                           kwargs):
        netlist = benchmark_circuit(name)
        kwargs = dict(kwargs)
        seed = kwargs.pop("seed")
        cone = optimize_spsta(netlist, rng=np.random.default_rng(seed),
                              **kwargs)
        self._whole_netlist(monkeypatch)
        whole = optimize_spsta(netlist, rng=np.random.default_rng(seed),
                               **kwargs)
        assert self._outcome(cone) == self._outcome(whole)
        assert cone.iterations > 0
        n_gates = len(netlist.combinational_gates)
        assert whole.priced_gates == whole.iterations * n_gates
        assert cone.priced_gates < whole.priced_gates
        if kwargs.get("bounds_pruning"):
            assert cone.pruned_candidates > 0

    def test_priced_gates_on_the_benchmark_run(self):
        """A timing-free regression guard: the perfbench s1196 run
        prices 2,464 gates over 41 greedy iterations, where
        whole-netlist pricing walked 41 x 529 = 21,689."""
        netlist = benchmark_circuit("s1196")
        result = optimize_spsta(netlist, rng=np.random.default_rng(1),
                                **PERFBENCH_S1196)
        assert result.iterations == 41
        assert len(netlist.combinational_gates) == 529
        assert result.priced_gates == 2464
