"""Tests for repro.core.incremental_spsta — incremental SPSTA.

The core claim is *bit-exactness*: after any sequence of delay edits,
the worklist-repaired state equals a fresh naive ``run_spsta`` pass
over the same effective delays, for every algebra.  The differential
tests drive random edit sequences on the bundled ISCAS benches and
check exactly that via :func:`assert_matches_full` (tolerance 0).
"""

from hypothesis import settings, strategies as st
from hypothesis.stateful import (
    RuleBasedStateMachine,
    invariant,
    precondition,
    rule,
)
import numpy as np
import pytest

from repro.core.incremental_spsta import (
    IncrementalDivergenceError,
    IncrementalSpsta,
    assert_matches_full,
    conditionals_close,
    fresh_algebra_like,
)
from repro.core.inputs import CONFIG_I
from repro.core.spsta import GridAlgebra, MixtureAlgebra, MomentAlgebra
from repro.netlist.benchmarks import benchmark_circuit
from repro.stats.mixture import GaussianMixture
from repro.stats.normal import Normal
from repro.verify.harness import sweep_grid_for


def _algebra_for(kind, netlist):
    if kind == "moment":
        return MomentAlgebra()
    if kind == "mixture":
        return MixtureAlgebra()
    return GridAlgebra(sweep_grid_for(netlist))


def _random_edits(netlist, rng, n_edits):
    """Deterministic pseudo-random (gate, delay) edit sequence."""
    comb = netlist.combinational_gates
    picks = rng.integers(0, len(comb), size=n_edits)
    mus = 0.6 + 1.8 * rng.random(n_edits)
    sigmas = 0.02 + 0.1 * rng.random(n_edits)
    return [(comb[int(i)].name, Normal(float(mu), float(sg)))
            for i, mu, sg in zip(picks, mus, sigmas)]


class TestDifferential:
    @pytest.mark.parametrize("algebra_kind",
                             ["moment", "mixture", "grid"])
    @pytest.mark.parametrize("bench,seed", [("s27", 0), ("s298", 1),
                                            ("s344", 2)])
    def test_random_edit_sequences_bit_match_full(self, bench, seed,
                                                  algebra_kind):
        netlist = benchmark_circuit(bench)
        inc = IncrementalSpsta(netlist, CONFIG_I,
                               algebra=_algebra_for(algebra_kind, netlist))
        rng = np.random.default_rng(seed)
        for gate, delay in _random_edits(netlist, rng, 6):
            inc.set_delay(gate, delay)
            assert assert_matches_full(inc) == len(netlist.nets)

    def test_initial_state_matches_full_run(self):
        netlist = benchmark_circuit("s298")
        inc = IncrementalSpsta(netlist, CONFIG_I)
        assert assert_matches_full(inc) == len(netlist.nets)

    def test_clear_delay_restores_the_base_model(self):
        netlist = benchmark_circuit("s298")
        inc = IncrementalSpsta(netlist, CONFIG_I)
        baseline = {net: inc.tops[net] for net in netlist.nets}
        victim = netlist.combinational_gates[10].name
        inc.set_delay(victim, Normal(2.5, 0.1))
        inc.clear_delay(victim)
        assert {net: inc.tops[net] for net in netlist.nets} == baseline
        assert_matches_full(inc)

    def test_set_delay_full_mode_lands_in_the_same_state(self):
        netlist = benchmark_circuit("s344")
        worklist = IncrementalSpsta(netlist, CONFIG_I)
        fullpass = IncrementalSpsta(netlist, CONFIG_I)
        rng = np.random.default_rng(3)
        for gate, delay in _random_edits(netlist, rng, 4):
            worklist.set_delay(gate, delay)
            stats = fullpass.set_delay(gate, delay, full=True)
            assert stats.recomputed == len(netlist.combinational_gates)
        assert worklist.tops == fullpass.tops
        assert worklist.prob4 == fullpass.prob4


class TestWorklist:
    def test_update_touches_only_fanout_cone(self):
        netlist = benchmark_circuit("s298")
        inc = IncrementalSpsta(netlist, CONFIG_I)
        victim = netlist.combinational_gates[5].name
        stats = inc.set_delay(victim, Normal(3.0, 0.0))
        n_comb = len(netlist.combinational_gates)
        assert stats.cone_size < n_comb
        assert stats.recomputed == stats.cone_size

    def test_identity_edit_terminates_at_the_source(self):
        # Re-asserting the delay a gate already has changes nothing, so
        # the repair recomputes that one gate and stops.
        netlist = benchmark_circuit("s298")
        inc = IncrementalSpsta(netlist, CONFIG_I)
        victim = netlist.combinational_gates[8].name
        inc.set_delay(victim, Normal(1.7, 0.05))
        stats = inc.set_delay(victim, Normal(1.7, 0.05))
        assert stats.recomputed == 1
        assert stats.skipped == 1

    def test_prob4_is_never_touched_by_delay_edits(self):
        netlist = benchmark_circuit("s298")
        inc = IncrementalSpsta(netlist, CONFIG_I)
        before = dict(inc.prob4)
        for gate, delay in _random_edits(netlist,
                                         np.random.default_rng(4), 5):
            inc.set_delay(gate, delay)
        assert inc.prob4 == before

    def test_result_is_an_ordinary_spsta_result(self):
        netlist = benchmark_circuit("s27")
        inc = IncrementalSpsta(netlist, CONFIG_I)
        result = inc.result()
        assert result.netlist_name == netlist.name
        assert set(result.tops) == set(netlist.nets)


class TestUndo:
    def test_clear_after_set_is_a_restore(self):
        netlist = benchmark_circuit("s298")
        inc = IncrementalSpsta(netlist, CONFIG_I)
        victim = netlist.combinational_gates[10].name
        edit = inc.set_delay(victim, Normal(2.5, 0.1))
        changed = edit.recomputed - edit.skipped
        revert = inc.clear_delay(victim)
        assert (revert.recomputed, revert.cone_size) == (0, 0)
        assert revert.restored == changed > 0
        assert_matches_full(inc)
        # The record flips: redoing the edit is a restore too.
        redo = inc.set_delay(victim, Normal(2.5, 0.1))
        assert (redo.recomputed, redo.restored) == (0, changed)
        assert_matches_full(inc)

    def test_non_matching_edit_recomputes(self):
        netlist = benchmark_circuit("s298")
        inc = IncrementalSpsta(netlist, CONFIG_I)
        victim = netlist.combinational_gates[10].name
        inc.set_delay(victim, Normal(2.5, 0.1))
        stats = inc.set_delay(victim, Normal(2.5, 0.2))
        assert stats.recomputed > 0 and stats.restored == 0
        assert_matches_full(inc)

    @pytest.mark.parametrize("drop", ["full-edit", "full-recompute",
                                      "update-gate"])
    def test_record_is_dropped(self, drop):
        netlist = benchmark_circuit("s298")
        inc = IncrementalSpsta(netlist, CONFIG_I)
        victim = netlist.combinational_gates[10].name
        if drop == "full-edit":
            inc.set_delay(victim, Normal(2.5, 0.1), full=True)
        else:
            inc.set_delay(victim, Normal(2.5, 0.1))
            if drop == "full-recompute":
                inc.full_recompute()
            else:
                inc.update_gate(victim)
        stats = inc.clear_delay(victim)
        assert stats.restored == 0 and stats.recomputed > 0
        assert_matches_full(inc)

    def test_failed_edit_leaves_the_state_untouched(self, monkeypatch):
        netlist = benchmark_circuit("s298")
        inc = IncrementalSpsta(netlist, CONFIG_I)
        inc.set_delay(netlist.combinational_gates[3].name, Normal(2.0, 0.1))
        tops = dict(inc.tops)
        model = inc.effective_delay_model()
        calls = {"n": 0}

        def failing(*args):
            calls["n"] += 1
            if calls["n"] > 2:
                raise FloatingPointError("injected")
            return original(*args)

        import repro.core.incremental_spsta as module
        original = module._gate_tops
        monkeypatch.setattr(module, "_gate_tops", failing)
        with pytest.raises(FloatingPointError):
            inc.set_delay(netlist.combinational_gates[0].name,
                          Normal(3.0, 0.1))
        monkeypatch.undo()
        assert inc.tops == tops
        assert (inc.effective_delay_model().fingerprint_payload()
                == model.fingerprint_payload())
        assert_matches_full(inc)


MUS = (0.5, 1.0, 1.4, 2.0)
SIGMAS = (0.0, 0.05, 0.2)


def _undo_machine(algebra_kind):
    """Random set/clear/revert sequences on s27: after every step the
    state equals a fresh full pass bit for bit, and every revert of the
    previous edit is a restore that recomputes nothing."""

    class UndoMachine(RuleBasedStateMachine):
        def __init__(self):
            super().__init__()
            netlist = benchmark_circuit("s27")
            self.inc = IncrementalSpsta(
                netlist, CONFIG_I,
                algebra=_algebra_for(algebra_kind, netlist))
            self.gates = [g.name for g in netlist.combinational_gates]
            self.overrides = {}
            #: (gate, its override before the last edit, TOPs that edit
            #: changed) when that edit left an undo record
            self.last = None

        def _edit(self, gate, delay, full=False):
            prior = self.overrides.get(gate)
            if delay is None:
                stats = self.inc.clear_delay(gate, full=full)
                self.overrides.pop(gate, None)
            else:
                stats = self.inc.set_delay(gate, delay, full=full)
                self.overrides[gate] = delay
            changed = (stats.restored if stats.restored
                       else stats.recomputed - stats.skipped)
            self.last = None if full else (gate, prior, changed)
            return stats

        @rule(index=st.integers(0, 9), mu=st.sampled_from(MUS),
              sigma=st.sampled_from(SIGMAS), full=st.booleans())
        def set_delay(self, index, mu, sigma, full):
            self._edit(self.gates[index % len(self.gates)],
                       Normal(mu, sigma), full)

        @rule(index=st.integers(0, 9))
        def clear_delay(self, index):
            self._edit(self.gates[index % len(self.gates)], None)

        @precondition(lambda self: self.last is not None)
        @rule()
        def revert(self):
            gate, prior, changed = self.last
            stats = self._edit(gate, prior)
            assert (stats.recomputed, stats.cone_size) == (0, 0)
            assert stats.restored == changed

        @invariant()
        def matches_full(self):
            assert_matches_full(self.inc)

    UndoMachine.__name__ = f"UndoMachine_{algebra_kind}"
    UndoMachine.TestCase.settings = settings(
        max_examples=12, stateful_step_count=10, deadline=None)
    return UndoMachine


TestUndoMachineMoment = _undo_machine("moment").TestCase
TestUndoMachineMixture = _undo_machine("mixture").TestCase
TestUndoMachineGrid = _undo_machine("grid").TestCase


class TestValidation:
    def test_unknown_gate_rejected(self):
        inc = IncrementalSpsta(benchmark_circuit("s27"), CONFIG_I)
        with pytest.raises(KeyError):
            inc.set_delay("nonexistent", Normal(1.0, 0.0))
        with pytest.raises(KeyError):
            inc.clear_delay("nonexistent")

    def test_primary_input_is_not_an_editable_gate(self):
        netlist = benchmark_circuit("s27")
        with pytest.raises(KeyError):
            IncrementalSpsta(netlist, CONFIG_I).set_delay(
                netlist.inputs[0], Normal(1.0, 0.0))

    def test_negative_tolerance_rejected(self):
        with pytest.raises(ValueError):
            IncrementalSpsta(benchmark_circuit("s27"), CONFIG_I,
                             tolerance=-1e-9)

    def test_effective_delay_model_is_a_frozen_snapshot(self):
        netlist = benchmark_circuit("s27")
        inc = IncrementalSpsta(netlist, CONFIG_I)
        victim = netlist.combinational_gates[0].name
        inc.set_delay(victim, Normal(2.0, 0.1))
        snapshot = inc.effective_delay_model()
        gate = netlist.gates[victim]
        assert snapshot.delay(gate) == Normal(2.0, 0.1)
        inc.clear_delay(victim)
        # Later edits must not leak into the earlier snapshot.
        assert snapshot.delay(gate) == Normal(2.0, 0.1)
        assert inc.effective_delay_model().delay(gate) == Normal(1.0, 0.0)

    def test_assert_matches_full_detects_divergence(self):
        netlist = benchmark_circuit("s27")
        inc = IncrementalSpsta(netlist, CONFIG_I)
        # Plant an override without repairing: the full pass sees the new
        # delay, the incremental state still holds the old TOPs.
        inc._overrides[netlist.combinational_gates[0].name] = \
            Normal(9.0, 0.0)
        with pytest.raises(IncrementalDivergenceError):
            assert_matches_full(inc)


class TestHelpers:
    def test_fresh_algebra_like_preserves_configuration(self):
        mixture = MixtureAlgebra(3)
        clone = fresh_algebra_like(mixture)
        assert clone is not mixture
        assert clone.max_components == 3
        grid_algebra = GridAlgebra(sweep_grid_for(benchmark_circuit("s27")))
        grid_clone = fresh_algebra_like(grid_algebra)
        assert grid_clone is not grid_algebra
        assert grid_clone.grid == grid_algebra.grid
        assert isinstance(fresh_algebra_like(MomentAlgebra()),
                          MomentAlgebra)

    def test_conditionals_close_normal(self):
        assert conditionals_close(Normal(1.0, 0.1), Normal(1.0, 0.1), 0.0)
        assert not conditionals_close(Normal(1.0, 0.1),
                                      Normal(1.0 + 1e-12, 0.1), 0.0)
        assert conditionals_close(Normal(1.0, 0.1), Normal(1.05, 0.1),
                                  0.1)

    def test_conditionals_close_mixture(self):
        one = GaussianMixture.from_normal(Normal(1.0, 0.1))
        two = one + GaussianMixture.from_normal(Normal(2.0, 0.2),
                                                weight=0.5)
        assert conditionals_close(one, one, 0.0)
        assert not conditionals_close(one, two, 1e9)  # length mismatch
        shifted = one.shifted(1e-9)
        assert not conditionals_close(one, shifted, 0.0)
        assert conditionals_close(one, shifted, 1e-6)

    def test_conditionals_close_type_mismatch_raises(self):
        with pytest.raises(TypeError):
            conditionals_close(1.0, 2.0, 0.0)


@pytest.mark.perf_smoke
class TestPerfSmoke:
    def test_cone_repair_is_much_smaller_than_the_netlist(self):
        netlist = benchmark_circuit("s1196")
        inc = IncrementalSpsta(netlist, CONFIG_I)
        n_comb = len(netlist.combinational_gates)
        total = 0
        for gate, delay in _random_edits(netlist,
                                         np.random.default_rng(5), 8):
            total += inc.set_delay(gate, delay).recomputed
        # 8 edits at full-pass cost would be 8 * n_comb evaluations; the
        # worklist must stay well under a single full pass' worth.
        assert total < n_comb
        assert_matches_full(inc)
