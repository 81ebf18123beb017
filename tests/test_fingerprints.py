"""Canonical fingerprint tests (checkpoint keys and serve cache keys).

The regression these pin: ``delay_fingerprint``/``stats_fingerprint``
used to hash ``repr(model)``, and dict reprs follow **insertion order**
— so two equal mapping-bearing models (``FrozenDelays`` built from
differently-ordered dicts, per-launch-point stats dicts) fingerprinted
differently, and a semantically identical checkpoint ``--resume`` was
rejected with :class:`CheckpointMismatchError`.  Fingerprints must be a
function of the *value*, not of construction order, and must be stable
across process restarts (cache keys outlive processes).
"""

from __future__ import annotations

import json
import subprocess
import sys

from hypothesis import given, settings
from hypothesis import strategies as st
import numpy as np
import pytest

from repro.core.delay import (
    MisDelay,
    NormalDelay,
    PerGateDelay,
    UnitDelay,
)
from repro.core.incremental_spsta import IncrementalSpsta
from repro.core.inputs import CONFIG_I, CONFIG_II
from repro.core.nldm import FrozenDelays
from repro.core.spsta import MomentAlgebra
from repro.fingerprint import (
    canonical_form,
    delay_fingerprint,
    stats_fingerprint,
    value_fingerprint,
)
from repro.netlist.benchmarks import benchmark_circuit
from repro.opt.spsta_opt import SizedNormalDelay
from repro.sim.montecarlo import run_monte_carlo
from repro.spec import decode_spec
from repro.stats.normal import Normal

GATES = ("G1", "G2", "G3", "a", "b", "zz")


def _reordered(mapping):
    """The same mapping with reversed insertion order."""
    return dict(reversed(list(mapping.items())))


# -- the headline regression -------------------------------------------------

class TestEqualModelsEqualFingerprints:
    def test_frozen_delays_key_order_is_irrelevant(self):
        delays = {"G1": 1.0, "G2": 2.5, "G3": 0.75}
        a = FrozenDelays(delays, relative_sigma=0.1)
        b = FrozenDelays(_reordered(delays), relative_sigma=0.1)
        assert a == b
        assert delay_fingerprint(a) == delay_fingerprint(b)

    def test_sized_delay_key_order_is_irrelevant(self):
        sizes = {"u1": 1.5, "u2": 0.5, "u3": 2.0}
        a = SizedNormalDelay(base=1.0, sigma=0.1, sizes=sizes)
        b = SizedNormalDelay(base=1.0, sigma=0.1, sizes=_reordered(sizes))
        assert a == b
        assert delay_fingerprint(a) == delay_fingerprint(b)

    def test_per_launch_point_stats_key_order_is_irrelevant(self):
        stats = {"a": CONFIG_I, "b": CONFIG_II, "c": CONFIG_I}
        assert stats_fingerprint(stats) == stats_fingerprint(
            _reordered(stats))

    def test_different_values_still_fingerprint_differently(self):
        models = [
            UnitDelay(),
            UnitDelay(2.0),
            NormalDelay(1.0, 0.1),
            NormalDelay(1.0, 0.2),
            MisDelay(1.0, 0.15, 0.3, 0.0),
            PerGateDelay(1.0, 0.2),
            FrozenDelays({"G1": 1.0}, 0.0),
            FrozenDelays({"G1": 1.0}, 0.1),
            FrozenDelays({"G1": 1.5}, 0.0),
            FrozenDelays({"G2": 1.0}, 0.0),
            SizedNormalDelay(sizes={"G1": 1.5}),
        ]
        prints = [delay_fingerprint(m) for m in models]
        assert len(set(prints)) == len(models)

    def test_override_wrapper_fingerprints_by_effective_state(self):
        """The serve daemon's effective delay model (base + edits) must
        fingerprint equally however the edits were sequenced."""
        netlist = benchmark_circuit("s27")
        gates = [g.name for g in netlist.combinational_gates][:2]

        def edited(order):
            inc = IncrementalSpsta(netlist, CONFIG_I, UnitDelay(),
                                   MomentAlgebra())
            for name, mu in order:
                inc.set_delay(name, Normal(mu, 0.1))
            return delay_fingerprint(inc.effective_delay_model())

        edits = [(gates[0], 2.0), (gates[1], 3.0)]
        assert edited(edits) == edited(list(reversed(edits)))


# -- property: permutation invariance over every bundled model ----------------

@st.composite
def _gate_mappings(draw):
    keys = draw(st.lists(st.sampled_from(GATES), min_size=1,
                         unique=True))
    values = draw(st.lists(
        st.floats(0.01, 10.0, allow_nan=False), min_size=len(keys),
        max_size=len(keys)))
    return dict(zip(keys, values))


@st.composite
def _delay_models(draw):
    kind = draw(st.sampled_from(
        ("unit", "normal", "mis", "pergate", "frozen", "sized")))
    sigma = draw(st.floats(0.0, 1.0, allow_nan=False))
    if kind == "unit":
        return UnitDelay(draw(st.floats(0.1, 5.0, allow_nan=False)))
    if kind == "normal":
        return NormalDelay(draw(st.floats(0.1, 5.0, allow_nan=False)),
                           sigma)
    if kind == "mis":
        return MisDelay(draw(st.floats(0.1, 5.0, allow_nan=False)),
                        draw(st.floats(0.0, 0.5, allow_nan=False)),
                        draw(st.floats(0.1, 1.0, allow_nan=False)),
                        sigma)
    if kind == "pergate":
        return PerGateDelay(draw(st.floats(0.1, 5.0, allow_nan=False)),
                            draw(st.floats(0.0, 0.5, allow_nan=False)))
    if kind == "frozen":
        return FrozenDelays(draw(_gate_mappings()), sigma)
    return SizedNormalDelay(
        base=draw(st.floats(0.1, 5.0, allow_nan=False)),
        sigma=sigma, sizes=draw(_gate_mappings()))


class TestPermutationInvariance:
    @settings(max_examples=60, deadline=None)
    @given(model=_delay_models(), seed=st.integers(0, 2**16))
    def test_fingerprint_survives_mapping_permutation(self, model, seed):
        """Rebuilding any bundled model with its mappings shuffled must
        not change the fingerprint (equal values, equal prints)."""
        rng = np.random.default_rng(seed)

        def shuffled(mapping):
            items = list(mapping.items())
            rng.shuffle(items)
            return dict(items)

        if isinstance(model, FrozenDelays):
            twin = FrozenDelays(shuffled(model.delays),
                                model.relative_sigma)
        elif isinstance(model, SizedNormalDelay):
            twin = SizedNormalDelay(base=model.base, sigma=model.sigma,
                                    sizes=shuffled(model.sizes))
        else:
            twin = model
        assert twin == model
        assert delay_fingerprint(twin) == delay_fingerprint(model)

    @settings(max_examples=30, deadline=None)
    @given(mapping=_gate_mappings(), seed=st.integers(0, 2**16))
    def test_canonical_form_of_mapping_is_sorted(self, mapping, seed):
        rng = np.random.default_rng(seed)
        items = list(mapping.items())
        rng.shuffle(items)
        assert canonical_form(mapping) == canonical_form(dict(items))


# -- cross-process stability --------------------------------------------------

_SUBPROCESS_PROGRAM = """
import json, sys
from repro.core.delay import NormalDelay
from repro.core.nldm import FrozenDelays
from repro.core.inputs import CONFIG_I, CONFIG_II
from repro.fingerprint import delay_fingerprint, stats_fingerprint
spec = json.loads(sys.stdin.read())
print(json.dumps({
    "frozen": delay_fingerprint(
        FrozenDelays(spec["delays"], spec["sigma"])),
    "normal": delay_fingerprint(NormalDelay(1.25, 0.05)),
    "stats": stats_fingerprint({"a": CONFIG_I, "b": CONFIG_II}),
}))
"""


class TestProcessRestartStability:
    def test_fingerprints_stable_across_process_restarts(self):
        """Cache keys outlive processes: a fresh interpreter (fresh hash
        randomization, fresh dict internals) must reproduce them."""
        delays = {"G3": 0.75, "G1": 1.0, "G2": 2.5}

        def run(order):
            proc = subprocess.run(
                [sys.executable, "-c", _SUBPROCESS_PROGRAM],
                input=json.dumps({"delays": order, "sigma": 0.1}),
                capture_output=True, text=True, check=True)
            return json.loads(proc.stdout)

        first = run(delays)
        second = run(_reordered(delays))
        assert first == second
        assert first["frozen"] == delay_fingerprint(
            FrozenDelays(delays, 0.1))
        assert first["normal"] == delay_fingerprint(NormalDelay(1.25, 0.05))
        assert first["stats"] == stats_fingerprint(
            {"b": CONFIG_II, "a": CONFIG_I})


class TestPinnedValues:
    def test_serve_cache_key_parts_are_pinned(self):
        """Literal prints of the values serve cache keys are built from:
        a changed print would turn every disk entry an earlier daemon
        wrote into a miss."""
        frozen = FrozenDelays({"G1": 1.0, "G2": 2.5}, relative_sigma=0.1)
        assert stats_fingerprint(CONFIG_I) == (
            "0e9b144abefe51835901c60bbd93cd77eefdacd7124ba1b84ca009b43e4fc880")
        assert delay_fingerprint(UnitDelay()) == (
            "96be2361bfcf378ebd962f6b80e8942ddbd36a1bd9315a17912db22c433c6a94")
        assert delay_fingerprint(frozen) == (
            "c470b7fd242ece6044cf74db58a242159d8117aae598fbc93be7d26a92b6746a")
        assert decode_spec("I", "grid", None, None).fingerprint() == (
            "dd10e4a92c99e2ce11eddf33854879f08826b4881e27b5255aa45b18e05cd901")

# -- the end-to-end symptom: checkpoint --resume ------------------------------

class TestCheckpointResumeAcceptsReorderedModels:
    def test_resume_with_key_reordered_frozen_delays(self, tmp_path):
        """A resume with the *same* delays dict built in a different
        insertion order must be accepted (it used to raise
        CheckpointMismatchError) and stay bit-identical."""
        netlist = benchmark_circuit("s27")
        delays = {g.name: 1.0 + 0.1 * i for i, g
                  in enumerate(netlist.combinational_gates)}
        directory = tmp_path / "ck"

        def mc(model, resume=False):
            return run_monte_carlo(
                netlist, CONFIG_I, 400, delay_model=model,
                rng=np.random.default_rng(11), mode="stream", shards=2,
                checkpoint=directory, resume=resume)

        first = mc(FrozenDelays(delays, 0.1))
        resumed = mc(FrozenDelays(_reordered(delays), 0.1), resume=True)
        for net in first.nets:
            a, b = first.accumulator(net), resumed.accumulator(net)
            assert (a.n_trials, a.n_one) == (b.n_trials, b.n_one)
            assert a.rise.mean == b.rise.mean
            assert a.fall.mean == b.fall.mean

    def test_genuinely_different_model_still_rejected(self, tmp_path):
        from repro.sim.checkpoint import CheckpointMismatchError

        netlist = benchmark_circuit("s27")
        delays = {g.name: 1.0 for g in netlist.combinational_gates}
        directory = tmp_path / "ck"

        def mc(model, resume=False):
            return run_monte_carlo(
                netlist, CONFIG_I, 400, delay_model=model,
                rng=np.random.default_rng(11), mode="stream", shards=2,
                checkpoint=directory, resume=resume)

        mc(FrozenDelays(delays, 0.1))
        with pytest.raises(CheckpointMismatchError):
            mc(FrozenDelays({**delays, "G14": 2.0}, 0.1), resume=True)


# -- value_fingerprint building blocks ---------------------------------------

class TestCanonicalForm:
    def test_ndarray_hashed_by_content(self):
        a = np.arange(6, dtype=np.float64)
        b = np.arange(6, dtype=np.float64)
        assert value_fingerprint(a) == value_fingerprint(b)
        assert value_fingerprint(a) != value_fingerprint(a[::-1].copy())
        assert value_fingerprint(a) != value_fingerprint(
            a.astype(np.float32))

    def test_numpy_scalars_collapse_to_python_values(self):
        assert canonical_form(np.float64(1.5)) == 1.5
        assert canonical_form(np.int64(3)) == 3

    def test_sets_are_order_free(self):
        assert value_fingerprint({"x", "y", "z"}) == value_fingerprint(
            {"z", "x", "y"})

    def test_nested_mappings_canonicalize_recursively(self):
        a = {"outer": {"k1": 1.0, "k2": 2.0}}
        b = {"outer": {"k2": 2.0, "k1": 1.0}}
        assert value_fingerprint(a) == value_fingerprint(b)
