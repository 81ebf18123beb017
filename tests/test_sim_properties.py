"""Property-based tests over random circuits (hypothesis).

Two engine-correctness properties, each exercised on seeded
:mod:`repro.netlist.generator` circuits so gate-type mixes, fan-ins and
topologies vary beyond the hand-picked benchmarks:

1. The vectorized engine agrees with the scalar event simulator
   (:mod:`repro.sim.reference`) per trial, on every net.
2. Sharded streaming runs with the same root seed produce identical
   merged statistics for any worker count.
"""

from hypothesis import given, settings, strategies as st
import numpy as np
import pytest

from repro.core.delay import NormalDelay, UnitDelay
from repro.core.inputs import CONFIG_I, CONFIG_II
from repro.logic.fourvalue import from_bits
from repro.netlist.generator import GeneratorProfile, generate_circuit
from repro.sim.montecarlo import run_monte_carlo
from repro.sim.reference import simulate_trial
from repro.sim.sampler import sample_launch_points


def _random_circuit(seed: int, n_gates: int = 25, xor_fraction: float = 0.2):
    return generate_circuit(GeneratorProfile(
        name=f"prop{seed}", n_inputs=5, n_outputs=3, n_dffs=2,
        n_gates=n_gates, depth=5, seed=seed, xor_fraction=xor_fraction))


def _scalar_states(netlist, samples, trial):
    launch = {}
    for net, wave in samples.items():
        symbol = from_bits(int(wave.init[trial]), int(wave.final[trial]))
        t = wave.time[trial]
        launch[net] = (symbol, None if np.isnan(t) else float(t))
    return simulate_trial(netlist, launch, UnitDelay())


@settings(max_examples=12, deadline=None)
@given(seed=st.integers(0, 10_000),
       config=st.sampled_from([CONFIG_I, CONFIG_II]))
def test_vectorized_matches_reference_per_trial(seed, config):
    netlist = _random_circuit(seed)
    n_trials = 40
    samples = sample_launch_points(netlist, config, n_trials,
                                   np.random.default_rng(seed))
    stream = run_monte_carlo(netlist, config, n_trials, samples=samples,
                             mode="stream", keep_nets=list(netlist.nets))
    for trial in range(n_trials):
        scalar = _scalar_states(netlist, samples, trial)
        for net, (symbol, t) in scalar.items():
            wave = stream.wave(net)
            got = from_bits(int(wave.init[trial]), int(wave.final[trial]))
            assert got is symbol, (net, trial, got, symbol)
            if t is None:
                assert np.isnan(wave.time[trial]), (net, trial)
            else:
                assert wave.time[trial] == pytest.approx(t), (net, trial)


@settings(max_examples=8, deadline=None)
@given(seed=st.integers(0, 10_000), shards=st.sampled_from([2, 3, 4]))
def test_worker_count_invariance(seed, shards):
    netlist = _random_circuit(seed, n_gates=15)
    results = [
        run_monte_carlo(netlist, CONFIG_I, 600, NormalDelay(1.0, 0.15),
                        rng=np.random.default_rng(seed), mode="stream",
                        shards=shards, workers=workers)
        for workers in (1, 2, 4)]
    baseline = results[0]
    for other in results[1:]:
        for net in baseline.nets:
            assert other.accumulator(net) == baseline.accumulator(net), net


@settings(max_examples=8, deadline=None)
@given(seed=st.integers(0, 10_000))
def test_stream_accessors_match_waves_on_random_circuits(seed):
    netlist = _random_circuit(seed, n_gates=20, xor_fraction=0.3)
    samples = sample_launch_points(netlist, CONFIG_I, 300,
                                   np.random.default_rng(seed))
    waves = run_monte_carlo(netlist, CONFIG_I, 300, samples=samples,
                            rng=np.random.default_rng(seed + 1))
    stream = run_monte_carlo(netlist, CONFIG_I, 300, samples=samples,
                             rng=np.random.default_rng(seed + 1),
                             mode="stream")
    for net in waves.nets:
        assert stream.signal_probability(net) == waves.signal_probability(net)
        assert stream.toggling_rate(net) == waves.toggling_rate(net)
        for direction in ("rise", "fall"):
            a = waves.direction_stats(net, direction)
            b = stream.direction_stats(net, direction)
            assert (a.probability, a.n_occurrences) == \
                (b.probability, b.n_occurrences)
            if a.n_occurrences:
                assert a.mean == b.mean and a.std == b.std
