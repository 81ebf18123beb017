"""Tests for repro.sim.montecarlo — vectorized engine vs the scalar oracle.

The load-bearing test here is trial-for-trial equivalence: both engines
consume the same launch samples, so every (symbol, time) pair must match
exactly on every trial, for every gate type, on every benchmark topology.
"""

import numpy as np
import pytest

from repro.core.delay import UnitDelay
from repro.core.inputs import CONFIG_I, CONFIG_II, InputStats, Prob4
from repro.logic.fourvalue import from_bits
from repro.netlist.benchmarks import benchmark_circuit
from repro.sim.montecarlo import run_monte_carlo
from repro.sim.reference import simulate_trial
from repro.sim.sampler import sample_launch_points


def _scalar_states(netlist, samples, trial, delay_model=UnitDelay()):
    launch = {}
    for net, wave in samples.items():
        symbol = from_bits(int(wave.init[trial]), int(wave.final[trial]))
        t = wave.time[trial]
        launch[net] = (symbol, None if np.isnan(t) else float(t))
    return simulate_trial(netlist, launch, delay_model)


def _assert_equivalent(netlist, config, n_trials=300, seed=0):
    rng = np.random.default_rng(seed)
    samples = sample_launch_points(netlist, config, n_trials, rng)
    mc = run_monte_carlo(netlist, config, n_trials, samples=samples)
    for trial in range(n_trials):
        scalar = _scalar_states(netlist, samples, trial)
        for net, (symbol, t) in scalar.items():
            wave = mc.wave(net)
            got = from_bits(int(wave.init[trial]), int(wave.final[trial]))
            assert got is symbol, (net, trial, got, symbol)
            if t is None:
                assert np.isnan(wave.time[trial]), (net, trial)
            else:
                assert wave.time[trial] == pytest.approx(t), (net, trial)


class TestTrialForTrialEquivalence:
    def test_mixed_gate_types(self, mixed_circuit):
        _assert_equivalent(mixed_circuit, CONFIG_I)

    def test_mixed_config_ii(self, mixed_circuit):
        _assert_equivalent(mixed_circuit, CONFIG_II)

    def test_s27(self):
        _assert_equivalent(benchmark_circuit("s27"), CONFIG_I)

    def test_s298_sampled_trials(self):
        _assert_equivalent(benchmark_circuit("s298"), CONFIG_I, n_trials=60)

    def test_s1196_with_parity_gates(self):
        _assert_equivalent(benchmark_circuit("s1196"), CONFIG_I, n_trials=25)


class TestSampler:
    def test_category_frequencies(self, and2_circuit, rng):
        samples = sample_launch_points(and2_circuit, CONFIG_II, 100_000, rng)
        wave = samples["a"]
        p_one = (wave.init & wave.final).mean()
        p_rise = (~wave.init & wave.final).mean()
        assert p_one == pytest.approx(0.15, abs=0.01)
        assert p_rise == pytest.approx(0.02, abs=0.005)

    def test_arrival_times_standard_normal(self, and2_circuit, rng):
        samples = sample_launch_points(and2_circuit, CONFIG_I, 100_000, rng)
        wave = samples["a"]
        times = wave.time[~np.isnan(wave.time)]
        assert times.mean() == pytest.approx(0.0, abs=0.02)
        assert times.std() == pytest.approx(1.0, abs=0.02)

    def test_no_time_without_transition(self, and2_circuit, rng):
        samples = sample_launch_points(and2_circuit, CONFIG_I, 10_000, rng)
        wave = samples["a"]
        static = wave.init == wave.final
        assert np.isnan(wave.time[static]).all()
        assert not np.isnan(wave.time[~static]).any()

    def test_rejects_zero_trials(self, and2_circuit, rng):
        with pytest.raises(ValueError):
            sample_launch_points(and2_circuit, CONFIG_I, 0, rng)

    def test_custom_arrival_distributions(self, and2_circuit, rng):
        stats = InputStats(Prob4(0.0, 0.0, 1.0, 0.0),
                           rise_arrival=__import__(
                               "repro.stats.normal",
                               fromlist=["Normal"]).Normal(5.0, 0.1))
        samples = sample_launch_points(and2_circuit, stats, 1000, rng)
        times = samples["a"].time
        assert times.mean() == pytest.approx(5.0, abs=0.02)


class TestMonteCarloResult:
    """Accessors of the result every ``run_monte_carlo`` call returns
    (:class:`~repro.sim.montecarlo.StreamResult`), default mode."""

    def test_direction_stats_probabilities_sum(self, and2_circuit, rng):
        mc = run_monte_carlo(and2_circuit, CONFIG_I, 20_000, rng=rng)
        rise = mc.direction_stats("y", "rise")
        fall = mc.direction_stats("y", "fall")
        # AND of uniform inputs: Pr = Pf = 3/16.
        assert rise.probability == pytest.approx(3 / 16, abs=0.01)
        assert fall.probability == pytest.approx(3 / 16, abs=0.01)

    def test_direction_stats_rejects_bad_direction(self, and2_circuit, rng):
        mc = run_monte_carlo(and2_circuit, CONFIG_I, 100, rng=rng)
        with pytest.raises(ValueError):
            mc.direction_stats("y", "sideways")

    def test_no_occurrence_gives_nan(self, and2_circuit, rng):
        static = InputStats(Prob4.static(0.5))
        mc = run_monte_carlo(and2_circuit, static, 500, rng=rng)
        stats = mc.direction_stats("y", "rise")
        assert stats.probability == 0.0
        assert np.isnan(stats.mean)

    def test_signal_probability_estimate(self, and2_circuit, rng):
        mc = run_monte_carlo(and2_circuit, CONFIG_I, 50_000, rng=rng)
        # AND of two 0.5-signal-probability inputs: time-average P1(y):
        # P1 + (Pr + Pf)/2 = 1/16 + 3/16 = 0.25.
        assert mc.signal_probability("y") == pytest.approx(0.25, abs=0.01)

    def test_toggling_rate_estimate(self, and2_circuit, rng):
        mc = run_monte_carlo(and2_circuit, CONFIG_I, 50_000, rng=rng)
        assert mc.toggling_rate("y") == pytest.approx(6 / 16, abs=0.01)

    def test_gaussian_delay_model_adds_spread(self, chain_circuit, rng):
        from repro.core.delay import NormalDelay
        mc = run_monte_carlo(chain_circuit, CONFIG_I, 50_000,
                             delay_model=NormalDelay(1.0, 0.3), rng=rng)
        stats = mc.direction_stats("n3", "rise")
        # Input sigma 1 plus 3 gates of sigma 0.3: sqrt(1 + 3*0.09).
        assert stats.std == pytest.approx(np.sqrt(1.27), abs=0.02)

    def test_reproducible_with_seeded_rng(self, mixed_circuit):
        a = run_monte_carlo(mixed_circuit, CONFIG_I, 500,
                            rng=np.random.default_rng(77))
        b = run_monte_carlo(mixed_circuit, CONFIG_I, 500,
                            rng=np.random.default_rng(77))
        for net in mixed_circuit.nets:
            assert np.array_equal(a.wave(net).final, b.wave(net).final)

    def test_nets_listed(self, and2_circuit, rng):
        mc = run_monte_carlo(and2_circuit, CONFIG_I, 10, rng=rng)
        assert set(mc.nets) == {"a", "b", "y"}
