"""Tests for the streaming Monte Carlo mode.

The load-bearing test is the differential one: on the same launch draws
with ``shards=1``, every accessor of a ``mode="waves"`` run (which keeps
every wave) and of a ``mode="stream"`` run (which keeps almost none) must
be *bit-exact* equal to the direct numpy summary of the kept waves — that
is what licenses dropping the waves.  The second pillar is seeding: the
same root seed must give identical merged statistics at any worker count.
"""

import math

import numpy as np
import pytest

from repro.core.delay import MisDelay, NormalDelay, UnitDelay
from repro.core.inputs import CONFIG_I, CONFIG_II
from repro.netlist.benchmarks import benchmark_circuit
from repro.sim.montecarlo import StreamResult, run_monte_carlo
from repro.sim.parallel import plan_shards, run_shards
from repro.sim.sampler import sample_launch_points


def _direct_stats(wave, direction, n_trials):
    """(P, mean, std, occurrences) of one direction, straight from a kept
    wave with numpy — independent of the accumulators."""
    if direction == "rise":
        mask = ~wave.init & wave.final
    else:
        mask = wave.init & ~wave.final
    count = int(mask.sum())
    if count == 0:
        return count / n_trials, math.nan, math.nan, 0
    times = wave.time[mask]
    return count / n_trials, float(times.mean()), float(times.std()), count


def _assert_bit_exact(netlist, config, delay_model, n_trials=1500, seed=11):
    samples = sample_launch_points(netlist, config, n_trials,
                                   np.random.default_rng(seed))
    keep = list(netlist.endpoints)[:2]
    wav = run_monte_carlo(netlist, config, n_trials, delay_model,
                          rng=np.random.default_rng(seed + 1),
                          samples=samples)
    st = run_monte_carlo(netlist, config, n_trials, delay_model,
                         rng=np.random.default_rng(seed + 1),
                         samples=samples, mode="stream", keep_nets=keep)
    assert isinstance(st, StreamResult)
    assert set(st.nets) == set(wav.nets) == set(netlist.nets)
    for net in wav.nets:
        wave = wav.wave(net)
        signal = float((wave.init.astype(float) + wave.final.astype(float))
                       .mean() / 2.0)
        toggling = float((wave.init != wave.final).mean())
        for result in (wav, st):
            assert result.signal_probability(net) == signal, net
            assert result.toggling_rate(net) == toggling, net
            for direction in ("rise", "fall"):
                p, mean, std, count = _direct_stats(wave, direction,
                                                    n_trials)
                got = result.direction_stats(net, direction)
                assert got.probability == p, (net, direction)
                assert got.n_occurrences == count, (net, direction)
                if count == 0:
                    assert np.isnan(got.mean) and np.isnan(got.std)
                else:
                    assert got.mean == mean, (net, direction)
                    assert got.std == std, (net, direction)
    for net in keep:
        kept, full = st.wave(net), wav.wave(net)
        assert np.array_equal(kept.init, full.init)
        assert np.array_equal(kept.final, full.final)
        assert np.array_equal(kept.time, full.time, equal_nan=True)


class TestDifferentialBitExact:
    def test_s298_unit_delay(self):
        _assert_bit_exact(benchmark_circuit("s298"), CONFIG_I, UnitDelay())

    def test_s298_gaussian_delay(self):
        _assert_bit_exact(benchmark_circuit("s298"), CONFIG_I,
                          NormalDelay(1.0, 0.2))

    def test_s298_mis_aware_delay(self):
        _assert_bit_exact(benchmark_circuit("s298"), CONFIG_I,
                          MisDelay(sigma=0.1))

    def test_s526_config_ii(self):
        _assert_bit_exact(benchmark_circuit("s526"), CONFIG_II,
                          NormalDelay(1.0, 0.1))

    def test_mixed_gate_types(self, mixed_circuit):
        _assert_bit_exact(mixed_circuit, CONFIG_I, UnitDelay())


class TestWorkerInvariance:
    def test_same_seed_same_statistics_any_worker_count(self):
        netlist = benchmark_circuit("s298")
        results = {
            workers: run_monte_carlo(
                netlist, CONFIG_I, 2000, NormalDelay(1.0, 0.1),
                rng=np.random.default_rng(42), mode="stream",
                shards=4, workers=workers)
            for workers in (1, 2, 4)}
        baseline = results[1]
        for workers in (2, 4):
            other = results[workers]
            for net in baseline.nets:
                assert other.accumulator(net) == baseline.accumulator(net), \
                    (net, workers)

    def test_different_shard_counts_differ(self):
        # Sanity check that the invariance above is not vacuous: changing
        # the *shard* count changes the draws (documented semantics).
        netlist = benchmark_circuit("s27")
        one = run_monte_carlo(netlist, CONFIG_I, 2000, rng=np.random.
                              default_rng(5), mode="stream", shards=1)
        four = run_monte_carlo(netlist, CONFIG_I, 2000, rng=np.random.
                               default_rng(5), mode="stream", shards=4)
        assert any(one.accumulator(n) != four.accumulator(n)
                   for n in one.nets)

    def test_shard_reports_cover_all_trials(self):
        st = run_monte_carlo(benchmark_circuit("s27"), CONFIG_I, 1001,
                             rng=np.random.default_rng(0), mode="stream",
                             shards=3)
        assert sum(r.n_trials for r in st.shard_reports) == 1001
        assert len(st.shard_reports) == 3
        assert st.total_seconds > 0.0
        assert "shard 2" in st.summary()


class TestStreamBehavior:
    def test_memory_bounded_below_full_waves(self):
        netlist = benchmark_circuit("s1196")
        n_trials = 2000
        st = run_monte_carlo(netlist, CONFIG_I, n_trials,
                             rng=np.random.default_rng(1), mode="stream")
        # A full wave set holds init+final+time (1+1+8 bytes) per net per
        # trial; the streaming peak must be well below it.
        full_bytes = len(netlist.nets) * n_trials * 10
        assert 0 < st.peak_wave_bytes < full_bytes / 2

    def test_wave_access_requires_keep(self):
        st = run_monte_carlo(benchmark_circuit("s27"), CONFIG_I, 100,
                             rng=np.random.default_rng(0), mode="stream")
        with pytest.raises(KeyError, match="keep_nets"):
            st.wave("G17")

    def test_unknown_keep_net_rejected(self):
        with pytest.raises(ValueError, match="unknown nets"):
            run_monte_carlo(benchmark_circuit("s27"), CONFIG_I, 100,
                            rng=np.random.default_rng(0), mode="stream",
                            keep_nets=["nope"])

    def test_unknown_mode_rejected(self, and2_circuit):
        with pytest.raises(ValueError, match="mode"):
            run_monte_carlo(and2_circuit, CONFIG_I, 10, mode="turbo")

    def test_stream_args_rejected_in_waves_mode(self, and2_circuit):
        with pytest.raises(ValueError, match="stream"):
            run_monte_carlo(and2_circuit, CONFIG_I, 10, shards=4)

    @pytest.mark.parametrize("n_trials", [100, 0])
    @pytest.mark.parametrize("mode", ["waves", "stream"])
    def test_sample_length_mismatch_rejected(self, and2_circuit, rng, mode,
                                             n_trials):
        """Samples holding 50 trials cannot back a run of any other
        length: the statistics would be taken over the wrong
        denominator."""
        samples = sample_launch_points(and2_circuit, CONFIG_I, 50, rng)
        with pytest.raises(ValueError, match="trials"):
            run_monte_carlo(and2_circuit, CONFIG_I, n_trials,
                            samples=samples, mode=mode)

    def test_kept_waves_concatenate_across_shards(self, chain_circuit):
        samples = sample_launch_points(chain_circuit, CONFIG_I, 400,
                                       np.random.default_rng(9))
        wav = run_monte_carlo(chain_circuit, CONFIG_I, 400, samples=samples,
                              rng=np.random.default_rng(2))
        st = run_monte_carlo(chain_circuit, CONFIG_I, 400, samples=samples,
                             rng=np.random.default_rng(2), mode="stream",
                             shards=4, keep_nets=["n3"])
        got, want = st.wave("n3"), wav.wave("n3")
        assert got.n_trials == 400
        assert np.array_equal(got.init, want.init)
        assert np.array_equal(got.time, want.time, equal_nan=True)


class TestShardScheduler:
    def test_plan_sizes_and_offsets(self):
        plans = plan_shards(10, 3, np.random.default_rng(0))
        assert [p.n_trials for p in plans] == [4, 3, 3]
        assert [p.offset for p in plans] == [0, 4, 7]
        assert all(p.seed is not None for p in plans)

    def test_single_shard_borrows_caller_rng(self):
        (plan,) = plan_shards(10, 1, np.random.default_rng(0))
        assert plan.seed is None

    def test_shards_clamped_to_trials(self):
        plans = plan_shards(2, 8, np.random.default_rng(0))
        assert len(plans) == 2

    def test_invalid_counts_rejected(self):
        rng = np.random.default_rng(0)
        with pytest.raises(ValueError):
            plan_shards(0, 1, rng)
        with pytest.raises(ValueError):
            plan_shards(10, 0, rng)
        with pytest.raises(ValueError):
            run_shards(lambda x: x, [1], workers=0)

    def test_run_shards_preserves_order(self):
        assert run_shards(lambda x: x * x, [3, 1, 2]) == [9, 1, 4]

    def test_worker_exception_propagates_through_pool(self):
        # A bug in the worker must surface, not trigger a silent serial
        # rerun (the old fallback swallowed every pool.map exception).
        with pytest.raises(ValueError, match="worker bug on 2"):
            run_shards(_failing_worker, [1, 2, 3], workers=2)

    def test_worker_exception_propagates_serially(self):
        with pytest.raises(ValueError, match="worker bug on 2"):
            run_shards(_failing_worker, [1, 2, 3], workers=1)

    def test_unpicklable_worker_falls_back_serially(self, caplog):
        import logging

        # Lambdas cannot cross the pool boundary; the infrastructure
        # failure is logged and the workload reruns serially.
        with caplog.at_level(logging.WARNING, logger="repro.sim.parallel"):
            result = run_shards(lambda x: x + 1, [1, 2, 3], workers=2)
        assert result == [2, 3, 4]
        assert any("serially" in record.getMessage()
                   for record in caplog.records)


def _failing_worker(x):
    if x == 2:
        raise ValueError(f"worker bug on {x}")
    return x * 10


class TestWaveMemoryMeter:
    def test_peak_tracks_high_water_mark(self):
        from repro.sim.parallel import WaveMemoryMeter
        meter = WaveMemoryMeter()
        a = np.zeros(100, dtype=np.float64)
        b = np.zeros(50, dtype=np.float64)
        meter.allocated(a, b)
        meter.released(b)
        meter.allocated(b)
        assert meter.peak_bytes == a.nbytes + b.nbytes
        assert meter.live_bytes == a.nbytes + b.nbytes

    def test_double_release_raises_instead_of_going_negative(self):
        """Regression: a double release used to drive ``live_bytes``
        negative, silently corrupting every later peak reading."""
        from repro.sim.parallel import WaveMemoryMeter
        meter = WaveMemoryMeter()
        wave = np.zeros(10, dtype=np.float64)
        meter.allocated(wave)
        meter.released(wave)
        with pytest.raises(ValueError, match="double release"):
            meter.released(wave)
        assert meter.live_bytes == 0  # state unchanged by the bad call
