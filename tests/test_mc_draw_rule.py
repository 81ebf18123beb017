"""The Monte Carlo delay draw rule.

A gate's delay only moves a trial where its output switches, so the
engine evaluates every gate at its mean delay and draws one standard
normal per *switching* trial: ``sigma * z`` for a plain model,
``mu_k + sigma_k * z`` for a MIS-aware one (k switching inputs).  These
tests pin how many normals the delay stream consumes, that the drawn
delays have the model's distribution, and that checkpoints written under
the earlier per-gate-per-trial rule are refused rather than merged.
"""

from __future__ import annotations

import dataclasses
import json
import math

import numpy as np
import pytest

from repro.core.delay import MisDelay, NormalDelay, UnitDelay
from repro.core.inputs import CONFIG_I, InputStats, Prob4
from repro.logic.gates import GateType
from repro.netlist.benchmarks import benchmark_circuit
from repro.netlist.core import Gate, Netlist
from repro.sim.checkpoint import CheckpointKey, CheckpointMismatchError
from repro.sim.montecarlo import run_monte_carlo
from repro.sim.sampler import sample_launch_points
from repro.stats.normal import Normal


def delay_normals(netlist, stats, n_trials, delay_model, seed):
    """Run one seeded shard; return how many normals its delay stream
    consumed after the launch draws.

    That count must be the number of gate-trials whose output switches:
    a reference generator advanced by the launch draws plus that many
    normals has to land on the run's generator state.
    """
    rng = np.random.default_rng(seed)
    result = run_monte_carlo(netlist, stats, n_trials, delay_model,
                             rng=rng, mode="stream")
    normals = sum(result.accumulator(g.name).rise.count
                  + result.accumulator(g.name).fall.count
                  for g in netlist.combinational_gates)
    reference = np.random.default_rng(seed)
    sample_launch_points(netlist, stats, n_trials, reference)
    reference.standard_normal(normals)
    assert reference.bit_generator.state == rng.bit_generator.state
    return normals


def _chain(depth):
    gates = [Gate(f"n{i}", GateType.BUFF, (f"n{i - 1}" if i else "a",))
             for i in range(depth)]
    return Netlist(f"buff{depth}", ["a"], [f"n{depth - 1}"], gates)


class TestDelayStream:
    @pytest.mark.parametrize("circuit,model", [
        ("s27", NormalDelay(1.0, 0.1)),
        ("s298", NormalDelay(1.0, 0.1)),
        ("s27", MisDelay(sigma=0.1)),
    ], ids=["s27", "s298", "s27-mis"])
    def test_consumes_one_normal_per_switching_trial(self, circuit, model):
        netlist = benchmark_circuit(circuit)
        normals = delay_normals(netlist, CONFIG_I, 2_000, model, seed=3)
        assert 0 < normals < 2_000 * len(netlist.combinational_gates)

    @pytest.mark.perf_smoke
    def test_s9234_draws_under_a_third_of_gate_trials(self):
        """The cost model behind the draw rule, as a deterministic count:
        on s9234 under CONFIG I at most 0.3 delay normals per gate-trial
        (about 0.22 switch), where the per-trial rule drew 1.0."""
        netlist = benchmark_circuit("s9234")
        n_trials = 5_000
        normals = delay_normals(netlist, CONFIG_I, n_trials,
                                NormalDelay(1.0, 0.1), seed=0)
        gate_trials = n_trials * len(netlist.combinational_gates)
        assert normals <= 0.3 * gate_trials, normals / gate_trials

    @pytest.mark.parametrize("model", [UnitDelay(), NormalDelay(1.0, 0.0),
                                       MisDelay(sigma=0.0)],
                             ids=["unit", "normal-sigma-0", "mis-sigma-0"])
    def test_sigma_0_model_draws_nothing(self, model):
        netlist = benchmark_circuit("s27")
        rng = np.random.default_rng(5)
        run_monte_carlo(netlist, CONFIG_I, 1_000, model, rng=rng,
                        mode="stream")
        reference = np.random.default_rng(5)
        sample_launch_points(netlist, CONFIG_I, 1_000, reference)
        assert reference.bit_generator.state == rng.bit_generator.state


class TestDelayDistribution:
    @pytest.mark.parametrize("depth", [1, 4, 16])
    def test_buff_chain_arrival_sums_the_gate_delays(self, depth):
        """Every BUFF switches with its input, so the endpoint arrival of
        a switching trial is the launch time plus ``depth`` independent
        N(mu, sigma^2) delays."""
        mu, sigma, n = 1.0, 0.25, 20_000
        stats = InputStats(Prob4(0.0, 0.0, 1.0, 0.0),
                           rise_arrival=Normal(0.0, 0.0))
        result = run_monte_carlo(_chain(depth), stats, n,
                                 NormalDelay(mu, sigma),
                                 rng=np.random.default_rng(depth))
        rise = result.direction_stats(f"n{depth - 1}", "rise")
        assert rise.n_occurrences == n
        std = math.sqrt(depth) * sigma
        assert abs(rise.mean - depth * mu) <= 6 * std / math.sqrt(n)
        assert abs(rise.std - std) <= 6 * std / math.sqrt(2 * n)

    def test_mis_and_gets_per_k_delays(self):
        """On a 2-input AND, a trial where one input switches (the other
        held at one) takes the k=1 delay and one where both switch takes
        the k=2 delay: exactly at sigma 0, in distribution otherwise."""
        gate = Gate("y", GateType.AND, ("a", "b"))
        netlist = Netlist("and2", ["a", "b"], ["y"], [gate])
        stats = InputStats(Prob4(0.0, 0.5, 0.5, 0.0),
                           rise_arrival=Normal(0.0, 0.0))
        n = 20_000
        for sigma in (0.0, 0.2):
            model = MisDelay(base=1.0, speedup=0.3, sigma=sigma)
            result = run_monte_carlo(netlist, stats, n, model,
                                     rng=np.random.default_rng(6))
            a, b, y = (result.wave(net) for net in ("a", "b", "y"))
            ks = (a.init != a.final).astype(int) + (b.init != b.final)
            rising = y.final > y.init
            for k in (1, 2):
                times = y.time[rising & (ks == k)]
                expected = model.delay_mis(gate, k)
                assert times.size > n // 5
                if sigma == 0.0:
                    assert np.all(times == expected.mu)
                else:
                    bar = 6 * expected.sigma / math.sqrt(times.size)
                    assert abs(times.mean() - expected.mu) <= bar
                    assert abs(times.std() - expected.sigma) <= (
                        6 * expected.sigma / math.sqrt(2 * times.size))


class TestCheckpointDrawRule:
    def test_directory_of_the_old_rule_is_refused(self, tmp_path):
        """A marker written before the key recorded the draw rule (shards
        of the per-gate-per-trial stream) must not resume."""
        netlist = benchmark_circuit("s27")
        seed = np.random.default_rng(7).bit_generator.seed_seq
        key = CheckpointKey.build(netlist, CONFIG_I, UnitDelay(), seed,
                                  800, 4)
        old_key = dataclasses.asdict(key)
        del old_key["draw_rule"]
        directory = tmp_path / "ck"
        directory.mkdir()
        (directory / "manifest.json").write_text(json.dumps({
            "format": "spsta-mc-checkpoint", "version": 2,
            "key": old_key}))
        with pytest.raises(CheckpointMismatchError, match="draw_rule"):
            run_monte_carlo(netlist, CONFIG_I, 800,
                            rng=np.random.default_rng(7), mode="stream",
                            shards=4, checkpoint=directory, resume=True)
