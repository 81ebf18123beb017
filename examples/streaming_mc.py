"""Streaming Monte Carlo: sharded, memory-bounded trial simulation.

Every run folds each net's wave into O(1) sufficient statistics
(occurrence counts, arrival mean/variance, signal-probability and
toggling tallies) with one gate kernel and returns a ``StreamResult``.
The default ``mode="waves"`` is one shard that also keeps every net's
per-trial arrays — O(nets x trials) memory — which is what you want for
waveform inspection but caps how far the trusted Monte Carlo reference
scales.  ``mode="stream"`` retires each wave the moment its last
consumer has read it, and can split the trial budget into independently
seeded shards executed on a process pool.

Run:  PYTHONPATH=src python examples/streaming_mc.py
"""

import numpy as np

from repro.core.inputs import CONFIG_I
from repro.netlist.benchmarks import benchmark_circuit
from repro.sim import run_monte_carlo, sample_launch_points

netlist = benchmark_circuit("s1196")

# --- 1. Streaming run: statistics for every net, no retained waves. -------
stream = run_monte_carlo(netlist, CONFIG_I, n_trials=10_000,
                         rng=np.random.default_rng(0), mode="stream")
rise = stream.direction_stats(netlist.endpoints[0], "rise")
print(f"{netlist.name}: P(rise)={rise.probability:.3f} "
      f"arrival ~ ({rise.mean:.2f}, {rise.std:.2f})")
print(stream.summary())  # per-shard timing / peak-wave-memory counters

# --- 2. Sharded + parallel: same root seed => identical statistics. -------
# Shard streams come from SeedSequence.spawn, so the merged result depends
# only on (root seed, shard count) — never on the worker count.
a = run_monte_carlo(netlist, CONFIG_I, 10_000, rng=np.random.default_rng(7),
                    mode="stream", shards=8, workers=1)
b = run_monte_carlo(netlist, CONFIG_I, 10_000, rng=np.random.default_rng(7),
                    mode="stream", shards=8, workers=4)
net = netlist.endpoints[0]
assert a.accumulator(net) == b.accumulator(net)
print(f"workers=1 and workers=4 agree exactly on {net}")

# --- 3. One-shard streaming is bit-exact against mode="waves". -----------
# Both modes run the same kernel on the same draws; waves mode keeps every
# net's waveform, stream mode only the nets named in keep_nets.
samples = sample_launch_points(netlist, CONFIG_I, 2000,
                               np.random.default_rng(1))
waves = run_monte_carlo(netlist, CONFIG_I, 2000, samples=samples)
st = run_monte_carlo(netlist, CONFIG_I, 2000, samples=samples, mode="stream",
                     keep_nets=[net])  # keep_nets retains chosen waveforms
assert st.direction_stats(net, "fall") == waves.direction_stats(net, "fall")
assert np.array_equal(st.wave(net).time, waves.wave(net).time,
                      equal_nan=True)
# The statistics are plain numpy summaries of the kept waves.
wave = waves.wave(net)
assert waves.toggling_rate(net) == (wave.init != wave.final).mean()
print("single-shard streaming matches mode='waves' bit for bit")
