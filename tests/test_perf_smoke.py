"""Performance smoke tests (CI's ``perf-smoke`` job, ``-m perf_smoke``).

Kept deliberately coarse — CI runners are noisy, so thresholds are a
fraction of the locally measured margins (the real numbers live in
``benchmarks/results/spsta_speedup.txt``).  The whole module must finish
well under a minute.
"""

from __future__ import annotations

import time

import pytest

from repro.core.delay import NormalDelay
from repro.core.inputs import CONFIG_I
from repro.core.profiling import SpstaProfile
from repro.core.spsta import GridAlgebra, run_spsta
from repro.netlist.benchmarks import benchmark_circuit
from repro.stats.grid import TimeGrid

pytestmark = pytest.mark.perf_smoke

GRID = TimeGrid(-8.0, 60.0, 2048)
DELAY = NormalDelay(1.0, 0.1)


def _timed(netlist, engine):
    profile = SpstaProfile()
    t0 = time.perf_counter()
    run_spsta(netlist, CONFIG_I, DELAY, GridAlgebra(GRID), engine=engine,
              profile=profile)
    return time.perf_counter() - t0, profile


def test_fast_grid_engine_beats_naive_on_s1196():
    """The headline claim at smoke scale: the fast grid engine clearly
    outruns the reference on a mid-size circuit.  The fast engine runs
    first so same-process memory pressure can only penalize the naive
    side — the asserted direction is unaffected.
    """
    netlist = benchmark_circuit("s1196")
    fast_seconds, profile = _timed(netlist, "fast")
    naive_seconds, _ = _timed(netlist, "naive")
    speedup = naive_seconds / fast_seconds
    assert speedup >= 1.5, (
        f"fast grid engine only {speedup:.2f}x faster than naive on s1196 "
        f"({fast_seconds:.2f}s vs {naive_seconds:.2f}s)")
    assert fast_seconds < 30.0
    # The run must have actually gone through the optimized machinery.
    assert profile.fft_convolutions > 0
    assert profile.kernel_cache_hits > 0
    assert profile.weight_table_hits > 0


def test_fast_engine_matches_naive_with_populated_profile():
    """Smoke-scale equivalence: fast ≡ naive (bit-exact moments) on a
    small bench, with the fast profile's counters populated (a moment
    run on the fast engine is the naive sweep, so its counters are the
    sweep's own)."""
    netlist = benchmark_circuit("s298")
    profile = SpstaProfile()
    fast = run_spsta(netlist, CONFIG_I, DELAY, engine="fast",
                     profile=profile)
    naive = run_spsta(netlist, CONFIG_I, DELAY, engine="naive")
    for net in naive.tops:
        for direction in ("rise", "fall"):
            a = getattr(fast.tops[net], direction)
            b = getattr(naive.tops[net], direction)
            assert a.weight == b.weight, (net, direction)
            if b.occurs:
                assert (fast.algebra.stats(a.conditional)
                        == naive.algebra.stats(b.conditional)), \
                    (net, direction)
    assert profile.gates_processed == len(list(netlist.combinational_gates))
    assert profile.subset_terms > 0
    assert (profile.subset_terms, profile.gates_processed) == (
        naive.profile.subset_terms, naive.profile.gates_processed)
    assert sum(profile.phase_seconds.values()) > 0.0


def test_fast_moment_engine_is_quick_on_s9234():
    """A moment run on the fast engine (the naive sweep) covers the
    largest bundled bench in well under a second locally; a generous
    lid catches gross regressions (accidental quadratic rescans)."""
    netlist = benchmark_circuit("s9234")
    t0 = time.perf_counter()
    run_spsta(netlist, CONFIG_I, DELAY, engine="fast")
    assert time.perf_counter() - t0 < 10.0


def test_incremental_update_fast_on_deep_wide_cone():
    """The incremental worklist pops via a topological-rank heap; on a
    deep, wide fanout cone the old min-over-set scan cost O(cone x
    frontier).  Smoke bound: a ~1.8k-gate cone repairs in well under a
    second even on a noisy runner."""
    from repro.core.incremental import IncrementalSsta
    from repro.logic.gates import GateType
    from repro.netlist.core import Gate, Netlist
    from repro.stats.normal import Normal

    width, depth = 150, 60
    gates = [Gate(f"g0_{w}", GateType.AND,
                  (f"a{w % 4}", f"a{(w + 1) % 4}")) for w in range(width)]
    for level in range(1, depth):
        gates.extend(
            Gate(f"g{level}_{w}", GateType.AND,
                 (f"g{level - 1}_{w}", f"g{level - 1}_{(w + 1) % width}"))
            for w in range(width))
    netlist = Netlist("lattice", [f"a{i}" for i in range(4)],
                      [f"g{depth - 1}_{w}" for w in range(width)], gates)
    inc = IncrementalSsta(netlist)
    t0 = time.perf_counter()
    stats = inc.set_delay("g0_0", Normal(25.0, 2.0))
    seconds = time.perf_counter() - t0
    # The fanout wedge of g0_0 grows one column per level: a triangle.
    assert stats.cone_size == depth * (depth + 1) // 2
    assert stats.recomputed == stats.cone_size  # each gate exactly once
    assert seconds < 2.0, (
        f"incremental update took {seconds:.2f}s on a "
        f"{stats.cone_size}-gate cone")
    # Re-setting the same delay terminates at the unchanged source gate.
    again = inc.set_delay("g0_0", Normal(25.0, 2.0))
    assert again.recomputed == 1
