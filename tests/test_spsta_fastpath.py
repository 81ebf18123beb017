"""Differential tests pinning the fast SPSTA engine to the naive reference.

The fast engine must be a pure optimization: same inputs, same results.
The contract is graded per algebra:

- :class:`MomentAlgebra` / :class:`MixtureAlgebra` /
  :class:`CanonicalTopAlgebra`: bit-exact.  ``run_spsta`` runs the naive
  sweep for the closed-form algebras on either engine, so these tests pin
  that routing.
- :class:`GridAlgebra` (the compiled walker of
  :mod:`repro.core.spsta_fast`): equal within discretization rounding.
  Batched normalization, retention-vector pre-mixing, and FFT convolution
  reorder floating-point reductions, so weights are compared to 1e-12
  absolute (parity gates also sum 3^k instead of 4^k terms — a deliberate
  refactoring worth a ULP) and conditional moments to 1e-9 relative.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.delay import MisDelay, NormalDelay, UnitDelay
from repro.core.inputs import CONFIG_I, CONFIG_II
from repro.core.spsta import (
    GridAlgebra,
    MixtureAlgebra,
    MomentAlgebra,
    run_spsta,
)
from repro.core.spsta_canonical import CanonicalTopAlgebra
from repro.logic.gates import GateType
from repro.netlist.benchmarks import benchmark_circuit
from repro.netlist.core import Gate, Netlist
from repro.netlist.partition import partition_netlist, subnetlist
from repro.netlist.transform import decompose_fanin
from repro.stats.grid import TimeGrid
from repro.verify.policies import POLICIES

CIRCUITS = ("s27", "s298", "s386")
DELAYS = (UnitDelay(), NormalDelay(1.0, 0.1), MisDelay())
CONFIGS = {"I": CONFIG_I, "II": CONFIG_II}

GRID = TimeGrid(-8.0, 45.0, 2048)


def _both(netlist, config, delay, algebra_factory, **fast_kwargs):
    fast = run_spsta(netlist, config, delay, algebra_factory(),
                     engine="fast", **fast_kwargs)
    naive = run_spsta(netlist, config, delay, algebra_factory(),
                      engine="naive")
    assert set(fast.tops) == set(naive.tops)
    return fast, naive


def _assert_bitexact(fast, naive):
    """Closed-form algebras: weights and conditional stats must be equal
    to the last bit on every net and direction."""
    for net in naive.tops:
        assert fast.prob4[net] == naive.prob4[net], net
        for direction in ("rise", "fall"):
            a = getattr(fast.tops[net], direction)
            b = getattr(naive.tops[net], direction)
            assert a.weight == b.weight, (net, direction)
            assert a.occurs == b.occurs, (net, direction)
            if b.occurs:
                assert (fast.algebra.stats(a.conditional)
                        == naive.algebra.stats(b.conditional)), \
                    (net, direction)


def _assert_grid_close(fast, naive, weight_atol=1e-12, moment_rtol=1e-9):
    for net in naive.tops:
        for direction in ("rise", "fall"):
            a = getattr(fast.tops[net], direction)
            b = getattr(naive.tops[net], direction)
            assert a.weight == pytest.approx(b.weight, abs=weight_atol), \
                (net, direction)
            assert a.occurs == b.occurs, (net, direction)
            if b.occurs:
                mean_a, std_a = fast.algebra.stats(a.conditional)
                mean_b, std_b = naive.algebra.stats(b.conditional)
                assert mean_a == pytest.approx(mean_b, rel=moment_rtol), \
                    (net, direction)
                assert std_a == pytest.approx(std_b, rel=moment_rtol,
                                              abs=1e-12), (net, direction)


@pytest.mark.parametrize("config_name", CONFIGS)
@pytest.mark.parametrize("delay", DELAYS, ids=lambda d: type(d).__name__)
@pytest.mark.parametrize("circuit", CIRCUITS)
def test_moment_engine_bitexact(circuit, delay, config_name):
    netlist = benchmark_circuit(circuit)
    fast, naive = _both(netlist, CONFIGS[config_name], delay, MomentAlgebra)
    _assert_bitexact(fast, naive)


@pytest.mark.parametrize("delay", DELAYS, ids=lambda d: type(d).__name__)
def test_mixture_engine_bitexact(delay):
    netlist = benchmark_circuit("s298")
    fast, naive = _both(netlist, CONFIG_I, delay, MixtureAlgebra)
    _assert_bitexact(fast, naive)


@pytest.mark.parametrize("delay", DELAYS, ids=lambda d: type(d).__name__)
@pytest.mark.parametrize("circuit", CIRCUITS)
def test_canonical_engine_bitexact(circuit, delay):
    netlist = benchmark_circuit(circuit)
    fast, naive = _both(netlist, CONFIG_I, delay,
                        lambda: CanonicalTopAlgebra(netlist))
    _assert_bitexact(fast, naive)


@pytest.mark.parametrize("circuit,delay", [
    ("s27", NormalDelay(1.0, 0.1)),
    ("s27", UnitDelay()),
    ("s298", NormalDelay(1.0, 0.1)),
    ("s298", UnitDelay()),
], ids=["s27-normal", "s27-unit", "s298-normal", "s298-unit"])
def test_grid_engine_close(circuit, delay):
    netlist = benchmark_circuit(circuit)
    fast, naive = _both(netlist, CONFIG_I, delay,
                        lambda: GridAlgebra(GRID))
    _assert_grid_close(fast, naive)


def test_grid_engine_close_config_ii():
    netlist = benchmark_circuit("s298")
    fast, naive = _both(netlist, CONFIG_II, NormalDelay(1.0, 0.1),
                        lambda: GridAlgebra(GRID))
    _assert_grid_close(fast, naive)


def test_grid_parity_gates_close():
    """XOR/XNOR take the 3^k prefix recursion on the fast grid path while
    the reference enumerates 4^k assignments; the reordered weight sums may
    differ by a ULP but nothing more."""
    netlist = Netlist("parity", ["a", "b", "c", "d"], ["x", "y"], [
        Gate("x", GateType.XOR, ("a", "b", "c")),
        Gate("n", GateType.XNOR, ("c", "d")),
        Gate("y", GateType.XOR, ("x", "n")),
    ])
    fast, naive = _both(netlist, CONFIG_I, NormalDelay(1.0, 0.1),
                        lambda: GridAlgebra(GRID))
    _assert_grid_close(fast, naive)


def _seeded_region(algebra_factory, delay):
    """A downstream region of a 4-way s1196 split, with its cut pins
    seeded from a flat run: ``(sub-netlist, seeds)``."""
    netlist = benchmark_circuit("s1196")
    partition = partition_netlist(netlist, 4)
    region = max(partition.regions, key=lambda r: len(r.cut_inputs))
    assert region.cut_inputs
    flat = run_spsta(netlist, CONFIG_I, delay, algebra_factory())
    seeds = {net: (flat.prob4[net], flat.tops[net])
             for net in region.cut_inputs}
    return subnetlist(netlist, region), seeds


def _both_seeded(sub, seeds, delay, algebra_factory):
    fast = run_spsta(sub, CONFIG_I, delay, algebra_factory(),
                     engine="fast", seed_tops=seeds)
    naive = run_spsta(sub, CONFIG_I, delay, algebra_factory(),
                      engine="naive", seed_tops=seeds)
    assert set(fast.tops) == set(naive.tops)
    return fast, naive


def _assert_within_policy(fast, naive, policy):
    for net in naive.tops:
        for direction in ("rise", "fall"):
            pa, ma, sa = fast.report(net, direction)
            pb, mb, sb = naive.report(net, direction)
            assert abs(pa - pb) <= policy.abs_probability, (net, direction)
            assert np.isnan(ma) == np.isnan(mb), (net, direction)
            if not np.isnan(mb):
                assert abs(ma - mb) <= policy.abs_mean, (net, direction)
                assert abs(sa - sb) <= policy.abs_std, (net, direction)


def _assert_seeded_bitexact(algebra):
    sub, seeds = _seeded_region(algebra, NormalDelay(1.0, 0.1))
    fast, naive = _both_seeded(sub, seeds, NormalDelay(1.0, 0.1), algebra)
    _assert_bitexact(fast, naive)
    for net, (prob4, tops) in seeds.items():
        assert fast.prob4[net] == prob4
        assert fast.tops[net] == tops


def test_seed_tops_moment_bitexact():
    """Boundary TOPs seeded at a region's cut pins (the hier hook) take
    the same path through both engines; launch points left unseeded fall
    back to the input statistics."""
    _assert_seeded_bitexact(MomentAlgebra)


def test_seed_tops_canonical_bitexact():
    """Canonical forms live on the flat netlist's launch axes, so seeded
    boundary TOPs carry across the region cut unchanged."""
    _assert_seeded_bitexact(
        lambda: CanonicalTopAlgebra(benchmark_circuit("s1196")))


@pytest.mark.parametrize("delay", [NormalDelay(1.0, 0.1), MisDelay()],
                         ids=lambda d: type(d).__name__)
def test_seed_tops_grid_within_policy(delay):
    """Seeded grid regions, on the stacked template path (NormalDelay)
    and the per-popcount MIS job path (MisDelay)."""
    grid = TimeGrid(-8.0, 60.0, 512)
    sub, seeds = _seeded_region(lambda: GridAlgebra(grid), delay)
    fast, naive = _both_seeded(sub, seeds, delay, lambda: GridAlgebra(grid))
    _assert_within_policy(fast, naive, POLICIES["fast-vs-naive/grid"])


#: Work counters of the fast grid engine on s1196 at 512 bins.
S1196_GRID_COUNTERS = {
    "NormalDelay": dict(gates_processed=529, levels=13, subset_terms=4204,
                        parity_terms=858, max_folds=3026,
                        weight_table_hits=484, weight_table_misses=268,
                        fft_convolutions=1058, shift_rows=0,
                        mass_checks=6184),
    "MisDelay": dict(gates_processed=529, levels=13, subset_terms=4204,
                     parity_terms=858, max_folds=3026,
                     weight_table_hits=484, weight_table_misses=268,
                     fft_convolutions=0, shift_rows=2212,
                     mass_checks=6184),
}


@pytest.mark.parametrize("delay", [NormalDelay(1.0, 0.1), MisDelay()],
                         ids=lambda d: type(d).__name__)
def test_fast_grid_work_counters_pinned(delay):
    """The engine's work counters are a deterministic function of the
    circuit, statistics and delay model; a change here means the walker
    does different work, not just faster work."""
    from repro.core.profiling import SpstaProfile

    profile = SpstaProfile()
    run_spsta(benchmark_circuit("s1196"), CONFIG_I, delay,
              GridAlgebra(TimeGrid(-8.0, 60.0, 512)), profile=profile)
    expected = S1196_GRID_COUNTERS[type(delay).__name__]
    assert {name: getattr(profile, name) for name in expected} == expected


@pytest.mark.parametrize("engine", ["fast", "naive"])
def test_parity_fanin_cap_raises(engine):
    """A 12-input XOR would enumerate 4^12 assignments; both engines must
    refuse it up front and point at the decomposition fallback."""
    inputs = [f"i{k}" for k in range(12)]
    netlist = Netlist("wide_xor", inputs, ["y"],
                      [Gate("y", GateType.XOR, tuple(inputs))])
    with pytest.raises(ValueError, match="decompose_fanin"):
        run_spsta(netlist, CONFIG_I, engine=engine)


def test_parity_fanin_cap_fallback():
    """The documented escape hatch — rewriting wide gates as bounded
    fan-in trees — must run on both engines and agree bit-exactly."""
    inputs = [f"i{k}" for k in range(12)]
    netlist = Netlist("wide_xor", inputs, ["y"],
                      [Gate("y", GateType.XOR, tuple(inputs))])
    narrow = decompose_fanin(netlist, max_fanin=2)
    fast, naive = _both(narrow, CONFIG_I, UnitDelay(), MomentAlgebra)
    _assert_bitexact(fast, naive)


def test_parity_fanin_cap_override():
    """``max_parity_fanin`` lifts the guard explicitly (kept tiny here:
    4^11 enumerations would be slow, so only the bound is probed)."""
    inputs = [f"i{k}" for k in range(4)]
    netlist = Netlist("xor4", inputs, ["y"],
                      [Gate("y", GateType.XOR, tuple(inputs))])
    with pytest.raises(ValueError, match="decompose_fanin"):
        run_spsta(netlist, CONFIG_I, engine="fast", max_parity_fanin=3)
    run_spsta(netlist, CONFIG_I, engine="fast", max_parity_fanin=4)


def test_fast_engine_profile_counters():
    """The fast grid run must actually exercise the optimizations the
    profile layer counts: cached weight tables, cached kernels, FFT."""
    from repro.core.profiling import SpstaProfile

    profile = SpstaProfile()
    run_spsta(benchmark_circuit("s298"), CONFIG_I, NormalDelay(1.0, 0.1),
              GridAlgebra(GRID), engine="fast", profile=profile)
    assert profile.engine == "fast"
    assert profile.gates_processed > 0
    assert profile.levels > 0
    assert profile.subset_terms > 0
    assert profile.weight_table_hits > 0
    assert profile.kernel_cache_hits > 0
    assert profile.fft_convolutions > 0
    assert "phase seconds" in profile.render() or profile.phase_seconds
