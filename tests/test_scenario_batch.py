"""Differential tests pinning N batched scenarios to the same scenarios
run one at a time.

The fast engine is the one-scenario case of the compiled walker, so
``run_scenario_batch`` must be a pure batching optimization: running N
scenarios stacked has to produce what N independent
``run_spsta(engine="fast")`` calls (batches of one) produce.  The
contract is graded per algebra exactly like the fast-vs-naive contract
(``tests/test_spsta_fastpath.py``):

- :class:`MomentAlgebra` / :class:`MixtureAlgebra` /
  :class:`CanonicalTopAlgebra`: bit-exact — the batched backend runs the
  naive sweep once per scenario, the same sweep
  ``run_spsta(engine="fast")`` runs for them.
- :class:`GridAlgebra`: weights within 1e-12 absolute, conditional
  moments within 1e-9 relative — cross-scenario stacking regroups the
  batched divisions and segment sums.

The same bounds are enforced continuously by the conformance harness
(``batched-vs-fast/*`` policies, docs/verification.md).
"""

from __future__ import annotations

import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.corners import STANDARD_CORNERS, Corner, ScaledDelay
from repro.core.delay import MisDelay, NormalDelay, PerGateDelay, UnitDelay
from repro.core.inputs import CONFIG_I, CONFIG_II
from repro.core.scenario import (
    Scenario,
    compile_netlist,
    derate_corners,
    run_scenario_batch,
    run_scenarios_looped,
    scenarios_from_corners,
    scenarios_from_stats,
)
from repro.core.spsta import (
    GridAlgebra,
    MixtureAlgebra,
    MomentAlgebra,
    run_spsta,
)
from repro.core.spsta_canonical import CanonicalTopAlgebra
from repro.netlist.benchmarks import benchmark_circuit
from repro.netlist.generator import GeneratorProfile, generate_circuit
from repro.stats.grid import TimeGrid

CIRCUITS = ("s27", "s298", "s386")
SCENARIO_COUNTS = (1, 2, 64)

GRID = TimeGrid(-8.0, 45.0, 2048)


def _corner_scenarios(count, base_model=UnitDelay(), stats=CONFIG_I):
    """``count`` derate corners spanning [0.8, 1.25] (1 -> nominal)."""
    if count == 1:
        corners = (Corner("nominal", 1.0),)
    else:
        corners = derate_corners(0.8, 1.25, count)
    return scenarios_from_corners(corners, base_model, stats)


def _run_both(netlist, scenarios, algebra_factory, **batch_kwargs):
    sweep = run_scenario_batch(netlist, scenarios, algebra_factory(),
                               **batch_kwargs)
    looped = run_scenarios_looped(netlist, scenarios, algebra_factory)
    assert len(sweep) == len(looped) == len(scenarios)
    return sweep, looped


def _assert_bitexact(batched, ref, scenario=""):
    """Closed-form algebras: equal to the last bit, every net/direction."""
    assert set(batched.tops) == set(ref.tops), scenario
    for net in ref.tops:
        assert batched.prob4[net] == ref.prob4[net], (scenario, net)
        for direction in ("rise", "fall"):
            a = getattr(batched.tops[net], direction)
            b = getattr(ref.tops[net], direction)
            assert a.weight == b.weight, (scenario, net, direction)
            assert a.occurs == b.occurs, (scenario, net, direction)
            if b.occurs:
                assert (batched.algebra.stats(a.conditional)
                        == ref.algebra.stats(b.conditional)), \
                    (scenario, net, direction)


def _assert_grid_close(batched, ref, scenario="",
                       weight_atol=1e-12, moment_rtol=1e-9):
    assert set(batched.tops) == set(ref.tops), scenario
    for net in ref.tops:
        for direction in ("rise", "fall"):
            a = getattr(batched.tops[net], direction)
            b = getattr(ref.tops[net], direction)
            assert a.weight == pytest.approx(b.weight, abs=weight_atol), \
                (scenario, net, direction)
            assert a.occurs == b.occurs, (scenario, net, direction)
            if b.occurs:
                mean_a, std_a = batched.algebra.stats(a.conditional)
                mean_b, std_b = ref.algebra.stats(b.conditional)
                assert mean_a == pytest.approx(mean_b, rel=moment_rtol), \
                    (scenario, net, direction)
                assert std_a == pytest.approx(std_b, rel=moment_rtol,
                                              abs=1e-12), \
                    (scenario, net, direction)


# -- closed-form algebras: bit-exact ---------------------------------------


@pytest.mark.parametrize("count", SCENARIO_COUNTS)
@pytest.mark.parametrize("circuit", CIRCUITS)
def test_moment_sweep_bitexact(circuit, count):
    netlist = benchmark_circuit(circuit)
    sweep, looped = _run_both(netlist, _corner_scenarios(count),
                              MomentAlgebra)
    for scenario, a, b in zip(sweep.scenarios, sweep.results, looped):
        _assert_bitexact(a, b, scenario.name)


@pytest.mark.parametrize("count", (2, 64))
def test_mixture_sweep_bitexact(count):
    netlist = benchmark_circuit("s298")
    sweep, looped = _run_both(
        netlist, _corner_scenarios(count, NormalDelay(1.0, 0.1)),
        MixtureAlgebra)
    for scenario, a, b in zip(sweep.scenarios, sweep.results, looped):
        _assert_bitexact(a, b, scenario.name)


@pytest.mark.parametrize("count", (2, 64))
def test_canonical_sweep_bitexact(count):
    """Canonical forms batch like the other closed-form algebras, and
    every batched result also equals a direct naive run bit for bit."""
    netlist = benchmark_circuit("s298")
    scenarios = _corner_scenarios(count, NormalDelay(1.0, 0.1))
    sweep, looped = _run_both(netlist, scenarios,
                              lambda: CanonicalTopAlgebra(netlist))
    for scenario, a, b in zip(sweep.scenarios, sweep.results, looped):
        _assert_bitexact(a, b, scenario.name)
    for scenario in (scenarios[0], scenarios[-1]):
        naive = run_spsta(netlist, scenario.stats, scenario.delay_model,
                          CanonicalTopAlgebra(netlist), engine="naive")
        _assert_bitexact(sweep.result_for(scenario.name), naive,
                         scenario.name)


def test_moment_sweep_mixed_stats_groups():
    """Scenarios with different input statistics split into groups but
    still match their own looped runs (the Table 3 config sweep)."""
    netlist = benchmark_circuit("s386")
    scenarios = (scenarios_from_stats({"I": CONFIG_I, "II": CONFIG_II})
                 + _corner_scenarios(2, stats=CONFIG_II))
    sweep, looped = _run_both(netlist, scenarios, MomentAlgebra)
    for scenario, a, b in zip(sweep.scenarios, sweep.results, looped):
        _assert_bitexact(a, b, scenario.name)


def test_moment_sweep_per_gate_delay_models():
    """Gate-dependent (hash-spread) delay models defeat the homogeneous
    fast path; the generic memo must still be bit-exact."""
    netlist = benchmark_circuit("s27")
    base = PerGateDelay(base=1.0, spread=0.2)
    sweep, looped = _run_both(netlist, _corner_scenarios(3, base),
                              MomentAlgebra)
    for scenario, a, b in zip(sweep.scenarios, sweep.results, looped):
        _assert_bitexact(a, b, scenario.name)


# -- grid algebra: within rounding -----------------------------------------


@pytest.mark.parametrize("count", SCENARIO_COUNTS)
@pytest.mark.parametrize("circuit", ("s27", "s298"))
def test_grid_sweep_close(circuit, count):
    netlist = benchmark_circuit(circuit)
    sweep, looped = _run_both(
        netlist, _corner_scenarios(count, NormalDelay(1.0, 0.1)),
        lambda: GridAlgebra(GRID))
    for scenario, a, b in zip(sweep.scenarios, sweep.results, looped):
        _assert_grid_close(a, b, scenario.name)


def test_grid_sweep_unit_delay_shift_path():
    """Deterministic delays take the pure bin-shift path; nearby derate
    corners sharing an integer shift merge into one kernel group."""
    netlist = benchmark_circuit("s298")
    sweep, looped = _run_both(netlist, _corner_scenarios(8),
                              lambda: GridAlgebra(GRID))
    for scenario, a, b in zip(sweep.scenarios, sweep.results, looped):
        _assert_grid_close(a, b, scenario.name)


def test_grid_sweep_mis_delay():
    """Popcount-dependent (MIS) models force per-scenario kernels; the
    batched backend must fall back without losing accuracy."""
    netlist = benchmark_circuit("s27")
    sweep, looped = _run_both(netlist, _corner_scenarios(3, MisDelay()),
                              lambda: GridAlgebra(GRID))
    for scenario, a, b in zip(sweep.scenarios, sweep.results, looped):
        _assert_grid_close(a, b, scenario.name)


def test_grid_sweep_parity_gates():
    """XOR/XNOR-bearing circuit through the batched parity kernel."""
    netlist = generate_circuit(GeneratorProfile(
        name="parity-mix", n_inputs=8, n_outputs=4, n_dffs=2,
        n_gates=24, depth=4, seed=7, xor_fraction=0.3))
    sweep, looped = _run_both(
        netlist, _corner_scenarios(4, NormalDelay(1.0, 0.1)),
        lambda: GridAlgebra(GRID))
    for scenario, a, b in zip(sweep.scenarios, sweep.results, looped):
        _assert_grid_close(a, b, scenario.name)


def test_grid_keep_endpoints_trims_interior_nets():
    netlist = benchmark_circuit("s298")
    scenarios = _corner_scenarios(2)
    full = run_scenario_batch(netlist, scenarios,
                              GridAlgebra(GRID), keep="all")
    trimmed = run_scenario_batch(netlist, scenarios,
                                 GridAlgebra(GRID), keep="endpoints")
    assert set(trimmed[0].tops) < set(full[0].tops)
    for net in netlist.endpoints:
        assert net in trimmed[0].tops
        for direction in ("rise", "fall"):
            a = getattr(trimmed[0].tops[net], direction)
            b = getattr(full[0].tops[net], direction)
            assert a.weight == b.weight, (net, direction)


# -- hypothesis: random circuits x random corner sets ----------------------


@settings(max_examples=12, deadline=None)
@given(seed=st.integers(0, 2 ** 20),
       n_gates=st.integers(10, 40),
       xor=st.sampled_from([0.0, 0.2]),
       scales=st.lists(
           st.sampled_from([0.8, 0.9, 1.0, 1.0, 1.1, 1.25]),
           min_size=1, max_size=5))
def test_random_circuit_random_corners_bitexact(seed, n_gates, xor,
                                                scales):
    """Property: for any generated circuit and any corner multiset —
    including the degenerate single-scenario sweep and duplicate
    corners (``1.0`` is drawn twice as often to force repeats) — the
    batched moment results equal the looped results bit for bit."""
    netlist = generate_circuit(GeneratorProfile(
        name=f"fuzz{seed}", n_inputs=6, n_outputs=3, n_dffs=2,
        n_gates=n_gates, depth=4, seed=seed, xor_fraction=xor))
    scenarios = tuple(
        Scenario(f"c{i}", CONFIG_I,
                 ScaledDelay(UnitDelay(), Corner(f"c{i}", scale)))
        for i, scale in enumerate(scales))
    sweep = run_scenario_batch(netlist, scenarios)
    looped = run_scenarios_looped(netlist, scenarios)
    for scenario, a, b in zip(scenarios, sweep.results, looped):
        _assert_bitexact(a, b, scenario.name)


def test_duplicate_scenarios_are_identical():
    """Two scenarios with equal stats and equal delay models must
    produce equal results — the grouped executor may share their state
    but never cross-contaminate it."""
    netlist = benchmark_circuit("s27")
    scenarios = (Scenario("a", CONFIG_I, UnitDelay()),
                 Scenario("b", CONFIG_I, UnitDelay()))
    sweep = run_scenario_batch(netlist, scenarios, GridAlgebra(GRID))
    _assert_grid_close(sweep[0], sweep[1], weight_atol=0.0, moment_rtol=0.0)


# -- API and feature flag --------------------------------------------------


def test_compiled_program_reuse():
    netlist = benchmark_circuit("s27")
    compiled = compile_netlist(netlist)
    scenarios = _corner_scenarios(2)
    first = run_scenario_batch(netlist, scenarios, compiled=compiled)
    again = run_scenario_batch(netlist, scenarios, compiled=compiled)
    _assert_bitexact(first[0], again[0])
    assert again.compile_seconds < 0.05     # no recompilation

    other = benchmark_circuit("s298")
    with pytest.raises(ValueError, match="different netlist"):
        run_scenario_batch(other, scenarios, compiled=compiled)
    with pytest.raises(ValueError, match="max_parity_fanin"):
        run_scenario_batch(netlist, scenarios, compiled=compiled,
                           max_parity_fanin=3)


def test_sweep_result_api():
    netlist = benchmark_circuit("s27")
    sweep = run_scenario_batch(netlist,
                               scenarios_from_corners(STANDARD_CORNERS))
    assert len(sweep) == 3
    assert sweep.result_for("slow") is sweep[2]
    with pytest.raises(KeyError):
        sweep.result_for("nonexistent")
    assert sweep.profile.engine == "scenario"
    assert sweep.profile.scenarios == 3
    assert "scenarios=3" in sweep.profile.render()


def test_empty_and_bad_arguments_raise():
    netlist = benchmark_circuit("s27")
    with pytest.raises(ValueError, match="at least one scenario"):
        run_scenario_batch(netlist, ())
    with pytest.raises(ValueError, match="keep"):
        run_scenario_batch(netlist, _corner_scenarios(1), keep="some")


def test_profile_counts_batched_work():
    """The sweep profile must reflect the batched execution: scenario
    count recorded, weight tables shared across scenarios (hits from
    the second scenario on), guardrail accounting active."""
    sweep = run_scenario_batch(
        benchmark_circuit("s298"),
        _corner_scenarios(4, NormalDelay(1.0, 0.1)),
        GridAlgebra(GRID))
    profile = sweep.profile
    assert profile.scenarios == 4
    assert profile.gates_processed > 0
    assert profile.weight_table_hits > 0
    assert profile.mass_checks > 0
    assert profile.max_clip_fraction < 1e-6


# -- performance smoke (CI perf-smoke job) ---------------------------------


@pytest.mark.perf_smoke
def test_batched_64_corner_sweep_beats_looped_fast_engine():
    """Smoke-scale version of the BENCH_scenario_sweep.json headline: on
    a small circuit a 64-corner grid sweep through the batched backend
    must beat 64 independent fast-engine runs.  The margin asserted here
    is a fraction of the measured one (benchmarks/results/) because CI
    runners are noisy; the batched run goes first so same-process memory
    pressure can only penalize the looped side."""
    netlist = benchmark_circuit("s1196")
    scenarios = _corner_scenarios(64)
    grid = TimeGrid(-8.0, 45.0, 256)
    t0 = time.perf_counter()
    run_scenario_batch(netlist, scenarios, GridAlgebra(grid),
                       keep="endpoints")
    batched = time.perf_counter() - t0
    t1 = time.perf_counter()
    run_scenarios_looped(netlist, scenarios, lambda: GridAlgebra(grid))
    looped = time.perf_counter() - t1
    speedup = looped / batched
    assert speedup >= 2.0, (
        f"batched 64-corner sweep only {speedup:.2f}x faster than the "
        f"looped fast engine on s1196 ({batched:.2f}s vs {looped:.2f}s)")
    assert batched < 20.0
