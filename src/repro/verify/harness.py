"""Differential conformance sweep over every engine pair.

One :func:`verify_circuit` call runs a circuit through all six SPSTA
engine/algebra combinations, the scenario-batched backend
(:mod:`repro.core.scenario`) on every algebra, the hierarchical
partition scheduler (:mod:`repro.hier`, ``keep="all"``) on every
algebra, plus the Monte Carlo simulator and the scalar event-level
simulator (:mod:`repro.sim.reference`), then checks every pair named in
:data:`repro.verify.policies.POLICIES` net by net:

- replication pairs (``fast-vs-naive/*``, ``batched-vs-fast/*``,
  ``hier-vs-flat/*``, ``stream-vs-event/mc``) over every net — the
  engines share their mathematics, so any visible disagreement is a bug;
- abstraction pairs (``*-vs-grid``) and statistical pairs (``*-vs-mc``)
  over the netlist's endpoints, where the tolerance policy encodes the
  modelling error the pair is *allowed* to have;
- containment policies (``bounds-vs-bdd/exact``, size-gated, slack 0;
  ``bounds-vs-mc/hoeffding``) over every net — the certified SP
  intervals of :func:`repro.bounds.compute_bounds` must *contain* the
  reference, because a sound bound that excludes an exact value is a
  soundness bug, not modelling error.

The sweep also enforces the stats layer's numerical guardrails: the grid
runs must actually exercise the mass-conservation accounting
(``mass_checks > 0``) and must never clip more than
:data:`~repro.verify.policies.GUARDRAIL_MAX_CLIP_FRACTION` of any
density's mass off the grid edge.  :func:`run_conformance` fuzzes random
circuits (seeded, reproducible) alongside ISCAS benches and aggregates
everything into a :class:`ConformanceReport` with a JSON serialization for
CI.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
import json
import math
import time
from typing import (
    Callable,
    Dict,
    List,
    Mapping,
    Optional,
    Sequence,
    Tuple,
    Union,
)

import numpy as np

from repro.core.corners import Corner, ScaledDelay
from repro.core.delay import DelayModel, NormalDelay, UnitDelay
from repro.core.inputs import CONFIG_I, InputStats
from repro.core.profiling import SpstaProfile
from repro.core.incremental_spsta import IncrementalSpsta
from repro.core.scenario import Scenario, run_scenario_batch
from repro.core.spsta import SpstaResult, run_spsta
from repro.hier import run_hier
from repro.lint.engine import LintConfig, preflight as lint_preflight
from repro.netlist.analysis import net_depths
from repro.netlist.benchmarks import benchmark_circuit
from repro.netlist.core import Netlist
from repro.netlist.generator import GeneratorProfile, generate_circuit
from repro.power.density import build_net_bdds
from repro.sim.montecarlo import run_monte_carlo
from repro.sim.parallel import RetryPolicy
from repro.sim.reference import NetState, simulate_trial
from repro.sim.sampler import LaunchSample, sample_launch_points
from repro.spec import AlgebraSpec
from repro.stats.grid import TimeGrid
from repro.stats.normal import Normal
from repro.bounds import (
    Interval,
    compute_bounds,
    hoeffding_slack,
    sample_signal_probabilities,
)
from repro.logic.bdd import FALSE, TRUE, BDDManager
from repro.logic.fourvalue import final_bit, from_bits, init_bit
from repro.verify.policies import (
    CONTAINMENT_POLICIES,
    GUARDRAIL_MAX_CLIP_FRACTION,
    POLICIES,
    ContainmentPolicy,
    TolerancePolicy,
)

#: Grid pitch used by the sweep: an exact divisor of the unit gate delay,
#: so delay shifts land on whole bins and the grid engines carry no
#: avoidable discretization drift into the comparison.
GRID_BINS_PER_UNIT = 32

#: Margin (in time units) added on both sides of the circuit's depth span
#: so launch densities (N(0,1) tails) and delay spread stay on-grid; with
#: it, the mass guardrail passing is a *property of the sweep*, not luck.
GRID_MARGIN = 8.0

#: Region count used for the sweep's hierarchical runs: enough that every
#: bundled bench actually splits (multi-region DAG, real boundary pins)
#: while staying fast on the fuzzed circuits.
HIER_SWEEP_REGIONS = 3

DEFAULT_TRIALS = 20_000
DEFAULT_BENCHES: Tuple[str, ...] = ("s27", "s208")

#: Trials replayed through the scalar event simulator for
#: ``stream-vs-event/mc`` (the first ones of the Monte Carlo run's launch
#: samples); the oracle runs one Python call per gate per trial.
EVENT_ORACLE_TRIALS = 256

#: (probability, mean, std, occurrence count or None) for one transition —
#: the common currency every engine's result is adapted into.
_Stats = Tuple[float, float, float, Optional[int]]
_StatsFn = Callable[[str, str], _Stats]


@dataclass(frozen=True)
class Divergence:
    """One compared quantity that exceeded its pair's tolerance."""

    pair: str
    net: str
    direction: str
    metric: str          # "probability" | "mean" | "std"
    value_a: float
    value_b: float
    delta: float
    tolerance: float

    def describe(self) -> str:
        return (f"{self.pair} @ {self.net}/{self.direction}: "
                f"{self.metric} {self.value_a:.6g} vs {self.value_b:.6g} "
                f"(delta {self.delta:.3g} > tol {self.tolerance:.3g})")

    def to_dict(self) -> Dict[str, object]:
        return {"pair": self.pair, "net": self.net,
                "direction": self.direction, "metric": self.metric,
                "value_a": self.value_a, "value_b": self.value_b,
                "delta": self.delta, "tolerance": self.tolerance}


@dataclass
class PairCheck:
    """Result of sweeping one engine pair over one circuit."""

    pair: str
    n_nets: int
    n_comparisons: int
    max_delta: Dict[str, float]
    divergences: List[Divergence] = field(default_factory=list)

    @property
    def passed(self) -> bool:
        return not self.divergences

    def to_dict(self) -> Dict[str, object]:
        return {"pair": self.pair, "nets": self.n_nets,
                "comparisons": self.n_comparisons,
                "max_delta": dict(self.max_delta),
                "passed": self.passed,
                "divergences": [d.to_dict() for d in self.divergences]}


@dataclass
class CircuitConformance:
    """All pair checks plus the guardrail audit for one circuit."""

    circuit: str
    kind: str                      # "random" | "bench"
    n_gates: int
    depth: int
    seconds: float
    checks: List[PairCheck]
    guardrail: Dict[str, float]
    guardrail_failures: List[str] = field(default_factory=list)

    @property
    def passed(self) -> bool:
        return (not self.guardrail_failures
                and all(check.passed for check in self.checks))

    @property
    def divergences(self) -> List[Divergence]:
        return [d for check in self.checks for d in check.divergences]

    def to_dict(self) -> Dict[str, object]:
        return {"circuit": self.circuit, "kind": self.kind,
                "gates": self.n_gates, "depth": self.depth,
                "seconds": round(self.seconds, 3),
                "passed": self.passed,
                "checks": [check.to_dict() for check in self.checks],
                "guardrail": dict(self.guardrail),
                "guardrail_failures": list(self.guardrail_failures)}


@dataclass
class ConformanceReport:
    """Machine-readable outcome of a full conformance sweep."""

    seed: int
    trials: int
    circuits: List[CircuitConformance]

    @property
    def passed(self) -> bool:
        return all(circuit.passed for circuit in self.circuits)

    @property
    def n_comparisons(self) -> int:
        return sum(check.n_comparisons
                   for circuit in self.circuits for check in circuit.checks)

    def to_dict(self) -> Dict[str, object]:
        return {"report": "spsta-conformance",
                "seed": self.seed,
                "trials": self.trials,
                "guardrail_max_clip_fraction": GUARDRAIL_MAX_CLIP_FRACTION,
                "passed": self.passed,
                "comparisons": self.n_comparisons,
                "policies": {name: {"abs_probability": p.abs_probability,
                                    "abs_mean": p.abs_mean,
                                    "abs_std": p.abs_std,
                                    "min_occurrences": p.min_occurrences,
                                    "endpoints_only": p.endpoints_only}
                             for name, p in POLICIES.items()},
                "containment_policies": {
                    name: {"slack": c.slack, "delta": c.delta,
                           "max_launch_points": c.max_launch_points}
                    for name, c in CONTAINMENT_POLICIES.items()},
                "circuits": [circuit.to_dict()
                             for circuit in self.circuits]}

    def to_json(self, indent: int = 2) -> str:
        return json.dumps(self.to_dict(), indent=indent)

    def render(self) -> str:
        lines = [f"conformance sweep: seed {self.seed}, "
                 f"{self.trials} MC trials, {len(self.circuits)} circuits, "
                 f"{self.n_comparisons} comparisons"]
        for circuit in self.circuits:
            verdict = "pass" if circuit.passed else "FAIL"
            lines.append(
                f"  {circuit.circuit} ({circuit.kind}, "
                f"{circuit.n_gates} gates, depth {circuit.depth}): "
                f"{verdict} in {circuit.seconds:.1f}s, worst clip fraction "
                f"{circuit.guardrail.get('max_clip_fraction', 0.0):.3g}")
            for failure in circuit.guardrail_failures:
                lines.append(f"    guardrail: {failure}")
            for divergence in circuit.divergences:
                lines.append(f"    {divergence.describe()}")
        lines.append("=> " + ("PASS" if self.passed else "FAIL"))
        return "\n".join(lines)


def _spsta_stats(result: SpstaResult) -> _StatsFn:
    def get(net: str, direction: str) -> _Stats:
        p, mean, std = result.report(net, direction)
        return p, mean, std, None
    return get


def _mc_stats(result) -> _StatsFn:
    def get(net: str, direction: str) -> _Stats:
        stats = result.direction_stats(net, direction)
        return stats.probability, stats.mean, stats.std, stats.n_occurrences
    return get


def _event_stats(netlist: Netlist, samples: Mapping[str, LaunchSample],
                 n_trials: int, delay_model: DelayModel) -> _StatsFn:
    """Per-net statistics of the scalar event simulator, replaying
    ``samples`` trial by trial and summarizing with plain numpy."""
    init: Dict[str, np.ndarray] = {}
    final: Dict[str, np.ndarray] = {}
    times: Dict[str, np.ndarray] = {}
    for trial in range(n_trials):
        launch: Dict[str, NetState] = {}
        for net, wave in samples.items():
            t = float(wave.time[trial])
            launch[net] = (from_bits(int(wave.init[trial]),
                                     int(wave.final[trial])),
                           None if math.isnan(t) else t)
        states = simulate_trial(netlist, launch, delay_model)
        for net, (symbol, arrival) in states.items():
            if net not in init:
                init[net] = np.zeros(n_trials, dtype=bool)
                final[net] = np.zeros(n_trials, dtype=bool)
                times[net] = np.full(n_trials, np.nan)
            init[net][trial] = init_bit(symbol)
            final[net][trial] = final_bit(symbol)
            if arrival is not None:
                times[net][trial] = arrival

    def get(net: str, direction: str) -> _Stats:
        if direction == "rise":
            mask = ~init[net] & final[net]
        else:
            mask = init[net] & ~final[net]
        count = int(mask.sum())
        if count == 0:
            return 0.0, math.nan, math.nan, 0
        arrivals = times[net][mask]
        return (count / n_trials, float(arrivals.mean()),
                float(arrivals.std()), count)
    return get


def _compare_pair(policy: TolerancePolicy, nets: Sequence[str],
                  stats_a: _StatsFn, stats_b: _StatsFn) -> PairCheck:
    """Sweep one engine pair over ``nets`` under its tolerance policy."""
    check = PairCheck(pair=policy.pair, n_nets=len(nets), n_comparisons=0,
                      max_delta={"probability": 0.0, "mean": 0.0,
                                 "std": 0.0})

    def record(net: str, direction: str, metric: str, a: float, b: float,
               tolerance: float) -> None:
        delta = abs(a - b)
        check.n_comparisons += 1
        check.max_delta[metric] = max(check.max_delta[metric], delta)
        if delta > tolerance:
            check.divergences.append(Divergence(
                pair=policy.pair, net=net, direction=direction,
                metric=metric, value_a=a, value_b=b, delta=delta,
                tolerance=tolerance))

    for net in nets:
        for direction in ("rise", "fall"):
            p_a, mean_a, std_a, count_a = stats_a(net, direction)
            p_b, mean_b, std_b, count_b = stats_b(net, direction)
            record(net, direction, "probability", p_a, p_b,
                   policy.abs_probability)
            # Conditional moments are compared only where both engines
            # agree the transition occurs (a weight mismatch is already a
            # probability divergence) and, for statistical pairs, where
            # the oracle saw enough occurrences for its estimate to carry
            # less noise than the tolerance.
            if not (math.isfinite(mean_a) and math.isfinite(mean_b)):
                continue
            counts = [c for c in (count_a, count_b) if c is not None]
            if counts and min(counts) < policy.min_occurrences:
                continue
            record(net, direction, "mean", mean_a, mean_b, policy.abs_mean)
            record(net, direction, "std", std_a, std_b, policy.abs_std)
    return check


def _containment_check(policy: ContainmentPolicy,
                       intervals: Dict[str, Interval],
                       reference: Mapping[str, Union[float, Fraction]],
                       slack: float) -> PairCheck:
    """Assert every reference value lands inside its certified interval
    (widened by ``slack``).  The recorded delta is the escape distance —
    0 for every contained net — so ``max_delta`` doubles as an audit of
    how close the references come to the certified edges.  Distances
    are computed in exact rational arithmetic, so an escape smaller than
    the float spacing at the interval's end still counts."""
    check = PairCheck(pair=policy.pair, n_nets=len(reference),
                      n_comparisons=0,
                      max_delta={"probability": 0.0, "mean": 0.0,
                                 "std": 0.0})
    margin = Fraction(slack)
    for net, value in reference.items():
        interval = intervals[net]
        escape = max(Fraction(interval.lo) - margin - Fraction(value),
                     Fraction(value) - Fraction(interval.hi) - margin, 0)
        check.n_comparisons += 1
        check.max_delta["probability"] = max(
            check.max_delta["probability"], float(escape))
        if escape > 0:
            nearest = (interval.lo if value < interval.lo
                       else interval.hi)
            check.divergences.append(Divergence(
                pair=policy.pair, net=net, direction="value",
                metric="probability", value_a=float(value),
                value_b=nearest, delta=float(escape), tolerance=slack))
    return check


#: Node budget for the containment sweep's global BDD collapse; circuits
#: under the launch-point gate of ``bounds-vs-bdd/exact`` stay far below
#: it, and hitting it skips the exact check rather than failing the run.
_CONTAINMENT_BDD_NODES = 1 << 20


def _exact_signal_probabilities(
        netlist: Netlist, launch: Union[float, Mapping[str, float]],
        ) -> Optional[Dict[str, Fraction]]:
    """Exact per-net SP via one shared global BDD, or None if the node
    budget is exhausted.

    The Shannon walk runs in rational arithmetic on the float launch
    values, so each result is the exact probability those launches
    define — a float walk would round in its own order and could land a
    few ulps outside a sound interval.
    """
    manager = BDDManager(max_nodes=_CONTAINMENT_BDD_NODES)
    try:
        funcs = build_net_bdds(netlist, manager)
    except MemoryError:
        return None
    probs = {net: Fraction(launch if isinstance(launch, float)
                           else launch[net])
             for net in netlist.launch_points}
    memo: Dict[int, Fraction] = {FALSE: Fraction(0), TRUE: Fraction(1)}

    def walk(node: int) -> Fraction:
        found = memo.get(node)
        if found is None:
            level, low, high = manager._nodes[node]
            p = probs[manager._level_names[level]]
            found = memo[node] = p * walk(high) + (1 - p) * walk(low)
        return found

    return {net: walk(f) for net, f in funcs.items()}


def _move_schedule(netlist: Netlist) -> List[str]:
    """Deterministic optimizer-style move targets for the incremental
    check: gates at the 20/50/80% marks of the topological order, so the
    repaired cones span shallow, mid, and deep fan-out."""
    gates = [g.name for g in netlist.combinational_gates]
    if not gates:
        return []
    picks = [gates[(len(gates) * fraction) // 10]
             for fraction in (2, 5, 8)]
    return list(dict.fromkeys(picks))


def sweep_grid_for(netlist: Netlist) -> TimeGrid:
    """The conformance sweep's grid for a circuit: unit-delay-aligned pitch
    (:data:`GRID_BINS_PER_UNIT` bins per time unit) spanning the circuit's
    depth with :data:`GRID_MARGIN` of headroom on both sides."""
    depth = max(net_depths(netlist).values(), default=1)
    start = -GRID_MARGIN
    stop = depth + GRID_MARGIN
    n = GRID_BINS_PER_UNIT * int(round(stop - start)) + 1
    return TimeGrid(start, stop, n)


def verify_circuit(netlist: Netlist,
                   config: InputStats = CONFIG_I,
                   *,
                   trials: int = DEFAULT_TRIALS,
                   seed: int = 0,
                   delay_model: DelayModel = UnitDelay(),
                   kind: str = "bench",
                   preflight: bool = True,
                   mc_retry: Optional[RetryPolicy] = None
                   ) -> CircuitConformance:
    """Run every engine on one circuit and check every pair's policy.

    Each SPSTA run gets a fresh algebra (its own mass ledger and caches)
    and its own :class:`SpstaProfile`.  One full-budget Monte Carlo run
    serves every statistical pair.  For ``stream-vs-event/mc`` the first
    :data:`EVENT_ORACLE_TRIALS` of its launch samples run through the
    stream kernel and the scalar event simulator at a sigma-0 corner of
    ``delay_model`` — deterministic delays both sides replay exactly —
    which makes that pair a bit-exactness check, not a statistical one.

    Unless ``preflight=False``, the circuit first passes through the
    static linter (``repro.lint``) configured exactly like the sweep —
    same trials, delay model, and grid — so a pathological circuit (wide
    parity gate, undersized grid, structural damage) fails fast with
    diagnostics instead of a mid-propagation traceback; error-level
    findings raise :class:`~repro.lint.engine.LintFailure`.

    ``mc_retry`` hardens the Monte Carlo run against transient shard
    failures (retries re-run the identical seed stream, so a retried run
    stays bit-exact — see docs/robustness.md).
    """
    t0 = time.perf_counter()
    grid = sweep_grid_for(netlist)
    if preflight:
        lint_preflight(netlist, LintConfig(
            input_stats=config, delay_model=delay_model, grid=grid,
            trials=trials))
    depth = max(net_depths(netlist).values(), default=1)

    algebra_specs = {"moment": AlgebraSpec.moment(),
                     "mixture": AlgebraSpec.mixture(),
                     "grid": AlgebraSpec.grid(grid)}
    runs: Dict[Tuple[str, str], object] = {}
    profiles: Dict[Tuple[str, str], SpstaProfile] = {}
    for algebra_name, spec in algebra_specs.items():
        for engine in ("naive", "fast"):
            profile = SpstaProfile()
            runs[(algebra_name, engine)] = run_spsta(
                netlist, config, delay_model, spec.build(),
                engine=engine, profile=profile)
            profiles[(algebra_name, engine)] = profile

    # The scenario-batched backend: the nominal scenario reruns the
    # direct engines' exact workload, and a derated companion scenario
    # rides along so the stacked executor is exercised with real
    # cross-scenario batching (b=2), not just the degenerate case.
    scenarios = (Scenario("nominal", config, delay_model),
                 Scenario("derate", config,
                          ScaledDelay(delay_model, Corner("derate", 1.1))))
    batched_runs: Dict[str, SpstaResult] = {}
    for algebra_name, spec in algebra_specs.items():
        profile = SpstaProfile()
        sweep = run_scenario_batch(netlist, scenarios, spec.build(),
                                   profile=profile)
        batched_runs[algebra_name] = sweep.result_for("nominal")
        profiles[(algebra_name, "batched")] = profile

    # The hierarchical scheduler, keep="all", so every interior net of
    # every region lands in the merged result and the hier-vs-flat
    # policies compare the complete net set, not just boundaries.
    hier_runs: Dict[str, SpstaResult] = {}
    for algebra_name, spec in algebra_specs.items():
        profile = SpstaProfile()
        hier_runs[algebra_name] = run_hier(
            netlist, config, delay_model, spec,
            n_regions=HIER_SWEEP_REGIONS, keep="all",
            profile=profile).result
        profiles[(algebra_name, "hier")] = profile

    # The incremental SPSTA engine: replay an optimizer-style move
    # schedule (overrides spread across the topological order, one
    # clear, and a rejected move whose revert is served from the undo
    # record) through the worklist repair, then rerun a fresh naive full
    # pass over the *same* effective delays.  The incremental-vs-full
    # policies are bit-exact for every algebra, which is what licenses
    # `optimize_spsta` to trust per-move cone repair.
    incremental_runs: Dict[str, Tuple[SpstaResult, SpstaResult]] = {}
    schedule = _move_schedule(netlist)
    for algebra_name, spec in algebra_specs.items():
        inc = IncrementalSpsta(netlist, config, delay_model, spec.build())
        for i, gate_name in enumerate(schedule):
            inc.set_delay(gate_name, Normal(1.2 + 0.05 * i, 0.03))
        if schedule:
            inc.clear_delay(schedule[0])
            inc.set_delay(schedule[0], Normal(2.0, 0.03))
            inc.clear_delay(schedule[0])
        full = run_spsta(netlist, config, inc.effective_delay_model(),
                         spec.build(), engine="naive")
        incremental_runs[algebra_name] = (inc.result(), full)

    # Drawing the launch samples up front from the generator the run then
    # continues with leaves the run's draws unchanged.
    rng = np.random.default_rng(seed)
    samples = sample_launch_points(netlist, config, trials, rng)
    mc = run_monte_carlo(netlist, config, trials, delay_model, rng=rng,
                         samples=samples, mode="stream", shards=1,
                         retry=mc_retry)
    oracle_trials = min(trials, EVENT_ORACLE_TRIALS)
    head = {net: LaunchSample(init=w.init[:oracle_trials],
                              final=w.final[:oracle_trials],
                              time=w.time[:oracle_trials])
            for net, w in samples.items()}
    exact_delays = ScaledDelay(delay_model, Corner("sigma-0", 1.0, 0.0))
    mc_exact = run_monte_carlo(netlist, config, oracle_trials, exact_delays,
                               samples=head, mode="stream", retry=mc_retry)

    all_nets = sorted(runs[("moment", "naive")].tops)
    endpoints = list(dict.fromkeys(netlist.endpoints))
    mc_nets = sorted(mc.nets)

    sides: Dict[str, Tuple[_StatsFn, Sequence[str]]] = {
        "moment": (_spsta_stats(runs[("moment", "fast")]), all_nets),
        "mixture": (_spsta_stats(runs[("mixture", "fast")]), all_nets),
        "grid": (_spsta_stats(runs[("grid", "fast")]), all_nets),
        "mc": (_mc_stats(mc), mc_nets),
    }

    # Replication pairs, per algebra: (result a, result b) by name.
    replications = {
        "fast-vs-naive": lambda name: (runs[(name, "fast")],
                                       runs[(name, "naive")]),
        "batched-vs-fast": lambda name: (batched_runs[name],
                                         runs[(name, "fast")]),
        "hier-vs-flat": lambda name: (hier_runs[name], runs[(name, "fast")]),
        "incremental-vs-full": lambda name: incremental_runs[name],
    }
    checks: List[PairCheck] = []
    for pair, results in replications.items():
        for algebra_name in algebra_specs:
            result_a, result_b = results(algebra_name)
            checks.append(_compare_pair(
                POLICIES[f"{pair}/{algebra_name}"], all_nets,
                _spsta_stats(result_a), _spsta_stats(result_b)))
    checks.append(_compare_pair(
        POLICIES["stream-vs-event/mc"], mc_nets, _mc_stats(mc_exact),
        _event_stats(netlist, head, oracle_trials, exact_delays)))
    checks.append(_compare_pair(
        POLICIES["batched-vs-mc"], endpoints,
        _spsta_stats(batched_runs["grid"]), _mc_stats(mc)))
    for pair in ("moment-vs-grid", "mixture-vs-grid",
                 "moment-vs-mc", "mixture-vs-mc", "grid-vs-mc"):
        policy = POLICIES[pair]
        name_a, name_b = pair.split("-vs-")
        nets = endpoints if policy.endpoints_only else all_nets
        checks.append(_compare_pair(policy, nets,
                                    sides[name_a][0], sides[name_b][0]))

    # Containment: the certified SP intervals of the bounds engine must
    # contain an exact-BDD reference (slack 0, size-gated) and a sampled
    # reference (Hoeffding slack) — soundness, not tolerance, so any
    # escape fails the sweep.
    launch_sp = config.signal_probability
    certified = compute_bounds(netlist, stats=config)
    bdd_policy = CONTAINMENT_POLICIES["bounds-vs-bdd/exact"]
    if (bdd_policy.max_launch_points is None
            or len(netlist.launch_points) <= bdd_policy.max_launch_points):
        exact = _exact_signal_probabilities(netlist, launch_sp)
        if exact is not None:
            checks.append(_containment_check(
                bdd_policy, certified.sp, exact, bdd_policy.slack))
    mc_policy = CONTAINMENT_POLICIES["bounds-vs-mc/hoeffding"]
    assert mc_policy.delta is not None
    sampled = sample_signal_probabilities(
        netlist, launch=launch_sp, trials=trials,
        rng=np.random.default_rng(seed))
    checks.append(_containment_check(
        mc_policy, certified.sp, sampled,
        hoeffding_slack(trials, mc_policy.delta)))

    guardrail = {"mass_checks": 0.0, "clipped_mass": 0.0,
                 "clip_events": 0.0, "max_clip_fraction": 0.0,
                 "finite_checks": 0.0}
    for engine in ("naive", "fast", "batched", "hier"):
        profile = profiles[("grid", engine)]
        guardrail["mass_checks"] += profile.mass_checks
        guardrail["clipped_mass"] += profile.clipped_mass
        guardrail["clip_events"] += profile.clip_events
        guardrail["finite_checks"] += profile.finite_checks
        guardrail["max_clip_fraction"] = max(
            guardrail["max_clip_fraction"], profile.max_clip_fraction)

    guardrail_failures: List[str] = []
    if guardrail["mass_checks"] == 0:
        guardrail_failures.append(
            "mass-conservation accounting never ran on the grid engines")
    if guardrail["max_clip_fraction"] > GUARDRAIL_MAX_CLIP_FRACTION:
        guardrail_failures.append(
            f"worst clipped-mass fraction "
            f"{guardrail['max_clip_fraction']:.3g} exceeds "
            f"{GUARDRAIL_MAX_CLIP_FRACTION:.3g} — the sweep grid does not "
            f"cover the circuit's arrival window")

    return CircuitConformance(
        circuit=netlist.name, kind=kind,
        n_gates=len(netlist.combinational_gates), depth=depth,
        seconds=time.perf_counter() - t0,
        checks=checks, guardrail=guardrail,
        guardrail_failures=guardrail_failures)


#: Fuzz shapes cycle through this family: wide and shallow, many launch
#: points per gate.  Narrow/deep random circuits reconverge so heavily
#: that the paper's independence approximation (Sec. 4) dominates the
#: comparison and the Monte Carlo oracle stops measuring implementation
#: correctness — on such circuits SPSTA can report p > 0 for transitions
#: that are structurally impossible.  The wide family keeps the
#: approximation's bias within the statistical pairs' tolerance, like the
#: ISCAS benches the paper evaluates on.
_FUZZ_SHAPES: Tuple[Tuple[int, int, int, int, int, float], ...] = (
    # (n_inputs, n_outputs, n_dffs, n_gates, depth, xor_fraction)
    (12, 4, 6, 30, 4, 0.0),
    (14, 4, 8, 36, 5, 0.0),
    (12, 4, 6, 32, 4, 0.15),   # exercises the parity (Eq. 12) path
)


def fuzz_profiles(seed: int, count: int) -> List[GeneratorProfile]:
    """Deterministic fuzzing schedule: ``count`` circuit profiles drawn
    from :data:`_FUZZ_SHAPES` with per-profile seeds derived from the
    root seed."""
    profiles = []
    for i in range(count):
        n_inputs, n_outputs, n_dffs, n_gates, depth, xor = \
            _FUZZ_SHAPES[i % len(_FUZZ_SHAPES)]
        profiles.append(GeneratorProfile(
            name=f"fuzz-{seed}-{i}",
            n_inputs=n_inputs, n_outputs=n_outputs, n_dffs=n_dffs,
            n_gates=n_gates, depth=depth,
            seed=seed * 7919 + i, xor_fraction=xor))
    return profiles


#: Retry policy for the conformance sweep's streaming-MC oracle runs: a
#: long sweep should not be lost to one transient shard fault, and a
#: retried shard replays the identical seed stream, so the sweep's
#: bit-exactness checks are unaffected.
CONFORMANCE_RETRY = RetryPolicy(max_attempts=2, backoff_base=0.1)


def run_conformance(seed: int = 0,
                    n_random: int = 3,
                    benches: Sequence[str] = DEFAULT_BENCHES,
                    trials: int = DEFAULT_TRIALS,
                    config: InputStats = CONFIG_I,
                    mc_retry: Optional[RetryPolicy] = CONFORMANCE_RETRY
                    ) -> ConformanceReport:
    """The full sweep: fuzzed random circuits plus ISCAS benches.

    Random circuits run under :class:`NormalDelay` (exercises the grid
    engines' Gaussian-kernel FFT convolution path); benches run under
    :class:`UnitDelay` (exercises the pure-shift path and matches the
    paper's Table 2 setup).
    """
    circuits: List[CircuitConformance] = []
    for i, profile in enumerate(fuzz_profiles(seed, n_random)):
        circuits.append(verify_circuit(
            generate_circuit(profile), config, trials=trials,
            seed=seed * 10_007 + i, delay_model=NormalDelay(1.0, 0.1),
            kind="random", mc_retry=mc_retry))
    for i, name in enumerate(benches):
        circuits.append(verify_circuit(
            benchmark_circuit(name), config, trials=trials,
            seed=seed * 10_007 + n_random + i, delay_model=UnitDelay(),
            kind="bench", mc_retry=mc_retry))
    return ConformanceReport(seed=seed, trials=trials, circuits=circuits)
