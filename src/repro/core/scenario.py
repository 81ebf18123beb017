"""The compiled SPSTA level walker, batched over scenarios.

Every grid propagation of the repo's fast engine runs here.
:func:`compile_netlist` lowers a netlist ONCE into a flat tensor program;
:func:`run_scenario_batch` then executes N grid scenarios (PVT/derate
corners, input-statistics sweeps, delay-model perturbations) as one
vectorized pass over a stacked ``(scenario, net, bin)`` array, and
``run_spsta(engine="fast")`` on a grid (:mod:`repro.core.spsta_fast`) is
the same walk with a batch of one scenario and, for hierarchical regions,
seeded boundary TOPs.

Compile / execute model
-----------------------

:func:`compile_netlist` lowers the netlist to a :class:`CompiledNetlist`:
per-level gate records tagged with a kernel id (``KIND_COPY`` for
BUFF/NOT, ``KIND_PARITY`` for XOR/XNOR, ``KIND_SUBSET`` for AND/OR-core
gates), the per-level net gather order, and a last-use table for memory
trimming.  Parity fan-in is validated once at compile time.

:func:`run_scenario_batch` groups scenarios by input statistics — Eq. 11
subset weights, occurrence patterns and four-value probabilities depend
only on the statistics, never on delays — and executes each group over
the compiled program:

- **launch / probabilities once per group** — ``launch_tops`` and the
  four-value probability walk run once, not once per scenario;
- **stacked per-level prep** — every referenced conditional density of
  every scenario normalizes and integrates in one 2-D pass, with
  per-net ``(scenario, bin)`` blocks;
- **cross-scenario subset DP** — AND/OR-core directions become
  :class:`_SubsetTemplate` rows (or, for MIS-aware delay models,
  ``_ControllingJob`` rows) whose subset-lattice DP batches across gates
  AND scenarios in the 3-D kernels of :mod:`repro.core.spsta_fast`
  (packed subset-weight tables are built once per gate direction and
  shared by every scenario in the group via
  :class:`~repro.core.spsta_fast.WeightTableCache`);
- **parity prefix enumeration** — XOR/XNOR joint enumeration collapses
  the 4^k four-value assignments to the 3^k (static / rise / fall)
  patterns, tracking the static-ones parity as an (even, odd) weight
  pair and sharing MAX-fold prefixes;
- **batched convolve + mix** — all rows of a level, across all
  scenarios, go through one kernel-grouped FFT batch and one run-length
  segment mix.

Each level runs in its own call frame, so its prep, DP and convolution
temporaries are freed before the next level allocates its own.

Closed-form algebras (moments, mixtures, canonical forms) have no stacked
kernel: :func:`run_scenario_batch` runs the naive per-gate sweep of
:func:`repro.core.spsta.run_spsta` once per scenario — the same sweep
``run_spsta(engine="fast")`` runs for them — and hands back the same
:class:`SweepResult`.

Memory scaling
--------------

A grid sweep holds one ``(n_scenarios, bins)`` block per occurring net
direction: ``keep="all"`` retains every net (full differential
comparisons), ``keep="endpoints"`` frees interior blocks after their
last fan-out level so peak memory follows the live frontier instead of
the whole netlist.  ``repro.lint`` rule SP204 estimates the
``n_scenarios × bins × nets`` footprint up front.

Equivalence of a batch with the same scenarios run one at a time is
pinned by ``tests/test_scenario_batch.py`` and the conformance harness
(``batched-vs-fast`` / ``batched-vs-mc`` policies): bit-exact for the
closed-form algebras, within 1e-12 weights / 1e-9 moments for grids.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import (
    Callable,
    Dict,
    List,
    Mapping,
    NamedTuple,
    Optional,
    Sequence,
    Tuple,
    Union,
)

import numpy as np

from repro.core.corners import STANDARD_CORNERS, Corner, ScaledDelay
from repro.core.delay import DelayModel, UnitDelay
from repro.core.inputs import CONFIG_I, InputStats, Prob4
from repro.core.probability import gate_prob4
from repro.core.profiling import SpstaProfile
from repro.core.spsta import (
    MAX_PARITY_FANIN,
    GridAlgebra,
    MomentAlgebra,
    NetTops,
    SpstaResult,
    TopAlgebra,
    _delay_for,
    _harvest_kernel_counters,
    check_parity_fanin,
    launch_tops,
    run_spsta,
    validate_parity_fanins,
)
from repro.core.spsta_fast import (
    MAX_DP_ROWS,
    WeightTableCache,
    _ControllingJob,
    _convolve_matrix,
    _GridContext,
    _mix_rows,
    _run_controlling_jobs,
    _subset_dp,
    _wrap_top,
    subset_lattice,
)
from repro.logic.gates import GateSpec, GateType, gate_spec
from repro.netlist.core import Gate, Netlist
from repro.stats.grid import cdf_rows, trapezoid_rows
from repro.stats.normal import Normal

__all__ = [
    "Scenario",
    "SweepResult",
    "CompiledNetlist",
    "compile_netlist",
    "derate_corners",
    "scenarios_from_corners",
    "scenarios_from_stats",
    "run_scenario_batch",
    "run_scenarios_looped",
]


# ---------------------------------------------------------------------------
# Scenario description and builders.
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Scenario:
    """One operating point of a sweep: input statistics + delay model.

    Scenarios sharing equal ``stats`` batch into one stacked pass (their
    subset weights and occurrence patterns coincide); the delay model is
    free to vary per scenario — corner scaling, MIS models, per-gate
    perturbations.
    """

    name: str
    stats: Union[InputStats, Mapping[str, InputStats]]
    delay_model: DelayModel = UnitDelay()


def derate_corners(start: float = 0.8, stop: float = 1.25, count: int = 8,
                   sigma_scale: float = 1.0,
                   prefix: str = "derate") -> Tuple[Corner, ...]:
    """A linear grid of ``count`` delay-scale corners over [start, stop]."""
    if count < 1:
        raise ValueError("count must be >= 1")
    scales = np.linspace(start, stop, count)
    return tuple(Corner(f"{prefix}-{i:03d}", float(scale), sigma_scale)
                 for i, scale in enumerate(scales))


def scenarios_from_corners(
        corners: Sequence[Corner] = STANDARD_CORNERS,
        base_model: DelayModel = UnitDelay(),
        stats: Union[InputStats, Mapping[str, InputStats]] = CONFIG_I,
) -> Tuple[Scenario, ...]:
    """One scenario per corner, wrapping ``base_model`` in the corner's
    :class:`~repro.core.corners.ScaledDelay`."""
    return tuple(Scenario(c.name, stats, ScaledDelay(base_model, c))
                 for c in corners)


def scenarios_from_stats(
        stats_by_name: Mapping[str, Union[InputStats,
                                          Mapping[str, InputStats]]],
        delay_model: DelayModel = UnitDelay()) -> Tuple[Scenario, ...]:
    """One scenario per named input-statistics configuration (the
    Table 3 CONFIG I / CONFIG II style sweep)."""
    return tuple(Scenario(name, stats, delay_model)
                 for name, stats in stats_by_name.items())


# ---------------------------------------------------------------------------
# Netlist compilation: the scenario-independent tensor program.
# ---------------------------------------------------------------------------

#: Gate-kernel ids: single-input copy (BUFF/NOT), parity joint
#: enumeration (XOR/XNOR), Eq. 11 subset enumeration (AND/OR cores).
KIND_COPY = 0
KIND_PARITY = 1
KIND_SUBSET = 2


class GateRecord(NamedTuple):
    """One gate lowered to its execution kernel."""

    gate: Gate
    spec: GateSpec
    kind: int
    inverting: bool
    is_and_core: bool


@dataclass(frozen=True)
class CompiledNetlist:
    """Scenario-independent program for one netlist.

    ``levels`` holds the kernel-tagged gate records in topological level
    order; ``level_nets`` the nets each level reads, in first-reference
    order (the stacked-prep gather order); ``last_use`` maps each net to
    the last level index that reads it (``keep="endpoints"`` frees a
    net's scenario block right after that level).
    """

    netlist: Netlist
    parity_cap: int
    levels: Tuple[Tuple[GateRecord, ...], ...]
    level_nets: Tuple[Tuple[str, ...], ...]
    last_use: Mapping[str, int]

    @property
    def n_gates(self) -> int:
        return sum(len(level) for level in self.levels)


def compile_netlist(netlist: Netlist, *,
                    max_parity_fanin: Optional[int] = None
                    ) -> CompiledNetlist:
    """Lower a netlist to its :class:`CompiledNetlist` program.

    Pays levelization, kernel classification, and parity-fan-in
    validation once; every :func:`run_scenario_batch` call over any
    number of scenarios reuses the result.
    """
    parity_cap = (MAX_PARITY_FANIN if max_parity_fanin is None
                  else max_parity_fanin)
    validate_parity_fanins(netlist, parity_cap)
    levels: List[Tuple[GateRecord, ...]] = []
    level_nets: List[Tuple[str, ...]] = []
    last_use: Dict[str, int] = {}
    for li, level in enumerate(netlist.levels):
        records = []
        for gate in level:
            spec = gate_spec(gate.gate_type)
            if gate.gate_type in (GateType.BUFF, GateType.NOT):
                kind = KIND_COPY
            elif spec.is_parity:
                kind = KIND_PARITY
            else:
                kind = KIND_SUBSET
            records.append(GateRecord(gate, spec, kind, spec.inverting,
                                      spec.controlling_value == 0))
        nets = tuple(dict.fromkeys(src for gate in level
                                   for src in gate.inputs))
        for src in nets:
            last_use[src] = li
        levels.append(tuple(records))
        level_nets.append(nets)
    return CompiledNetlist(netlist, parity_cap, tuple(levels),
                           tuple(level_nets), last_use)


# ---------------------------------------------------------------------------
# Sweep driver.
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SweepResult:
    """All per-scenario results of one batched sweep.

    ``results[i]`` corresponds to ``scenarios[i]``; every result shares
    the sweep's algebra and :class:`~repro.core.profiling.SpstaProfile`.
    """

    netlist_name: str
    scenarios: Tuple[Scenario, ...]
    results: Tuple[SpstaResult, ...]
    profile: SpstaProfile
    compile_seconds: float
    execute_seconds: float

    def __len__(self) -> int:
        return len(self.results)

    def __getitem__(self, index: int) -> SpstaResult:
        return self.results[index]

    def result_for(self, name: str) -> SpstaResult:
        """The result of the scenario named ``name``."""
        for scenario, result in zip(self.scenarios, self.results):
            if scenario.name == name:
                return result
        raise KeyError(name)


def run_scenario_batch(netlist: Netlist,
                       scenarios: Sequence[Scenario],
                       algebra: Optional[TopAlgebra] = None,
                       *,
                       compiled: Optional[CompiledNetlist] = None,
                       profile: Optional[SpstaProfile] = None,
                       max_parity_fanin: Optional[int] = None,
                       keep: str = "all") -> SweepResult:
    """Execute N scenarios over one netlist as a batched sweep.

    Results match running each scenario on its own
    (``run_spsta(..., engine="fast")``): bit-exactly for the closed-form
    algebras, which run the naive sweep once per scenario, and within grid
    rounding (1e-12 weights / 1e-9 moments) for :class:`GridAlgebra`,
    whose scenarios sharing input statistics run as one stacked walk —
    see ``tests/test_scenario_batch.py``.

    ``compiled`` reuses a :func:`compile_netlist` program across sweeps;
    ``keep`` is ``"all"`` (every net's TOPs in every result) or
    ``"endpoints"`` (grid algebra: interior blocks are freed after their
    last use, results retain launch points and endpoints only).
    """
    scenarios = tuple(scenarios)
    if not scenarios:
        raise ValueError("run_scenario_batch needs at least one scenario")
    if keep not in ("all", "endpoints"):
        raise ValueError(f"keep must be 'all' or 'endpoints', got {keep!r}")
    if algebra is None:
        algebra = MomentAlgebra()
    if profile is None:
        profile = SpstaProfile()
    profile.engine = "scenario"
    profile.algebra = type(algebra).__name__
    profile.circuit = netlist.name
    profile.scenarios = len(scenarios)

    t0 = time.perf_counter()
    if compiled is None:
        with profile.phase("compile"):
            compiled = compile_netlist(netlist,
                                       max_parity_fanin=max_parity_fanin)
    else:
        if compiled.netlist is not netlist:
            raise ValueError(
                "compiled program belongs to a different netlist")
        if (max_parity_fanin is not None
                and max_parity_fanin != compiled.parity_cap):
            raise ValueError(
                "max_parity_fanin disagrees with the compiled program")
    compile_seconds = time.perf_counter() - t0
    profile.levels = len(compiled.levels)

    t1 = time.perf_counter()
    if isinstance(algebra, GridAlgebra):
        results = _run_grid_scenarios(compiled, scenarios, algebra, profile,
                                      keep)
    else:
        results = [run_spsta(netlist, scenario.stats, scenario.delay_model,
                             algebra, engine="naive", profile=profile,
                             max_parity_fanin=compiled.parity_cap)
                   for scenario in scenarios]
        profile.engine = "scenario"
    execute_seconds = time.perf_counter() - t1
    _harvest_kernel_counters(algebra, profile)
    return SweepResult(netlist.name, scenarios, tuple(results), profile,
                       compile_seconds, execute_seconds)


def run_scenarios_looped(netlist: Netlist,
                         scenarios: Sequence[Scenario],
                         algebra_factory: Optional[
                             Callable[[], TopAlgebra]] = None,
                         *,
                         max_parity_fanin: Optional[int] = None
                         ) -> List[SpstaResult]:
    """Reference loop: one full ``run_spsta(engine="fast")`` per scenario.

    For :class:`GridAlgebra` each call runs this module's walker as a
    batch of one, so comparing it with :func:`run_scenario_batch` checks
    that batching N scenarios gives the same results as running them one
    at a time.  Kept as that differential-test oracle and as the
    benchmark baseline (``BENCH_scenario_sweep.json``).
    """
    if algebra_factory is None:
        algebra_factory = MomentAlgebra
    return [run_spsta(netlist, scenario.stats, scenario.delay_model,
                      algebra_factory(), engine="fast",
                      max_parity_fanin=max_parity_fanin)
            for scenario in scenarios]


# ---------------------------------------------------------------------------
# Grid algebra: the stacked (scenario, net, bin) executor.
# ---------------------------------------------------------------------------

_GroupOut = List[Tuple[Dict[str, Prob4], Dict[str, NetTops]]]

#: Boundary launch points pre-seeded with upstream ``(Prob4, NetTops)``
#: (see :func:`repro.core.spsta.run_spsta`).
_Seeds = Optional[Mapping[str, Tuple[Prob4, NetTops]]]


def _run_grid_scenarios(compiled: CompiledNetlist,
                        scenarios: Sequence[Scenario],
                        algebra: GridAlgebra, profile: SpstaProfile,
                        keep: str) -> List[SpstaResult]:
    """Every grid scenario of a sweep, one stacked walk per stats group.

    Scenarios sharing input statistics share weights, occurrence
    patterns and probabilities, so each group runs as one walk.
    """
    groups: List[Tuple[object, List[int]]] = []
    for idx, scenario in enumerate(scenarios):
        for stats, idxs in groups:
            if stats == scenario.stats:
                idxs.append(idx)
                break
        else:
            groups.append((scenario.stats, [idx]))

    name = compiled.netlist.name
    wcache = WeightTableCache()
    results: Dict[int, SpstaResult] = {}
    for stats, idxs in groups:
        models = [scenarios[i].delay_model for i in idxs]
        group_out = _run_grid_group(compiled, stats, models, algebra,
                                    wcache, profile, keep)
        for i, (prob4, tops) in zip(idxs, group_out):
            results[i] = SpstaResult(name, algebra, prob4, tops, profile)
    profile.weight_table_hits = wcache.hits
    profile.weight_table_misses = wcache.misses
    return [results[i] for i in range(len(scenarios))]


#: Per-(net, direction) state of a group: occurrence weight (scalar —
#: statistics-dependent only, shared by every scenario) and the
#: ``(n_scenarios, bins)`` block of conditional density rows (``None``
#: when the transition never occurs).
_Blocks = Dict[Tuple[str, int], Optional[np.ndarray]]

#: Phase A output for one occurring gate direction: per-scenario items,
#: each a deferred :class:`_ControllingJob` or a resolved
#: ``(total, expected, [(delay, row), ...])`` terms tuple.
_DirItems = Optional[List[object]]


def _run_grid_group(compiled: CompiledNetlist, stats, models,
                    algebra: GridAlgebra, wcache: WeightTableCache,
                    profile: SpstaProfile, keep: str = "all",
                    seed_tops: _Seeds = None) -> _GroupOut:
    """Grid scenarios of one stats group as one stacked sweep."""
    netlist = compiled.netlist
    grid = algebra.grid
    b = len(models)
    ctx = _GridContext(grid=grid, kernel_cache=algebra.kernel_cache,
                       wcache=wcache, parity_cap=compiled.parity_cap,
                       profile=profile)
    any_mis = any(hasattr(model, "delay_mis") for model in models)
    gate_delays = None if any_mis else _group_gate_delays(models)
    prob4: Dict[str, Prob4] = {}
    launch: Dict[str, NetTops] = {}
    with profile.phase("launch"):
        launch_tops(netlist, stats, algebra, prob4, launch, seeds=seed_tops)
    weights: Dict[Tuple[str, int], float] = {}
    blocks: _Blocks = {}
    for net, tops in launch.items():
        for d, top in ((0, tops.rise), (1, tops.fall)):
            weights[(net, d)] = top.weight
            blocks[(net, d)] = (
                np.broadcast_to(top.conditional.values, (b, grid.n))
                if top.occurs else None)
    endpoints = frozenset(netlist.endpoints)

    for li, level in enumerate(compiled.levels):
        _run_grid_level(compiled, li, prob4, weights, blocks, models, ctx,
                        any_mis, gate_delays, keep == "endpoints")
        profile.gates_processed += len(level) * b
        if keep == "endpoints":
            for net in compiled.level_nets[li]:
                if (compiled.last_use.get(net) == li
                        and net not in endpoints):
                    blocks.pop((net, 0), None)
                    blocks.pop((net, 1), None)

    names = list(launch)
    names.extend(record.gate.name for level in compiled.levels
                 for record in level)
    kept = [name for name in names if (name, 0) in blocks]
    out: _GroupOut = []
    for s in range(b):
        tops_s: Dict[str, NetTops] = {}
        for name in kept:
            if name in launch:        # shared by every scenario
                tops_s[name] = launch[name]
                continue
            rise_blk = blocks[(name, 0)]
            fall_blk = blocks[(name, 1)]
            tops_s[name] = NetTops(
                _wrap_top(grid, (weights[(name, 0)], rise_blk[s])
                          if rise_blk is not None else None),
                _wrap_top(grid, (weights[(name, 1)], fall_blk[s])
                          if fall_blk is not None else None))
        out.append((prob4, tops_s))
    return out


def _run_grid_level(compiled: CompiledNetlist, li: int,
                    prob4: Dict[str, Prob4],
                    weights: Dict[Tuple[str, int], float], blocks: _Blocks,
                    models, ctx: _GridContext, any_mis: bool,
                    gate_delays, trim: bool) -> None:
    """One level of the stacked sweep: writes each gate's probabilities,
    occurrence weights and ``(scenario, bin)`` blocks.

    A call of its own so the level's prep, DP, convolution and mix
    temporaries die on return instead of staying alive while the next
    level builds its own.  With ``trim`` (``keep="endpoints"``) each
    block is copied out of the level's mix matrix, so freeing the
    interior blocks frees the matrix; otherwise blocks stay views.
    """
    level = compiled.levels[li]
    b = len(models)
    profile = ctx.profile
    for record in level:
        gate = record.gate
        prob4[gate.name] = gate_prob4(
            gate.gate_type, [prob4[src] for src in gate.inputs])

    with profile.phase("subset-eval"):
        prep = _prepare_blocks(compiled.level_nets[li], blocks, b,
                               ctx.grid.dt)
        pending: List[_ControllingJob] = []
        templates: Optional[List[_SubsetTemplate]] = (
            None if any_mis else [])
        gate_dirs: List[Tuple[str, Tuple[object, object]]] = []
        for record in level:
            gate_dirs.append(
                (record.gate.name,
                 _phase_a_gate(record, prob4, weights, prep, models,
                               b, ctx, pending, templates, gate_delays)))
        # Each stage's arrays are dropped once the next stage holds what
        # it needs: the largest level's live set is the run's peak memory.
        del prep
        if templates:
            _run_subset_templates(templates, b, ctx)
        _run_controlling_jobs(pending, ctx)

        # Phase B layout: (gate, direction)-major, scenario-minor —
        # each occurring direction owns B consecutive segments.
        rows: List[np.ndarray] = []
        delays: List[Normal] = []
        counts: List[int] = []
        expected: List[float] = []
        order: List[Tuple[str, int]] = []
        ones_b = [1] * b
        for name, dirs in gate_dirs:
            for direction, items in enumerate(dirs):
                if items is None:
                    weights[(name, direction)] = 0.0
                    blocks[(name, direction)] = None
                    continue
                if isinstance(items, _SubsetTemplate):
                    items = items.items
                if isinstance(items, _DirBlock):
                    rows.append(items.block)
                    delays.extend(items.delays)
                    counts.extend(ones_b)
                    expected.extend([items.expected] * b)
                    weights[(name, direction)] = items.total
                    order.append((name, direction))
                    continue
                total = None
                for item in items:
                    if isinstance(item, _ControllingJob):
                        seg_total = item.total
                        seg_expected = item.total
                        dir_rows = list(item.acc.values())
                    else:
                        seg_total, seg_expected, dir_rows = item
                    counts.append(len(dir_rows))
                    expected.append(seg_expected)
                    for delay, row in dir_rows:
                        delays.append(delay)
                        rows.append(row)
                    if total is None:
                        total = seg_total
                weights[(name, direction)] = total
                order.append((name, direction))
        del gate_dirs, pending, templates

    if not rows:
        return
    with profile.phase("convolve"):
        matrix = np.vstack(rows)
        del rows
        out = _convolve_matrix(matrix, delays, ctx)
        del matrix
    with profile.phase("mix"):
        mixed = _mix_rows(out, counts, np.asarray(expected), ctx)
        del out
    seg = 0
    for name, direction in order:
        block = mixed[seg:seg + b]
        blocks[(name, direction)] = block.copy() if trim else block
        seg += b


def _prepare_blocks(nets: Sequence[str], blocks: _Blocks, b: int,
                    dt: float) -> Dict[Tuple[str, int],
                                       Tuple[np.ndarray, np.ndarray]]:
    """Normalize every referenced block of a level in one stacked pass.

    All ``(scenario, bin)`` rows of all referenced net directions vstack
    into one matrix for normalization and CDF accumulation, so each net
    pays once per level regardless of fanout (the naive path
    re-normalizes and re-integrates operands inside every pairwise MAX).
    """
    slots: List[Tuple[str, int]] = []
    stacks: List[np.ndarray] = []
    for net in nets:
        for d in (0, 1):
            block = blocks[(net, d)]
            if block is not None:
                slots.append((net, d))
                stacks.append(block)
    prep: Dict[Tuple[str, int], Tuple[np.ndarray, np.ndarray]] = {}
    if not stacks:
        return prep
    stack = np.vstack(stacks)
    ints = trapezoid_rows(stack, dt)
    if np.any(ints <= 0.0):
        raise ValueError("cannot normalize an empty density")
    stack /= ints[:, None]
    cdfs = cdf_rows(stack, dt)
    for i, slot in enumerate(slots):
        prep[slot] = (stack[i * b:(i + 1) * b], cdfs[i * b:(i + 1) * b])
    return prep


def _phase_a_gate(record: GateRecord, prob4: Mapping[str, Prob4],
                  weights: Mapping[Tuple[str, int], float], prep, models,
                  b: int, ctx: _GridContext,
                  pending: List[_ControllingJob],
                  templates: Optional[List["_SubsetTemplate"]] = None,
                  gate_delays=None) -> Tuple[_DirItems, _DirItems]:
    """Kernel dispatch for one gate across every scenario of the group.

    Occurrence (whether a direction has items) depends only on the
    group's statistics, so it is uniform across scenarios; the items
    themselves carry per-scenario rows and delays.
    """
    gate = record.gate
    if gate_delays is not None:
        delay_fors = gate_delays(gate)
    else:
        delay_fors = [_delay_for(model, gate) for model in models]
    if record.kind == KIND_COPY:
        dirs = _copy_items(gate, weights, prep, delay_fors, b)
        if record.inverting:
            dirs = (dirs[1], dirs[0])
        return dirs
    if record.kind == KIND_PARITY:
        # spec.inverting is applied inside the parity enumeration, so no
        # swap here.
        in_probs = [prob4[src] for src in gate.inputs]
        entry_blocks = [_parity_entry(src, weights, prep)
                        for src in gate.inputs]
        return _batched_parity(record, in_probs, entry_blocks, delay_fors,
                               b, ctx, mis=templates is None)
    dirs = _subset_items(record, prob4, weights, prep, delay_fors, b, ctx,
                         pending, templates)
    if record.inverting:
        dirs = (dirs[1], dirs[0])
    return dirs


def _constant_delay(delay: Normal):
    """Popcount-independent kernel closure (constant-delay models)."""
    def delay_for(n_switching: int) -> Normal:
        return delay
    return delay_for


def _group_gate_delays(models):
    """Per-gate kernel closures for a constant-delay group, in one pass.

    A corner sweep wraps one shared base model in per-corner
    :class:`~repro.core.corners.ScaledDelay`\\ s; evaluating the base
    once per gate and applying each corner's scales replicates
    ``ScaledDelay.delay``'s arithmetic operation-for-operation, so the
    kernels stay bit-identical to per-scenario evaluation.  Gates
    sharing a base delay (every gate, for the homogeneous paper models)
    share one memoized closure list.
    """
    first = models[0]
    if (type(first) is ScaledDelay
            and all(type(m) is ScaledDelay and m.base is first.base
                    for m in models)):
        base = first.base
        corners = [m.corner for m in models]
        memo: Dict[Tuple[float, float], List] = {}

        def scaled(gate: Gate) -> List:
            d = base.delay(gate)
            key = (d.mu, d.sigma)
            hit = memo.get(key)
            if hit is None:
                hit = memo[key] = [
                    _constant_delay(Normal(d.mu * c.delay_scale,
                                           d.sigma * c.delay_scale
                                           * c.sigma_scale))
                    for c in corners]
            return hit

        return scaled

    memo_g: Dict[Tuple[Tuple[float, float], ...], List] = {}

    def generic(gate: Gate) -> List:
        delays = [model.delay(gate) for model in models]
        key = tuple((d.mu, d.sigma) for d in delays)
        hit = memo_g.get(key)
        if hit is None:
            hit = memo_g[key] = [_constant_delay(d) for d in delays]
        return hit

    return generic


class _DirBlock:
    """One gate direction whose scenarios each carry a single kernel row.

    The common case (constant-delay kernels): a whole ``(scenario, bin)``
    block plus one delay kernel per scenario, consumed by phase B as
    ``b`` consecutive single-row segments without per-scenario item
    tuples.  ``expected`` is the per-segment post-convolution mass.
    """

    __slots__ = ("total", "expected", "delays", "block")

    def __init__(self, total: float, expected: float,
                 delays: Sequence[Normal], block: np.ndarray) -> None:
        self.total = total
        self.expected = expected
        self.delays = delays
        self.block = block


def _copy_items(gate: Gate, weights, prep, delay_fors,
                b: int) -> Tuple[_DirItems, _DirItems]:
    """BUFF/NOT: one normalized row per scenario per occurring direction.

    A single term per direction: the final per-segment normalization is
    scale-invariant, so no retention correction is needed and the row
    stays a normalized pdf (expected post-convolution mass 1.0)."""
    src = gate.inputs[0]
    dirs: List[_DirItems] = []
    for d in (0, 1):
        weight = weights[(src, d)]
        entry = prep.get((src, d))
        if weight <= 0.0 or entry is None:
            dirs.append(None)
            continue
        dirs.append(_DirBlock(weight, 1.0,
                              [delay_fors[s](1) for s in range(b)],
                              entry[0]))
    return dirs[0], dirs[1]


def _batched_parity(record: GateRecord, in_probs: Sequence[Prob4],
                    entry_blocks: Sequence[tuple], delay_fors, b: int,
                    ctx: _GridContext, mis: bool = True
                    ) -> Tuple[_DirItems, _DirItems]:
    """Cross-scenario parity (XOR/XNOR) enumeration via 3^k prefixes.

    Equivalent to the naive 4^k four-value enumeration: non-switching
    inputs collapse into an (even, odd) static-ones parity weight pair,
    switching inputs extend a shared MAX-fold prefix.  The output
    direction follows the initial-value parity (falls start at 1),
    inverted for XNOR.  The enumeration tree and its parity weights
    depend only on the group's statistics, so the recursion runs once
    per gate and every MAX fold processes all scenarios' ``(scenario,
    bin)`` blocks as one stacked row operation.
    """
    spec = record.spec
    k = len(in_probs)
    check_parity_fanin(k, ctx.parity_cap)
    dt = ctx.grid.dt
    rise_terms: List[Tuple[float, int, np.ndarray]] = []
    fall_terms: List[Tuple[float, int, np.ndarray]] = []

    options = []
    for i, p in enumerate(in_probs):
        rw, rp, rc, fw, fp, fc = entry_blocks[i]
        options.append((
            p,
            (rp, rc) if (p.p_rise > 0.0 and rw > 0.0
                         and rp is not None) else None,
            (fp, fc) if (p.p_fall > 0.0 and fw > 0.0
                         and fp is not None) else None,
        ))

    def fold(state: Optional[Tuple[np.ndarray, np.ndarray]],
             cond: Tuple[np.ndarray, np.ndarray],
             ) -> Tuple[np.ndarray, np.ndarray]:
        # State: (normalized pdf, cdf) blocks of the shared fold prefix.
        if state is None:
            return cond
        pa, ca = state
        pb, cb = cond
        raw = pa * cb + pb * ca
        ints = trapezoid_rows(raw, dt)
        if np.any(ints <= 0.0):
            raise ValueError("cannot normalize an empty density")
        pdf = raw / ints[:, None]
        ctx.profile.max_folds += b
        return pdf, cdf_rows(pdf, dt)

    def recurse(i: int, even_w: float, odd_w: float,
                state: Optional[Tuple[np.ndarray, np.ndarray]],
                n_switch: int) -> None:
        if even_w <= 0.0 and odd_w <= 0.0:
            return
        if i == k:
            if n_switch == 0 or n_switch % 2 == 0:
                return
            block = state[0]
            rise_w, fall_w = ((even_w, odd_w) if not spec.inverting
                              else (odd_w, even_w))
            if rise_w > 0.0:
                rise_terms.append((rise_w, n_switch, block))
            if fall_w > 0.0:
                fall_terms.append((fall_w, n_switch, block))
            return
        p, rise_cond, fall_cond = options[i]
        # Static 0 keeps the parity, static 1 flips it.
        recurse(i + 1, even_w * p.p_zero + odd_w * p.p_one,
                even_w * p.p_one + odd_w * p.p_zero, state, n_switch)
        if rise_cond is not None:   # rise starts at 0: parity unchanged
            recurse(i + 1, even_w * p.p_rise, odd_w * p.p_rise,
                    fold(state, rise_cond), n_switch + 1)
        if fall_cond is not None:   # fall starts at 1: parity flips
            recurse(i + 1, odd_w * p.p_fall, even_w * p.p_fall,
                    fold(state, fall_cond), n_switch + 1)

    recurse(0, 1.0, 0.0, None, 0)
    ctx.profile.parity_terms += (len(rise_terms) + len(fall_terms)) * b

    kernel_memo: Dict[int, Tuple[List[Normal], np.ndarray]] = {}

    def kernels_for(pop: int) -> Tuple[List[Normal], np.ndarray]:
        # Constant-delay models ignore the popcount, so all terms of a
        # non-MIS group share one kernel stack per gate.
        key = pop if mis else 1
        hit = kernel_memo.get(key)
        if hit is None:
            delays = [delay_fors[s](pop) for s in range(b)]
            hit = (delays, np.stack([ctx.retention(d) for d in delays]))
            kernel_memo[key] = hit
        return hit

    def collapse(terms: List[Tuple[float, int, np.ndarray]]) -> _DirItems:
        if not terms:
            return None
        total = 0.0
        if not mis:
            # Single kernel per scenario: accumulate one premixed block.
            delays, rstack = kernels_for(1)
            acc_block: Optional[np.ndarray] = None
            for w, pop, block in terms:
                total += w
                retained = np.einsum("sn,sn->s", block, rstack)
                if np.any(retained <= 0.0):
                    raise ValueError("cannot normalize an empty density")
                ctx.record_mass(w * (1.0 - retained), np.full(b, w),
                                "parity convolution")
                contrib = (w / retained)[:, None] * block
                acc_block = (contrib if acc_block is None
                             else acc_block + contrib)
            return _DirBlock(total, total, delays, acc_block)
        accs: List[Dict[Tuple[float, float],
                        Tuple[Normal, np.ndarray]]] = [{} for _ in range(b)]
        for w, pop, block in terms:
            total += w
            delays, rstack = kernels_for(pop)
            retained = np.einsum("sn,sn->s", block, rstack)
            if np.any(retained <= 0.0):
                raise ValueError("cannot normalize an empty density")
            ctx.record_mass(w * (1.0 - retained), np.full(b, w),
                            "parity convolution")
            contrib = (w / retained)[:, None] * block
            for s in range(b):
                delay = delays[s]
                key = (delay.mu, delay.sigma)
                prev = accs[s].get(key)
                accs[s][key] = (delay, contrib[s] if prev is None
                                else prev[1] + contrib[s])
        return [(total, total, list(acc.values())) for acc in accs]

    return collapse(rise_terms), collapse(fall_terms)


def _parity_entry(src: str, weights, prep):
    """Per-direction (weight, pdf block, cdf block) of one parity input."""
    rise = prep.get((src, 0))
    fall = prep.get((src, 1))
    return (weights[(src, 0)],
            rise[0] if rise is not None else None,
            rise[1] if rise is not None else None,
            weights[(src, 1)],
            fall[0] if fall is not None else None,
            fall[1] if fall is not None else None)


class _SubsetTemplate:
    """One AND/OR-core gate direction shared by a whole scenario group.

    Candidate selection, the static factor and the packed Eq. 11 weight
    table depend only on the group's statistics; ``pdf_blocks`` /
    ``cdf_blocks`` carry every scenario's rows, ``delays`` the one delay
    kernel each scenario applies to every subset (constant-delay models
    only — MIS models take the per-scenario job path instead).
    ``items`` is filled by :func:`_run_subset_templates`.
    """

    __slots__ = ("k", "use_max", "weights", "pdf_blocks", "cdf_blocks",
                 "delays", "items")

    def __init__(self, k: int, use_max: bool, weights: np.ndarray,
                 pdf_blocks: List[np.ndarray], cdf_blocks: List[np.ndarray],
                 delays: List[Normal]) -> None:
        self.k = k
        self.use_max = use_max
        self.weights = weights
        self.pdf_blocks = pdf_blocks
        self.cdf_blocks = cdf_blocks
        self.delays = delays
        self.items: List[object] = []


def _subset_items(record: GateRecord, prob4, weights, prep, delay_fors,
                  b: int, ctx: _GridContext,
                  pending: List[_ControllingJob],
                  templates: Optional[List[_SubsetTemplate]]
                  ) -> Tuple[_DirItems, _DirItems]:
    """AND/OR cores: one deferred cross-scenario subset DP per direction.

    With constant-delay models (``templates`` is a list) each direction
    becomes one :class:`_SubsetTemplate` whose DP and retention premix
    run fully stacked across scenarios; with MIS-aware models each
    scenario gets its own :class:`_ControllingJob` (the subset delay
    varies per popcount) and ``_run_controlling_jobs`` still batches the
    jobs of all gates and scenarios of the level.
    """
    gate = record.gate
    in_probs = [prob4[src] for src in gate.inputs]
    is_and_core = record.is_and_core
    dirs: List[object] = []
    for which, use_max in ((0, is_and_core), (1, not is_and_core)):
        candidates: List[int] = []
        static_factor = 1.0
        for i, p in enumerate(in_probs):
            switch_p = p.p_rise if which == 0 else p.p_fall
            slot = (gate.inputs[i], which)
            if switch_p > 0.0 and weights[slot] > 0.0 and slot in prep:
                candidates.append(i)
            else:
                static_factor *= p.p_one if is_and_core else p.p_zero
        if static_factor <= 0.0 or not candidates:
            dirs.append(None)
            continue
        switch = tuple((in_probs[i].p_rise if which == 0
                        else in_probs[i].p_fall) for i in candidates)
        static = tuple((in_probs[i].p_one if is_and_core
                        else in_probs[i].p_zero) for i in candidates)
        weight_vec = static_factor * ctx.wcache.table(switch, static)
        if not (weight_vec > 0.0).any():
            dirs.append(None)
            continue
        k = len(candidates)
        pdf_blocks = [prep[(gate.inputs[i], which)][0] for i in candidates]
        cdf_blocks = [prep[(gate.inputs[i], which)][1] for i in candidates]
        if templates is not None:
            template = _SubsetTemplate(
                k, use_max, weight_vec, pdf_blocks, cdf_blocks,
                [delay_fors[s](1) for s in range(b)])
            templates.append(template)
            dirs.append(template)
            continue
        items: List[object] = []
        for s in range(b):
            job = _ControllingJob(k, use_max, weight_vec,
                                  [blk[s] for blk in pdf_blocks],
                                  [blk[s] for blk in cdf_blocks],
                                  delay_fors[s])
            pending.append(job)
            items.append(job)
        dirs.append(items)
    return dirs[0], dirs[1]


def _run_subset_templates(templates: Sequence[_SubsetTemplate], b: int,
                          ctx: _GridContext) -> None:
    """Stacked subset DP + retention premix for a level's templates.

    The cross-scenario analogue of ``_run_controlling_jobs``: templates
    sharing a lattice stack their scenarios' rows into
    ``(template*scenario, fanin, bins)`` operand arrays one
    MAX_DP_ROWS-bounded DP chunk at a time, and each row's single delay
    kernel turns the retention premix into two einsums.  Per-row math
    matches the job path exactly (``_subset_dp`` rows are independent);
    totals replicate ``_finish_jobs``' naive mask-order summation.
    """
    dt = ctx.grid.dt
    n = ctx.grid.n
    groups: Dict[Tuple[int, bool], List[_SubsetTemplate]] = {}
    for template in templates:
        groups.setdefault((template.k, template.use_max), []).append(template)
    for (k, use_max), group in groups.items():
        lat = subset_lattice(k)
        masks = (1 << k) - 1
        rows_total = len(group) * b
        pre = np.empty((rows_total, n))
        # Chunk by element count, not row count: MAX_DP_ROWS bounds the
        # (rows, masks) node table for n=2048 grids, and coarser grids
        # afford proportionally more rows per DP call.
        chunk = max(1, (MAX_DP_ROWS * 2048) // (masks * n))
        for lo in range(0, rows_total, chunk):
            hi = min(lo + chunk, rows_total)
            pdfs = np.empty((hi - lo, k, n))
            cdfs = np.empty((hi - lo, k, n))
            w = np.empty((hi - lo, masks))
            rstack = np.empty((hi - lo, n))
            # Copy the [lo, hi) slice of the template-major row order.
            for ti in range(lo // b, (hi - 1) // b + 1):
                t = group[ti]
                s_lo = max(lo - ti * b, 0)
                s_hi = min(hi - ti * b, b)
                dst = slice(ti * b + s_lo - lo, ti * b + s_hi - lo)
                for i in range(k):
                    pdfs[dst, i] = t.pdf_blocks[i][s_lo:s_hi]
                    cdfs[dst, i] = t.cdf_blocks[i][s_lo:s_hi]
                w[dst] = t.weights
                for r, delay in enumerate(t.delays[s_lo:s_hi], dst.start):
                    rstack[r] = ctx.retention(delay)
            node_pdf, _ = _subset_dp(pdfs, cdfs, lat, use_max, dt,
                                     ctx.profile)
            del pdfs, cdfs
            retained = np.einsum("rmn,rn->rm", node_pdf, rstack)
            positive = w > 0.0
            if np.any(positive & (retained <= 0.0)):
                raise ValueError("cannot normalize an empty density")
            ctx.record_mass((w * (1.0 - retained))[positive], w[positive],
                            "subset convolution")
            coef = np.where(positive, w
                            / np.where(retained > 0.0, retained, 1.0), 0.0)
            pre[lo:hi] = np.einsum("rm,rmn->rn", coef, node_pdf)
            del node_pdf
        for ti, template in enumerate(group):
            positive = template.weights[template.weights > 0.0].tolist()
            total = 0.0
            for weight in positive:     # mask order, like _finish_jobs
                total += weight
            template.items = _DirBlock(total, total, template.delays,
                                       pre[ti * b:(ti + 1) * b])
            ctx.profile.subset_terms += len(positive) * b
