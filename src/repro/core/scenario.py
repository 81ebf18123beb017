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
- **stacked subset-eval** — a lean per-gate pass queues each AND/OR-core
  direction's candidates (their rows in the level's prep stack, switch
  and static probabilities, static factor) on its ``(fanin, MAX/MIN)``
  group; each group then runs as whole-level arrays for every scenario
  and delay model alike: one array product builds the Eq. 11 weight
  tables, a gather copies each operand into the mask-major node tables,
  the subset-lattice DP folds in place, and BLAS ``matmul`` premixes
  one row per delay kernel (one per row for constant delays, one per
  distinct popcount kernel for MIS-aware models) with the kernels of
  :mod:`repro.core.spsta_fast`;
- **parity prefix enumeration** — XOR/XNOR joint enumeration collapses
  the 4^k four-value assignments to the 3^k (static / rise / fall)
  patterns, tracking the static-ones parity as an (even, odd) weight
  pair and sharing MAX-fold prefixes; each direction's terms premix as
  one stack;
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
    _convolve_matrix,
    _GridContext,
    _mix_rows,
    _subset_dp,
    _wrap_top,
    subset_lattice,
    subset_weight_tables,
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
    results: Dict[int, SpstaResult] = {}
    for stats, idxs in groups:
        models = [scenarios[i].delay_model for i in idxs]
        group_out = _run_grid_group(compiled, stats, models, algebra,
                                    profile, keep)
        for i, (prob4, tops) in zip(idxs, group_out):
            results[i] = SpstaResult(name, algebra, prob4, tops, profile)
    return [results[i] for i in range(len(scenarios))]


#: Per-(net, direction) state of a group: occurrence weight (scalar —
#: statistics-dependent only, shared by every scenario) and the
#: ``(n_scenarios, bins)`` block of conditional density rows (``None``
#: when the transition never occurs).
_Blocks = Dict[Tuple[str, int], Optional[np.ndarray]]

def _run_grid_group(compiled: CompiledNetlist, stats, models,
                    algebra: GridAlgebra, profile: SpstaProfile,
                    keep: str = "all",
                    seed_tops: _Seeds = None) -> _GroupOut:
    """Grid scenarios of one stats group as one stacked sweep."""
    netlist = compiled.netlist
    grid = algebra.grid
    b = len(models)
    ctx = _GridContext(grid=grid, kernel_cache=algebra.kernel_cache,
                       parity_cap=compiled.parity_cap, profile=profile)
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
        groups: Dict[Tuple[int, bool], _SubsetGroup] = {}
        gate_dirs: List[Tuple[str, Tuple[_Dir, _Dir]]] = []
        for record in level:
            gate_dirs.append(
                (record.gate.name,
                 _phase_a_gate(record, prob4, weights, prep, models, b,
                               ctx, groups, any_mis, gate_delays)))
        for (k, use_max), group in groups.items():
            _run_subset_group(group, k, use_max, prep, b, any_mis, ctx)
        # Each stage's arrays are dropped once the next stage holds what
        # it needs: the largest level's live set is the run's peak memory.
        del groups, prep

        # Phase B layout: (gate, direction)-major, scenario-minor —
        # each occurring direction owns B consecutive segments.
        rows: List[np.ndarray] = []
        delays: List[Normal] = []
        counts: List[int] = []
        expected: List[float] = []
        order: List[Tuple[str, int]] = []
        ones_b = [1] * b
        for name, dirs in gate_dirs:
            for direction, item in enumerate(dirs):
                if item is None or item.block is None:
                    weights[(name, direction)] = 0.0
                    blocks[(name, direction)] = None
                    continue
                rows.append(item.block)
                delays.extend(item.delays)
                counts.extend(ones_b if item.counts is None
                              else item.counts)
                expected.extend([item.expected] * b)
                weights[(name, direction)] = item.total
                order.append((name, direction))
        del gate_dirs

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


class _Prep(NamedTuple):
    """A level's normalized operands: the ``pdf``/``cdf`` row stacks of
    every referenced net direction's ``(scenario, bin)`` block, and the
    first stack row of each direction's block (``offsets``)."""

    pdf: np.ndarray
    cdf: np.ndarray
    offsets: Dict[Tuple[str, int], int]
    b: int

    def get(self, slot: Tuple[str, int]
            ) -> Optional[Tuple[np.ndarray, np.ndarray]]:
        """The ``(pdf, cdf)`` blocks of one net direction, or ``None``."""
        start = self.offsets.get(slot)
        if start is None:
            return None
        return (self.pdf[start:start + self.b],
                self.cdf[start:start + self.b])


def _prepare_blocks(nets: Sequence[str], blocks: _Blocks, b: int,
                    dt: float) -> _Prep:
    """Normalize every referenced block of a level in one stacked pass.

    All ``(scenario, bin)`` rows of all referenced net directions vstack
    into one matrix for normalization and CDF accumulation, so each net
    pays once per level regardless of fanout (the naive path
    re-normalizes and re-integrates operands inside every pairwise MAX).
    """
    offsets: Dict[Tuple[str, int], int] = {}
    stacks: List[np.ndarray] = []
    for net in nets:
        for d in (0, 1):
            block = blocks[(net, d)]
            if block is not None:
                offsets[(net, d)] = len(stacks) * b
                stacks.append(block)
    if not stacks:
        empty = np.empty((0, 0))
        return _Prep(empty, empty, offsets, b)
    stack = np.vstack(stacks)
    ints = trapezoid_rows(stack, dt)
    if np.any(ints <= 0.0):
        raise ValueError("cannot normalize an empty density")
    stack /= ints[:, None]
    return _Prep(stack, cdf_rows(stack, dt), offsets, b)


def _phase_a_gate(record: GateRecord, prob4: Mapping[str, Prob4],
                  weights: Mapping[Tuple[str, int], float], prep: _Prep,
                  models, b: int, ctx: _GridContext,
                  groups: Dict[Tuple[int, bool], "_SubsetGroup"],
                  mis: bool, gate_delays=None) -> Tuple[_Dir, _Dir]:
    """Kernel dispatch for one gate across every scenario of the group.

    Occurrence (whether a direction has items) depends only on the
    group's statistics, so it is uniform across scenarios; the items
    themselves carry per-scenario rows and delays.  AND/OR-core
    directions are only queued here; :func:`_run_subset_group` fills
    them in.
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
                               b, ctx, mis)
    dirs = _collect_subset(record, prob4, weights, prep, delay_fors, groups)
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
    """One gate direction's premixed rows across every scenario.

    ``block`` stacks the rows scenario by scenario, ``delays`` gives each
    row's kernel, and ``counts`` how many rows each scenario owns (``None``
    for one each -- every constant-delay direction).  Phase B consumes
    them as ``b`` consecutive segments.  ``expected`` is the
    per-segment post-convolution mass.  An AND/OR-core direction is
    queued with ``block`` unset; it stays absent if no Eq. 11 weight is
    positive.
    """

    __slots__ = ("total", "expected", "delays", "block", "counts")

    def __init__(self, total: float, expected: float,
                 delays: Optional[Sequence[Normal]],
                 block: Optional[np.ndarray],
                 counts: Optional[List[int]] = None) -> None:
        self.total = total
        self.expected = expected
        self.delays = delays
        self.block = block
        self.counts = counts


#: Phase A output for one gate direction (``None``: never occurs).
_Dir = Optional[_DirBlock]


def _copy_items(gate: Gate, weights, prep: _Prep, delay_fors,
                b: int) -> Tuple[_Dir, _Dir]:
    """BUFF/NOT: one normalized row per scenario per occurring direction.

    A single term per direction: the final per-segment normalization is
    scale-invariant, so no retention correction is needed and the row
    stays a normalized pdf (expected post-convolution mass 1.0)."""
    src = gate.inputs[0]
    dirs: List[_Dir] = []
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


def _kernel_id(delay: Normal, kernels: List[Normal],
               index: Dict[Tuple[float, float], int]) -> int:
    """Number ``delay`` among a premix's distinct kernels."""
    key = (delay.mu, delay.sigma)
    i = index.get(key)
    if i is None:
        i = index[key] = len(kernels)
        kernels.append(delay)
    return i


def _kernel_slots(kid: np.ndarray
                  ) -> Tuple[Optional[np.ndarray], np.ndarray]:
    """Number each row's distinct kernels in first-use order.

    ``kid[r, c]`` is the kernel id of class ``c`` (a popcount, or a
    parity term) in row ``r``.  Returns ``(slots, slot_kid)``:
    ``slots[r, c]`` is the slot of ``kid[r, c]`` among row ``r``'s
    distinct kernels and ``slot_kid[r, j]`` the kernel of slot ``j`` (-1
    past the row's last); ``slots`` is ``None`` when no row has more
    than one kernel.
    """
    first = (kid[:, :, None] == kid[:, None, :]).argmax(axis=2)
    new = first == np.arange(kid.shape[1])
    rank = np.cumsum(new, axis=1) - 1
    slot_kid = np.full((kid.shape[0], int(rank[:, -1].max()) + 1), -1)
    r, c = np.nonzero(new)
    slot_kid[r, rank[r, c]] = kid[r, c]
    if slot_kid.shape[1] == 1:
        return None, slot_kid
    return np.take_along_axis(rank, first, axis=1), slot_kid


def _premix_terms(nodes: np.ndarray, w: np.ndarray,
                  slots: Optional[np.ndarray], slot_kid: np.ndarray,
                  kernels: Sequence[Normal], ctx: _GridContext,
                  operation: str
                  ) -> Tuple[np.ndarray, np.ndarray, Optional[np.ndarray]]:
    """Retention-corrected premix of a stack of weighted terms.

    ``nodes[t, r]`` is a normalized term density with weight ``w[r, t]``
    and delay kernel ``kernels[slot_kid[r, slots[r, t]]]`` (slot 0 when
    ``slots`` is ``None``).  Each term is divided by the mass its
    kernel's convolution retains on the grid, so one convolution of the
    premixed row equals convolving and renormalizing every term; the
    off-grid loss of a term is ``w * (1 - retained)``.  Convolution is
    linear, so the terms sharing a kernel premix into one row with BLAS
    ``matmul``.  Returns the rows (row-major, slot-minor, only slots
    with a positive weight), each row's kernel id, and the rows per
    input row (``None``: one each).
    """
    n = nodes.shape[2]
    table = np.stack([ctx.retention(d) for d in kernels]
                     + [np.zeros(n)])               # row -1: unused slot
    by_row = nodes.transpose(1, 0, 2)       # (rows, terms, n) BLAS view
    if len(kernels) == 1:      # one retention vector for every term: a gemv
        retained = (nodes.reshape(-1, n) @ table[0]).reshape(
            nodes.shape[:2]).T
    else:
        retained = np.zeros(w.shape)
        for j in range(slot_kid.shape[1]):
            part = np.matmul(by_row, table[slot_kid[:, j], :, None])
            np.copyto(retained, part[..., 0],
                      where=True if slots is None else slots == j)
    positive = w > 0.0
    if np.any(positive & (retained <= 0.0)):
        raise ValueError("cannot normalize an empty density")
    ctx.record_mass((w * (1.0 - retained))[positive], w[positive],
                    operation)
    coef = np.where(positive,
                    w / np.where(retained > 0.0, retained, 1.0), 0.0)
    if slots is None:
        return np.matmul(coef[:, None, :], by_row)[:, 0], slot_kid[:, 0], None
    parts = []
    used = np.empty(slot_kid.shape, dtype=bool)
    for j in range(slot_kid.shape[1]):
        in_slot = slots == j
        parts.append(np.matmul(np.where(in_slot, coef, 0.0)[:, None, :],
                               by_row)[:, 0])
        used[:, j] = (in_slot & positive).any(axis=1)
    return np.stack(parts, axis=1)[used], slot_kid[used], used.sum(axis=1)


def _batched_parity(record: GateRecord, in_probs: Sequence[Prob4],
                    entry_blocks: Sequence[tuple], delay_fors, b: int,
                    ctx: _GridContext, mis: bool) -> Tuple[_Dir, _Dir]:
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
    # ``recurse`` refers to itself through its closure; clearing the
    # cell breaks that cycle, so the level's operand stacks its options
    # hold are freed on return, not at the next cyclic collection.
    del recurse
    ctx.profile.parity_terms += (len(rise_terms) + len(fall_terms)) * b

    def collapse(terms: List[Tuple[float, int, np.ndarray]]) -> _Dir:
        # One stacked premix of every term of every scenario.
        if not terms:
            return None
        total = 0.0
        for w, _, _ in terms:
            total += w
        nodes = np.stack([block for _, _, block in terms])
        w = np.broadcast_to(np.array([term[0] for term in terms]),
                            (b, len(terms)))
        kernels: List[Normal] = []
        index: Dict[Tuple[float, float], int] = {}
        pops = [pop if mis else 1 for _, pop, _ in terms]
        by_pop = {pop: [_kernel_id(delay_fors[s](pop), kernels, index)
                        for s in range(b)] for pop in dict.fromkeys(pops)}
        slots, slot_kid = _kernel_slots(
            np.array([by_pop[pop] for pop in pops]).T)
        rows, kid, counts = _premix_terms(nodes, w, slots, slot_kid, kernels,
                                          ctx, "parity convolution")
        return _DirBlock(total, total, [kernels[i] for i in kid], rows,
                         None if counts is None else counts.tolist())

    return collapse(rise_terms), collapse(fall_terms)


def _parity_entry(src: str, weights, prep: _Prep):
    """Per-direction (weight, pdf block, cdf block) of one parity input."""
    rise = prep.get((src, 0))
    fall = prep.get((src, 1))
    return (weights[(src, 0)],
            rise[0] if rise is not None else None,
            rise[1] if rise is not None else None,
            weights[(src, 1)],
            fall[0] if fall is not None else None,
            fall[1] if fall is not None else None)


#: A level's queued AND/OR-core directions of one ``(fanin, use_max)``,
#: as parallel lists: each direction's :class:`_DirBlock`; one ``(prep
#: offset, switch probability, static probability)`` triple per
#: candidate, flattened; the static factor of the other inputs; every
#: scenario's delay closure.
_SubsetGroup = Tuple[List[_DirBlock], List[float], List[float],
                     List[Sequence]]


def _collect_subset(record: GateRecord, prob4, weights, prep: _Prep,
                    delay_fors, groups: Dict[Tuple[int, bool], _SubsetGroup]
                    ) -> Tuple[_Dir, _Dir]:
    """AND/OR cores: queue each direction on its ``(fanin, use_max)`` group.

    The candidate rule is the naive ``_subset_terms``': an input whose
    switching probability and block in the direction are both present;
    every other input multiplies its static probability into the static
    factor, in input order.
    """
    is_and_core = record.is_and_core
    offsets = prep.offsets
    candidates: Tuple[List[float], List[float]] = ([], [])
    factors = [1.0, 1.0]
    for src in record.gate.inputs:
        p = prob4[src]
        static_p = p.p_one if is_and_core else p.p_zero
        for which, switch_p in ((0, p.p_rise), (1, p.p_fall)):
            start = offsets.get((src, which))
            if (switch_p > 0.0 and start is not None
                    and weights[(src, which)] > 0.0):
                candidates[which].extend((start, switch_p, static_p))
            else:
                factors[which] *= static_p
    dirs: List[_Dir] = []
    for which, use_max in ((0, is_and_core), (1, not is_and_core)):
        if factors[which] <= 0.0 or not candidates[which]:
            dirs.append(None)
            continue
        key = (len(candidates[which]) // 3, use_max)
        group = groups.get(key)
        if group is None:
            group = groups[key] = ([], [], [], [])
        item = _DirBlock(0.0, 0.0, None, None)
        group[0].append(item)
        group[1].extend(candidates[which])
        group[2].append(factors[which])
        group[3].append(delay_fors)
        dirs.append(item)
    return dirs[0], dirs[1]


def _run_subset_group(group: _SubsetGroup, k: int, use_max: bool,
                      prep: _Prep, b: int, mis: bool,
                      ctx: _GridContext) -> None:
    """Eq. 11 for one ``(fanin, use_max)`` group of a level, fully stacked.

    Rows are (direction, scenario) pairs.  The weight tables are one
    array product (:func:`~repro.core.spsta_fast.subset_weight_tables`)
    and the totals sum them in mask order, both bit-identical to the
    naive fold.  Per ``MAX_DP_ROWS``-bounded chunk, ``np.take`` copies
    the operand rows from the level's prep stacks into the mask-major
    node tables' singleton blocks, the DP folds in place, and the
    retention premix leaves one row per delay kernel per row: one row
    for constant-delay models, one per distinct popcount kernel for
    MIS-aware ones.
    """
    items, candidates, factors, delay_fors = group
    cand = np.array(candidates).reshape(len(items), k, 3)
    weights = np.array(factors)[:, None] * subset_weight_tables(
        cand[:, :, 1], cand[:, :, 2])
    live = np.nonzero((weights > 0.0).any(axis=1))[0]
    if live.size == 0:
        return
    weights = weights[live]
    dirs = [items[g] for g in live]
    offsets = cand[live, :, 0].astype(np.int64)
    delay_fors = [delay_fors[g] for g in live]
    positive = weights > 0.0
    totals = np.zeros(len(dirs))
    for column in np.where(positive, weights, 0.0).T:   # mask order
        totals += column
    ctx.profile.subset_terms += int(positive.sum()) * b

    lat = subset_lattice(k)
    # Kernel ids per (row, popcount); gates sharing one list of delay
    # closures (every gate of a homogeneous constant-delay model) share
    # their ids.
    pops = range(1, k + 1) if mis else (1,)
    kernels: List[Normal] = []
    index: Dict[Tuple[float, float], int] = {}
    memo: Dict[int, List[List[int]]] = {}
    for fors in delay_fors:
        if id(fors) not in memo:
            memo[id(fors)] = [[_kernel_id(fors[s](c), kernels, index)
                               for c in pops] for s in range(b)]
    slots, slot_kid = _kernel_slots(np.array(
        [memo[id(fors)] for fors in delay_fors]).reshape(-1, len(pops)))
    if slots is not None:
        slots = slots[:, lat.pop - 1]
    # Rows are (direction, scenario) pairs, direction-major.
    idx = (offsets[:, None, :] + np.arange(b)[None, :, None]).reshape(-1, k)
    row_w = np.repeat(weights, b, axis=0)
    n = ctx.grid.n
    masks = (1 << k) - 1
    # Chunk by element count: MAX_DP_ROWS bounds the (masks, rows) node
    # table for n=2048 grids, and coarser grids afford more rows.
    chunk = max(1, (MAX_DP_ROWS * 2048) // (masks * n))
    pieces = []
    for lo in range(0, len(idx), chunk):
        hi = min(lo + chunk, len(idx))
        node_pdf = np.empty((masks, hi - lo, n))
        node_cdf = np.empty((1 << (k - 1), hi - lo, n))
        for i in range(k):
            # Offsets always index the prep stacks, so "clip" only skips
            # the buffered copy that the default bounds check makes.
            single = (1 << i) - 1
            np.take(prep.pdf, idx[lo:hi, i], axis=0, out=node_pdf[single],
                    mode="clip")
            np.take(prep.cdf, idx[lo:hi, i], axis=0, out=node_cdf[single],
                    mode="clip")
        _subset_dp(node_pdf, node_cdf, lat, use_max, ctx.grid.dt,
                   ctx.profile)
        del node_cdf
        pieces.append(_premix_terms(
            node_pdf, row_w[lo:hi], None if slots is None else slots[lo:hi],
            slot_kid[lo:hi], kernels, ctx, "subset convolution"))
        del node_pdf
    if len(pieces) == 1:
        rows, kid, counts = pieces[0]
    else:
        rows = np.concatenate([piece[0] for piece in pieces])
        kid = np.concatenate([piece[1] for piece in pieces])
        counts = (None if slots is None
                  else np.concatenate([piece[2] for piece in pieces]))
    delays = [kernels[i] for i in kid]
    if counts is None:
        starts = range(len(idx) + 1)
    else:
        counts = counts.tolist()
        starts = [0, *np.cumsum(counts).tolist()]
    for g, (item, total) in enumerate(zip(dirs, totals.tolist())):
        lo, hi = starts[g * b], starts[(g + 1) * b]
        item.total = item.expected = total
        item.delays = delays[lo:hi]
        item.block = rows[lo:hi]
        if counts is not None:
            item.counts = counts[g * b:(g + 1) * b]
