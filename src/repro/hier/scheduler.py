"""Parallel region scheduler: waves, caching, dedup, stitch.

Regions run in region-DAG topological order, one *wave* (DAG depth) at a
time; all regions of a wave are mutually independent and are dispatched
onto the shard worker pool (:func:`repro.sim.parallel.run_shards_resilient`
— the PR 1/5 retry and deadline semantics carry over unchanged).  Before
dispatch each region is content-addressed (:func:`interface_key`); a hit
in the in-run memo or the optional on-disk
:class:`~repro.hier.store.InterfaceModelStore` skips the computation, and
within a run only one representative per distinct key is ever dispatched —
replicated tiles are analyzed once and their interface models translated
to each clone's net names.

Stitching is trivial by construction: every region's engine run is the
unmodified fast engine seeded with the exact upstream boundary TOPs, so
the union of the per-region results *is* the flat result (bit-exact for
the closed-form algebras; grid within batch-regrouping rounding — policy
``hier-vs-flat``).
"""

from __future__ import annotations

from dataclasses import dataclass, field
import time
from typing import Dict, List, Mapping, Optional, Sequence, Tuple, Union

from repro.core.delay import DelayModel, UnitDelay
from repro.core.inputs import InputStats, Prob4
from repro.core.profiling import SpstaProfile
from repro.core.spsta import NetTops, SpstaResult, launch_tops, run_spsta
from repro.hier.model import (
    AlgebraSpec,
    InterfaceModel,
    PinState,
    canonical_region,
    interface_key,
    region_delay_digest,
    seed_digest,
)
from repro.hier.store import InterfaceModelStore
from repro.netlist.core import Netlist
from repro.netlist.partition import (
    Partition,
    partition_netlist,
    region_view,
    subnetlist,
)
from repro.sim.faults import FaultInjector
from repro.sim.parallel import RetryPolicy, run_shards_resilient

#: Kept-pin policies: ``interface`` exports boundary/endpoint pins only
#: (memory-bounded — the million-gate mode); ``all`` keeps every region
#: net (differential testing against the flat engine).
KEEP_MODES = ("interface", "all")

#: Profile counters summed from worker profiles into the parent profile.
_MERGE_COUNTERS = (
    "gates_processed", "subset_terms", "parity_terms", "max_folds",
    "weight_table_hits", "weight_table_misses", "kernel_cache_hits",
    "kernel_cache_misses", "fft_convolutions", "direct_convolutions",
    "shift_rows", "mass_checks", "clip_events", "finite_checks",
)

#: One dispatched payload: (region index, sub-netlist, boundary seeds,
#: algebra spec, delay model, nets to keep, parity cap).
_Payload = Tuple[int, Netlist, Dict[str, PinState], AlgebraSpec,
                 DelayModel, Tuple[str, ...], Optional[int]]


def _analyze_region(payload: _Payload
                    ) -> Tuple[int, Dict[str, PinState], float,
                               SpstaProfile]:
    """Worker body: run the fast engine on one seeded region.

    Module-level and picklable so it survives the trip into a process
    pool; on the serial path it runs in-process with zero copies.
    """
    index, sub, seeds, spec, delay_model, keep_nets, parity_cap = payload
    algebra = spec.build()
    profile = SpstaProfile()
    t0 = time.perf_counter()
    result = run_spsta(sub, {}, delay_model, algebra, engine="fast",
                       profile=profile, max_parity_fanin=parity_cap,
                       seed_tops=seeds)
    seconds = time.perf_counter() - t0
    kept = {net: (result.prob4[net], result.tops[net])
            for net in keep_nets}
    return index, kept, seconds, profile


@dataclass
class RegionReport:
    """How one region's result was obtained."""

    index: int
    n_gates: int
    source: str          # "computed" | "cache" | "dedup" | "pending"
    seconds: float = 0.0
    attempts: int = 1
    key: str = ""

    def format(self) -> str:
        extra = (f", {self.attempts} attempts" if self.attempts > 1 else "")
        return (f"region {self.index}: {self.n_gates} gates, "
                f"{self.source}, {self.seconds * 1e3:.1f} ms{extra}")


@dataclass
class HierRun:
    """Outcome of one hierarchical analysis.

    ``result`` is an ordinary :class:`~repro.core.spsta.SpstaResult` over
    the merged nets (all nets with ``keep='all'``; launch points, boundary
    pins, and endpoints with ``keep='interface'``), so downstream
    consumers — reports, verification, experiments — need no new API.
    """

    result: SpstaResult
    partition: Partition
    reports: List[RegionReport] = field(default_factory=list)
    cache_hits: int = 0
    cache_misses: int = 0
    dedup_hits: int = 0
    pending_regions: Tuple[int, ...] = ()
    deadline_expired: bool = False

    @property
    def complete(self) -> bool:
        return not self.pending_regions

    def endpoint_rows(self, netlist: Netlist
                      ) -> List[Tuple[str, str, float, float, float]]:
        """(net, direction, P, mean, std) for every merged endpoint."""
        rows = []
        for net in netlist.endpoints:
            if net not in self.result.tops:
                continue      # produced by a pending region
            for direction in ("rise", "fall"):
                weight, mean, std = self.result.report(net, direction)
                rows.append((net, direction, weight, mean, std))
        return rows


def run_hier(netlist: Netlist,
             stats: Union[InputStats, Mapping[str, InputStats]],
             delay_model: DelayModel = UnitDelay(),
             algebra_spec: Optional[AlgebraSpec] = None,
             *,
             n_regions: int = 4,
             partition: Optional[Partition] = None,
             workers: int = 1,
             keep: str = "interface",
             store: Optional[InterfaceModelStore] = None,
             retry: Optional[RetryPolicy] = None,
             deadline: Optional[float] = None,
             max_parity_fanin: Optional[int] = None,
             fault_injector: Optional[FaultInjector] = None,
             profile: Optional[SpstaProfile] = None) -> HierRun:
    """Hierarchical partition-parallel SPSTA (see module docstring).

    ``deadline`` bounds the whole run in wall-clock seconds: once spent,
    no further region is dispatched and the run returns the completed
    subset with ``pending_regions`` set — together with a populated
    ``store``, a later identical call resumes from the persisted
    interface models and only recomputes what is missing.
    """
    if keep not in KEEP_MODES:
        raise ValueError(f"keep must be one of {KEEP_MODES}, got {keep!r}")
    if algebra_spec is None:
        algebra_spec = AlgebraSpec.moment()
    if profile is None:
        profile = SpstaProfile()
    profile.engine = "hier"
    profile.algebra = type(algebra_spec.build()).__name__
    profile.circuit = netlist.name
    profile.workers = workers
    algebra = algebra_spec.build()
    deadline_at = (None if deadline is None
                   else time.monotonic() + deadline)

    with profile.phase("partition"):
        if partition is None:
            partition = partition_netlist(netlist, n_regions)

    prob4: Dict[str, Prob4] = {}
    tops: Dict[str, NetTops] = {}
    with profile.phase("launch"):
        launch_tops(netlist, stats, algebra, prob4, tops)

    run = HierRun(result=SpstaResult(netlist.name, algebra, prob4, tops,
                                     profile),
                  partition=partition)
    memo: Dict[str, InterfaceModel] = {}
    to_name_maps: Dict[int, Dict[str, str]] = {}
    delay_hex_cache: Dict[str, str] = {}
    region_hex_of: Dict[str, str] = {}
    worker = (_analyze_region if fault_injector is None
              else fault_injector.wrap(_analyze_region))

    pending: List[int] = []
    expired = False
    for wave in partition.waves:
        if expired:
            pending.extend(wave)
            continue
        payloads: List[_Payload] = []
        payload_keys: List[str] = []
        dedup_waiting: Dict[str, List[int]] = {}
        for index in wave:
            region = partition.regions[index]
            # Hash the validation-free view; the (expensive) sub-netlist
            # is materialized below only if this region is dispatched.
            view = region_view(netlist, region)
            seeds = {net: (prob4[net], tops[net]) for net in view.inputs}
            region_hex, ids = canonical_region(view)
            to_name_maps[index] = {c: n for n, c in ids.items()}
            delay_hex = delay_hex_cache.get(region_hex)
            if delay_hex is None:
                delay_hex = region_delay_digest(view, delay_model)
                delay_hex_cache[region_hex] = delay_hex
            keep_nets = (region.gates if keep == "all"
                         else region.outputs)
            key = interface_key(region_hex, seed_digest(view, seeds),
                                delay_hex, algebra_spec, max_parity_fanin,
                                keep)
            region_hex_of[key] = region_hex
            model = memo.get(key)
            if model is not None:
                _merge(run, index, model, to_name_maps[index], "dedup")
                run.dedup_hits += 1
                continue
            if store is not None:
                model = store.get(key)
                if model is not None:
                    memo[key] = model
                    _merge(run, index, model, to_name_maps[index], "cache")
                    run.cache_hits += 1
                    continue
                run.cache_misses += 1
            if key in dedup_waiting:
                dedup_waiting[key].append(index)
                continue
            dedup_waiting[key] = []
            payloads.append((index, subnetlist(netlist, region), seeds,
                             algebra_spec, delay_model, keep_nets,
                             max_parity_fanin))
            payload_keys.append(key)

        if payloads:
            remaining = (None if deadline_at is None
                         else max(deadline_at - time.monotonic(), 0.0))

            def persist(position: int, value: Tuple[int, Dict[str, PinState],
                                                    float, SpstaProfile],
                        attempts: int) -> None:
                index, kept, seconds, worker_profile = value
                key = payload_keys[position]
                ids = {n: c for c, n in to_name_maps[index].items()}
                model = InterfaceModel(
                    key=key, region_digest=region_hex_of[key],
                    pins={ids[net]: state for net, state in kept.items()},
                    seconds=seconds)
                memo[key] = model
                _merge(run, index, model, to_name_maps[index], "computed",
                       seconds=seconds, attempts=attempts)
                _merge_profile(profile, worker_profile)
                for clone in dedup_waiting[key]:
                    _merge(run, clone, model, to_name_maps[clone], "dedup")
                    run.dedup_hits += 1
                if store is not None:
                    store.put(model)

            with profile.phase("schedule"):
                shard_run = run_shards_resilient(
                    worker, payloads, workers, retry=retry,
                    deadline=remaining, on_result=persist)
            if shard_run.deadline_expired:
                expired = True
                for position in shard_run.pending:
                    index = payloads[position][0]
                    pending.append(index)
                    pending.extend(dedup_waiting[payload_keys[position]])

    pending.sort()
    run.pending_regions = tuple(pending)
    run.deadline_expired = expired
    for index in pending:
        run.reports.append(RegionReport(
            index=index, n_gates=partition.regions[index].n_gates,
            source="pending"))
    run.reports.sort(key=lambda r: r.index)
    return run


def _merge(run: HierRun, index: int, model: InterfaceModel,
           to_name: Mapping[str, str], source: str,
           seconds: float = 0.0, attempts: int = 1) -> None:
    """Fold one region's pin states into the merged result."""
    for net, (pin_prob4, pin_tops) in model.translate(to_name).items():
        run.result.prob4[net] = pin_prob4        # type: ignore[index]
        run.result.tops[net] = pin_tops          # type: ignore[index]
    run.reports.append(RegionReport(
        index=index, n_gates=run.partition.regions[index].n_gates,
        source=source, seconds=seconds or model.seconds,
        attempts=attempts, key=model.key))


def _merge_profile(parent: SpstaProfile, child: SpstaProfile) -> None:
    for name in _MERGE_COUNTERS:
        setattr(parent, name, getattr(parent, name) + getattr(child, name))
    parent.clipped_mass += child.clipped_mass
    parent.max_clip_fraction = max(parent.max_clip_fraction,
                                   child.max_clip_fraction)
    parent.levels = max(parent.levels, child.levels)
    for phase, seconds in child.phase_seconds.items():
        parent.phase_seconds[phase] = (
            parent.phase_seconds.get(phase, 0.0) + seconds)
