"""Vectorized four-value Monte Carlo timing simulator.

All trials propagate simultaneously as numpy arrays.  Per-gate-family rules
(derived in DESIGN.md and validated against :mod:`repro.sim.reference`):

- AND core: output rises at the LAST rising input (MAX), falls at the FIRST
  falling input (MIN); inverting variants relabel the output direction.
- OR core: the mirror image (rise = MIN over rising, fall = MAX over falling).
- Parity (XOR core): the output toggles at every switching input; it
  transitions iff initial and final parity differ, settling at the LAST
  switching input (MAX over all switching inputs).
- Glitches are filtered by initial/final evaluation, matching the paper's
  "we do not count glitch" (Sec. 4).

Gate delays come from the :class:`~repro.core.delay.DelayModel`.  Each
gate is evaluated at its mean delay; a non-zero delay sigma then adds an
independent Gaussian deviation on the trials where the gate's output
switches, the only trials a delay can move (:func:`_draw_delays`).  A
sigma-0 model draws nothing.

One gate kernel (:func:`_stream_gate`) runs every trial, and every run
returns a :class:`StreamResult`.  Each wave is folded into O(1)-per-net
sufficient statistics (:mod:`repro.sim.accumulator`) as soon as it is
computed, and the kernel reuses retired trial buffers.  The two modes
differ only in what they keep:

- ``mode="waves"`` (default) is one shard that keeps every net's per-trial
  arrays — O(nets x trials) memory, full waveform access.
- ``mode="stream"`` retires each wave once its last consumer has read it,
  optionally sharding the trial budget over a process pool
  (:mod:`repro.sim.parallel`).  A one-shard stream run draws the same
  random stream as ``mode="waves"``, so the two give bit-identical
  statistics on the same seed.
"""

from __future__ import annotations

import dataclasses
import math
from pathlib import Path
import time as _time
from typing import Dict, List, Mapping, Optional, Sequence, Set, Tuple, Union

import numpy as np

from repro.core.delay import DelayModel, UnitDelay
from repro.core.inputs import InputStats
from repro.logic.gates import GateType, gate_spec
from repro.netlist.core import Gate, Netlist
from repro.sim.accumulator import (
    DirectionStats,
    NetAccumulator,
    merge_accumulators,
)
from repro.sim.checkpoint import CheckpointKey, CheckpointStore
from repro.sim.faults import FaultInjector
from repro.sim.parallel import (
    RetryPolicy,
    ShardPlan,
    ShardReport,
    WaveMemoryMeter,
    plan_shards,
    run_shards_resilient,
    seed_sequence_of,
)
from repro.sim.sampler import LaunchSample, sample_launch_points

__all__ = [
    "DirectionStats",
    "StreamResult",
    "run_monte_carlo",
]


def run_monte_carlo(netlist: Netlist,
                    stats: Union[InputStats, Mapping[str, InputStats]],
                    n_trials: int = 10_000,
                    delay_model: DelayModel = UnitDelay(),
                    rng: Optional[np.random.Generator] = None,
                    samples: Optional[Dict[str, LaunchSample]] = None,
                    mode: str = "waves",
                    shards: int = 1,
                    workers: int = 1,
                    keep_nets: Sequence[str] = (),
                    retry: Optional[RetryPolicy] = None,
                    deadline: Optional[float] = None,
                    checkpoint: Optional[Union[str, Path]] = None,
                    resume: bool = False,
                    fault_injector: Optional[FaultInjector] = None
                    ) -> StreamResult:
    """Simulate ``n_trials`` independent cycles of the whole netlist.

    Pass ``samples`` (from :func:`repro.sim.sampler.sample_launch_points`)
    to reuse a fixed set of launch draws — e.g. to compare engines on
    identical trials.

    ``mode="waves"`` runs one shard and keeps every net's waveform
    (:meth:`StreamResult.wave` answers for any net).  ``mode="stream"``
    splits the trial budget into ``shards`` chunks (each independently
    seeded via ``SeedSequence.spawn``, so results depend only on the root
    seed and shard count), executes them on up to ``workers`` processes,
    and folds them shard by shard.  Waves are retired as soon as their
    last consumer has read them; name nets in ``keep_nets`` to retain
    their full waveforms anyway.  With ``shards=1`` the statistics are
    bit-identical to ``mode="waves"`` on the same draws.

    Fault tolerance (stream mode only — see ``docs/robustness.md``):
    ``retry`` re-runs shards that fail transiently; ``checkpoint`` names a
    directory where each completed shard is atomically persisted, and
    ``resume=True`` skips shards already on disk (rejecting checkpoints
    whose seed/circuit/configuration do not match); ``deadline`` bounds
    the wall-clock budget — once expired no new shard is dispatched and
    the completed subset is merged, with
    :attr:`StreamResult.deadline_expired` set and ``n_trials`` reporting
    the *effective* trial count.  ``fault_injector`` deterministically
    injects failures for testing (:mod:`repro.sim.faults`).  None of
    these affect the merged statistics of the shards that do run: a
    retried, resumed, or re-sharded-onto-more-workers run is bit-identical
    to an uninterrupted one.
    """
    if rng is None:
        rng = np.random.default_rng(0)
    if mode == "waves":
        if shards != 1 or workers != 1 or keep_nets:
            raise ValueError("shards/workers/keep_nets require "
                             "mode='stream' (mode='waves' retains every "
                             "wave in one shard)")
        if (retry is not None or deadline is not None
                or checkpoint is not None or resume
                or fault_injector is not None):
            raise ValueError("retry/deadline/checkpoint/resume/"
                             "fault_injector require mode='stream'")
        keep_nets = netlist.nets
    elif mode != "stream":
        raise ValueError(f"mode must be 'waves' or 'stream', got {mode!r}")
    return _run_stream(netlist, stats, n_trials, delay_model, rng, samples,
                       shards, workers, tuple(keep_nets), retry, deadline,
                       checkpoint, resume, fault_injector)


def _draw_delays(delay_model: DelayModel, gate: Gate, sigma: float,
                 operands: Sequence[LaunchSample], time: np.ndarray,
                 rise: np.ndarray, fall: np.ndarray,
                 rng: np.random.Generator, mis_aware: bool) -> None:
    """Add ``gate``'s random delay to ``time`` on its switching trials.

    A delay only moves a trial whose output switches, so only those
    trials draw: one standard normal each, in gate order, so identical
    rngs consume identical streams.  The kernel already added the mean
    delay of a plain model, which leaves ``sigma * z``; a sigma-0 model
    draws nothing.  A MIS-aware model's kernel ran at delay 0, and each
    trial gets ``mu_k + sigma_k * z`` for its count k of switching inputs
    (k >= 1 wherever the output switches), matching SPSTA's per-subset
    delays exactly.
    """
    if not mis_aware and sigma == 0.0:
        return
    trials = np.flatnonzero(rise | fall)
    if not mis_aware:
        time[trials] += sigma * rng.standard_normal(trials.size)
        return
    ks = np.zeros(trials.size, dtype=np.intp)
    for o in operands:
        ks += o.init[trials] != o.final[trials]
    per_k = [delay_model.delay_mis(gate, k)  # type: ignore[attr-defined]
             for k in range(1, len(operands) + 1)]
    delays = np.array([d.mu for d in per_k])[ks - 1]
    sigmas = np.array([d.sigma for d in per_k])[ks - 1]
    if np.any(sigmas > 0.0):
        delays += sigmas * rng.standard_normal(trials.size)
    time[trials] += delays


# ---------------------------------------------------------------------------
# Streaming (memory-bounded, sharded) mode
# ---------------------------------------------------------------------------

class StreamResult:
    """Merged per-net statistics of a Monte Carlo run.

    The summary accessors (``direction_stats`` / ``signal_probability`` /
    ``toggling_rate``) are backed by O(1)-per-net accumulators.
    Waveforms exist for every net of a ``mode="waves"`` run, and for the
    nets named in ``keep_nets`` of a ``mode="stream"`` run.

    ``n_trials`` is the *effective* trial count (what the accumulators
    actually hold).  After a deadline-bounded run it can fall short of
    ``planned_trials``; ``missing_shards`` names the shards that never
    ran and :attr:`stderr_widening` is the factor by which every
    standard-error bar widens relative to the planned budget.
    """

    def __init__(self, netlist_name: str, n_trials: int,
                 accumulators: Dict[str, NetAccumulator],
                 shard_reports: Tuple[ShardReport, ...],
                 kept_waves: Dict[str, LaunchSample],
                 planned_trials: Optional[int] = None,
                 missing_shards: Tuple[int, ...] = (),
                 deadline_expired: bool = False) -> None:
        self.netlist_name = netlist_name
        self.n_trials = n_trials
        self._accumulators = accumulators
        self.shard_reports = shard_reports
        self._kept = kept_waves
        self.planned_trials = (n_trials if planned_trials is None
                               else planned_trials)
        self.missing_shards = missing_shards
        self.deadline_expired = deadline_expired

    @property
    def complete(self) -> bool:
        """Every planned shard contributed to the merged statistics."""
        return not self.missing_shards

    @property
    def stderr_widening(self) -> float:
        """Factor by which standard errors widen versus the planned
        budget: ``sqrt(planned / effective)`` (1.0 for a complete run).
        Monte Carlo standard errors scale as ``1/sqrt(n)``, so a run
        degraded to half its trials carries ``sqrt(2)``-wider bars."""
        if self.n_trials <= 0:
            return float("inf")
        return math.sqrt(self.planned_trials / self.n_trials)

    @property
    def nets(self) -> Sequence[str]:
        return tuple(self._accumulators)

    def accumulator(self, net: str) -> NetAccumulator:
        return self._accumulators[net]

    def wave(self, net: str) -> LaunchSample:
        if net not in self._kept:
            raise KeyError(
                f"net {net!r} has no retained wave: streaming mode frees "
                f"waves after accumulation; pass keep_nets=[{net!r}] to "
                f"run_monte_carlo to retain it")
        return self._kept[net]

    def direction_stats(self, net: str, direction: str) -> DirectionStats:
        """Estimate (P, mean, std) for 'rise' or 'fall' at a net."""
        return self._accumulators[net].direction_stats(direction)

    def signal_probability(self, net: str) -> float:
        return self._accumulators[net].signal_probability

    def toggling_rate(self, net: str) -> float:
        return self._accumulators[net].toggling_rate

    @property
    def total_seconds(self) -> float:
        return sum(r.seconds for r in self.shard_reports)

    @property
    def peak_wave_bytes(self) -> int:
        """Largest per-shard live-wave working set observed."""
        return max((r.peak_wave_bytes for r in self.shard_reports), default=0)

    def summary(self) -> str:
        """Human-readable run summary with per-shard counters."""
        lines = [
            f"streaming MC on {self.netlist_name}: {self.n_trials} trials, "
            f"{len(self.shard_reports)} shard(s), "
            f"{self.total_seconds * 1e3:.1f} ms shard CPU, "
            f"peak waves {self.peak_wave_bytes / 1024:.0f} KiB"]
        if not self.complete:
            cause = ("deadline expired" if self.deadline_expired
                     else "shards missing")
            lines.append(
                f"  PARTIAL ({cause}): {self.n_trials} of "
                f"{self.planned_trials} planned trials "
                f"({len(self.missing_shards)} shard(s) not run); "
                f"standard errors ~{self.stderr_widening:.2f}x wider")
        lines.extend("  " + r.format() for r in self.shard_reports)
        return "\n".join(lines)


class _BufferPool:
    """Recycles retired per-trial arrays so the hot loop stops allocating."""

    __slots__ = ("n_trials", "_bools", "_floats")

    def __init__(self, n_trials: int) -> None:
        self.n_trials = n_trials
        self._bools: List[np.ndarray] = []
        self._floats: List[np.ndarray] = []

    def take_bool(self) -> np.ndarray:
        return self._bools.pop() if self._bools else np.empty(
            self.n_trials, dtype=bool)

    def take_float(self) -> np.ndarray:
        return self._floats.pop() if self._floats else np.empty(
            self.n_trials, dtype=np.float64)

    def give(self, *arrays: np.ndarray) -> None:
        for array in arrays:
            if array.dtype == np.bool_:
                self._bools.append(array)
            else:
                self._floats.append(array)


def _stream_gate(gate_type: GateType, operands: Sequence[LaunchSample],
                 delay: float, pool: _BufferPool,
                 rise_out: np.ndarray, fall_out: np.ndarray,
                 tmp_bool: np.ndarray
                 ) -> Tuple[LaunchSample, np.ndarray, np.ndarray]:
    """One gate's output wave under the module's gate rules.

    Returns ``(wave, rise_mask, fall_mask)``; the masks live in the caller's
    scratch buffers.  The rules need no per-input switching masks because
    of two invariants: a wave's ``time`` is NaN exactly where
    ``init == final`` (so ``fmax``/``fmin`` folds see only switching
    arrivals, giving the masked MIN/MAX of the switching inputs), and
    ``NaN + delay`` stays NaN (so the glitch filter is already encoded in
    the time array).
    """
    spec = gate_spec(gate_type)
    init = pool.take_bool()
    final = pool.take_bool()
    if len(operands) == 1:
        src = operands[0]
        time = pool.take_float()
        np.add(src.time, delay, out=time)
        if spec.inverting:
            np.logical_not(src.init, out=init)
            np.logical_not(src.final, out=final)
        else:
            np.copyto(init, src.init)
            np.copyto(final, src.final)
    elif spec.is_parity:
        time = pool.take_float()
        first, second = operands[0], operands[1]
        np.logical_xor(first.init, second.init, out=init)
        np.logical_xor(first.final, second.final, out=final)
        np.fmax(first.time, second.time, out=time)
        for other in operands[2:]:
            np.logical_xor(init, other.init, out=init)
            np.logical_xor(final, other.final, out=final)
            np.fmax(time, other.time, out=time)
        np.equal(init, final, out=tmp_bool)
        time[tmp_bool] = np.nan
        np.add(time, delay, out=time)
        if spec.inverting:
            np.logical_not(init, out=init)
            np.logical_not(final, out=final)
    else:
        and_core = spec.controlling_value == 0
        fold = np.logical_and if and_core else np.logical_or
        t_max = pool.take_float()
        t_min = pool.take_float()
        first, second = operands[0], operands[1]
        fold(first.init, second.init, out=init)
        fold(first.final, second.final, out=final)
        np.fmax(first.time, second.time, out=t_max)
        np.fmin(first.time, second.time, out=t_min)
        for other in operands[2:]:
            fold(init, other.init, out=init)
            fold(final, other.final, out=final)
            np.fmax(t_max, other.time, out=t_max)
            np.fmin(t_min, other.time, out=t_min)
        np.greater(final, init, out=rise_out)
        np.greater(init, final, out=fall_out)
        # Rise settles at the MAX (AND core) / MIN (OR core) switching
        # arrival; fall at the opposite extreme.
        time, t_other = (t_max, t_min) if and_core else (t_min, t_max)
        np.copyto(time, t_other, where=fall_out)
        np.logical_or(rise_out, fall_out, out=tmp_bool)
        np.logical_not(tmp_bool, out=tmp_bool)
        time[tmp_bool] = np.nan
        np.add(time, delay, out=time)
        pool.give(t_other)
        if spec.inverting:
            np.logical_not(init, out=init)
            np.logical_not(final, out=final)
            return (LaunchSample(init=init, final=final, time=time),
                    fall_out, rise_out)
        return (LaunchSample(init=init, final=final, time=time),
                rise_out, fall_out)
    np.greater(final, init, out=rise_out)
    np.greater(init, final, out=fall_out)
    return (LaunchSample(init=init, final=final, time=time),
            rise_out, fall_out)


def _stream_shard(netlist: Netlist,
                  stats: Union[InputStats, Mapping[str, InputStats]],
                  plan: ShardPlan,
                  delay_model: DelayModel,
                  samples: Optional[Dict[str, LaunchSample]],
                  keep_nets: Tuple[str, ...],
                  rng: Optional[np.random.Generator]
                  ) -> Tuple[Dict[str, NetAccumulator],
                             Dict[str, LaunchSample], ShardReport]:
    """Run one shard: sample (unless given), propagate, fold, retire."""
    t_start = _time.perf_counter()
    n_trials = plan.n_trials
    if rng is None:
        rng = np.random.default_rng(plan.seed)
    owns_samples = samples is None
    if samples is None:
        samples = sample_launch_points(netlist, stats, n_trials, rng)
    keep: Set[str] = set(keep_nets)
    meter = WaveMemoryMeter()
    pool = _BufferPool(n_trials)
    rise_scratch = np.empty(n_trials, dtype=bool)
    fall_scratch = np.empty(n_trials, dtype=bool)
    tmp_bool = np.empty(n_trials, dtype=bool)
    time_scratch = np.empty(n_trials, dtype=np.float64)
    refs: Dict[str, int] = {}
    for gate in netlist.combinational_gates:
        for src in gate.inputs:
            refs[src] = refs.get(src, 0) + 1
    accumulators: Dict[str, NetAccumulator] = {}
    waves: Dict[str, LaunchSample] = {}
    owned: Set[str] = set()
    kept: Dict[str, LaunchSample] = {}

    def retire(net: str) -> None:
        if refs.get(net, 0) == 0 and net in waves and net not in keep:
            wave = waves.pop(net)
            meter.released(wave.init, wave.final, wave.time)
            if net in owned:
                pool.give(wave.init, wave.final, wave.time)

    for net, wave in samples.items():
        meter.allocated(wave.init, wave.final, wave.time)
        np.greater(wave.final, wave.init, out=rise_scratch)
        np.greater(wave.init, wave.final, out=fall_scratch)
        accumulators[net] = NetAccumulator.from_arrays(
            wave.init, wave.final, wave.time, rise_scratch, fall_scratch,
            time_scratch)
        waves[net] = wave
        if owns_samples:
            owned.add(net)
        if net in keep:
            kept[net] = wave
        retire(net)
    mis_aware = hasattr(delay_model, "delay_mis")
    for gate in netlist.combinational_gates:
        operands = [waves[src] for src in gate.inputs]
        delay = delay_model.delay(gate)
        wave, rise, fall = _stream_gate(
            gate.gate_type, operands, 0.0 if mis_aware else delay.mu, pool,
            rise_scratch, fall_scratch, tmp_bool)
        _draw_delays(delay_model, gate, delay.sigma, operands, wave.time,
                     rise, fall, rng, mis_aware)
        meter.allocated(wave.init, wave.final, wave.time)
        accumulators[gate.name] = NetAccumulator.from_arrays(
            wave.init, wave.final, wave.time, rise, fall, time_scratch)
        waves[gate.name] = wave
        owned.add(gate.name)
        if gate.name in keep:
            kept[gate.name] = wave
        for src in gate.inputs:
            refs[src] -= 1
            retire(src)
        retire(gate.name)
    report = ShardReport(index=plan.index, n_trials=n_trials,
                         seconds=_time.perf_counter() - t_start,
                         peak_wave_bytes=meter.peak_bytes)
    return accumulators, kept, report


#: The picklable payload handed to each shard worker.
_StreamPayload = Tuple[Netlist, Union[InputStats, Mapping[str, InputStats]],
                       ShardPlan, DelayModel,
                       Optional[Dict[str, LaunchSample]], Tuple[str, ...],
                       Optional[np.random.Generator]]

#: One shard's product: accumulators, kept waves, execution report.
_ShardResult = Tuple[Dict[str, NetAccumulator], Dict[str, LaunchSample],
                     ShardReport]


def _run_stream_shard(payload: _StreamPayload) -> _ShardResult:
    """Top-level (picklable) shard entry point for the process pool."""
    return _stream_shard(*payload)


def _slice_samples(samples: Dict[str, LaunchSample], offset: int,
                   n_trials: int) -> Dict[str, LaunchSample]:
    end = offset + n_trials
    return {net: LaunchSample(init=w.init[offset:end],
                              final=w.final[offset:end],
                              time=w.time[offset:end])
            for net, w in samples.items()}


def _run_stream(netlist: Netlist,
                stats: Union[InputStats, Mapping[str, InputStats]],
                n_trials: int,
                delay_model: DelayModel,
                rng: np.random.Generator,
                samples: Optional[Dict[str, LaunchSample]],
                shards: int,
                workers: int,
                keep_nets: Tuple[str, ...],
                retry: Optional[RetryPolicy] = None,
                deadline: Optional[float] = None,
                checkpoint: Optional[Union[str, Path]] = None,
                resume: bool = False,
                fault_injector: Optional[FaultInjector] = None
                ) -> StreamResult:
    known = set(netlist.nets)
    unknown = [net for net in keep_nets if net not in known]
    if unknown:
        raise ValueError(f"keep_nets name unknown nets: {unknown}")
    if samples is not None:
        have = next(iter(samples.values())).n_trials if samples else 0
        if have != n_trials:
            raise ValueError(
                f"samples hold {have} trials but n_trials={n_trials}")
    if resume and checkpoint is None:
        raise ValueError("resume=True requires a checkpoint directory")
    if checkpoint is not None and samples is not None:
        raise ValueError("checkpointing cannot fingerprint caller-supplied "
                         "launch samples; drop samples= or checkpoint=")
    if checkpoint is not None and keep_nets:
        raise ValueError("checkpoints persist accumulators only, so "
                         "keep_nets cannot survive a resume; drop one")
    # The store key must capture the root stream *before* plan_shards
    # spawns from it (for default_rng generators seed_sequence_of is a
    # pure read, so planning is unaffected).
    root_seed = (seed_sequence_of(rng) if checkpoint is not None else None)
    plans = plan_shards(n_trials, shards, rng)

    store: Optional[CheckpointStore] = None
    done: Dict[int, Tuple[Dict[str, NetAccumulator], ShardReport]] = {}
    if checkpoint is not None:
        key = CheckpointKey.build(netlist, stats, delay_model, root_seed,
                                  n_trials, len(plans))
        store = CheckpointStore(checkpoint, key)
        done = store.open(resume=resume)

    remaining = [plan for plan in plans if plan.index not in done]
    payloads: List[_StreamPayload] = []
    for plan in remaining:
        shard_samples = None
        if samples is not None:
            shard_samples = _slice_samples(samples, plan.offset,
                                           plan.n_trials)
        shard_rng = rng if plan.seed is None else None
        payloads.append((netlist, stats, plan, delay_model, shard_samples,
                         keep_nets, shard_rng))
    worker = (_run_stream_shard if fault_injector is None
              else fault_injector.wrap(_run_stream_shard))

    kept_parts: Dict[int, Dict[str, LaunchSample]] = {}

    def collect(position: int, result: _ShardResult, attempts: int) -> None:
        """Runs the moment a shard completes: record (and persist) it so a
        later shard failure or kill cannot lose the work."""
        accumulators, kept_waves, report = result
        if attempts != report.attempts:
            report = dataclasses.replace(report, attempts=attempts)
        index = remaining[position].index
        if store is not None:
            store.save_shard(index, accumulators, report)
        done[index] = (accumulators, report)
        if keep_nets:
            kept_parts[index] = kept_waves

    run = run_shards_resilient(worker, payloads, workers, retry=retry,
                               deadline=deadline, on_result=collect,
                               always_run_first=not done)
    if not done:
        raise RuntimeError(
            f"deadline expired before any of the {len(plans)} shards "
            f"completed; no statistics to merge — raise --deadline")
    completed = sorted(done)
    missing = tuple(plan.index for plan in plans if plan.index not in done)
    # Fixed merge order (ascending shard index) regardless of which shards
    # came from checkpoints and which just ran: the bit-exact-resume
    # guarantee.
    accumulators = merge_accumulators([done[i][0] for i in completed])
    reports = tuple(done[i][1] for i in completed)
    effective = sum(plans[i].n_trials for i in completed)
    kept: Dict[str, LaunchSample] = {}
    if keep_nets and kept_parts:
        order = [i for i in completed if i in kept_parts]
        if len(order) == 1:
            kept = kept_parts[order[0]]
        else:
            for net in keep_nets:
                parts = [kept_parts[i][net] for i in order]
                kept[net] = LaunchSample(
                    init=np.concatenate([p.init for p in parts]),
                    final=np.concatenate([p.final for p in parts]),
                    time=np.concatenate([p.time for p in parts]))
    return StreamResult(netlist.name, effective, accumulators, reports,
                        kept, planned_trials=n_trials,
                        missing_shards=missing,
                        deadline_expired=run.deadline_expired)
