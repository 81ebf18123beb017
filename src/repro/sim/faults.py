"""Deterministic fault injection for the sharded Monte Carlo engines.

The fault-tolerance layer (retry, checkpoint/resume, deadline — see
``docs/robustness.md``) is only trustworthy if every failure path is
exercised end to end, so this module provides the failure modes as
*injectable, reproducible* faults rather than leaving them to chance:

- :class:`CrashShard` — raise a chosen exception on a chosen shard, a
  bounded number of times (``times=1`` models a transient blip the retry
  policy must absorb; ``times=None`` a persistent failure that must
  surface as :class:`~repro.sim.parallel.ShardFailure`);
- :class:`HangShard` — stall a shard so deadline preemption is provable;
- :class:`SlowShard` — pad every shard's runtime so deadline expiry is
  reachable deterministically at test scale;
- :func:`corrupt_shard_file` — flip bytes in a persisted checkpoint so
  checksum validation is provable;
- :data:`EXIT_AFTER_ENV` — an environment-variable kill switch
  (``SPSTA_FAULT_EXIT_AFTER_SHARDS=k``) that hard-exits the process the
  moment the k-th shard checkpoint is persisted, giving tests and CI a
  deterministic "killed mid-run" process to ``--resume`` from.

Faults wrap the shard worker via :class:`FaultInjector`; everything is
picklable so injection survives the trip into a process pool.  Because
faults only raise/sleep *around* the worker (never inside its random
stream), an injected-and-retried run remains bit-identical to a clean
run — the property the differential tests lean on.
"""

from __future__ import annotations

from dataclasses import dataclass, field
import os
from pathlib import Path
import time
from typing import Callable, Optional, Tuple, Type, TypeVar, Union

from repro.sim.parallel import ShardPlan, TransientShardError

T = TypeVar("T")
R = TypeVar("R")

#: Environment variable: hard-exit (``os._exit``) with :data:`EXIT_CODE`
#: once this many shard checkpoints have been persisted.
EXIT_AFTER_ENV = "SPSTA_FAULT_EXIT_AFTER_SHARDS"

#: Exit status of the injected kill — distinguishable from a crash.
EXIT_CODE = 17


def maybe_exit_after_persist(n_completed: int) -> None:
    """Kill-switch hook called by the checkpoint store after each persist.

    A no-op unless :data:`EXIT_AFTER_ENV` is set; with it set to ``k``,
    the process hard-exits the moment ``k`` shards are on disk —
    simulating a mid-run ``kill -9`` at a deterministic point."""
    limit = os.environ.get(EXIT_AFTER_ENV)
    if limit is not None and n_completed >= int(limit):
        os._exit(EXIT_CODE)


def shard_index_of(payload: object) -> int:
    """The shard index of an executor payload.

    Understands a bare :class:`ShardPlan`, a bare int (unit tests), and
    any tuple containing a :class:`ShardPlan` (the Monte Carlo payload
    layout)."""
    if isinstance(payload, ShardPlan):
        return payload.index
    if isinstance(payload, int):
        return payload
    if isinstance(payload, tuple):
        for item in payload:
            if isinstance(item, ShardPlan):
                return item.index
    raise ValueError(
        f"cannot find a shard index in payload of type "
        f"{type(payload).__name__}")


class ShardFault:
    """Base class: hooks called around every shard execution attempt."""

    def before(self, index: int) -> None:
        """Called before the shard body runs (may raise or stall)."""

    def after(self, index: int) -> None:
        """Called after the shard body succeeded."""


@dataclass
class CrashShard(ShardFault):
    """Raise ``exc_type`` whenever shard ``index`` starts, for the first
    ``times`` attempts (``times=None``: every attempt, i.e. permanent).

    The attempt counter lives on the instance, so retries executed by the
    same process (the executor runs the retry loop pool-side) observe the
    fault exactly ``times`` times."""

    index: int
    times: Optional[int] = 1
    exc_type: Type[Exception] = TransientShardError
    fired: int = field(default=0, compare=False)

    def before(self, index: int) -> None:
        if index != self.index:
            return
        if self.times is not None and self.fired >= self.times:
            return
        self.fired += 1
        raise self.exc_type(
            f"injected crash on shard {index} (attempt {self.fired})")


@dataclass
class HangShard(ShardFault):
    """Stall shard ``index`` for ``seconds`` before it runs.

    With a deadline and ``workers > 1`` the executor abandons the hung
    shard at the budget; in serial mode the sleep simply runs (in-process
    preemption is impossible), so hang tests use the pool path."""

    index: int
    seconds: float = 60.0

    def before(self, index: int) -> None:
        if index == self.index:
            time.sleep(self.seconds)


@dataclass
class SlowShard(ShardFault):
    """Pad every shard (or one shard) by ``seconds`` — makes deadline
    expiry deterministic at test scale."""

    seconds: float = 0.2
    index: Optional[int] = None

    def before(self, index: int) -> None:
        if self.index is None or index == self.index:
            time.sleep(self.seconds)


class _InjectedWorker:
    """Picklable worker wrapper running each fault's hooks around the
    real shard body."""

    __slots__ = ("worker", "faults", "index_of")

    def __init__(self, worker: Callable[[T], R],
                 faults: Tuple[ShardFault, ...],
                 index_of: Callable[[object], int]) -> None:
        self.worker = worker
        self.faults = faults
        self.index_of = index_of

    def __call__(self, payload: T) -> R:
        index = self.index_of(payload)
        for fault in self.faults:
            fault.before(index)
        value = self.worker(payload)
        for fault in self.faults:
            fault.after(index)
        return value


class FaultInjector:
    """A bundle of shard faults that can wrap any shard worker.

    Pass one to ``run_monte_carlo(..., fault_injector=...)`` (or wrap a
    worker directly for executor-level tests)::

        injector = FaultInjector(CrashShard(index=2, times=2))
        run_monte_carlo(..., mode="stream", shards=4,
                        retry=RetryPolicy(max_attempts=3),
                        fault_injector=injector)
    """

    def __init__(self, *faults: ShardFault,
                 index_of: Callable[[object], int] = shard_index_of) -> None:
        self.faults: Tuple[ShardFault, ...] = tuple(faults)
        self.index_of = index_of

    def wrap(self, worker: Callable[[T], R]) -> Callable[[T], R]:
        return _InjectedWorker(worker, self.faults, self.index_of)


def corrupt_shard_file(directory: Union[str, Path], index: int,
                       offset: int = 0) -> Path:
    """Flip one byte of a persisted shard payload (checksum-test helper).

    ``offset`` counts from the first payload byte, past the entry's
    header line.  Returns the corrupted path; raises
    ``FileNotFoundError`` if the shard was never persisted."""
    path = Path(directory) / f"shard_{index:05d}.pkl"
    data = bytearray(path.read_bytes())
    data[data.index(b"\n") + 1 + offset] ^= 0xFF
    path.write_bytes(bytes(data))
    return path
