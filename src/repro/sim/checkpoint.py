"""Crash-safe checkpointing for the sharded Monte Carlo engines.

Each completed shard is one :mod:`repro.diskstore` entry file,
``shard_{index:05d}.pkl``: a header line (run ``key``, shard ``index``,
``n_trials``, ``sha256``), then the pickled per-net accumulators and
:class:`~repro.sim.parallel.ShardReport`.  The ``manifest.json`` marker
holds the format, version and run :class:`CheckpointKey`, written once
per directory.  Writes are atomic, so a kill never leaves a half-written
shard, and resuming is a directory listing.

The key pins everything the merged statistics depend on — root seed,
circuit structure, input statistics, delay model, trial budget, shard
plan, and the delay draw rule — so a resume against another run, or a
shard written by one, raises :class:`CheckpointMismatchError` and is
never merged.  A damaged shard or a version-1 directory (one manifest
listing every shard) raises :class:`CheckpointCorruptError`.  Unlike the
caches, the store never deletes a file it cannot trust.

Because each shard's trial stream depends only on (root seed, shard
index) and the merge is a fixed-order left fold, a run resumed from any
subset of checkpointed shards is bit-identical to an uninterrupted run —
the differential guarantee ``tests/test_faults.py`` enforces.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass
import json
from pathlib import Path
import pickle
from typing import Dict, Mapping, Optional, Tuple, Union

import numpy as np

from repro.core.delay import DelayModel
from repro.core.inputs import InputStats
from repro.diskstore import (
    MANIFEST_NAME,
    EntryError,
    atomic_write_bytes,
    check_entry,
    discard,
    write_entry,
)
from repro.fingerprint import (
    circuit_fingerprint,
    delay_fingerprint,
    seed_fingerprint,
    stats_fingerprint,
    value_fingerprint,
)
from repro.netlist.core import Netlist
from repro.sim.accumulator import NetAccumulator
from repro.sim.faults import maybe_exit_after_persist
from repro.sim.parallel import ShardReport

MANIFEST_FORMAT = "spsta-mc-checkpoint"
MANIFEST_VERSION = 2
SHARD_GLOB = "shard_*.pkl"

#: Version of the Monte Carlo delay draw rule: which normals a shard
#: draws from its seed.  Rule 1 drew one per gate per trial; rule 2 draws
#: one per switching trial.  Shards drawn under another rule hold another
#: random stream, so they never merge into a "bit-exact" resume.
DRAW_RULE = 2

#: One loaded shard: its accumulator dict and its execution report.
ShardCheckpoint = Tuple[Dict[str, NetAccumulator], ShardReport]


class CheckpointError(RuntimeError):
    """Base class for checkpoint-store failures."""


class CheckpointMismatchError(CheckpointError):
    """The directory holds checkpoints of a *different* run (seed,
    circuit, configuration, shard plan, or draw rule differ)."""


class CheckpointCorruptError(CheckpointError):
    """A manifest or shard failed validation (bad JSON, an old layout,
    checksum mismatch, unpicklable payload, unexpected contents)."""


@dataclass(frozen=True)
class CheckpointKey:
    """Everything the merged statistics are a pure function of."""

    circuit: str
    circuit_hash: str
    root_seed: str
    n_trials: int
    shards: int
    stats_hash: str
    delay_hash: str
    draw_rule: int = DRAW_RULE

    @classmethod
    def build(cls, netlist: Netlist,
              stats: Union[InputStats, Mapping[str, InputStats]],
              delay_model: DelayModel,
              root_seed: Optional[np.random.SeedSequence],
              n_trials: int, shards: int) -> "CheckpointKey":
        return cls(circuit=netlist.name,
                   circuit_hash=circuit_fingerprint(netlist),
                   root_seed=seed_fingerprint(root_seed),
                   n_trials=n_trials,
                   shards=shards,
                   stats_hash=stats_fingerprint(stats),
                   delay_hash=delay_fingerprint(delay_model))


class CheckpointStore:
    """One run's checkpoint directory (see module docstring).

    All writes happen in the *parent* process (via the executor's
    ``on_result`` hook), so the store needs no cross-process locking.
    """

    def __init__(self, directory: Union[str, Path],
                 key: CheckpointKey) -> None:
        self.directory = Path(directory)
        self.key = key
        self.run_key = value_fingerprint(key)

    def shard_path(self, index: int) -> Path:
        return self.directory / f"shard_{index:05d}.pkl"

    def open(self, resume: bool) -> Dict[int, ShardCheckpoint]:
        """Prepare the directory; return already-completed shards.

        A directory without a marker gets one.  Without ``resume`` the
        shards of a matching run are discarded; a marker for a
        *different* run always raises :class:`CheckpointMismatchError`.
        """
        self.directory.mkdir(parents=True, exist_ok=True)
        path = self.directory / MANIFEST_NAME
        expected = asdict(self.key)
        try:
            marker = json.loads(path.read_text())
        except FileNotFoundError:
            marker = {"format": MANIFEST_FORMAT, "version": MANIFEST_VERSION,
                      "key": expected}
            atomic_write_bytes(
                path, (json.dumps(marker, indent=2) + "\n").encode())
        except (OSError, ValueError) as exc:
            raise CheckpointCorruptError(
                f"unreadable checkpoint manifest {path}: {exc}") from exc
        version = (marker.get("version") if isinstance(marker, dict)
                   and marker.get("format") == MANIFEST_FORMAT else None)
        if version != MANIFEST_VERSION or not isinstance(
                marker.get("key"), dict):
            old = (" (it is the version-1 layout, one manifest listing "
                   "every shard, which is no longer read)"
                   if version == 1 else "")
            raise CheckpointCorruptError(
                f"{path} is not a {MANIFEST_FORMAT} v{MANIFEST_VERSION} "
                f"manifest{old}; delete the directory or pick another")
        recorded = marker["key"]
        if recorded != expected:
            lines = [f"  {name}: checkpoint has {recorded.get(name)!r}, "
                     f"this run has {expected.get(name)!r}"
                     for name in sorted(set(expected) | set(recorded))
                     if recorded.get(name) != expected.get(name)]
            raise CheckpointMismatchError(
                "checkpoint directory belongs to a different run — "
                "refusing to merge stale shards:\n" + "\n".join(lines))
        shards = sorted(self.directory.glob(SHARD_GLOB))
        if not resume:
            for shard in shards:
                discard(shard)
            return {}
        return dict(self._load_shard(shard) for shard in shards)

    def save_shard(self, index: int,
                   accumulators: Dict[str, NetAccumulator],
                   report: ShardReport) -> None:
        """Persist one completed shard as one atomic entry write, then
        fire the kill switch with the number of shards on disk."""
        write_entry(self.shard_path(index), self.run_key,
                    pickle.dumps((accumulators, report),
                                 protocol=pickle.HIGHEST_PROTOCOL),
                    index=index, n_trials=report.n_trials)
        maybe_exit_after_persist(
            sum(1 for _ in self.directory.glob(SHARD_GLOB)))

    def _load_shard(self, path: Path) -> Tuple[int, ShardCheckpoint]:
        try:
            header, payload = check_entry(path, self.run_key)
        except EntryError as exc:
            if exc.check == "key":
                raise CheckpointMismatchError(
                    f"{path} holds a shard of a different run — refusing "
                    f"to merge it") from exc
            raise CheckpointCorruptError(
                f"{exc}; the checkpoint is corrupt — delete the "
                f"directory and re-run") from exc
        try:
            accumulators, report = pickle.loads(payload)
        except Exception as exc:  # noqa: BLE001 - any unpickle failure
            raise CheckpointCorruptError(
                f"shard {path} does not unpickle: {exc}") from exc
        if (not isinstance(accumulators, dict)
                or not isinstance(report, ShardReport)
                or report.index != header.get("index")
                or report.n_trials != header.get("n_trials")
                or path != self.shard_path(report.index)):
            raise CheckpointCorruptError(
                f"shard {path} has unexpected contents")
        return report.index, (accumulators, report)
