"""Crash-safe checkpointing for the sharded Monte Carlo engines.

A checkpoint directory holds one pickle per completed shard (the shard's
per-net :class:`~repro.sim.accumulator.NetAccumulator` dict plus its
:class:`~repro.sim.parallel.ShardReport`) and a ``manifest.json`` that
names the run they belong to.  Every write is atomic
(:func:`repro.diskstore.atomic_write_bytes`, the atomic write every
on-disk store shares: a uniquely named temporary file in the same
directory, fsync, ``os.replace``), so a run killed mid-write can never
leave a half-written shard behind the manifest's back.

The manifest key pins everything the merged statistics depend on — root
seed, circuit structure, input statistics, delay model, trial budget, and
shard plan — so a resume against the wrong run is *rejected*
(:class:`CheckpointMismatchError`), never silently merged.  Shard
payloads are checksummed (SHA-256, recorded in the manifest); externally
corrupted data raises :class:`CheckpointCorruptError`.

Because each shard's trial stream depends only on (root seed, shard
index) and the merge is a fixed-order left fold, a run resumed from any
subset of checkpointed shards is bit-identical to an uninterrupted run —
the differential guarantee ``tests/test_faults.py`` enforces.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, fields, is_dataclass
import hashlib
import json
from pathlib import Path
import pickle
from typing import Dict, Mapping, Optional, Tuple, Union

import numpy as np

from repro.core.delay import DelayModel
from repro.core.inputs import InputStats
from repro.diskstore import atomic_write_bytes
from repro.netlist.core import Netlist
from repro.sim.accumulator import NetAccumulator
from repro.sim.faults import maybe_exit_after_persist
from repro.sim.parallel import ShardReport

MANIFEST_NAME = "manifest.json"
MANIFEST_FORMAT = "spsta-mc-checkpoint"
MANIFEST_VERSION = 1

#: One loaded shard: its accumulator dict and its execution report.
ShardCheckpoint = Tuple[Dict[str, NetAccumulator], ShardReport]


class CheckpointError(RuntimeError):
    """Base class for checkpoint-store failures."""


class CheckpointMismatchError(CheckpointError):
    """The directory holds checkpoints of a *different* run (seed,
    circuit, configuration, or shard plan differ)."""


class CheckpointCorruptError(CheckpointError):
    """A manifest or shard payload failed validation (bad JSON, checksum
    mismatch, unpicklable payload)."""


def circuit_fingerprint(netlist: Netlist) -> str:
    """SHA-256 over the netlist's canonical structure.

    Covers name, port lists, and every gate's (name, type, inputs) in
    sorted order — any structural edit changes the fingerprint, while
    re-parsing the same circuit reproduces it.
    """
    h = hashlib.sha256()
    h.update(repr((netlist.name, netlist.inputs, netlist.outputs)).encode())
    for name in sorted(netlist.gates):
        gate = netlist.gates[name]
        h.update(repr((gate.name, gate.gate_type.name,
                       gate.inputs)).encode())
    return h.hexdigest()


def canonical_form(value: object) -> object:
    """A nested, order-independent structure whose repr is canonical.

    ``repr(model)`` is *not* a safe fingerprint basis: a mapping-bearing
    model (``FrozenDelays``, ``SizedNormalDelay``, per-launch-point stats
    dicts) reprs its mapping in **insertion order**, so two equal models
    built from differently-ordered dicts repr — and therefore hash —
    differently.  This function recurses instead:

    - objects exposing ``fingerprint_payload()`` contribute their class
      name plus the canonical form of that payload (the hook for
      non-dataclass models such as delay-override wrappers);
    - dataclass instances contribute their class name plus every field
      (by :func:`dataclasses.fields` order) canonicalized recursively;
    - ``Mapping`` values contribute their items in **sorted-key order**;
    - sequences recurse elementwise; sets are sorted;
    - numpy scalars collapse to their Python values, numpy arrays to
      (shape, dtype, content digest);
    - scalars pass through, anything else falls back to ``repr``.

    Equal values therefore canonicalize equally no matter how their
    mappings were built, and the form is stable across processes (no
    ids, no hash randomization — string keys sort lexically).
    """
    payload_fn = getattr(value, "fingerprint_payload", None)
    if callable(payload_fn):
        return (type(value).__qualname__, canonical_form(payload_fn()))
    if is_dataclass(value) and not isinstance(value, type):
        return (type(value).__qualname__,
                tuple((f.name, canonical_form(getattr(value, f.name)))
                      for f in fields(value)))
    if isinstance(value, Mapping):
        return ("mapping",
                tuple(sorted((repr(key), canonical_form(item))
                             for key, item in value.items())))
    if isinstance(value, (set, frozenset)):
        return ("set", tuple(sorted(repr(canonical_form(item))
                                    for item in value)))
    if isinstance(value, (list, tuple)):
        return ("seq", tuple(canonical_form(item) for item in value))
    if isinstance(value, np.ndarray):
        data = np.ascontiguousarray(value)
        return ("ndarray", value.shape, data.dtype.str,
                hashlib.sha256(data.tobytes()).hexdigest())
    if isinstance(value, (np.floating, np.integer, np.bool_)):
        return value.item()
    if isinstance(value, (str, bytes, int, float, bool, type(None))):
        return value
    return repr(value)


def value_fingerprint(value: object) -> str:
    """SHA-256 over :func:`canonical_form` — the generic fingerprint."""
    return hashlib.sha256(repr(canonical_form(value)).encode()).hexdigest()


def stats_fingerprint(
        stats: Union[InputStats, Mapping[str, InputStats]]) -> str:
    """SHA-256 over the launch-point statistics.

    Canonical under mapping-key reordering: a per-launch-point dict
    fingerprints by sorted net name, and each :class:`InputStats` by its
    dataclass fields — equal statistics always fingerprint equally.
    """
    return value_fingerprint(stats)


def delay_fingerprint(delay_model: DelayModel) -> str:
    """SHA-256 over the delay model's canonical form.

    Dataclass fields are hashed recursively with ``Mapping`` values in
    sorted-key order, so mapping-bearing models
    (:class:`~repro.core.nldm.FrozenDelays`,
    :class:`~repro.opt.spsta_opt.SizedNormalDelay`, ...) built from
    differently-ordered dicts — which compare equal — fingerprint
    equally, and semantically identical checkpoint resumes are accepted.
    """
    return value_fingerprint(delay_model)


def seed_fingerprint(seq: Optional[np.random.SeedSequence]) -> str:
    """Canonical identity of the root seed stream."""
    if seq is None:
        return "none"
    return repr((seq.entropy, tuple(seq.spawn_key)))


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
    ``on_result`` hook), so the store needs no cross-process locking; the
    manifest is rewritten atomically after every shard.
    """

    def __init__(self, directory: Union[str, Path],
                 key: CheckpointKey) -> None:
        self.directory = Path(directory)
        self.key = key
        self._shards: Dict[int, Dict[str, object]] = {}

    @property
    def manifest_path(self) -> Path:
        return self.directory / MANIFEST_NAME

    def shard_path(self, index: int) -> Path:
        return self.directory / f"shard_{index:05d}.pkl"

    # -- lifecycle ----------------------------------------------------------

    def open(self, resume: bool) -> Dict[int, ShardCheckpoint]:
        """Prepare the directory; return already-completed shards.

        Without ``resume``, a matching manifest is reset (the run starts
        from shard zero and overwrites as it goes); a manifest for a
        *different* run always raises :class:`CheckpointMismatchError` —
        pick a fresh directory rather than clobbering someone else's
        checkpoints.
        """
        self.directory.mkdir(parents=True, exist_ok=True)
        if not self.manifest_path.exists():
            self._shards = {}
            self._write_manifest()
            return {}
        manifest = self._read_manifest()
        self._check_key(manifest)
        if not resume:
            self._shards = {}
            self._write_manifest()
            return {}
        self._shards = {int(index): dict(entry)
                        for index, entry in manifest["shards"].items()}
        return self._load_shards()

    def save_shard(self, index: int,
                   accumulators: Dict[str, NetAccumulator],
                   report: ShardReport) -> None:
        """Persist one completed shard atomically and update the manifest.

        The payload lands (rename) before the manifest names it, so a kill
        between the two writes only costs the not-yet-listed shard."""
        payload = pickle.dumps((accumulators, report),
                               protocol=pickle.HIGHEST_PROTOCOL)
        path = self.shard_path(index)
        atomic_write_bytes(path, payload)
        self._shards[index] = {
            "file": path.name,
            "n_trials": report.n_trials,
            "sha256": hashlib.sha256(payload).hexdigest(),
        }
        self._write_manifest()
        maybe_exit_after_persist(len(self._shards))

    @property
    def completed_indices(self) -> Tuple[int, ...]:
        return tuple(sorted(self._shards))

    # -- internals ----------------------------------------------------------

    def _read_manifest(self) -> Dict[str, object]:
        try:
            manifest = json.loads(self.manifest_path.read_text())
        except (json.JSONDecodeError, OSError) as exc:
            raise CheckpointCorruptError(
                f"unreadable checkpoint manifest {self.manifest_path}: "
                f"{exc}") from exc
        if (not isinstance(manifest, dict)
                or manifest.get("format") != MANIFEST_FORMAT
                or not isinstance(manifest.get("shards"), dict)
                or not isinstance(manifest.get("key"), dict)):
            raise CheckpointCorruptError(
                f"{self.manifest_path} is not a {MANIFEST_FORMAT} manifest")
        return manifest

    def _check_key(self, manifest: Dict[str, object]) -> None:
        recorded = manifest["key"]
        expected = asdict(self.key)
        assert isinstance(recorded, dict)
        if recorded == expected:
            return
        diffs = sorted(set(expected) | set(recorded))
        lines = [f"  {name}: checkpoint has {recorded.get(name)!r}, "
                 f"this run has {expected.get(name)!r}"
                 for name in diffs
                 if recorded.get(name) != expected.get(name)]
        raise CheckpointMismatchError(
            "checkpoint directory belongs to a different run — refusing "
            "to merge stale shards:\n" + "\n".join(lines))

    def _write_manifest(self) -> None:
        manifest = {
            "format": MANIFEST_FORMAT,
            "version": MANIFEST_VERSION,
            "key": asdict(self.key),
            "shards": {str(index): self._shards[index]
                       for index in sorted(self._shards)},
        }
        atomic_write_bytes(self.manifest_path,
                           (json.dumps(manifest, indent=2) + "\n").encode())

    def _load_shards(self) -> Dict[int, ShardCheckpoint]:
        loaded: Dict[int, ShardCheckpoint] = {}
        for index, entry in self._shards.items():
            path = self.directory / str(entry["file"])
            try:
                payload = path.read_bytes()
            except OSError as exc:
                raise CheckpointCorruptError(
                    f"shard {index} payload missing or unreadable "
                    f"({path}): {exc}") from exc
            digest = hashlib.sha256(payload).hexdigest()
            if digest != entry["sha256"]:
                raise CheckpointCorruptError(
                    f"shard {index} payload {path} fails its checksum "
                    f"(manifest {entry['sha256']}, file {digest}) — "
                    f"the checkpoint is corrupt; delete the directory "
                    f"and re-run")
            try:
                accumulators, report = pickle.loads(payload)
            except Exception as exc:  # noqa: BLE001 - any unpickle failure
                raise CheckpointCorruptError(
                    f"shard {index} payload {path} does not unpickle: "
                    f"{exc}") from exc
            if (not isinstance(accumulators, dict)
                    or not isinstance(report, ShardReport)
                    or report.n_trials != entry["n_trials"]):
                raise CheckpointCorruptError(
                    f"shard {index} payload {path} has unexpected "
                    f"contents")
            loaded[index] = (accumulators, report)
        return loaded
