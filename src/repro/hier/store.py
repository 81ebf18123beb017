"""Disk cache of :class:`~repro.hier.model.InterfaceModel` payloads.

Mirrors the PR 5 checkpoint machinery (:mod:`repro.sim.checkpoint`):
every write is atomic (:func:`repro.sim.checkpoint.atomic_write_bytes`:
uniquely named temp file + fsync + ``os.replace``), the manifest
records a SHA-256 per entry, and the fault-injection kill switch
(:func:`repro.sim.faults.maybe_exit_after_persist`) fires after each
persisted entry so kill-and-resume CI covers the hierarchical path too.

Unlike a checkpoint directory, the cache is *content-addressed*: each
entry's key already pins the region structure, boundary seeds, delay
values, and algebra (see :func:`repro.hier.model.interface_key`), so
entries from different runs and different circuits coexist and a key hit
is always a semantic hit.  Consequently corruption is survivable: an
entry that fails its checksum or does not unpickle is discarded and
reported as a cache *miss* (the region is simply recomputed), never an
error — the property ``tests/test_hier.py`` pins with a corruption test.
"""

from __future__ import annotations

from contextlib import contextmanager
import hashlib
import json
import logging
from pathlib import Path
import pickle
from typing import Dict, Iterator, Optional, Union

from repro.hier.model import InterfaceModel
from repro.sim.checkpoint import atomic_write_bytes
from repro.sim.faults import maybe_exit_after_persist

try:  # advisory manifest locking (POSIX; no-op where unavailable)
    import fcntl
except ImportError:  # pragma: no cover - non-POSIX platforms
    fcntl = None  # type: ignore[assignment]

logger = logging.getLogger(__name__)

MANIFEST_NAME = "manifest.json"
LOCK_NAME = "manifest.lock"
MANIFEST_FORMAT = "spsta-hier-cache"
MANIFEST_VERSION = 1


class InterfaceCacheError(RuntimeError):
    """The directory is not a usable interface-model cache (a manifest of
    a different format — refuse to clobber foreign data)."""


class InterfaceModelStore:
    """One cache directory of interface models.

    Within one run all writes happen in the parent process (the
    scheduler persists from its ``on_result`` hook), but *several
    processes* may share a cache directory — concurrent ``spsta hier``
    runs, or ``spsta serve`` workers pointed at the same ``--cache``.
    Each manifest rewrite therefore happens under an advisory
    ``fcntl`` lock and **merges** the entries already on disk with this
    process's view before writing, so a concurrent ``put`` can never
    drop another process's manifest entries (content addressing makes
    the merge conflict-free: equal keys name equal payloads).
    """

    def __init__(self, directory: Union[str, Path]) -> None:
        self.directory = Path(directory)
        self._entries: Dict[str, Dict[str, str]] = {}
        self.hits = 0
        self.misses = 0
        self._open()

    @property
    def manifest_path(self) -> Path:
        return self.directory / MANIFEST_NAME

    def entry_path(self, key: str) -> Path:
        return self.directory / f"im_{key[:32]}.pkl"

    def __len__(self) -> int:
        return len(self._entries)

    # -- lifecycle ----------------------------------------------------------

    def _open(self) -> None:
        self.directory.mkdir(parents=True, exist_ok=True)
        if not self.manifest_path.exists():
            self._write_manifest()
            return
        try:
            manifest = json.loads(self.manifest_path.read_text())
        except (json.JSONDecodeError, OSError) as exc:
            logger.warning("unreadable interface-cache manifest %s (%s); "
                           "starting empty", self.manifest_path, exc)
            self._write_manifest()
            return
        if (not isinstance(manifest, dict)
                or manifest.get("format") != MANIFEST_FORMAT
                or not isinstance(manifest.get("entries"), dict)):
            raise InterfaceCacheError(
                f"{self.manifest_path} is not a {MANIFEST_FORMAT} "
                f"manifest — refusing to use the directory as a cache")
        self._entries = {str(key): dict(entry)
                         for key, entry in manifest["entries"].items()}

    # -- cache protocol ------------------------------------------------------

    def get(self, key: str) -> Optional[InterfaceModel]:
        """The cached model for ``key``, or None (miss).

        A missing, checksum-failing, or unpicklable payload is *dropped*
        from the manifest and reported as a miss — content addressing
        makes recomputation always safe.
        """
        entry = self._entries.get(key)
        if entry is None:
            self.misses += 1
            return None
        path = self.directory / entry["file"]
        try:
            payload = path.read_bytes()
        except OSError:
            logger.warning("interface-model payload %s missing; "
                           "treating as cache miss", path)
            self._drop(key)
            return None
        if hashlib.sha256(payload).hexdigest() != entry["sha256"]:
            logger.warning("interface-model payload %s fails its checksum; "
                           "discarding corrupt entry", path)
            self._drop(key)
            return None
        try:
            model = pickle.loads(payload)
        except Exception:  # noqa: BLE001 - any unpickle failure is a miss
            logger.warning("interface-model payload %s does not unpickle; "
                           "discarding corrupt entry", path)
            self._drop(key)
            return None
        if not isinstance(model, InterfaceModel) or model.key != key:
            logger.warning("interface-model payload %s has unexpected "
                           "contents; discarding", path)
            self._drop(key)
            return None
        self.hits += 1
        return model

    def put(self, model: InterfaceModel) -> None:
        """Persist one model atomically and update the manifest.

        The payload lands (rename) before the manifest names it, so a
        kill between the writes only costs the not-yet-listed entry.
        The manifest update itself runs under the advisory lock and
        merges concurrent writers' entries (see the class docstring)."""
        payload = pickle.dumps(model, protocol=pickle.HIGHEST_PROTOCOL)
        path = self.entry_path(model.key)
        atomic_write_bytes(path, payload)
        with self._manifest_lock():
            self._merge_disk_entries()
            self._entries[model.key] = {
                "file": path.name,
                "sha256": hashlib.sha256(payload).hexdigest(),
            }
            self._write_manifest()
        maybe_exit_after_persist(len(self._entries))

    # -- internals ----------------------------------------------------------

    @contextmanager
    def _manifest_lock(self) -> Iterator[None]:
        """Exclusive advisory lock over manifest read-modify-write.

        Locks a sidecar file (never the manifest itself — that is
        replaced atomically, which would orphan the lock inode)."""
        if fcntl is None:  # pragma: no cover - non-POSIX fallback
            yield
            return
        with open(self.directory / LOCK_NAME, "w") as handle:
            fcntl.flock(handle, fcntl.LOCK_EX)
            try:
                yield
            finally:
                fcntl.flock(handle, fcntl.LOCK_UN)

    def _merge_disk_entries(self, drop: Optional[str] = None) -> None:
        """Fold manifest entries another process persisted into ours.

        Must run under :meth:`_manifest_lock`.  Ours win on key collision
        (same key => same content anyway); ``drop`` names a key being
        discarded right now, which must not be resurrected from disk.
        """
        try:
            manifest = json.loads(self.manifest_path.read_text())
        except (json.JSONDecodeError, OSError):
            return
        if (not isinstance(manifest, dict)
                or manifest.get("format") != MANIFEST_FORMAT
                or not isinstance(manifest.get("entries"), dict)):
            return
        for key, entry in manifest["entries"].items():
            if key != drop and key not in self._entries:
                self._entries[str(key)] = dict(entry)

    def _drop(self, key: str) -> None:
        self.misses += 1
        with self._manifest_lock():
            self._merge_disk_entries(drop=key)
            self._entries.pop(key, None)
            self._write_manifest()

    def _write_manifest(self) -> None:
        manifest = {
            "format": MANIFEST_FORMAT,
            "version": MANIFEST_VERSION,
            "entries": {key: self._entries[key]
                        for key in sorted(self._entries)},
        }
        atomic_write_bytes(self.manifest_path,
                           (json.dumps(manifest, indent=2) + "\n").encode())
