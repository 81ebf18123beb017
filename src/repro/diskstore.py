"""The on-disk entry format shared by the content-addressed stores.

The hier interface-model store (:mod:`repro.hier.store`) and the serve
result cache's disk tier (:mod:`repro.serve.cache`) keep their entries
the same way:

- **One self-describing file per entry.**  A one-line JSON header —
  the entry's full ``key``, the ``sha256`` of the payload and the
  caller's extra fields — then the payload bytes.  A store finds an
  entry by its file name; there is no shared index to merge or lock.
- **Atomic writes.**  :func:`atomic_write_bytes` writes a uniquely
  named temp file, fsyncs it and renames it into place, so a reader
  sees a whole entry or none, and two writers of one key cannot
  interleave (the last rename wins, and both wrote the same
  content-addressed payload).
- **Checked reads.**  :func:`check_entry` names the check a file fails
  — an unreadable header, another key, a bad checksum.
  :func:`read_entry` returns ``None`` for a missing file and unlinks a
  failing one, so a corrupt entry is a miss, recomputed by the caller.
- **A format marker.**  ``manifest.json`` holds only
  ``{"format", "version"}`` (:func:`open_store`).  A version-1 index
  manifest, the shape both stores used before, opens as an empty store;
  anything else is refused, so no store overwrites data it does not
  recognise.

Monte Carlo checkpoints (:mod:`repro.sim.checkpoint`) are entries too,
but cannot be recomputed, so that store raises on a failed check.
"""

from __future__ import annotations

from contextlib import suppress
import hashlib
import json
import logging
import os
from pathlib import Path
import tempfile
from typing import Any, Dict, Optional, Tuple, Type

logger = logging.getLogger(__name__)

MANIFEST_NAME = "manifest.json"


class StoreError(RuntimeError):
    """A directory a store refuses to open: its marker names another
    format or version, or does not parse (never clobber foreign data)."""


def atomic_write_bytes(path: Path, payload: bytes) -> None:
    """Write a uniquely named temp file, fsync it, rename it over
    ``path``: readers never observe a partial file, and concurrent
    writers of one path never share a temp file."""
    fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=f".{path.name}.",
                               suffix=".tmp")
    try:
        with os.fdopen(fd, "wb") as handle:
            handle.write(payload)
            handle.flush()
            os.fsync(handle.fileno())
        os.replace(tmp, path)
    except BaseException:
        Path(tmp).unlink(missing_ok=True)
        raise


def discard(path: Path) -> None:
    """Unlink ``path`` if it is there."""
    with suppress(OSError):
        path.unlink()


def write_entry(path: Path, key: str, payload: bytes,
                **fields: Any) -> None:
    """Atomically write one entry: the header line, then ``payload``."""
    header = json.dumps({**fields, "key": key,
                         "sha256": hashlib.sha256(payload).hexdigest()},
                        sort_keys=True).encode()
    atomic_write_bytes(path, header + b"\n" + payload)


class EntryError(ValueError):
    """An entry file fails ``check``: "header", "key" or "checksum"."""

    def __init__(self, path: Path, check: str) -> None:
        super().__init__(f"store entry {path} fails its {check} check")
        self.check = check


def check_entry(path: Path, key: str) -> Tuple[Dict[str, Any], bytes]:
    """(header, payload) of the entry at ``path``; ``OSError`` if it
    cannot be read, :class:`EntryError` if it fails a check."""
    head, _, payload = path.read_bytes().partition(b"\n")
    try:
        header = json.loads(head)
    except ValueError:
        header = None
    if not isinstance(header, dict):
        raise EntryError(path, "header")
    if header.get("key") != key:
        raise EntryError(path, "key")
    if header.get("sha256") != hashlib.sha256(payload).hexdigest():
        raise EntryError(path, "checksum")
    return header, payload


def read_entry(path: Path,
               key: str) -> Optional[Tuple[Dict[str, Any], bytes]]:
    """(header, payload) of the entry at ``path``, or None: for a
    missing file, and for one that fails a check (it is unlinked)."""
    try:
        return check_entry(path, key)
    except OSError:
        return None
    except EntryError:
        logger.warning("store entry %s is corrupt; dropping it", path)
        discard(path)
        return None


def read_header(path: Path) -> Optional[Dict[str, Any]]:
    """The header object of an entry file, or None if unreadable."""
    try:
        with open(path, "rb") as handle:
            header = json.loads(handle.readline())
    except (OSError, ValueError):
        return None
    return header if isinstance(header, dict) else None


def open_store(directory: Path, fmt: str, version: int,
               error: Type[StoreError]) -> None:
    """Create ``directory`` or check its format marker.

    A marker of this ``fmt`` and ``version`` opens as is.  A version-1
    index manifest of ``fmt`` opens empty: the files it lists and its
    ``manifest.lock`` are deleted, never served.  Anything else —
    another format, another version, unparseable JSON — raises
    ``error``."""
    directory.mkdir(parents=True, exist_ok=True)
    path = directory / MANIFEST_NAME
    try:
        manifest = json.loads(path.read_text())
    except FileNotFoundError:
        manifest = None
    except (OSError, ValueError):
        manifest = {}
    if manifest is not None:
        found = (manifest.get("version") if isinstance(manifest, dict)
                 and manifest.get("format") == fmt else None)
        if found == version:
            return
        if found != 1:
            raise error(f"{path} is not a {fmt} v{version} manifest — "
                        f"refusing to use the directory as a cache")
        entries = manifest.get("entries")
        for entry in entries.values() if isinstance(entries, dict) else ():
            name = entry.get("file") if isinstance(entry, dict) else None
            if isinstance(name, str) and Path(name).name == name:
                discard(directory / name)
        discard(directory / "manifest.lock")
    marker = {"format": fmt, "version": version}
    atomic_write_bytes(path, (json.dumps(marker) + "\n").encode())
