"""Result cache of the ``spsta serve`` daemon.

Two tiers with one key space (the fingerprint keys of
:mod:`repro.serve.daemon`):

- an in-memory LRU bounded by ``max_entries`` — the warm-query fast
  path, evicting least-recently-used entries past the cap;
- an optional on-disk tier (``--cache DIR``) so a *restarted* daemon —
  or a concurrent worker sharing the directory — starts warm.

The disk tier uses the on-disk entry format it shares with the hier
interface store (:mod:`repro.diskstore`), indexed by file name.  Each
entry is one self-describing file, ``rs_<tag8>_<key>.json`` (``tag8``:
the first 8 hex digits of sha256 of the circuit name), holding a
one-line JSON header — the full key, the circuit, the SHA-256 of the
payload — and then the payload text.  A put is one atomic write, so a
reader sees a whole entry or none, and two writers of one key cannot
interleave.  A get opens the key's file directly, so entries other
workers wrote are visible at once, with no shared index to merge or
lock.  ``manifest.json`` only marks the directory's format.

Entries are stored as the *serialized* result payload and deserialized
on hit, so a hit returns exactly what ``json`` round-trips — the
bit-identical-payload guarantee the serve tests pin.  Keys are
content-addressed (they pin circuit structure, stats, delay, algebra,
and request shape), so a key hit is always a semantic hit and stale
entries cannot exist; corruption is survivable (a missing, truncated,
wrong-key or bad-checksum file is a miss and is unlinked).
"""

from __future__ import annotations

from collections import OrderedDict
import hashlib
import json
from pathlib import Path
from typing import Any, Dict, Optional, Tuple, Union

from repro.diskstore import (
    StoreError,
    discard,
    open_store,
    read_entry,
    read_header,
    write_entry,
)

MANIFEST_FORMAT = "spsta-serve-cache"
MANIFEST_VERSION = 2


class ServeCacheError(StoreError):
    """The directory is not a usable serve result cache (a manifest of a
    different format — refuse to clobber foreign data)."""


def _circuit_tag(circuit: str) -> str:
    """The 8-hex-digit circuit prefix of an entry's file name."""
    return hashlib.sha256(circuit.encode()).hexdigest()[:8]


class ResultCache:
    """LRU result cache with an optional shared on-disk tier."""

    def __init__(self, max_entries: int = 256,
                 directory: Optional[Union[str, Path]] = None) -> None:
        if max_entries < 1:
            raise ValueError("max_entries must be >= 1")
        self.max_entries = max_entries
        self.directory = Path(directory) if directory is not None else None
        #: key -> (serialized result text, circuit tag)
        self._memory: "OrderedDict[str, tuple[str, str]]" = OrderedDict()
        self.hits = 0
        self.misses = 0
        self.evictions = 0
        self.disk_hits = 0
        if self.directory is not None:
            open_store(self.directory, MANIFEST_FORMAT, MANIFEST_VERSION,
                       ServeCacheError)

    def __len__(self) -> int:
        return len(self._memory)

    @property
    def disk_entries(self) -> int:
        if self.directory is None:
            return 0
        return sum(1 for _ in self.directory.glob("rs_*_*.json"))

    # -- cache protocol -----------------------------------------------------

    def get(self, key: str,
            circuit: Optional[str] = None) -> Optional[Dict[str, Any]]:
        """The cached result payload for ``key``, or None (miss).

        A memory hit refreshes LRU recency; a disk hit is promoted into
        memory.  Either way the caller receives ``json.loads`` of the
        stored text — byte-identical serialization on every hit.
        ``circuit`` (the tag the entry was put under) names the disk
        file directly; without it the file is found by its key suffix.
        """
        entry = self._memory.get(key)
        if entry is not None:
            self._memory.move_to_end(key)
            self.hits += 1
            return json.loads(entry[0])
        found = self._disk_read(key, circuit)
        if found is not None:
            text, tag, result = found
            self.hits += 1
            self.disk_hits += 1
            self._remember(key, text, tag)
            return result
        self.misses += 1
        return None

    def put(self, key: str, result: Dict[str, Any],
            circuit: str = "") -> None:
        """Cache one result payload under ``key``.

        ``circuit`` tags the entry for :meth:`invalidate_circuit`.  The
        payload is serialized once here; hits replay that serialization.
        """
        text = json.dumps(result, sort_keys=True)
        self._remember(key, text, circuit)
        if self.directory is not None:
            write_entry(self.entry_path(key, circuit), key, text.encode(),
                        circuit=circuit)

    def invalidate_circuit(self, circuit: str) -> int:
        """Drop every entry tagged with ``circuit``; returns the count."""
        victims = {key for key, (_, tag) in self._memory.items()
                   if tag == circuit}
        for key in victims:
            del self._memory[key]
        if self.directory is not None:
            for path in self.directory.glob(
                    f"rs_{_circuit_tag(circuit)}_*.json"):
                header = read_header(path)
                if header is not None and header.get("circuit") != circuit:
                    continue            # another circuit with this tag
                discard(path)
                if header is not None:
                    victims.add(str(header.get("key")))
        return len(victims)

    # -- memory tier --------------------------------------------------------

    def _remember(self, key: str, text: str, tag: str) -> None:
        self._memory[key] = (text, tag)
        self._memory.move_to_end(key)
        while len(self._memory) > self.max_entries:
            self._memory.popitem(last=False)
            self.evictions += 1

    # -- disk tier ----------------------------------------------------------

    def entry_path(self, key: str, circuit: str = "") -> Path:
        assert self.directory is not None
        return self.directory / f"rs_{_circuit_tag(circuit)}_{key}.json"

    def _disk_read(self, key: str, circuit: Optional[str]
                   ) -> Optional[Tuple[str, str, Dict[str, Any]]]:
        """(payload text, circuit, parsed payload) of the key's file, or
        None.  A file that fails any check is unlinked."""
        if self.directory is None:
            return None
        path = (self.entry_path(key, circuit) if circuit is not None
                else next(self.directory.glob(f"rs_*_{key}.json"), None))
        if path is None:
            return None
        entry = read_entry(path, key)
        if entry is None:
            return None
        header, payload = entry
        try:
            text = payload.decode()
            return text, str(header.get("circuit", "")), json.loads(text)
        except ValueError:
            discard(path)
            return None
