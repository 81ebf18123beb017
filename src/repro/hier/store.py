"""Disk cache of :class:`~repro.hier.model.InterfaceModel` payloads.

The cache is *content-addressed*: each entry's key already pins the
region structure, boundary seeds, delay values, and algebra (see
:func:`repro.hier.model.interface_key`), so entries from different runs
and different circuits coexist and a key hit is always a semantic hit.

The entries use the serve result cache's on-disk format
(:mod:`repro.diskstore`): each model is one self-describing file,
``im_<key32>.pkl`` (``key32``: the first 32 hex digits of the key),
holding a one-line JSON header — the full key and the SHA-256 of the
payload — and then the pickled model.  A put is one atomic write
(uniquely named temp file + fsync + ``os.replace``); a get opens the
key's file directly, so several processes can share one directory with
no index to merge or lock.  ``manifest.json`` only marks the format.

Corruption is survivable: an entry that fails its checks, does not
unpickle, or holds a model of another key is unlinked and reported as a
cache *miss* (the region is simply recomputed), never an error — the
property ``tests/test_hier.py`` pins with a corruption test.  The
fault-injection kill switch
(:func:`repro.sim.faults.maybe_exit_after_persist`) fires after each
persisted entry so kill-and-resume CI covers the hierarchical path too.
"""

from __future__ import annotations

import logging
from pathlib import Path
import pickle
from typing import Optional, Union

from repro.diskstore import (
    StoreError,
    discard,
    open_store,
    read_entry,
    write_entry,
)
from repro.hier.model import InterfaceModel
from repro.sim.faults import maybe_exit_after_persist

logger = logging.getLogger(__name__)

MANIFEST_FORMAT = "spsta-hier-cache"
MANIFEST_VERSION = 2


class InterfaceCacheError(StoreError):
    """The directory is not a usable interface-model cache (a manifest it
    does not recognise — refuse to clobber foreign data)."""


class InterfaceModelStore:
    """One cache directory of interface models.

    Within one run all writes happen in the parent process (the
    scheduler persists from its ``on_result`` hook), but *several
    processes* may share a cache directory — concurrent ``spsta hier``
    runs, or ``spsta serve`` workers pointed at the same ``--cache``.
    Each entry is its own file, written atomically, so concurrent puts
    touch no shared state (equal keys name equal payloads).
    """

    def __init__(self, directory: Union[str, Path]) -> None:
        self.directory = Path(directory)
        self.hits = 0
        self.misses = 0
        self._written = 0
        open_store(self.directory, MANIFEST_FORMAT, MANIFEST_VERSION,
                   InterfaceCacheError)

    def entry_path(self, key: str) -> Path:
        return self.directory / f"im_{key[:32]}.pkl"

    def __len__(self) -> int:
        return sum(1 for _ in self.directory.glob("im_*.pkl"))

    def get(self, key: str) -> Optional[InterfaceModel]:
        """The cached model for ``key``, or None (miss).

        A missing file is a miss.  A file that fails its checks, does
        not unpickle, or holds a model of another key is unlinked and
        reported as a miss — content addressing makes recomputation
        always safe.
        """
        path = self.entry_path(key)
        entry = read_entry(path, key)
        model = None
        if entry is not None:
            try:
                model = pickle.loads(entry[1])
            except Exception:  # noqa: BLE001 - any unpickle failure
                pass
            if not isinstance(model, InterfaceModel) or model.key != key:
                logger.warning("interface-model entry %s has unexpected "
                               "contents; discarding", path)
                discard(path)
                model = None
        if model is None:
            self.misses += 1
            return None
        self.hits += 1
        return model

    def put(self, model: InterfaceModel) -> None:
        """Persist one model as one atomic write, then fire the
        kill switch with the number of entries this store has written."""
        write_entry(self.entry_path(model.key), model.key,
                    pickle.dumps(model, protocol=pickle.HIGHEST_PROTOCOL))
        self._written += 1
        maybe_exit_after_persist(self._written)
