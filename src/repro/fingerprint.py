"""Canonical SHA-256 fingerprints of analysis inputs, stable across
processes: the keys of Monte Carlo checkpoints, analysis specs and the
serve result cache.  Imports nothing else from the package."""

from __future__ import annotations

from dataclasses import fields, is_dataclass
import hashlib
from typing import TYPE_CHECKING, Mapping, Optional

import numpy as np

if TYPE_CHECKING:
    from repro.netlist.core import Netlist


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


def stats_fingerprint(stats: object) -> str:
    """SHA-256 over the launch-point statistics.

    Canonical under mapping-key reordering: a per-launch-point dict
    fingerprints by sorted net name, and each
    :class:`~repro.core.inputs.InputStats` by its dataclass fields —
    equal statistics always fingerprint equally.
    """
    return value_fingerprint(stats)


def delay_fingerprint(delay_model: object) -> str:
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
