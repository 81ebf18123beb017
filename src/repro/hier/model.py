"""Interface models: reusable per-region boundary TOP captures.

An :class:`InterfaceModel` is what one analyzed region exports — the
``(Prob4, NetTops)`` pair of every kept pin, keyed by *canonical* net ids
so that structurally isomorphic regions (e.g. replicated tiles of the
synthetic scale generator) share one model regardless of net names.

The cache key pins everything the exported TOPs are a pure function of:

- the region's canonical structure (gate types and connectivity over
  canonical ids — names excluded, so isomorphic regions collide);
- the boundary *seed* TOPs asserted at every region input, digested in
  canonical input order (launch statistics and upstream cut TOPs alike);
- the per-gate delay values the engine will actually consume, digested in
  canonical topological order (covers name-dependent models such as
  :class:`~repro.core.delay.PerGateDelay` without reintroducing names for
  name-independent ones);
- the algebra configuration and the parity-fan-in cap;
- which pins the run keeps (``interface`` vs ``all``).

SHA-256 keys follow the convention of :mod:`repro.fingerprint`:
collisions are cryptographically negligible, so a key hit is a
semantic hit.
"""

from __future__ import annotations

from dataclasses import dataclass
import hashlib
from typing import Dict, Mapping, Optional, Tuple, Union

from repro.core.delay import DelayModel
from repro.core.inputs import Prob4
from repro.core.spsta import NetTops, TopFunction, _delay_for
from repro.netlist.core import Netlist
from repro.netlist.partition import RegionView
from repro.spec import AlgebraSpec
from repro.stats.grid import GridDensity
from repro.stats.mixture import GaussianMixture
from repro.stats.normal import Normal

#: One pin's exported state: its four-value probabilities and TOPs.
PinState = Tuple[Prob4, NetTops]

#: What the digest helpers accept: a materialized sub-netlist or the
#: validation-free :class:`~repro.netlist.partition.RegionView` the
#: scheduler hashes before deciding whether to materialize at all.
RegionLike = Union[Netlist, RegionView]


@dataclass
class InterfaceModel:
    """One region's exported boundary state, canonically keyed.

    ``pins`` maps canonical ids (see :func:`canonical_region`) to the pin's
    :data:`PinState`; ``seconds`` is the wall time of the producing run —
    kept so cache-hit reports can say what a hit saved.
    """

    key: str
    region_digest: str
    pins: Dict[str, PinState]
    seconds: float

    def translate(self, to_name: Mapping[str, str]) -> Dict[str, PinState]:
        """The pin states re-keyed by an isomorphic region's net names."""
        return {to_name[canon]: state for canon, state in self.pins.items()}


def canonical_region(sub: RegionLike) -> Tuple[str, Dict[str, str]]:
    """(structure digest, net-name → canonical-id map) of a region.

    Inputs get ids ``i0, i1, ...`` in declared (sorted) order; gates get
    ``g0, g1, ...`` in topological order.  The digest covers gate types,
    connectivity, and observed outputs over canonical ids only, so two
    isomorphic regions — identical structure under a name relabeling that
    preserves input order and construction order — share a digest.
    Digests are a function of the gate order the argument presents, so a
    store must be keyed through one consistent path (the scheduler always
    hashes :class:`~repro.netlist.partition.RegionView`).
    """
    ids: Dict[str, str] = {}
    for i, net in enumerate(sub.inputs):
        ids[net] = f"i{i}"
    comb = sub.combinational_gates
    for j, gate in enumerate(comb):
        ids[gate.name] = f"g{j}"
    h = hashlib.sha256()
    h.update(f"inputs:{len(sub.inputs)}".encode())
    for gate in comb:
        h.update(repr((ids[gate.name], gate.gate_type.name,
                       tuple(ids[src] for src in gate.inputs))).encode())
    h.update(repr(tuple(sorted(ids[net] for net in sub.outputs))).encode())
    return h.hexdigest(), ids


def region_delay_digest(sub: RegionLike, delay_model: DelayModel) -> str:
    """Digest of every delay value the engine will consume, in canonical
    order.

    Hashing the *values* rather than the model repr keeps name-dependent
    models (per-gate tables) correct while letting name-independent models
    share keys across isomorphic regions.
    """
    h = hashlib.sha256()
    for gate in sub.combinational_gates:
        delay_for = _delay_for(delay_model, gate)
        for k in range(1, len(gate.inputs) + 1):
            h.update(repr(delay_for(k)).encode())
    return h.hexdigest()


def _digest_conditional(h: "hashlib._Hash", dist: object) -> None:
    if isinstance(dist, Normal):
        h.update(repr(dist).encode())
    elif isinstance(dist, GaussianMixture):
        h.update(repr(dist).encode())
    elif isinstance(dist, GridDensity):
        grid = dist.grid
        h.update(repr((grid.start, grid.stop, grid.n)).encode())
        h.update(dist.values.tobytes())
    else:
        raise TypeError(
            f"cannot digest conditional of type {type(dist).__name__}")


def _digest_top(h: "hashlib._Hash", top: TopFunction) -> None:
    if not top.occurs:
        h.update(b"absent")
        return
    h.update(repr(top.weight).encode())
    _digest_conditional(h, top.conditional)


def seed_digest(sub: RegionLike,
                seeds: Mapping[str, PinState]) -> str:
    """Digest of the boundary state asserted at every region input, in
    canonical (declared) input order."""
    h = hashlib.sha256()
    for net in sub.inputs:
        prob4, tops = seeds[net]
        h.update(repr(prob4).encode())
        _digest_top(h, tops.rise)
        _digest_top(h, tops.fall)
    return h.hexdigest()


def interface_key(region_digest: str, seeds_hex: str, delay_hex: str,
                  spec: AlgebraSpec, parity_cap: Optional[int],
                  keep: str) -> str:
    """The content-addressed cache key of one region analysis."""
    h = hashlib.sha256()
    h.update(repr((region_digest, seeds_hex, delay_hex, spec.token(),
                   parity_cap, keep)).encode())
    return h.hexdigest()
