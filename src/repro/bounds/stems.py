"""Bitset sweeps over the levelized netlist.

The reconvergent-stem sweep was born inside ``repro.lint.accuracy``
(SP301/SP302); it now lives here because the bounds engine
(:mod:`repro.bounds.engine`) needs the same facts to pick the sound
propagation regime per gate: a gate whose inputs share no fan-out stem
has provably independent inputs (any net shared by two input cones fans
out at least twice, which makes it a stem, which the sweep catches), so
the interval transfer function may compose marginals; a gate in
:attr:`StemSweep.reconvergent_gates` may not.

All sweeps are one topological pass with one Python ``int`` bitset per
net: an OR or AND of two sets is a single integer operation, and the
sets take a few MB even for the s9234-class profiles.  Inside
:func:`shared_sweeps` (``run_lint`` opens one) each netlist is swept
once, however many rules ask.
"""

from __future__ import annotations

from contextlib import contextmanager
from contextvars import ContextVar
from dataclasses import dataclass
from typing import (
    TYPE_CHECKING,
    Dict,
    FrozenSet,
    Iterator,
    List,
    Optional,
    Tuple,
)

from repro.compat import popcount
from repro.logic.gates import GateType
from repro.netlist.analysis import net_depths

if TYPE_CHECKING:
    from repro.netlist.core import Netlist


class StemRecord:
    """Aggregated reconvergence facts for one fan-out stem."""

    __slots__ = ("stem", "first_gate", "n_gates", "max_depth")

    def __init__(self, stem: str, first_gate: str, depth: int) -> None:
        self.stem = stem
        self.first_gate = first_gate
        self.n_gates = 1
        self.max_depth = depth


@dataclass
class StemSweep:
    """Everything one stem sweep learns about a netlist.

    ``stems`` is every net with >= 2 combinational sinks (bit order of
    the sweep); ``records`` maps each stem that actually reconverges to
    its :class:`StemRecord`; ``endpoint_metrics`` maps each endpoint that
    observes reconverged cones to ``{"reconvergent_stems": n,
    "max_correlation_depth": d}``; ``reconvergent_gates`` is the set of
    gates where at least one stem lands on two or more input cones — the
    gates whose inputs are *not* provably independent.
    """

    stems: Tuple[str, ...]
    records: Dict[str, StemRecord]
    endpoint_metrics: Dict[str, Dict[str, int]]
    reconvergent_gates: FrozenSet[str]


#: The sweeps of the innermost :func:`shared_sweeps` block, by netlist.
_SHARED: ContextVar[Optional[Dict["Netlist", StemSweep]]] = ContextVar(
    "shared_stem_sweeps", default=None)


@contextmanager
def shared_sweeps() -> Iterator[None]:
    """Within the block, :func:`sweep_stems` sweeps each netlist once
    and hands every later caller the same :class:`StemSweep`."""
    token = _SHARED.set({})
    try:
        yield
    finally:
        _SHARED.reset(token)


def sweep_stems(netlist: "Netlist") -> StemSweep:
    """The stem sweep of ``netlist`` (reused inside
    :func:`shared_sweeps`)."""
    shared = _SHARED.get()
    if shared is None:
        return _sweep(netlist)
    sweep = shared.get(netlist)
    if sweep is None:
        sweep = shared[netlist] = _sweep(netlist)
    return sweep


def _sweep(netlist: "Netlist") -> StemSweep:
    """One levelized bitset sweep: per gate, a stem seen on two input
    cones lands in the ``seen_twice`` mask."""
    stems = [net for net in netlist.nets
             if sum(1 for sink in netlist.fanouts(net)
                    if netlist.gates[sink].gate_type is not GateType.DFF) >= 2]
    if not stems:
        return StemSweep((), {}, {}, frozenset())
    stem_bit = {net: 1 << i for i, net in enumerate(stems)}
    depths = net_depths(netlist)

    masks: Dict[str, int] = {}
    recon: Dict[str, int] = {}
    event_depth: Dict[str, int] = {}
    records: Dict[str, StemRecord] = {}
    reconvergent: List[str] = []

    for gate in netlist.combinational_gates:
        seen_once = seen_twice = acc_recon = 0
        acc_event = 0
        for src in gate.inputs:
            m = masks.get(src, 0) | stem_bit.get(src, 0)
            seen_twice |= seen_once & m
            seen_once |= m
            acc_recon |= recon.get(src, 0)
            acc_event = max(acc_event, event_depth.get(src, 0))
        if seen_twice:
            reconvergent.append(gate.name)
            for bit in _set_bits(seen_twice):
                stem = stems[bit]
                depth = depths[gate.name] - depths[stem]
                record = records.get(stem)
                if record is None:
                    records[stem] = StemRecord(stem, gate.name, depth)
                else:
                    record.n_gates += 1
                    record.max_depth = max(record.max_depth, depth)
                acc_event = max(acc_event, depth)
            acc_recon |= seen_twice
        masks[gate.name] = seen_once
        recon[gate.name] = acc_recon
        event_depth[gate.name] = acc_event

    endpoint_metrics: Dict[str, Dict[str, int]] = {}
    for endpoint in netlist.endpoints:
        n = popcount(recon.get(endpoint, 0))
        if n:
            endpoint_metrics[endpoint] = {
                "reconvergent_stems": n,
                "max_correlation_depth": event_depth.get(endpoint, 0)}
    return StemSweep(tuple(stems), records, endpoint_metrics,
                     frozenset(reconvergent))


def find_reconvergence(
    netlist: "Netlist",
) -> Tuple[Dict[str, StemRecord], Dict[str, Dict[str, int]]]:
    """Reconvergent stems and per-endpoint correlation metrics.

    Returns ``(stems, endpoint_metrics)`` where ``stems`` maps each
    reconvergent stem net to its :class:`StemRecord` and
    ``endpoint_metrics`` maps each affected endpoint to
    ``{"reconvergent_stems": n, "max_correlation_depth": d}`` — the
    SP301/SP302 view of :func:`sweep_stems`.
    """
    sweep = sweep_stems(netlist)
    return sweep.records, sweep.endpoint_metrics


def launch_support_counts(netlist: "Netlist") -> Dict[str, int]:
    """Number of launch points in every net's fan-in cone.

    Same bitset walk as the stem sweep, with one bit per launch point;
    the count is the BDD variable count a cone collapse would need,
    which is what the bounds engine's SP202-style cost gate prices.
    """
    launches = netlist.launch_points
    masks: Dict[str, int] = {net: 1 << i for i, net in enumerate(launches)}
    counts: Dict[str, int] = {net: 1 for net in launches}
    for gate in netlist.combinational_gates:
        acc = 0
        for src in gate.inputs:
            acc |= masks[src]
        masks[gate.name] = acc
        counts[gate.name] = popcount(acc)
    return counts


def _set_bits(mask: int) -> List[int]:
    """Indices of the set bits of ``mask``, lowest first."""
    bits: List[int] = []
    while mask:
        low = mask & -mask
        bits.append(low.bit_length() - 1)
        mask ^= low
    return bits
