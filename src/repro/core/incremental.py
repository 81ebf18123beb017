"""Incremental SSTA — the "incremental, suitable for optimization" property.

The paper credits block-based engines with being "efficient, incremental,
and suitable for optimization" (Sec. 1).  This module delivers that
property for the SSTA baseline: after a local change (a gate's delay, e.g.
from sizing), only the affected fan-out cone is re-evaluated, and
propagation stops early at gates whose arrival distributions come out
unchanged (the change was masked by a dominant side input).

Usage::

    inc = IncrementalSsta(netlist, delay_model)
    inc.arrivals[net]                 # same results as run_ssta
    stats = inc.update_gate("G42")    # gate G42's delay changed
    stats.recomputed, stats.skipped   # work accounting
"""

from __future__ import annotations

from dataclasses import dataclass
import heapq
from typing import Dict, List, Mapping, Set, Tuple, Union

from repro.core.delay import DelayModel, UnitDelay
from repro.core.ssta import ArrivalPair, _gate_output, run_ssta
from repro.netlist.core import Netlist
from repro.stats.normal import Normal


@dataclass(frozen=True)
class UpdateStats:
    """Work accounting for one incremental update.

    ``restored`` counts gates whose TOPs an edit put back from the undo
    record of :class:`repro.core.incremental_spsta.IncrementalSpsta`
    instead of recomputing them (a revert of the previous edit).
    """

    recomputed: int
    skipped: int
    cone_size: int
    restored: int = 0


class IncrementalSsta:
    """SSTA with incremental re-analysis after local delay changes."""

    def __init__(self, netlist: Netlist,
                 delay_model: DelayModel = UnitDelay(),
                 launch: Union[ArrivalPair, Mapping[str, ArrivalPair],
                               None] = None,
                 tolerance: float = 1e-12) -> None:
        self.netlist = netlist
        self._launch = launch
        self._tolerance = tolerance
        self._delays: Dict[str, Normal] = {
            g.name: delay_model.delay(g)
            for g in netlist.combinational_gates}
        self._order = {g.name: i
                       for i, g in enumerate(netlist.combinational_gates)}
        self.arrivals: Dict[str, ArrivalPair] = dict(
            run_ssta(netlist, _FixedDelays(self._delays), launch).arrivals)

    def set_delay(self, gate_name: str, delay: Normal) -> UpdateStats:
        """Change one gate's delay and repair the affected cone."""
        if gate_name not in self._delays:
            raise KeyError(f"{gate_name} is not a combinational gate")
        self._delays[gate_name] = delay
        return self.update_gate(gate_name)

    def update_gate(self, gate_name: str) -> UpdateStats:
        """Re-evaluate ``gate_name`` and propagate only real changes.

        A worklist in topological order — a min-heap keyed by each gate's
        topological rank, so every pop is O(log cone) instead of the
        O(cone) scan a plain ``min`` over a set costs (quadratic over a
        deep cone).  A gate whose recomputed arrival pair matches the
        stored one (within tolerance) does not enqueue its fanouts — the
        early termination that makes incremental analysis cheap in
        practice.
        """
        if gate_name not in self._order:
            raise KeyError(f"{gate_name} is not a combinational gate")
        heap: List[Tuple[int, str]] = [(self._order[gate_name], gate_name)]
        queued: Set[str] = {gate_name}  # guards duplicate pushes
        cone: Set[str] = set()
        recomputed = 0
        skipped = 0
        model = _FixedDelays(self._delays)
        while heap:
            _, current = heapq.heappop(heap)
            queued.discard(current)
            cone.add(current)
            gate = self.netlist.gates[current]
            operands = [self.arrivals[src] for src in gate.inputs]
            new_pair = _gate_output(gate, operands, model.delay(gate))
            recomputed += 1
            if self._unchanged(self.arrivals[current], new_pair):
                skipped += 1
                continue
            self.arrivals[current] = new_pair
            for sink in self.netlist.fanouts(current):
                # skip DFFs (cycle boundary) and already-queued sinks
                if sink in self._order and sink not in queued:
                    queued.add(sink)
                    heapq.heappush(heap, (self._order[sink], sink))
        # cone counts every gate we *touched*; downstream gates never
        # reached (thanks to early termination) are the savings.
        return UpdateStats(recomputed=recomputed, skipped=skipped,
                           cone_size=len(cone))

    def _unchanged(self, old: ArrivalPair, new: ArrivalPair) -> bool:
        tol = self._tolerance
        return (abs(old.rise.mu - new.rise.mu) <= tol
                and abs(old.rise.sigma - new.rise.sigma) <= tol
                and abs(old.fall.mu - new.fall.mu) <= tol
                and abs(old.fall.sigma - new.fall.sigma) <= tol)

    def full_recompute(self) -> None:
        """Reference full pass (for testing and resync)."""
        self.arrivals = dict(
            run_ssta(self.netlist, _FixedDelays(self._delays),
                     self._launch).arrivals)


class _FixedDelays:
    """DelayModel over an explicit per-gate table."""

    def __init__(self, delays: Mapping[str, Normal]) -> None:
        self._delays = delays

    def delay(self, gate) -> Normal:
        return self._delays[gate.name]
