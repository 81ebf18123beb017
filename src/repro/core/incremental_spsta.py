"""Incremental SPSTA — worklist re-timing for the TOP-function engines.

:class:`repro.core.incremental.IncrementalSsta` delivers the paper's
"incremental, suitable for optimization" property (Sec. 1) for the SSTA
baseline only.  This module generalizes the same heapq-worklist pattern to
the SPSTA engines: after a local delay change (a gate resize, a derate
perturbation), only the affected fan-out cone's TOP functions are
re-evaluated, and propagation stops early at gates whose recomputed TOPs
come out unchanged.

Two properties make the incremental result *provably identical* to a fresh
full pass (and the conformance harness checks it, see
``repro.verify.policies`` pairs ``incremental-vs-full/*``):

- a gate's four-value probabilities (:func:`~repro.core.probability.
  gate_prob4`) depend only on input probabilities, never on delays, so a
  delay-only change leaves every ``Prob4`` untouched and only TOP functions
  need repair;
- each repaired gate calls the *same* per-gate kernel the naive engine
  uses (:func:`repro.core.spsta._gate_tops`) on the same inputs, and the
  min-heap pops gates in topological rank order, so a gate is recomputed
  only after every changed input has been repaired.

With the default ``tolerance=0.0`` the early-termination test is exact
equality, so stopping cannot hide a real change: the repaired state is
bit-identical to a full pass for every algebra.  A positive tolerance
trades that guarantee for a cheaper cone (documented approximation).

Optimization loops spend much of their time undoing moves, so every edit
keeps a one-level undo record: the override map before the edit and the
prior TOPs of every gate the edit changed.  An edit that returns the
override map to the recorded one (an exact :class:`Normal` comparison)
is a revert: the recorded TOPs go back in place and no gate is
recomputed.  TOPs are a pure function of the override map and the state
equals a full pass, so a restore is as bit-exact as a recompute.

Usage::

    inc = IncrementalSpsta(netlist, CONFIG_I, delay_model, MomentAlgebra())
    inc.tops[net]                       # same TOPs as run_spsta
    stats = inc.set_delay("G42", Normal(0.8, 0.04))
    stats.recomputed, stats.skipped     # work accounting
    inc.clear_delay("G42").restored     # a revert restores, > 0
    inc.result().report(net, "rise")    # ordinary SpstaResult view
"""

from __future__ import annotations

import heapq
from typing import (
    Dict,
    Generic,
    List,
    Mapping,
    Optional,
    Set,
    Tuple,
    TypeVar,
    Union,
)

import numpy as np

from repro.core.delay import DelayModel, UnitDelay
from repro.core.incremental import UpdateStats
from repro.core.inputs import InputStats, Prob4
from repro.core.probability import gate_prob4
from repro.core.spsta import (
    MAX_PARITY_FANIN,
    MomentAlgebra,
    NetTops,
    SpstaResult,
    TopAlgebra,
    TopFunction,
    _gate_tops,
    launch_tops,
    validate_parity_fanins,
)
from repro.netlist.core import Netlist
from repro.stats.grid import GridDensity
from repro.stats.mixture import GaussianMixture
from repro.stats.normal import Normal

D = TypeVar("D")


class IncrementalSpsta(Generic[D]):
    """SPSTA with incremental cone re-timing after local delay changes.

    ``delay_model`` is the base model; :meth:`set_delay` lays per-gate
    :class:`Normal` overrides on top of it (the optimizer's moves), and
    :meth:`clear_delay` removes one.  The effective model is exposed via
    :meth:`effective_delay_model` so callers can run an ordinary
    ``run_spsta`` pass over the *same* delays — the conformance check.
    """

    def __init__(self, netlist: Netlist,
                 stats: Union[InputStats, Mapping[str, InputStats]],
                 delay_model: DelayModel = UnitDelay(),
                 algebra: Optional[TopAlgebra[D]] = None,
                 *,
                 tolerance: float = 0.0,
                 max_parity_fanin: Optional[int] = None) -> None:
        if tolerance < 0.0:
            raise ValueError("tolerance must be >= 0")
        self.netlist = netlist
        self.algebra: TopAlgebra[D] = (MomentAlgebra()  # type: ignore
                                       if algebra is None else algebra)
        self._stats = stats
        self._tolerance = tolerance
        self._parity_cap = (MAX_PARITY_FANIN if max_parity_fanin is None
                            else max_parity_fanin)
        validate_parity_fanins(netlist, self._parity_cap)
        self._overrides: Dict[str, Normal] = {}
        self._model = _OverrideDelays(delay_model, self._overrides)
        #: (override map before the last edit, prior TOPs of every gate
        #: that edit changed), or None
        self._undo: Optional[Tuple[Dict[str, Normal],
                                   Dict[str, NetTops[D]]]] = None
        self._order = {g.name: i
                       for i, g in enumerate(netlist.combinational_gates)}
        self.prob4: Dict[str, Prob4] = {}
        self.tops: Dict[str, NetTops[D]] = {}
        self.full_recompute()

    # -- delay edits ------------------------------------------------------

    def set_delay(self, gate_name: str, delay: Normal,
                  *, full: bool = False) -> UpdateStats:
        """Override one gate's delay and repair the affected cone.

        ``full=True`` repairs with a whole-netlist recompute instead of
        the worklist — the full-analysis-per-move pattern the benchmark
        (``benchmarks/test_bench_opt.py``) measures the incremental path
        against.  Both repairs land in the identical state.  A revert of
        the previous edit is a restore instead (see the module notes).
        An edit whose repair raises leaves the state as it was.
        """
        if gate_name not in self._order:
            raise KeyError(f"{gate_name} is not a combinational gate")
        before = dict(self._overrides)
        self._overrides[gate_name] = delay
        return self._edit(gate_name, before, full)

    def clear_delay(self, gate_name: str,
                    *, full: bool = False) -> UpdateStats:
        """Drop a gate's override (back to the base model) and repair."""
        if gate_name not in self._order:
            raise KeyError(f"{gate_name} is not a combinational gate")
        before = dict(self._overrides)
        self._overrides.pop(gate_name, None)
        return self._edit(gate_name, before, full)

    def has_gate(self, gate_name: str) -> bool:
        """Whether ``gate_name`` is a combinational gate (an edit target)."""
        return gate_name in self._order

    def effective_delay_model(self) -> DelayModel:
        """A frozen snapshot of base model + current overrides.

        Feeding this to :func:`repro.core.spsta.run_spsta` reproduces the
        incremental state's delays exactly — the full-pass side of the
        ``incremental-vs-full`` conformance pairs.
        """
        return _OverrideDelays(self._model.base, dict(self._overrides))

    # -- worklist repair --------------------------------------------------

    def _edit(self, gate_name: str, before: Dict[str, Normal],
              full: bool) -> UpdateStats:
        """Bring the TOPs in line with the override map, which was
        ``before`` until this edit, and record the edit's undo.

        A failed repair puts the TOPs and the override map back as they
        were, so an edit either lands completely or not at all.
        """
        undo, self._undo = self._undo, None
        if not full and undo is not None and undo[0] == self._overrides:
            restored = undo[1]
            self._undo = (before, {name: self.tops[name]
                                   for name in restored})
            self.tops.update(restored)
            return UpdateStats(recomputed=0, skipped=0, cone_size=0,
                               restored=len(restored))
        prior: Dict[str, NetTops[D]] = {}
        try:
            if full:
                self.full_recompute()
                n = len(self._order)
                return UpdateStats(recomputed=n, skipped=0, cone_size=n)
            stats = self._repair(gate_name, prior)
        except BaseException:
            self.tops.update(prior)
            self._overrides.clear()
            self._overrides.update(before)
            raise
        self._undo = (before, prior)
        return stats

    def update_gate(self, gate_name: str) -> UpdateStats:
        """Re-evaluate ``gate_name`` and propagate only real changes.

        The worklist is a min-heap keyed by topological rank (the
        :class:`~repro.core.incremental.IncrementalSsta` pattern): every
        pop is O(log cone), and a gate is popped only after all of its
        already-queued fan-in repairs.  A gate whose recomputed TOPs match
        the stored ones (exactly, at the default tolerance 0) does not
        enqueue its fanouts.  Drops the undo record.
        """
        if gate_name not in self._order:
            raise KeyError(f"{gate_name} is not a combinational gate")
        self._undo = None
        return self._repair(gate_name, {})

    def _repair(self, gate_name: str,
                prior: Dict[str, NetTops[D]]) -> UpdateStats:
        """The worklist of :meth:`update_gate`; files the TOPs it
        overwrites into ``prior``."""
        heap: List[Tuple[int, str]] = [(self._order[gate_name], gate_name)]
        queued: Set[str] = {gate_name}
        cone: Set[str] = set()
        recomputed = 0
        skipped = 0
        while heap:
            _, current = heapq.heappop(heap)
            queued.discard(current)
            cone.add(current)
            gate = self.netlist.gates[current]
            in_probs = [self.prob4[src] for src in gate.inputs]
            in_tops = [self.tops[src] for src in gate.inputs]
            new_tops = _gate_tops(gate, in_probs, in_tops, self._model,
                                  self.algebra, self._parity_cap)
            recomputed += 1
            if self._unchanged(self.tops[current], new_tops):
                skipped += 1
                continue
            prior[current] = self.tops[current]
            self.tops[current] = new_tops
            for sink in self.netlist.fanouts(current):
                # skip DFFs (cycle boundary) and already-queued sinks
                if sink in self._order and sink not in queued:
                    queued.add(sink)
                    heapq.heappush(heap, (self._order[sink], sink))
        return UpdateStats(recomputed=recomputed, skipped=skipped,
                           cone_size=len(cone))

    def full_recompute(self) -> None:
        """Reference full pass (initialisation, testing, resync).

        Identical math to ``run_spsta(engine="naive")``: shared launch
        seeding plus the shared per-gate kernel in topological order.
        Drops the undo record.
        """
        self._undo = None
        prob4: Dict[str, Prob4] = {}
        tops: Dict[str, NetTops[D]] = {}
        launch_tops(self.netlist, self._stats, self.algebra, prob4, tops)
        for gate in self.netlist.combinational_gates:
            in_probs = [prob4[src] for src in gate.inputs]
            in_tops = [tops[src] for src in gate.inputs]
            prob4[gate.name] = gate_prob4(gate.gate_type, in_probs)
            tops[gate.name] = _gate_tops(gate, in_probs, in_tops,
                                         self._model, self.algebra,
                                         self._parity_cap)
        self.prob4 = prob4
        self.tops = tops

    def result(self) -> SpstaResult[D]:
        """The current state as an ordinary :class:`SpstaResult` view."""
        return SpstaResult(self.netlist.name, self.algebra, self.prob4,
                           self.tops)

    # -- change detection -------------------------------------------------

    def _unchanged(self, old: NetTops[D], new: NetTops[D]) -> bool:
        return (self._top_close(old.rise, new.rise)
                and self._top_close(old.fall, new.fall))

    def _top_close(self, a: TopFunction[D], b: TopFunction[D]) -> bool:
        if a.occurs != b.occurs:
            return False
        if not a.occurs:
            return True
        if abs(a.weight - b.weight) > self._tolerance:
            return False
        return conditionals_close(a.conditional, b.conditional,
                                  self._tolerance)


def conditionals_close(a: D, b: D, tolerance: float) -> bool:
    """Whether two conditional distributions agree within ``tolerance``.

    At tolerance 0 this is exact (bitwise) equality of the abstraction's
    parameters, which is what makes early termination safe: a gate whose
    recomputed TOPs compare equal feeds its fanouts the *same values* a
    full pass would, so not re-visiting them cannot change anything.
    """
    if isinstance(a, Normal) and isinstance(b, Normal):
        return (abs(a.mu - b.mu) <= tolerance
                and abs(a.sigma - b.sigma) <= tolerance)
    if isinstance(a, GaussianMixture) and isinstance(b, GaussianMixture):
        if len(a.components) != len(b.components):
            return False
        return all(abs(ca.weight - cb.weight) <= tolerance
                   and abs(ca.mu - cb.mu) <= tolerance
                   and abs(ca.sigma - cb.sigma) <= tolerance
                   for ca, cb in zip(a.components, b.components))
    if isinstance(a, GridDensity) and isinstance(b, GridDensity):
        if tolerance == 0.0:
            return bool(np.array_equal(a.values, b.values))
        return bool(np.max(np.abs(a.values - b.values)) <= tolerance)
    raise TypeError(
        f"no closeness rule for conditional type {type(a).__name__}")


class IncrementalDivergenceError(ValueError):
    """The incremental state diverged from a fresh full pass."""


def fresh_algebra_like(algebra: TopAlgebra[D]) -> TopAlgebra[D]:
    """A new algebra instance with the same configuration.

    Full-pass conformance reruns need a *fresh* algebra (its own caches
    and ledger) that is nevertheless configured identically, so both
    sides compute the same values.
    """
    from repro.core.spsta import GridAlgebra, MixtureAlgebra
    if isinstance(algebra, MixtureAlgebra):
        return MixtureAlgebra(algebra.max_components)  # type: ignore
    if isinstance(algebra, GridAlgebra):
        return GridAlgebra(algebra.grid,  # type: ignore
                           algebra.conv_method)
    return type(algebra)()


def assert_matches_full(inc: IncrementalSpsta[D],
                        tolerance: float = 0.0) -> int:
    """Check the incremental state against a fresh naive full pass.

    Runs ``run_spsta(engine="naive")`` over :meth:`IncrementalSpsta.
    effective_delay_model` with a fresh identically-configured algebra and
    compares every net's TOPs at ``tolerance`` (default: bit-exact).
    Returns the number of nets compared; raises
    :class:`IncrementalDivergenceError` listing every divergent net.
    This is the optimizer's per-move conformance hook
    (``optimize_spsta(verify_moves=True)``); the sweep-level counterpart
    lives in :mod:`repro.verify.harness`.
    """
    from repro.core.spsta import run_spsta
    full = run_spsta(inc.netlist, inc._stats,
                     inc.effective_delay_model(),
                     fresh_algebra_like(inc.algebra), engine="naive")
    divergent: List[str] = []
    for net, expected in full.tops.items():
        got = inc.tops.get(net)
        if got is None:
            divergent.append(f"{net}: missing from incremental state")
            continue
        for direction in ("rise", "fall"):
            a = getattr(got, direction)
            b = getattr(expected, direction)
            if a.occurs != b.occurs or (a.occurs and (
                    abs(a.weight - b.weight) > tolerance
                    or not conditionals_close(a.conditional, b.conditional,
                                              tolerance))):
                divergent.append(f"{net}/{direction}")
    if divergent:
        raise IncrementalDivergenceError(
            f"incremental state diverged from a full pass on "
            f"{len(divergent)} net/direction(s): "
            + ", ".join(divergent[:8])
            + (" ..." if len(divergent) > 8 else ""))
    return len(full.tops)


class _OverrideDelays:
    """Base :class:`DelayModel` with per-gate Normal overrides on top.

    Overridden gates return their override for *every* switching-input
    count (an explicit move pins the delay); other gates delegate to the
    base model, preserving its MIS behaviour if it has one.
    """

    def __init__(self, base: DelayModel,
                 overrides: Dict[str, Normal]) -> None:
        self.base = base
        self._overrides = overrides

    def fingerprint_payload(self) -> object:
        """Canonical identity for :func:`repro.sim.checkpoint.
        delay_fingerprint`: the base model plus the override mapping
        (hashed in sorted-key order), so two override stacks that apply
        the same delays fingerprint equally regardless of edit order."""
        return (self.base, dict(self._overrides))

    def delay(self, gate) -> Normal:
        override = self._overrides.get(gate.name)
        if override is not None:
            return override
        return self.base.delay(gate)

    def delay_mis(self, gate, n_switching: int) -> Normal:
        override = self._overrides.get(gate.name)
        if override is not None:
            return override
        if hasattr(self.base, "delay_mis"):
            return self.base.delay_mis(gate, n_switching)
        return self.base.delay(gate)
