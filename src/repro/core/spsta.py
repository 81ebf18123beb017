"""Signal Probability based Statistical Timing Analysis (paper Sec. 3).

SPSTA propagates, per net and per transition direction, a *TOP function*
(transition temporal occurrence probability, Def. 3): a sub-probability
density whose integral is the transition occurrence probability and whose
shape is the conditional arrival-time distribution.  Gate outputs are
computed with the four-value WEIGHTED SUM + MAX combination of Eq. 11/12:

    phi_r(y) = sum over rising input subsets R:
                 prod_{i in R} Pr(x_i) * prod_{i not in R} Pnc(x_i)
                 * phi_r(MAX_{i in R}(x_i))

with MIN replacing MAX for transitions toward the controlled value and the
directions swapped through inverting gates.  Parity (XOR) gates, which have
no controlling value, use exact O(4^k) joint enumeration: the output toggles
iff an odd number of inputs switch, settling at the LAST switching input.

The engine is written once over an abstract *TOP algebra*; three concrete
algebras implement the paper's two abstraction methods plus a numeric
cross-check:

- :class:`MomentAlgebra` — conditional distributions as moment-matched
  Gaussians (the moment/correlation method of Sec. 3.4);
- :class:`MixtureAlgebra` — conditional distributions as Gaussian mixtures
  with a component cap (richer shape, still closed-form);
- :class:`GridAlgebra` — discretized densities (numerically exact WEIGHTED
  SUM and MAX; regenerates Figure 4).

Independence between gate inputs is assumed, as in the paper's experiments
(Sec. 4, observation 5); the covariance extension lives in
:mod:`repro.core.correlation`.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product
from typing import (
    Dict,
    Generic,
    List,
    Mapping,
    Optional,
    Sequence,
    Tuple,
    TypeVar,
    Union,
)

from repro.compat import trapezoid
from repro.core.delay import DelayModel, UnitDelay
from repro.core.inputs import InputStats, Prob4
from repro.core.probability import gate_prob4
from repro.core.profiling import SpstaProfile
from repro.logic.fourvalue import Logic4, gate_output_value
from repro.logic.gates import GateSpec, GateType, gate_spec
from repro.netlist.core import Gate, Netlist
from repro.stats.clark import clark_max_many, clark_min_many
from repro.stats.grid import GridDensity, KernelCache, MassLedger, TimeGrid
from repro.stats.mixture import GaussianMixture
from repro.stats.moments import WeightedMoments, weighted_sum_moments
from repro.stats.normal import Normal

D = TypeVar("D")

#: Parity-gate fan-in limit for the exact 4^k joint enumeration.  Netlists
#: with wider XOR trees should be rewritten with
#: :func:`repro.netlist.transform.decompose_fanin` first (the documented
#: fallback), or pass an explicit ``max_parity_fanin`` to :func:`run_spsta`.
MAX_PARITY_FANIN = 10


class TopAlgebra(Generic[D]):
    """Operations on conditional (normalized) arrival-time distributions."""

    def from_normal(self, normal: Normal) -> D:
        raise NotImplementedError

    def from_launch(self, net: str, direction: str, normal: Normal) -> D:
        """Conditional distribution of a launch-point transition.

        Defaults to :meth:`from_normal`; correlation-tracking algebras
        override this to give each launch transition its own identity (see
        :class:`repro.core.spsta_canonical.CanonicalTopAlgebra`).
        """
        return self.from_normal(normal)

    def add_delay(self, dist: D, delay: Normal) -> D:
        raise NotImplementedError

    def maximum(self, dists: Sequence[D]) -> D:
        raise NotImplementedError

    def minimum(self, dists: Sequence[D]) -> D:
        raise NotImplementedError

    def mix(self, terms: Sequence[Tuple[float, D]],
            ) -> Tuple[float, Optional[D]]:
        """WEIGHTED SUM: combine (weight, conditional) terms into the total
        weight and the mixed conditional distribution (None if weight 0)."""
        raise NotImplementedError

    def stats(self, dist: D) -> Tuple[float, float]:
        """(mean, std) of a conditional distribution."""
        raise NotImplementedError

    def skewness(self, dist: D) -> float:
        """Standardized skewness of a conditional distribution.

        Sec. 3.4 lists skewness among the moments SPSTA can carry; the
        Gaussian abstractions report 0 by construction, while the mixture
        and grid abstractions expose the real asymmetry (e.g. Figure 4's
        skewed MAX results).
        """
        return 0.0


class MomentAlgebra(TopAlgebra[Normal]):
    """Sec. 3.4: conditionals abstracted to (mean, variance) Gaussians."""

    def from_normal(self, normal: Normal) -> Normal:
        return normal

    def add_delay(self, dist: Normal, delay: Normal) -> Normal:
        return dist + delay

    def maximum(self, dists: Sequence[Normal]) -> Normal:
        return clark_max_many(dists)

    def minimum(self, dists: Sequence[Normal]) -> Normal:
        return clark_min_many(dists)

    def mix(self, terms: Sequence[Tuple[float, Normal]]
            ) -> Tuple[float, Optional[Normal]]:
        moments = weighted_sum_moments(
            [(w, WeightedMoments(1.0, n.mu, n.var)) for w, n in terms])
        if not moments.occurs:
            return 0.0, None
        return moments.weight, Normal(moments.mean, moments.std)

    def stats(self, dist: Normal) -> Tuple[float, float]:
        return dist.mu, dist.sigma


class MixtureAlgebra(TopAlgebra[GaussianMixture]):
    """Conditionals as Gaussian mixtures, capped at ``max_components``."""

    def __init__(self, max_components: int = 8) -> None:
        if max_components < 1:
            raise ValueError("max_components must be >= 1")
        self.max_components = max_components

    def from_normal(self, normal: Normal) -> GaussianMixture:
        return GaussianMixture.from_normal(normal)

    def add_delay(self, dist: GaussianMixture,
                  delay: Normal) -> GaussianMixture:
        return dist.convolved(delay)

    def maximum(self, dists: Sequence[GaussianMixture]) -> GaussianMixture:
        acc = dists[0]
        for d in dists[1:]:
            acc = acc.max_with(d).reduced(self.max_components)
        return acc

    def minimum(self, dists: Sequence[GaussianMixture]) -> GaussianMixture:
        acc = dists[0]
        for d in dists[1:]:
            acc = acc.min_with(d).reduced(self.max_components)
        return acc

    def mix(self, terms: Sequence[Tuple[float, GaussianMixture]]
            ) -> Tuple[float, Optional[GaussianMixture]]:
        acc = GaussianMixture.empty()
        for weight, dist in terms:
            acc = acc + dist.normalized().scaled(weight)
        total = acc.total_weight
        if total <= 0.0:
            return 0.0, None
        return total, acc.normalized().reduced(self.max_components)

    def stats(self, dist: GaussianMixture) -> Tuple[float, float]:
        return dist.mean(), dist.std()

    def skewness(self, dist: GaussianMixture) -> float:
        from repro.stats.moments import skewness_from_moments
        return skewness_from_moments(dist.mean(), dist.var(),
                                     dist.third_central_moment())


class GridAlgebra(TopAlgebra[GridDensity]):
    """Conditionals as discretized densities on a shared time grid.

    ``conv_method`` selects the delay-convolution algorithm (``"direct"``,
    ``"fft"``, or ``"auto"``; see :meth:`GridDensity.convolved`).  The
    default ``"direct"`` preserves the historical numerics bit for bit; the
    fast engine supplies its own batched FFT path regardless.  A per-algebra
    :class:`~repro.stats.grid.KernelCache` builds each distinct delay kernel
    once per analysis.
    """

    def __init__(self, grid: TimeGrid, conv_method: str = "direct") -> None:
        if conv_method not in ("direct", "fft", "auto"):
            raise ValueError(f"unknown conv_method {conv_method!r}")
        self.grid = grid
        self.conv_method = conv_method
        self.kernel_cache = KernelCache(grid)
        self.mass_ledger = MassLedger()

    def from_normal(self, normal: Normal) -> GridDensity:
        return GridDensity.from_normal(self.grid, normal,
                                       ledger=self.mass_ledger)

    def add_delay(self, dist: GridDensity, delay: Normal) -> GridDensity:
        return dist.convolved(delay, method=self.conv_method,
                              cache=self.kernel_cache,
                              ledger=self.mass_ledger)

    def maximum(self, dists: Sequence[GridDensity]) -> GridDensity:
        acc = dists[0]
        for d in dists[1:]:
            acc = acc.max_with(d)
        return acc

    def minimum(self, dists: Sequence[GridDensity]) -> GridDensity:
        acc = dists[0]
        for d in dists[1:]:
            acc = acc.min_with(d)
        return acc

    def mix(self, terms: Sequence[Tuple[float, GridDensity]]
            ) -> Tuple[float, Optional[GridDensity]]:
        acc = GridDensity.zero(self.grid)
        total = 0.0
        for weight, dist in terms:
            total += weight
            acc = acc + dist.normalized().scaled(weight)
        if total <= 0.0:
            return 0.0, None
        return total, acc.normalized()

    def stats(self, dist: GridDensity) -> Tuple[float, float]:
        return dist.mean(), dist.std()

    def skewness(self, dist: GridDensity) -> float:
        mean, var = dist.mean(), dist.var()
        if var <= 0.0:
            return 0.0
        t = dist.grid.points
        third = float(trapezoid((t - mean) ** 3 * dist.values,
                                dx=dist.grid.dt)) / dist.total_weight
        return third / var ** 1.5


@dataclass(frozen=True)
class TopFunction(Generic[D]):
    """One direction's TOP abstraction at a net: occurrence weight plus the
    conditional arrival distribution (None when the transition never
    occurs)."""

    weight: float
    conditional: Optional[D]

    @property
    def occurs(self) -> bool:
        return self.weight > 0.0 and self.conditional is not None

    @classmethod
    def absent(cls) -> "TopFunction[D]":
        return cls(0.0, None)


@dataclass(frozen=True)
class NetTops(Generic[D]):
    """Rise and fall TOP functions of one net."""

    rise: TopFunction[D]
    fall: TopFunction[D]

    def swapped(self) -> "NetTops[D]":
        return NetTops(self.fall, self.rise)


@dataclass
class SpstaResult(Generic[D]):
    """SPSTA output: per-net four-value probabilities and TOP functions."""

    netlist_name: str
    algebra: TopAlgebra[D]
    prob4: Mapping[str, Prob4]
    tops: Mapping[str, NetTops[D]]
    profile: Optional[SpstaProfile] = None

    def report(self, net: str, direction: str) -> Tuple[float, float, float]:
        """(P, mean, std) of one direction at one net — a Table 2 cell.

        A never-occurring transition reports (0, nan, nan).
        """
        top = getattr(self.tops[net], direction)
        if not top.occurs:
            return 0.0, float("nan"), float("nan")
        mean, std = self.algebra.stats(top.conditional)
        return top.weight, mean, std

    def toggling_rate(self, net: str) -> float:
        """Expected transitions per cycle at a net (Sec. 3.1: the integral
        of the TOP functions) — the power-estimation by-product."""
        tops = self.tops[net]
        return tops.rise.weight + tops.fall.weight

    def skewness(self, net: str, direction: str) -> float:
        """Standardized skewness of the conditional arrival distribution
        (0 under Gaussian abstractions, real asymmetry under mixture/grid).
        Returns 0 for never-occurring transitions."""
        top = getattr(self.tops[net], direction)
        if not top.occurs:
            return 0.0
        return self.algebra.skewness(top.conditional)


def run_spsta(netlist: Netlist,
              stats: Union[InputStats, Mapping[str, InputStats]],
              delay_model: DelayModel = UnitDelay(),
              algebra: Optional[TopAlgebra[D]] = None,
              *,
              engine: str = "fast",
              profile: Optional[SpstaProfile] = None,
              max_parity_fanin: Optional[int] = None,
              seed_tops: Optional[
                  Mapping[str, Tuple[Prob4, NetTops[D]]]] = None,
              ) -> SpstaResult[D]:
    """Run SPSTA over a netlist.

    ``stats`` is a single :class:`InputStats` asserted at every launch point
    (the paper's setup) or a per-launch-point mapping.  ``algebra`` selects
    the TOP abstraction (default: :class:`MomentAlgebra`).

    ``engine`` selects the propagation engine, and this function is the
    one place that routes it.  ``"naive"`` is the per-gate reference sweep
    that follows the paper's Eq. 11 subset enumeration directly.
    ``"fast"`` (default) sends :class:`GridAlgebra` runs to the compiled
    level walker of :mod:`repro.core.scenario` as a batch of one scenario
    (:func:`repro.core.spsta_fast.run_spsta_fast`: stacked array kernels,
    subset-lattice MAX sharing, cached FFT delay convolution); every other
    algebra (moments, mixtures, canonical forms) runs the naive sweep,
    which is already the faster kernel for scalar closed-form folds.  So
    the closed-form algebras give bit-identical results on both engines,
    and the grid algebra agrees within discretization rounding (see
    ``tests/test_spsta_fastpath.py``).

    ``profile`` is an optional
    :class:`~repro.core.profiling.SpstaProfile` populated during the run
    (one is always attached to the result).  ``max_parity_fanin`` overrides
    :data:`MAX_PARITY_FANIN`, the guard against the 4^k parity blowup.

    ``seed_tops`` pre-seeds selected launch points with externally
    computed ``(Prob4, NetTops)`` pairs instead of deriving them from
    ``stats`` — the hook the hierarchical analyzer (:mod:`repro.hier`)
    uses to assert upstream boundary TOPs at a region's cut pins.  Launch
    points absent from the mapping fall back to ``stats`` unchanged, so a
    flat run (``seed_tops=None``) is bit-identical to the historical
    behaviour.
    """
    if algebra is None:
        algebra = MomentAlgebra()
    if engine not in ("fast", "naive"):
        raise ValueError(f"unknown engine {engine!r} (use 'fast' or 'naive')")
    if engine == "fast" and isinstance(algebra, GridAlgebra):
        from repro.core.spsta_fast import run_spsta_fast
        return run_spsta_fast(netlist, stats, delay_model, algebra,
                              profile=profile,
                              max_parity_fanin=max_parity_fanin,
                              seed_tops=seed_tops)

    if profile is None:
        profile = SpstaProfile()
    profile.engine = "naive"
    profile.algebra = type(algebra).__name__
    profile.circuit = netlist.name
    parity_cap = (MAX_PARITY_FANIN if max_parity_fanin is None
                  else max_parity_fanin)
    validate_parity_fanins(netlist, parity_cap)

    prob4: Dict[str, Prob4] = {}
    tops: Dict[str, NetTops[D]] = {}
    with profile.phase("launch"):
        launch_tops(netlist, stats, algebra, prob4, tops,
                    seeds=seed_tops)

    with profile.phase("propagate"):
        for gate in netlist.combinational_gates:
            in_probs = [prob4[src] for src in gate.inputs]
            in_tops = [tops[src] for src in gate.inputs]
            prob4[gate.name] = gate_prob4(gate.gate_type, in_probs)
            tops[gate.name] = _gate_tops(gate, in_probs, in_tops, delay_model,
                                         algebra, parity_cap, profile)
            profile.gates_processed += 1

    _harvest_kernel_counters(algebra, profile)
    return SpstaResult(netlist.name, algebra, prob4, tops, profile)


def launch_tops(netlist: Netlist,
                stats: Union[InputStats, Mapping[str, InputStats]],
                algebra: TopAlgebra[D],
                prob4: Dict[str, Prob4],
                tops: Dict[str, NetTops[D]],
                seeds: Optional[
                    Mapping[str, Tuple[Prob4, NetTops[D]]]] = None) -> None:
    """Assert launch-point statistics into ``prob4``/``tops`` (shared by the
    naive and fast engines so both start from identical TOPs).

    ``seeds`` overrides individual launch points with pre-computed
    ``(Prob4, NetTops)`` pairs — the boundary pins of a hierarchical
    region carry their upstream TOPs verbatim instead of fresh launch
    statistics."""
    for net in netlist.launch_points:
        if seeds is not None and net in seeds:
            seed_prob4, seed_nettops = seeds[net]
            prob4[net] = seed_prob4
            tops[net] = seed_nettops
            continue
        s = stats if isinstance(stats, InputStats) else stats[net]
        prob4[net] = s.prob4
        rise = (TopFunction(s.prob4.p_rise,
                            algebra.from_launch(net, "rise", s.rise_arrival))
                if s.prob4.p_rise > 0.0 else TopFunction.absent())
        fall = (TopFunction(s.prob4.p_fall,
                            algebra.from_launch(net, "fall", s.fall_arrival))
                if s.prob4.p_fall > 0.0 else TopFunction.absent())
        tops[net] = NetTops(rise, fall)


def _harvest_kernel_counters(algebra: TopAlgebra,
                             profile: SpstaProfile) -> None:
    """Copy kernel-cache and mass-ledger counters off a grid algebra."""
    cache = getattr(algebra, "kernel_cache", None)
    if cache is not None:
        profile.kernel_cache_hits = cache.hits
        profile.kernel_cache_misses = cache.misses
    ledger = getattr(algebra, "mass_ledger", None)
    if ledger is not None:
        profile.mass_checks += ledger.checks
        profile.clipped_mass += ledger.clipped_mass
        profile.clip_events += ledger.clip_events
        profile.max_clip_fraction = max(profile.max_clip_fraction,
                                        ledger.max_clip_fraction)


def _delay_for(delay_model: DelayModel, gate: Gate):
    """Per-subset delay lookup: MIS-aware models (those exposing
    ``delay_mis``) get the number of simultaneously switching inputs — the
    quantity SPSTA's subset enumeration knows exactly and SSTA cannot."""
    if hasattr(delay_model, "delay_mis"):
        return lambda k: delay_model.delay_mis(gate, k)
    nominal = delay_model.delay(gate)
    return lambda k: nominal


def _gate_tops(gate: Gate, in_probs: Sequence[Prob4],
               in_tops: Sequence[NetTops[D]], delay_model: DelayModel,
               algebra: TopAlgebra[D],
               max_parity_fanin: int = MAX_PARITY_FANIN,
               profile: Optional[SpstaProfile] = None) -> NetTops[D]:
    spec = gate_spec(gate.gate_type)
    delay_for = _delay_for(delay_model, gate)
    if gate.gate_type in (GateType.BUFF, GateType.NOT):
        core = (in_tops[0] if gate.gate_type is GateType.BUFF
                else in_tops[0].swapped())
        delay = delay_for(1)
        return NetTops(_delayed(core.rise, delay, algebra),
                       _delayed(core.fall, delay, algebra))
    if spec.is_parity:
        return _parity_tops(spec, in_probs, in_tops, delay_for, algebra,
                            max_parity_fanin, profile)
    core = _controlling_tops(spec, in_probs, in_tops, delay_for, algebra,
                             profile)
    if spec.inverting:
        core = core.swapped()
    return core


def _delayed(top: TopFunction[D], delay: Normal,
             algebra: TopAlgebra[D]) -> TopFunction[D]:
    if not top.occurs:
        return TopFunction.absent()
    return TopFunction(top.weight, algebra.add_delay(top.conditional, delay))


def _controlling_tops(spec: GateSpec, in_probs: Sequence[Prob4],
                      in_tops: Sequence[NetTops[D]], delay_for,
                      algebra: TopAlgebra[D],
                      profile: Optional[SpstaProfile] = None) -> NetTops[D]:
    """Eq. 11 subset enumeration for AND/OR-core gates (pre-inversion).

    For the AND core (non-controlling value 1): the output rises iff every
    input ends at 1 and at least one input rose — switching inputs all rise,
    the others sit at static 1 — and settles at the LAST rising input (MAX).
    The output falls at the FIRST falling input (MIN) while the others sit
    at 1.  The OR core mirrors this with static 0 and MIN/MAX exchanged.
    Each subset term carries the delay for its own switching-input count.
    """
    is_and_core = spec.controlling_value == 0

    def static_prob(p: Prob4) -> float:
        return p.p_one if is_and_core else p.p_zero

    rise_terms = _subset_terms(
        in_probs, in_tops, algebra, delay_for,
        switch_prob=lambda p: p.p_rise,
        switch_top=lambda t: t.rise,
        static_prob=static_prob,
        use_max=is_and_core)
    fall_terms = _subset_terms(
        in_probs, in_tops, algebra, delay_for,
        switch_prob=lambda p: p.p_fall,
        switch_top=lambda t: t.fall,
        static_prob=static_prob,
        use_max=not is_and_core)
    if profile is not None:
        profile.subset_terms += len(rise_terms) + len(fall_terms)
    return NetTops(_mixed(rise_terms, algebra), _mixed(fall_terms, algebra))


def _subset_terms(in_probs: Sequence[Prob4], in_tops: Sequence[NetTops[D]],
                  algebra: TopAlgebra[D], delay_for, switch_prob, switch_top,
                  static_prob, use_max: bool) -> List[Tuple[float, D]]:
    """All (weight, conditional) terms of one output direction (Eq. 11).

    The per-mask weight is computed as ``static_factor * w`` with ``w``
    folded over the candidates in index order — the exact multiplication
    order the fast engine's cached weight tables use, so the two paths stay
    bit-identical.
    """
    candidates: List[int] = []
    static_factor = 1.0
    for i, (p, t) in enumerate(zip(in_probs, in_tops)):
        if switch_prob(p) > 0.0 and switch_top(t).occurs:
            candidates.append(i)
        else:
            static_factor *= static_prob(p)
    if static_factor <= 0.0 or not candidates:
        return []
    terms: List[Tuple[float, D]] = []
    for mask in range(1, 1 << len(candidates)):
        w = 1.0
        dists: List[D] = []
        for bit, i in enumerate(candidates):
            if mask & (1 << bit):
                w *= switch_prob(in_probs[i])
                dists.append(switch_top(in_tops[i]).conditional)
            else:
                w *= static_prob(in_probs[i])
        weight = static_factor * w
        if weight <= 0.0:
            continue
        combined = (algebra.maximum(dists) if use_max
                    else algebra.minimum(dists))
        combined = algebra.add_delay(combined, delay_for(len(dists)))
        terms.append((weight, combined))
    return terms


def _parity_tops(spec: GateSpec, in_probs: Sequence[Prob4],
                 in_tops: Sequence[NetTops[D]], delay_for,
                 algebra: TopAlgebra[D],
                 max_fanin: int = MAX_PARITY_FANIN,
                 profile: Optional[SpstaProfile] = None) -> NetTops[D]:
    """Exact joint enumeration for XOR/XNOR (no controlling value).

    The output toggles at every switching input, so it transitions iff an
    odd number of inputs switch, in the direction given by initial/final
    parity, settling at the LAST switching input (MAX) — mixing rising and
    falling input distributions inside one MAX is correct here.
    """
    k = len(in_probs)
    check_parity_fanin(k, max_fanin)
    rise_terms: List[Tuple[float, D]] = []
    fall_terms: List[Tuple[float, D]] = []
    for assignment in product(tuple(Logic4), repeat=k):
        weight = 1.0
        dists: List[D] = []
        for p, t, v in zip(in_probs, in_tops, assignment):
            weight *= p[v]
            if weight <= 0.0:
                break
            if v is Logic4.RISE:
                if not t.rise.occurs:
                    weight = 0.0
                    break
                dists.append(t.rise.conditional)
            elif v is Logic4.FALL:
                if not t.fall.occurs:
                    weight = 0.0
                    break
                dists.append(t.fall.conditional)
        if weight <= 0.0:
            continue
        out = gate_output_value(spec, assignment)
        if out not in (Logic4.RISE, Logic4.FALL):
            continue
        combined = algebra.add_delay(algebra.maximum(dists),
                                     delay_for(len(dists)))
        if out is Logic4.RISE:
            rise_terms.append((weight, combined))
        else:
            fall_terms.append((weight, combined))
    if profile is not None:
        profile.parity_terms += len(rise_terms) + len(fall_terms)
    return NetTops(_mixed(rise_terms, algebra), _mixed(fall_terms, algebra))


def validate_parity_fanins(netlist: Netlist,
                           max_fanin: int = MAX_PARITY_FANIN) -> None:
    """Reject over-wide parity gates before any propagation starts.

    The four-value probability sweep that precedes the TOP computation is
    itself a 4^k joint enumeration for parity gates, so checking only
    inside :func:`_parity_tops` would let a wide XOR burn minutes in
    ``gate_prob4`` before the guard ever fires.
    """
    for gate in netlist.combinational_gates:
        if gate_spec(gate.gate_type).is_parity:
            check_parity_fanin(len(gate.inputs), max_fanin)


def check_parity_fanin(fanin: int, max_fanin: int = MAX_PARITY_FANIN) -> None:
    """Guard against the parity 4^k joint-enumeration blowup.

    A 16-input XOR would silently enumerate 4^16 ≈ 4.3e9 assignments;
    refuse anything beyond ``max_fanin`` with a pointer at the documented
    fallback (rewriting wide gates as bounded-fan-in trees).
    """
    if fanin > max_fanin:
        raise ValueError(
            f"parity gate fan-in {fanin} exceeds the 4^k joint-enumeration "
            f"limit {max_fanin} ({4 ** fanin:,} assignments); decompose "
            f"wide XOR/XNOR gates first with "
            f"repro.netlist.transform.decompose_fanin(netlist, max_fanin=2) "
            f"or raise run_spsta(..., max_parity_fanin=...) explicitly")


def _mixed(terms: Sequence[Tuple[float, D]],
           algebra: TopAlgebra[D]) -> TopFunction[D]:
    weight, conditional = algebra.mix(terms)
    if conditional is None:
        return TopFunction.absent()
    return TopFunction(weight, conditional)
