"""The bounds engine: certified facts from one static pass.

:func:`compute_bounds` propagates two abstractions through the
levelized netlist:

**Signal-probability intervals.**  Per gate, the stem sweep
(:mod:`repro.bounds.stems`) picks the sound regime:

- ``independent`` — no fan-out stem lands on two input cones, so the
  inputs are provably independent and the exact closed form applies
  (interval width 0 stays 0: fanout-free circuits get the point SP,
  bit-identical to :func:`repro.core.probability.signal_probabilities`);
- ``bdd`` — reconvergent, but the cone's launch support fits under
  ``max_cone_inputs``: the cone collapses to a BDD over its launch
  points (shared manager, ``max_bdd_nodes`` cap) and an interval Shannon
  walk gives the exact probability — structural correlation included;
- ``frechet`` — reconvergent and too wide (or the node cap was hit):
  Fréchet–Hoeffding widening, sound under any input dependence.

**Arrival-time bound boxes** ``(mu_lo, mu_hi, var_hi, sigma_lo)`` per
net, valid for the *conditional* transition-arrival distributions any
of the SPSTA algebras propagate, under any joint: means fold through a
Clark-style upper envelope that is monotone in its arguments, the
variance upper bound adds the per-input variances, the gate delay
variance, and a mixture-spread term ``((mu_hi - mu_lo)/2)^2`` (the
algebras' conditional arrival is a mixture over switching subsets;
a mixture's variance includes the spread of component means — see
docs/theory.md for why each term is required).  The lower sigma keeps
only the gate's own delay sigma: maxing can destroy input variance
(``Var(max(X, -X)) < Var(X)``), so input sigmas cannot be kept.

Per-endpoint criticality bounds ``mu + k sigma`` follow, with
:meth:`BoundsResult.non_critical_gates` giving the certified set of
gates that can never sit on a critical path to any contender endpoint.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import (
    Callable,
    Dict,
    FrozenSet,
    List,
    Mapping,
    Optional,
    Tuple,
    Union,
)

from repro.bounds.intervals import (
    Interval,
    add_down,
    add_up,
    gate_interval_frechet,
    gate_interval_independent,
    mul_down,
    mul_up,
)
from repro.bounds.stems import launch_support_counts, sweep_stems
from repro.core.delay import DelayModel, UnitDelay
from repro.core.inputs import CONFIG_I, InputStats
from repro.logic.bdd import FALSE, TRUE, BDDManager
from repro.netlist.core import Gate, Netlist

#: Launch-support width above which a reconvergent cone is not collapsed.
DEFAULT_MAX_CONE_INPUTS = 10
#: Shared-manager node cap for all cone collapses of one analysis.
DEFAULT_MAX_BDD_NODES = 100_000

LaunchSpec = Union[float, Interval, Mapping[str, Union[float, Interval]]]


@dataclass(frozen=True)
class DelayBounds:
    """Box of gate-delay moments: mu and sigma each in a closed range."""

    mu_lo: float
    mu_hi: float
    sigma_lo: float
    sigma_hi: float

    def __post_init__(self) -> None:
        if not (self.mu_lo <= self.mu_hi
                and 0.0 <= self.sigma_lo <= self.sigma_hi):
            raise ValueError(f"invalid delay bounds {self}")

    @staticmethod
    def from_point(mu: float, sigma: float) -> "DelayBounds":
        return DelayBounds(mu, mu, sigma, sigma)


@dataclass(frozen=True)
class ArrivalBounds:
    """Arrival-moment box for one net's conditional transition arrival."""

    mu_lo: float
    mu_hi: float
    var_hi: float
    sigma_lo: float

    @property
    def sigma_hi(self) -> float:
        return math.sqrt(self.var_hi)

    def criticality(self, k_sigma: float) -> Tuple[float, float]:
        """Certified ``[lo, hi]`` of the ``mu + k sigma`` severity."""
        return (self.mu_lo + k_sigma * self.sigma_lo,
                self.mu_hi + k_sigma * self.sigma_hi)


@dataclass
class BoundsResult:
    """Everything :func:`compute_bounds` certifies about a netlist."""

    netlist: Netlist
    k_sigma: float
    clock_period: Optional[float]
    sp: Dict[str, Interval]
    regimes: Dict[str, str]
    bdd_exhausted: bool
    arrivals: Dict[str, ArrivalBounds]
    endpoint_criticality: Dict[str, Tuple[float, float]]
    critical_lower: float
    _non_critical_cache: Dict[float, FrozenSet[str]] = field(
        default_factory=dict, repr=False)

    @property
    def regime_counts(self) -> Dict[str, int]:
        counts = {"independent": 0, "bdd": 0, "frechet": 0}
        for regime in self.regimes.values():
            counts[regime] += 1
        return counts

    def never_critical_endpoints(self, threshold: float) -> List[str]:
        """Endpoints whose upper criticality bound is strictly below
        ``threshold`` — they can never be the worst endpoint while the
        worst severity is at or above the threshold."""
        return [net for net in self.netlist.endpoints
                if self.endpoint_criticality[net][1] < threshold]

    def non_critical_gates(self, threshold: float) -> FrozenSet[str]:
        """Gates provably absent from every critical path.

        A critical path is a fan-in-cone backtrace from the worst
        endpoint; a gate can appear on one only if some contender
        endpoint (upper criticality bound >= ``threshold``) lies in its
        fan-out cone.  One reverse-topological sweep marks the fan-in
        cones of all contenders; everything unmarked is certified.
        """
        cached = self._non_critical_cache.get(threshold)
        if cached is not None:
            return cached
        contenders = {net for net in self.netlist.endpoints
                      if self.endpoint_criticality[net][1] >= threshold}
        marked = set(contenders)
        for gate in reversed(self.netlist.combinational_gates):
            if gate.name in marked:
                marked.update(gate.inputs)
        result = frozenset(
            gate.name for gate in self.netlist.combinational_gates
            if gate.name not in marked)
        self._non_critical_cache[threshold] = result
        return result

    def yield_bounds(self, clock_period: float) -> Tuple[float, float]:
        """Certified ``[lo, hi]`` on timing yield at ``clock_period``.

        The lower bound is unconditional: per endpoint, a Cantelli tail
        bound over the arrival box caps P(late | transition), which also
        caps P(late); a union bound over endpoints then holds under any
        dependence.  The upper bound assumes worst-case activity (every
        endpoint transitions): the two-value SP domain cannot certify a
        transition-occurrence lower bound, so 1 minus the largest
        certified conditional-late lower bound is reported as the
        worst-case-activity ceiling.
        """
        late_his = []
        late_lo = 0.0
        for net in self.netlist.endpoints:
            bounds = self.arrivals[net]
            slack = clock_period - bounds.mu_hi
            if slack <= 0.0:
                late_hi = 1.0
            elif bounds.var_hi == 0.0:
                late_hi = 0.0
            else:
                late_hi = bounds.var_hi / (bounds.var_hi + slack * slack)
            late_his.append(late_hi)
            gap = bounds.mu_lo - clock_period
            if gap > 0.0:
                late_lo = max(late_lo,
                              gap * gap / (gap * gap + bounds.var_hi))
        return (max(0.0, 1.0 - sum(late_his)), 1.0 - late_lo)

    def to_dict(self) -> Dict[str, object]:
        payload: Dict[str, object] = {
            "report": "spsta-bounds",
            "k_sigma": self.k_sigma,
            "clock_period": self.clock_period,
            "regimes": self.regime_counts,
            "bdd_exhausted": self.bdd_exhausted,
            "critical_lower": self.critical_lower,
            "endpoints": {
                net: {"crit_lo": lo, "crit_hi": hi,
                      "mu_lo": self.arrivals[net].mu_lo,
                      "mu_hi": self.arrivals[net].mu_hi,
                      "sigma_lo": self.arrivals[net].sigma_lo,
                      "sigma_hi": self.arrivals[net].sigma_hi}
                for net, (lo, hi) in self.endpoint_criticality.items()},
        }
        if self.sp:
            widths = [iv.width for iv in self.sp.values()]
            payload["signal_probability"] = {
                "nets": len(self.sp),
                "max_width": max(widths),
                "mean_width": sum(widths) / len(widths),
            }
        if self.clock_period is not None:
            lo, hi = self.yield_bounds(self.clock_period)
            never = self.never_critical_endpoints(self.clock_period)
            payload["clock"] = {
                "yield_lo": lo, "yield_hi": hi,
                "never_critical_endpoints": len(never),
                "non_critical_gates": len(
                    self.non_critical_gates(self.clock_period)),
            }
        return payload


def _launch_interval(spec: LaunchSpec, net: str) -> Interval:
    value = spec[net] if isinstance(spec, Mapping) else spec
    if isinstance(value, Interval):
        return value
    return Interval.point(float(value))


def _propagate_sp(netlist: Netlist, launch: LaunchSpec,
                  reconvergent: FrozenSet[str], max_cone_inputs: int,
                  max_bdd_nodes: int,
                  ) -> Tuple[Dict[str, Interval], Dict[str, str], bool]:
    sp: Dict[str, Interval] = {}
    for net in netlist.launch_points:
        sp[net] = _launch_interval(launch, net)
    support = launch_support_counts(netlist) if reconvergent else {}
    manager = BDDManager(max_nodes=max_bdd_nodes)
    funcs: Dict[str, int] = {}
    walk_memo: Dict[int, Interval] = {
        FALSE: Interval.point(0.0), TRUE: Interval.point(1.0)}
    regimes: Dict[str, str] = {}
    exhausted = False

    for gate in netlist.combinational_gates:
        operands = [sp[src] for src in gate.inputs]
        if gate.name not in reconvergent:
            regimes[gate.name] = "independent"
            sp[gate.name] = gate_interval_independent(gate.gate_type,
                                                      operands)
            continue
        if not exhausted and support[gate.name] <= max_cone_inputs:
            try:
                f = _cone_bdd(netlist, gate.name, manager, funcs)
            except MemoryError:
                exhausted = True
            else:
                regimes[gate.name] = "bdd"
                sp[gate.name] = _interval_walk(manager, f, sp, walk_memo)
                continue
        regimes[gate.name] = "frechet"
        sp[gate.name] = gate_interval_frechet(gate.gate_type, operands)
    return sp, regimes, exhausted


def _cone_bdd(netlist: Netlist, net: str, manager: BDDManager,
              funcs: Dict[str, int]) -> int:
    """BDD of ``net`` over its launch points, iteratively and memoized
    across cones (same build order as repro.power.density)."""
    stack = [net]
    while stack:
        top = stack[-1]
        if top in funcs:
            stack.pop()
            continue
        if netlist.is_launch_point(top):
            funcs[top] = manager.var(top)
            stack.pop()
            continue
        gate = netlist.gates[top]
        pending = [src for src in gate.inputs if src not in funcs]
        if pending:
            stack.extend(pending)
        else:
            funcs[top] = manager.apply_gate(
                gate.gate_type, [funcs[src] for src in gate.inputs])
            stack.pop()
    return funcs[net]


def _interval_walk(manager: BDDManager, f: int, sp: Dict[str, Interval],
                   memo: Dict[int, Interval]) -> Interval:
    """Interval Shannon walk: exact per BDD node for independent launch
    points, mirroring ``BDDManager.signal_probability`` expression for
    expression, each end rounded outward (:mod:`repro.bounds.intervals`)
    so the result contains the exact probability."""
    found = memo.get(f)
    if found is not None:
        return found
    level, low, high = manager._nodes[f]
    p = sp[manager._level_names[level]]
    wh = _interval_walk(manager, high, sp, memo)
    wl = _interval_walk(manager, low, sp, memo)
    # Linear in the launch probability, so the extremes sit at its ends.
    ends = (p.lo,) if p.is_point else (p.lo, p.hi)
    lo = min(add_down(mul_down(x, wh.lo),
                      mul_down(add_down(1.0, -x), wl.lo)) for x in ends)
    hi = max(add_up(mul_up(x, wh.hi), mul_up(add_up(1.0, -x), wl.hi))
             for x in ends)
    result = Interval(min(max(lo, 0.0), 1.0), min(max(hi, 0.0), 1.0))
    memo[f] = result
    return result


def _clark_upper(mu_a: float, var_a: float, mu_b: float,
                 var_b: float) -> float:
    """Upper bound on E[max(A, B)] valid under any joint distribution
    with the given marginal moments, monotone increasing in the means
    and variances (so plugging per-input upper bounds composes)."""
    sig = math.sqrt(var_a) + math.sqrt(var_b)
    return (mu_a + mu_b) / 2.0 + 0.5 * math.sqrt(
        (mu_a - mu_b) ** 2 + sig * sig)


def _clark_lower(mu_a: float, var_a: float, mu_b: float,
                 var_b: float) -> float:
    """Lower bound on E[min(A, B)] under any joint: ``min(A, B) =
    -max(-A, -B)`` turns :func:`_clark_upper` around.  Monotone
    increasing in the means, decreasing in the variances, so plugging
    lower means with upper variances composes."""
    sig = math.sqrt(var_a) + math.sqrt(var_b)
    return (mu_a + mu_b) / 2.0 - 0.5 * math.sqrt(
        (mu_a - mu_b) ** 2 + sig * sig)


_INV_SQRT_2 = 1.0 / math.sqrt(2.0)
_INV_SQRT_2PI = 1.0 / math.sqrt(2.0 * math.pi)


def _clark_max_mean(mu_a: float, var_a: float, mu_b: float,
                    var_b: float) -> float:
    """E[max(A, B)] for independent Gaussians (Clark's exact mean),
    monotone increasing in both means and both variances — so interval
    endpoints compose, and it upper-bounds the moment algebra's
    pairwise folds (which evaluate exactly this formula)."""
    theta_sq = var_a + var_b
    if theta_sq == 0.0:
        return max(mu_a, mu_b)
    theta = math.sqrt(theta_sq)
    alpha = (mu_a - mu_b) / theta
    cdf = 0.5 * (1.0 + math.erf(alpha * _INV_SQRT_2))
    pdf = _INV_SQRT_2PI * math.exp(-0.5 * alpha * alpha)
    return mu_a * cdf + mu_b * (1.0 - cdf) + theta * pdf


def _clark_min_mean(mu_a: float, var_a: float, mu_b: float,
                    var_b: float) -> float:
    """E[min(A, B)] for independent Gaussians: ``mu_a + mu_b -
    E[max]``.  Monotone increasing in the means and *decreasing* in the
    variances, so lower means with upper variances give a sound lower
    bound on the moment algebra's min folds."""
    return mu_a + mu_b - _clark_max_mean(mu_a, var_a, mu_b, var_b)


def compute_bounds(
    netlist: Netlist,
    *,
    stats: InputStats = CONFIG_I,
    launch: Optional[LaunchSpec] = None,
    delay_model: Optional[DelayModel] = None,
    delay_bounds: Optional[Callable[[Gate], DelayBounds]] = None,
    k_sigma: float = 3.0,
    clock_period: Optional[float] = None,
    max_cone_inputs: int = DEFAULT_MAX_CONE_INPUTS,
    max_bdd_nodes: int = DEFAULT_MAX_BDD_NODES,
    include_sp: bool = True,
    mode: str = "any",
) -> BoundsResult:
    """One static pass: SP intervals + arrival boxes + criticality.

    ``launch`` overrides the per-launch-point signal probability (a
    float, an :class:`Interval`, or a mapping of either; default: the
    two-value SP of ``stats``).  ``delay_bounds`` maps each gate to its
    delay-moment box; when omitted, the point box of ``delay_model``
    (default :class:`UnitDelay`) is used.

    ``mode`` picks the arrival-box transfer functions:

    - ``"any"`` (default): distribution-free.  Means fold through the
      Lai–Robbins envelope ``mid ± 0.5 sqrt(dmu^2 + (sig_a+sig_b)^2)``
      and ``Var(min/max_S) <= sum_i Var_i`` — both valid under any
      joint and any component distributions, so the box contains what
      *every* algebra computes, but the variance sum compounds
      exponentially with depth;
    - ``"moment"``: bounds on what the *moment algebra* computes.  It
      moment-matches every top to a Gaussian and treats gate inputs as
      independent, so the exact Clark max/min mean (monotone increasing
      in both means and, for max, both sigmas) evaluated at interval
      endpoints bounds its pairwise folds, and the Gaussian Poincaré
      inequality gives ``Var(min/max_S) <= max_i Var_i`` (the gradient
      of min/max is a unit indicator vector).  Tight enough to certify
      non-critical cones on deep circuits; sound for
      :class:`~repro.core.spsta.MomentAlgebra` results only.
    """
    if mode not in ("any", "moment"):
        raise ValueError(f"unknown mode {mode!r}")
    if launch is None:
        launch = stats.signal_probability
    if delay_bounds is not None:
        bounds_of = delay_bounds
    else:
        model = delay_model if delay_model is not None else UnitDelay()

        def bounds_of(gate: Gate, _model: DelayModel = model,
                      ) -> DelayBounds:
            d = _model.delay(gate)
            return DelayBounds.from_point(d.mu, d.sigma)

    sp: Dict[str, Interval] = {}
    regimes: Dict[str, str] = {}
    exhausted = False
    if include_sp:
        sweep = sweep_stems(netlist)
        sp, regimes, exhausted = _propagate_sp(
            netlist, launch, sweep.reconvergent_gates,
            max_cone_inputs, max_bdd_nodes)

    if mode == "any":
        upper_fold, lower_fold = _clark_upper, _clark_lower
    else:
        upper_fold, lower_fold = _clark_max_mean, _clark_min_mean

    arrivals: Dict[str, ArrivalBounds] = {}
    rise, fall = stats.rise_arrival, stats.fall_arrival
    launch_arrival = ArrivalBounds(
        mu_lo=min(rise.mu, fall.mu),
        mu_hi=max(rise.mu, fall.mu),
        var_hi=max(rise.sigma, fall.sigma) ** 2,
        sigma_lo=min(rise.sigma, fall.sigma))
    for net in netlist.launch_points:
        arrivals[net] = launch_arrival

    for gate in netlist.combinational_gates:
        db = bounds_of(gate)
        inputs = [arrivals[src] for src in gate.inputs]
        # Every conditional output arrival is a mixture of (min or max
        # over an input subset) + delay; E[max_S] <= E[max_all] and
        # E[min_S] >= E[min_all], so one fold over all inputs bounds
        # every component from each side.
        fold_hi, fold_lo = inputs[0].mu_hi, inputs[0].mu_lo
        fold_var = inputs[0].var_hi
        component_var = inputs[0].var_hi
        for a in inputs[1:]:
            fold_hi = upper_fold(fold_hi, fold_var, a.mu_hi, a.var_hi)
            fold_lo = lower_fold(fold_lo, fold_var, a.mu_lo, a.var_hi)
            if mode == "any":
                component_var += a.var_hi
            else:
                # Gaussian Poincaré: Var(min/max of independent
                # Gaussians) <= max of their variances, and the running
                # partial fold stays under the running max.
                component_var = max(component_var, a.var_hi)
            fold_var = component_var
        mu_lo = fold_lo + db.mu_lo
        mu_hi = fold_hi + db.mu_hi
        var_hi = component_var + db.sigma_hi ** 2
        if len(inputs) > 1:
            # Mixture over switching subsets: the spread of component
            # means contributes Var on top of the within-component sum.
            half_range = (mu_hi - mu_lo) / 2.0
            var_hi += half_range * half_range
        arrivals[gate.name] = ArrivalBounds(
            mu_lo=mu_lo, mu_hi=mu_hi, var_hi=var_hi,
            sigma_lo=db.sigma_lo)

    endpoint_criticality = {
        net: arrivals[net].criticality(k_sigma)
        for net in netlist.endpoints}
    critical_lower = max(
        (lo for lo, _ in endpoint_criticality.values()),
        default=-math.inf)
    return BoundsResult(
        netlist=netlist, k_sigma=k_sigma, clock_period=clock_period,
        sp=sp, regimes=regimes, bdd_exhausted=exhausted,
        arrivals=arrivals, endpoint_criticality=endpoint_criticality,
        critical_lower=critical_lower)
