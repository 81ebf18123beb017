"""Per-engine-pair tolerance policies for the conformance sweep.

Every policy documents *why* two engines are allowed to differ and by how
much; the harness fails a run the moment any compared quantity exceeds its
policy.  Three regimes:

- **replication** pairs (fast vs naive on the same algebra) share the
  mathematics and differ only in evaluation order, so their tolerances are
  rounding-level: bit-exact for the closed-form algebras, a few ULPs of
  batched-SIMD division and BLAS summation-order noise for the grid
  algebra (see ``repro.core.scenario._run_subset_group``).
- **abstraction** pairs (moment / mixture vs the numerically exact grid)
  differ by Clark's moment-matching error on MAX/MIN, which grows with
  depth; tolerances follow the envelope measured across the evaluation
  suite (``tests/test_spsta_algebras.py`` pins the same numbers at test
  scale) with headroom.
- **statistical** pairs (anything vs the Monte Carlo oracle) carry both
  the abstraction error and the sampling error of a finite-trial
  simulation, so they compare only transitions with enough occurrences and
  use tolerances sized for the default trial budget *plus* the independence
  approximation's error on reconvergent circuits (paper Sec. 4).

A fourth regime covers the interval bounds engine (``repro.bounds``):
**containment** policies (:data:`CONTAINMENT_POLICIES`) do not compare
two point estimates — they assert that a certified interval *contains*
a reference value.  A sound bound admits no tolerance: the exact-BDD
reference must land inside at slack 0, and the sampling reference only
gets the Hoeffding half-width its finite trial count mathematically
requires.  Any violation is a soundness bug, never "modelling error".

Tolerances are calibrated on the sweep's own evaluation set (seeds 0-2,
s27/s208); they are conformance bounds for that set, not universal error
guarantees.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional

#: A run fails outright if any grid engine clips more than this fraction of
#: a density's mass off the grid edge (tracks
#: :data:`repro.stats.grid.MASS_WARN_FRACTION`): a conforming sweep must use
#: a grid that actually covers the circuit's arrival window.
GUARDRAIL_MAX_CLIP_FRACTION = 1e-6


@dataclass(frozen=True)
class TolerancePolicy:
    """Allowed per-net disagreement between one engine pair.

    ``abs_probability`` bounds occurrence-probability deltas,
    ``abs_mean``/``abs_std`` the conditional moment deltas (compared only
    when both engines agree the transition occurs).  ``min_occurrences``
    (statistical pairs) skips moment comparison for transitions the oracle
    saw fewer times than this; ``endpoints_only`` restricts the comparison
    to the netlist's endpoints (abstraction/statistical pairs, where
    interior-net noise adds nothing the endpoint check does not cover).
    """

    pair: str
    description: str
    abs_probability: float
    abs_mean: float
    abs_std: float
    min_occurrences: int = 0
    endpoints_only: bool = False


POLICIES: Dict[str, TolerancePolicy] = {
    policy.pair: policy for policy in (
        TolerancePolicy(
            pair="fast-vs-naive/moment",
            description="run_spsta routes the fast engine's closed-form "
                        "runs to the naive sweep itself: bit-exact.",
            abs_probability=0.0, abs_mean=0.0, abs_std=0.0),
        TolerancePolicy(
            pair="fast-vs-naive/mixture",
            description="As fast-vs-naive/moment — one sweep serves "
                        "both engines: bit-exact.",
            abs_probability=0.0, abs_mean=0.0, abs_std=0.0),
        TolerancePolicy(
            pair="fast-vs-naive/grid",
            description="Batched SIMD division rounds a few ULPs "
                        "differently per batch shape; moments agree to "
                        "~1e-9 on a 2k grid.",
            abs_probability=1e-9, abs_mean=1e-6, abs_std=1e-6),
        TolerancePolicy(
            pair="stream-vs-event/mc",
            description="The stream kernel against the scalar event "
                        "simulator (repro.sim.reference) on the same launch "
                        "samples at a sigma-0 delay corner: every trial "
                        "matches exactly, so the statistics agree up to "
                        "float summation order.",
            abs_probability=1e-12, abs_mean=1e-9, abs_std=1e-9),
        TolerancePolicy(
            pair="moment-vs-grid",
            description="Clark moment matching vs the numerically exact "
                        "discretized MAX: weights agree to rounding, "
                        "moments drift with depth (Fig. 4 skew).",
            abs_probability=1e-6, abs_mean=0.25, abs_std=0.3,
            endpoints_only=True),
        TolerancePolicy(
            pair="mixture-vs-grid",
            description="Capped Gaussian mixtures track the exact MAX "
                        "shape more closely than single Gaussians.",
            abs_probability=1e-6, abs_mean=0.2, abs_std=0.25,
            endpoints_only=True),
        TolerancePolicy(
            pair="moment-vs-mc",
            description="Abstraction error plus sampling noise plus the "
                        "independence approximation on reconvergent "
                        "fanout (paper Sec. 4).  The last term dominates: "
                        "it alone produces deltas up to ~0.13 / 0.45 on "
                        "the evaluation set, so these bounds are sized to "
                        "catch gross implementation divergence (a "
                        "mis-wired gate or lost delay shifts results by "
                        "O(1)) while passing correct code; tight "
                        "correctness checking is the replication and "
                        "abstraction pairs' job.",
            abs_probability=0.16, abs_mean=0.55, abs_std=0.55,
            min_occurrences=200, endpoints_only=True),
        TolerancePolicy(
            pair="mixture-vs-mc",
            description="As moment-vs-mc, with the richer mixture shape.",
            abs_probability=0.16, abs_mean=0.55, abs_std=0.55,
            min_occurrences=200, endpoints_only=True),
        TolerancePolicy(
            pair="grid-vs-mc",
            description="Numerically exact propagation vs the sampling "
                        "oracle: residual is sampling noise plus the "
                        "independence approximation.",
            abs_probability=0.16, abs_mean=0.55, abs_std=0.55,
            min_occurrences=200, endpoints_only=True),
        TolerancePolicy(
            pair="batched-vs-fast/moment",
            description="The scenario-batched backend runs the same naive "
                        "sweep once per closed-form scenario: bit-exact.",
            abs_probability=0.0, abs_mean=0.0, abs_std=0.0),
        TolerancePolicy(
            pair="batched-vs-fast/mixture",
            description="As batched-vs-fast/moment — one naive sweep per "
                        "scenario: bit-exact.",
            abs_probability=0.0, abs_mean=0.0, abs_std=0.0),
        TolerancePolicy(
            pair="batched-vs-fast/grid",
            description="Cross-scenario stacking regroups the grid "
                        "engine's batched divisions and segment sums; "
                        "weights agree to 1e-12, moments to 1e-9 "
                        "(tests/test_scenario_batch.py pins the same "
                        "bounds).",
            abs_probability=1e-12, abs_mean=1e-9, abs_std=1e-9),
        TolerancePolicy(
            pair="batched-vs-mc",
            description="The batched grid backend against the sampling "
                        "oracle: same regime as grid-vs-mc (sampling "
                        "noise plus the independence approximation).",
            abs_probability=0.16, abs_mean=0.55, abs_std=0.55,
            min_occurrences=200, endpoints_only=True),
        TolerancePolicy(
            pair="hier-vs-flat/moment",
            description="Each region rerun is the unmodified fast engine "
                        "seeded with exact upstream boundary TOPs, and "
                        "DFF cuts add no cross-region timing terms: "
                        "bit-exact.",
            abs_probability=0.0, abs_mean=0.0, abs_std=0.0),
        TolerancePolicy(
            pair="hier-vs-flat/mixture",
            description="As hier-vs-flat/moment — region boundaries only "
                        "reorder the per-gate fold boundaries the fast "
                        "engine already uses: bit-exact.",
            abs_probability=0.0, abs_mean=0.0, abs_std=0.0),
        TolerancePolicy(
            pair="incremental-vs-full/moment",
            description="Worklist cone repair calls the naive engine's "
                        "per-gate kernel on identical inputs in "
                        "topological order, and exact-equality early "
                        "termination cannot hide a change: bit-exact "
                        "after every optimizer-style move.",
            abs_probability=0.0, abs_mean=0.0, abs_std=0.0),
        TolerancePolicy(
            pair="incremental-vs-full/mixture",
            description="As incremental-vs-full/moment — the mixture "
                        "component tuples compare exactly, so stopping "
                        "at an unchanged gate is provably safe: "
                        "bit-exact.",
            abs_probability=0.0, abs_mean=0.0, abs_std=0.0),
        TolerancePolicy(
            pair="incremental-vs-full/grid",
            description="Same per-gate kernel and evaluation order; the "
                        "kernel cache memoizes values, never changes "
                        "them, so the grid algebra repairs bit-exactly "
                        "too (measured deviation on the bundled "
                        "benches: 0.0).",
            abs_probability=0.0, abs_mean=0.0, abs_std=0.0),
        TolerancePolicy(
            pair="hier-vs-flat/grid",
            description="Region boundaries regroup the grid engine's "
                        "level batches exactly like the scenario-batched "
                        "stacking; same bounds as batched-vs-fast/grid "
                        "(measured deviation on the bundled benches: "
                        "0.0).",
            abs_probability=1e-12, abs_mean=1e-9, abs_std=1e-9),
    )
}


@dataclass(frozen=True)
class ContainmentPolicy:
    """One containment check: a certified interval must contain a
    reference value.

    ``slack`` widens the interval on both sides before the check; it is
    0 when the reference is exact and a Hoeffding half-width (computed
    from the trial budget at confidence ``1 - delta``) when the
    reference is sampled.  ``max_launch_points`` gates the exact-BDD
    reference to circuits whose global BDD is guaranteed tractable;
    wider circuits simply skip that policy (the sampled one still
    runs).
    """

    pair: str
    description: str
    slack: float = 0.0
    delta: Optional[float] = None
    max_launch_points: Optional[int] = None


#: Hoeffding failure probability per net for the sampled reference: at
#: 20k trials the half-width is ~0.0231, and a whole sweep's worth of
#: nets has under 1e-4 odds of a single spurious failure.
CONTAINMENT_DELTA = 1e-9

CONTAINMENT_POLICIES: Dict[str, ContainmentPolicy] = {
    policy.pair: policy for policy in (
        ContainmentPolicy(
            pair="bounds-vs-bdd/exact",
            description="The certified SP interval must contain the "
                        "exact signal probability from a global BDD "
                        "collapse.  Soundness admits no tolerance: "
                        "slack 0.  Gated to circuits whose launch "
                        "support keeps the global BDD tractable.",
            slack=0.0, max_launch_points=40),
        ContainmentPolicy(
            pair="bounds-vs-mc/hoeffding",
            description="The certified SP interval, widened by the "
                        "two-sided Hoeffding half-width of the trial "
                        "budget, must contain the sampled per-net "
                        "one-frequency.  Runs on every circuit "
                        "regardless of width.",
            delta=CONTAINMENT_DELTA),
    )
}
