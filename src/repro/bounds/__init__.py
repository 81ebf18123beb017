"""``repro.bounds`` — sound interval abstract interpretation.

Static analysis that certifies facts about a netlist without running an
engine: per-net signal-probability intervals ``[lo, hi]`` guaranteed to
contain the exact Eq. 5 probability (exact on fanout-free regions,
BDD-exact on small reconvergent cones, Fréchet-widened elsewhere), and
per-endpoint arrival-time bound boxes ``(mu_lo, mu_hi, sigma_lo,
sigma_hi)`` valid under *any* joint input distribution with the given
marginal boxes.  Surfaced as the SP4xx lint family (``repro.lint``),
the optimizer's bounds-certified candidate pruning (``repro.opt``),
and the ``spsta bounds`` CLI report.  See ``docs/theory.md``.

``stems`` is imported eagerly (``repro.lint.accuracy`` depends on it and
it only needs the netlist layer); the engine modules load
lazily through ``__getattr__`` to keep imports cheap.
"""

from __future__ import annotations

from typing import List

from repro.bounds.stems import (
    StemRecord,
    StemSweep,
    find_reconvergence,
    launch_support_counts,
    sweep_stems,
)

_INTERVAL_EXPORTS = (
    "Interval", "gate_interval_frechet", "gate_interval_independent",
)
_ENGINE_EXPORTS = (
    "ArrivalBounds", "BoundsResult", "DelayBounds", "compute_bounds",
)
_SAMPLING_EXPORTS = ("hoeffding_slack", "sample_signal_probabilities")

__all__ = [
    "StemRecord", "StemSweep", "find_reconvergence",
    "launch_support_counts", "sweep_stems",
    *_INTERVAL_EXPORTS, *_ENGINE_EXPORTS, *_SAMPLING_EXPORTS,
]


def __getattr__(name: str) -> object:
    if name in _INTERVAL_EXPORTS:
        from repro.bounds import intervals
        return getattr(intervals, name)
    if name in _ENGINE_EXPORTS:
        from repro.bounds import engine
        return getattr(engine, name)
    if name in _SAMPLING_EXPORTS:
        from repro.bounds import sampling
        return getattr(sampling, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__() -> List[str]:
    return sorted(__all__)
