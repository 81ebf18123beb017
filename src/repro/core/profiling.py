"""Lightweight profiling/observability for the analytical engines.

A :class:`SpstaProfile` rides along one ``run_spsta`` call and collects the
quantities that explain where an analytical sweep spends its time:

- coarse per-phase wall times (levelize / launch / propagate, and the
  grid engine's subset-eval / convolve / mix sub-phases);
- work counters — gates processed, Eq. 11 subset terms evaluated, parity
  joint-enumeration terms, pairwise MAX/MIN folds;
- cache effectiveness — hits and misses of the Gaussian delay-kernel
  cache, plus FFT vs direct convolution batch counts.

Counters are plain integer increments (negligible overhead); phase timers
are a handful of ``perf_counter`` pairs per run.  The profile is attached to
the :class:`~repro.core.spsta.SpstaResult`, printed by the CLI ``--profile``
flag, and recorded into the Table 3 experiment output.
"""

from __future__ import annotations

from contextlib import contextmanager
from dataclasses import dataclass, field
import time
from typing import Dict, Iterator


@dataclass
class SpstaProfile:
    """Counters and phase timings of one SPSTA run."""

    engine: str = ""
    algebra: str = ""
    circuit: str = ""
    workers: int = 1             # region pool size of a hier run
    scenarios: int = 1           # >1 for the scenario-batched backend

    gates_processed: int = 0
    levels: int = 0
    subset_terms: int = 0        # Eq. 11 (weight, conditional) terms kept
    parity_terms: int = 0        # parity joint-enumeration terms kept
    max_folds: int = 0           # pairwise MAX/MIN combinations performed

    # Retired with the Eq. 11 weight-table cache (weights are now built
    # per level group); always 0, kept for readers of the field names.
    weight_table_hits: int = 0
    weight_table_misses: int = 0
    kernel_cache_hits: int = 0
    kernel_cache_misses: int = 0
    fft_convolutions: int = 0    # rows convolved through the FFT path
    direct_convolutions: int = 0  # rows convolved with np.convolve
    shift_rows: int = 0          # rows shifted (deterministic delays)

    # numerical guardrails (grid engines): probability mass clipped off the
    # grid edge by shift/convolution/sampling, and NaN/Inf sentinel sweeps
    mass_checks: int = 0         # grid operations audited for clipped mass
    clipped_mass: float = 0.0    # total probability mass lost off-grid
    clip_events: int = 0         # operations past the warn threshold
    max_clip_fraction: float = 0.0  # worst single-operation clip fraction
    finite_checks: int = 0       # NaN/Inf sentinel sweeps performed

    phase_seconds: Dict[str, float] = field(default_factory=dict)

    @contextmanager
    def phase(self, name: str) -> Iterator[None]:
        """Accumulate wall time of a named phase (re-entrant per name)."""
        t0 = time.perf_counter()
        try:
            yield
        finally:
            elapsed = time.perf_counter() - t0
            self.phase_seconds[name] = (
                self.phase_seconds.get(name, 0.0) + elapsed)

    @property
    def total_seconds(self) -> float:
        return sum(self.phase_seconds.values())

    @property
    def kernel_cache_hit_rate(self) -> float:
        total = self.kernel_cache_hits + self.kernel_cache_misses
        return self.kernel_cache_hits / total if total else 0.0

    def render(self, indent: str = "") -> str:
        """Human-readable profile block (CLI ``--profile``, Table 3)."""
        lines = [
            f"{indent}SPSTA profile [{self.engine}] "
            f"{self.circuit or '?'} / {self.algebra or '?'}"
            + (f" / workers={self.workers}" if self.workers > 1 else "")
            + (f" / scenarios={self.scenarios}"
               if self.scenarios > 1 else ""),
            f"{indent}  gates: {self.gates_processed}  "
            f"levels: {self.levels}  subset terms: {self.subset_terms}  "
            f"parity terms: {self.parity_terms}  "
            f"max/min folds: {self.max_folds}",
            f"{indent}  kernel cache: {self.kernel_cache_hits} hits / "
            f"{self.kernel_cache_misses} misses "
            f"({100.0 * self.kernel_cache_hit_rate:.1f}% hit rate)",
            f"{indent}  convolutions: {self.fft_convolutions} fft rows, "
            f"{self.direct_convolutions} direct rows, "
            f"{self.shift_rows} shifted rows",
            f"{indent}  mass guardrail: {self.mass_checks} checks, "
            f"{self.clipped_mass:.3g} clipped "
            f"({self.clip_events} past warn threshold, "
            f"worst fraction {self.max_clip_fraction:.3g}); "
            f"finite sweeps: {self.finite_checks}",
        ]
        if self.phase_seconds:
            phases = "  ".join(f"{name}={seconds * 1e3:.1f}ms"
                               for name, seconds in self.phase_seconds.items())
            lines.append(f"{indent}  phases: {phases} "
                         f"(total {self.total_seconds * 1e3:.1f}ms)")
        return "\n".join(lines)
