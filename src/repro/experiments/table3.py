"""Table 3 reproduction: analyzer CPU runtimes.

Absolute seconds are hardware-bound (the paper reports a 2008 machine); the
claims to reproduce are *relative*: SPSTA costs a small multiple of SSTA
(the 2^k subset enumeration vs plain Clark folds) and both are far cheaper
than a 10,000-trial Monte Carlo simulation.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
import time
from typing import List, Mapping, Optional, Sequence, Tuple, Union

import numpy as np

from repro.core.delay import DelayModel, UnitDelay
from repro.core.inputs import InputStats
from repro.core.profiling import SpstaProfile
from repro.core.spsta import run_spsta
from repro.core.ssta import run_ssta
from repro.experiments.table2 import experiment_checkpoint
from repro.netlist.benchmarks import TABLE_CIRCUITS, benchmark_circuit
from repro.sim.montecarlo import run_monte_carlo
from repro.sim.parallel import RetryPolicy


@dataclass(frozen=True)
class RuntimeRow:
    """Wall-clock seconds of each analyzer on one circuit.

    ``mc_scalar_seconds`` estimates a plain (non-vectorized) logic
    simulator's cost for the same trial count — the engine class the paper
    actually timed — extrapolated from a short scalar run.
    ``spsta_profile_summary`` is the rendered SPSTA profile block when the
    run was profiled (empty otherwise).
    """

    circuit: str
    spsta_seconds: float
    ssta_seconds: float
    mc_seconds: float
    mc_scalar_seconds: float = float("nan")
    mc_shard_summary: str = ""
    spsta_profile_summary: str = ""

    @property
    def mc_over_spsta(self) -> float:
        return self.mc_seconds / self.spsta_seconds

    @property
    def scalar_mc_over_spsta(self) -> float:
        return self.mc_scalar_seconds / self.spsta_seconds


def run_table3(config: InputStats,
               circuits: Sequence[str] = TABLE_CIRCUITS,
               n_trials: int = 10_000,
               seed: int = 0,
               delay_model: DelayModel = UnitDelay(),
               scalar_probe_trials: int = 200,
               mc_mode: str = "waves",
               shards: int = 1,
               workers: int = 1,
               engine: str = "fast",
               profile: bool = False,
               retry: Optional[RetryPolicy] = None,
               deadline: Optional[float] = None,
               checkpoint_dir: Optional[Union[str, Path]] = None,
               resume: bool = False) -> List[RuntimeRow]:
    """Time each analyzer once per circuit (same workload as Table 2).

    ``scalar_probe_trials`` scalar-reference trials are timed and linearly
    extrapolated to ``n_trials`` for the ``mc_scalar_seconds`` column
    (0 disables the probe).  ``mc_mode="stream"`` times the sharded
    streaming engine instead and records its per-shard timing/memory
    counters in ``mc_shard_summary``.  ``engine`` selects the SPSTA
    propagation engine; ``profile=True`` records each SPSTA run's phase
    timings and work counters into ``spsta_profile_summary``.
    ``retry``/``deadline``/``checkpoint_dir``/``resume`` apply the
    streaming engine's fault tolerance per circuit (one checkpoint
    subdirectory each); note a resumed run's ``mc_seconds`` times only
    the shards that still had to execute.
    """
    rows: List[RuntimeRow] = []
    for name in circuits:
        netlist = benchmark_circuit(name)
        spsta_profile = SpstaProfile() if profile else None
        t0 = time.perf_counter()
        run_spsta(netlist, config, delay_model, engine=engine,
                  profile=spsta_profile)
        t1 = time.perf_counter()
        run_ssta(netlist, delay_model)
        t2 = time.perf_counter()
        mc = run_monte_carlo(netlist, config, n_trials, delay_model,
                             rng=np.random.default_rng(seed),
                             mode=mc_mode,
                             shards=shards if mc_mode == "stream" else 1,
                             workers=workers if mc_mode == "stream" else 1,
                             retry=retry, deadline=deadline,
                             checkpoint=experiment_checkpoint(
                                 checkpoint_dir, name),
                             resume=resume)
        t3 = time.perf_counter()
        scalar_seconds = float("nan")
        if scalar_probe_trials > 0:
            scalar_seconds = (_time_scalar_mc(netlist, config,
                                              scalar_probe_trials, seed,
                                              delay_model)
                              * n_trials / scalar_probe_trials)
        shard_summary = mc.summary() if mc_mode == "stream" else ""
        profile_summary = (spsta_profile.render(indent="  ")
                           if spsta_profile is not None else "")
        rows.append(RuntimeRow(name, t1 - t0, t2 - t1, t3 - t2,
                               scalar_seconds, shard_summary,
                               profile_summary))
    return rows


@dataclass(frozen=True)
class ConfigSweepRow:
    """One circuit's config-sweep timing through the batched backend.

    ``looped_seconds`` is NaN when the per-config reference loop was not
    timed (``compare_looped=False``).
    """

    circuit: str
    configs: Tuple[str, ...]
    batched_seconds: float
    looped_seconds: float = float("nan")

    @property
    def speedup(self) -> float:
        return self.looped_seconds / self.batched_seconds


def run_config_sweep(configs: Mapping[str, InputStats],
                     circuits: Sequence[str] = TABLE_CIRCUITS,
                     delay_model: DelayModel = UnitDelay(),
                     compare_looped: bool = True) -> List[ConfigSweepRow]:
    """The Table 3 config sweep routed through the batched backend.

    Historically the CONFIG (I) / CONFIG (II) sweep reran the whole
    analysis per configuration (the ``errors`` command still shows that
    shape for Table 2).  Here each circuit compiles once and all
    configurations execute as one :func:`run_scenario_batch` call;
    ``compare_looped=True`` also times the per-config
    ``run_spsta(engine="fast")`` loop the sweep replaced.
    """
    from repro.core.scenario import (
        run_scenario_batch,
        run_scenarios_looped,
        scenarios_from_stats,
    )

    rows: List[ConfigSweepRow] = []
    names = tuple(configs)
    for name in circuits:
        netlist = benchmark_circuit(name)
        scenarios = scenarios_from_stats(configs, delay_model)
        t0 = time.perf_counter()
        run_scenario_batch(netlist, scenarios)
        t1 = time.perf_counter()
        looped_seconds = float("nan")
        if compare_looped:
            run_scenarios_looped(netlist, scenarios)
            looped_seconds = time.perf_counter() - t1
        rows.append(ConfigSweepRow(name, names, t1 - t0, looped_seconds))
    return rows


def format_config_sweep(rows: Sequence[ConfigSweepRow],
                        title: str = "Table 3 config sweep "
                                     "(batched backend, seconds)") -> str:
    lines = [
        title,
        f"{'test':>7} | {'configs':>12} | {'batched':>9} | "
        f"{'looped':>9} | {'speedup':>8}",
        "-" * 58,
    ]
    for row in rows:
        no_loop = row.looped_seconds != row.looped_seconds
        looped = "   --    " if no_loop else f"{row.looped_seconds:>9.4f}"
        speedup = "   --   " if no_loop else f"{row.speedup:>7.1f}x"
        lines.append(
            f"{row.circuit:>7} | {','.join(row.configs):>12} | "
            f"{row.batched_seconds:>9.4f} | {looped} | {speedup}")
    return "\n".join(lines)


def _time_scalar_mc(netlist, config: InputStats, trials: int, seed: int,
                    delay_model: DelayModel) -> float:
    """Wall-clock of ``trials`` scalar event-simulator runs."""
    from repro.logic.fourvalue import from_bits
    from repro.sim.reference import simulate_trial
    from repro.sim.sampler import sample_launch_points

    rng = np.random.default_rng(seed)
    samples = sample_launch_points(netlist, config, trials, rng)
    t0 = time.perf_counter()
    for trial in range(trials):
        launch = {}
        for net, wave in samples.items():
            symbol = from_bits(int(wave.init[trial]), int(wave.final[trial]))
            t = wave.time[trial]
            launch[net] = (symbol, None if np.isnan(t) else float(t))
        simulate_trial(netlist, launch, delay_model)
    return time.perf_counter() - t0


def format_table3(rows: Sequence[RuntimeRow],
                  title: str = "Table 3 (seconds)") -> str:
    lines = [
        title,
        f"{'test':>7} | {'SPSTA':>9} | {'SSTA':>9} | {'10K MC':>9} | "
        f"{'scalar MC':>10} | {'MC/SPSTA':>9} | {'scal/SPSTA':>10}",
        "-" * 84,
    ]
    for row in rows:
        no_scalar = row.mc_scalar_seconds != row.mc_scalar_seconds
        scalar = ("   --     " if no_scalar
                  else f"{row.mc_scalar_seconds:>10.2f}")
        ratio = ("    --    " if no_scalar
                 else f"{row.scalar_mc_over_spsta:>9.1f}x")
        lines.append(
            f"{row.circuit:>7} | {row.spsta_seconds:>9.4f} | "
            f"{row.ssta_seconds:>9.4f} | {row.mc_seconds:>9.4f} | "
            f"{scalar} | {row.mc_over_spsta:>8.1f}x | {ratio}")
    shard_blocks = [row.mc_shard_summary for row in rows
                    if row.mc_shard_summary]
    if shard_blocks:
        lines.append("")
        lines.append("Monte Carlo shard counters:")
        lines.extend(shard_blocks)
    profile_blocks = [row.spsta_profile_summary for row in rows
                      if row.spsta_profile_summary]
    if profile_blocks:
        lines.append("")
        lines.append("SPSTA profiles:")
        lines.extend(profile_blocks)
    return "\n".join(lines)
