"""``signoff-batch``: the paper's engines as a batch sign-off run.

Each round runs, per circuit, ``run_lint``, ``compute_bounds``,
``run_ssta``, ``run_spsta`` with moments and ``run_spsta`` on a grid;
then a derate-corner ``run_scenario_batch`` sweep, a streaming Monte
Carlo run and an annealing ``optimize_spsta``.  The fast engine's
kernels, the sweep, Monte Carlo, bounds and lint do nearly all the
work; no serve or hier code runs.  The seed drives the Monte Carlo and
optimizer generators; the circuits are the bundled benchmarks.
"""

from __future__ import annotations

import json
import math
from pathlib import Path
from types import SimpleNamespace
from typing import Any, Dict, Tuple

import numpy as np

from perfbench.spans import Tracer
from perfbench.workload import Workload
from repro import CONFIG_I, NormalDelay, benchmark_circuit, \
    run_monte_carlo, run_spsta, run_ssta
from repro.bounds.engine import compute_bounds
from repro.bounds.sampling import hoeffding_slack
from repro.core import GridAlgebra
from repro.core.incremental_spsta import IncrementalSpsta
from repro.core.profiling import SpstaProfile
from repro.core.scenario import compile_netlist, derate_corners, \
    run_scenario_batch, scenarios_from_corners
from repro.lint import LintConfig, run_lint
import repro.opt.spsta_opt as spsta_opt
from repro.stats.grid import TimeGrid
from repro.verify.policies import CONTAINMENT_DELTA, POLICIES

#: Naive-engine reports at each circuit's critical endpoint, written by
#: ``perfbench/record_reference.py``.
REFERENCE = Path(__file__).with_name("reference.json")

FULL = dict(circuits=("s1196", "s9234"), sweep_circuit="s1196",
            corners=16, sweep_bins=128, mc_circuit="s9234",
            mc_trials=5_000, opt_circuit="s1196", anneal_moves=60)
SMOKE = dict(circuits=("s27",), sweep_circuit="s27", corners=2,
             sweep_bins=64, mc_circuit="s27", mc_trials=500,
             opt_circuit="s27", anneal_moves=4)

#: The per-circuit grid; the recorded reference uses the same one.
GRID = (-8.0, 60.0, 512)
SWEEP_SPAN = (-8.0, 60.0)
#: Gate delays of every per-circuit engine and of Monte Carlo: Gaussian,
#: so the grid engine convolves with its cached delay kernels.
DELAY = (1.0, 0.1)
#: Optimizer target: s1196 misses 0.9999 yield at this clock, so the
#: greedy phase and the annealing schedule both run.
OPT_CLOCK = 13.0
OPT_TARGET_YIELD = 0.9999


def harvest_profile(tracer: Tracer, profile: Any) -> None:
    """Fold one :class:`SpstaProfile` into the tracer's spsta counters."""
    for phase in ("launch", "subset-eval", "convolve", "mix"):
        tracer.count(f"spsta.{phase.replace('-', '_')}_s",
                     profile.phase_seconds.get(phase, 0.0))
    for name in ("subset_terms", "max_folds", "weight_table_hits",
                 "weight_table_misses", "kernel_cache_hits",
                 "kernel_cache_misses"):
        tracer.count(f"spsta.{name}", getattr(profile, name))


def harvest_update(tracer: Tracer, stats: Any) -> None:
    """Fold one incremental re-timing's ``UpdateStats``."""
    tracer.count("incremental.recomputed_gates", stats.recomputed)
    tracer.count("incremental.skipped_gates", stats.skipped)
    tracer.count("incremental.cone_gates", stats.cone_size)


def patch_incremental(tracer: Tracer) -> None:
    """Trace ``IncrementalSpsta`` delay edits wherever they are made."""
    harvest = lambda stats: harvest_update(tracer, stats)
    tracer.patch(IncrementalSpsta, "set_delay", "incremental.set_delay",
                 harvest)
    tracer.patch(IncrementalSpsta, "clear_delay",
                 "incremental.clear_delay", harvest)


def report_close(a: Tuple[float, float, float],
                 b: Tuple[float, float, float], policy: Any) -> bool:
    """(P, mean, std) triples agree under a ``repro.verify`` policy;
    moments are compared only where both sides say the transition
    occurs."""
    if abs(a[0] - b[0]) > policy.abs_probability:
        return False
    if math.isnan(a[1]) or math.isnan(b[1]):
        return math.isnan(a[1]) and math.isnan(b[1])
    return (abs(a[1] - b[1]) <= policy.abs_mean
            and abs(a[2] - b[2]) <= policy.abs_std)


class SignoffBatch(Workload):
    name = "signoff-batch"
    modules = ("repro", "repro.lint", "repro.bounds.engine",
               "repro.core.scenario", "repro.opt.spsta_opt")

    def __init__(self, *args: Any, **kwargs: Any) -> None:
        super().__init__(*args, **kwargs)
        self.size = SMOKE if self.smoke else FULL
        self.clear_load_cache = benchmark_circuit.cache_clear
        # Every layer call goes through this namespace, so the traced
        # run can wrap each entry point where the benchmark calls it.
        self.calls = SimpleNamespace(
            load=benchmark_circuit, lint=run_lint, bounds=compute_bounds,
            ssta=run_ssta, spsta_moments=run_spsta, spsta_grid=run_spsta,
            compile=compile_netlist, sweep=run_scenario_batch,
            mc=run_monte_carlo, optimize=spsta_opt.optimize_spsta)
        self.results: Dict[str, Dict[str, Any]] = {}

    def setup(self) -> None:
        names = set(self.size["circuits"]) | {
            self.size["sweep_circuit"], self.size["mc_circuit"],
            self.size["opt_circuit"]}
        self.clear_load_cache()          # set-up pays for a cold load
        self.netlists = {name: self.calls.load(name)
                         for name in sorted(names)}
        self.reference = json.loads(REFERENCE.read_text())

    def round(self) -> None:
        size = self.size
        calls = self.calls
        delay = NormalDelay(*DELAY)
        grid = TimeGrid(*GRID)
        for name in size["circuits"]:
            netlist = self.netlists[name]
            out = self.results.setdefault(name, {})
            out["lint"] = self.op(f"{name} lint", calls.lint, netlist,
                                  LintConfig(input_stats=CONFIG_I))
            out["bounds"] = self.op(f"{name} bounds", calls.bounds,
                                    netlist, stats=CONFIG_I,
                                    delay_model=delay)
            out["ssta"] = self.op(f"{name} ssta", calls.ssta, netlist,
                                  delay)
            out["moments"] = self.op(
                f"{name} spsta moments", calls.spsta_moments, netlist,
                CONFIG_I, delay, profile=SpstaProfile())
            out["grid"] = self.op(
                f"{name} spsta grid", calls.spsta_grid, netlist, CONFIG_I,
                delay, GridAlgebra(grid), profile=SpstaProfile())

        sweep_net = self.netlists[size["sweep_circuit"]]
        compiled = self.op("sweep compile", calls.compile, sweep_net)
        scenarios = scenarios_from_corners(
            derate_corners(count=size["corners"]), base_model=delay)
        self.results["sweep"] = self.op(
            "sweep", calls.sweep, sweep_net, scenarios,
            GridAlgebra(TimeGrid(*SWEEP_SPAN, size["sweep_bins"])),
            compiled=compiled)
        self.results["mc"] = self.op(
            "monte carlo", calls.mc, self.netlists[size["mc_circuit"]],
            CONFIG_I, size["mc_trials"], delay, mode="stream",
            rng=np.random.default_rng(self.seed))
        self.results["opt"] = self.op(
            "optimize", calls.optimize, self.netlists[size["opt_circuit"]],
            OPT_CLOCK, metric="yield", target_yield=OPT_TARGET_YIELD,
            anneal=True, anneal_moves=size["anneal_moves"],
            rng=np.random.default_rng(self.seed))

    def check(self) -> None:
        for name in self.size["circuits"]:
            out = self.results[name]
            ref = self.reference[name]
            endpoint = ref["endpoint"]
            for algebra, pair in (("moments", "fast-vs-naive/moment"),
                                  ("grid", "fast-vs-naive/grid")):
                result = out[algebra]
                for direction in ("rise", "fall"):
                    got = result.report(endpoint, direction) \
                        if result is not None else (math.nan,) * 3
                    self.expect(report_close(got, ref[algebra][direction],
                                             POLICIES[pair]),
                                f"{name} {algebra} {endpoint} {direction}: "
                                f"{got} vs naive {ref[algebra][direction]}")
            self._check_bounds(name, out["moments"], out["bounds"])

        mc = self.results["mc"]
        mc_name = self.size["mc_circuit"]
        spsta = self.results[mc_name]["moments"]
        bounds = self.results[mc_name]["bounds"]
        tolerance = POLICIES["moment-vs-mc"].abs_probability
        slack = hoeffding_slack(self.size["mc_trials"], CONTAINMENT_DELTA)
        worst_p = worst_sp = 0.0
        for net in self.netlists[mc_name].endpoints:
            acc = mc.accumulator(net)
            for direction in ("rise", "fall"):
                worst_p = max(worst_p, abs(
                    acc.direction_stats(direction).probability
                    - spsta.report(net, direction)[0]))
            sp = bounds.sp[net]
            worst_sp = max(worst_sp, sp.lo - slack - acc.signal_probability,
                           acc.signal_probability - sp.hi - slack)
        self.expect(mc.complete and worst_p <= tolerance,
                    f"monte carlo vs spsta: worst endpoint transition "
                    f"probability delta {worst_p:.4f} > {tolerance}")
        self.expect(worst_sp <= 0.0,
                    f"monte carlo signal probability escapes the bounds "
                    f"by {worst_sp:.4f} beyond the Hoeffding half-width")

        opt = self.results["opt"]
        self.expect(opt.metric_after >= opt.metric_before,
                    f"optimizer lowered yield {opt.metric_before} -> "
                    f"{opt.metric_after}")

    def _check_bounds(self, name: str, result: Any, certified: Any) -> None:
        """Every moment result lies in its certified arrival box."""
        eps = 1e-9
        escapes = []
        for net in self.netlists[name].nets:
            box = certified.arrivals[net]
            for direction in ("rise", "fall"):
                p, mean, std = result.report(net, direction)
                if p == 0.0 or math.isnan(mean):
                    continue
                if not (box.mu_lo - eps <= mean <= box.mu_hi + eps
                        and box.sigma_lo - eps <= std
                        <= box.sigma_hi + eps):
                    escapes.append((net, direction))
        self.expect(not escapes,
                    f"{name}: {len(escapes)} moment results outside the "
                    f"certified boxes, first {escapes[:3]}")

    def install_trace(self, tracer: Tracer) -> None:
        super().install_trace(tracer)
        profile = lambda result: harvest_profile(tracer, result.profile)
        for attr, name, harvest in (
                ("load", "netlist.load", None),
                ("lint", "lint.run", None),
                ("bounds", "bounds.compute", None),
                ("ssta", "ssta.run", None),
                ("spsta_moments", "spsta.moments", profile),
                ("spsta_grid", "spsta.grid", profile),
                ("compile", "scenario.compile", None),
                ("sweep", "scenario.sweep", None),
                ("mc", "sim.mc", None),
                ("optimize", "opt.optimize",
                 lambda result: harvest_sizing(tracer, result))):
            tracer.patch(self.calls, attr, name, harvest)
        tracer.patch(spsta_opt, "compute_bounds", "bounds.compute")
        patch_incremental(tracer)


def harvest_sizing(tracer: Tracer, result: Any) -> None:
    """Fold one :class:`SpstaSizingResult`."""
    tracer.count("opt.moves", len(result.moves))
    tracer.count("opt.accepted_moves", result.accepted_moves)
    tracer.count("opt.recomputed_gates", result.recomputed_gates)
    tracer.count("opt.pruned_candidates", result.pruned_candidates)
