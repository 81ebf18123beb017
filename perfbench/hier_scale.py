"""``hier-scale``: a 10^5-gate tiled circuit through ``run_hier``.

Each round analyzes the circuit twice against one fresh
:class:`~repro.hier.InterfaceModelStore`: cold (every distinct region
computed on the worker pool and written to the store) and then warm
(every region read back).  Partitioning, region dedup, scheduling and
the on-disk store dominate; the fast kernel is shared with
``signoff-batch``, so a kernel change shows in both.  No serve code
runs.  The seed is the :class:`TiledProfile` seed, so every seed is a
different circuit of the same size and shape.
"""

from __future__ import annotations

import random
import shutil
from typing import Any, Dict, Tuple

from perfbench import measure
from perfbench.signoff import harvest_profile
from perfbench.spans import Tracer
from perfbench.workload import Workload
from repro import CONFIG_I, run_spsta
from repro.core import GridAlgebra
from repro.core.profiling import SpstaProfile
from repro.hier import InterfaceModelStore, run_hier
from repro.hier.model import AlgebraSpec
import repro.hier.scheduler as scheduler
from repro.netlist.analysis import fanin_cone
from repro.netlist.core import Netlist
from repro.netlist.generator import TiledProfile, generate_tiled_circuit
from repro.stats.grid import TimeGrid
from repro.verify.policies import POLICIES

FULL = dict(n_tiles=16, gates_per_tile=6246, tile_variants=4, bins=512,
            regions=16, workers=2)
SMOKE = dict(n_tiles=4, gates_per_tile=200, tile_variants=2, bins=128,
             regions=4, workers=2)
#: Endpoints re-derived with the flat engine on their fan-in cones.
SAMPLED_ENDPOINTS = 4
#: Grid tolerance of the flat reference check, the ``repro.verify``
#: policy for region-regrouped grid batches.
REFERENCE_POLICY = "hier-vs-flat/grid"


class HierScale(Workload):
    name = "hier-scale"
    modules = ("repro.hier", "repro.netlist.generator")
    parallel = True

    def __init__(self, *args: Any, **kwargs: Any) -> None:
        super().__init__(*args, **kwargs)
        self.size = SMOKE if self.smoke else FULL
        self.generate = generate_tiled_circuit
        self.run_hier = run_hier
        self.stores = 0
        self.last: Tuple[Any, Any] = (None, None)

    def setup(self) -> None:
        size = self.size
        self.netlist = self.generate(TiledProfile(
            name=f"tiled{self.seed}", n_tiles=size["n_tiles"],
            gates_per_tile=size["gates_per_tile"],
            tile_variants=size["tile_variants"], seed=self.seed))

    def analyze(self, store: Any, label: str) -> Any:
        size = self.size
        run = self.op(label, self.run_hier, self.netlist, CONFIG_I,
                      algebra_spec=AlgebraSpec.grid(
                          TimeGrid(-8.0, 60.0, size["bins"])),
                      n_regions=size["regions"], workers=size["workers"],
                      keep="interface", store=store,
                      profile=SpstaProfile())
        if run is not None and not run.complete:
            self.fail(f"{label} left regions {run.pending_regions} "
                      f"pending")
        return run

    def round(self) -> None:
        # Free the previous pair first, so the peak resident set does
        # not depend on how many rounds fit in the time budget.
        self.last = (None, None)
        self.stores += 1
        directory = self.work_dir / f"hier-store-{self.stores}"
        shutil.rmtree(directory, ignore_errors=True)
        store = InterfaceModelStore(directory)
        if self.tracer is not None:
            self.tracer.patch(store, "get", "hier.store_get")
            self.tracer.patch(store, "put", "hier.store_put")
        cold = self.analyze(store, "run_hier cold")
        warm = self.analyze(store, "run_hier warm")
        shutil.rmtree(directory, ignore_errors=True)
        self.last = (cold, warm)

    def check(self) -> None:
        cold, warm = self.last
        self.expect(cold is not None and warm is not None,
                    "last round has no cold/warm pair")
        if cold is None or warm is None:
            return
        # repr keeps every digit and makes NaN (a never-occurring
        # transition) compare equal to itself.
        self.expect(repr(warm.endpoint_rows(self.netlist))
                    == repr(cold.endpoint_rows(self.netlist)),
                    "warm hier run differs from the cold run")
        self.expect(warm.cache_hits > 0 and cold.cache_hits == 0,
                    f"store hits: cold {cold.cache_hits}, warm "
                    f"{warm.cache_hits}")

        policy = POLICIES[REFERENCE_POLICY]
        netlist = self.netlist
        rng = random.Random(self.seed)
        candidates = [net for net in netlist.endpoints
                      if not netlist.is_launch_point(net)]
        algebra = GridAlgebra(TimeGrid(-8.0, 60.0, self.size["bins"]))
        for endpoint in rng.sample(candidates,
                                   min(SAMPLED_ENDPOINTS, len(candidates))):
            cone = fanin_cone(netlist, endpoint)
            gates = [g for g in netlist.combinational_gates
                     if g.name in cone]
            inputs = [n for n in sorted(cone) if netlist.is_launch_point(n)]
            flat = run_spsta(Netlist(f"cone-{endpoint}", inputs,
                                     [endpoint], gates),
                             CONFIG_I, algebra=algebra)
            for direction in ("rise", "fall"):
                got = cold.result.report(endpoint, direction)
                want = flat.report(endpoint, direction)
                ok = abs(got[0] - want[0]) <= policy.abs_probability and (
                    got[1] != got[1] and want[1] != want[1]
                    or abs(got[1] - want[1]) <= policy.abs_mean
                    and abs(got[2] - want[2]) <= policy.abs_std)
                self.expect(ok, f"{endpoint} {direction}: hier {got} vs "
                                f"flat cone reference {want}")

    def install_trace(self, tracer: Tracer) -> None:
        super().install_trace(tracer)
        self.generate = tracer.wrap(self.generate, "netlist.generate")
        self.run_hier = tracer.wrap(
            self.run_hier, "hier.run",
            lambda run: harvest_hier(tracer, run))
        tracer.patch(scheduler, "partition_netlist", "netlist.partition")

    def figures(self) -> Dict[str, Tuple[float, str]]:
        return {
            "hier_cold_s": (measure.median(
                self.op_seconds["run_hier cold"]), "s"),
            "hier_warm_s": (measure.median(
                self.op_seconds["run_hier warm"]), "s"),
            "hier_samples": (len(self.op_seconds["run_hier cold"]),
                             "count"),
        }


def harvest_hier(tracer: Tracer, run: Any) -> None:
    """Fold one :class:`HierRun` and the profile it filled."""
    computed = [r for r in run.reports if r.source == "computed"]
    tracer.count("hier.region_compute_s", sum(r.seconds for r in computed))
    tracer.count("hier.regions_computed", len(computed))
    tracer.count("hier.dedup_hits", run.dedup_hits)
    tracer.count("hier.cache_hits", run.cache_hits)
    tracer.count("hier.cache_misses", run.cache_misses)
    harvest_profile(tracer, run.result.profile)
