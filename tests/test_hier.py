"""Differential, caching, and fault-tolerance tests for repro.hier.

The headline property: a partitioned run merged over all regions IS the
flat fast-engine run — bit-exact for the closed-form algebras, within
batch-regrouping rounding (1e-12 weights / 1e-9 moments) for the grid
algebra — on every bundled bench and on random circuits at random
partition counts.  On top of that, the interface-model cache must hit on
reruns, survive corruption by recomputing, dedup isomorphic regions
within a run, and the scheduler must honor the shard layer's retry and
deadline semantics.
"""

import math
import multiprocessing
from operator import itemgetter

from hypothesis import given, settings, strategies as st
import pytest

from repro.core.delay import NormalDelay, UnitDelay
from repro.core.inputs import CONFIG_I
from repro.core.profiling import SpstaProfile
from repro.core.spsta import run_spsta
from repro.hier import (
    AlgebraSpec,
    InterfaceModelStore,
    run_hier,
)
from repro.hier.store import InterfaceCacheError
from repro.netlist.analysis import net_depths
from repro.netlist.benchmarks import benchmark_circuit, benchmark_names
from repro.netlist.generator import (
    GeneratorProfile,
    TiledProfile,
    generate_circuit,
    generate_tiled_circuit,
)
from repro.sim.faults import CrashShard, FaultInjector, SlowShard
from repro.sim.parallel import RetryPolicy, TransientShardError
from repro.stats.grid import TimeGrid

#: Grid tolerance of the hier-vs-flat policy (see docs/verification.md).
GRID_TOL = (1e-12, 1e-9, 1e-9)
EXACT = (0.0, 0.0, 0.0)

#: FaultInjector index extractor for hier payloads (region index first).
REGION_INDEX = itemgetter(0)


def _grid_for(netlist, bins_per_unit=8, margin=8.0):
    depth = max(net_depths(netlist).values(), default=1)
    start, stop = -margin, depth + margin
    return TimeGrid(start, stop,
                    bins_per_unit * int(round(stop - start)) + 1)


def assert_matches_flat(netlist, spec, *, n_regions, tol=EXACT,
                        delay_model=UnitDelay(), **kwargs):
    """run_hier(keep='all') must reproduce the flat fast engine."""
    run = run_hier(netlist, CONFIG_I, delay_model, spec,
                   n_regions=n_regions, keep="all", **kwargs)
    assert run.complete
    flat = run_spsta(netlist, CONFIG_I, delay_model, spec.build())
    assert sorted(run.result.tops) == sorted(flat.tops)
    p_tol, m_tol, s_tol = tol
    for net in flat.tops:
        for direction in ("rise", "fall"):
            p_h, mu_h, sd_h = run.result.report(net, direction)
            p_f, mu_f, sd_f = flat.report(net, direction)
            assert abs(p_h - p_f) <= p_tol, (net, direction, p_h, p_f)
            assert math.isfinite(mu_h) == math.isfinite(mu_f), \
                (net, direction)
            if math.isfinite(mu_f):
                assert abs(mu_h - mu_f) <= m_tol, (net, direction)
                assert abs(sd_h - sd_f) <= s_tol, (net, direction)
    return run


class TestDifferentialBenches:
    @pytest.mark.parametrize("name", benchmark_names())
    def test_moment_bit_exact(self, name):
        assert_matches_flat(benchmark_circuit(name), AlgebraSpec.moment(),
                            n_regions=4)

    # The two scale benches are excluded here: the mixture algebra's
    # subset-lattice folds dominate runtime (~60s combined) without
    # exercising any path s1238/s1196 do not.
    @pytest.mark.parametrize(
        "name", tuple(n for n in benchmark_names()
                      if n not in ("s5378", "s9234")))
    def test_mixture_bit_exact(self, name):
        assert_matches_flat(benchmark_circuit(name),
                            AlgebraSpec.mixture(), n_regions=4)

    @pytest.mark.parametrize("name", ("s27", "s208", "s382", "s1238"))
    def test_grid_within_regrouping_rounding(self, name):
        netlist = benchmark_circuit(name)
        assert_matches_flat(netlist, AlgebraSpec.grid(_grid_for(netlist)),
                            n_regions=4, tol=GRID_TOL)

    def test_grid_with_normal_delay(self):
        # Gaussian delay spread exercises the convolution path per region.
        netlist = benchmark_circuit("s27")
        assert_matches_flat(
            netlist, AlgebraSpec.grid(_grid_for(netlist, 16)),
            n_regions=3, tol=GRID_TOL,
            delay_model=NormalDelay(1.0, 0.1))

    @pytest.mark.parametrize("k", (1, 2, 3, 5, 8))
    def test_partition_count_is_immaterial(self, k):
        assert_matches_flat(benchmark_circuit("s1238"),
                            AlgebraSpec.moment(), n_regions=k)

    def test_pool_path_matches_serial(self):
        # workers=2 ships picklable payloads through a real process pool.
        assert_matches_flat(benchmark_circuit("s208"),
                            AlgebraSpec.moment(), n_regions=4, workers=2)


class TestPropertyRandomCircuits:
    @given(seed=st.integers(0, 2 ** 16),
           n_gates=st.integers(20, 60),
           depth=st.integers(3, 7),
           n_dffs=st.integers(0, 8),
           k=st.integers(1, 6))
    @settings(max_examples=25, deadline=None)
    def test_hier_equals_flat(self, seed, n_gates, depth, n_dffs, k):
        profile = GeneratorProfile(
            name="prop", n_inputs=6, n_outputs=4, n_dffs=n_dffs,
            n_gates=n_gates, depth=depth, seed=seed)
        assert_matches_flat(generate_circuit(profile),
                            AlgebraSpec.moment(), n_regions=k)


class TestInterfaceCache:
    def test_rerun_hits_cache(self, tmp_path):
        netlist = benchmark_circuit("s208")
        store = InterfaceModelStore(tmp_path / "cache")
        cold = run_hier(netlist, CONFIG_I, n_regions=4, store=store)
        assert cold.cache_hits == 0
        computed = sum(1 for r in cold.reports if r.source == "computed")
        assert computed > 0 and len(store) == computed

        warm_store = InterfaceModelStore(tmp_path / "cache")
        warm = run_hier(netlist, CONFIG_I, n_regions=4, store=warm_store)
        assert warm.cache_hits == computed
        assert all(r.source in ("cache", "dedup") for r in warm.reports)
        flat = run_spsta(netlist, CONFIG_I)
        for net, direction, p, mean, std in warm.endpoint_rows(netlist):
            assert (p, mean, std) == flat.report(net, direction)

    def test_grid_pin_states_round_trip(self, tmp_path):
        netlist = benchmark_circuit("s27")
        spec = AlgebraSpec.grid(_grid_for(netlist))
        store = InterfaceModelStore(tmp_path / "cache")
        first = run_hier(netlist, CONFIG_I, algebra_spec=spec,
                         n_regions=3, keep="all", store=store)
        second = run_hier(netlist, CONFIG_I, algebra_spec=spec,
                          n_regions=3, keep="all",
                          store=InterfaceModelStore(tmp_path / "cache"))
        assert second.cache_hits > 0
        for net in first.result.tops:
            for direction in ("rise", "fall"):
                assert (second.result.report(net, direction)
                        == first.result.report(net, direction))

    def test_corrupt_entry_is_a_miss_not_an_error(self, tmp_path):
        netlist = benchmark_circuit("s208")
        store = InterfaceModelStore(tmp_path / "cache")
        run_hier(netlist, CONFIG_I, n_regions=4, store=store)
        victim = sorted((tmp_path / "cache").glob("im_*.pkl"))[0]
        payload = bytearray(victim.read_bytes())
        payload[0] ^= 0xFF
        victim.write_bytes(bytes(payload))

        store2 = InterfaceModelStore(tmp_path / "cache")
        rerun = run_hier(netlist, CONFIG_I, n_regions=4, store=store2)
        assert rerun.complete
        assert rerun.cache_misses >= 1          # corrupt entry recomputed
        assert rerun.cache_hits >= 1            # intact entries still hit
        flat = run_spsta(netlist, CONFIG_I)
        for net, direction, p, mean, std in rerun.endpoint_rows(netlist):
            assert (p, mean, std) == flat.report(net, direction)

    def test_foreign_manifest_is_refused(self, tmp_path):
        (tmp_path / "manifest.json").write_text(
            '{"format": "something-else", "entries": {}}')
        with pytest.raises(InterfaceCacheError):
            InterfaceModelStore(tmp_path)

    def test_keys_separate_algebra_and_seeds(self, tmp_path):
        netlist = benchmark_circuit("s27")
        store = InterfaceModelStore(tmp_path / "cache")
        run_hier(netlist, CONFIG_I, algebra_spec=AlgebraSpec.moment(),
                 n_regions=3, store=store)
        n_moment = len(store)
        # A different algebra must not collide with the moment entries.
        again = run_hier(netlist, CONFIG_I,
                         algebra_spec=AlgebraSpec.mixture(),
                         n_regions=3, store=store)
        assert again.cache_hits == 0
        assert len(store) > n_moment


def _race_puts(directory, prefix, count, barrier):
    """Worker: open the shared store and hammer it with distinct puts."""
    from repro.hier.model import InterfaceModel

    store = InterfaceModelStore(directory)
    barrier.wait()  # maximize manifest-write interleaving
    for i in range(count):
        key = f"{prefix}{i:04d}".ljust(40, "0")
        store.put(InterfaceModel(key=key, region_digest="d",
                                 pins={}, seconds=0.0))


def _race_same_key(directory, count, barrier):
    """Worker: re-put one identical model, racing a twin process."""
    store = InterfaceModelStore(directory)
    model = _shared_model()
    barrier.wait()
    for _ in range(count):
        store.put(model)


def _shared_model():
    from repro.hier.model import InterfaceModel

    return InterfaceModel(key="same".ljust(40, "0"), region_digest="d",
                          pins={}, seconds=0.0)


class TestConcurrentPuts:
    """Two processes sharing a cache directory must not lose entries.

    Before the advisory manifest lock, each process rewrote the manifest
    from its private view, so interleaved puts dropped the other
    process's entries (last writer wins).  Under the lock + merge-on-
    write, every put from both processes must survive in the manifest
    and be loadable by a fresh store.
    """

    N_PER_PROC = 12

    def test_two_processes_racing_puts_lose_nothing(self, tmp_path):
        directory = tmp_path / "cache"
        InterfaceModelStore(directory)  # create the manifest up front
        ctx = multiprocessing.get_context("spawn")
        barrier = ctx.Barrier(2)
        procs = [ctx.Process(target=_race_puts,
                             args=(str(directory), prefix,
                                   self.N_PER_PROC, barrier))
                 for prefix in ("aa", "bb")]
        for p in procs:
            p.start()
        for p in procs:
            p.join(timeout=60)
            assert p.exitcode == 0
        fresh = InterfaceModelStore(directory)
        assert len(fresh) == 2 * self.N_PER_PROC
        for prefix in ("aa", "bb"):
            for i in range(self.N_PER_PROC):
                key = f"{prefix}{i:04d}".ljust(40, "0")
                model = fresh.get(key)
                assert model is not None and model.key == key

    def test_two_processes_putting_one_key_never_collide(self, tmp_path):
        """Two writers of the same entry (and of the manifest) must each
        write through their own temp file: with a shared temp path one
        writer renames the other's file away mid-write
        (FileNotFoundError)."""
        directory = tmp_path / "cache"
        InterfaceModelStore(directory)
        ctx = multiprocessing.get_context("spawn")
        barrier = ctx.Barrier(2)
        procs = [ctx.Process(target=_race_same_key,
                             args=(str(directory), 100, barrier))
                 for _ in range(2)]
        for p in procs:
            p.start()
        for p in procs:
            p.join(timeout=120)
            assert p.exitcode == 0
        fresh = InterfaceModelStore(directory)
        assert len(fresh) == 1
        model = fresh.get(_shared_model().key)   # checksum-verified read
        assert model == _shared_model()
        assert fresh.misses == 0
        assert not list(directory.glob("*.tmp"))

    def test_merge_preserves_foreign_entries_on_drop(self, tmp_path):
        """_drop of a corrupt entry must not erase other processes'
        manifest entries persisted since we last read it."""
        from repro.hier.model import InterfaceModel

        directory = tmp_path / "cache"
        ours = InterfaceModelStore(directory)
        ours.put(InterfaceModel(key="mine".ljust(40, "0"),
                                region_digest="d", pins={}, seconds=0.0))
        theirs = InterfaceModelStore(directory)
        theirs.put(InterfaceModel(key="other".ljust(40, "0"),
                                  region_digest="d", pins={}, seconds=0.0))
        # Corrupt our payload so our next get() drops it.
        path = ours.entry_path("mine".ljust(40, "0"))
        path.write_bytes(b"garbage")
        assert ours.get("mine".ljust(40, "0")) is None
        fresh = InterfaceModelStore(directory)
        assert fresh.get("other".ljust(40, "0")) is not None
        assert fresh.get("mine".ljust(40, "0")) is None


class TestDedup:
    def test_replicated_tiles_compute_once(self):
        profile = TiledProfile(name="tiles", n_tiles=6, gates_per_tile=40,
                               tile_variants=2, seed=5)
        netlist = generate_tiled_circuit(profile)
        run = assert_matches_flat(netlist, AlgebraSpec.moment(),
                                  n_regions=6)
        computed = sum(1 for r in run.reports if r.source == "computed")
        assert computed == profile.tile_variants
        assert run.dedup_hits == profile.n_tiles - profile.tile_variants


class TestFaultTolerance:
    def test_transient_crash_retried_bit_exact(self):
        netlist = benchmark_circuit("s208")
        injector = FaultInjector(CrashShard(index=0, times=1),
                                 index_of=REGION_INDEX)
        run = assert_matches_flat(
            netlist, AlgebraSpec.moment(), n_regions=4,
            retry=RetryPolicy(max_attempts=2, backoff_base=0.0),
            fault_injector=injector)
        report = next(r for r in run.reports
                      if r.index == 0 and r.source == "computed")
        assert report.attempts == 2

    def test_crash_without_retry_propagates(self):
        injector = FaultInjector(CrashShard(index=0, times=1),
                                 index_of=REGION_INDEX)
        with pytest.raises(TransientShardError):
            run_hier(benchmark_circuit("s208"), CONFIG_I, n_regions=4,
                     fault_injector=injector)

    def test_expired_deadline_reports_pending(self):
        netlist = benchmark_circuit("s1238")
        run = run_hier(netlist, CONFIG_I, n_regions=4, deadline=0.0)
        assert not run.complete and run.deadline_expired
        assert run.pending_regions == tuple(range(4))
        assert all(r.source == "pending" for r in run.reports)
        # Only launch statistics merged; endpoint rows skip pending nets.
        driven = {g.name for g in netlist.combinational_gates}
        assert not driven & set(run.result.tops)

    def test_deadline_then_resume_from_store(self, tmp_path):
        # s1238 at 4 partitions is a 4-wave chain: a budget that expires
        # during wave 1 deterministically computes region 0 and leaves
        # 1-3 pending; the persisted interface model then lets a second
        # run resume instead of recomputing region 0.
        netlist = benchmark_circuit("s1238")
        store = InterfaceModelStore(tmp_path / "cache")
        partial = run_hier(
            netlist, CONFIG_I, n_regions=4, store=store, deadline=0.2,
            fault_injector=FaultInjector(SlowShard(seconds=0.3),
                                         index_of=REGION_INDEX))
        assert partial.deadline_expired
        assert partial.pending_regions == (1, 2, 3)
        assert len(store) == 1

        resumed = run_hier(netlist, CONFIG_I, n_regions=4,
                           store=InterfaceModelStore(tmp_path / "cache"))
        assert resumed.complete
        assert resumed.cache_hits == 1
        flat = run_spsta(netlist, CONFIG_I)
        for net, direction, p, mean, std in resumed.endpoint_rows(netlist):
            assert (p, mean, std) == flat.report(net, direction)


class TestKeepInterface:
    def test_interface_mode_bounds_merged_nets(self):
        netlist = benchmark_circuit("s1238")
        run = run_hier(netlist, CONFIG_I, n_regions=4, keep="interface")
        full = run_spsta(netlist, CONFIG_I)
        assert len(run.result.tops) < len(full.tops)
        for net, direction, p, mean, std in run.endpoint_rows(netlist):
            assert (p, mean, std) == full.report(net, direction)

    def test_unknown_keep_mode_rejected(self):
        with pytest.raises(ValueError, match="keep"):
            run_hier(benchmark_circuit("s27"), CONFIG_I, keep="everything")


class TestProfileMerging:
    def test_worker_counters_fold_into_parent(self):
        netlist = benchmark_circuit("s208")
        profile = SpstaProfile()
        run_hier(netlist, CONFIG_I, n_regions=4, keep="all",
                 profile=profile)
        assert profile.engine == "hier"
        assert profile.gates_processed == len(netlist.combinational_gates)
        assert profile.phase_seconds.get("partition", 0.0) >= 0.0
        assert "schedule" in profile.phase_seconds


@pytest.mark.perf_smoke
def test_hier_scales_to_100k_gates():
    """Smoke-scale version of the BENCH_hier_scale headline: a 100k-gate
    tiled design partitions, dedups its replicated tiles, and completes
    in interface mode well inside the smoke budget."""
    import time

    profile = TiledProfile(name="tiles100k", n_tiles=16,
                           gates_per_tile=6246, tile_variants=2, seed=0)
    netlist = generate_tiled_circuit(profile)
    assert profile.n_gates == 100_000
    t0 = time.perf_counter()
    run = run_hier(netlist, CONFIG_I, n_regions=16, keep="interface")
    seconds = time.perf_counter() - t0
    assert run.complete
    computed = sum(1 for r in run.reports if r.source == "computed")
    assert computed == profile.tile_variants
    assert run.dedup_hits == profile.n_tiles - profile.tile_variants
    assert seconds < 60.0, f"100k-gate hier run took {seconds:.1f}s"
