"""Tests for the Monte Carlo fault-tolerance layer.

Retry, checkpoint/resume, and deadline degradation (docs/robustness.md)
are exercised with *injected* faults (``repro.sim.faults``) so every
failure path runs deterministically.  The load-bearing assertions are
differential: an interrupted-then-resumed (or crashed-then-retried) run
must be **bit-identical** to an uninterrupted one.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import os
from pathlib import Path
import subprocess
import sys

import numpy as np
import pytest

from repro.core.inputs import CONFIG_I
from repro.netlist.benchmarks import benchmark_circuit
from repro.sim.checkpoint import (
    CheckpointCorruptError,
    CheckpointKey,
    CheckpointMismatchError,
    CheckpointStore,
    circuit_fingerprint,
)
from repro.sim.faults import (
    EXIT_AFTER_ENV,
    EXIT_CODE,
    CrashShard,
    FaultInjector,
    SlowShard,
    corrupt_shard_file,
    shard_index_of,
)
from repro.sim.montecarlo import run_monte_carlo
from repro.sim.parallel import (
    RetryPolicy,
    ShardFailure,
    TransientShardError,
    plan_shards,
    run_shards_resilient,
)

CIRCUIT = "s27"
TRIALS = 800
SHARDS = 4


def _mc(seed=7, **kwargs):
    return run_monte_carlo(benchmark_circuit(CIRCUIT), CONFIG_I, TRIALS,
                           rng=np.random.default_rng(seed),
                           mode="stream", shards=SHARDS, **kwargs)


def _signature(result):
    """Exact per-net sufficient statistics — equality means bit-identity."""
    sig = {}
    for net in result.nets:
        acc = result.accumulator(net)
        sig[net] = (acc.n_trials, acc.n_one,
                    acc.rise.count, acc.rise.mean, acc.rise.m2,
                    acc.fall.count, acc.fall.mean, acc.fall.m2)
    return sig


@pytest.fixture(scope="module")
def clean_run():
    return _mc()


# -- RetryPolicy ------------------------------------------------------------

class TestRetryPolicy:
    def test_backoff_is_exponential(self):
        policy = RetryPolicy(max_attempts=4, backoff_base=0.05,
                             backoff_factor=2.0)
        assert policy.backoff(1) == pytest.approx(0.05)
        assert policy.backoff(2) == pytest.approx(0.10)
        assert policy.backoff(3) == pytest.approx(0.20)

    def test_transient_classification(self):
        policy = RetryPolicy(transient=(TransientShardError,))
        assert policy.is_transient(TransientShardError("x"))
        assert not policy.is_transient(ValueError("x"))

    def test_validation(self):
        with pytest.raises(ValueError):
            RetryPolicy(max_attempts=0)
        with pytest.raises(ValueError):
            RetryPolicy(backoff_base=-1.0)


class TestExecutorRetry:
    def test_transient_crash_retried_then_succeeds(self):
        policy = RetryPolicy(max_attempts=3, backoff_base=0.0)
        worker = FaultInjector(CrashShard(index=1, times=2)).wrap(
            lambda i: i * 10)
        run = run_shards_resilient(worker, [0, 1, 2], retry=policy)
        assert run.ordered_results() == [0, 10, 20]
        assert run.attempts == {0: 1, 1: 3, 2: 1}

    def test_exhausted_retries_raise_with_attempt_log(self):
        policy = RetryPolicy(max_attempts=2, backoff_base=0.0)
        worker = FaultInjector(CrashShard(index=2, times=None)).wrap(
            lambda i: i)
        with pytest.raises(ShardFailure) as excinfo:
            run_shards_resilient(worker, [0, 1, 2], retry=policy)
        failure = excinfo.value
        assert failure.index == 2
        assert failure.attempts == 2
        assert len(failure.attempt_errors) == 2
        assert all("TransientShardError" in e
                   for e in failure.attempt_errors)
        assert "shard 2" in str(failure)

    def test_non_transient_error_not_retried(self):
        policy = RetryPolicy(max_attempts=5, backoff_base=0.0,
                             transient=(TransientShardError,))
        worker = FaultInjector(
            CrashShard(index=0, times=None, exc_type=KeyError)).wrap(
            lambda i: i)
        with pytest.raises(ShardFailure) as excinfo:
            run_shards_resilient(worker, [0], retry=policy)
        assert excinfo.value.attempts == 1  # no second try

    def test_no_policy_propagates_original_error(self):
        worker = FaultInjector(CrashShard(index=0, times=None)).wrap(
            lambda i: i)
        with pytest.raises(TransientShardError):
            run_shards_resilient(worker, [0, 1])

    def test_on_result_fires_per_shard_in_order(self):
        seen = []
        run_shards_resilient(
            lambda i: i, [0, 1, 2],
            on_result=lambda pos, value, attempts: seen.append(
                (pos, value, attempts)))
        assert seen == [(0, 0, 1), (1, 1, 1), (2, 2, 1)]

    def test_pool_path_retries_too(self):
        policy = RetryPolicy(max_attempts=2, backoff_base=0.0)
        worker = FaultInjector(CrashShard(index=1, times=1)).wrap(_times10)
        run = run_shards_resilient(worker, [0, 1, 2], workers=2,
                                   retry=policy)
        assert run.ordered_results() == [0, 10, 20]
        assert run.attempts[1] == 2


def _times10(i):
    return i * 10


class TestDeadline:
    def test_expired_budget_still_runs_first_shard(self):
        worker = FaultInjector(SlowShard(seconds=0.05)).wrap(lambda i: i)
        run = run_shards_resilient(worker, [0, 1, 2], deadline=0.0,
                                   always_run_first=True)
        assert run.completed == (0,)
        assert run.pending == (1, 2)
        assert run.deadline_expired

    def test_generous_deadline_completes_everything(self):
        run = run_shards_resilient(lambda i: i, [0, 1, 2], deadline=60.0)
        assert run.completed == (0, 1, 2)
        assert not run.deadline_expired


# -- Monte Carlo integration ------------------------------------------------

class TestMonteCarloRetry:
    def test_retried_run_bit_identical_with_attempt_counts(self, clean_run):
        injected = _mc(retry=RetryPolicy(max_attempts=3, backoff_base=0.0),
                       fault_injector=FaultInjector(
                           CrashShard(index=2, times=2)))
        assert _signature(injected) == _signature(clean_run)
        attempts = {r.index: r.attempts for r in injected.shard_reports}
        assert attempts == {0: 1, 1: 1, 2: 3, 3: 1}
        assert "3 attempts" in injected.summary()

    def test_permanent_crash_surfaces_shard_failure(self):
        with pytest.raises(ShardFailure) as excinfo:
            _mc(retry=RetryPolicy(max_attempts=2, backoff_base=0.0),
                fault_injector=FaultInjector(
                    CrashShard(index=1, times=None)))
        assert excinfo.value.index == 1

    def test_wave_mode_rejects_fault_tolerance_args(self):
        with pytest.raises(ValueError):
            run_monte_carlo(benchmark_circuit(CIRCUIT), CONFIG_I, 100,
                            rng=np.random.default_rng(0),
                            retry=RetryPolicy())


class TestCheckpointResume:
    def test_fresh_checkpoint_run_matches_plain_run(self, clean_run,
                                                    tmp_path):
        result = _mc(checkpoint=tmp_path / "ck")
        assert _signature(result) == _signature(clean_run)
        names = {p.name for p in (tmp_path / "ck").iterdir()}
        assert "manifest.json" in names
        assert sum(n.endswith(".pkl") for n in names) == SHARDS

    def test_interrupted_run_resumes_bit_identical(self, clean_run,
                                                   tmp_path):
        directory = tmp_path / "ck"
        # Shard 2 fails permanently: shards 0 and 1 are already on disk.
        with pytest.raises(TransientShardError):
            _mc(checkpoint=directory,
                fault_injector=FaultInjector(CrashShard(index=2,
                                                        times=None)))
        store = CheckpointStore(directory, _key())
        assert store.open(resume=True).keys() == {0, 1}
        # Resume: only shards 2 and 3 run; the merge is bit-identical.
        resumed = _mc(checkpoint=directory, resume=True)
        assert _signature(resumed) == _signature(clean_run)

    def test_resume_with_nothing_on_disk_is_a_plain_run(self, clean_run,
                                                        tmp_path):
        result = _mc(checkpoint=tmp_path / "ck", resume=True)
        assert _signature(result) == _signature(clean_run)

    def test_corrupt_shard_rejected(self, tmp_path):
        directory = tmp_path / "ck"
        _mc(checkpoint=directory)
        corrupt_shard_file(directory, 1, offset=7)
        with pytest.raises(CheckpointCorruptError, match="checksum"):
            _mc(checkpoint=directory, resume=True)

    def test_stale_checkpoint_rejected_not_merged(self, tmp_path):
        directory = tmp_path / "ck"
        _mc(seed=7, checkpoint=directory)
        with pytest.raises(CheckpointMismatchError, match="root_seed"):
            _mc(seed=8, checkpoint=directory, resume=True)

    def test_different_circuit_rejected(self, tmp_path):
        directory = tmp_path / "ck"
        _mc(checkpoint=directory)
        with pytest.raises(CheckpointMismatchError, match="circuit"):
            run_monte_carlo(benchmark_circuit("s208"), CONFIG_I, TRIALS,
                            rng=np.random.default_rng(7), mode="stream",
                            shards=SHARDS, checkpoint=directory,
                            resume=True)

    def test_without_resume_existing_shards_are_reset(self, tmp_path):
        directory = tmp_path / "ck"
        with pytest.raises(TransientShardError):
            _mc(checkpoint=directory,
                fault_injector=FaultInjector(CrashShard(index=1,
                                                        times=None)))
        _mc(checkpoint=directory)  # fresh run: manifest reset, all rerun
        store = CheckpointStore(directory, _key())
        assert store.open(resume=True).keys() == set(range(SHARDS))

    def test_resume_requires_checkpoint(self):
        with pytest.raises(ValueError):
            _mc(resume=True)

    def test_marker_is_written_once(self, tmp_path):
        directory = tmp_path / "ck"
        CheckpointStore(directory, _key()).open(resume=False)
        marker = directory / "manifest.json"
        before = marker.read_bytes(), marker.stat().st_ino
        _mc(checkpoint=directory)
        assert (marker.read_bytes(), marker.stat().st_ino) == before

    def test_shard_of_another_run_rejected_and_kept(self, tmp_path):
        directory, other = tmp_path / "ck", tmp_path / "other"
        _mc(seed=7, checkpoint=directory)
        _mc(seed=8, checkpoint=other)
        foreign = (other / "shard_00001.pkl").read_bytes()
        (directory / "shard_00001.pkl").write_bytes(foreign)
        with pytest.raises(CheckpointMismatchError, match="shard_00001"):
            _mc(seed=7, checkpoint=directory, resume=True)
        assert (directory / "shard_00001.pkl").read_bytes() == foreign

    @pytest.mark.parametrize("resume", [True, False])
    def test_version_1_directory_refused_untouched(self, tmp_path,
                                                   resume):
        directory = tmp_path / "ck"
        directory.mkdir()
        payload = b"v1 shard payload"
        (directory / "shard_00000.pkl").write_bytes(payload)
        (directory / "manifest.json").write_text(json.dumps({
            "format": "spsta-mc-checkpoint", "version": 1,
            "key": dataclasses.asdict(_key()),
            "shards": {"0": {"file": "shard_00000.pkl",
                             "n_trials": TRIALS // SHARDS,
                             "sha256": hashlib.sha256(payload)
                             .hexdigest()}}}))
        before = {p.name: p.read_bytes() for p in directory.iterdir()}
        with pytest.raises(CheckpointCorruptError, match="version-1"):
            _mc(checkpoint=directory, resume=resume)
        assert {p.name: p.read_bytes()
                for p in directory.iterdir()} == before

    def test_fresh_run_discards_earlier_shards(self, tmp_path):
        directory = tmp_path / "ck"
        _mc(checkpoint=directory)
        with pytest.raises(TransientShardError):
            _mc(checkpoint=directory,
                fault_injector=FaultInjector(CrashShard(index=1,
                                                        times=None)))
        assert sorted(p.name for p in directory.glob("shard_*")) == [
            "shard_00000.pkl"]


def _key():
    from repro.core.delay import UnitDelay
    return CheckpointKey.build(benchmark_circuit(CIRCUIT), CONFIG_I,
                               UnitDelay(),
                               np.random.default_rng(7).bit_generator
                               .seed_seq, TRIALS, SHARDS)


class TestKillAndResume:
    def test_process_killed_after_two_shards_then_resumed(self, clean_run,
                                                          tmp_path):
        """An ``os._exit`` mid-run (the fault layer's deterministic
        ``kill -9``) leaves two shards on disk; resuming completes the
        run bit-identically to one that was never interrupted."""
        directory = tmp_path / "ck"
        code = (
            "import numpy as np\n"
            "from repro.core.inputs import CONFIG_I\n"
            "from repro.netlist.benchmarks import benchmark_circuit\n"
            "from repro.sim.montecarlo import run_monte_carlo\n"
            f"run_monte_carlo(benchmark_circuit({CIRCUIT!r}), CONFIG_I, "
            f"{TRIALS}, rng=np.random.default_rng(7), mode='stream', "
            f"shards={SHARDS}, checkpoint={str(directory)!r})\n"
        )
        env = dict(os.environ)
        env[EXIT_AFTER_ENV] = "2"
        env["PYTHONPATH"] = str(Path(__file__).resolve().parents[1] / "src")
        proc = subprocess.run([sys.executable, "-c", code], env=env,
                              capture_output=True, text=True, timeout=120)
        assert proc.returncode == EXIT_CODE, proc.stderr
        store = CheckpointStore(directory, _key())
        assert store.open(resume=True).keys() == {0, 1}
        resumed = _mc(checkpoint=directory, resume=True)
        assert _signature(resumed) == _signature(clean_run)


class TestDeadlineDegradation:
    def test_partial_run_reports_effective_trials_and_widening(self):
        result = _mc(deadline=0.01,
                     fault_injector=FaultInjector(SlowShard(seconds=0.1)))
        assert result.deadline_expired
        assert not result.complete
        assert result.missing_shards == (1, 2, 3)
        assert result.n_trials == TRIALS // SHARDS
        assert result.planned_trials == TRIALS
        assert result.stderr_widening == pytest.approx(2.0)
        summary = result.summary()
        assert "PARTIAL" in summary and "2.00x wider" in summary

    def test_completed_subset_statistics_match_those_shards(self, clean_run):
        """The merged partial statistics are exactly shard 0's — not a
        rescaled or otherwise massaged version of the full run."""
        partial = _mc(deadline=0.01,
                      fault_injector=FaultInjector(SlowShard(seconds=0.1)))
        full_first_shard = {r.index: r for r in clean_run.shard_reports}[0]
        assert partial.shard_reports[0].n_trials == \
            full_first_shard.n_trials
        endpoint = partial.nets[0]
        acc = partial.accumulator(endpoint)
        assert acc.n_trials == TRIALS // SHARDS

    def test_complete_run_has_unit_widening(self, clean_run):
        assert clean_run.complete
        assert clean_run.stderr_widening == 1.0
        assert "PARTIAL" not in clean_run.summary()


# -- fault-injection plumbing ----------------------------------------------

class TestFaultPlumbing:
    def test_shard_index_of_understands_payload_shapes(self):
        plans = plan_shards(100, 2, np.random.default_rng(0))
        assert shard_index_of(plans[1]) == 1
        assert shard_index_of(5) == 5
        assert shard_index_of(("x", plans[0], "y")) == 0
        with pytest.raises(ValueError):
            shard_index_of("not a payload")

    def test_crash_shard_fires_limited_times(self):
        fault = CrashShard(index=0, times=2)
        with pytest.raises(TransientShardError):
            fault.before(0)
        with pytest.raises(TransientShardError):
            fault.before(0)
        fault.before(0)  # exhausted: no raise
        fault.before(1)  # other shards never affected

    def test_circuit_fingerprint_tracks_structure(self):
        a = benchmark_circuit(CIRCUIT)
        assert circuit_fingerprint(a) == circuit_fingerprint(
            benchmark_circuit(CIRCUIT))
        assert circuit_fingerprint(a) != circuit_fingerprint(
            benchmark_circuit("s208"))
