"""Four-value-logic Monte Carlo timing simulation (the paper's ground truth).

- :mod:`repro.sim.sampler` — draws launch-point four-value assignments and
  transition arrival times from :class:`repro.core.inputs.InputStats`.
- :mod:`repro.sim.reference` — scalar, event-stepping simulator: per trial,
  per gate, input transitions are applied in time order and the output
  arrival is the last output change.  Exact for every gate type; the oracle.
- :mod:`repro.sim.montecarlo` — numpy-vectorized simulator with closed-form
  per-gate-family rules, validated trial-for-trial against the reference.
  One gate kernel, two modes: ``"waves"`` keeps every per-trial array,
  ``"stream"`` retires waves once folded into O(1)-per-net statistics and
  can shard trials over processes.
- :mod:`repro.sim.accumulator` — the streaming sufficient statistics and
  their shard-merge algebra.
- :mod:`repro.sim.parallel` — shard planning (``SeedSequence.spawn``
  seeding) and the process-pool / serial shard executor, with per-shard
  retry (:class:`~repro.sim.parallel.RetryPolicy`) and deadline-bounded
  partial sweeps.
- :mod:`repro.sim.checkpoint` — crash-safe shard persistence (atomic
  entry files keyed on seed/circuit/plan) behind ``--resume``.
- :mod:`repro.sim.faults` — deterministic fault injection (crash, hang,
  corrupt, kill-after-N-shards) proving the paths above end to end.
"""

from repro.sim.accumulator import (
    DirectionMoments,
    NetAccumulator,
    accumulate_waves,
    merge_accumulators,
)
from repro.sim.checkpoint import (
    CheckpointCorruptError,
    CheckpointError,
    CheckpointKey,
    CheckpointMismatchError,
    CheckpointStore,
)
from repro.sim.faults import (
    CrashShard,
    FaultInjector,
    HangShard,
    SlowShard,
    corrupt_shard_file,
)
from repro.sim.montecarlo import (
    DirectionStats,
    StreamResult,
    run_monte_carlo,
)
from repro.sim.parallel import (
    RetryPolicy,
    ShardFailure,
    ShardPlan,
    ShardReport,
    ShardRun,
    TransientShardError,
    WaveMemoryMeter,
    plan_shards,
    run_shards,
    run_shards_resilient,
)
from repro.sim.reference import event_gate_output, simulate_trial
from repro.sim.sampler import LaunchSample, sample_launch_points

__all__ = [
    "run_monte_carlo",
    "StreamResult",
    "DirectionStats",
    "DirectionMoments",
    "NetAccumulator",
    "accumulate_waves",
    "merge_accumulators",
    "ShardPlan",
    "ShardReport",
    "ShardRun",
    "ShardFailure",
    "RetryPolicy",
    "TransientShardError",
    "WaveMemoryMeter",
    "plan_shards",
    "run_shards",
    "run_shards_resilient",
    "CheckpointError",
    "CheckpointMismatchError",
    "CheckpointCorruptError",
    "CheckpointKey",
    "CheckpointStore",
    "FaultInjector",
    "CrashShard",
    "HangShard",
    "SlowShard",
    "corrupt_shard_file",
    "sample_launch_points",
    "LaunchSample",
    "simulate_trial",
    "event_gate_output",
]
