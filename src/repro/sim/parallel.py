"""Shard scheduling for the Monte Carlo engines.

Splits an ``n_trials`` budget into shards, gives every shard an
independent, reproducible random stream, and fans the shard workloads out
over a ``multiprocessing`` pool (with a serial fallback when the pool is
unavailable or not worth its start-up cost).

Seeding discipline: shard streams come from
``numpy.random.SeedSequence.spawn`` on the caller's generator, so the
trial stream of shard *i* depends only on (root seed, shard index) — never
on the worker that happens to execute it.  Combined with the fixed merge
order in :func:`repro.sim.accumulator.merge_accumulators`, the same root
seed yields bit-identical merged statistics at any worker count.

Fault tolerance (see ``docs/robustness.md``): a :class:`RetryPolicy`
re-runs shards that fail with *transient* exceptions (exponential
backoff, bounded attempts); :func:`run_shards_resilient` additionally
supports a wall-clock ``deadline`` after which no new shards are
dispatched, and an ``on_result`` callback invoked the moment each shard
completes — the hook the checkpoint layer uses to persist progress
*before* a later shard can crash the run.  Because a shard's result is a
pure function of its plan, retries and resumes cannot change the merged
statistics.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
import logging
import multiprocessing
import multiprocessing.pool
import pickle
import time
from typing import (
    Callable,
    Dict,
    Generic,
    List,
    Optional,
    Sequence,
    Tuple,
    Type,
    TypeVar,
)

import numpy as np

logger = logging.getLogger(__name__)

T = TypeVar("T")
R = TypeVar("R")

#: How long one poll of the in-flight pool results may block (seconds).
_POLL_SECONDS = 0.01


class TransientShardError(RuntimeError):
    """A shard failure worth retrying (infrastructure hiccup, injected
    fault, ...).  Raise it from a shard worker — or list other exception
    classes in :attr:`RetryPolicy.transient` — to opt into retries."""


@dataclass(frozen=True)
class RetryPolicy:
    """Per-shard retry discipline for transient failures.

    A shard attempt that raises one of the ``transient`` exception classes
    is re-run up to ``max_attempts`` times in total, sleeping
    ``backoff_base * backoff_factor ** (attempt - 1)`` seconds between
    attempts.  Non-transient exceptions and exhausted budgets surface as
    :class:`ShardFailure` with the full attempt log.  ``sleep`` is
    injectable so tests can retry without waiting.
    """

    max_attempts: int = 3
    backoff_base: float = 0.05
    backoff_factor: float = 2.0
    transient: Tuple[Type[BaseException], ...] = (TransientShardError,
                                                  OSError, MemoryError)
    sleep: Callable[[float], None] = time.sleep

    def __post_init__(self) -> None:
        if self.max_attempts < 1:
            raise ValueError(
                f"max_attempts must be >= 1, got {self.max_attempts}")
        if self.backoff_base < 0.0:
            raise ValueError(
                f"backoff_base must be >= 0, got {self.backoff_base}")
        if self.backoff_factor < 1.0:
            raise ValueError(
                f"backoff_factor must be >= 1, got {self.backoff_factor}")

    def is_transient(self, error: BaseException) -> bool:
        return isinstance(error, self.transient)

    def backoff(self, failed_attempts: int) -> float:
        """Sleep before attempt ``failed_attempts + 1`` (1-based)."""
        return (self.backoff_base
                * self.backoff_factor ** (failed_attempts - 1))


class ShardFailure(RuntimeError):
    """A shard kept failing: the index, attempt count, and per-attempt
    error log (reprs), so the operator knows exactly what to re-run."""

    def __init__(self, index: int, attempts: int,
                 attempt_errors: Sequence[str]) -> None:
        self.index = index
        self.attempts = attempts
        self.attempt_errors: Tuple[str, ...] = tuple(attempt_errors)
        log = "; ".join(f"attempt {i + 1}: {e}"
                        for i, e in enumerate(self.attempt_errors))
        super().__init__(
            f"shard {index} failed after {attempts} attempt(s): {log}")


@dataclass(frozen=True)
class ShardPlan:
    """One shard's slice of the trial budget.

    ``offset`` is the first global trial index (used to slice shared launch
    samples); ``seed`` is the shard's spawned SeedSequence, or None for a
    single-shard run that borrows the caller's generator directly.
    """

    index: int
    n_trials: int
    offset: int
    seed: Optional[np.random.SeedSequence]


@dataclass(frozen=True)
class ShardReport:
    """Observability counters of one executed shard."""

    index: int
    n_trials: int
    seconds: float
    peak_wave_bytes: int
    attempts: int = 1

    def format(self) -> str:
        retries = (f", {self.attempts} attempts" if self.attempts > 1
                   else "")
        return (f"shard {self.index}: {self.n_trials} trials, "
                f"{self.seconds * 1e3:.1f} ms, "
                f"peak waves {self.peak_wave_bytes / 1024:.0f} KiB{retries}")


def seed_sequence_of(rng: np.random.Generator) -> np.random.SeedSequence:
    """The SeedSequence backing ``rng`` (every ``default_rng`` has one).

    Side effect on the fallback path only: an exotic bit generator without
    a stored SeedSequence derives one from its own stream, which consumes
    one ``integers`` draw and advances the caller's generator — the same
    caveat as :meth:`repro.stats.mixture.GaussianMixture.sample`.
    """
    seed_seq = getattr(rng.bit_generator, "seed_seq", None)
    if isinstance(seed_seq, np.random.SeedSequence):
        return seed_seq
    # Exotic bit generators without a stored SeedSequence: derive one
    # deterministically from the generator's own stream.
    return np.random.SeedSequence(int(rng.integers(0, 2 ** 63)))


def plan_shards(n_trials: int, shards: int,
                rng: np.random.Generator) -> List[ShardPlan]:
    """Split ``n_trials`` into ``shards`` near-equal chunks.

    The remainder goes to the leading shards so every shard size differs by
    at most one trial.  With a single shard no child stream is spawned: the
    caller's generator is used as-is, keeping one-shard streaming runs on
    the same draw sequence as a ``mode="waves"`` run.
    """
    if n_trials < 1:
        raise ValueError(f"n_trials must be >= 1, got {n_trials}")
    if shards < 1:
        raise ValueError(f"shards must be >= 1, got {shards}")
    if shards > n_trials:
        shards = n_trials
    if shards == 1:
        return [ShardPlan(index=0, n_trials=n_trials, offset=0, seed=None)]
    base, extra = divmod(n_trials, shards)
    seeds = seed_sequence_of(rng).spawn(shards)
    plans: List[ShardPlan] = []
    offset = 0
    for i in range(shards):
        size = base + (1 if i < extra else 0)
        plans.append(ShardPlan(index=i, n_trials=size, offset=offset,
                               seed=seeds[i]))
        offset += size
    return plans


@dataclass
class _ShardOutcome:
    """What came back from one pool-side shard call: a value or the final
    exception (never both), plus the attempt accounting."""

    value: object = None
    error: Optional[BaseException] = None
    attempts: int = 1
    attempt_errors: Tuple[str, ...] = ()


class _ShardCall:
    """Pool-side wrapper that captures worker exceptions as outcomes and
    runs the retry loop *inside* the worker process.

    With worker failures carried back as data, any exception that escapes
    the pool round trip itself is pool/serialization infrastructure
    (unpicklable worker, payload, or result) by construction — the
    discriminator that lets the executors fall back serially on
    infrastructure failures while re-raising real worker bugs.  Running
    retries pool-side keeps the attempt counter coherent (one process owns
    the whole attempt sequence) and leaves the parent free to collect
    other shards meanwhile.
    """

    __slots__ = ("worker", "retry")

    def __init__(self, worker: Callable[[T], R],
                 retry: Optional[RetryPolicy] = None) -> None:
        self.worker = worker
        self.retry = retry

    def __call__(self, payload: T) -> _ShardOutcome:
        attempt_errors: List[str] = []
        attempts = 0
        while True:
            attempts += 1
            try:
                return _ShardOutcome(value=self.worker(payload),
                                     attempts=attempts,
                                     attempt_errors=tuple(attempt_errors))
            except Exception as exc:  # noqa: BLE001 - re-raised in parent
                attempt_errors.append(repr(exc))
                retry = self.retry
                if (retry is None or not retry.is_transient(exc)
                        or attempts >= retry.max_attempts):
                    return _ShardOutcome(error=exc, attempts=attempts,
                                         attempt_errors=tuple(attempt_errors))
                retry.sleep(retry.backoff(attempts))


@dataclass
class ShardRun(Generic[R]):
    """Outcome of a resilient shard sweep.

    ``results``/``attempts`` are keyed by *payload position*; ``pending``
    lists positions never completed because the deadline expired before
    they could run (or finish).  Without a deadline, ``results`` covers
    every payload or the sweep raised.
    """

    results: Dict[int, R] = field(default_factory=dict)
    attempts: Dict[int, int] = field(default_factory=dict)
    pending: Tuple[int, ...] = ()
    deadline_expired: bool = False

    @property
    def completed(self) -> Tuple[int, ...]:
        return tuple(sorted(self.results))

    def ordered_results(self) -> List[R]:
        """Completed results in payload order."""
        return [self.results[i] for i in self.completed]


class _PoolRoundTripError(Exception):
    """Internal: the pool could not ship the workload (pickling)."""

    def __init__(self, cause: BaseException) -> None:
        super().__init__(str(cause))
        self.cause = cause


def _raise_outcome(index: int, outcome: _ShardOutcome,
                   retry: Optional[RetryPolicy]) -> None:
    """Re-raise a failed outcome: the original exception when no retry
    policy was in force (legacy contract), a :class:`ShardFailure` with
    the attempt log when retries were exhausted or the error was
    permanent."""
    assert outcome.error is not None
    if retry is None:
        raise outcome.error
    raise ShardFailure(index, outcome.attempts,
                       outcome.attempt_errors) from outcome.error


def _run_serial(call: "_ShardCall", payloads: Sequence[T],
                run: ShardRun, deadline_at: Optional[float],
                retry: Optional[RetryPolicy],
                on_result: Optional[Callable[[int, R, int], None]],
                always_run_first: bool) -> None:
    """Serial sweep of every payload position not yet in ``run.results``.

    The deadline is checked *between* shards (an in-process shard cannot
    be preempted); with ``always_run_first`` and no result collected yet,
    the first pending shard runs even on an expired budget so a too-tight
    deadline still yields a usable estimate.
    """
    pending: List[int] = []
    for i, payload in enumerate(payloads):
        if i in run.results:
            continue
        expired = (deadline_at is not None
                   and time.monotonic() >= deadline_at)
        if expired and not (always_run_first and not run.results):
            run.deadline_expired = True
            pending.append(i)
            continue
        outcome = call(payload)
        if outcome.error is not None:
            _raise_outcome(i, outcome, retry)
        run.results[i] = outcome.value
        run.attempts[i] = outcome.attempts
        if on_result is not None:
            on_result(i, outcome.value, outcome.attempts)
    run.pending = tuple(pending)


def _run_pool(call: "_ShardCall", payloads: Sequence[T],
              pool: multiprocessing.pool.Pool, pool_size: int,
              run: ShardRun, deadline_at: Optional[float],
              retry: Optional[RetryPolicy],
              on_result: Optional[Callable[[int, R, int], None]]) -> None:
    """Pool sweep: keep up to ``pool_size`` shards in flight, collect each
    as it lands, stop dispatching once the deadline expires.

    In-flight shards are *abandoned* at the deadline (the caller
    terminates the pool), which is what makes a hung shard survivable:
    with ``workers > 1`` a hang costs its shard, not the run.
    """
    queue = deque(i for i in range(len(payloads)) if i not in run.results)
    inflight: Dict[int, multiprocessing.pool.AsyncResult] = {}
    while queue or inflight:
        expired = (deadline_at is not None
                   and time.monotonic() >= deadline_at)
        if expired:
            run.deadline_expired = True
            run.pending = tuple(sorted(list(queue) + list(inflight)))
            return
        while queue and len(inflight) < pool_size:
            i = queue.popleft()
            inflight[i] = pool.apply_async(call, (payloads[i],))
        next(iter(inflight.values())).wait(_POLL_SECONDS)
        ready = [i for i, r in inflight.items() if r.ready()]
        for i in ready:
            try:
                outcome = inflight.pop(i).get()
            except (pickle.PicklingError, TypeError, AttributeError,
                    multiprocessing.pool.MaybeEncodingError) as exc:
                # Worker exceptions were captured pool-side, so reaching
                # here means the workload never made the round trip.
                raise _PoolRoundTripError(exc) from exc
            if outcome.error is not None:
                _raise_outcome(i, outcome, retry)
            run.results[i] = outcome.value
            run.attempts[i] = outcome.attempts
            if on_result is not None:
                on_result(i, outcome.value, outcome.attempts)


def run_shards_resilient(
        worker: Callable[[T], R], payloads: Sequence[T],
        workers: int = 1,
        retry: Optional[RetryPolicy] = None,
        deadline: Optional[float] = None,
        on_result: Optional[Callable[[int, R, int], None]] = None,
        always_run_first: bool = False) -> ShardRun:
    """Map ``worker`` over ``payloads`` with fault tolerance.

    - ``retry``: re-run transient per-shard failures per the policy;
      exhausted budgets raise :class:`ShardFailure` (without a policy the
      first worker exception propagates unchanged).
    - ``deadline``: wall-clock seconds from now; once expired, no new
      shard is dispatched and the sweep returns the completed subset with
      ``deadline_expired`` set and the rest in ``pending``.  On the
      serial path the budget is checked between shards; on the pool path
      in-flight shards are abandoned (the pool is terminated), so even a
      hung shard cannot stall the run past the budget.
    - ``on_result(position, result, attempts)`` fires in the parent the
      moment each shard completes — the crash-safety hook: persist there
      and a later failure cannot lose earlier work.
    - ``always_run_first``: run the first pending shard even on an
      already-expired budget (serial path only) so the sweep always makes
      progress when nothing has completed yet.

    Pool standup or round-trip (pickling) failures fall back to the
    serial path, whose results are identical by construction.
    """
    if workers < 1:
        raise ValueError(f"workers must be >= 1, got {workers}")
    payloads = list(payloads)
    deadline_at = (None if deadline is None
                   else time.monotonic() + deadline)
    call: _ShardCall = _ShardCall(worker, retry)
    run: ShardRun = ShardRun()
    if workers == 1 or len(payloads) <= 1:
        _run_serial(call, payloads, run, deadline_at, retry, on_result,
                    always_run_first)
        return run
    try:
        pool = multiprocessing.Pool(min(workers, len(payloads)))
    except (OSError, ValueError, ImportError) as exc:
        logger.warning("multiprocessing pool unavailable (%s); "
                       "running %d shards serially", exc, len(payloads))
        _run_serial(call, payloads, run, deadline_at, retry, on_result,
                    always_run_first)
        return run
    try:
        with pool:
            _run_pool(call, payloads, pool, min(workers, len(payloads)),
                      run, deadline_at, retry, on_result)
    except _PoolRoundTripError as exc:
        logger.warning("shard workload not picklable (%s); "
                       "running %d shards serially", exc.cause,
                       len(payloads) - len(run.results))
        _run_serial(call, payloads, run, deadline_at, retry, on_result,
                    always_run_first)
    return run


def run_shards(worker: Callable[[T], R], payloads: Sequence[T],
               workers: int = 1,
               retry: Optional[RetryPolicy] = None) -> List[R]:
    """Map ``worker`` over ``payloads``, preserving payload order.

    ``workers > 1`` uses a ``multiprocessing.Pool``; failure to *stand the
    pool up* (restricted environments) or to *ship the workload through it*
    (unpicklable worker/payloads/results) logs the reason and falls back to
    the serial path, whose results are identical by construction.  An
    exception raised by ``worker`` itself propagates to the caller —
    silently re-running the whole workload serially would mask the bug and
    double the runtime.  Pass ``retry`` to re-run transient failures
    first (see :class:`RetryPolicy`); deadline-bounded partial sweeps are
    :func:`run_shards_resilient`'s job.
    """
    run = run_shards_resilient(worker, payloads, workers, retry=retry)
    return [run.results[i] for i in range(len(payloads))]


class WaveMemoryMeter:
    """Tracks the bytes held in live per-trial wave arrays.

    The streaming executor calls :meth:`allocated` when a net's wave is
    created and :meth:`released` when its last consumer retires it; the
    recorded peak is the O(circuit-width) working set the memory-bounded
    mode promises (accumulators hold O(1) per net and are not counted).
    """

    def __init__(self) -> None:
        self.live_bytes = 0
        self.peak_bytes = 0

    def allocated(self, *arrays: np.ndarray) -> None:
        self.live_bytes += sum(a.nbytes for a in arrays)
        if self.live_bytes > self.peak_bytes:
            self.peak_bytes = self.live_bytes

    def released(self, *arrays: np.ndarray) -> None:
        released = sum(a.nbytes for a in arrays)
        if released > self.live_bytes:
            # A double release would drive live_bytes negative and silently
            # corrupt every later peak_bytes reading — fail loudly instead.
            raise ValueError(
                f"released {released} bytes with only {self.live_bytes} "
                f"live — double release of a wave?")
        self.live_bytes -= released


def timed(fn: Callable[[], T]) -> "tuple[T, float]":
    """(result, wall seconds) of a thunk — shard workers time themselves so
    the counters survive the trip back from a pool worker."""
    t0 = time.perf_counter()
    result = fn()
    return result, time.perf_counter() - t0
