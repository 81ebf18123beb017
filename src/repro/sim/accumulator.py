"""Streaming per-net sufficient statistics for the Monte Carlo simulator.

Keeping every net's per-trial ``init``/``final``/``time`` arrays alive
costs O(nets x trials) memory only to answer a handful of summary
questions: per-direction occurrence probability and arrival moments,
signal probability, and toggling rate.  This module holds the same
answers in O(1) state per net:

- :class:`DirectionMoments` — occurrence count plus the running mean and
  the centered sum of squares (``m2``) of the arrival times of one
  transition direction.  Shards merge with Chan's parallel update, so a
  fixed merge order gives bit-identical results at any worker count.
- :class:`NetAccumulator` — both directions plus the constant-one tally
  that backs ``signal_probability`` and ``toggling_rate``.

Bit-exactness contract: for a single shard, every accessor reproduces the
direct numpy computation over the kept waves *bit for bit* —
``count / n_trials``, ``times.mean()`` and ``times.std()`` over the
compacted (boolean-indexed) arrival times, ``(init + final).mean() / 2``
and ``(init != final).mean()``.  That pins the exact numpy reductions used
here — ``times.mean()`` and ``sum((t - mean)**2)`` over the compacted
time array, matching ``numpy.std``'s two-pass algorithm — and is enforced
by the differential tests in ``tests/test_sim_stream.py``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
import math
from typing import Dict, List, Mapping, Optional

import numpy as np

from repro.sim.sampler import LaunchSample


@dataclass(frozen=True)
class DirectionStats:
    """Monte Carlo estimate for one transition direction at one net: the
    occurrence probability and the conditional arrival moments (NaN when the
    transition never occurred in any trial; probability itself is NaN when
    there were no trials at all) — one Table 2 cell triple."""

    probability: float
    mean: float
    std: float
    n_occurrences: int


@dataclass
class DirectionMoments:
    """Count / mean / centered-sum-of-squares of one direction's arrivals.

    (count, mean, m2) are the classic sufficient statistics for (n, mu,
    sigma); ``sum`` and ``sum_sq`` are derivable and exposed as properties.
    """

    count: int = 0
    mean: float = 0.0
    m2: float = 0.0

    @classmethod
    def from_times(cls, times: np.ndarray,
                   overwrite: bool = False) -> "DirectionMoments":
        """Moments of a compacted 1-D array of arrival times.

        Mirrors ``times.mean()`` / ``times.std()`` exactly: numpy's
        pairwise-summed mean, then the centered two-pass sum of squares.
        ``overwrite=True`` lets the centering clobber ``times`` (the
        streaming engine passes scratch views); the result is unchanged.
        """
        count = int(times.size)
        if count == 0:
            return cls()
        mean = times.mean()
        centered = (np.subtract(times, mean, out=times) if overwrite
                    else times - mean)
        m2 = float(np.multiply(centered, centered, out=centered).sum())
        return cls(count=count, mean=float(mean), m2=m2)

    @property
    def sum(self) -> float:
        return self.mean * self.count

    @property
    def sum_sq(self) -> float:
        return self.m2 + self.mean * self.mean * self.count

    @property
    def std(self) -> float:
        """Population standard deviation (what ``numpy.std`` reports)."""
        if self.count == 0:
            return float("nan")
        return math.sqrt(max(self.m2, 0.0) / self.count)

    def merge(self, other: "DirectionMoments") -> "DirectionMoments":
        """Chan's parallel combine.  Merging with an empty accumulator is
        the identity, which is what keeps single-shard runs bit-exact."""
        if other.count == 0:
            return DirectionMoments(self.count, self.mean, self.m2)
        if self.count == 0:
            return DirectionMoments(other.count, other.mean, other.m2)
        count = self.count + other.count
        delta = other.mean - self.mean
        mean = self.mean + delta * other.count / count
        m2 = (self.m2 + other.m2
              + delta * delta * self.count * other.count / count)
        return DirectionMoments(count, mean, m2)


@dataclass
class NetAccumulator:
    """Streaming sufficient statistics of one net over ``n_trials`` cycles."""

    n_trials: int = 0
    n_one: int = 0          # trials at constant logic one
    rise: DirectionMoments = field(default_factory=DirectionMoments)
    fall: DirectionMoments = field(default_factory=DirectionMoments)

    @classmethod
    def from_arrays(cls, init: np.ndarray, final: np.ndarray,
                    time: np.ndarray,
                    rise_mask: Optional[np.ndarray] = None,
                    fall_mask: Optional[np.ndarray] = None,
                    time_scratch: Optional[np.ndarray] = None
                    ) -> "NetAccumulator":
        """Accumulate one shard's wave.  ``rise_mask``/``fall_mask`` may be
        passed when the caller already computed them (the streaming engine
        gets them for free from its gate kernel); ``time_scratch`` is an
        optional reusable float64 buffer of ``n_trials`` that makes the
        whole fold allocation-free.  ``compress`` extracts the same
        elements in the same order as boolean indexing, so the moments are
        bit-identical either way."""
        if rise_mask is None:
            rise_mask = final > init       # init 0, final 1
        if fall_mask is None:
            fall_mask = init > final
        n_rise = int(np.count_nonzero(rise_mask))
        n_fall = int(np.count_nonzero(fall_mask))
        # Constant-one trials: final is 1 in (one | rise) trials.
        n_one = int(np.count_nonzero(final)) - n_rise

        def moments(mask: np.ndarray, count: int) -> DirectionMoments:
            if count == 0:
                return DirectionMoments()
            if time_scratch is None:
                return DirectionMoments.from_times(time[mask])
            picked = np.compress(mask, time, out=time_scratch[:count])
            return DirectionMoments.from_times(picked, overwrite=True)

        return cls(n_trials=int(init.shape[0]), n_one=n_one,
                   rise=moments(rise_mask, n_rise),
                   fall=moments(fall_mask, n_fall))

    def merge(self, other: "NetAccumulator") -> "NetAccumulator":
        return NetAccumulator(
            n_trials=self.n_trials + other.n_trials,
            n_one=self.n_one + other.n_one,
            rise=self.rise.merge(other.rise),
            fall=self.fall.merge(other.fall))

    # -- accessors (formulae match numpy over the kept waves bit for bit) ---

    def direction_stats(self, direction: str) -> DirectionStats:
        if direction == "rise":
            moments = self.rise
        elif direction == "fall":
            moments = self.fall
        else:
            raise ValueError(f"direction must be 'rise' or 'fall', "
                             f"got {direction!r}")
        if self.n_trials == 0:
            # An empty accumulator carries no evidence either way: NaN
            # throughout, matching the documented empty-direction
            # convention (not a ZeroDivisionError).
            return DirectionStats(float("nan"), float("nan"), float("nan"),
                                  0)
        probability = moments.count / self.n_trials
        if moments.count == 0:
            return DirectionStats(probability, float("nan"), float("nan"), 0)
        return DirectionStats(probability, moments.mean, moments.std,
                              moments.count)

    @property
    def signal_probability(self) -> float:
        """Time-average probability of logic one.  The direct computation
        sums ``init + final`` (exact small integers in float64) then halves
        the mean; the integer tally reproduces the identical value.  NaN
        for an empty accumulator (no trials, no evidence)."""
        if self.n_trials == 0:
            return float("nan")
        total = 2 * self.n_one + self.rise.count + self.fall.count
        return (total / self.n_trials) / 2.0

    @property
    def toggling_rate(self) -> float:
        """Observed transitions per cycle; NaN for an empty accumulator."""
        if self.n_trials == 0:
            return float("nan")
        return (self.rise.count + self.fall.count) / self.n_trials


def accumulate_waves(waves: Mapping[str, LaunchSample]
                     ) -> Dict[str, NetAccumulator]:
    """Fold a wave dict (net -> LaunchSample) into per-net accumulators."""
    return {net: NetAccumulator.from_arrays(w.init, w.final, w.time)
            for net, w in waves.items()}


def merge_accumulators(shards: "List[Dict[str, NetAccumulator]]"
                       ) -> Dict[str, NetAccumulator]:
    """Merge per-shard accumulator dicts in shard order.

    The left fold over the given order makes the merged result a pure
    function of the shard list — worker count and completion order cannot
    change it.
    """
    if not shards:
        raise ValueError("no shard results to merge")
    merged = dict(shards[0])
    for shard in shards[1:]:
        if set(shard) != set(merged):
            raise ValueError("shards disagree on the net set")
        for net, acc in shard.items():
            merged[net] = merged[net].merge(acc)
    return merged
