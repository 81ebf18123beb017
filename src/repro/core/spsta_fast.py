"""Fast-path SPSTA engine for the grid algebra: the one-scenario case of
the compiled walker.

Same mathematics as :mod:`repro.core.spsta` (Eq. 11/12 subset enumeration
over a TOP algebra), restructured for discretized densities.
``run_spsta(..., engine="fast")`` calls :func:`run_spsta_fast` for
:class:`~repro.core.spsta.GridAlgebra` runs only; the closed-form algebras
(moments, mixtures, canonical forms) run the naive per-gate sweep, which
is the faster kernel for scalar folds.  :func:`run_spsta_fast` compiles
the netlist once (:func:`~repro.core.scenario.compile_netlist`) and runs
it through the compiled level walker of :mod:`repro.core.scenario` as a
batch of one scenario; this module holds the kernels that walker drives:

- **Subset-weight-table caching** — the per-mask probability products of
  Eq. 11 depend only on the candidates' (switch, static) probability
  vectors, which repeat across thousands of gates on an ISCAS netlist.
  :class:`WeightTableCache` memoizes the 2^k-entry tables keyed on
  ``(fanin, rounded probability vector)``; each bucket stores the *exact*
  vectors it has seen, so a rounded-key collision can never leak a
  neighbouring gate's table, and every table folds its factors in the
  naive sweep's multiplication order.

- **Subset-lattice MAX/MIN sharing** — the naive path folds the grid MAX
  over each subset from scratch (k·2^(k-1) pairwise folds per gate
  direction).  Because the MAX folds left-to-right, the MAX over a subset
  equals ``max(MAX(subset minus top bit), top)``: dynamic programming over
  the precomputed subset lattice computes each mask in ONE pairwise fold
  (2^k - 1 - k total) on stacked rows (:func:`_subset_dp`).

- **Stacked grid kernels** — within a level the walker stacks every
  conditional density into 2-D arrays, so normalization, CDF
  accumulation, Eq. 3 MAX and the Eq. 8 weighted-sum mix run as stacked
  array operations (:func:`_mix_rows`), and delay convolutions are
  grouped by kernel and dispatched as one batched FFT
  (:func:`_convolve_matrix`, cached taps and kernel spectra via
  :class:`~repro.stats.grid.KernelCache`).

Differential equivalence with the naive engine is pinned by
``tests/test_spsta_fastpath.py`` to ≤1e-12 absolute weight and ≤1e-9
relative moment error.  The grid fast path assumes the time grid covers
the support of every density (as any grid analysis must): it normalizes
terms before the delay convolution instead of after, which is only exact
when the convolution loses no probability mass off the grid ends.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import (
    Dict,
    List,
    Mapping,
    Optional,
    Sequence,
    Tuple,
    Union,
)

import numpy as np

from repro.core.delay import DelayModel
from repro.core.inputs import InputStats, Prob4
from repro.core.profiling import SpstaProfile
from repro.core.spsta import (
    GridAlgebra,
    NetTops,
    SpstaResult,
    TopFunction,
    _harvest_kernel_counters,
)
from repro.netlist.core import Netlist
from repro.stats.grid import (
    MASS_WARN_FRACTION,
    GridDensity,
    KernelCache,
    TimeGrid,
    _warn_truncation,
    cdf_rows,
    convolve_rows,
    kernel_retention_vector,
    shift_retention_vector,
    shift_rows,
    trapezoid_rows,
)
from repro.stats.normal import Normal


# ---------------------------------------------------------------------------
# Subset lattice: precomputed per fanin, shared by every gate.
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SubsetLattice:
    """Static structure of the non-empty subsets of ``k`` candidates.

    Arrays are indexed by ``mask - 1`` for masks ``1 .. 2^k - 1``.  ``top``
    is the highest set bit, ``prev`` the mask with that bit cleared (the
    DP predecessor), ``pop`` the popcount; ``by_pop[c]`` lists the 0-based
    indices of all masks with popcount ``c + 1`` (for batched grid DP).
    """

    k: int
    top: np.ndarray
    prev: np.ndarray
    pop: np.ndarray
    by_pop: Tuple[np.ndarray, ...]


@lru_cache(maxsize=None)
def subset_lattice(k: int) -> SubsetLattice:
    """The (memoized) subset lattice for fanin ``k``."""
    masks = np.arange(1, 1 << k)
    top = np.zeros(masks.shape[0], dtype=np.int64)
    pop = np.zeros(masks.shape[0], dtype=np.int64)
    for idx, mask in enumerate(masks):
        top[idx] = int(mask).bit_length() - 1
        pop[idx] = bin(int(mask)).count("1")
    prev = masks - (1 << top)
    by_pop = tuple(np.nonzero(pop == c)[0] for c in range(1, k + 1))
    return SubsetLattice(k, top, prev, pop, by_pop)


# ---------------------------------------------------------------------------
# Eq. 11 subset-weight tables, memoized across gates.
# ---------------------------------------------------------------------------

def build_weight_table(switch: Tuple[float, ...],
                       static: Tuple[float, ...]) -> np.ndarray:
    """Per-mask subset weights for one candidate probability vector.

    Folds the factors in candidate index order — the exact multiplication
    order of the naive ``_subset_terms`` loop, so cached tables keep the
    moment engine bit-identical to the reference path.
    """
    k = len(switch)
    table = np.empty((1 << k) - 1)
    for mask in range(1, 1 << k):
        w = 1.0
        for bit in range(k):
            w *= switch[bit] if (mask >> bit) & 1 else static[bit]
        table[mask - 1] = w
    return table


class WeightTableCache:
    """Memoized Eq. 11 subset-weight tables.

    Keys are ``(fanin, rounded switch/static probability vectors)``; each
    bucket stores the exact vectors alongside the table and only serves an
    exact match, so rounding governs hashing but never the numbers.
    """

    __slots__ = ("hits", "misses", "_buckets")

    def __init__(self) -> None:
        self.hits = 0
        self.misses = 0
        self._buckets: Dict[tuple, List[tuple]] = {}

    def table(self, switch: Tuple[float, ...],
              static: Tuple[float, ...]) -> np.ndarray:
        key = (len(switch),
               tuple(round(p, 12) for p in switch),
               tuple(round(p, 12) for p in static))
        bucket = self._buckets.setdefault(key, [])
        for exact_switch, exact_static, table in bucket:
            if exact_switch == switch and exact_static == static:
                self.hits += 1
                return table
        table = build_weight_table(switch, static)
        bucket.append((switch, static, table))
        self.misses += 1
        return table


# ---------------------------------------------------------------------------
# Grid kernels: batched array operations over raw density rows.
# ---------------------------------------------------------------------------

@dataclass
class _GridContext:
    """Everything the compiled walker needs to evaluate grid gates."""

    grid: TimeGrid
    kernel_cache: KernelCache
    wcache: WeightTableCache
    parity_cap: int
    profile: SpstaProfile

    def __post_init__(self) -> None:
        self._retentions: Dict[tuple, np.ndarray] = {}

    def retention(self, delay: Normal) -> np.ndarray:
        """Memoized retention vector for one delay (see
        :func:`~repro.stats.grid.kernel_retention_vector`)."""
        dt = self.grid.dt
        if delay.sigma <= 0.0:
            key = ("shift", int(round(delay.mu / dt)))
        else:
            key = (delay.mu, delay.sigma)
        vec = self._retentions.get(key)
        if vec is None:
            if delay.sigma <= 0.0:
                vec = shift_retention_vector(key[1], self.grid.n, dt)
            else:
                vec = kernel_retention_vector(self.kernel_cache.kernel(delay),
                                              self.grid.n, dt)
            self._retentions[key] = vec
        return vec

    def record_mass(self, clipped, reference, operation: str) -> None:
        """Mass-conservation audit of a batch of grid operations.

        ``clipped``/``reference`` are matching scalars or arrays of
        off-grid mass lost vs the mass each operation started with; the
        aggregates land in the run's :class:`SpstaProfile` (the fast
        engine's counterpart of :class:`~repro.stats.grid.MassLedger`).
        """
        clip = np.maximum(np.ravel(np.asarray(clipped, dtype=float)), 0.0)
        ref = np.ravel(np.asarray(reference, dtype=float))
        prof = self.profile
        prof.mass_checks += clip.size
        if clip.size == 0:
            return
        ok = ref > 0.0
        frac = np.where(ok, clip / np.where(ok, ref, 1.0), 0.0)
        prof.clipped_mass += float(np.where(ok, clip, 0.0).sum())
        worst = float(frac.max())
        events = int((frac > MASS_WARN_FRACTION).sum())
        if events:
            prof.clip_events += events
            _warn_truncation(operation, worst)
        if worst > prof.max_clip_fraction:
            prof.max_clip_fraction = worst


class _ControllingJob:
    """One AND/OR-core gate direction of one MIS-model scenario whose
    subset DP is deferred.

    MIS-aware delay models pick a kernel per subset popcount, so these
    directions cannot share the walker's one-kernel-per-row templates.
    Jobs from every gate (and scenario) of a level are grouped by
    ``(fanin, use_max)`` and evaluated together in
    :func:`_run_controlling_jobs` as 3-D stacked array ops.  After the
    batched run, ``total`` holds the direction's occurrence weight and
    ``acc`` maps each distinct delay kernel to its pre-mixed row.
    """

    __slots__ = ("k", "use_max", "weights", "pdfs", "cdfs", "delay_for",
                 "total", "acc")

    def __init__(self, k: int, use_max: bool, weights: np.ndarray,
                 pdfs: List[np.ndarray], cdfs: List[np.ndarray],
                 delay_for) -> None:
        self.k = k
        self.use_max = use_max
        self.weights = weights
        self.pdfs = pdfs
        self.cdfs = cdfs
        self.delay_for = delay_for
        self.total = 0.0
        self.acc: Dict[Tuple[float, float],
                       Tuple[Normal, np.ndarray]] = {}


#: Upper bound on batch-size × subset-count rows a chunked DP holds live;
#: at n = 2048 this keeps the three (B, M, n) work arrays near ~100 MB.
MAX_DP_ROWS = 2048


def _run_controlling_jobs(jobs: Sequence[_ControllingJob],
                          ctx: _GridContext) -> None:
    """Evaluate every deferred controlling-gate direction of a level.

    Jobs are grouped by ``(fanin, use_max)`` so one 3-D DP sweep serves all
    gates sharing a lattice, chunked to bound peak memory.  Each job's math
    involves only its own rows, so grouping cannot change which operations
    run on a job's data.  Results across different groupings agree to a few
    ULPs rather than bit-exactly: NumPy's SIMD elementwise division is not
    guaranteed correctly rounded on every platform (observed 0.5-ulp
    truncations from the AVX-512 kernel), so the normalization inside the
    DP may round differently between batch shapes.
    """
    groups: Dict[Tuple[int, bool], List[_ControllingJob]] = {}
    for job in jobs:
        groups.setdefault((job.k, job.use_max), []).append(job)
    for (k, use_max), group in groups.items():
        lat = subset_lattice(k)
        chunk = max(1, MAX_DP_ROWS // ((1 << k) - 1))
        for lo in range(0, len(group), chunk):
            _run_controlling_chunk(group[lo:lo + chunk], lat, use_max, ctx)


def _subset_dp(pdfs: np.ndarray, cdfs: np.ndarray, lat: SubsetLattice,
               use_max: bool, dt: float,
               profile: SpstaProfile) -> Tuple[np.ndarray, np.ndarray]:
    """Subset-lattice DP over a ``(rows, k, n)`` stack of operand rows.

    DP over the subset lattice, batched by popcount across the whole
    batch: all masks of one cardinality of all rows combine their
    predecessor with one extra input in a single stacked Eq. 3 pass.
    Mirrors the naive fold exactly: operands are normalized before each
    fold and the result's CDF is recomputed by trapezoid accumulation.
    Each row's math involves only its own operands, so callers may stack
    rows from any mix of gates (and, in the scenario backend, scenarios)
    without changing which operations touch a row.

    Returns ``(node_pdf, node_cdf)`` of shape ``(rows, 2^k - 1, n)``
    indexed by ``mask - 1``; node pdfs are the normalized fold results,
    node cdfs their trapezoid accumulations.  Cdfs of full-popcount
    masks are never consumed by a further fold and are left unset —
    callers use ``node_pdf`` only.

    Masks are evaluated one at a time against strided views of the node
    tables: the per-mask arrays are ``(rows, n)`` and rows-dominated
    batches avoid the fancy-index copies a per-popcount gather would
    make.
    """
    b, k, n = pdfs.shape
    node_pdf = np.empty((b, (1 << k) - 1, n))
    node_cdf = np.empty_like(node_pdf)
    singles = lat.by_pop[0]
    node_pdf[:, singles] = pdfs[:, lat.top[singles]]
    node_cdf[:, singles] = cdfs[:, lat.top[singles]]
    last = k - 1
    for c in range(1, k):
        idxs = lat.by_pop[c]
        if idxs.size == 0:
            continue
        for m in idxs:
            pa = node_pdf[:, lat.prev[m] - 1]
            ca = node_cdf[:, lat.prev[m] - 1]
            pb = pdfs[:, lat.top[m]]
            cb = cdfs[:, lat.top[m]]
            if use_max:
                raw = pa * cb                             # Eq. 3
                raw += pb * ca
            else:
                raw = pa * (1.0 - cb)                     # MIN analogue
                raw += pb * (1.0 - ca)
            ints = trapezoid_rows(raw, dt)
            if np.any(ints <= 0.0):
                raise ValueError("cannot normalize an empty density")
            raw /= ints[:, None]
            node_pdf[:, m] = raw
            if c != last:
                node_cdf[:, m] = cdf_rows(raw, dt)
        profile.max_folds += idxs.size * b
    return node_pdf, node_cdf


def _run_controlling_chunk(batch: Sequence[_ControllingJob],
                           lat: SubsetLattice, use_max: bool,
                           ctx: _GridContext) -> None:
    """Subset DP + retention-corrected row extraction for one job batch."""
    dt = ctx.grid.dt
    n = ctx.grid.n
    k = lat.k
    b = len(batch)
    pdfs = np.empty((b, k, n))
    cdfs = np.empty((b, k, n))
    for j, job in enumerate(batch):
        for i in range(k):
            pdfs[j, i] = job.pdfs[i]
            cdfs[j, i] = job.cdfs[i]
    node_pdf, _ = _subset_dp(pdfs, cdfs, lat, use_max, dt, ctx.profile)
    # Fold each positive mask's weight and exact convolution retention into
    # its node row, accumulating one pre-mixed row per distinct delay
    # kernel per job (convolution is linear, so one convolution of the
    # accumulated row equals convolving every Eq. 11 term separately).
    # Each node row is normalized, so its post-convolution integral is its
    # retention; the off-grid loss of mask `m` is w_m * (1 - r_m).
    weight_mat = np.stack([job.weights for job in batch])
    job_delays = [[job.delay_for(c) for c in range(1, k + 1)]
                  for job in batch]
    for c_idx in range(k):
        sel = lat.by_pop[c_idx]
        w = weight_mat[:, sel]
        active = np.nonzero((w > 0.0).any(axis=1))[0]
        if active.size == 0:
            continue
        by_delay: Dict[Tuple[float, float], Tuple[Normal, List[int]]] = {}
        for j in active:
            delay = job_delays[j][c_idx]
            by_delay.setdefault((delay.mu, delay.sigma), (delay, []))[1] \
                .append(int(j))
        sub = node_pdf[:, sel]
        for key, (delay, js) in by_delay.items():
            retention = ctx.retention(delay)
            jarr = np.asarray(js)
            subj = sub if jarr.size == b else sub[jarr]
            retained = subj @ retention
            wj = w[jarr]
            positive = wj > 0.0
            if np.any(positive & (retained <= 0.0)):
                raise ValueError("cannot normalize an empty density")
            ctx.record_mass((wj * (1.0 - retained))[positive],
                            wj[positive], "subset convolution")
            coef = np.where(positive,
                            wj / np.where(retained > 0.0, retained, 1.0), 0.0)
            rows_c = np.einsum("jl,jln->jn", coef, subj)
            for t, j in enumerate(js):
                acc = batch[j].acc.get(key)
                if acc is None:
                    batch[j].acc[key] = (delay, rows_c[t])
                else:
                    batch[j].acc[key] = (delay, acc[1] + rows_c[t])
    _finish_jobs(batch, ctx)


def _finish_jobs(batch: Sequence[_ControllingJob],
                 ctx: _GridContext) -> None:
    """Total occurrence weight (in naive mask order) and term counters."""
    for job in batch:
        positive = job.weights[job.weights > 0.0].tolist()
        total = 0.0
        for weight in positive:         # mask order, like the naive mix
            total += weight
        job.total = total
        ctx.profile.subset_terms += len(positive)


def _convolve_matrix(matrix: np.ndarray, delays: Sequence[Normal],
                     ctx: _GridContext) -> np.ndarray:
    """Delay-convolve a stack of rows, grouped by kernel (phase B, part 1).

    ``delays[i]`` is the kernel of ``matrix[i]``.  Each row is convolved
    independently, so callers may stack rows from any mix of gates,
    directions, and scenarios.
    """
    dt = ctx.grid.dt
    profile = ctx.profile
    groups: Dict[Tuple[float, float], List[int]] = {}
    for i, delay in enumerate(delays):
        if delay.sigma <= 0.0:
            # Deterministic kernels act through their integer bin shift
            # alone, so distinct means sharing a shift (e.g. nearby
            # derate corners) merge into one group.
            key = (float(int(round(delay.mu / dt))), -1.0)
        else:
            key = (delay.mu, delay.sigma)
        groups.setdefault(key, []).append(i)
    # With rows pre-merged per kernel in phase A, levels of a
    # homogeneous-delay design collapse to one group — no scatter copy.
    single = len(groups) == 1
    out = None if single else np.empty_like(matrix)
    for (mu, sigma), idxs in groups.items():
        sel = None if single else np.asarray(idxs)
        src = matrix if single else matrix[sel]
        if sigma < 0.0:
            res = shift_rows(src, int(mu))
            profile.shift_rows += src.shape[0]
        else:
            # Always FFT: engine batches are nearly always past the
            # direct/FFT crossover, and a fixed choice keeps results
            # independent of how rows are batched (FFT and direct differ
            # by ~1e-16 per bin).
            kernel = ctx.kernel_cache.kernel(Normal(mu, sigma))
            res = convolve_rows(src, kernel, "fft")
            profile.fft_convolutions += src.shape[0]
        if single:
            out = res
        else:
            out[sel] = res
    return out


def _mix_rows(out: np.ndarray, counts: Sequence[int],
              expected: np.ndarray, ctx: _GridContext) -> np.ndarray:
    """Eq. 8 mix of convolved rows into per-segment densities (phase B,
    part 2).

    Term weights and per-term convolution retentions were folded into
    the rows in phase A, so the mix is one contiguous segment sum
    followed by a batched normalization (plus clipping FFT noise).
    ``counts[i]`` rows belong to segment ``i`` and ``expected[i]`` is the
    integral its sum should reach (the mass-conservation reference).
    np.add.reduceat walks segments one ufunc reduction at a time;
    summing runs of equal-length segments through a reshape is much
    faster, and most segments are a single row (one delay kernel).
    """
    dt = ctx.grid.dt
    n = ctx.grid.n
    np.maximum(out, 0.0, out=out)
    n_seg = len(counts)
    mixed = np.empty((n_seg, n))
    seg = pos = 0
    while seg < n_seg:
        count = counts[seg]
        run = seg + 1
        while run < n_seg and counts[run] == count:
            run += 1
        block = out[pos:pos + (run - seg) * count]
        if count == 1:
            mixed[seg:run] = block
        else:
            mixed[seg:run] = block.reshape(run - seg, count, n).sum(axis=1)
        pos += (run - seg) * count
        seg = run
    ints = trapezoid_rows(mixed, dt)
    if np.any(ints <= 0.0):
        raise ValueError("cannot normalize an empty density")
    # Mass audit: retention-corrected segments should integrate to
    # their occurrence weight, BUFF/NOT segments to 1.0; anything lost
    # beyond FFT noise is mass the grid shift/convolution clipped.
    ctx.record_mass(expected - ints, expected, "level mix")
    mixed /= ints[:, None]
    # NaN/Inf sentinel: downstream rows bypass GridDensity validation
    # (``from_trusted``), so this is the fast path's divergence check.
    ctx.profile.finite_checks += 1
    if not np.isfinite(mixed).all():
        raise ValueError(
            "non-finite density after level mix (NaN/Inf sentinel: a "
            "grid operation diverged)")
    return mixed


def _wrap_top(grid: TimeGrid,
              info: Optional[Tuple[float, np.ndarray]]) -> TopFunction:
    if info is None:
        return TopFunction.absent()
    weight, values = info
    return TopFunction(weight, GridDensity.from_trusted(grid, values))


# ---------------------------------------------------------------------------
# Engine driver.
# ---------------------------------------------------------------------------

def run_spsta_fast(netlist: Netlist,
                   stats: Union[InputStats, Mapping[str, InputStats]],
                   delay_model: DelayModel,
                   algebra: GridAlgebra,
                   *,
                   profile: Optional[SpstaProfile] = None,
                   max_parity_fanin: Optional[int] = None,
                   seed_tops: Optional[
                       Mapping[str, Tuple[Prob4, NetTops]]] = None,
                   ) -> SpstaResult:
    """Fast grid SPSTA sweep: the compiled walker run as a batch of one.

    Called through ``run_spsta(..., engine="fast")`` for
    :class:`~repro.core.spsta.GridAlgebra` runs; not meant to be invoked
    directly, and it accepts no other algebra.  Compiles ``netlist`` and
    executes the single scenario ``(stats, delay_model)`` through
    :mod:`repro.core.scenario`'s level walker — the same code
    :func:`~repro.core.scenario.run_scenario_batch` runs for N scenarios.
    ``seed_tops`` pre-seeds boundary launch points (see
    :func:`repro.core.spsta.run_spsta`).
    """
    # Imported here: the walker module builds on this module's kernels.
    from repro.core.scenario import _run_grid_group, compile_netlist

    if not isinstance(algebra, GridAlgebra):
        raise TypeError(
            f"run_spsta_fast runs GridAlgebra only, got "
            f"{type(algebra).__name__}; use run_spsta(..., engine='fast')")
    if profile is None:
        profile = SpstaProfile()
    profile.engine = "fast"
    profile.algebra = type(algebra).__name__
    profile.circuit = netlist.name
    with profile.phase("levelize"):
        compiled = compile_netlist(netlist,
                                   max_parity_fanin=max_parity_fanin)
    profile.levels = len(compiled.levels)
    wcache = WeightTableCache()
    [(prob4, tops)] = _run_grid_group(compiled, stats, [delay_model],
                                      algebra, wcache, profile,
                                      seed_tops=seed_tops)
    profile.weight_table_hits = wcache.hits
    profile.weight_table_misses = wcache.misses
    _harvest_kernel_counters(algebra, profile)
    return SpstaResult(netlist.name, algebra, prob4, tops, profile)
