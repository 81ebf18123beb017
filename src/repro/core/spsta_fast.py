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

- **Stacked Eq. 11 weights** — the per-mask probability products of
  Eq. 11 for every gate direction of one ``(fanin, MAX/MIN)`` group are
  one array product over the candidate bits
  (:func:`subset_weight_tables`), folded in the naive sweep's
  multiplication order, so they are bit-identical to it.

- **Subset-lattice MAX/MIN sharing** — the naive path folds the grid MAX
  over each subset from scratch (k·2^(k-1) pairwise folds per gate
  direction).  Because the MAX folds left-to-right, the MAX over a subset
  equals ``max(MAX(subset minus top bit), top)``: dynamic programming over
  the precomputed subset lattice computes each mask in ONE pairwise fold
  (2^k - 1 - k total), in place on stacked node tables
  (:func:`_subset_dp`), and skips the CDFs no later fold reads.

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
    ``bits[m, i]`` says whether candidate ``i`` is in mask ``m + 1``.
    ``skip_cdf`` marks the folded masks (popcount >= 2) whose top bit is
    the highest candidate: no mask extends them, so the DP never reads
    their CDF.
    """

    k: int
    top: np.ndarray
    prev: np.ndarray
    pop: np.ndarray
    by_pop: Tuple[np.ndarray, ...]
    bits: np.ndarray
    skip_cdf: np.ndarray


@lru_cache(maxsize=None)
def subset_lattice(k: int) -> SubsetLattice:
    """The (memoized) subset lattice for fanin ``k``."""
    masks = np.arange(1, 1 << k)
    bits = ((masks[:, None] >> np.arange(k)) & 1).astype(bool)
    pop = bits.sum(axis=1)
    top = np.array([int(mask).bit_length() - 1 for mask in masks],
                   dtype=np.int64)
    prev = masks - (1 << top)
    by_pop = tuple(np.nonzero(pop == c)[0] for c in range(1, k + 1))
    skip_cdf = (top == k - 1) & (pop >= 2)
    return SubsetLattice(k, top, prev, pop, by_pop, bits, skip_cdf)


def subset_weight_tables(switch: np.ndarray,
                         static: np.ndarray) -> np.ndarray:
    """Eq. 11 subset weights of a stack of candidate probability vectors.

    ``switch``/``static`` are ``(rows, k)``; row ``r`` of the result holds
    the ``2^k - 1`` mask products ``prod_i (switch[r, i] if i in mask else
    static[r, i])``, indexed by ``mask - 1``.  Factors multiply in
    candidate order starting from 1.0 -- the naive ``_subset_terms``
    fold's order -- so every entry is bit-identical to the scalar loop.
    """
    rows, k = switch.shape
    lat = subset_lattice(k)
    table = np.ones((rows, lat.bits.shape[0]))
    for i in range(k):
        table *= np.where(lat.bits[:, i], switch[:, i, None],
                          static[:, i, None])
    return table


# ---------------------------------------------------------------------------
# Grid kernels: batched array operations over raw density rows.
# ---------------------------------------------------------------------------

@dataclass
class _GridContext:
    """Everything the compiled walker needs to evaluate grid gates."""

    grid: TimeGrid
    kernel_cache: KernelCache
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


#: Upper bound on batch-size × subset-count rows a chunked DP holds live;
#: at n = 2048 this keeps the three (B, M, n) work arrays near ~100 MB.
MAX_DP_ROWS = 2048


def _subset_dp(node_pdf: np.ndarray, node_cdf: np.ndarray,
               lat: SubsetLattice, use_max: bool, dt: float,
               profile: SpstaProfile) -> None:
    """Subset-lattice DP, in place, over mask-major node tables.

    ``node_pdf[m]`` is the ``(rows, n)`` block of mask ``m + 1``.  On
    entry the singleton blocks (masks ``1 << i``) hold each row's
    normalized operand pdfs, and ``node_cdf`` their CDFs.  Every other
    mask combines its predecessor (top bit cleared) with its top-bit
    operand in one stacked Eq. 3 fold, written straight into
    ``node_pdf[m]``.  Mirrors the naive fold exactly: operands are
    normalized before each fold and the result's CDF is recomputed by
    trapezoid accumulation -- except for the ``lat.skip_cdf`` masks,
    whose CDF no later fold reads, so ``node_cdf`` needs only its first
    ``2^(k-1)`` blocks.  Each row's math involves only its own operands,
    so callers may stack rows from any mix of gates and scenarios.
    """
    rows = node_pdf.shape[1]
    for idxs in lat.by_pop[1:]:
        for m in idxs:
            out = node_pdf[m]
            pa = node_pdf[lat.prev[m] - 1]
            ca = node_cdf[lat.prev[m] - 1]
            single = (1 << lat.top[m]) - 1
            pb = node_pdf[single]
            cb = node_cdf[single]
            if use_max:
                np.multiply(pa, cb, out=out)              # Eq. 3
                out += pb * ca
            else:
                np.multiply(pa, 1.0 - cb, out=out)        # MIN analogue
                out += pb * (1.0 - ca)
            ints = trapezoid_rows(out, dt)
            if np.any(ints <= 0.0):
                raise ValueError("cannot normalize an empty density")
            out /= ints[:, None]
            if not lat.skip_cdf[m]:
                cdf_rows(out, dt, out=node_cdf[m])
        profile.max_folds += idxs.size * rows


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
    [(prob4, tops)] = _run_grid_group(compiled, stats, [delay_model],
                                      algebra, profile, seed_tops=seed_tops)
    _harvest_kernel_counters(algebra, profile)
    return SpstaResult(netlist.name, algebra, prob4, tops, profile)
