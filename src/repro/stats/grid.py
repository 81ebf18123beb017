"""Densities discretized on a shared time grid.

This is the numerically exact (up to discretization) engine used to
cross-check the closed-form Gaussian machinery and to regenerate Figure 4:
for independent arrival times the MAX density is

    pdf_max(t) = pdf1(t) cdf2(t) + pdf2(t) cdf1(t)          (paper Eq. 3)

and the WEIGHTED SUM is a plain pointwise linear combination (Eq. 8).  Like
TOP functions, grid densities are sub-probability densities: the integral is
the transition occurrence probability.
"""

from __future__ import annotations

import math
from typing import Dict, Iterable, Optional, Sequence, Tuple
import warnings

import numpy as np

from repro.compat import trapezoid
from repro.stats.normal import Normal, norm_cdf

#: Kernels at or above this many taps are convolved via FFT under
#: ``method="auto"``; below it the direct ``np.convolve`` wins (the O(n*m)
#: constant is small and there is no transform overhead).
FFT_TAP_THRESHOLD = 48

#: Batches at least this tall convolve faster through one fast-length FFT
#: than through a per-row ``np.convolve`` loop even for narrow kernels.
FFT_BATCH_THRESHOLD = 16

#: Fraction of a density's mass clipped off the grid edge above which the
#: operation emits a :class:`MassTruncationWarning` (and a
#: :class:`MassLedger` counts a clip event).  Well above the ~1e-16 tail of
#: a properly sized grid, well below anything that distorts moments.
MASS_WARN_FRACTION = 1e-6

#: Off-grid fraction above which :meth:`GridDensity.from_normal` refuses to
#: build the density: a Gaussian mostly (or entirely) past the grid edge
#: would be silently renormalized into an edge artifact.
MASS_ERROR_FRACTION = 0.5


class MassTruncationWarning(RuntimeWarning):
    """Probability mass was clipped off the grid edge and renormalized away.

    Raised-as-warning by the grid operations when an operation loses more
    than :data:`MASS_WARN_FRACTION` of its mass past the grid window — the
    symptom of a time grid that is too small for the circuit being
    analyzed.  The conformance harness (``repro.verify``) turns the same
    signal, accounted in a :class:`MassLedger`, into a red check.
    """


class MassLedger:
    """Mass-conservation accounting for grid operations.

    Before this ledger existed, probability clipped off the grid edge by
    ``from_normal`` / ``shifted`` / ``convolved`` was silently renormalized
    away — an undersized grid produced confidently wrong moments.  Engines
    attach one ledger per analysis (see
    :class:`~repro.core.spsta.GridAlgebra`); the counters surface through
    :class:`~repro.core.profiling.SpstaProfile` and ``analyze --profile``,
    and the verify harness fails a run whose ``max_clip_fraction`` exceeds
    its policy.
    """

    __slots__ = ("checks", "clipped_mass", "clip_events", "max_clip_fraction")

    def __init__(self) -> None:
        self.checks = 0              # operations accounted
        self.clipped_mass = 0.0      # total probability lost off-grid
        self.clip_events = 0         # operations past MASS_WARN_FRACTION
        self.max_clip_fraction = 0.0

    def record(self, clipped: float, reference: float) -> float:
        """Account one operation; returns the clipped fraction.

        ``clipped`` is the mass lost past the grid window, ``reference``
        the mass the operation should have preserved.  Negative ``clipped``
        (trapezoid/FFT rounding) clamps to zero.
        """
        self.checks += 1
        if reference <= 0.0:
            return 0.0
        clipped = max(clipped, 0.0)
        fraction = clipped / reference
        self.clipped_mass += clipped
        if fraction > MASS_WARN_FRACTION:
            self.clip_events += 1
        if fraction > self.max_clip_fraction:
            self.max_clip_fraction = fraction
        return fraction


def _warn_truncation(operation: str, fraction: float) -> None:
    warnings.warn(
        f"{operation} clipped {fraction:.3g} of its probability mass off "
        f"the grid edge (> {MASS_WARN_FRACTION:g}); the result is "
        f"renormalized on the window — enlarge the TimeGrid",
        MassTruncationWarning, stacklevel=3)


class TimeGrid:
    """A uniform time grid shared by all densities in one analysis."""

    __slots__ = ("start", "stop", "n", "points", "dt")

    def __init__(self, start: float, stop: float, n: int = 2048) -> None:
        if stop <= start:
            raise ValueError(f"stop ({stop}) must exceed start ({start})")
        if n < 8:
            raise ValueError(f"grid must have at least 8 points, got {n}")
        self.start = float(start)
        self.stop = float(stop)
        self.n = int(n)
        self.points = np.linspace(self.start, self.stop, self.n)
        self.dt = float(self.points[1] - self.points[0])

    def __eq__(self, other: object) -> bool:
        return (isinstance(other, TimeGrid) and self.start == other.start
                and self.stop == other.stop and self.n == other.n)

    def __hash__(self) -> int:
        return hash((self.start, self.stop, self.n))

    def __repr__(self) -> str:
        return f"TimeGrid({self.start}, {self.stop}, n={self.n})"


def parse_grid_spec(spec: str) -> TimeGrid:
    """``START:STOP:N`` -> :class:`TimeGrid`; ``ValueError`` if malformed."""
    parts = spec.split(":")
    if len(parts) != 3:
        raise ValueError(
            f"grid must be START:STOP:N (e.g. -8:60:2048), got {spec!r}")
    try:
        return TimeGrid(float(parts[0]), float(parts[1]), int(parts[2]))
    except ValueError as exc:
        raise ValueError(f"bad grid {spec!r}: {exc}") from exc


class GaussianKernel:
    """A discretized Gaussian delay kernel on a grid, with cached FFT.

    The delay mean is split into ``shift`` whole grid bins plus a residual
    below half a pitch; ``taps`` spans ``[-half, +half]`` grid steps around
    that residual and sums to one.  Centering the tap window this way keeps
    the full kernel mass on the window for any mean (a window fixed around
    zero truncates — or loses entirely — a Gaussian whose mean exceeds its
    6-sigma reach).  The rFFT of the zero-padded taps is computed lazily
    per transform size and memoized, so a batched convolution pays for one
    kernel transform no matter how many densities it processes.
    """

    __slots__ = ("mu", "sigma", "shift", "half", "taps", "_rfft")

    def __init__(self, grid: TimeGrid, delay: Normal) -> None:
        if delay.sigma <= 0.0:
            raise ValueError("GaussianKernel requires sigma > 0; "
                             "deterministic delays are grid shifts")
        self.mu = delay.mu
        self.sigma = delay.sigma
        self.shift = int(round(delay.mu / grid.dt))
        residual = delay.mu - self.shift * grid.dt
        self.half = int(math.ceil(6.0 * delay.sigma / grid.dt)) + 1
        offsets = np.arange(-self.half, self.half + 1) * grid.dt
        z = (offsets - residual) / delay.sigma
        taps = np.exp(-0.5 * z * z)
        total = taps.sum()
        if total < np.finfo(float).tiny:
            # sigma far below the pitch: every tap underflows.  Scaling
            # by exp(0.5 * min(z*z)) keeps the nearest tap at one.
            zz = z * z
            taps = np.exp(-0.5 * (zz - zz.min()))
            total = taps.sum()
        taps /= total
        self.taps = taps
        self._rfft: Dict[int, np.ndarray] = {}

    def rfft(self, nfft: int) -> np.ndarray:
        """rFFT of the taps zero-padded to ``nfft`` (memoized)."""
        spectrum = self._rfft.get(nfft)
        if spectrum is None:
            spectrum = np.fft.rfft(self.taps, nfft)
            self._rfft[nfft] = spectrum
        return spectrum

    def __len__(self) -> int:
        return self.taps.shape[0]


class KernelCache:
    """Per-analysis cache of :class:`GaussianKernel` keyed on (mu, sigma).

    One SPSTA/SSTA sweep over an ISCAS netlist asks for the same handful of
    delay kernels thousands of times (every gate of a unit-delay bench shares
    one); building each discretized Gaussian once is pure win.  The cache is
    bound to a single :class:`TimeGrid` — mixing grids is an error.
    """

    __slots__ = ("grid", "hits", "misses", "_kernels")

    def __init__(self, grid: TimeGrid) -> None:
        self.grid = grid
        self.hits = 0
        self.misses = 0
        self._kernels: Dict[Tuple[float, float], GaussianKernel] = {}

    def kernel(self, delay: Normal) -> GaussianKernel:
        key = (delay.mu, delay.sigma)
        kernel = self._kernels.get(key)
        if kernel is None:
            kernel = GaussianKernel(self.grid, delay)
            self._kernels[key] = kernel
            self.misses += 1
        else:
            self.hits += 1
        return kernel

    @property
    def hit_rate(self) -> float:
        total = self.hits + self.misses
        return self.hits / total if total else 0.0


def _next_pow2(n: int) -> int:
    return 1 << (n - 1).bit_length()


def _next_fast_len(n: int) -> int:
    """Smallest 5-smooth integer >= n (a fast FFT size for pocketfft).

    A 2048-point density convolved with a ±half kernel needs an FFT of only
    n + 2*half points; rounding that up to the next power of two (4096) can
    double the transform cost.  5-smooth sizes keep the transform within a
    few percent of the power-of-two throughput at nearly the minimal length.
    """
    if n <= 6:
        return max(n, 1)
    best = _next_pow2(n)
    p5 = 1
    while p5 < best:
        p35 = p5
        while p35 < best:
            # Round n / p35 up to the next power of two.
            q = -(-n // p35)
            candidate = p35 * _next_pow2(q)
            if n <= candidate < best:
                best = candidate
            p35 *= 3
        p5 *= 5
    return best


def shift_rows(rows: np.ndarray, bins: int) -> np.ndarray:
    """Deterministic delay on a stack of densities: shift every row by
    ``bins`` grid steps, zero-filling (same edge semantics as
    :meth:`GridDensity.shifted`)."""
    out = np.zeros_like(rows)
    n = rows.shape[1]
    if bins >= 0:
        if bins < n:
            out[:, bins:] = rows[:, :n - bins]
    else:
        out[:, :bins] = rows[:, -bins:]
    return out


def convolve_rows(rows: np.ndarray, kernel: GaussianKernel,
                  method: str = "auto") -> np.ndarray:
    """Convolve a (m, n) stack of densities with one shared kernel.

    The residual-mean taps are applied as a windowed convolution (the
    ``[half : half + n]`` slice of the full convolution) and the kernel's
    whole-bin mean as a zero-filling grid shift, so the delay mean is
    honored exactly no matter how it compares to the kernel's 6-sigma
    reach.  FFT and direct results are interchangeable (up to ~1e-15
    rounding).  ``method`` is ``"direct"``, ``"fft"``, or ``"auto"`` (FFT
    for wide kernels or tall batches).
    """
    n = rows.shape[1]
    half = kernel.half
    if method == "auto":
        # Per-row flops decide for a lone row: direct costs O(n * taps),
        # FFT costs O(nfft log nfft) regardless of kernel width.  Tall
        # batches amortize the kernel spectrum and transform bookkeeping,
        # so the FFT also wins there even for narrow kernels.
        method = ("fft" if len(kernel) >= FFT_TAP_THRESHOLD
                  or rows.shape[0] >= FFT_BATCH_THRESHOLD else "direct")
    if method == "direct":
        out = np.empty_like(rows)
        for i in range(rows.shape[0]):
            out[i] = np.convolve(rows[i], kernel.taps)[half:half + n]
    elif method == "fft":
        nfft = _next_fast_len(n + 2 * half)
        spectra = np.fft.rfft(rows, nfft) * kernel.rfft(nfft)
        full = np.fft.irfft(spectra, nfft)
        del spectra
        out = full[:, half:half + n]    # copied out by either return
    else:
        raise ValueError(f"unknown convolution method {method!r}")
    if kernel.shift:
        return shift_rows(out, kernel.shift)
    return np.ascontiguousarray(out)


def trapezoid_rows(rows: np.ndarray, dt: float) -> np.ndarray:
    """Trapezoid-rule integral of each row of a (m, n) density stack."""
    return (rows.sum(axis=1) - 0.5 * (rows[:, 0] + rows[:, -1])) * dt


def kernel_retention_vector(kernel: GaussianKernel, n: int,
                            dt: float) -> np.ndarray:
    """Vector ``c`` with ``trapezoid(convolve(f, kernel)) == f @ c``.

    Convolution truncated to the grid window and the trapezoid rule are
    both linear in the input row, so the integral of a convolved density —
    the per-term normalizer of the naive mix — is an inner product with a
    fixed, kernel-dependent vector.  This lets the fast engine pre-mix all
    terms sharing a delay kernel (dividing each by its exact retention)
    and convolve the group once, instead of convolving every Eq. 11 term
    separately just to measure its edge losses.

    ``c`` composes the two linear stages of :func:`convolve_rows` — the
    windowed tap convolution, then the whole-bin mean shift: correlating
    the shift stage's own retention vector with the taps pulls it back
    through the convolution (``(A^T c_shift)[s] = sum_t taps[t - s + half]
    c_shift[t]``), so ``c[i]`` is exactly the trapezoid weight source bin
    ``i`` retains end to end.
    """
    c_shift = shift_retention_vector(kernel.shift, n, dt)
    half = kernel.half
    return np.convolve(c_shift, kernel.taps[::-1])[half:half + n]


def shift_retention_vector(bins: int, n: int, dt: float) -> np.ndarray:
    """Vector ``c`` with ``trapezoid(shift(f, bins)) == f @ c``.

    Same idea as :func:`kernel_retention_vector` for deterministic delays:
    bins shifted off the grid contribute nothing, and the sources landing
    on the two boundary bins are half-weighted by the trapezoid rule.
    """
    i = np.arange(n)
    c = ((i + bins >= 0) & (i + bins <= n - 1)).astype(float)
    first_src = -bins           # source bin that lands on out[0]
    if 0 <= first_src < n:
        c[first_src] -= 0.5
    last_src = n - 1 - bins     # source bin that lands on out[-1]
    if 0 <= last_src < n:
        c[last_src] -= 0.5
    return dt * c


def cdf_rows(rows: np.ndarray, dt: float,
             out: Optional[np.ndarray] = None) -> np.ndarray:
    """Cumulative trapezoid integral of each row (same shape), matching
    :meth:`GridDensity.cdf_values` bin for bin; written into ``out`` when
    given.  The bin increments accumulate in place, so the only
    allocation is ``out`` itself."""
    if out is None:
        out = np.empty_like(rows)
    out[:, 0] = 0.0
    body = out[:, 1:]
    np.add(rows[:, 1:], rows[:, :-1], out=body)
    body *= 0.5 * dt
    np.cumsum(body, axis=1, out=body)
    return out


class GridDensity:
    """A (sub-)probability density sampled on a :class:`TimeGrid`."""

    __slots__ = ("grid", "values")

    def __init__(self, grid: TimeGrid, values: Sequence[float]) -> None:
        self.grid = grid
        arr = np.asarray(values, dtype=float)
        if arr.shape != (grid.n,):
            raise ValueError(
                f"values shape {arr.shape} does not match grid size {grid.n}")
        if not np.isfinite(arr).all():
            raise ValueError("density values must be finite (NaN/Inf "
                             "sentinel: an upstream operation diverged)")
        if np.any(arr < -1e-12):
            raise ValueError("density values must be non-negative")
        self.values = np.clip(arr, 0.0, None)

    @classmethod
    def from_normal(cls, grid: TimeGrid, normal: Normal, weight: float = 1.0,
                    *, ledger: Optional[MassLedger] = None) -> "GridDensity":
        """Sample ``weight * N(mu, sigma^2)``; sigma == 0 becomes a one-bin
        point mass carrying the full weight.

        Mass conservation is checked analytically: the Gaussian tail beyond
        the grid window is recorded in ``ledger`` (if given), warned about
        past :data:`MASS_WARN_FRACTION`, and refused past
        :data:`MASS_ERROR_FRACTION` — a Gaussian centered at or past the
        grid edge no longer comes back as a silently renormalized edge
        artifact.
        """
        if normal.sigma <= 0.0:
            off_fraction = (0.0 if grid.start - 0.5 * grid.dt <= normal.mu
                            <= grid.stop + 0.5 * grid.dt else 1.0)
        else:
            on_grid = (norm_cdf(grid.stop, normal.mu, normal.sigma)
                       - norm_cdf(grid.start, normal.mu, normal.sigma))
            off_fraction = max(1.0 - on_grid, 0.0)
        if ledger is not None:
            ledger.record(weight * off_fraction, weight)
        if off_fraction >= MASS_ERROR_FRACTION:
            raise ValueError(
                f"N({normal.mu:g}, {normal.sigma:g}^2) lies "
                f"{100 * off_fraction:.1f}% outside {grid!r}; refusing to "
                f"build a silently renormalized density — enlarge the grid")
        if off_fraction > MASS_WARN_FRACTION:
            _warn_truncation("from_normal", off_fraction)
        if normal.sigma <= 0.0:
            values = np.zeros(grid.n)
            idx = int(np.clip(round((normal.mu - grid.start) / grid.dt),
                              0, grid.n - 1))
            values[idx] = weight / grid.dt
            return cls(grid, values)
        z = (grid.points - normal.mu) / normal.sigma
        norm = normal.sigma * math.sqrt(2 * math.pi)
        values = weight * np.exp(-0.5 * z * z) / norm
        return cls(grid, values)

    @classmethod
    def zero(cls, grid: TimeGrid) -> "GridDensity":
        """The empty density (no transition occurs)."""
        return cls(grid, np.zeros(grid.n))

    @classmethod
    def from_trusted(cls, grid: TimeGrid, values: np.ndarray) -> "GridDensity":
        """Wrap an array known to be a valid density (right shape, >= 0).

        The batched fast path produces thousands of intermediate arrays from
        operations that preserve non-negativity, so it skips the per-array
        validation/clip of ``__init__`` (which profiles as a top cost of the
        naive sweep).
        """
        density = cls.__new__(cls)
        density.grid = grid
        density.values = values
        return density

    @property
    def total_weight(self) -> float:
        """Integral of the density (trapezoid rule)."""
        return float(trapezoid(self.values, dx=self.grid.dt))

    def cdf_values(self) -> np.ndarray:
        """Cumulative integral on the grid (same shape as ``values``)."""
        mids = (self.values[1:] + self.values[:-1]) * 0.5 * self.grid.dt
        cum = np.concatenate(([0.0], np.cumsum(mids)))
        return cum

    def mean(self) -> float:
        """Mean of the normalized distribution."""
        w = self.total_weight
        if w <= 0.0:
            raise ValueError("mean of an empty density is undefined")
        first = trapezoid(self.grid.points * self.values, dx=self.grid.dt)
        return float(first) / w

    def var(self) -> float:
        """Variance of the normalized distribution."""
        w = self.total_weight
        if w <= 0.0:
            raise ValueError("variance of an empty density is undefined")
        m = self.mean()
        raw2 = float(trapezoid(self.grid.points ** 2 * self.values,
                               dx=self.grid.dt)) / w
        return max(raw2 - m * m, 0.0)

    def std(self) -> float:
        return math.sqrt(self.var())

    def scaled(self, factor: float) -> "GridDensity":
        if factor < 0.0:
            raise ValueError(f"weight factor must be >= 0, got {factor}")
        return GridDensity(self.grid, self.values * factor)

    def normalized(self) -> "GridDensity":
        w = self.total_weight
        if w <= 0.0:
            raise ValueError("cannot normalize an empty density")
        return self.scaled(1.0 / w)

    def __add__(self, other: "GridDensity") -> "GridDensity":
        """Pointwise WEIGHTED SUM accumulation."""
        self._check_grid(other)
        return GridDensity(self.grid, self.values + other.values)

    def shifted(self, delay: float, *,
                ledger: Optional[MassLedger] = None) -> "GridDensity":
        """Deterministic delay: shift by a whole number of bins (the delay is
        rounded to the grid pitch; unit-delay experiments use an exact pitch
        divisor so no rounding error accrues).  Bins shifted past the grid
        edge are accounted in ``ledger`` and warned about past
        :data:`MASS_WARN_FRACTION` instead of vanishing silently."""
        bins = int(round(delay / self.grid.dt))
        values = np.zeros_like(self.values)
        if bins >= 0:
            if bins < self.grid.n:
                values[bins:] = self.values[:self.grid.n - bins]
        else:
            values[:bins] = self.values[-bins:]
        result = GridDensity(self.grid, values)
        if bins != 0:
            before = self.total_weight
            clipped = max(before - result.total_weight, 0.0)
            if ledger is not None:
                fraction = ledger.record(clipped, before)
            else:
                fraction = clipped / before if before > 0.0 else 0.0
            if fraction > MASS_WARN_FRACTION:
                _warn_truncation("shifted", fraction)
        return result

    def convolved(self, delay: Normal, method: str = "direct",
                  cache: Optional[KernelCache] = None, *,
                  ledger: Optional[MassLedger] = None) -> "GridDensity":
        """SUM with an independent Gaussian delay via discrete convolution.

        ``method`` selects the algorithm: ``"direct"`` (per-row
        ``np.convolve``, the default), ``"fft"`` (circular convolution on a
        zero-padded fast-composite transform long enough to be exactly
        linear, identical up to ~1e-15), or ``"auto"`` (FFT once the kernel
        passes ``FFT_TAP_THRESHOLD`` taps).  The delay mean is applied
        exactly — whole grid bins as a shift, the sub-bin residual inside
        the kernel (see :class:`GaussianKernel`).  A :class:`KernelCache`
        reuses the discretized kernel — and its FFT — across the thousands
        of identical delays of one analysis.  Mass pushed past the grid
        window by the convolution is accounted in ``ledger`` and warned
        about past :data:`MASS_WARN_FRACTION`.
        """
        if delay.sigma <= 0.0:
            return self.shifted(delay.mu, ledger=ledger)
        if cache is not None:
            kernel = cache.kernel(delay)
        else:
            kernel = GaussianKernel(self.grid, delay)
        values = convolve_rows(self.values[np.newaxis, :], kernel, method)[0]
        result = GridDensity(self.grid, values)
        before = self.total_weight
        clipped = max(before - result.total_weight, 0.0)
        if ledger is not None:
            fraction = ledger.record(clipped, before)
        else:
            fraction = clipped / before if before > 0.0 else 0.0
        if fraction > MASS_WARN_FRACTION:
            _warn_truncation("convolved", fraction)
        return result

    def max_with(self, other: "GridDensity") -> "GridDensity":
        """MAX of independent conditional distributions (Eq. 3), normalized."""
        self._check_grid(other)
        a, b = self.normalized(), other.normalized()
        values = a.values * b.cdf_values() + b.values * a.cdf_values()
        return GridDensity(self.grid, values)

    def min_with(self, other: "GridDensity") -> "GridDensity":
        """MIN analogue: pdf_min = f1 (1 - F2) + f2 (1 - F1), normalized."""
        self._check_grid(other)
        a, b = self.normalized(), other.normalized()
        values = (a.values * (1.0 - b.cdf_values())
                  + b.values * (1.0 - a.cdf_values()))
        return GridDensity(self.grid, values)

    def _check_grid(self, other: "GridDensity") -> None:
        if self.grid != other.grid:
            raise ValueError("densities live on different time grids")

    def __repr__(self) -> str:
        return (f"GridDensity(weight={self.total_weight:.4g}, "
                f"grid={self.grid!r})")


def grid_weighted_sum(grid: TimeGrid,
                      terms: Iterable[Tuple[float, GridDensity]],
                      ) -> GridDensity:
    """WEIGHTED SUM (Eq. 8) of grid densities."""
    acc = GridDensity.zero(grid)
    for weight, density in terms:
        acc = acc + density.scaled(weight)
    return acc
