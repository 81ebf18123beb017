"""Tests for repro.stats.grid — discretized densities (the numeric oracle)."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.compat import trapezoid
from repro.core.spsta import GridAlgebra
from repro.stats.clark import clark_max_moments
from repro.stats.grid import (
    GaussianKernel,
    GridDensity,
    TimeGrid,
    convolve_rows,
    grid_weighted_sum,
    parse_grid_spec,
)
from repro.stats.normal import Normal


@pytest.fixture
def grid() -> TimeGrid:
    return TimeGrid(-10.0, 20.0, 4096)


class TestTimeGrid:
    def test_pitch(self, grid):
        assert grid.dt == pytest.approx(30.0 / 4095)

    def test_equality_and_hash(self):
        a, b = TimeGrid(0, 1, 64), TimeGrid(0, 1, 64)
        assert a == b and hash(a) == hash(b)
        assert a != TimeGrid(0, 1, 128)

    def test_rejects_bad_ranges(self):
        with pytest.raises(ValueError):
            TimeGrid(1.0, 1.0)
        with pytest.raises(ValueError):
            TimeGrid(0.0, 1.0, n=4)

    def test_parse_grid_spec(self):
        assert parse_grid_spec("-8:60:2048") == TimeGrid(-8.0, 60.0, 2048)
        with pytest.raises(ValueError, match="START:STOP:N"):
            parse_grid_spec("1:2")
        with pytest.raises(ValueError, match="bad grid 'a:b:8'"):
            parse_grid_spec("a:b:8")
        with pytest.raises(ValueError, match="at least 8 points"):
            parse_grid_spec("0:1:4")


class TestGridDensity:
    def test_gaussian_weight(self, grid):
        d = GridDensity.from_normal(grid, Normal(0.0, 1.0), weight=0.6)
        assert d.total_weight == pytest.approx(0.6, abs=1e-6)

    def test_gaussian_moments(self, grid):
        d = GridDensity.from_normal(grid, Normal(2.0, 1.5))
        assert d.mean() == pytest.approx(2.0, abs=1e-6)
        assert d.std() == pytest.approx(1.5, abs=1e-4)

    def test_point_mass(self, grid):
        d = GridDensity.from_normal(grid, Normal(3.0, 0.0), weight=0.5)
        assert d.total_weight == pytest.approx(0.5, rel=1e-2)
        assert d.mean() == pytest.approx(3.0, abs=grid.dt)

    def test_negative_values_rejected(self, grid):
        values = np.zeros(grid.n)
        values[5] = -1.0
        with pytest.raises(ValueError):
            GridDensity(grid, values)

    def test_wrong_shape_rejected(self, grid):
        with pytest.raises(ValueError):
            GridDensity(grid, np.zeros(grid.n - 1))

    def test_zero_density(self, grid):
        z = GridDensity.zero(grid)
        assert z.total_weight == 0.0
        with pytest.raises(ValueError):
            z.mean()

    def test_mismatched_grids_rejected(self, grid):
        other = TimeGrid(-10.0, 20.0, 2048)
        a = GridDensity.from_normal(grid, Normal(0, 1))
        b = GridDensity.from_normal(other, Normal(0, 1))
        with pytest.raises(ValueError):
            a + b


class TestGridOps:
    def test_shift_moves_mean(self, grid):
        d = GridDensity.from_normal(grid, Normal(0.0, 1.0)).shifted(4.0)
        assert d.mean() == pytest.approx(4.0, abs=2 * grid.dt)
        assert d.std() == pytest.approx(1.0, abs=1e-3)

    def test_negative_shift(self, grid):
        d = GridDensity.from_normal(grid, Normal(2.0, 1.0)).shifted(-3.0)
        assert d.mean() == pytest.approx(-1.0, abs=2 * grid.dt)

    def test_convolution_with_gaussian(self, grid):
        d = GridDensity.from_normal(grid, Normal(0.0, 1.0))
        c = d.convolved(Normal(2.0, 1.5))
        assert c.mean() == pytest.approx(2.0, abs=2 * grid.dt)
        assert c.std() == pytest.approx(np.hypot(1.0, 1.5), abs=1e-3)

    def test_weighted_sum(self, grid):
        acc = grid_weighted_sum(grid, [
            (0.5, GridDensity.from_normal(grid, Normal(0.0, 1.0))),
            (0.25, GridDensity.from_normal(grid, Normal(5.0, 1.0))),
        ])
        assert acc.total_weight == pytest.approx(0.75, abs=1e-6)
        # Mixture mean = (0.5*0 + 0.25*5)/0.75
        assert acc.mean() == pytest.approx(5.0 / 3.0, abs=1e-4)

    def test_max_matches_clark_for_gaussians(self, grid):
        a = GridDensity.from_normal(grid, Normal(0.0, 1.0))
        b = GridDensity.from_normal(grid, Normal(1.0, 2.0))
        numeric = a.max_with(b)
        mean, var = clark_max_moments(0.0, 1.0, 1.0, 4.0)
        # Clark's first two moments are exact for the max of Gaussians, so
        # the numeric result must agree to grid precision.
        assert numeric.mean() == pytest.approx(mean, abs=1e-3)
        assert numeric.var() == pytest.approx(var, abs=5e-3)

    def test_max_skew_positive_for_iid(self, grid):
        a = GridDensity.from_normal(grid, Normal(0.0, 1.0))
        b = GridDensity.from_normal(grid, Normal(0.0, 1.0))
        numeric = a.max_with(b)
        t = grid.points
        third = float(np.trapezoid((t - numeric.mean()) ** 3 * numeric.values,
                               dx=grid.dt))
        assert third > 0.0  # the max of symmetric inputs is right-skewed

    def test_min_matches_negated_max(self, grid):
        a = GridDensity.from_normal(grid, Normal(0.0, 1.0))
        b = GridDensity.from_normal(grid, Normal(1.0, 2.0))
        numeric = a.min_with(b)
        from repro.stats.clark import clark_min_moments
        mean, var = clark_min_moments(0.0, 1.0, 1.0, 4.0)
        assert numeric.mean() == pytest.approx(mean, abs=1e-3)
        assert numeric.var() == pytest.approx(var, abs=5e-3)

    def test_max_preserves_unit_weight(self, grid):
        a = GridDensity.from_normal(grid, Normal(0.0, 1.0), weight=0.4)
        b = GridDensity.from_normal(grid, Normal(1.0, 1.0), weight=0.8)
        # max_with normalizes operands; the result is a proper distribution.
        assert a.max_with(b).total_weight == pytest.approx(1.0, abs=1e-5)

    def test_cdf_values_monotone(self, grid):
        d = GridDensity.from_normal(grid, Normal(0.0, 2.0))
        cdf = d.cdf_values()
        assert np.all(np.diff(cdf) >= -1e-12)
        assert cdf[-1] == pytest.approx(1.0, abs=1e-6)


class TestGaussianKernel:
    GRID = TimeGrid(-8.0, 60.0, 512)

    @pytest.mark.parametrize("mu", [1.5, 1.5 + 0.5 * 68.0 / 512, 2.0])
    def test_sigma_far_below_pitch_keeps_finite_taps(self, mu):
        # Every exp(-z^2/2) underflows here, so the raw taps sum to 0.
        kernel = GaussianKernel(self.GRID, Normal(mu, 0.001))
        assert np.all(np.isfinite(kernel.taps))
        assert kernel.taps.sum() == pytest.approx(1.0, abs=1e-15)
        # The mass sits on the grid point(s) nearest the mean.
        offsets = (np.arange(len(kernel)) - kernel.half) * self.GRID.dt
        distance = np.abs(kernel.shift * self.GRID.dt + offsets - mu)
        assert set(np.flatnonzero(kernel.taps > 1e-300)) <= set(
            np.flatnonzero(distance <= distance.min() + 1e-12))

    @pytest.mark.parametrize("sigma", [0.02, 0.1, 1.0])
    def test_ordinary_kernels_are_unchanged(self, sigma):
        grid = self.GRID
        delay = Normal(1.37, sigma)
        kernel = GaussianKernel(grid, delay)
        shift = int(round(delay.mu / grid.dt))
        offsets = np.arange(-kernel.half, kernel.half + 1) * grid.dt
        z = (offsets - (delay.mu - shift * grid.dt)) / delay.sigma
        taps = np.exp(-0.5 * z * z)
        taps /= taps.sum()
        assert np.array_equal(kernel.taps, taps)


# ---------------------------------------------------------------------------
# The lean density: memoized weight, one validation pass, closed operations
# that skip re-validation.  The reference formulas below are the plain form
# of each operation (validate and clip every result, integrate every weight
# afresh); the density must match them bit for bit.
# ---------------------------------------------------------------------------

LEAN_GRID = TimeGrid(-8.0, 60.0, 512)
SENTINEL = "NaN/Inf sentinel"


def _ref_valid(values):
    assert np.isfinite(values).all() and not np.any(values < -1e-12)
    return np.clip(values, 0.0, None)


def _ref_weight(values):
    return float(trapezoid(values, dx=LEAN_GRID.dt))


def _ref_cdf(values):
    mids = (values[1:] + values[:-1]) * 0.5 * LEAN_GRID.dt
    return np.concatenate(([0.0], np.cumsum(mids)))


def _ref_scaled(values, factor):
    return _ref_valid(values * factor)


def _ref_normalized(values):
    return _ref_scaled(values, 1.0 / _ref_weight(values))


def _ref_shifted(values, bins):
    out = np.zeros_like(values)
    if bins >= 0:
        out[bins:] = values[:values.size - bins]
    else:
        out[:bins] = values[-bins:]
    return _ref_valid(out)


def _ref_max(x, y):
    a, b = _ref_normalized(x), _ref_normalized(y)
    return _ref_valid(a * _ref_cdf(b) + b * _ref_cdf(a))


def _ref_min(x, y):
    a, b = _ref_normalized(x), _ref_normalized(y)
    return _ref_valid(a * (1.0 - _ref_cdf(b)) + b * (1.0 - _ref_cdf(a)))


def _ref_mix(terms):
    acc = np.zeros(LEAN_GRID.n)
    total = 0.0
    for weight, values in terms:
        total += weight
        acc = _ref_valid(acc + _ref_scaled(_ref_normalized(values), weight))
    return total, _ref_normalized(acc)


def _random_density(seed: int) -> np.ndarray:
    """A non-negative 512-bin density: a Gaussian bump plus sparse noise,
    with exact zeros in its tails."""
    rng = np.random.default_rng(seed)
    t = LEAN_GRID.points
    bump = np.exp(-0.5 * ((t - rng.uniform(0, 40)) / rng.uniform(0.3, 6))
                  ** 2)
    noise = rng.random(LEAN_GRID.n) * (rng.random(LEAN_GRID.n) < 0.2)
    values = rng.uniform(0.01, 3.0) * bump + rng.uniform(0, 0.1) * noise
    values[bump < 1e-12] = 0.0
    values[rng.integers(0, LEAN_GRID.n)] += rng.uniform(0.0, 1.0)
    return values


def _same(density, ref_values):
    assert density.values.tobytes() == ref_values.tobytes()
    assert density.total_weight == _ref_weight(ref_values)


SEEDS = st.integers(min_value=0, max_value=2**32 - 1)
MIX_WEIGHTS = st.one_of(st.just(0.0), st.floats(min_value=1e-6,
                                                 max_value=1.0))


class TestLeanDensityBits:
    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    @settings(max_examples=60, deadline=None)
    @given(SEEDS, SEEDS, st.floats(min_value=0.0, max_value=5.0),
           st.integers(min_value=-40, max_value=40))
    def test_operations_match_reference_formulas(self, seed_x, seed_y,
                                                 factor, bins):
        x, y = _random_density(seed_x), _random_density(seed_y)
        dx = GridDensity(LEAN_GRID, x)
        dy = GridDensity(LEAN_GRID, y)
        _same(dx, _ref_valid(x))
        _same(dx.scaled(factor), _ref_scaled(x, factor))
        _same(dx + dy, _ref_valid(x + y))
        _same(dx.normalized(), _ref_normalized(x))
        _same(dx.shifted(bins * LEAN_GRID.dt), _ref_shifted(x, bins))
        delay = Normal(abs(bins) * 0.07 + 0.3, 0.1 + factor / 10)
        kernel = GaussianKernel(LEAN_GRID, delay)
        for method in ("direct", "fft"):
            _same(dx.convolved(delay, method=method),
                  _ref_valid(convolve_rows(x[np.newaxis], kernel,
                                           method)[0]))
        _same(dx.max_with(dy), _ref_max(x, y))
        _same(dx.min_with(dy), _ref_min(x, y))
        assert dx.cdf_values().tobytes() == _ref_cdf(x).tobytes()

    @settings(max_examples=30, deadline=None)
    @given(st.lists(st.tuples(MIX_WEIGHTS, SEEDS), min_size=1, max_size=6))
    def test_mix_matches_reference_formula(self, terms):
        arrays = [(w, _random_density(seed)) for w, seed in terms]
        total, mixed = GridAlgebra(LEAN_GRID).mix(
            [(w, GridDensity(LEAN_GRID, v)) for w, v in arrays])
        if not any(w for w, _ in terms):
            assert (total, mixed) == (0.0, None)
            return
        ref_total, ref_mixed = _ref_mix(arrays)
        assert total == ref_total
        _same(mixed, ref_mixed)


def _poisoned(bad: float) -> GridDensity:
    values = _random_density(7)
    values[200] = bad
    return GridDensity.from_trusted(LEAN_GRID, values)


class TestNonFiniteSentinel:
    OPERATIONS = {
        "scaled": lambda d, ok: d.scaled(0.5),
        "add": lambda d, ok: d + ok,
        "radd": lambda d, ok: ok + d,
        "normalized": lambda d, ok: d.normalized(),
        "shifted": lambda d, ok: d.shifted(3 * LEAN_GRID.dt),
        "shifted-back": lambda d, ok: d.shifted(-3 * LEAN_GRID.dt),
        "convolved": lambda d, ok: d.convolved(Normal(1.0, 0.1)),
        "convolved-fft": lambda d, ok: d.convolved(Normal(1.0, 0.1),
                                                   method="fft"),
        "max_with": lambda d, ok: d.max_with(ok),
        "max_with-rhs": lambda d, ok: ok.max_with(d),
        "min_with": lambda d, ok: d.min_with(ok),
        "min_with-rhs": lambda d, ok: ok.min_with(d),
        "mix": lambda d, ok: GridAlgebra(LEAN_GRID).mix([(0.3, ok),
                                                        (0.4, d)]),
    }

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    @pytest.mark.parametrize("operation", sorted(OPERATIONS))
    def test_operation_raises_sentinel(self, operation, bad):
        ok = GridDensity(LEAN_GRID, _random_density(8))
        with pytest.raises(ValueError, match=SENTINEL):
            self.OPERATIONS[operation](_poisoned(bad), ok)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_constructor_raises_sentinel(self, bad):
        values = _random_density(9)
        values[3] = bad
        with pytest.raises(ValueError, match=SENTINEL):
            GridDensity(LEAN_GRID, values)

    def test_rounding_dips_are_clipped_and_real_negatives_refused(self):
        values = _random_density(10)
        values[4] = -1e-13
        assert GridDensity(LEAN_GRID, values).values[4] == 0.0
        values[4] = -1e-9
        with pytest.raises(ValueError, match="non-negative"):
            GridDensity(LEAN_GRID, values)


class TestDensityOwnership:
    def test_density_does_not_alias_callers_array(self):
        values = _random_density(11)
        kept = values.copy()
        density = GridDensity(LEAN_GRID, values)
        assert not np.shares_memory(density.values, values)
        values[:] = 5.0
        assert density.values.tobytes() == kept.tobytes()

    def test_density_does_not_alias_a_view(self):
        rows = np.stack([_random_density(12), _random_density(13)])
        density = GridDensity(LEAN_GRID, rows[1])
        assert not np.shares_memory(density.values, rows)

    def test_list_input_builds_the_same_density(self):
        values = _random_density(14)
        _same(GridDensity(LEAN_GRID, list(values)), values)

    def test_pickle_carries_grid_and_values_only(self):
        import pickle

        density = GridDensity(LEAN_GRID, _random_density(15))
        cold = pickle.dumps(density, protocol=pickle.HIGHEST_PROTOCOL)
        weight = density.total_weight
        assert pickle.dumps(density,
                            protocol=pickle.HIGHEST_PROTOCOL) == cold
        state = density.__reduce_ex__(pickle.HIGHEST_PROTOCOL)[2]
        assert state[0] is None and sorted(state[1]) == ["grid", "values"]
        loaded = pickle.loads(cold)
        assert loaded.grid == LEAN_GRID
        assert loaded.values.tobytes() == density.values.tobytes()
        assert loaded.total_weight == weight
