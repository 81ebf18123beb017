"""Tests for repro.stats.grid — discretized densities (the numeric oracle)."""

import numpy as np
import pytest

from repro.stats.clark import clark_max_moments
from repro.stats.grid import (
    GaussianKernel,
    GridDensity,
    TimeGrid,
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
