import numpy as np
import pytest

from quartercast import (
    FiscalQuarter,
    InsufficientDataError,
    LoessParams,
    QuarterlySeries,
    ValidationError,
    loess_smooth,
    stl_decompose,
    stlf_forecast,
)

START = FiscalQuarter(2009, 1)

SEASONAL = [4.0, -1.0, -2.0, -1.0]


def trend_plus_seasonal(n=24, slope=5.0):
    return np.asarray([slope * t + SEASONAL[t % 4] for t in range(n)])


class TestLoess:
    def test_constant(self):
        x = np.arange(1.0, 13.0)
        out = loess_smooth(x, np.full(12, 3.3), LoessParams(0.5, 1), x)
        assert out == pytest.approx([3.3] * 12)

    def test_line_exact(self):
        x = np.arange(1.0, 21.0)
        y = 3 * x + 1
        for span in (0.3, 0.75, 1.0):
            out = loess_smooth(x, y, LoessParams(span, 1), x)
            assert np.max(np.abs(out - y)) < 1e-10

    def test_quadratic_degree2(self):
        x = np.arange(1.0, 21.0)
        out = loess_smooth(x, x**2, LoessParams(0.5, 2), [10.0])
        assert abs(out[0] - 100.0) < 1e-6

    def test_degree0_weighted_mean(self):
        x = np.arange(4.0)
        out = loess_smooth(x, np.asarray([1.0, 1.0, 1.0, 1.0]), LoessParams(1.0, 0), [1.5])
        assert out[0] == pytest.approx(1.0)

    def test_input_validation(self):
        with pytest.raises(ValidationError):
            loess_smooth([1.0, 1.0, 2.0], [1, 2, 3], LoessParams(0.5, 1), [1.0])
        with pytest.raises(InsufficientDataError):
            loess_smooth([1.0, 2.0], [1, 2], LoessParams(0.5, 1), [1.0])
        with pytest.raises(ValidationError):
            LoessParams(span=0.0)
        with pytest.raises(ValidationError):
            LoessParams(degree=3)


class TestDecompose:
    def test_constant_series(self):
        dec = stl_decompose(QuarterlySeries("c", START, [42.0] * 16))
        assert np.max(np.abs(np.asarray(dec.trend) - 42.0)) < 1e-6 * 42.0
        assert np.max(np.abs(dec.seasonal)) < 1e-6 * 42.0
        assert np.max(np.abs(dec.remainder)) < 1e-6 * 42.0

    def test_known_construction_recovery(self):
        y = trend_plus_seasonal()
        dec = stl_decompose(QuarterlySeries("s", START, y))
        recovered = np.asarray(dec.seasonal[:4])
        assert np.max(np.abs(recovered - np.asarray(SEASONAL))) < 0.15
        assert np.sqrt(np.mean(np.asarray(dec.remainder) ** 2)) < 0.15

    def test_identity_on_random_input(self):
        rng = np.random.default_rng(23)
        for _ in range(5):
            y = rng.uniform(10, 200) + np.cumsum(rng.standard_normal(rng.integers(8, 40)))
            dec = stl_decompose(QuarterlySeries("r", START, y))
            recon = np.asarray(dec.trend) + np.asarray(dec.seasonal) + np.asarray(dec.remainder)
            assert np.max(np.abs(recon - y)) <= 1e-9 * max(1.0, np.max(np.abs(y)))

    def test_exact_periodicity(self):
        rng = np.random.default_rng(24)
        y = 50 + np.tile([6.0, -2.0, -6.0, 2.0], 5) + rng.standard_normal(20)
        dec = stl_decompose(QuarterlySeries("p", START, y))
        for i in range(len(y) - 4):
            assert dec.seasonal[i] == dec.seasonal[i + 4]

    def test_cycle_sums_near_zero(self):
        rng = np.random.default_rng(25)
        y = 80 + np.cumsum(rng.standard_normal(28)) + np.tile([3.0, 1.0, -4.0, 0.0], 7)
        dec = stl_decompose(QuarterlySeries("z", START, y))
        assert abs(sum(dec.seasonal[:4])) < 1e-6 * np.mean(np.abs(y))

    def test_too_short(self):
        with pytest.raises(InsufficientDataError):
            stl_decompose(QuarterlySeries("s", START, [1.0] * 7))


class TestForecast:
    def test_constant(self):
        fc = stlf_forecast(QuarterlySeries("c", START, [42.0] * 16), 4)
        assert fc == pytest.approx([42.0] * 4, abs=1e-6 * 42.0)

    def test_pure_seasonal_next_cycle(self):
        base = [14.0, 9.0, 8.0, 9.0]
        y = np.tile(base, 6)
        fc = stlf_forecast(QuarterlySeries("p", START, y), 4)
        amplitude = max(base) - min(base)
        assert np.max(np.abs(fc - np.asarray(base))) < 0.1 * amplitude

    def test_trend_plus_seasonal_one_step(self):
        n = 24
        y = trend_plus_seasonal(n)
        fc = stlf_forecast(QuarterlySeries("t", START, y), 1)
        truth = 5.0 * n + SEASONAL[n % 4]
        assert abs(fc[0] - truth) < 0.05 * abs(truth)

    def test_shift_equivariance(self):
        y = trend_plus_seasonal()
        f1 = stlf_forecast(QuarterlySeries("a", START, y), 4)
        f2 = stlf_forecast(QuarterlySeries("a", START, y + 100.0), 4)
        assert f2 - f1 == pytest.approx([100.0] * 4, abs=1e-6)

    def test_invalid_horizon(self):
        with pytest.raises(ValidationError):
            stlf_forecast(QuarterlySeries("c", START, [42.0] * 16), 9)
