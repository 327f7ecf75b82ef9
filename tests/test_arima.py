import numpy as np
import pytest

from quartercast import (
    ArimaOrder,
    FiscalQuarter,
    InsufficientDataError,
    QuarterlySeries,
    ValidationError,
    auto_select,
    difference,
    fit_arima,
    forecast_arima,
)
from quartercast.arima import order_grid

from conftest import ar1_series

START = FiscalQuarter(2009, 1)


class TestDifference:
    def test_linear_ramp(self):
        assert difference([1, 2, 3, 4, 5], 1, 0).tolist() == [1, 1, 1, 1]

    def test_identity(self):
        assert difference([5, 5, 5, 5], 0, 0).tolist() == [5, 5, 5, 5]

    def test_seasonal(self):
        assert difference([1, 2, 3, 4, 2, 4, 6, 8], 0, 1, 4).tolist() == [1, 2, 3, 4]

    def test_too_short(self):
        with pytest.raises(InsufficientDataError):
            difference([1, 2, 3, 4], 1, 1, 4)


class TestAdmissibility:
    def test_triangle_matches_polynomial_roots(self):
        from quartercast.arima import _admissible_mask

        def admissible(slot, coeffs):
            c = np.zeros(6)
            c[slot : slot + len(coeffs)] = coeffs
            return bool(_admissible_mask(c[:, None])[0])

        def outside_unit_circle(poly):  # coefficients from the highest power down
            roots = np.roots(np.trim_zeros(poly, "f"))
            return bool(np.all(np.abs(roots) > 1.0)) if roots.size else True

        rng = np.random.default_rng(19)
        for _ in range(300):
            phi = rng.uniform(-1.6, 1.6, size=2)
            assert admissible(0, phi) == outside_unit_circle([-phi[1], -phi[0], 1.0])
            theta = rng.uniform(-1.6, 1.6, size=2)
            assert admissible(2, theta) == outside_unit_circle([theta[1], theta[0], 1.0])
            sphi, stheta = rng.uniform(-1.6, 1.6, size=2)
            assert admissible(4, [sphi]) == outside_unit_circle([-sphi, 0.0, 0.0, 0.0, 1.0])
            assert admissible(5, [stheta]) == outside_unit_circle([stheta, 0.0, 0.0, 0.0, 1.0])


class TestOrder:
    def test_bounds(self):
        with pytest.raises(ValidationError):
            ArimaOrder(3, 0, 0)
        with pytest.raises(ValidationError):
            ArimaOrder(0, 0, 0, 0, 2, 0)
        with pytest.raises(ValidationError):
            ArimaOrder(0, 0, 0, s=12)

    def test_grid_size_and_order(self):
        grid = order_grid()
        assert len(grid) == 3 * 2 * 3 * 2 * 2 * 2
        keys = [(o.p, o.d, o.q, o.P, o.D, o.Q) for o in grid]
        assert keys == sorted(keys)


class TestFit:
    def test_constant_random_walk(self):
        s = QuarterlySeries("c", START, [7.0] * 14)
        fit = fit_arima(s, ArimaOrder(0, 1, 0))
        assert fit.sigma2 == 0.0
        assert forecast_arima(fit, 4).tolist() == [7.0] * 4

    def test_degenerate_is_mean_model(self):
        rng = np.random.default_rng(42)
        y = rng.normal(10, 1, 20)
        fit = fit_arima(QuarterlySeries("wn", START, y), ArimaOrder(0, 0, 0))
        assert fit.intercept == pytest.approx(float(np.mean(y)), rel=1e-12)
        assert forecast_arima(fit, 3) == pytest.approx([np.mean(y)] * 3, rel=1e-12)

    def test_ar1_against_yule_walker(self):
        s = ar1_series(phi=0.6, n=200, seed=7)
        fit = fit_arima(s, ArimaOrder(1, 0, 0))
        y = s.to_array()
        ybar = y.mean()
        r1 = float(np.sum((y[1:] - ybar) * (y[:-1] - ybar)) / np.sum((y - ybar) ** 2))
        assert abs(fit.ar_coeffs[0] - r1) < 0.1

    def test_residual_count(self):
        rng = np.random.default_rng(1)
        s = QuarterlySeries("r", START, rng.normal(100, 5, 16))
        for order in [ArimaOrder(1, 0, 1), ArimaOrder(0, 1, 0), ArimaOrder(1, 1, 0, 0, 1, 0)]:
            fit = fit_arima(s, order)
            assert len(fit.residuals) == 16 - order.d - 4 * order.D
            assert np.isfinite(fit.aicc)

    def test_insufficient_data(self):
        s = QuarterlySeries("s", START, [1.0, 2.0, 3.0, 4.0, 5.0, 6.0])
        with pytest.raises(InsufficientDataError):
            fit_arima(s, ArimaOrder(2, 1, 2, 1, 1, 1))

    def test_determinism(self):
        rng = np.random.default_rng(5)
        s = QuarterlySeries("d", START, rng.normal(50, 4, 16))
        a = fit_arima(s, ArimaOrder(2, 0, 1, 1, 0, 0))
        b = fit_arima(s, ArimaOrder(2, 0, 1, 1, 0, 0))
        assert a.ar_coeffs == b.ar_coeffs
        assert a.ma_coeffs == b.ma_coeffs
        assert a.aicc == b.aicc
        assert forecast_arima(a, 4).tolist() == forecast_arima(b, 4).tolist()


class TestForecast:
    def test_mean_model_flat(self):
        rng = np.random.default_rng(2)
        y = rng.normal(20, 1, 16)
        fit = fit_arima(QuarterlySeries("m", START, y), ArimaOrder(0, 0, 0))
        fc = forecast_arima(fit, 3)
        assert fc == pytest.approx([fit.intercept] * 3, rel=1e-12)

    def test_ar1_hand_recursion(self):
        s = ar1_series(phi=0.6, n=200, seed=7)
        fit = fit_arima(s, ArimaOrder(1, 0, 0))
        mu, phi = fit.intercept, fit.ar_coeffs[0]
        z_last = s.values[-1] - mu
        hand = [mu + phi**k * z_last for k in (1, 2, 3)]
        assert forecast_arima(fit, 3) == pytest.approx(hand, rel=1e-12)

    def test_invalid_horizon(self):
        s = QuarterlySeries("c", START, [7.0] * 14)
        fit = fit_arima(s, ArimaOrder(0, 1, 0))
        for h in (0, 9):
            with pytest.raises(ValidationError):
                forecast_arima(fit, h)

    def test_double_difference_continues_trend_and_season_exactly(self):
        # y = 3t + s(t mod 4) has identically zero (d=1, D=1) differences,
        # so the pure random-walk order must extend the pattern exactly.
        pattern = [5.0, -2.0, 1.0, -4.0]
        y = [3.0 * t + pattern[t % 4] + 100.0 for t in range(20)]
        fit = fit_arima(QuarterlySeries("ds", START, y), ArimaOrder(0, 1, 0, 0, 1, 0))
        truth = [3.0 * t + pattern[t % 4] + 100.0 for t in range(20, 26)]
        assert forecast_arima(fit, 6) == pytest.approx(truth, rel=1e-12)

    def test_affine_equivariance_differenced(self):
        rng = np.random.default_rng(12)
        y = rng.normal(100, 6, 18)
        a, b = 2.5, 40.0
        for order in [ArimaOrder(1, 1, 0), ArimaOrder(0, 1, 1)]:
            f1 = forecast_arima(fit_arima(QuarterlySeries("y", START, y), order), 4)
            f2 = forecast_arima(fit_arima(QuarterlySeries("y", START, a * y + b), order), 4)
            assert f2 == pytest.approx(a * f1 + b, rel=1e-5)


class TestAutoSelect:
    def test_constant_forecasts_constant(self):
        s = QuarterlySeries("c", START, [5.0] * 14)
        fit = auto_select(s)
        assert forecast_arima(fit, 4) == pytest.approx([5.0] * 4, abs=1e-9)

    def test_needs_ten_points(self):
        with pytest.raises(InsufficientDataError):
            auto_select(QuarterlySeries("s", START, [1.0] * 9))

    def test_seasonal_series_selects_seasonal_and_beats_mean(self):
        rng = np.random.default_rng(3)
        pattern = np.asarray([10.0, -10.0, 5.0, -5.0])
        y = 100.0 + np.tile(pattern, 10) + rng.standard_normal(40) * 0.5
        train = QuarterlySeries("s", START, y[:36])
        fit = auto_select(train)
        assert fit.order.D >= 1 or fit.order.Q >= 1 or fit.order.P >= 1
        mean_fit = fit_arima(train, ArimaOrder(0, 0, 0))
        actual = y[36:]
        mape_seasonal = np.mean(np.abs(actual - forecast_arima(fit, 4)) / np.abs(actual))
        mape_mean = np.mean(np.abs(actual - forecast_arima(mean_fit, 4)) / np.abs(actual))
        assert mape_seasonal < mape_mean

    def test_aicc_not_worse_than_any_grid_member(self):
        s = ar1_series(phi=0.6, n=200, seed=7)
        best = auto_select(s)
        for order in order_grid():
            try:
                refit = fit_arima(s, order)
            except InsufficientDataError:
                continue
            assert best.aicc <= refit.aicc + 1e-12
