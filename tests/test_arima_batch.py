"""The lockstep ARIMA grid against the frozen scalar fit, bit for bit."""

import struct

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

import arima_oracle as oracle
from quartercast import FiscalQuarter, QuarterlySeries, arima, forecast_arima
from quartercast.arima import auto_select_many, fit_arima, order_grid

START = FiscalQuarter(2009, 1)


def bits(values):
    return [struct.pack("<d", float(v)) for v in values]


def fit_bits(fit):
    """Every float of a fit, as bytes: coefficients, intercept, sigma2, AICc, residuals."""
    return bits(
        [*fit.ar_coeffs, *fit.ma_coeffs, *fit.seasonal_ar, *fit.seasonal_ma,
         fit.intercept if fit.intercept is not None else 0.0, fit.sigma2, fit.aicc, *fit.residuals]
    )


def oracle_or_error(fn, *args):
    try:
        return fn(*args)
    except (oracle.InsufficientDataError, oracle.NonconvergenceError) as exc:
        return exc


def assert_same(batch, scalar):
    if isinstance(scalar, Exception):
        assert type(batch) is type(scalar) and str(batch) == str(scalar)
        return
    assert not isinstance(batch, Exception), batch
    assert batch.order == scalar.order
    assert fit_bits(batch) == fit_bits(scalar)
    assert bits(forecast_arima(batch, 4)) == bits(forecast_arima(scalar, 4))


# Values stay far from overflow: the CSS objective returns NaN only when
# the squared scale of the series overflows, and NaN is outside the
# contract (Python's sort does not order it).
values = st.floats(min_value=-1e6, max_value=1e6, allow_nan=False, allow_infinity=False)
series_values = st.lists(values, min_size=10, max_size=24)


def oracle_select(fits):
    """oracle.auto_select's rule over the oracle's per-order fits."""
    best = None
    for fit in fits:
        if not isinstance(fit, Exception) and (best is None or fit.aicc < best.aicc):
            best = fit
    if best is None:
        return oracle.NonconvergenceError("no ARIMA candidate converged on this series")
    return best


@settings(max_examples=8, deadline=None)
@given(st.lists(series_values, min_size=1, max_size=3))
def test_grid_matches_oracle(value_lists):
    """Every order's fit and each series' choice; series of different lengths share one batch."""
    series = [QuarterlySeries(f"s{i}", START, v) for i, v in enumerate(value_lists)]
    grid = order_grid()
    per_order = list(arima._fit_tasks([(s, grid) for s in series]))
    for k, (s, best) in enumerate(zip(series, auto_select_many(series))):
        scalar = [oracle_or_error(oracle.fit_arima, s, order) for order in grid]
        for fit, expected in zip(per_order[k * len(grid) : (k + 1) * len(grid)], scalar):
            assert_same(fit, expected)
        assert_same(best, oracle_select(scalar))


def test_short_and_failing_series_give_the_oracle_errors():
    short = QuarterlySeries("short", START, [1.0, 3.0, 2.0, 5.0, 4.0, 6.0])
    nine = QuarterlySeries("nine", START, [float(v) for v in range(9)])
    ok = QuarterlySeries("ok", START, np.random.default_rng(8).normal(50.0, 4.0, 14))
    for s, best in zip((nine, ok, short), auto_select_many([nine, ok, short])):
        assert_same(best, oracle_or_error(oracle.auto_select, s))
    for order in (arima.ArimaOrder(2, 1, 2, 1, 1, 1), arima.ArimaOrder(0, 1, 0, 0, 1, 0),
                  arima.ArimaOrder(1, 0, 0)):
        assert_same(oracle_or_error(fit_arima, short, order),
                    oracle_or_error(oracle.fit_arima, short, order))


def test_forced_restart_matches_oracle(monkeypatch):
    """No coefficient vector within 0.25 of zero is admissible.

    Every vertex of the zero-start simplex then scores inf, the search only
    shrinks, and each fit must restart from its seeded draws.
    """
    box = 0.25
    batch_mask = arima._admissible_mask
    scalar_test = oracle._admissible
    monkeypatch.setattr(
        arima, "_admissible_mask", lambda c: batch_mask(c) & (np.abs(c).max(axis=0) >= box)
    )
    monkeypatch.setattr(
        oracle, "_admissible",
        lambda *parts: scalar_test(*parts) and max(abs(v) for part in parts for v in part) >= box,
    )
    series = QuarterlySeries("r", START, np.random.default_rng(21).normal(100.0, 5.0, 16))
    orders = [o for o in order_grid() if 1 <= o.n_coeffs <= 3 and o.d == 1 and o.D == 0]
    fits = list(arima._fit_tasks([(series, orders)]))
    restarted = 0
    for order, fit in zip(orders, fits):
        assert_same(fit, oracle_or_error(oracle.fit_arima, series, order))
        restarted += not isinstance(fit, Exception)
    assert restarted


def test_admissible_mask_matches_the_factor_tests():
    """The vectorised admissibility test against the scalar factor tests, boundaries included."""
    rng = np.random.default_rng(4)
    values = np.concatenate([rng.uniform(-2.2, 2.2, 500), [-2.0, -1.0, -0.5, -0.0, 0.0, 0.5, 1.0, 2.0]])
    for order in order_grid():
        slots = arima._slots(order)
        for _ in range(40):
            c = np.zeros(6)
            c[slots] = rng.choice(values, size=len(slots))
            phi, theta, sphi, stheta = arima._split_params(c[slots].tolist(), order)
            expected = (
                arima._ar_factor_stationary(phi)
                and arima._ma_factor_invertible(theta)
                and arima._ar_factor_stationary(sphi)
                and arima._ma_factor_invertible(stheta)
            )
            assert bool(arima._admissible_mask(c[:, None])[0]) == expected, (order, c)
