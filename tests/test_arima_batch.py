"""The lockstep ARIMA grid against the frozen scalar fit, bit for bit."""

import itertools
import re
import struct

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import arima_oracle as oracle
from quartercast import (
    FiscalQuarter,
    NonconvergenceError,
    QuarterlySeries,
    SynthSpec,
    arima,
    forecast_arima,
    generate_synthetic,
)
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


# Values stay far from overflow: a series whose squares overflow is not
# searched at all (see the overflow test below).
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
# Differencing a constant series or a ramp leaves exact zeros, which the
# residual recursion's +-0.0 lag terms must not flip to -0.0; signed zeros
# in the input are kept as 0.0, so their differences are +0.0 too.
@example([[5.0] * 12, [3.0 + 2.0 * t for t in range(14)]])
@example([[0.0, -0.0] * 6, [-0.0] * 5 + [1.0, -0.0, 0.0, -1.0, -0.0, 0.0]])
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


@st.composite
def seasonal_trending(draw):
    """A level, a trend, a fixed seasonal pattern and small noise: differencing wins, so orders get skipped."""
    n = draw(st.integers(min_value=10, max_value=24))
    level = draw(st.floats(min_value=50.0, max_value=500.0))
    trend = draw(st.floats(min_value=-10.0, max_value=10.0))
    season = draw(st.lists(st.floats(min_value=-30.0, max_value=30.0), min_size=4, max_size=4))
    noise = draw(st.lists(st.floats(min_value=-3.0, max_value=3.0), min_size=n, max_size=n))
    return [level + trend * t + season[t % 4] + noise[t] for t in range(n)]


def assert_selection_is_the_whole_grids(series):
    """auto_select_many, whose GridPlan skips orders, against the selection over every order's fit."""
    grid = order_grid()
    per_order = list(arima._fit_tasks([(s, grid) for s in series]))
    for k, best in enumerate(auto_select_many(series)):
        assert_same(best, oracle_select(per_order[k * len(grid) : (k + 1) * len(grid)]))


@settings(max_examples=10, deadline=None)
@given(st.lists(seasonal_trending(), min_size=1, max_size=3))
def test_skipping_orders_keeps_the_selection(value_lists):
    assert_selection_is_the_whole_grids(
        [QuarterlySeries(f"s{i}", START, v) for i, v in enumerate(value_lists)]
    )


@settings(max_examples=10, deadline=None)
@given(st.one_of(seasonal_trending(), series_values))
def test_aicc_floor_is_at_most_the_fitted_aicc(values):
    s = QuarterlySeries("s", START, values)
    grid = order_grid()
    prepared = arima._prepare(s, grid)
    for order, diffed, fit in zip(grid, prepared, arima._fit_tasks([(s, grid)])):
        if order.n_coeffs and not isinstance(fit, Exception):
            assert arima._aicc_floor(order, diffed) <= fit.aicc, order


@pytest.mark.parametrize("length", [14, 16])
def test_windows_skip_orders_and_keep_the_selection(length):
    """The window lengths the models fit: some orders are skipped, the choice is the whole grid's."""
    panel = generate_synthetic(SynthSpec(n_geos=2, n_quarters=28, noise_scale=0.5, seed=20150101))
    windows = [
        QuarterlySeries(geo, START, panel.series_for(geo).to_array()[lo : lo + length])
        for geo in panel.series_ids()
        for lo in (0, 28 - length)
    ]
    # GridPlan searches fewer than the grid's 140 orders with coefficients on every window.
    assert all(len(arima.GridPlan([w]).orders) < 140 for w in windows)
    assert_selection_is_the_whole_grids(windows)
    (first,) = auto_select_many(windows[:1])
    assert_same(first, oracle.auto_select(windows[0]))


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


def test_overflowing_scale_is_rejected_without_a_search(monkeypatch):
    """A series whose squares overflow: no CSS fit with coefficients, and selection falls back.

    The CSS objective divides by the series' own sum of squares, inf here,
    so even the zero start scores NaN.  Those fits are rejected before any
    objective call, and auto_select picks the first order without
    coefficients, as the oracle's restarts, all failing, led to.
    """
    big = QuarterlySeries("big", START, 1e160 * np.random.default_rng(5).normal(100.0, 5.0, 16))

    def no_call(self, members, X):
        raise AssertionError("the CSS objective was called")

    monkeypatch.setattr(arima._CssObjective, "__call__", no_call)
    for order in (arima.ArimaOrder(1, 0, 0), arima.ArimaOrder(0, 1, 1, 0, 1, 0)):
        with pytest.raises(NonconvergenceError, match=re.escape(f"order {order}: the sum of squares")):
            fit_arima(big, order)
    best = arima.auto_select(big)
    assert best.order == arima.ArimaOrder(0, 0, 0)
    assert best.aicc == np.inf


def test_admissible_mask_matches_the_factor_tests():
    """The vectorised admissibility test against the scalar factor tests, boundaries included."""
    rng = np.random.default_rng(4)
    values = np.concatenate([rng.uniform(-2.2, 2.2, 500), [-2.0, -1.0, -0.5, -0.0, 0.0, 0.5, 1.0, 2.0]])
    for order in order_grid():
        slots = arima._slots(order)
        for _ in range(40):
            c = np.zeros(6)
            c[slots] = rng.choice(values, size=len(slots))
            phi, theta, sphi, stheta = oracle._split_params(c[slots].tolist(), order)
            expected = oracle._admissible(phi, theta, sphi, stheta)
            assert bool(arima._admissible_mask(c[:, None])[0]) == expected, (order, c)
    # Every pair of edge values in each factor, the others zero: random draws rarely land on an edge.
    edges = values[-8:]
    full = arima.ArimaOrder(2, 0, 2, 1, 0, 1)
    for a in edges:
        for b in edges:
            for slots in ([0, 1], [2, 3], [4], [5]):
                c = np.zeros(6)
                c[slots] = [a, b][: len(slots)]
                expected = oracle._admissible(*oracle._split_params(c.tolist(), full))
                assert bool(arima._admissible_mask(c[:, None])[0]) == expected, c


# Per (d, D) pair, an order with a nonseasonal AR and a seasonal MA term, and
# one with a nonseasonal MA and a seasonal AR term: every lag of both
# recursions and every undone difference carries into the forecasts.
FORECAST_ORDERS = [
    order
    for d, D in itertools.product((0, 1), (0, 1))
    for order in (arima.ArimaOrder(1, d, 0, 0, D, 1), arima.ArimaOrder(0, d, 1, 1, D, 0))
]


@settings(max_examples=15, deadline=None)
@given(series_values)
def test_forecasts_match_oracle_at_every_differencing(values):
    """Forecasts for h = 1..8 of fits at every (d, D) pair have the oracle's bits."""
    s = QuarterlySeries("s", START, values)
    for order, fit in zip(FORECAST_ORDERS, arima._fit_tasks([(s, FORECAST_ORDERS)])):
        assert not isinstance(fit, Exception), (order, fit)
        for h in range(1, 9):
            assert bits(forecast_arima(fit, h)) == bits(oracle.forecast_arima(fit, h)), (order, h)


def test_css_objective_scores_a_wide_batch_as_each_row_alone():
    """One call over 3,000 rows of 24-point series, 90,000 padded cells: every
    value has the bits of that row scored on its own, inadmissible rows included."""
    rng = np.random.default_rng(12)
    grid = [order for order in order_grid() if order.n_coeffs]
    diffs, orders = [], []
    for k in range(12):
        s = QuarterlySeries(f"s{k}", START, 100.0 + np.cumsum(rng.normal(0.0, 3.0, 24)))
        for order, diffed in zip(grid, arima._prepare(s, grid)):
            if not isinstance(diffed, Exception):
                diffs.append(diffed)
                orders.append(order)
    objective = arima._CssObjective(diffs)
    members = rng.integers(0, len(diffs), 3000).astype(np.intp)
    X = np.zeros((members.size, 6))
    for row, i in zip(X, members):
        slots = arima._slots(orders[i])
        row[slots] = rng.uniform(-1.1, 1.1, len(slots))
    assert members.size * objective.Z.shape[0] > 32 * 1024
    batch = objective(members, X)
    alone = [objective(members[i : i + 1], X[i : i + 1])[0] for i in range(members.size)]
    assert np.isfinite(batch).any() and np.isinf(batch).any()
    assert bits(batch) == bits(alone)
