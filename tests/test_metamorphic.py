"""Metamorphic checks: relations between runs on transformed inputs, bit for bit.

- Moving every quarter by whole fiscal years keeps every seasonal phase, so
  the m1, m2 and m3 backtests give bit-equal forecasts.
- Multiplying by 2**k is exact in binary floating point, and the ETS and
  STL fits, the forest and Model 1's selection are scale-equivariant, so
  each layer's outputs scale by exactly 2**k.  ARIMA is left out: its
  chosen order depends on the unit, since AICc compares differencing
  orders.

The data are the CI smoke config's: 2 geographies, seed 1, train
2013Q1-2014Q4, test 2015Q1-2015Q4, 5 trees.  The shifted and scaled runs
fit on fresh caches, whose keys are window values, so that every fit
runs again.
"""

import math
import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from quartercast import (
    Dataset,
    FeatureConfig,
    FiscalQuarter,
    ForecastCache,
    ForestParams,
    IndicatorConfig,
    QuarterlySeries,
    SynthSpec,
    backtest,
    build_training_matrix,
    fit_windows,
    generate_synthetic,
    model_config,
    parse_quarter,
    predict_forest,
    quarter_add,
    train_forest,
)
from quartercast.pipeline import _model1_plan, _model1_select
from quartercast.rows import feature_names, rows_to_matrix

TRAIN = (parse_quarter("2013Q1"), parse_quarter("2014Q4"))
TEST = (parse_quarter("2015Q1"), parse_quarter("2015Q4"))
CONFIG = FeatureConfig(indicators=(IndicatorConfig("indicator"),))
FOREST = ForestParams(n_trees=5, seed=1)

# Values reach about 300, so 2**k for |k| <= 30 keeps every square, and
# every quantity the fits scale, far from overflow and from subnormals.
powers = st.integers(min_value=-30, max_value=30)


def bits(values):
    return [struct.pack("<d", float(v)) for v in values]


@pytest.fixture(scope="module")
def smoke():
    return generate_synthetic(SynthSpec(n_geos=2, seed=1))


@pytest.fixture(scope="module")
def cache():
    return ForecastCache()


def shifted(series: QuarterlySeries, years: int) -> QuarterlySeries:
    start = FiscalQuarter(series.start.year + years, series.start.quarter)
    return QuarterlySeries(series.id, start, series.values)


def shifted_range(quarters, years: int):
    return tuple(FiscalQuarter(q.year + years, q.quarter) for q in quarters)


def forecasts(report):
    """Every (geo, horizon) cell's forecasts, oldest target first, and its MAPE."""
    return {key: (bits(d.forecast for d in cell.details), bits([cell.mape])) for key, cell in report.cells.items()}


@pytest.mark.parametrize("model", ["m1", "m2", "m3"])
def test_whole_year_shift_keeps_every_forecast(model, smoke, cache):
    years = 3
    moved = Dataset.build(
        {geo: shifted(s, years) for geo, s in smoke.revenue.items()},
        total=shifted(smoke.total, years),
        indicators={key: shifted(s, years) for key, s in smoke.indicators.items()},
    )
    forest = FOREST if model != "m1" else None
    base = backtest(smoke, model, TRAIN, TEST, forest, CONFIG, cache=cache)
    moved_report = backtest(
        moved, model, shifted_range(TRAIN, years), shifted_range(TEST, years), forest, CONFIG,
        cache=ForecastCache(),
    )
    assert forecasts(moved_report) == forecasts(base)
    for key, cell in base.cells.items():
        targets = [FiscalQuarter(d.target.year + years, d.target.quarter) for d in cell.details]
        assert [d.target for d in moved_report.cells[key].details] == targets


def scaled(series: QuarterlySeries, k: int) -> QuarterlySeries:
    return QuarterlySeries(series.id, series.start, [math.ldexp(v, k) for v in series.values])


def scaled_entry(entry, k: int):
    return tuple(value if isinstance(value, Exception) else tuple(math.ldexp(v, k) for v in value) for value in entry)


@pytest.fixture(scope="module")
def windows(smoke):
    """One 14-quarter (Model 1) and one 16-quarter (Models 2 and 3) window of every series."""
    end = TRAIN[1]
    return [smoke.series_for(sid).window(end, n) for sid in smoke.series_ids() for n in (14, 16)]


@settings(max_examples=4, deadline=None)
@given(k=powers)
def test_ets_and_stl_fits_scale_exactly(k, windows, cache):
    base = fit_windows(windows, cache)
    for window, entry, entry_scaled in zip(windows, base, fit_windows([scaled(w, k) for w in windows])):
        for name, value, expected in zip(("ets", "stl"), entry_scaled[1:], scaled_entry(entry, k)[1:]):
            assert not isinstance(value, Exception), (window, name, value)
            assert bits(value) == bits(expected), (window, name, k)


@pytest.fixture(scope="module")
def training(smoke, cache):
    """The m3 training matrix of the smoke data, and which of its columns are levels."""
    config = model_config("m3", CONFIG)
    rows = build_training_matrix(smoke, TRAIN, config, cache)
    names = feature_names(smoke.series_ids(), config)
    X, y = rows_to_matrix(rows, smoke.series_ids(), config)
    level = np.asarray([name.startswith("lag_") or name.endswith("_fc") for name in names])
    assert level.sum() == 12 and not level.all()
    return X, y, level


@settings(max_examples=6, deadline=None)
@given(k=powers)
def test_forest_scales_exactly(k, training):
    X, y, level = training
    Xk = X.copy()
    Xk[:, level] = np.ldexp(X[:, level], k)
    forest = train_forest(X, y, ForestParams(n_trees=20, seed=7))
    forest_k = train_forest(Xk, np.ldexp(y, k), ForestParams(n_trees=20, seed=7))
    expected = [math.ldexp(predict_forest(forest, row), k) for row in X]
    assert bits(predict_forest(forest_k, row) for row in Xk) == bits(expected)


@settings(max_examples=10, deadline=None)
@given(k=powers)
def test_model1_selection_scales_exactly(k, smoke, cache):
    for sid in smoke.series_ids():
        for origin in (quarter_add(TEST[0], -1), quarter_add(TEST[1], -1)):
            windows, actuals = _model1_plan(smoke.series_for(sid), origin)
            entries = fit_windows(windows, cache)
            base = _model1_select(entries, actuals, origin, True)
            result = _model1_select(
                [scaled_entry(entry, k) for entry in entries], [math.ldexp(a, k) for a in actuals], origin, True
            )
            assert result.chosen == base.chosen
            assert bits([result.forecast]) == bits([math.ldexp(base.forecast, k)])
            for name, candidate in base.candidates.items():
                got = result.candidates[name]
                assert bits([got.forecast, got.trailing_mape]) == bits(
                    [math.ldexp(candidate.forecast, k), candidate.trailing_mape]
                )
