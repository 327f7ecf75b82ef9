"""The lockstep ETS batch against the frozen scalar fit, bit for bit."""

import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import arima_oracle
import ets_oracle as oracle
from quartercast import FiscalQuarter, InsufficientDataError, QuarterlySeries, ValidationError, forecast_arima
from quartercast.ets import (
    EtsSpec,
    _fit_many,
    _prepare,
    _SseObjective,
    auto_select_ets,
    auto_select_ets_many,
    fit_ets,
    forecast_ets,
    spec_grid,
)
from quartercast.features import ForecastCache, fit_windows
from quartercast.stl import ADJUSTED_SPECS, seasonal_adjust

START = FiscalQuarter(2009, 1)


def bits(values):
    return [struct.pack("<d", float(v)) for v in values]


def fit_bits(fit):
    """Every float of a fit, as bytes, with absent components marked None."""
    out = []
    for value in (
        fit.alpha, fit.beta, fit.gamma, fit.phi_damp, fit.initial_level, fit.initial_trend,
        *(fit.initial_seasonal or (None,)), fit.sse, fit.aicc, fit.final_level, fit.final_trend,
        *(fit.final_seasonal or (None,)),
    ):
        out.append(None if value is None else struct.pack("<d", float(value)))
    return out


def oracle_or_error(fn, *args, **kwargs):
    try:
        return fn(*args, **kwargs)
    except (InsufficientDataError, ValidationError) as exc:
        return exc


def assert_same(batch, scalar):
    if isinstance(scalar, Exception):
        assert type(batch) is type(scalar) and str(batch) == str(scalar)
        return
    assert not isinstance(batch, Exception), batch
    assert batch.spec == scalar.spec
    assert batch.training_series is scalar.training_series
    assert fit_bits(batch) == fit_bits(scalar)
    assert bits(forecast_ets(batch, 4)) == bits(forecast_ets(scalar, 4))


def ragged(seed, n):
    rng = np.random.default_rng(seed)
    y = 50 + np.cumsum(rng.standard_normal(n)) + np.tile([3.0, 0.0, -3.0, 1.0], 7)[:n]
    return QuarterlySeries(f"s{seed}", START, y)


values = st.floats(min_value=-1e4, max_value=1e4, allow_nan=False, allow_infinity=False)
series_values = st.lists(values, min_size=8, max_size=24)
alphas = st.sampled_from([None, 0.0, 0.5, 1.0])


@settings(max_examples=6, deadline=None)
@given(
    st.lists(
        st.tuples(series_values, st.lists(alphas, min_size=6, max_size=6)),
        min_size=1,
        max_size=4,
    )
)
def test_batch_matches_scalar_fits(draws):
    """Every spec of 1-4 series of mixed lengths in one batch: each fit has the scalar's bits."""
    tasks = []
    for k, (ys, fixed) in enumerate(draws):
        series = QuarterlySeries(f"s{k}", START, ys)
        tasks += [(series, spec, a) for spec, a in zip(spec_grid(), fixed)]
    for task, batch in zip(tasks, _fit_many(tasks)):
        assert_same(batch, oracle_or_error(oracle.fit_ets, *task))


def test_selection_and_stl_match_scalar():
    """auto_select_ets_many over full grids and STL's adjusted series, and the cached forecasts."""
    windows = [ragged(1, 16), ragged(2, 14), ragged(3, 9)]
    adjusted = [seasonal_adjust(w)[0] for w in windows]
    tasks = [(w, None) for w in windows] + [(a, ADJUSTED_SPECS) for a in adjusted]
    for (series, specs), batch in zip(tasks, auto_select_ets_many(tasks)):
        assert_same(batch, oracle.auto_select_ets(series, None if specs is None else list(specs)))
    entries = fit_windows(windows, ForecastCache())
    for window, (_, ets_fc, stl_fc) in zip(windows, entries):
        assert bits(ets_fc) == bits(forecast_ets(oracle.auto_select_ets(window), 4))
        assert bits(stl_fc) == bits(oracle.stlf_forecast(window, 4))


def test_fit_windows_mixes_kinds_lengths_and_errors():
    """One fit_windows call, so one lockstep run holding ARIMA, ETS and STL
    searches: 14- and 16-quarter windows, and a 7-quarter one on which every
    fit raises InsufficientDataError (no seasonal fit, no STL decomposition,
    no ARIMA grid).  Each cached forecast has the oracle's bits and each
    error entry is the oracle's error."""
    windows = [ragged(5, 14), ragged(6, 16), ragged(7, 7), ragged(8, 14), ragged(9, 16)]
    entries = fit_windows(windows, ForecastCache())
    for window, entry in zip(windows, entries):
        expected = (
            oracle_or_error(lambda w: forecast_arima(arima_oracle.auto_select(w), 4), window),
            oracle_or_error(lambda w: forecast_ets(oracle.auto_select_ets(w), 4), window),
            oracle_or_error(oracle.stlf_forecast, window, 4),
        )
        for got, want in zip(entry, expected):
            if isinstance(want, Exception):
                assert type(got) is type(want) and str(got) == str(want)
            else:
                assert bits(got) == bits(want)
    assert all(isinstance(value, InsufficientDataError) for value in entries[2])
    assert not any(isinstance(value, Exception) for e in entries[:2] + entries[3:] for value in e)


def test_errors_match_scalar_and_leave_the_rest_alone():
    short = QuarterlySeries("short", START, [1.0] * 7)
    good = ragged(4, 12)
    tasks = [
        (short, EtsSpec("none", "none"), None),
        (good, EtsSpec("additive", "additive"), 1.5),
        (good, EtsSpec("additive-damped", "additive"), None),
        (good, EtsSpec("none", "none"), 0.0),
    ]
    for task, batch in zip(tasks, _fit_many(tasks)):
        assert_same(batch, oracle_or_error(oracle.fit_ets, *task))
    with pytest.raises(ValidationError):
        fit_ets(good, EtsSpec("none", "none"), fixed_alpha=-0.1)
    none_fit, too_short, empty = auto_select_ets_many([(good, [EtsSpec()]), (short, None), (good, [])])
    assert_same(none_fit, oracle.fit_ets(good, EtsSpec()))
    assert str(too_short) == "auto selection needs >= 8 points, have 7"
    assert str(empty) == "no ETS spec admissible on this series"
    with pytest.raises(InsufficientDataError):
        auto_select_ets(short)


def test_clip_distance_squares_with_pow():
    """The clip distance squares as Python's ``** 2`` does (libm pow), not as ``d * d``.

    On a constant series at level 0 the SSE is 0, so the objective value
    is the drift itself and a one-ulp difference in the square shows.
    """
    raw_alpha = 1.0877043818914058
    d = raw_alpha - 0.9999
    assert d**2 != d * d  # glibc's pow rounds this square differently from d * d
    series = QuarterlySeries("c", START, [5.0] * 10)
    spec = EtsSpec("none", "none")
    job = _prepare(series, spec, None)
    raw = [raw_alpha, 0.0]
    params = oracle._clip_params(spec, raw)
    sse = oracle._run_recursion(job.z.tolist(), spec, *params)[0]
    drift = (raw[0] - params[0]) ** 2
    point = np.zeros((1, 9))
    point[0, job.cols] = raw
    value = _SseObjective([job])(np.zeros(1, dtype=np.intp), point)[0]
    assert sse == 0.0
    assert bits([value]) == bits([sse * (1.0 + drift) + drift]) == bits([d**2])
