"""The lockstep ETS batch against the frozen scalar fit, bit for bit."""

import re
import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import arima_oracle
import ets_oracle as oracle
from quartercast import (
    FiscalQuarter,
    InsufficientDataError,
    NonconvergenceError,
    QuarterlySeries,
    ValidationError,
    forecast_arima,
)
from quartercast.ets import (
    _N_COLUMNS,
    EtsSpec,
    _FitPlan,
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
    for task, batch in zip(tasks, _FitPlan(tasks).fits()):
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
    for task, batch in zip(tasks, _FitPlan(tasks).fits()):
        assert_same(batch, oracle_or_error(oracle.fit_ets, *task))
    with pytest.raises(ValidationError):
        fit_ets(good, EtsSpec("none", "none"), fixed_alpha=-0.1)
    none_fit, too_short, empty = auto_select_ets_many([(good, [EtsSpec()]), (short, None), (good, [])])
    assert_same(none_fit, oracle.fit_ets(good, EtsSpec()))
    assert str(too_short) == "auto selection needs >= 8 points, have 7"
    assert str(empty) == "no ETS spec admissible on this series"
    with pytest.raises(InsufficientDataError):
        auto_select_ets(short)


@pytest.mark.parametrize("scale", [1e154, 1e200, 1e300])
def test_series_whose_spread_overflows_gives_errors_not_nan(scale):
    """np.std of the series overflows: no ETS fit is made (it would have NaN
    SSE and AICc), fit_ets and auto_select_ets raise fit_ets's error, which
    names the series, and fit_windows records it for ETS and STL, while
    ARIMA keeps its finite fallback."""
    big = QuarterlySeries("big", START, ragged(10, 16).to_array() * scale)
    overflows = "^series 'big': the standard deviation of its values overflows$"
    with pytest.raises(NonconvergenceError, match=overflows):
        fit_ets(big, EtsSpec())
    with pytest.raises(NonconvergenceError, match=overflows):
        auto_select_ets(big)
    arima_fc, ets_fc, stl_fc = fit_windows([big], ForecastCache())[0]
    for error in (ets_fc, stl_fc):
        assert isinstance(error, NonconvergenceError), error
        assert re.match(overflows, str(error)), error
    assert np.all(np.isfinite(arima_fc))


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


@pytest.mark.parametrize("n_points", [1, 6])
def test_objective_leaves_its_points_alone(n_points):
    """A repeated call gives the same bits, and the points are not written to.

    One point is the case that could alias: its transpose is already
    contiguous, so the recursion state would be a view of the caller's row.
    """
    series = QuarterlySeries("s", START, [10.0 + (i % 4) + 0.3 * i for i in range(16)])
    jobs = [_prepare(series, spec, None) for spec in spec_grid()]
    members = np.arange(n_points) % len(jobs)
    X = np.random.default_rng(5).normal(size=(n_points, _N_COLUMNS))
    before = X.copy()
    first = _SseObjective(jobs)(members, X)
    assert bits(X.ravel()) == bits(before.ravel())
    assert bits(_SseObjective(jobs)(members, X)) == bits(first)


def test_objective_scores_a_wide_batch_of_mixed_lengths_as_each_row_alone():
    """One call over 1,500 rows of 8- to 24-point series: every value has the
    bits of that row scored on its own, so masking the ends of the shorter
    series and folding the squared errors act per row."""
    rng = np.random.default_rng(13)
    jobs = [
        _prepare(ragged(20 + n, n), spec, fixed)
        for n in (8, 11, 14, 16, 24)
        for spec in spec_grid()
        for fixed in (None, 0.5)
    ]
    members = rng.integers(0, len(jobs), 1500).astype(np.intp)
    X = np.zeros((members.size, _N_COLUMNS))
    for row, i in zip(X, members):
        row[jobs[i].cols] = rng.uniform(-0.5, 1.0, len(jobs[i].cols))
    objective = _SseObjective(jobs)
    assert objective.live is not None
    batch = objective(members, X)
    alone = [objective(members[i : i + 1], X[i : i + 1])[0] for i in range(members.size)]
    assert np.isfinite(batch).all()
    assert bits(batch) == bits(alone)
