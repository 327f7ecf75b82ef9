"""The values of the regression models' feature rows.

Each row describes one (geography, origin quarter, horizon) forecasting
task: the three univariate forecasts fit on the 16 quarters ending at the
origin, their mean, eight trailing revenue lags, and optional macro
indicator growth features.  Nothing in a row may depend on revenue after
the origin; the target (when present) is the only exception.  The row
type and its column order live in ``rows``.
"""

from __future__ import annotations

import logging

import numpy as np

from .arima import MAX_FORECAST_STEPS, GridPlan, auto_select, auto_select_many, forecast_arima
from .errors import InsufficientDataError, MissingIndicatorError, NonconvergenceError, ValidationError
from .ets import SelectionPlan, forecast_ets
from .fiscal import FiscalQuarter, quarter_add, quarter_diff, quarter_range
from .metrics import yoy_growth
from .rows import MAX_HORIZON, N_LAGS, FeatureConfig, FeatureRow
from .series import Dataset, QuarterlySeries
from .stl import ADJUSTED_SPECS, reseasonalize, seasonal_adjust

log = logging.getLogger(__name__)

WINDOW = 16  # rolling window for the base forecasters


class ForecastCache:
    """Memo of each window's base forecasts, keyed on the exact window values.

    An entry holds, for ARIMA, ETS and STL in that order, the forecasts for
    horizons 1..MAX_HORIZON or the exception that model's fit raised.
    """

    def __init__(self):
        self._store: dict = {}

    def get(self, key):
        return self._store.get(key)

    def put(self, key, value):
        self._store[key] = value


# The fit failures a cache entry records in place of forecasts.
_FIT_ERRORS = (InsufficientDataError, NonconvergenceError)


def _fit_or_error(fit, window):
    try:
        return fit(window)
    except _FIT_ERRORS as exc:
        return exc.with_traceback(None)


def _forecasts(fit, forecast):
    """The fit's forecasts for horizons 1..MAX_HORIZON, or the fit's error."""
    if isinstance(fit, Exception):
        return fit
    return tuple(float(v) for v in forecast(fit, MAX_HORIZON))


def _stl_forecasts(adjusted, fit) -> tuple:
    """STL's forecasts from seasonal_adjust's result and the adjusted series' ETS fit, or the error."""
    if isinstance(fit, Exception):
        return fit
    return tuple(float(v) for v in reseasonalize(adjusted[1], forecast_ets(fit, MAX_HORIZON)))


def fit_windows(windows, cache: ForecastCache | None = None) -> list:
    """The cache entries of the windows, fitting every window not cached yet.

    The ETS specs of every uncached window and the STL specs of its
    seasonally adjusted copy are selected together (one ``SelectionPlan``:
    a search run and a polish run), then the ARIMA order grids of the
    windows (one ``GridPlan`` run), so a call makes three lockstep runs
    however many windows it fits.  STL's decomposition and
    re-seasonalizing run window by window around them.
    A model whose fit fails is recorded as its exception: Model 1 drops
    that candidate, a feature row raises it.  Returns the entries in the
    order of ``windows``.
    """
    if cache is None:
        cache = ForecastCache()
    fresh: dict = {}
    for window in windows:
        if window.values not in fresh and cache.get(window.values) is None:
            fresh[window.values] = window
    fresh_windows = list(fresh.values())
    if not fresh_windows:
        return [cache.get(window.values) for window in windows]
    adjusted = [_fit_or_error(seasonal_adjust, window) for window in fresh_windows]
    ets_selected = SelectionPlan(
        [(window, None) for window in fresh_windows]
        + [(adj[0], ADJUSTED_SPECS) for adj in adjusted if not isinstance(adj, Exception)]
    ).select()
    arima_fits = GridPlan(fresh_windows).select()
    fits = iter(ets_selected)
    ets_fits = [next(fits) for _ in fresh_windows]
    for window, arima_fit, ets_fit, adj in zip(fresh_windows, arima_fits, ets_fits, adjusted):
        stl_fit = adj if isinstance(adj, Exception) else next(fits)
        cache.put(
            window.values,
            (
                _forecasts(arima_fit, forecast_arima),
                _forecasts(ets_fit, forecast_ets),
                _stl_forecasts(adj, stl_fit),
            ),
        )
    return [cache.get(window.values) for window in windows]


def _window(series: QuarterlySeries, origin: FiscalQuarter, h: int) -> QuarterlySeries:
    """The window a horizon-h forecast from origin is fit on: the 16 quarters ending at origin."""
    if not 1 <= h <= MAX_HORIZON:
        raise ValidationError(f"horizon must be in 1..{MAX_HORIZON}, got {h}")
    return series.window(origin, WINDOW)


def _at_horizon(entry, h: int) -> tuple[float, float, float]:
    """A cache entry's (arima, ets, stl) forecasts at horizon h; raises the first model's fit error."""
    for value in entry:
        if isinstance(value, Exception):
            raise value.with_traceback(None)
    arima_v, ets_v, stl_v = entry
    return arima_v[h - 1], ets_v[h - 1], stl_v[h - 1]


def base_forecasts(
    series: QuarterlySeries,
    origin: FiscalQuarter,
    h: int,
    cache: ForecastCache | None = None,
) -> tuple[float, float, float]:
    """(arima, ets, stl) forecasts at horizon h from the 16 quarters ending at origin."""
    return _at_horizon(fit_windows([_window(series, origin, h)], cache)[0], h)


def macro_features(
    dataset: Dataset,
    geo: str,
    origin: FiscalQuarter,
    target_quarter: FiscalQuarter,
    config: FeatureConfig,
    indicator_series: dict[tuple[str, str], QuarterlySeries] | None = None,
) -> tuple[tuple[str, float], ...]:
    """Ordered (name, value) macro growth features for one row.

    ``indicator_series`` overrides the dataset's indicator map; test-time
    callers pass series extended with forecast values there.  An indicator
    that lacks a quarter its growth reads raises MissingIndicatorError.
    """
    by_indicator = config.macro_source == "indicator"
    reads = [("origin", origin)] if config.macro_at_origin else []
    if config.macro_at_target and by_indicator:
        reads.append(("target", target_quarter))
    out = []
    for cfg in config.indicators:
        if not config.applies_to(cfg, geo):
            continue
        if not by_indicator:
            src = dataset.series_for(geo)
        elif indicator_series is not None and (geo, cfg.indicator_id) in indicator_series:
            src = indicator_series[(geo, cfg.indicator_id)]
        else:
            src = dataset.indicator_for(geo, cfg.indicator_id)
        for name, fq in reads:
            prev_q = quarter_add(fq, -4)
            if by_indicator and not (prev_q in src and fq in src):
                raise MissingIndicatorError(
                    f"indicator {cfg.indicator_id!r} for geography {geo!r} does not cover both "
                    f"{prev_q} and {fq}, the quarters of its year-over-year growth at {fq}"
                )
            out.append((f"{cfg.indicator_id}_yoy_{name}", yoy_growth(src, fq)))
    return tuple(out)


def _plan_row(dataset, geo, origin, h, config, training=False, indicator_series=None):
    """(window, fields): a row's window and every field of the row but its
    base forecasts.  It makes every check of the row and no fit, so it
    raises what building the row raises, except a fit's error."""
    series = dataset.series_for(geo)
    target_q = quarter_add(origin, h)
    window = _window(series, origin, h)

    lag_shift = 0 if config.lag_includes_origin else 1
    lags = []
    for k in range(1, N_LAGS + 1):
        fq = quarter_add(origin, 1 - k - lag_shift)
        if fq not in series:
            raise InsufficientDataError(f"{geo}: lag quarter {fq} not in history")
        lags.append(series.value_at(fq))

    macro = macro_features(dataset, geo, origin, target_q, config, indicator_series)

    target = None
    if training:
        if target_q not in series:
            raise InsufficientDataError(f"{geo}: training target {target_q} not in history")
        target = series.value_at(target_q)

    return window, dict(
        geo=geo, origin=origin, horizon=h, target_quarter=target_q, lags=tuple(lags), macro=macro, target=target
    )


def _fit_rows(plans, cache: ForecastCache | None) -> list[FeatureRow]:
    """The rows of ``_plan_row`` plans, their windows fit in one ``fit_windows`` call."""
    rows = []
    for (_, fields), entry in zip(plans, fit_windows([window for window, _ in plans], cache)):
        a_fc, e_fc, s_fc = _at_horizon(entry, fields["horizon"])
        avg = (a_fc + e_fc + s_fc) / 3.0
        rows.append(FeatureRow(arima_fc=a_fc, ets_fc=e_fc, stl_fc=s_fc, avg_ts_fc=avg, **fields))
    return rows


def build_row(
    dataset: Dataset,
    geo: str,
    origin: FiscalQuarter,
    h: int,
    config: FeatureConfig = FeatureConfig(),
    training: bool = False,
    indicator_series: dict[tuple[str, str], QuarterlySeries] | None = None,
    cache: ForecastCache | None = None,
) -> FeatureRow:
    """One feature row; raises InsufficientDataError when history is short."""
    return _fit_rows([_plan_row(dataset, geo, origin, h, config, training, indicator_series)], cache)[0]


def _training_plans(dataset, train_range, config) -> list[tuple[QuarterlySeries, dict]]:
    """The plans of every series' horizon 1..4 rows whose target is in range.

    A row with too little history is skipped with a warning; a range with
    no row left raises InsufficientDataError.
    """
    first_target, last_target = train_range
    if last_target < first_target:
        raise ValidationError(f"training range end {last_target} precedes start {first_target}")
    plans = []
    skipped = 0
    for geo in dataset.series_ids():
        for h in range(1, MAX_HORIZON + 1):
            for target in quarter_range(first_target, last_target):
                try:
                    plans.append(_plan_row(dataset, geo, quarter_add(target, -h), h, config, training=True))
                except InsufficientDataError:
                    skipped += 1
    if skipped:
        log.warning("skipped %d training rows with insufficient history", skipped)
    if not plans:
        raise InsufficientDataError("no training rows could be built for the given range")
    return plans


def build_training_matrix(
    dataset: Dataset,
    train_range: tuple[FiscalQuarter, FiscalQuarter],
    config: FeatureConfig = FeatureConfig(),
    cache: ForecastCache | None = None,
) -> list[FeatureRow]:
    """Rows for every series, horizon 1..4, and origin whose target is in range."""
    return _fit_rows(_training_plans(dataset, train_range, config), cache)


def forecast_indicator(indicator: QuarterlySeries, h_max: int) -> np.ndarray:
    """ARIMA forecasts used to extend an indicator past its known history."""
    fit = auto_select(indicator)
    return forecast_arima(fit, h_max)


def _indicator_histories(dataset, config, known_through, needed_through) -> tuple[dict, list]:
    """``extend_indicators``' checks, with no fit: each enabled indicator
    truncated at ``known_through``, and the (key, steps) of those to extend."""
    out: dict[tuple[str, str], QuarterlySeries] = {}
    short = []
    for cfg in config.indicators:
        ind = cfg.indicator_id
        for geo in dataset.series_ids():
            if (geo, ind) in out or not config.applies_to(cfg, geo):
                continue
            series = dataset.indicator_for(geo, ind)
            if series.start > known_through:
                raise MissingIndicatorError(
                    f"indicator {ind!r} for geography {geo!r} starts in {series.start}, after "
                    f"{known_through}, the last quarter known when the forest is trained"
                )
            hist = out[(geo, ind)] = series.truncated(min(series.end, known_through))
            steps = quarter_diff(needed_through, hist.end)
            if steps > MAX_FORECAST_STEPS:
                raise MissingIndicatorError(
                    f"indicator {ind!r} for geography {geo!r} is known through {hist.end} but is "
                    f"needed through {needed_through}: {steps} quarters, more than the "
                    f"{MAX_FORECAST_STEPS} an ARIMA extension forecasts"
                )
            if steps > 0:
                short.append(((geo, ind), steps))
    return out, short


def extend_indicators(
    dataset: Dataset,
    config: FeatureConfig,
    known_through: FiscalQuarter,
    needed_through: FiscalQuarter,
) -> dict[tuple[str, str], QuarterlySeries]:
    """Truncate indicators at ``known_through`` and extend them with forecasts.

    Mirrors the test-time protocol: indicator actuals after the training
    period are treated as unavailable and replaced by ARIMA forecasts.  The
    ARIMA grids of all indicators that need extending are fit in one run.
    An enabled indicator that is absent for a series it applies to, that
    starts after ``known_through``, or that would need more than
    MAX_FORECAST_STEPS forecast quarters, raises MissingIndicatorError
    before any fit.
    """
    out, short = _indicator_histories(dataset, config, known_through, needed_through)
    fits = auto_select_many([out[key] for key, _ in short])
    for (key, steps), fit in zip(short, fits):
        if isinstance(fit, Exception):
            raise fit
        out[key] = out[key].extended(forecast_arima(fit, steps))
    return out
