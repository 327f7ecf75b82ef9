"""Feature rows for the regression models.

Each row describes one (geography, origin quarter, horizon) forecasting
task: the three univariate forecasts fit on the 16 quarters ending at the
origin, their mean, eight trailing revenue lags, and optional macro
indicator growth features.  Nothing in a row may depend on revenue after
the origin; the target (when present) is the only exception.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass

import numpy as np

from ._optim import run_plans
from .arima import MAX_FORECAST_STEPS, GridPlan, auto_select, auto_select_many, forecast_arima
from .errors import (
    InsufficientDataError,
    MissingIndicatorError,
    NonconvergenceError,
    UnknownGeographyError,
    ValidationError,
)
from .ets import SelectionPlan, forecast_ets
from .fiscal import FiscalQuarter, quarter_add, quarter_diff, quarter_range
from .metrics import yoy_growth
from .series import Dataset, QuarterlySeries
from .stl import ADJUSTED_SPECS, reseasonalize, seasonal_adjust

log = logging.getLogger(__name__)

WINDOW = 16  # rolling window for the base forecasters
N_LAGS = 8
MAX_HORIZON = 4


@dataclass(frozen=True)
class IndicatorConfig:
    """One enabled macro indicator and the geographies it applies to."""

    indicator_id: str
    geos: tuple[str, ...] | None = None  # None: every modeled series


@dataclass(frozen=True)
class FeatureConfig:
    indicators: tuple[IndicatorConfig, ...] = ()
    macro_at_origin: bool = True
    macro_at_target: bool = True
    # "indicator": YoY growth of the indicator series (default reading).
    # "revenue": YoY growth of the revenue series itself at the origin;
    # the target-quarter variant is suppressed in this mode because it
    # would require the value being forecast.
    macro_source: str = "indicator"
    # True: lag 1 is revenue at the origin itself (through lag 8 = origin-7).
    # False: lag 1 is revenue one quarter before the origin.
    lag_includes_origin: bool = True

    def __post_init__(self):
        if self.macro_source not in ("indicator", "revenue"):
            raise ValidationError(f"macro_source must be 'indicator' or 'revenue', got {self.macro_source!r}")

    def macro_feature_names(self) -> list[str]:
        names = []
        for cfg in self.indicators:
            if self.macro_at_origin:
                names.append(f"{cfg.indicator_id}_yoy_origin")
            if self.macro_at_target and self.macro_source == "indicator":
                names.append(f"{cfg.indicator_id}_yoy_target")
        return names

    def applies_to(self, cfg: IndicatorConfig, geo: str) -> bool:
        return cfg.geos is None or geo in cfg.geos


@dataclass(frozen=True)
class FeatureRow:
    geo: str
    origin: FiscalQuarter
    horizon: int
    target_quarter: FiscalQuarter
    arima_fc: float
    ets_fc: float
    stl_fc: float
    avg_ts_fc: float
    lags: tuple[float, ...]
    macro: tuple[tuple[str, float], ...] = ()
    target: float | None = None


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

    The ARIMA order grids of all uncached windows, the ETS specs of every
    window and the STL specs of every window's seasonally adjusted copy
    are fit in one lockstep run (``run_plans``), the ETS searches first;
    STL's decomposition and re-seasonalizing run window by window around
    it.  A model whose fit fails is recorded as its exception: Model 1
    drops that candidate, a feature row raises it.  Returns the entries in
    the order of ``windows``.
    """
    if cache is None:
        cache = ForecastCache()
    fresh: dict = {}
    for window in windows:
        if window.values not in fresh and cache.get(window.values) is None:
            fresh[window.values] = window
    fresh_windows = list(fresh.values())
    adjusted = [_fit_or_error(seasonal_adjust, window) for window in fresh_windows]
    ets_plan = SelectionPlan(
        [(window, None) for window in fresh_windows]
        + [(adj[0], ADJUSTED_SPECS) for adj in adjusted if not isinstance(adj, Exception)]
    )
    arima_plan = GridPlan(fresh_windows)
    ets_searched, arima_searched = run_plans([ets_plan, arima_plan])
    arima_fits = arima_plan.results(*arima_searched)
    fits = iter(ets_plan.results(*ets_searched))
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


def row_windows(dataset: Dataset, origins) -> list[QuarterlySeries]:
    """The feature windows of (geo, origin) rows, skipping rows with too little history.

    A skipped row raises InsufficientDataError when it is built, exactly as
    it would without this listing.
    """
    windows = []
    for geo, origin in origins:
        try:
            windows.append(dataset.series_for(geo).window(origin, WINDOW))
        except InsufficientDataError:
            continue
    return windows


def base_forecasts(
    series: QuarterlySeries,
    origin: FiscalQuarter,
    h: int,
    cache: ForecastCache | None = None,
) -> tuple[float, float, float]:
    """(arima, ets, stl) forecasts at horizon h from the 16 quarters ending at origin."""
    if not 1 <= h <= MAX_HORIZON:
        raise ValidationError(f"horizon must be in 1..{MAX_HORIZON}, got {h}")
    window = series.window(origin, WINDOW)
    entry = fit_windows([window], cache)[0]
    for value in entry:  # the first model whose fit failed, as when fits ran here
        if isinstance(value, Exception):
            raise value.with_traceback(None)
    arima_v, ets_v, stl_v = entry
    return arima_v[h - 1], ets_v[h - 1], stl_v[h - 1]


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
    callers pass series extended with forecast values there.
    """
    out = []
    for cfg in config.indicators:
        if not config.applies_to(cfg, geo):
            continue
        if config.macro_source == "revenue":
            src = dataset.series_for(geo)
        elif indicator_series is not None and (geo, cfg.indicator_id) in indicator_series:
            src = indicator_series[(geo, cfg.indicator_id)]
        else:
            src = dataset.indicator_for(geo, cfg.indicator_id)
        if config.macro_at_origin:
            out.append((f"{cfg.indicator_id}_yoy_origin", yoy_growth(src, origin)))
        if config.macro_at_target and config.macro_source == "indicator":
            out.append((f"{cfg.indicator_id}_yoy_target", yoy_growth(src, target_quarter)))
    return tuple(out)


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
    series = dataset.series_for(geo)
    target_q = quarter_add(origin, h)
    a_fc, e_fc, s_fc = base_forecasts(series, origin, h, cache)
    avg = (a_fc + e_fc + s_fc) / 3.0

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

    return FeatureRow(
        geo=geo,
        origin=origin,
        horizon=h,
        target_quarter=target_q,
        arima_fc=a_fc,
        ets_fc=e_fc,
        stl_fc=s_fc,
        avg_ts_fc=avg,
        lags=tuple(lags),
        macro=macro,
        target=target,
    )


def _training_origins(dataset: Dataset, train_range):
    """(geo, horizon, origin) of every training row, in row order."""
    first_target, last_target = train_range
    for geo in dataset.series_ids():
        for h in range(1, MAX_HORIZON + 1):
            for target in quarter_range(first_target, last_target):
                yield geo, h, quarter_add(target, -h)


def training_windows(
    dataset: Dataset, train_range: tuple[FiscalQuarter, FiscalQuarter]
) -> list[QuarterlySeries]:
    """The windows build_training_matrix fits for the range."""
    return row_windows(dataset, ((geo, origin) for geo, _, origin in _training_origins(dataset, train_range)))


def build_training_matrix(
    dataset: Dataset,
    train_range: tuple[FiscalQuarter, FiscalQuarter],
    config: FeatureConfig = FeatureConfig(),
    cache: ForecastCache | None = None,
) -> list[FeatureRow]:
    """Rows for every series, horizon 1..4, and origin whose target is in range."""
    first_target, last_target = train_range
    if last_target < first_target:
        raise ValidationError(f"training range end {last_target} precedes start {first_target}")
    if cache is None:
        cache = ForecastCache()
    fit_windows(training_windows(dataset, train_range), cache)
    rows: list[FeatureRow] = []
    skipped = 0
    for geo, h, origin in _training_origins(dataset, train_range):
        try:
            rows.append(build_row(dataset, geo, origin, h, config, training=True, cache=cache))
        except InsufficientDataError:
            skipped += 1
    if skipped:
        log.warning("skipped %d training rows with insufficient history", skipped)
    if not rows:
        raise InsufficientDataError("no training rows could be built for the given range")
    return rows


def forecast_indicator(indicator: QuarterlySeries, h_max: int) -> np.ndarray:
    """ARIMA forecasts used to extend an indicator past its known history."""
    fit = auto_select(indicator)
    return forecast_arima(fit, h_max)


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
    An indicator that would need more than MAX_FORECAST_STEPS forecast
    quarters raises MissingIndicatorError before any fit.
    """
    out: dict[tuple[str, str], QuarterlySeries] = {}
    short = []
    for (geo, ind), series in dataset.indicators.items():
        enabled = any(
            cfg.indicator_id == ind and config.applies_to(cfg, geo) for cfg in config.indicators
        )
        if not enabled:
            continue
        cut = min(series.end, known_through)
        hist = series.truncated(cut)
        out[(geo, ind)] = hist
        steps = quarter_diff(needed_through, hist.end)
        if steps > MAX_FORECAST_STEPS:
            raise MissingIndicatorError(
                f"indicator {ind!r} for geography {geo!r} is known through {hist.end} but is "
                f"needed through {needed_through}: {steps} quarters, more than the "
                f"{MAX_FORECAST_STEPS} an ARIMA extension forecasts"
            )
        if steps > 0:
            short.append(((geo, ind), steps))
    fits = auto_select_many([out[key] for key, _ in short])
    for (key, steps), fit in zip(short, fits):
        if isinstance(fit, Exception):
            raise fit
        out[key] = out[key].extended(forecast_arima(fit, steps))
    return out


def feature_names(series_ids: list[str], config: FeatureConfig) -> list[str]:
    """Canonical column order; macro columns always come last."""
    names = ["horizon"]
    names += [f"lag_{k}" for k in range(1, N_LAGS + 1)]
    names += ["arima_fc", "ets_fc", "stl_fc", "avg_ts_fc"]
    names += [f"geo_{g}" for g in series_ids]
    names += config.macro_feature_names()
    return names


def row_vector(row: FeatureRow, series_ids: list[str], config: FeatureConfig) -> np.ndarray:
    if row.geo not in series_ids:
        raise UnknownGeographyError(f"geography {row.geo!r} was not in the training set")
    vec = [float(row.horizon)]
    vec += list(row.lags)
    vec += [row.arima_fc, row.ets_fc, row.stl_fc, row.avg_ts_fc]
    vec += [1.0 if row.geo == g else 0.0 for g in series_ids]
    macro = dict(row.macro)
    for name in config.macro_feature_names():
        if name not in macro:
            raise ValidationError(f"row for {row.geo} at {row.origin} lacks macro feature {name!r}")
        vec.append(macro[name])
    return np.asarray(vec, dtype=float)


def rows_to_matrix(
    rows: list[FeatureRow], series_ids: list[str], config: FeatureConfig
) -> tuple[np.ndarray, np.ndarray]:
    """Training matrix (X, y); every row must carry a target."""
    if not rows:
        raise ValidationError("no rows to assemble")
    X = np.vstack([row_vector(r, series_ids, config) for r in rows])
    y = np.asarray([r.target for r in rows], dtype=float)
    if not np.all(np.isfinite(y)):
        raise ValidationError("some rows are missing targets")
    return X, y
