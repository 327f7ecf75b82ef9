"""The three forecasting models, rolling-origin backtesting, and comparisons.

Model 1 refits ARIMA/ETS/STL on a 14-quarter window, backtests each over
the four most recent quarters, and reports the forecast of whichever had
the lowest realized one-step MAPE.  Model 2 trains one regression forest
over all geographies and horizons on 16-quarter-window features.  Model 3
is Model 2 plus macro indicator growth features, with indicator futures
supplied by ARIMA.

Backtests advance the forecast origin through the test period, revealing
actuals progressively: with a 4-quarter test year, horizon k collects
5-k absolute percentage errors (quarters k..4 of the year).
"""

from __future__ import annotations

import hashlib
import json
import logging
from dataclasses import dataclass, field

from .errors import NonconvergenceError, SchemaMismatchError, ValidationError
from .features import (
    ForecastCache, _fit_rows, _indicator_histories, _plan_row, _training_plans, extend_indicators, fit_windows,
)
from .fiscal import FiscalQuarter, quarter_add, quarter_range
from .forest import ForestParams, check_mtry, predict_forest, train_forest
from .metrics import ape, mape, relative_improvement
from .reports import ApeDetail, ComparisonTable, EvaluationReport, HorizonCell
from .rows import MAX_HORIZON, FeatureConfig, feature_names, row_vector, rows_to_matrix
from .series import Dataset, QuarterlySeries

log = logging.getLogger(__name__)

MODEL1_WINDOW = 14
MODEL1_EVAL_QUARTERS = 4

# Selection priority doubles as the tie-break order.
MODEL1_CANDIDATES = ("arima", "ets", "stl", "average")


@dataclass(frozen=True)
class Model1Candidate:
    forecast: float
    trailing_mape: float


@dataclass(frozen=True)
class Model1Result:
    forecast: float
    chosen: str
    candidates: dict[str, Model1Candidate]


def _model1_plan(series: QuarterlySeries, origin: FiscalQuarter) -> tuple[list[QuarterlySeries], list[float]]:
    """The 14-quarter windows Model 1 fits at origin (one before each of the
    four evaluation quarters, then the one ending at origin) and the
    evaluation quarters' actuals, oldest first.

    Raises InsufficientDataError without 14 + 4 quarters of history.
    """
    series.window(origin, MODEL1_WINDOW + MODEL1_EVAL_QUARTERS)  # history check
    quarters = [quarter_add(origin, -k) for k in range(MODEL1_EVAL_QUARTERS - 1, -1, -1)]
    ends = [quarter_add(t, -1) for t in quarters] + [origin]
    return [series.window(end, MODEL1_WINDOW) for end in ends], [series.value_at(t) for t in quarters]


def _one_step(entry) -> dict:
    """h=1 forecast of each Model-1 candidate; None where its fit failed
    (for "average", where any base model's fit failed)."""
    fcs = {
        name: None if isinstance(value, Exception) else value[0]
        for name, value in zip(("arima", "ets", "stl"), entry)
    }
    if any(fc is None for fc in fcs.values()):
        fcs["average"] = None
    else:
        fcs["average"] = (fcs["arima"] + fcs["ets"] + fcs["stl"]) / 3.0
    return fcs


def _model1_select(entries, actuals, origin, include_average) -> Model1Result:
    """The Model-1 result at origin from the cache entries of its ``_model1_plan`` windows."""
    steps = [_one_step(entry) for entry in entries]
    final = steps[-1]  # the window ending at origin; the others precede the actuals
    allowed = MODEL1_CANDIDATES if include_average else MODEL1_CANDIDATES[:3]
    failed = [name for name in allowed if any(step[name] is None for step in steps)]

    candidates: dict[str, Model1Candidate] = {}
    for name in allowed:
        if name in failed:
            continue
        candidates[name] = Model1Candidate(
            forecast=float(final[name]),
            trailing_mape=mape([(actual, step[name]) for actual, step in zip(actuals, steps)]),
        )
    if failed:
        log.warning("model 1 at %s: %d candidate(s) failed to fit: %s", origin, len(failed), ", ".join(failed))
    if not candidates:
        raise NonconvergenceError(f"no model-1 candidate could be fit at {origin}")

    chosen = None
    for name in allowed:  # priority order breaks ties
        if name in candidates and (
            chosen is None or candidates[name].trailing_mape < candidates[chosen].trailing_mape
        ):
            chosen = name
    return Model1Result(forecast=candidates[chosen].forecast, chosen=chosen, candidates=candidates)


def model1_forecast(
    series: QuarterlySeries,
    origin: FiscalQuarter,
    include_average: bool = True,
    cache: ForecastCache | None = None,
) -> Model1Result:
    """Forecast the quarter after ``origin`` with trailing-MAPE selection.

    Needs 14 + 4 quarters of history ending at origin: each of the four
    most recent quarters is forecast out-of-sample from the 14-quarter
    window ending just before it, giving every candidate a realized
    one-step MAPE over those quarters.  A base model whose fit fails drops
    out of both the trailing evaluation and the selection.
    """
    windows, actuals = _model1_plan(series, origin)
    return _model1_select(fit_windows(windows, cache), actuals, origin, include_average)


def model1_run(
    dataset: Dataset,
    origins: list[FiscalQuarter],
    include_average: bool = True,
    cache: ForecastCache | None = None,
) -> dict[tuple[str, FiscalQuarter], Model1Result]:
    """model1_forecast of every series at every origin, keyed (series id, origin).

    Every key is planned first (InsufficientDataError comes before any
    fit), then all their windows are fit in one ``fit_windows`` call.
    """
    keys = [(geo, origin) for geo in dataset.series_ids() for origin in origins]
    plans = [_model1_plan(dataset.series_for(geo), origin) for geo, origin in keys]
    entries = iter(fit_windows([window for windows, _ in plans for window in windows], cache))
    return {
        key: _model1_select([next(entries) for _ in windows], actuals, key[1], include_average)
        for key, (windows, actuals) in zip(keys, plans)
    }


def model_config(model: str, config: FeatureConfig) -> FeatureConfig:
    """The feature config ``model`` runs with: m2 keeps only ``config``'s lag
    convention, m3 requires an indicator and a macro feature, and m1 takes
    ``config`` as given."""
    if model == "m2":
        return FeatureConfig(indicators=(), lag_includes_origin=config.lag_includes_origin)
    if model == "m3" and not config.indicators:
        raise ValidationError("model m3 requires at least one configured indicator")
    if model == "m3" and not config.macro_feature_names():
        flags = f"macro_at_origin {config.macro_at_origin}, macro_at_target {config.macro_at_target}".lower()
        raise ValidationError(
            f"model m3 has no macro feature with {flags} and macro_source {config.macro_source!r}: "
            "it needs macro_at_origin, or macro_at_target with macro_source 'indicator'"
        )
    if model not in ("m1", "m3"):
        raise ValidationError(f"unknown model {model!r}, expected m1, m2 or m3")
    return config


@dataclass
class ModelRunResult:
    """Forecasts plus the trained artifacts, for inspection and testing."""

    predictions: dict[tuple[str, FiscalQuarter, int], float]
    forest: object = None
    train_rows: list = field(default_factory=list)
    test_rows: list = field(default_factory=list)


def _validate_ranges(train_range, test_range):
    if train_range[1] < train_range[0]:
        raise ValidationError("training range is reversed")
    if test_range[1] < test_range[0]:
        raise ValidationError("test range is reversed")
    if not train_range[1] < test_range[0]:
        raise ValidationError("test range must start after the training range ends")


def _test_keys(dataset: Dataset, test_range) -> list[tuple[str, FiscalQuarter, int]]:
    """(geo, origin, h) of every backtest forecast whose target is in the test range."""
    start, end = test_range
    return [
        (geo, origin, h)
        for geo in dataset.series_ids()
        for origin in quarter_range(quarter_add(start, -1), quarter_add(end, -1))
        for h in range(1, MAX_HORIZON + 1)
        if quarter_add(origin, h) <= end
    ]


def _forest_run(
    dataset: Dataset,
    train_range: tuple[FiscalQuarter, FiscalQuarter],
    keys: list[tuple[str, FiscalQuarter, int]],
    forest_params: ForestParams,
    config: FeatureConfig,
    cache: ForecastCache | None,
) -> ModelRunResult:
    """Train one global forest on the training range and predict each (geo, origin, h) key.

    Indicators are treated as unknown after the first predicted origin and
    extended with ARIMA forecasts through the last predicted target.
    """
    ids = dataset.series_ids()
    known_through = min(origin for _, origin, _ in keys)
    needed_through = max(quarter_add(origin, h) for _, origin, h in keys)
    # Every row is planned, and so checked, before any window is fit: the
    # columns (and mtry against them), the indicator checks, the training
    # rows, the indicator extensions the test rows read, the test rows;
    # then one fit for all.
    names = feature_names(ids, config)
    check_mtry(forest_params, len(names))
    extend = config.indicators and config.macro_source == "indicator"
    if extend:
        _indicator_histories(dataset, config, known_through, needed_through)
    train_plans = _training_plans(dataset, train_range, config)
    indicator_series = extend_indicators(dataset, config, known_through, needed_through) if extend else None
    test_plans = [_plan_row(dataset, geo, origin, h, config, False, indicator_series) for geo, origin, h in keys]
    rows = _fit_rows(train_plans + test_plans, cache)
    train_rows, test_rows = rows[: len(train_plans)], rows[len(train_plans) :]
    X, y = rows_to_matrix(train_rows, ids, config)
    forest = train_forest(X, y, forest_params, names)
    predictions = {
        (row.geo, row.target_quarter, row.horizon): predict_forest(forest, row_vector(row, ids, config))
        for row in test_rows
    }
    return ModelRunResult(predictions, forest=forest, train_rows=train_rows, test_rows=test_rows)


def model2_run(
    dataset: Dataset,
    train_range: tuple[FiscalQuarter, FiscalQuarter],
    test_range: tuple[FiscalQuarter, FiscalQuarter],
    forest_params: ForestParams,
    config: FeatureConfig = FeatureConfig(),
    cache: ForecastCache | None = None,
) -> ModelRunResult:
    """Train one global forest on the training range, predict the test range."""
    _validate_ranges(train_range, test_range)
    return _forest_run(dataset, train_range, _test_keys(dataset, test_range), forest_params, config, cache)


def model3_run(
    dataset: Dataset,
    train_range: tuple[FiscalQuarter, FiscalQuarter],
    test_range: tuple[FiscalQuarter, FiscalQuarter],
    forest_params: ForestParams,
    config: FeatureConfig,
    cache: ForecastCache | None = None,
) -> ModelRunResult:
    """Model 2 with macro indicator features enabled."""
    return model2_run(dataset, train_range, test_range, forest_params, model_config("m3", config), cache)


def final_origin_forecasts(
    dataset: Dataset,
    train_range: tuple[FiscalQuarter, FiscalQuarter],
    forest_params: ForestParams,
    config: FeatureConfig = FeatureConfig(),
    h_max: int = MAX_HORIZON,
    cache: ForecastCache | None = None,
) -> ModelRunResult:
    """True future forecasts: horizons 1..h_max from the last known quarter.

    Unlike a backtest there are no later actuals to roll through, so every
    horizon is projected from the same origin (the end of history).
    """
    if not 1 <= h_max <= MAX_HORIZON:
        raise ValidationError(f"h_max must be in 1..{MAX_HORIZON}, got {h_max}")
    origin = dataset.total.end
    if not train_range[0] <= train_range[1] <= origin:
        raise ValidationError("training range must be ordered and end within history")
    keys = [(geo, origin, h) for geo in dataset.series_ids() for h in range(1, h_max + 1)]
    return _forest_run(dataset, train_range, keys, forest_params, config, cache)


def config_hash(payload: dict) -> str:
    canon = json.dumps(payload, sort_keys=True, default=str)
    return hashlib.sha256(canon.encode()).hexdigest()[:16]


def _report_from_predictions(dataset, model, horizons, predictions, metadata) -> EvaluationReport:
    """Score the (geo, target, h) -> forecast map: one cell per (geo, h), details in target order."""
    details: dict[tuple[str, int], list[ApeDetail]] = {}
    for (geo, target, h), fc in sorted(predictions.items()):
        actual = dataset.series_for(geo).value_at(target)
        details.setdefault((geo, h), []).append(ApeDetail(target, actual, fc, ape(actual, fc)))
    cells = {
        key: HorizonCell(mape=mape([(d.actual, d.forecast) for d in ds]), details=tuple(ds))
        for key, ds in details.items()
    }
    return EvaluationReport(
        model=model, geos=tuple(dataset.series_ids()), horizons=tuple(horizons), cells=cells, metadata=metadata
    )


def backtest(
    dataset: Dataset,
    model: str,
    train_range: tuple[FiscalQuarter, FiscalQuarter],
    test_range: tuple[FiscalQuarter, FiscalQuarter],
    forest_params: ForestParams | None = None,
    config: FeatureConfig = FeatureConfig(),
    include_average: bool = True,
    oracle=None,
    cache: ForecastCache | None = None,
) -> EvaluationReport:
    """Run one model over the test range and score per-horizon MAPE.

    The model runs with ``model_config(model, config)``, which the report's
    config hash records.  ``oracle`` is a test hook: a callable (geo,
    origin, horizon) -> forecast that replaces the model entirely.
    """
    _validate_ranges(train_range, test_range)
    if test_range[1] > dataset.total.end:
        raise ValidationError(f"test range ends at {test_range[1]}, after history ends at {dataset.total.end}")
    config = model_config(model, config)
    meta = {
        "model": model,
        "train_range": [str(train_range[0]), str(train_range[1])],
        "test_range": [str(test_range[0]), str(test_range[1])],
        "seed": forest_params.seed if forest_params is not None else None,
    }
    meta["config_hash"] = config_hash(
        {
            "model": model,
            "train_range": meta["train_range"],
            "test_range": meta["test_range"],
            "forest": None if forest_params is None else forest_params.__dict__,
            "config": config.__dict__,
            "include_average": include_average,
        }
    )

    horizons = tuple(range(1, MAX_HORIZON + 1))
    if oracle is not None:
        predictions = {
            (geo, quarter_add(origin, h), h): float(oracle(geo, origin, h))
            for geo, origin, h in _test_keys(dataset, test_range)
        }
    elif model == "m1":
        origins = quarter_range(quarter_add(test_range[0], -1), quarter_add(test_range[1], -1))
        results = model1_run(dataset, origins, include_average, cache)
        predictions = {(geo, quarter_add(origin, 1), 1): r.forecast for (geo, origin), r in results.items()}
        horizons = (1,)
    else:
        if forest_params is None:
            raise ValidationError(f"model {model} requires forest parameters (and a seed)")
        predictions = model2_run(dataset, train_range, test_range, forest_params, config, cache).predictions

    return _report_from_predictions(dataset, model, horizons, predictions, meta)


def _improvement(x: float | None, y: float | None) -> float | None:
    """relative_improvement(x, y); None where either side is missing or x is zero."""
    if x is None or y is None or x == 0.0:
        return None
    return relative_improvement(x, y)


_horizon_label = "horizon_{}".format


def _table(mode, rows, cols, errors, metadata, col_label=str) -> ComparisonTable:
    """The rows × cols table of ``_improvement(*errors(row, col))``, rows labelled by str."""
    return ComparisonTable(
        mode=mode,
        row_labels=tuple(str(row) for row in rows),
        col_labels=tuple(col_label(col) for col in cols),
        cells=tuple(tuple(_improvement(*errors(row, col)) for col in cols) for row in rows),
        metadata=metadata,
    )


def compare_reports(baseline: EvaluationReport, candidate: EvaluationReport) -> ComparisonTable:
    """Per-geography improvement of the candidate's MAPE over the baseline's."""
    if baseline.geos != candidate.geos:
        raise SchemaMismatchError("reports cover different geographies")
    horizons = tuple(h for h in baseline.horizons if h in candidate.horizons)
    if not horizons:
        raise SchemaMismatchError("reports share no horizons")
    return _table(
        "model-vs-model", baseline.geos, horizons,
        lambda geo, h: (baseline.mape_for(geo, h), candidate.mape_for(geo, h)),
        {"baseline": baseline.metadata, "candidate": candidate.metadata}, _horizon_label,
    )


def compare_horizons(report: EvaluationReport) -> ComparisonTable:
    """One report's horizons 2.. against its own horizon 1."""
    if 1 not in report.horizons or len(report.horizons) < 2:
        raise SchemaMismatchError("report needs horizon 1 plus at least one longer horizon")
    return _table(
        "horizon-vs-h1", report.geos, tuple(h for h in report.horizons if h > 1),
        lambda geo, h: (report.mape_for(geo, 1), report.mape_for(geo, h)),
        {"report": report.metadata}, _horizon_label,
    )


def compare_expert(
    report: EvaluationReport, expert: dict[tuple[str, FiscalQuarter], float]
) -> ComparisonTable:
    """Model improvement over expert judgement, per quarter at horizon 1.

    The expert APE is computed against the same actuals the report used;
    cells without both an expert forecast and a horizon-1 model forecast
    stay empty.
    """
    details = {
        (geo, d.target): d
        for geo in report.geos if (geo, 1) in report.cells
        for d in report.cells[(geo, 1)].details
    }
    keys = [k for k in expert if k in details]
    if not keys:
        raise ValidationError("no expert forecasts overlap the report's horizon-1 quarters")

    def errors(q, g):
        d = details.get((g, q))
        if d is None or (g, q) not in expert:
            return None, None
        return ape(d.actual, expert[(g, q)]), d.ape

    return _table(
        "expert-vs-model", sorted({q for _, q in keys}), sorted({g for g, _ in keys}),
        errors, {"report": report.metadata},
    )
