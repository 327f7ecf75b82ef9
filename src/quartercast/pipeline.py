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

from .errors import (
    InsufficientDataError,
    NonconvergenceError,
    SchemaMismatchError,
    ValidationError,
)
from .features import (
    MAX_HORIZON,
    FeatureConfig,
    ForecastCache,
    build_row,
    build_training_matrix,
    extend_indicators,
    feature_names,
    fit_windows,
    row_vector,
    row_windows,
    rows_to_matrix,
    training_windows,
)
from .fiscal import FiscalQuarter, quarter_add, quarter_range
from .forest import ForestParams, predict_forest, train_forest
from .metrics import ape, mape, relative_improvement
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


def _eval_quarters(origin: FiscalQuarter) -> list[FiscalQuarter]:
    """The quarters of Model 1's trailing evaluation at origin, oldest first."""
    return [quarter_add(origin, -k) for k in range(MODEL1_EVAL_QUARTERS - 1, -1, -1)]


def _model1_windows(series: QuarterlySeries, origin: FiscalQuarter) -> list[QuarterlySeries]:
    """The 14-quarter windows Model 1 fits at origin: one before each
    evaluation quarter, then the one ending at origin.

    Raises InsufficientDataError without 14 + 4 quarters of history.
    """
    series.window(origin, MODEL1_WINDOW + MODEL1_EVAL_QUARTERS)  # history check
    ends = [quarter_add(t, -1) for t in _eval_quarters(origin)] + [origin]
    return [series.window(end, MODEL1_WINDOW) for end in ends]


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
    steps = [_one_step(entry) for entry in fit_windows(_model1_windows(series, origin), cache)]
    actuals = [series.value_at(t) for t in _eval_quarters(origin)]
    final = steps[-1]  # the window ending at origin; the others precede the actuals
    failed = {name for step in steps for name in MODEL1_CANDIDATES if step[name] is None}

    allowed = MODEL1_CANDIDATES if include_average else MODEL1_CANDIDATES[:3]
    candidates: dict[str, Model1Candidate] = {}
    for name in allowed:
        if name in failed:
            continue
        candidates[name] = Model1Candidate(
            forecast=float(final[name]),
            trailing_mape=mape([(actual, step[name]) for actual, step in zip(actuals, steps)]),
        )
    if failed:
        log.warning("model 1 at %s: %d candidate(s) failed to fit", origin, len(failed))
    if not candidates:
        raise NonconvergenceError(f"no model-1 candidate could be fit at {origin}")

    chosen = None
    for name in allowed:  # priority order breaks ties
        if name in candidates and (
            chosen is None or candidates[name].trailing_mape < candidates[chosen].trailing_mape
        ):
            chosen = name
    return Model1Result(forecast=candidates[chosen].forecast, chosen=chosen, candidates=candidates)


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


def _test_keys(dataset: Dataset, test_range, max_h: int) -> list[tuple[str, FiscalQuarter, int]]:
    """(geo, origin, h) of every backtest forecast, h <= max_h, whose target is in the test range."""
    start, end = test_range
    return [
        (geo, origin, h)
        for geo in dataset.series_ids()
        for origin in quarter_range(quarter_add(start, -1), quarter_add(end, -1))
        for h in range(1, max_h + 1)
        if quarter_add(origin, h) <= end
    ]


def _forest_run(
    dataset: Dataset,
    train_range: tuple[FiscalQuarter, FiscalQuarter],
    keys: list[tuple[str, FiscalQuarter, int]],
    forest_params: ForestParams,
    config: FeatureConfig,
    cache: ForecastCache | None,
    known_through: FiscalQuarter,
    needed_through: FiscalQuarter,
) -> ModelRunResult:
    """Train one global forest on the training range and predict each (geo, origin, h) key.

    Indicators are treated as unknown after ``known_through`` and extended
    with ARIMA forecasts through ``needed_through`` for the predicted rows.
    """
    if cache is None:
        cache = ForecastCache()
    ids = dataset.series_ids()
    fit_windows(
        training_windows(dataset, train_range)
        + row_windows(dataset, ((geo, origin) for geo, origin, _ in keys)),
        cache,
    )
    train_rows = build_training_matrix(dataset, train_range, config, cache)
    X, y = rows_to_matrix(train_rows, ids, config)
    forest = train_forest(X, y, forest_params, feature_names(ids, config))

    indicator_series = None
    if config.indicators and config.macro_source == "indicator":
        indicator_series = extend_indicators(dataset, config, known_through, needed_through)

    test_rows = []
    predictions: dict[tuple[str, FiscalQuarter, int], float] = {}
    for geo, origin, h in keys:
        row = build_row(
            dataset, geo, origin, h, config, training=False,
            indicator_series=indicator_series, cache=cache,
        )
        test_rows.append(row)
        predictions[(geo, row.target_quarter, h)] = predict_forest(forest, row_vector(row, ids, config))
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
    return _forest_run(
        dataset, train_range, _test_keys(dataset, test_range, MAX_HORIZON), forest_params, config,
        cache, known_through=quarter_add(test_range[0], -1), needed_through=test_range[1],
    )


def model3_run(
    dataset: Dataset,
    train_range: tuple[FiscalQuarter, FiscalQuarter],
    test_range: tuple[FiscalQuarter, FiscalQuarter],
    forest_params: ForestParams,
    config: FeatureConfig,
    cache: ForecastCache | None = None,
) -> ModelRunResult:
    """Model 2 with macro indicator features enabled."""
    if not config.indicators:
        raise ValidationError("model 3 requires at least one enabled indicator")
    return model2_run(dataset, train_range, test_range, forest_params, config, cache)


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
    return _forest_run(
        dataset, train_range, keys, forest_params, config, cache,
        known_through=origin, needed_through=quarter_add(origin, h_max),
    )


@dataclass(frozen=True)
class ApeDetail:
    target: FiscalQuarter
    actual: float
    forecast: float
    ape: float


@dataclass(frozen=True)
class HorizonCell:
    mape: float
    details: tuple[ApeDetail, ...]


@dataclass(frozen=True)
class EvaluationReport:
    model: str
    geos: tuple[str, ...]
    horizons: tuple[int, ...]
    cells: dict[tuple[str, int], HorizonCell]
    metadata: dict

    def mape_for(self, geo: str, horizon: int) -> float:
        return self.cells[(geo, horizon)].mape


def config_hash(payload: dict) -> str:
    canon = json.dumps(payload, sort_keys=True, default=str)
    return hashlib.sha256(canon.encode()).hexdigest()[:16]


def _report_from_predictions(dataset, model, horizons, predictions, metadata) -> EvaluationReport:
    ids = dataset.series_ids()
    cells = {}
    for geo in ids:
        series = dataset.series_for(geo)
        for h in horizons:
            details = []
            for (g, target, hh), fc in sorted(
                predictions.items(), key=lambda kv: (kv[0][0], kv[0][1], kv[0][2])
            ):
                if g != geo or hh != h:
                    continue
                actual = series.value_at(target)
                details.append(ApeDetail(target, actual, fc, ape(actual, fc)))
            if details:
                cells[(geo, h)] = HorizonCell(
                    mape=mape([(d.actual, d.forecast) for d in details]),
                    details=tuple(details),
                )
    return EvaluationReport(
        model=model, geos=tuple(ids), horizons=tuple(horizons), cells=cells, metadata=metadata
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

    ``oracle`` is a test hook: a callable (geo, origin, horizon) -> forecast
    that replaces the model entirely.
    """
    _validate_ranges(train_range, test_range)
    if cache is None:
        cache = ForecastCache()
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

    if oracle is not None:
        predictions = {
            (geo, quarter_add(origin, h), h): float(oracle(geo, origin, h))
            for geo, origin, h in _test_keys(dataset, test_range, MAX_HORIZON)
        }
        horizons = tuple(range(1, MAX_HORIZON + 1))
    elif model == "m1":
        keys = _test_keys(dataset, test_range, 1)
        windows = []
        for geo, origin, _ in keys:
            try:
                windows += _model1_windows(dataset.series_for(geo), origin)
            except InsufficientDataError:
                continue  # model1_forecast raises it below
        fit_windows(windows, cache)
        predictions = {}
        for geo, origin, _ in keys:
            result = model1_forecast(dataset.series_for(geo), origin, include_average, cache)
            predictions[(geo, quarter_add(origin, 1), 1)] = result.forecast
        horizons = (1,)
    elif model in ("m2", "m3"):
        if forest_params is None:
            raise ValidationError(f"model {model} requires forest parameters (and a seed)")
        run = (model2_run if model == "m2" else model3_run)(
            dataset, train_range, test_range, forest_params, config, cache
        )
        predictions = run.predictions
        horizons = tuple(range(1, MAX_HORIZON + 1))
    else:
        raise ValidationError(f"unknown model {model!r}, expected m1, m2 or m3")

    return _report_from_predictions(dataset, model, horizons, predictions, meta)


@dataclass(frozen=True)
class ComparisonTable:
    """Relative-improvement cells; None renders as n/a (zero baseline)."""

    mode: str
    row_labels: tuple[str, ...]
    col_labels: tuple[str, ...]
    cells: tuple[tuple[float | None, ...], ...]
    metadata: dict

    def cell(self, row: str, col: str):
        return self.cells[self.row_labels.index(row)][self.col_labels.index(col)]


def _improvement_or_none(x: float, y: float) -> float | None:
    if x == 0.0:
        return None
    return relative_improvement(x, y)


def compare_reports(baseline: EvaluationReport, candidate: EvaluationReport) -> ComparisonTable:
    """Per-geography improvement of the candidate's MAPE over the baseline's."""
    if baseline.geos != candidate.geos:
        raise SchemaMismatchError("reports cover different geographies")
    horizons = tuple(h for h in baseline.horizons if h in candidate.horizons)
    if not horizons:
        raise SchemaMismatchError("reports share no horizons")
    rows = []
    for geo in baseline.geos:
        rows.append(
            tuple(
                _improvement_or_none(baseline.mape_for(geo, h), candidate.mape_for(geo, h))
                for h in horizons
            )
        )
    return ComparisonTable(
        mode="model-vs-model",
        row_labels=baseline.geos,
        col_labels=tuple(f"horizon_{h}" for h in horizons),
        cells=tuple(rows),
        metadata={"baseline": baseline.metadata, "candidate": candidate.metadata},
    )


def compare_horizons(report: EvaluationReport) -> ComparisonTable:
    """One report's horizons 2.. against its own horizon 1."""
    if 1 not in report.horizons or len(report.horizons) < 2:
        raise SchemaMismatchError("report needs horizon 1 plus at least one longer horizon")
    higher = tuple(h for h in report.horizons if h > 1)
    rows = []
    for geo in report.geos:
        rows.append(
            tuple(
                _improvement_or_none(report.mape_for(geo, 1), report.mape_for(geo, h))
                for h in higher
            )
        )
    return ComparisonTable(
        mode="horizon-vs-h1",
        row_labels=report.geos,
        col_labels=tuple(f"horizon_{h}" for h in higher),
        cells=tuple(rows),
        metadata={"report": report.metadata},
    )


def compare_expert(
    report: EvaluationReport, expert: dict[tuple[str, FiscalQuarter], float]
) -> ComparisonTable:
    """Model improvement over expert judgement, per quarter at horizon 1.

    The expert APE is computed against the same actuals the report used;
    cells without both an expert forecast and a horizon-1 model forecast
    stay empty.
    """
    details: dict[tuple[str, FiscalQuarter], ApeDetail] = {}
    for geo in report.geos:
        cell = report.cells.get((geo, 1))
        if cell is None:
            continue
        for d in cell.details:
            details[(geo, d.target)] = d
    keys = [k for k in expert if k in details]
    if not keys:
        raise ValidationError("no expert forecasts overlap the report's horizon-1 quarters")
    geos = tuple(sorted({g for g, _ in keys}))
    quarters = sorted({q for _, q in keys})
    rows = []
    for q in quarters:
        row = []
        for g in geos:
            d = details.get((g, q))
            if d is None or (g, q) not in expert:
                row.append(None)
                continue
            ape_exp = ape(d.actual, expert[(g, q)])
            row.append(_improvement_or_none(ape_exp, d.ape))
        rows.append(tuple(row))
    return ComparisonTable(
        mode="expert-vs-model",
        row_labels=tuple(str(q) for q in quarters),
        col_labels=geos,
        cells=tuple(rows),
        metadata={"report": report.metadata},
    )
