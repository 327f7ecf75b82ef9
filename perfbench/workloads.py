"""The benchmark's workloads: inputs made from a seed, one timed job, output checks.

Every workload has a full size (what the benchmark measures) and a smoke
size (the smallest that still runs every step, for the harness self-test).
Jobs call quartercast through the package namespace at call time, so the
traced run's wrappers see every call.
"""

from __future__ import annotations

import json
import math
import struct
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import quartercast as qc

INDICATOR = "indicator"


@dataclass(frozen=True)
class Size:
    n_geos: int
    n_quarters: int
    train: tuple[str, str]
    test: tuple[str, str]
    n_trees: int | None = None  # None: the library default
    forest_seeds: int = 0


@dataclass
class JobResult:
    """What one job produced: its forecast count, public calls made, and outputs."""

    forecasts: int
    calls: int
    cache: object = None
    outputs: dict = field(default_factory=dict)


def _ranges(size: Size):
    parse = qc.parse_quarter
    return (parse(size.train[0]), parse(size.train[1])), (parse(size.test[0]), parse(size.test[1]))


def _panel(size: Size, seed: int) -> qc.Dataset:
    # The acceptance dataset's shape parameters, at the workload's size.
    spec = qc.SynthSpec(
        n_geos=size.n_geos,
        n_quarters=size.n_quarters,
        noise_scale=0.5,
        indicator_linkage=1.0,
        indicator_id=INDICATOR,
        seed=seed,
    )
    return qc.generate_synthetic(spec)


def _finite(*values) -> bool:
    return all(isinstance(v, float) and math.isfinite(v) for v in values)


def _same_bits(a: float, b: float) -> bool:
    return struct.pack("<d", a) == struct.pack("<d", b)


def _cells_ok(report, series_ids, horizons, test_quarters) -> bool:
    """Every expected (geo, horizon) cell is present, finite, with horizon k scored on test_quarters + 1 - k targets."""
    if tuple(report.horizons) != tuple(horizons) or tuple(report.geos) != tuple(series_ids):
        return False
    for geo in series_ids:
        for h in horizons:
            cell = report.cells.get((geo, h))
            if cell is None or len(cell.details) != test_quarters + 1 - h:
                return False
            if not _finite(cell.mape, *(v for d in cell.details for v in (d.forecast, d.ape))):
                return False
    return True


class Workload:
    name = ""
    sizes: dict[str, Size] = {}

    def __init__(self, size: str, seed: int, workdir: Path):
        self.size = self.sizes[size]
        self.seed = seed
        self.workdir = workdir

    def make_inputs(self) -> None:
        """Set-up: generate the inputs from the seed and write them to the workdir."""
        raise NotImplementedError

    def load(self) -> None:
        """Untimed preparation in the job process."""

    def run(self, cache=None) -> JobResult:
        """The timed job."""
        raise NotImplementedError

    def check(self, result: JobResult) -> tuple[list[tuple[str, bool]], dict[str, bytes]]:
        """Output checks (name, passed) and the artifacts whose sha256 is recorded.

        Runs right after its job, before the next job overwrites the files
        this job wrote.
        """
        raise NotImplementedError


class M1Backtest(Workload):
    """A cold Model-1 backtest: trailing-MAPE selection over 14-quarter window fits."""

    name = "m1-backtest"
    sizes = {
        # The acceptance ranges: 4 test origins, 5 windows each, 4 shared
        # with the previous origin, so 8 distinct windows per series.
        "full": Size(2, 28, ("2013Q1", "2014Q4"), ("2015Q1", "2015Q4")),
        "smoke": Size(1, 28, ("2013Q1", "2015Q3"), ("2015Q4", "2015Q4")),
    }

    def make_inputs(self):
        qc.write_revenue_csv(_panel(self.size, self.seed), self.workdir / "revenue.csv")

    def load(self):
        self.dataset = qc.load_revenue_csv(self.workdir / "revenue.csv")

    def run(self, cache=None):
        cache = qc.ForecastCache() if cache is None else cache
        train, test = _ranges(self.size)
        report = qc.backtest(self.dataset, "m1", train, test, cache=cache)
        forecasts = sum(len(cell.details) for cell in report.cells.values())
        return JobResult(forecasts, 1, cache, {"report": report})

    def check(self, result):
        report = result.outputs["report"]
        _, test = _ranges(self.size)
        n_test = qc.quarter_diff(test[1], test[0]) + 1
        path = self.workdir / "m1_report.json"
        qc.write_report(report, "json", path)
        checks = [
            ("m1 cells present and finite", _cells_ok(report, self.dataset.series_ids(), (1,), n_test)),
            ("m1 report round trip", qc.read_report(path) == report),
        ]
        return checks, {"m1_report.json": path.read_bytes()}


class M2M3Backtest(Workload):
    """The paper's Model 3 vs Model 2 job on one fresh ForecastCache."""

    name = "m2m3-backtest"
    sizes = {
        # The smallest panel with two geographies whose test year gives the
        # (4,3,2,1) horizon triangle: 8 origins of 16-quarter windows per
        # series, 3 series, plus the final origin.
        "full": Size(2, 24, ("2013Q1", "2013Q4"), ("2014Q1", "2014Q4"), n_trees=200),
        "smoke": Size(1, 24, ("2013Q1", "2013Q4"), ("2014Q1", "2014Q4"), n_trees=20),
    }

    def make_inputs(self):
        dataset = _panel(self.size, self.seed)
        qc.write_revenue_csv(dataset, self.workdir / "revenue.csv")
        qc.write_indicator_csv(dataset.indicators, self.workdir / "indicators.csv")

    def run(self, cache=None):
        cache = qc.ForecastCache() if cache is None else cache
        train, test = _ranges(self.size)
        params = qc.ForestParams(n_trees=self.size.n_trees, seed=self.seed)
        m3_config = qc.FeatureConfig(indicators=(qc.IndicatorConfig(INDICATOR),))
        names = ("m2_report", "m3_report", "m2_vs_m3_table")
        paths = {name: self.workdir / f"{name}.json" for name in names}

        dataset = qc.with_indicators(
            qc.load_revenue_csv(self.workdir / "revenue.csv"),
            qc.load_indicator_csv(self.workdir / "indicators.csv"),
        )
        m2 = qc.backtest(dataset, "m2", train, test, params, cache=cache)
        m3 = qc.backtest(dataset, "m3", train, test, params, config=m3_config, cache=cache)
        table = qc.compare_reports(m2, m3)
        final = qc.final_origin_forecasts(dataset, train, params, m3_config, cache=cache)
        qc.write_report(m2, "json", paths["m2_report"])
        qc.write_report(m3, "json", paths["m3_report"])
        qc.write_report(table, "json", paths["m2_vs_m3_table"])
        back = {
            "m2_report": qc.read_report(paths["m2_report"]),
            "m3_report": qc.read_report(paths["m3_report"]),
            "m2_vs_m3_table": qc.read_table(paths["m2_vs_m3_table"]),
        }

        forecasts = sum(len(c.details) for r in (m2, m3) for c in r.cells.values())
        forecasts += len(final.predictions)
        outputs = {
            "dataset": dataset, "m2": m2, "m3": m3, "table": table, "final": final,
            "config": m3_config, "paths": paths, "back": back,
        }
        return JobResult(forecasts, 13, cache, outputs)

    def check(self, result):
        o = result.outputs
        _, test = _ranges(self.size)
        n_test = qc.quarter_diff(test[1], test[0]) + 1
        ids = o["dataset"].series_ids()
        horizons = (1, 2, 3, 4)
        final = o["final"]
        expected_final = {
            (geo, qc.quarter_add(o["dataset"].total.end, h), h) for geo in ids for h in horizons
        }
        forest_json = qc.forest_to_json(final.forest)
        reloaded = qc.forest_from_json(forest_json)
        bit_identical = all(
            _same_bits(
                qc.predict_forest(reloaded, qc.row_vector(row, ids, o["config"])),
                final.predictions[(row.geo, row.target_quarter, row.horizon)],
            )
            for row in final.test_rows
        )
        checks = [
            ("m2 cells present and finite", _cells_ok(o["m2"], ids, horizons, n_test)),
            ("m3 cells present and finite", _cells_ok(o["m3"], ids, horizons, n_test)),
            ("m2 report round trip", o["back"]["m2_report"] == o["m2"]),
            ("m3 report round trip", o["back"]["m3_report"] == o["m3"]),
            ("table round trip", o["back"]["m2_vs_m3_table"] == o["table"]),
            ("final forecasts present and finite",
             set(final.predictions) == expected_final and _finite(*final.predictions.values())),
            ("final forest round trip predicts bit-identically", bit_identical),
        ]
        final_doc = [
            [geo, str(target), h, repr(value)]
            for (geo, target, h), value in sorted(final.predictions.items())
        ]
        artifacts = {f"{name}.json": path.read_bytes() for name, path in o["paths"].items()}
        artifacts["m3_final_forecasts.json"] = json.dumps(final_doc).encode()
        artifacts["m3_final_forest.json"] = forest_json.encode()
        return checks, artifacts


def model3_matrix(dataset: qc.Dataset, first_target, last_target):
    """Model-3 columns, in ``feature_names`` order, for every row with a target in range.

    Lags, targets, indicator YoY values and one-hot columns are real.  The
    four forecast columns hold cheap stand-ins instead of window fits:
    seasonal naive (arima_fc), last value (ets_fc), seasonal naive plus
    the last year's change (stl_fc), and their mean.
    """
    ids = dataset.series_ids()
    config = qc.FeatureConfig(indicators=(qc.IndicatorConfig(INDICATOR),))
    names = qc.feature_names(ids, config)
    rows, targets = [], []
    for geo in ids:
        series = dataset.series_for(geo)
        indicator = dataset.indicator_for(geo, INDICATOR)
        value = series.value_at
        for h in range(1, 5):
            for target in qc.quarter_range(first_target, last_target):
                origin = qc.quarter_add(target, -h)
                lags = [value(qc.quarter_add(origin, 1 - k)) for k in range(1, 9)]
                seasonal = value(qc.quarter_add(target, -4))
                last = value(origin)
                drifted = seasonal + (last - value(qc.quarter_add(origin, -4)))
                rows.append(
                    [float(h), *lags, seasonal, last, drifted, (seasonal + last + drifted) / 3.0]
                    + [1.0 if geo == g else 0.0 for g in ids]
                    + [qc.yoy_growth(indicator, origin), qc.yoy_growth(indicator, target)]
                )
                targets.append(value(target))
    return np.asarray(rows), np.asarray(targets), names


class ForestSweep(Workload):
    """Forest training at the library default over a few seeds, prediction, JSON round trip."""

    name = "forest-sweep"
    sizes = {
        # Four geographies over 28 quarters: 80 training rows and 80
        # held-out rows, against 30 training rows in m2m3-backtest.
        "full": Size(4, 28, ("2014Q1", "2014Q4"), ("2015Q1", "2015Q4"), forest_seeds=2),
        "smoke": Size(1, 28, ("2014Q1", "2014Q4"), ("2015Q1", "2015Q4"), n_trees=20, forest_seeds=2),
    }

    def make_inputs(self):
        dataset = _panel(self.size, self.seed)
        train, test = _ranges(self.size)
        X, y, names = model3_matrix(dataset, *train)
        X_test, _, _ = model3_matrix(dataset, *test)
        np.savez(self.workdir / "matrix.npz", X=X, y=y, X_test=X_test)
        (self.workdir / "feature_names.json").write_text(json.dumps(names))

    def load(self):
        with np.load(self.workdir / "matrix.npz", allow_pickle=False) as data:
            self.X, self.y, self.X_test = data["X"], data["y"], data["X_test"]
        self.names = json.loads((self.workdir / "feature_names.json").read_text())

    def _params(self, k: int) -> qc.ForestParams:
        seed = 1000 * self.seed + k
        if self.size.n_trees is None:
            return qc.ForestParams(seed=seed)
        return qc.ForestParams(n_trees=self.size.n_trees, seed=seed)

    def run(self, cache=None):
        outputs = []
        for k in range(self.size.forest_seeds):
            forest = qc.train_forest(self.X, self.y, self._params(k), self.names)
            predictions = [qc.predict_forest(forest, row) for row in self.X_test]
            text = qc.forest_to_json(forest)
            outputs.append((text, predictions, qc.forest_from_json(text)))
        n_rows = len(self.X_test)
        return JobResult(
            n_rows * len(outputs), len(outputs) * (3 + n_rows), None, {"forests": outputs}
        )

    def check(self, result):
        forests = result.outputs["forests"]
        checks = [
            ("forest count", len(forests) == self.size.forest_seeds),
            ("held-out predictions finite", all(_finite(*p) for _, p, _ in forests)),
            ("round-tripped forests predict bit-identically", all(
                all(_same_bits(qc.predict_forest(back, row), p) for row, p in zip(self.X_test, preds))
                for _, preds, back in forests
            )),
        ]
        artifacts = {}
        for k, (text, predictions, _) in enumerate(forests):
            artifacts[f"forest_{k}.json"] = text.encode()
            artifacts[f"forest_{k}_predictions.json"] = json.dumps([repr(p) for p in predictions]).encode()
        return checks, artifacts


WORKLOADS = {w.name: w for w in (M1Backtest, M2M3Backtest, ForestSweep)}
