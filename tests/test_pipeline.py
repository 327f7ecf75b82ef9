import numpy as np
import pytest

from quartercast import (
    Dataset,
    FeatureConfig,
    FiscalQuarter,
    ForecastCache,
    ForestParams,
    IndicatorConfig,
    InsufficientDataError,
    QuarterlySeries,
    SchemaMismatchError,
    ValidationError,
    auto_select,
    auto_select_ets,
    backtest,
    compare_expert,
    compare_horizons,
    compare_reports,
    final_origin_forecasts,
    forecast_arima,
    forecast_indicator,
    forecast_ets,
    mape,
    model1_forecast,
    model3_run,
    parse_quarter,
    quarter_add,
    stlf_forecast,
    yoy_growth,
)
from quartercast import pipeline
from quartercast.pipeline import ApeDetail, EvaluationReport, HorizonCell

START = FiscalQuarter(2009, 1)


def high_phi_series(n=30, seed=3):
    rng = np.random.default_rng(seed)
    y = np.zeros(n)
    for t in range(1, n):
        y[t] = 0.92 * y[t - 1] + rng.standard_normal()
    return QuarterlySeries("ar", START, y + 60.0)


class TestModel1:
    def test_constant_series_tie_break(self):
        s = QuarterlySeries("c", START, [100.0] * 24)
        result = model1_forecast(s, s.end, cache=ForecastCache())
        assert result.chosen == "arima"
        assert result.forecast == pytest.approx(100.0, rel=1e-9)
        for cand in result.candidates.values():
            assert cand.trailing_mape == pytest.approx(0.0, abs=1e-6)

    def test_average_is_mean_of_bases(self):
        s = high_phi_series()
        result = model1_forecast(s, s.end, cache=ForecastCache())
        bases = [result.candidates[n].forecast for n in ("arima", "ets", "stl")]
        assert result.candidates["average"].forecast == pytest.approx(
            sum(bases) / 3.0, rel=1e-12
        )

    def test_argmin_and_independent_recomputation(self):
        s = high_phi_series()
        origin = s.end
        result = model1_forecast(s, origin, cache=ForecastCache())
        chosen = result.candidates[result.chosen]
        for cand in result.candidates.values():
            assert chosen.trailing_mape <= cand.trailing_mape

        # independent recomputation of the four one-step backtest fits
        pairs = {"arima": [], "ets": [], "stl": [], "average": []}
        for k in range(3, -1, -1):
            t = quarter_add(origin, -k)
            window = s.window(quarter_add(t, -1), 14)
            actual = s.value_at(t)
            fa = float(forecast_arima(auto_select(window), 1)[0])
            fe = float(forecast_ets(auto_select_ets(window), 1)[0])
            fs = float(stlf_forecast(window, 1)[0])
            pairs["arima"].append((actual, fa))
            pairs["ets"].append((actual, fe))
            pairs["stl"].append((actual, fs))
            pairs["average"].append((actual, (fa + fe + fs) / 3.0))
        for name, cand in result.candidates.items():
            assert cand.trailing_mape == pytest.approx(mape(pairs[name]), rel=1e-12)

    def test_average_excluded_by_flag(self):
        s = QuarterlySeries("c", START, [100.0] * 24)
        result = model1_forecast(s, s.end, include_average=False, cache=ForecastCache())
        assert set(result.candidates) == {"arima", "ets", "stl"}

    def test_insufficient_history(self):
        s = QuarterlySeries("c", START, [100.0] * 17)
        with pytest.raises(InsufficientDataError):
            model1_forecast(s, s.end)


class TestModel2:
    def test_constant_dataset_predicts_constant(self):
        ds = Dataset.build(
            {
                "A": QuarterlySeries("A", START, [100.0] * 26),
                "B": QuarterlySeries("B", START, [100.0] * 26),
            }
        )
        from quartercast import model2_run

        train = (quarter_add(START, 16), quarter_add(START, 21))
        test = (quarter_add(START, 22), quarter_add(START, 25))
        run = model2_run(ds, train, test, ForestParams(n_trees=20, seed=3), cache=ForecastCache())
        for (geo, target, h), value in run.predictions.items():
            expected = 100.0 if geo != "TOTAL" else 200.0
            assert value == pytest.approx(expected, rel=1e-6)

    def test_origins_trail_targets_by_horizon(self, small_dataset, small_ranges, small_cache):
        from quartercast import model2_run

        train, test = small_ranges
        run = model2_run(
            small_dataset, train, test, ForestParams(n_trees=30, seed=5), cache=small_cache
        )
        for row in run.test_rows:
            assert quarter_add(row.origin, row.horizon) == row.target_quarter
            assert test[0] <= row.target_quarter <= test[1]
            assert quarter_add(test[0], -1) <= row.origin

    def test_range_validation(self, small_dataset):
        from quartercast import model2_run

        with pytest.raises(ValidationError):
            model2_run(
                small_dataset,
                (parse_quarter("2013Q1"), parse_quarter("2012Q1")),
                (parse_quarter("2014Q3"), parse_quarter("2015Q2")),
                ForestParams(n_trees=1, seed=1),
            )
        with pytest.raises(ValidationError):
            model2_run(
                small_dataset,
                (parse_quarter("2012Q1"), parse_quarter("2014Q4")),
                (parse_quarter("2014Q3"), parse_quarter("2015Q2")),
                ForestParams(n_trees=1, seed=1),
            )


class TestModel3:
    def test_requires_indicator(self, small_dataset, small_ranges):
        train, test = small_ranges
        with pytest.raises(ValidationError):
            model3_run(small_dataset, train, test, ForestParams(n_trees=1, seed=1), FeatureConfig())

    def test_missing_indicator_errors(self, small_ranges):
        ds = Dataset.build({"A": QuarterlySeries("A", START, [100.0 + i for i in range(26)])})
        train, test = small_ranges
        cfg = FeatureConfig(indicators=(IndicatorConfig("gdp"),))
        with pytest.raises(Exception) as err:
            model3_run(ds, train, test, ForestParams(n_trees=1, seed=1), cfg)
        from quartercast import MissingIndicatorError

        assert isinstance(err.value, MissingIndicatorError)


class TestFinalOrigin:
    def test_indicator_forecasts_from_the_end_of_history(self, small_dataset, small_ranges, small_cache):
        train, _ = small_ranges
        end = small_dataset.total.end
        cfg = FeatureConfig(indicators=(IndicatorConfig("indicator"),))
        run = final_origin_forecasts(
            small_dataset, train, ForestParams(n_trees=20, seed=3), cfg, h_max=2, cache=small_cache
        )
        ids = small_dataset.series_ids()
        assert list(run.predictions) == [(g, quarter_add(end, h), h) for g in ids for h in (1, 2)]
        assert all(np.isfinite(v) for v in run.predictions.values())
        for row in run.test_rows:
            assert row.origin == end
            hist = small_dataset.indicator_for(row.geo, "indicator").truncated(end)
            extended = hist.extended(forecast_indicator(hist, 2))
            macro = dict(row.macro)
            assert row.target_quarter not in hist
            assert macro["indicator_yoy_target"] == yoy_growth(extended, row.target_quarter)
            assert macro["indicator_yoy_origin"] == yoy_growth(hist, end)

    @pytest.mark.parametrize("h_max", [0, 5, -1])
    def test_horizon_out_of_range_rejected_before_any_fit(self, h_max, small_dataset, small_ranges, monkeypatch):
        def no_fit(windows, cache=None):
            raise AssertionError("a window was fit")

        monkeypatch.setattr(pipeline, "fit_windows", no_fit)
        train, _ = small_ranges
        with pytest.raises(ValidationError, match=f"h_max must be in 1..4, got {h_max}"):
            final_origin_forecasts(small_dataset, train, ForestParams(n_trees=5, seed=3), h_max=h_max)


class TestBacktest:
    def test_perfect_oracle_zero_mape(self, small_dataset, small_ranges):
        train, test = small_ranges

        def oracle(geo, origin, h):
            return small_dataset.series_for(geo).value_at(quarter_add(origin, h))

        report = backtest(small_dataset, "m2", train, test, oracle=oracle)
        for cell in report.cells.values():
            assert cell.mape == 0.0

    def test_horizon_triangle_counts(self, small_dataset, small_ranges):
        train, test = small_ranges
        report = backtest(small_dataset, "m2", train, test, oracle=lambda g, o, h: 1.0)
        for geo in report.geos:
            for h, count in zip((1, 2, 3, 4), (4, 3, 2, 1)):
                assert len(report.cells[(geo, h)].details) == count
                quarters = [d.target for d in report.cells[(geo, h)].details]
                assert quarters == sorted(quarters)
                assert quarters[0] == quarter_add(test[0], h - 1)

    def test_unknown_model(self, small_dataset, small_ranges):
        train, test = small_ranges
        with pytest.raises(ValidationError):
            backtest(small_dataset, "m9", train, test)

    def test_m2_requires_params(self, small_dataset, small_ranges):
        train, test = small_ranges
        with pytest.raises(ValidationError):
            backtest(small_dataset, "m2", train, test)


def _report(model, geos, horizons, mapes, details=None):
    cells = {}
    for geo in geos:
        for h in horizons:
            cells[(geo, h)] = HorizonCell(
                mape=mapes[(geo, h)], details=details.get((geo, h), ()) if details else ()
            )
    return EvaluationReport(
        model=model, geos=tuple(geos), horizons=tuple(horizons), cells=cells, metadata={}
    )


class TestCompare:
    def test_model_vs_model_cells(self):
        base = _report("m1", ["A", "TOTAL"], [1], {("A", 1): 2.0, ("TOTAL", 1): 4.0})
        cand = _report("m2", ["A", "TOTAL"], [1], {("A", 1): 1.0, ("TOTAL", 1): 3.0})
        table = compare_reports(base, cand)
        assert table.cell("A", "horizon_1") == pytest.approx(50.0)
        assert table.cell("TOTAL", "horizon_1") == pytest.approx(25.0)

    def test_identical_reports_zero(self):
        r = _report("m2", ["A"], [1, 2], {("A", 1): 2.0, ("A", 2): 3.0})
        table = compare_reports(r, r)
        assert all(v == 0.0 for row in table.cells for v in row)

    def test_zero_baseline_is_none(self):
        base = _report("m1", ["A"], [1], {("A", 1): 0.0})
        cand = _report("m2", ["A"], [1], {("A", 1): 1.0})
        assert compare_reports(base, cand).cell("A", "horizon_1") is None

    def test_geography_mismatch(self):
        base = _report("m1", ["A"], [1], {("A", 1): 1.0})
        cand = _report("m2", ["B"], [1], {("B", 1): 1.0})
        with pytest.raises(SchemaMismatchError):
            compare_reports(base, cand)

    def test_horizons_vs_h1(self):
        mapes = {("A", 1): 2.0, ("A", 2): 1.0, ("A", 3): 4.0, ("A", 4): 2.0}
        table = compare_horizons(_report("m2", ["A"], [1, 2, 3, 4], mapes))
        assert table.col_labels == ("horizon_2", "horizon_3", "horizon_4")
        assert table.cells[0] == (pytest.approx(50.0), pytest.approx(-100.0), pytest.approx(0.0))

    def test_expert_comparison(self):
        q = parse_quarter("2016Q2")
        detail = ApeDetail(target=q, actual=100.0, forecast=99.0, ape=1.0)
        rep = _report("m2", ["TOTAL"], [1], {("TOTAL", 1): 1.0}, {("TOTAL", 1): (detail,)})
        # expert forecast 98 -> expert APE 2.0; model APE 1.0 -> 50% improvement
        table = compare_expert(rep, {("TOTAL", q): 98.0})
        assert table.cell("2016Q2", "TOTAL") == pytest.approx(50.0)

    def test_expert_equal_to_actual_is_none(self):
        q = parse_quarter("2016Q2")
        detail = ApeDetail(target=q, actual=100.0, forecast=99.0, ape=1.0)
        rep = _report("m2", ["TOTAL"], [1], {("TOTAL", 1): 1.0}, {("TOTAL", 1): (detail,)})
        table = compare_expert(rep, {("TOTAL", q): 100.0})
        assert table.cell("2016Q2", "TOTAL") is None

    def test_expert_no_overlap(self):
        q = parse_quarter("2016Q2")
        detail = ApeDetail(target=q, actual=100.0, forecast=99.0, ape=1.0)
        rep = _report("m2", ["TOTAL"], [1], {("TOTAL", 1): 1.0}, {("TOTAL", 1): (detail,)})
        with pytest.raises(ValidationError):
            compare_expert(rep, {("TOTAL", parse_quarter("2020Q1")): 5.0})
