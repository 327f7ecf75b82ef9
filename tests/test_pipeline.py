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
    MissingIndicatorError,
    NonconvergenceError,
    QuarterlySeries,
    SchemaMismatchError,
    ValidationError,
    auto_select,
    auto_select_ets,
    backtest,
    build_row,
    build_training_matrix,
    compare_expert,
    compare_horizons,
    compare_reports,
    extend_indicators,
    final_origin_forecasts,
    fit_windows,
    forecast_arima,
    forecast_indicator,
    forecast_ets,
    mape,
    model1_forecast,
    model1_run,
    model2_run,
    model3_run,
    model_config,
    parse_quarter,
    quarter_add,
    quarter_range,
    stlf_forecast,
    yoy_growth,
)
from quartercast import features, pipeline
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

    @pytest.mark.parametrize(
        "include_average, dropped",
        [(True, "2 candidate(s) failed to fit: arima, average"), (False, "1 candidate(s) failed to fit: arima")],
    )
    def test_warning_names_the_dropped_candidates_it_was_given(self, include_average, dropped, caplog):
        s = high_phi_series(n=24)
        cache = ForecastCache()
        for window in (s.window(quarter_add(s.end, -k), 14) for k in range(5)):  # Model 1's windows
            cache.put(window.values, (NonconvergenceError("no fit"), (60.0,) * 4, (61.0,) * 4))
        with caplog.at_level("WARNING", logger="quartercast.pipeline"):
            result = model1_forecast(s, s.end, include_average=include_average, cache=cache)
        assert set(result.candidates) == {"ets", "stl"}
        assert [r.getMessage() for r in caplog.records] == [f"model 1 at {s.end}: {dropped}"]


class TestModel1Path:
    """model1_run plans every (series, origin) key, then fits all their
    windows in one call, and selects what model1_forecast selects."""

    @staticmethod
    def _origins(test):
        return quarter_range(quarter_add(test[0], -1), quarter_add(test[1], -1))

    @pytest.mark.parametrize("run", ["model1_run", "backtest"])
    def test_one_window_fit_per_run(self, run, small_dataset, small_ranges, small_cache, monkeypatch):
        calls = []

        def counting(windows, cache=None):
            calls.append(len(windows))
            return fit_windows(windows, cache)

        def no_forecast(*args, **kwargs):
            raise AssertionError("model1_forecast was called")

        monkeypatch.setattr(pipeline, "fit_windows", counting)
        monkeypatch.setattr(features, "fit_windows", counting)
        monkeypatch.setattr(pipeline, "model1_forecast", no_forecast)
        train, test = small_ranges
        if run == "model1_run":
            model1_run(small_dataset, self._origins(test), cache=small_cache)
        else:
            backtest(small_dataset, "m1", train, test, cache=small_cache)
        assert calls == [5 * len(small_dataset.series_ids()) * len(self._origins(test))]

    @pytest.mark.parametrize("include_average", [True, False])
    def test_each_key_equals_model1_forecast(self, include_average, small_dataset, small_ranges, small_cache):
        origins = self._origins(small_ranges[1])
        results = model1_run(small_dataset, origins, include_average, small_cache)
        assert list(results) == [(geo, origin) for geo in small_dataset.series_ids() for origin in origins]
        for (geo, origin), result in results.items():
            assert result == model1_forecast(small_dataset.series_for(geo), origin, include_average, small_cache)

    def test_short_history_rejected_before_any_fit(self, small_dataset, monkeypatch):
        def no_fit(windows, cache=None):
            raise AssertionError("a window was fit")

        monkeypatch.setattr(pipeline, "fit_windows", no_fit)
        end = small_dataset.total.end
        first_short = quarter_add(small_dataset.total.start, 16)
        with pytest.raises(InsufficientDataError):
            model1_run(small_dataset, [end, first_short])


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


def bad_indicator_input(case, dataset):
    """A dataset and m3 config with one bad indicator input, the error it raises and what it names."""
    one = FeatureConfig(indicators=(IndicatorConfig("indicator"),))
    if case == "absent":
        return dataset, FeatureConfig(indicators=(IndicatorConfig("gdp"),)), MissingIndicatorError, "'gdp'"
    if case == "geos-leave-out-a-series":
        cfg = FeatureConfig(indicators=(IndicatorConfig("indicator", geos=("Geo_1",)),))
        return dataset, cfg, ValidationError, "'indicator' leaves out series 'Geo_2'"
    short = {key: s.truncated(quarter_add(s.start, 11)) for key, s in dataset.indicators.items()}
    return Dataset.build(dataset.revenue, indicators=short), one, MissingIndicatorError, "known through 2011Q4"


BAD_INDICATOR_CASES = ("absent", "geos-leave-out-a-series", "too-short")


class TestModelRules:
    def test_m2_drops_the_indicator_settings(self):
        cfg = FeatureConfig(
            indicators=(IndicatorConfig("indicator"),), macro_at_target=False,
            macro_source="revenue", lag_includes_origin=False,
        )
        assert model_config("m2", cfg) == FeatureConfig(lag_includes_origin=False)
        assert model_config("m1", cfg) is cfg and model_config("m3", cfg) is cfg

    @pytest.mark.parametrize(
        "flags",
        [dict(macro_source="revenue", macro_at_origin=False), dict(macro_at_origin=False, macro_at_target=False)],
        ids=["revenue-source-without-origin", "no-macro-flag"],
    )
    def test_m3_needs_a_macro_feature(self, flags):
        cfg = FeatureConfig(indicators=(IndicatorConfig("indicator"),), **flags)
        assert cfg.macro_feature_names() == [] and model_config("m1", cfg) is cfg
        with pytest.raises(ValidationError, match="model m3 has no macro feature"):
            model_config("m3", cfg)

    def test_m2_backtest_ignores_an_indicator_config(self, small_dataset, small_ranges, small_cache):
        train, test = small_ranges
        params = ForestParams(n_trees=5, seed=3)
        cfg = FeatureConfig(indicators=(IndicatorConfig("indicator"),), macro_at_target=False)
        plain = backtest(small_dataset, "m2", train, test, params, cache=small_cache)
        configured = backtest(small_dataset, "m2", train, test, params, config=cfg, cache=small_cache)
        assert configured.metadata == plain.metadata
        assert configured == plain

    @pytest.mark.parametrize("case", BAD_INDICATOR_CASES)
    @pytest.mark.parametrize("run", ["backtest", "final-origin"])
    def test_bad_indicator_rejected_before_any_fit(self, run, case, small_dataset, small_ranges, monkeypatch):
        def no_fit(*args, **kwargs):
            raise AssertionError("a window or indicator was fit")

        monkeypatch.setattr(pipeline, "fit_windows", no_fit)
        monkeypatch.setattr(features, "fit_windows", no_fit)
        monkeypatch.setattr(features, "auto_select_many", no_fit)
        dataset, cfg, error, named = bad_indicator_input(case, small_dataset)
        train, test = small_ranges
        params = ForestParams(n_trees=2, seed=1)
        with pytest.raises(error, match=named):
            if run == "backtest":
                backtest(dataset, "m3", train, test, params, config=cfg)
            else:
                final_origin_forecasts(dataset, train, params, cfg)


class TestRowPath:
    """Models 2 and 3 plan every row, then fit all their windows in one call,
    and build the rows the public row builders build."""

    @staticmethod
    def _count_fits(monkeypatch):
        calls = []

        def counting(windows, cache=None):
            calls.append(len(windows))
            return fit_windows(windows, cache)

        monkeypatch.setattr(pipeline, "fit_windows", counting)
        monkeypatch.setattr(features, "fit_windows", counting)
        return calls

    @pytest.mark.parametrize("run", ["model2_run", "model3_run", "final_origin_forecasts"])
    def test_one_window_fit_per_run(self, run, small_dataset, small_ranges, small_cache, monkeypatch):
        calls = self._count_fits(monkeypatch)
        train, test = small_ranges
        params = ForestParams(n_trees=2, seed=1)
        cfg = FeatureConfig(indicators=(IndicatorConfig("indicator"),))
        if run == "model2_run":
            model2_run(small_dataset, train, test, params, cache=small_cache)
        elif run == "model3_run":
            model3_run(small_dataset, train, test, params, cfg, cache=small_cache)
        else:
            final_origin_forecasts(small_dataset, train, params, cfg, cache=small_cache)
        assert len(calls) == 1

    def test_rows_equal_the_public_row_builders(self, small_dataset, small_ranges, small_cache):
        train, test = small_ranges
        cfg = FeatureConfig(indicators=(IndicatorConfig("indicator"),))
        run = model3_run(small_dataset, train, test, ForestParams(n_trees=2, seed=1), cfg, cache=small_cache)
        assert run.train_rows == build_training_matrix(small_dataset, train, cfg, small_cache)
        extended = extend_indicators(small_dataset, cfg, quarter_add(test[0], -1), test[1])
        assert run.test_rows == [
            build_row(small_dataset, r.geo, r.origin, r.horizon, cfg, indicator_series=extended, cache=small_cache)
            for r in run.test_rows
        ]
        assert len(run.test_rows) == len(run.predictions)


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


def _oracle(dataset):
    """A deterministic imperfect forecast: 1% high per horizon step."""
    return lambda geo, origin, h: dataset.series_for(geo).value_at(quarter_add(origin, h)) * (1.0 + 0.01 * h)


@pytest.fixture(scope="module")
def one_quarter_reports(small_dataset, small_ranges):
    """(full, short): the oracle over the whole test year, and over its first quarter only."""
    train, test = small_ranges
    full = backtest(small_dataset, "m2", train, test, oracle=_oracle(small_dataset))
    short = backtest(small_dataset, "m2", train, (test[0], test[0]), oracle=_oracle(small_dataset))
    return full, short


class TestMissingCells:
    def test_one_quarter_report_has_horizon_1_cells_only(self, one_quarter_reports):
        _, short = one_quarter_reports
        assert short.horizons == (1, 2, 3, 4)
        assert sorted(short.cells) == [(geo, 1) for geo in short.geos]
        for geo in short.geos:
            assert short.mape_for(geo, 1) == short.cells[(geo, 1)].mape
            assert [short.mape_for(geo, h) for h in (2, 3, 4)] == [None, None, None]

    def test_each_cell_scores_its_targets_in_order(self, small_dataset, one_quarter_reports, small_ranges):
        full, _ = one_quarter_reports
        test = small_ranges[1]
        forecast = _oracle(small_dataset)
        for (geo, h), cell in full.cells.items():
            targets = quarter_range(quarter_add(test[0], h - 1), test[1])
            actuals = [small_dataset.series_for(geo).value_at(t) for t in targets]
            forecasts = [forecast(geo, quarter_add(t, -h), h) for t in targets]
            assert [d.target for d in cell.details] == targets
            assert [d.forecast for d in cell.details] == forecasts
            assert cell.mape == mape(list(zip(actuals, forecasts)))

    @pytest.mark.parametrize("order", ["short-first", "full-first"])
    def test_models_table_is_none_where_either_report_lacks_a_cell(self, one_quarter_reports, order):
        full, short = one_quarter_reports
        base, cand = (short, full) if order == "short-first" else (full, short)
        table = compare_reports(base, cand)
        assert table.col_labels == ("horizon_1", "horizon_2", "horizon_3", "horizon_4")
        for geo in short.geos:
            assert table.cell(geo, "horizon_1") == pytest.approx(
                (base.mape_for(geo, 1) - cand.mape_for(geo, 1)) / base.mape_for(geo, 1) * 100.0
            )
            assert [table.cell(geo, f"horizon_{h}") for h in (2, 3, 4)] == [None, None, None]

    def test_horizons_table_is_all_none(self, one_quarter_reports):
        _, short = one_quarter_reports
        table = compare_horizons(short)
        assert table.row_labels == tuple(short.geos)
        assert table.cells == ((None, None, None),) * len(short.geos)

    def test_expert_table_reads_the_horizon_1_cells(self, small_dataset, one_quarter_reports):
        full, short = one_quarter_reports
        q = short.cells[("TOTAL", 1)].details[0].target
        expert = {("TOTAL", q): small_dataset.total.value_at(q) * 0.97, ("Geo_1", q): 1.0}
        got, want = compare_expert(short, expert), compare_expert(full, expert)
        assert (got.row_labels, got.col_labels, got.cells) == (want.row_labels, want.col_labels, want.cells)
        # expert APE 3%, model APE 1% (the oracle's one step)
        assert got.cell(str(q), "TOTAL") == pytest.approx(200.0 / 3.0)
