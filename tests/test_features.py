import numpy as np
import pytest

from quartercast import (
    Dataset,
    FeatureConfig,
    FiscalQuarter,
    ForecastCache,
    IndicatorConfig,
    InsufficientDataError,
    MissingIndicatorError,
    QuarterlySeries,
    SynthSpec,
    UnknownGeographyError,
    ValidationError,
    base_forecasts,
    build_row,
    build_training_matrix,
    extend_indicators,
    feature_names,
    forecast_indicator,
    generate_synthetic,
    macro_features,
    quarter_add,
    row_vector,
    with_indicators,
    yoy_growth,
)

from quartercast import _optim
from quartercast.features import fit_windows

START = FiscalQuarter(2009, 1)
ORIGIN_20 = FiscalQuarter(2013, 4)  # 20th quarter of a series starting 2009Q1


def counting_dataset(n=20, geos=("A", "B")):
    return Dataset.build(
        {g: QuarterlySeries(g, START, [float(i) for i in range(1, n + 1)]) for g in geos}
    )


def counted_runs(monkeypatch):
    """The member count of every nelder_mead_batch run from now on, one entry per run."""
    runs = []
    batch = _optim.nelder_mead_batch

    def counting_batch(*args, **kwargs):
        runs.append(len(args[2]))
        return batch(*args, **kwargs)

    monkeypatch.setattr(_optim, "nelder_mead_batch", counting_batch)
    return runs


@pytest.fixture(scope="module")
def cache():
    return ForecastCache()


class TestBaseForecasts:
    def test_constant_series(self, cache):
        ds = Dataset.build({"A": QuarterlySeries("A", START, [50.0] * 20)})
        a, e, s = base_forecasts(ds.series_for("A"), ORIGIN_20, 2, cache)
        for v in (a, e, s):
            assert v == pytest.approx(50.0, rel=1e-6)

    def test_window_isolation(self):
        rng = np.random.default_rng(40)
        tail = rng.normal(100, 5, 16).tolist()
        s1 = QuarterlySeries("A", START, [100.0, 100.0, 100.0, 100.0] + tail)
        s2 = QuarterlySeries("A", START, [999.0, 5.0, 123.0, 77.0] + tail)
        origin = quarter_add(START, 19)
        f1 = base_forecasts(s1, origin, 1, ForecastCache())
        f2 = base_forecasts(s2, origin, 1, ForecastCache())
        assert f1 == f2

    def test_seasonal_average_accuracy(self, cache):
        pattern = [12.0, -4.0, -12.0, 4.0]
        y = [100.0 + pattern[t % 4] + 0.5 * t for t in range(20)]
        s = QuarterlySeries("A", START, y)
        origin = quarter_add(START, 15)
        truth = 100.0 + pattern[16 % 4] + 0.5 * 16
        a, e, st = base_forecasts(s, origin, 1, cache)
        assert abs((a + e + st) / 3.0 - truth) < 0.10 * abs(truth)

    def test_insufficient_history(self, cache):
        s = QuarterlySeries("A", START, [1.0] * 10)
        with pytest.raises(InsufficientDataError):
            base_forecasts(s, quarter_add(START, 9), 1, cache)


class TestBuildRow:
    def test_lag_vector(self, cache):
        ds = counting_dataset()
        row = build_row(ds, "A", ORIGIN_20, 1, cache=cache)
        assert row.lags == (20.0, 19.0, 18.0, 17.0, 16.0, 15.0, 14.0, 13.0)

    def test_lag_convention_flag(self, cache):
        ds = counting_dataset()
        cfg = FeatureConfig(lag_includes_origin=False)
        row = build_row(ds, "A", ORIGIN_20, 1, cfg, cache=cache)
        assert row.lags == (19.0, 18.0, 17.0, 16.0, 15.0, 14.0, 13.0, 12.0)

    def test_average_is_exact_mean(self, cache):
        ds = counting_dataset()
        row = build_row(ds, "A", ORIGIN_20, 1, cache=cache)
        assert row.avg_ts_fc == (row.arima_fc + row.ets_fc + row.stl_fc) / 3.0

    def test_training_target_indexing(self, cache):
        ds = counting_dataset(n=22)
        row = build_row(ds, "A", ORIGIN_20, 2, training=True, cache=cache)
        assert row.target == 22.0
        assert row.target_quarter == quarter_add(ORIGIN_20, 2)

    def test_identical_series_identical_rows(self, cache):
        ds = counting_dataset()
        ra = build_row(ds, "A", ORIGIN_20, 1, cache=cache)
        rb = build_row(ds, "B", ORIGIN_20, 1, cache=cache)
        assert ra.lags == rb.lags
        assert (ra.arima_fc, ra.ets_fc, ra.stl_fc) == (rb.arima_fc, rb.ets_fc, rb.stl_fc)
        assert ra.geo != rb.geo


class TestTrainingMatrix:
    def test_seventeen_quarter_counting(self):
        n = 17
        values = [100.0 + 3.0 * np.sin(i) + i for i in range(n)]
        ds = Dataset.build(
            {
                "A": QuarterlySeries("A", START, values),
                "B": QuarterlySeries("B", START, [2.0 * v for v in values]),
            }
        )
        rows = build_training_matrix(
            ds, (START, quarter_add(START, n - 1)), cache=ForecastCache()
        )
        # only origin = quarter 16 qualifies, and only at horizon 1
        assert len(rows) == (2 + 1) * 1
        assert all(r.horizon == 1 for r in rows)

    def test_no_leakage_from_later_data(self):
        base = [100.0 + 2.0 * i + 5.0 * ((i % 4) == 0) for i in range(20)]
        ds1 = Dataset.build({"A": QuarterlySeries("A", START, base)})
        bumped = list(base)
        bumped[-1] *= 3.0  # after the last training target
        ds2 = Dataset.build({"A": QuarterlySeries("A", START, bumped)})
        rng = (quarter_add(START, 16), quarter_add(START, 18))
        rows1 = build_training_matrix(ds1, rng, cache=ForecastCache())
        rows2 = build_training_matrix(ds2, rng, cache=ForecastCache())
        assert rows1 == rows2

    def test_empty_training_set(self):
        ds = counting_dataset(n=16)
        with pytest.raises(InsufficientDataError):
            build_training_matrix(ds, (START, quarter_add(START, 3)), cache=ForecastCache())


class TestMacroFeatures:
    def _dataset(self, indicator_values, n=24):
        rev = {"A": QuarterlySeries("A", START, [100.0 + i for i in range(n)])}
        ind = {("A", "gdp"): QuarterlySeries("A", START, indicator_values)}
        return Dataset.build(rev, indicators=ind)

    def test_flat_indicator_zero_features(self):
        ds = self._dataset([100.0] * 24)
        cfg = FeatureConfig(indicators=(IndicatorConfig("gdp"),))
        origin = quarter_add(START, 20)
        macro = macro_features(ds, "A", origin, quarter_add(origin, 1), cfg)
        assert dict(macro) == {"gdp_yoy_origin": 0.0, "gdp_yoy_target": 0.0}

    def test_constant_growth(self):
        values = [100.0 * 1.08 ** (i // 4) for i in range(24)]
        ds = self._dataset(values)
        cfg = FeatureConfig(indicators=(IndicatorConfig("gdp"),))
        origin = quarter_add(START, 20)
        macro = dict(macro_features(ds, "A", origin, quarter_add(origin, 1), cfg))
        assert macro["gdp_yoy_origin"] == pytest.approx(0.08, rel=1e-9)
        assert macro["gdp_yoy_target"] == pytest.approx(0.08, rel=1e-9)

    def test_scale_invariance(self):
        rng = np.random.default_rng(41)
        vals = rng.uniform(90, 110, 24)
        cfg = FeatureConfig(indicators=(IndicatorConfig("gdp"),))
        origin = quarter_add(START, 20)
        m1 = macro_features(self._dataset(vals), "A", origin, quarter_add(origin, 1), cfg)
        m2 = macro_features(self._dataset(7.0 * vals), "A", origin, quarter_add(origin, 1), cfg)
        for (_, a), (_, b) in zip(m1, m2):
            assert a == pytest.approx(b, rel=1e-12)

    def test_missing_indicator(self):
        ds = self._dataset([100.0] * 24)
        cfg = FeatureConfig(indicators=(IndicatorConfig("share-prices"),))
        with pytest.raises(MissingIndicatorError):
            macro_features(ds, "A", quarter_add(START, 20), quarter_add(START, 21), cfg)

    def test_indicator_starting_late_is_named_with_the_quarters_it_lacks(self):
        ds = generate_synthetic(SynthSpec(n_geos=2, n_quarters=28, seed=3))
        late = {
            key: QuarterlySeries(series.id, quarter_add(series.start, 12), series.values[12:])
            for key, series in ds.indicators.items()
        }
        ds = with_indicators(ds, late)
        cfg = FeatureConfig(indicators=(IndicatorConfig("indicator"),))
        origin = FiscalQuarter(2012, 4)  # the indicators start in 2012Q1
        with pytest.raises(MissingIndicatorError) as err:
            macro_features(ds, "Geo_1", origin, quarter_add(origin, 1), cfg)
        assert str(err.value) == (
            "indicator 'indicator' for geography 'Geo_1' does not cover both 2011Q4 and 2012Q4, "
            "the quarters of its year-over-year growth at 2012Q4"
        )
        # one year in, both features read
        assert len(macro_features(ds, "TOTAL", FiscalQuarter(2013, 1), FiscalQuarter(2013, 2), cfg)) == 2
        # the target's quarter is checked too: the indicators end in 2015Q4
        with pytest.raises(MissingIndicatorError, match="'TOTAL' does not cover both 2015Q1 and 2016Q1"):
            macro_features(ds, "TOTAL", FiscalQuarter(2015, 4), FiscalQuarter(2016, 1), cfg)
        # a revenue source reads revenue, which covers every quarter
        revenue_cfg = FeatureConfig(indicators=cfg.indicators, macro_source="revenue")
        assert len(macro_features(ds, "Geo_1", origin, quarter_add(origin, 1), revenue_cfg)) == 1

    def test_forecasted_extension_isolates_target_field(self):
        values = [100.0 * 1.05 ** (i / 4) for i in range(24)]
        ds = self._dataset(values)
        cfg = FeatureConfig(indicators=(IndicatorConfig("gdp"),))
        origin = quarter_add(START, 23)
        target = quarter_add(origin, 2)  # beyond indicator history
        hist = ds.indicator_for("A", "gdp")
        extended = {("A", "gdp"): hist.extended(forecast_indicator(hist, 2))}
        with_fc = dict(macro_features(ds, "A", origin, target, cfg, extended))
        # replacing forecasts by "later revealed" actuals changes only the target field
        revealed = {("A", "gdp"): hist.extended([100.0 * 1.05 ** (i / 4) for i in (24, 25)])}
        with_actual = dict(macro_features(ds, "A", origin, target, cfg, revealed))
        assert with_fc["gdp_yoy_origin"] == with_actual["gdp_yoy_origin"]
        assert with_fc["gdp_yoy_target"] != with_actual["gdp_yoy_target"]

    def test_revenue_mode_suppresses_target(self):
        ds = self._dataset([100.0] * 24)
        cfg = FeatureConfig(indicators=(IndicatorConfig("gdp"),), macro_source="revenue")
        origin = quarter_add(START, 20)
        macro = dict(macro_features(ds, "A", origin, quarter_add(origin, 1), cfg))
        assert set(macro) == {"gdp_yoy_origin"}
        assert macro["gdp_yoy_origin"] == pytest.approx(
            yoy_growth(ds.series_for("A"), origin)
        )


class TestIndicatorForecast:
    def test_constant(self):
        s = QuarterlySeries("i", START, [100.0] * 20)
        assert forecast_indicator(s, 4) == pytest.approx([100.0] * 4, rel=1e-9)

    def test_linear_trend(self):
        s = QuarterlySeries("i", START, [50.0 + 2.0 * t for t in range(40)])
        fc = forecast_indicator(s, 1)
        truth = 50.0 + 2.0 * 40
        assert abs(fc[0] - truth) < 0.05 * truth

    def test_extension_is_contiguous(self):
        s = QuarterlySeries("i", START, [100.0 + t for t in range(20)])
        ext = s.extended(forecast_indicator(s, 3))
        assert len(ext) == 23
        assert ext.end == quarter_add(START, 22)


class TestExtendIndicators:
    def _ragged(self, n_indicator):
        rev = {"A": QuarterlySeries("A", START, [100.0 + i for i in range(24)])}
        ind = {
            (geo, "gdp"): QuarterlySeries(geo, START, [50.0 + i for i in range(n_indicator)])
            for geo in ("A", "TOTAL")
        }
        return Dataset.build(rev, indicators=ind), FeatureConfig(indicators=(IndicatorConfig("gdp"),))

    def test_absent_indicator_of_a_modeled_series_is_named(self, monkeypatch):
        import quartercast.features as features

        def no_fit(series_list):
            raise AssertionError("an ARIMA fit ran before the missing indicator was reported")

        monkeypatch.setattr(features, "auto_select_many", no_fit)
        rev = {"A": QuarterlySeries("A", START, [100.0 + i for i in range(24)])}
        ind = {("A", "gdp"): QuarterlySeries("A", START, [50.0 + i for i in range(24)])}
        ds, cfg = Dataset.build(rev, indicators=ind), FeatureConfig(indicators=(IndicatorConfig("gdp"),))
        end = quarter_add(START, 23)
        with pytest.raises(MissingIndicatorError, match="no indicator 'gdp' for geography 'TOTAL'"):
            extend_indicators(ds, cfg, known_through=end, needed_through=end)

    def test_gap_beyond_forecast_reach_names_the_indicator(self, monkeypatch):
        import quartercast.features as features

        def no_fit(series_list):
            raise AssertionError("an ARIMA fit ran before the gap was reported")

        monkeypatch.setattr(features, "auto_select_many", no_fit)
        ds, cfg = self._ragged(12)  # ends 2011Q4, 12 quarters before 2014Q4
        end = quarter_add(START, 23)
        with pytest.raises(MissingIndicatorError) as err:
            extend_indicators(ds, cfg, known_through=end, needed_through=end)
        msg = str(err.value)
        assert "'gdp'" in msg and "'A'" in msg and "2011Q4" in msg and "2014Q4" in msg

    def test_indicator_starting_after_known_through_is_named(self, monkeypatch):
        import quartercast.features as features

        def no_fit(series_list):
            raise AssertionError("an ARIMA fit ran before the late indicator was reported")

        monkeypatch.setattr(features, "auto_select_many", no_fit)
        rev = {"A": QuarterlySeries("A", START, [100.0 + i for i in range(24)])}
        late = quarter_add(START, 16)
        ind = {(geo, "gdp"): QuarterlySeries(geo, late, [50.0 + i for i in range(8)]) for geo in ("A", "TOTAL")}
        ds, cfg = Dataset.build(rev, indicators=ind), FeatureConfig(indicators=(IndicatorConfig("gdp"),))
        known = quarter_add(late, -1)
        with pytest.raises(MissingIndicatorError) as err:
            extend_indicators(ds, cfg, known_through=known, needed_through=quarter_add(START, 23))
        msg = str(err.value)
        assert "'gdp'" in msg and "'A'" in msg and str(late) in msg and str(known) in msg

    def test_gap_of_eight_is_forecast(self):
        ds, cfg = self._ragged(12)
        needed = quarter_add(START, 19)
        out = extend_indicators(ds, cfg, known_through=needed, needed_through=needed)
        assert out[("A", "gdp")].end == needed
        assert out[("A", "gdp")].values[:12] == ds.indicator_for("A", "gdp").values

    def test_both_indicators_are_extended_in_one_run(self, monkeypatch):
        ds, cfg = self._ragged(12)
        runs = counted_runs(monkeypatch)
        needed = quarter_add(START, 19)
        out = extend_indicators(ds, cfg, known_through=needed, needed_through=needed)
        assert len(runs) == 1 and out[("A", "gdp")].end == out[("TOTAL", "gdp")].end == needed


class TestFitWindowsRuns:
    """A fit_windows call makes three nelder_mead_batch runs however many
    windows it fits: the ETS search, the ETS polish and the ARIMA grids."""

    @pytest.mark.parametrize("n_windows", [1, 12])
    def test_fit_windows_makes_three_runs_then_none_from_the_cache(self, n_windows, monkeypatch):
        series = generate_synthetic(SynthSpec(n_geos=1, n_quarters=28, seed=3)).series_for("Geo_1")
        windows = [series.window(quarter_add(series.start, 15 + k), 16) for k in range(n_windows)]
        cache = ForecastCache()
        runs = counted_runs(monkeypatch)
        entries = fit_windows(windows, cache)
        assert len(runs) == 3 and min(runs) > n_windows
        runs.clear()
        assert fit_windows(windows, cache) == entries
        assert runs == []


class TestVectorization:
    def test_feature_order_macro_last(self):
        cfg = FeatureConfig(indicators=(IndicatorConfig("gdp"), IndicatorConfig("stock")))
        names = feature_names(["A", "B", "TOTAL"], cfg)
        assert names[0] == "horizon"
        assert names[1:9] == [f"lag_{k}" for k in range(1, 9)]
        assert names[9:13] == ["arima_fc", "ets_fc", "stl_fc", "avg_ts_fc"]
        assert names[13:16] == ["geo_A", "geo_B", "geo_TOTAL"]
        assert names[16:] == [
            "gdp_yoy_origin",
            "gdp_yoy_target",
            "stock_yoy_origin",
            "stock_yoy_target",
        ]

    def test_indicator_leaving_out_a_series_is_rejected(self):
        cfg = FeatureConfig(indicators=(IndicatorConfig("gdp", geos=("A", "TOTAL")),))
        with pytest.raises(ValidationError, match="indicator 'gdp' leaves out series 'B'"):
            feature_names(["A", "B", "TOTAL"], cfg)

    @pytest.mark.parametrize(
        "geos, named",
        [
            ((), "indicator 'gdp' leaves out series 'A'"),
            (("A", "B", "TOTAL", "Nope"), "indicator 'gdp' 'geos' names 'Nope', which is not a modeled series"),
        ],
        ids=["empty", "names-no-series"],
    )
    def test_indicator_geos_entries_are_checked(self, geos, named):
        cfg = FeatureConfig(indicators=(IndicatorConfig("gdp", geos=geos),))
        with pytest.raises(ValidationError, match=named):
            feature_names(["A", "B", "TOTAL"], cfg)

    def test_unknown_geography(self, cache):
        ds = counting_dataset()
        row = build_row(ds, "A", ORIGIN_20, 1, cache=cache)
        with pytest.raises(UnknownGeographyError):
            row_vector(row, ["B", "TOTAL"], FeatureConfig())

    def test_one_hot_encoding(self, cache):
        ds = counting_dataset()
        row = build_row(ds, "B", ORIGIN_20, 1, cache=cache)
        vec = row_vector(row, ["A", "B", "TOTAL"], FeatureConfig())
        assert vec[13:16].tolist() == [0.0, 1.0, 0.0]


class TestIndicatorConfig:
    @pytest.mark.parametrize(
        "kwargs, named",
        [
            ({"indicator_id": None}, "indicator_id must be a non-empty string, got None"),
            ({"indicator_id": 5}, "indicator_id must be a non-empty string, got 5"),
            ({"indicator_id": ""}, "indicator_id must be a non-empty string, got ''"),
            ({"indicator_id": "gdp", "geos": ["A"]}, r"geos must be None or a tuple of geography names, got \['A'\]"),
            ({"indicator_id": "gdp", "geos": "A"}, "geos must be None or a tuple of geography names, got 'A'"),
            ({"indicator_id": "gdp", "geos": ("A", 3)}, r"geos must be None or a tuple of geography names, got \('A', 3\)"),
        ],
        ids=["id-null", "id-a-number", "id-empty", "geos-a-list", "geos-a-string", "geos-a-number"],
    )
    def test_bad_field_is_named(self, kwargs, named):
        with pytest.raises(ValidationError, match=named):
            IndicatorConfig(**kwargs)

    def test_repeated_indicator_is_named(self):
        with pytest.raises(ValidationError, match="indicator 'gdp' is configured more than once"):
            FeatureConfig(indicators=(IndicatorConfig("gdp"), IndicatorConfig("cpi"), IndicatorConfig("gdp", ("A",))))

    def test_empty_geos_is_accepted(self):
        assert IndicatorConfig("gdp", geos=()).geos == ()

    def test_repr_is_unchanged(self):
        # The repr feeds a report's config_hash.
        assert repr(IndicatorConfig("gdp")) == "IndicatorConfig(indicator_id='gdp', geos=None)"
        assert repr(IndicatorConfig("gdp", ("A",))) == "IndicatorConfig(indicator_id='gdp', geos=('A',))"
