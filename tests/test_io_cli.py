import json
import re
from pathlib import Path

import numpy as np
import pytest

from quartercast import (
    ContiguityError,
    DuplicateKeyError,
    FiscalQuarter,
    ForecastCache,
    QuarterlySeries,
    SchemaMismatchError,
    SynthSpec,
    TOTAL_ID,
    ValidationError,
    generate_synthetic,
    load_expert_forecasts_csv,
    load_indicator_csv,
    load_revenue_csv,
    model1_forecast,
    quarter_add,
    read_report,
    read_table,
    write_indicator_csv,
    write_report,
    write_revenue_csv,
    yoy_growth,
)
from quartercast import cli, features, pipeline
from quartercast.cli import SETTINGS, _load_config, main
from quartercast.pipeline import ApeDetail, ComparisonTable, EvaluationReport, HorizonCell

START = FiscalQuarter(2009, 1)


def write_lines(path, lines):
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


class TestRevenueCsv:
    def test_basic_load_computes_total(self, tmp_path):
        p = tmp_path / "rev.csv"
        lines = ["geo,fiscal_year,fiscal_quarter,revenue"]
        for geo, scale in (("Geo_1", 1.0), ("Geo_2", 2.0)):
            q = START
            for i in range(8):
                lines.append(f"{geo},{q.year},{q.quarter},{100.0 * scale + i}")
                from quartercast import quarter_add

                q = quarter_add(q, 1)
        write_lines(p, lines)
        ds = load_revenue_csv(p)
        assert ds.geos() == ["Geo_1", "Geo_2"]
        assert len(ds.total) == 8
        assert ds.total.values[0] == pytest.approx(300.0)

    def test_contiguity_error_names_geo_and_quarter(self, tmp_path):
        p = tmp_path / "rev.csv"
        write_lines(
            p,
            [
                "geo,fiscal_year,fiscal_quarter,revenue",
                "Geo_1,2012,1,100",
                "Geo_1,2012,2,100",
                "Geo_1,2012,4,100",
            ],
        )
        with pytest.raises(ContiguityError) as err:
            load_revenue_csv(p)
        assert "Geo_1 2012Q3" in str(err.value)

    def test_duplicate_rejected(self, tmp_path):
        p = tmp_path / "rev.csv"
        write_lines(
            p,
            [
                "geo,fiscal_year,fiscal_quarter,revenue",
                "Geo_1,2012,1,100",
                "Geo_1,2012,1,100",
            ],
        )
        with pytest.raises(DuplicateKeyError):
            load_revenue_csv(p)

    def test_nonpositive_rejected(self, tmp_path):
        p = tmp_path / "rev.csv"
        write_lines(
            p, ["geo,fiscal_year,fiscal_quarter,revenue", "Geo_1,2012,1,0.0"]
        )
        with pytest.raises(ValidationError):
            load_revenue_csv(p)

    def test_value_above_the_bound_names_file_and_line(self, tmp_path):
        p = tmp_path / "rev.csv"
        write_lines(p, ["geo,fiscal_year,fiscal_quarter,revenue", "Geo_1,2012,1,1e100", "Geo_1,2012,2,2e100"])
        message = f"{p}:3: value must be at most 1e+100, got '2e100'"
        with pytest.raises(ValidationError, match=f"^{re.escape(message)}$"):
            load_revenue_csv(p)

    def test_bad_header(self, tmp_path):
        p = tmp_path / "rev.csv"
        write_lines(p, ["geo,year,quarter,revenue", "Geo_1,2012,1,5"])
        with pytest.raises(SchemaMismatchError):
            load_revenue_csv(p)

    @pytest.mark.parametrize("geo", ["", "  "])
    def test_blank_geo_names_file_and_line(self, geo, tmp_path):
        p = tmp_path / "rev.csv"
        write_lines(p, ["geo,fiscal_year,fiscal_quarter,revenue", "Geo_1,2012,1,5.0", f"{geo},2012,1,5.0"])
        with pytest.raises(ValidationError, match=f"^{re.escape(str(p))}:3: geo is blank$"):
            load_revenue_csv(p)

    def test_explicit_total_accepted_and_tolerance(self, tmp_path):
        values = {"Geo_1": 100.0, "Geo_2": 250.0}
        good = tmp_path / "good.csv"
        lines = ["geo,fiscal_year,fiscal_quarter,revenue"]
        for geo, v in values.items():
            lines += [f"{geo},2012,{q},{v}" for q in (1, 2, 3, 4)]
        lines += [f"TOTAL,2012,{q},350.0" for q in (1, 2, 3, 4)]
        write_lines(good, lines)
        ds = load_revenue_csv(good)
        assert ds.total.values == (350.0,) * 4

        bad = tmp_path / "bad.csv"
        off = 350.0 * (1 + 1e-6)
        lines_bad = lines[:-4] + [f"TOTAL,2012,{q},{off!r}" for q in (1, 2, 3, 4)]
        write_lines(bad, lines_bad)
        # The sum prints as a plain float, not as a numpy repr.
        message = f"{bad}: TOTAL at 2012Q1 is {off!r} but geography sum is 350.0"
        with pytest.raises(ValidationError, match=f"^{re.escape(message)}$"):
            load_revenue_csv(bad)

    def test_load_write_load_identity(self, tmp_path):
        spec = SynthSpec(n_geos=3, n_quarters=24, seed=9)
        ds = generate_synthetic(spec)
        p1 = tmp_path / "a.csv"
        p2 = tmp_path / "b.csv"
        write_revenue_csv(ds, p1)
        loaded = load_revenue_csv(p1)
        write_revenue_csv(loaded, p2)
        assert p1.read_bytes() == p2.read_bytes()
        reloaded = load_revenue_csv(p2)
        assert reloaded.revenue == loaded.revenue
        assert reloaded.total == loaded.total


class TestIndicatorCsv:
    def test_load_and_units_pass_through(self, tmp_path):
        p = tmp_path / "ind.csv"
        write_lines(
            p,
            ["geo,indicator,fiscal_year,fiscal_quarter,value"]
            + [f"Geo_1,share-prices,2012,{q},{0.9 + q / 100}" for q in (1, 2, 3, 4)]
            + [f"Geo_1,gdp,2012,{q},{1.5e12 + q}" for q in (1, 2, 3, 4)],
        )
        ind = load_indicator_csv(p)
        assert set(ind) == {("Geo_1", "share-prices"), ("Geo_1", "gdp")}
        assert all(v < 1.0 for v in ind[("Geo_1", "share-prices")].values[:1])

    def test_negative_value_rejected(self, tmp_path):
        p = tmp_path / "ind.csv"
        write_lines(
            p,
            ["geo,indicator,fiscal_year,fiscal_quarter,value", "Geo_1,gdp,2012,1,-5"],
        )
        with pytest.raises(ValidationError):
            load_indicator_csv(p)

    def test_value_above_the_bound_names_file_and_line(self, tmp_path):
        p = tmp_path / "ind.csv"
        write_lines(p, ["geo,indicator,fiscal_year,fiscal_quarter,value", "Geo_1,gdp,2012,1,5.0", "Geo_1,gdp,2012,2,1e305"])
        message = f"{p}:3: value must be at most 1e+100, got '1e305'"
        with pytest.raises(ValidationError, match=f"^{re.escape(message)}$"):
            load_indicator_csv(p)

    @pytest.mark.parametrize(
        "row, field", [(",gdp,2012,1,5.0", "geo"), ("Geo_1,,2012,1,5.0", "indicator"), ("Geo_1, ,2012,1,5.0", "indicator")]
    )
    def test_blank_id_names_file_and_line(self, row, field, tmp_path):
        p = tmp_path / "ind.csv"
        write_lines(p, ["geo,indicator,fiscal_year,fiscal_quarter,value", "Geo_1,gdp,2012,1,5.0", row])
        with pytest.raises(ValidationError, match=f"^{re.escape(str(p))}:3: {field} is blank$"):
            load_indicator_csv(p)

    def test_round_trip(self, tmp_path):
        ds = generate_synthetic(SynthSpec(n_geos=2, n_quarters=24, seed=3))
        p1, p2 = tmp_path / "i1.csv", tmp_path / "i2.csv"
        write_indicator_csv(ds.indicators, p1)
        loaded = load_indicator_csv(p1)
        write_indicator_csv(loaded, p2)
        assert p1.read_bytes() == p2.read_bytes()


class TestExpertCsv:
    def test_sparse_load(self, tmp_path):
        p = tmp_path / "exp.csv"
        write_lines(
            p,
            [
                "geo,fiscal_year,fiscal_quarter,expert_forecast",
                "TOTAL,2016,2,105.5",
                "TOTAL,2016,4,99.25",
            ],
        )
        expert = load_expert_forecasts_csv(p)
        assert expert[("TOTAL", FiscalQuarter(2016, 2))] == 105.5
        assert len(expert) == 2

    def test_duplicate_rejected(self, tmp_path):
        p = tmp_path / "exp.csv"
        write_lines(
            p,
            [
                "geo,fiscal_year,fiscal_quarter,expert_forecast",
                "TOTAL,2016,2,105.5",
                "TOTAL,2016,2,106.5",
            ],
        )
        with pytest.raises(DuplicateKeyError):
            load_expert_forecasts_csv(p)

    def test_blank_geo_names_file_and_line(self, tmp_path):
        p = tmp_path / "exp.csv"
        write_lines(p, ["geo,fiscal_year,fiscal_quarter,expert_forecast", "TOTAL,2016,1,5.0", ",2016,2,5.0"])
        with pytest.raises(ValidationError, match=f"^{re.escape(str(p))}:3: geo is blank$"):
            load_expert_forecasts_csv(p)

    def test_empty_file_loads_empty(self, tmp_path):
        p = tmp_path / "exp.csv"
        write_lines(p, ["geo,fiscal_year,fiscal_quarter,expert_forecast"])
        assert load_expert_forecasts_csv(p) == {}

    @pytest.mark.parametrize("text", ["nan", "inf", "-inf", "1e999"])
    def test_non_finite_forecast_names_file_and_line(self, text, tmp_path):
        p = tmp_path / "exp.csv"
        write_lines(
            p,
            [
                "geo,fiscal_year,fiscal_quarter,expert_forecast",
                "TOTAL,2016,1,-3.5",  # a negative forecast is allowed
                f"TOTAL,2016,2,{text}",
            ],
        )
        with pytest.raises(ValidationError, match=f"^{re.escape(str(p))}:3: value must be finite, got '{text}'$"):
            load_expert_forecasts_csv(p)

    def test_non_finite_revenue_names_file_and_line(self, tmp_path):
        p = tmp_path / "rev.csv"
        write_lines(p, ["geo,fiscal_year,fiscal_quarter,revenue", "Geo_1,2012,1,100.0", "Geo_1,2012,2,NaN"])
        with pytest.raises(ValidationError, match=f"^{re.escape(str(p))}:3: value must be finite"):
            load_revenue_csv(p)


class TestSynthetic:
    def test_same_seed_identical(self):
        a = generate_synthetic(SynthSpec(n_geos=3, n_quarters=24, seed=5))
        b = generate_synthetic(SynthSpec(n_geos=3, n_quarters=24, seed=5))
        assert a.revenue == b.revenue
        assert a.total == b.total
        assert a.indicators == b.indicators

    def test_noise_free_formula_shape(self):
        ds = generate_synthetic(
            SynthSpec(n_geos=2, n_quarters=24, noise_scale=0.0, indicator_linkage=0.0, seed=1)
        )
        for geo in ds.geos():
            y = ds.series_for(geo).to_array()
            yearly = y[4:] - y[:-4]  # constant for pure linear trend + seasonal
            assert np.max(np.abs(yearly - yearly[0])) < 1e-9

    def test_linkage_correlates_revenue_and_indicator_growth(self):
        spec = SynthSpec(n_geos=3, n_quarters=28, noise_scale=0.2, indicator_linkage=1.0, seed=11)
        ds = generate_synthetic(spec)
        rev = ds.total
        ind = ds.indicators[(TOTAL_ID, spec.indicator_id)]
        qs = rev.quarters()[4:]
        rev_yoy = [yoy_growth(rev, q) for q in qs]
        ind_yoy = [yoy_growth(ind, q) for q in qs]
        r = np.corrcoef(rev_yoy, ind_yoy)[0, 1]
        assert r > 0.9

    def test_spec_validation(self):
        with pytest.raises(ValidationError):
            SynthSpec(n_geos=0)
        with pytest.raises(ValidationError):
            SynthSpec(n_quarters=20)

    @pytest.mark.parametrize(
        "field, value, named",
        [
            ("n_geos", 1.5, "n_geos must be an integer, got 1.5"),
            ("n_geos", 1e9, "n_geos must be an integer, got 1000000000.0"),
            ("n_geos", True, "n_geos must be an integer, got True"),
            ("n_quarters", 24.5, "n_quarters must be an integer, got 24.5"),
            ("seed", -1, "seed must be a nonnegative integer, got -1"),
            ("seed", 1.5, "seed must be an integer, got 1.5"),
            ("seed", None, "seed must be an integer, got None"),
            ("noise_scale", "x", "noise_scale must be a finite number, got 'x'"),
            ("base_level", float("nan"), "base_level must be a finite number, got nan"),
            ("trend_slope", float("inf"), "trend_slope must be a finite number, got inf"),
            ("seasonal_amplitude", 10**400, "seasonal_amplitude must be a finite number, got 1"),
            ("indicator_linkage", False, "indicator_linkage must be a finite number, got False"),
            ("indicator_id", "", "indicator_id must be a non-empty string, got ''"),
            ("indicator_id", 7, "indicator_id must be a non-empty string, got 7"),
            ("start", "2009Q1", "start must be a FiscalQuarter, got '2009Q1'"),
        ],
    )
    def test_spec_field_checks_name_the_field(self, field, value, named):
        with pytest.raises(ValidationError, match=f"^{re.escape(named)}"):
            SynthSpec(**{field: value})

    def test_integral_numbers_are_accepted(self):
        spec = SynthSpec(n_geos=1, base_level=100, noise_scale=0, seed=0)
        assert len(generate_synthetic(spec).geos()) == 1


def _report_text(geos=("A", "TOTAL"), horizons=(1,), result_geo="A", result_horizon=1):
    """A report document with one horizon-1 result, with one field replaced."""
    return json.dumps(
        {
            "kind": "evaluation_report", "schema_version": 1, "model": "m1", "metadata": {},
            "geos": list(geos) if isinstance(geos, tuple) else geos,
            "horizons": list(horizons) if isinstance(horizons, tuple) else horizons,
            "results": [{"geo": result_geo, "horizon": result_horizon, "mape": 1.0, "details": []}],
        }
    )


def sample_report():
    q = FiscalQuarter(2015, 1)
    cells = {
        ("A", 1): HorizonCell(
            mape=1.2345, details=(ApeDetail(q, 100.0, 99.0, 1.0),)
        ),
        ("TOTAL", 1): HorizonCell(
            mape=2.5, details=(ApeDetail(q, 300.0, 290.0, 10.0 / 3.0),)
        ),
    }
    return EvaluationReport(
        model="m1",
        geos=("A", "TOTAL"),
        horizons=(1,),
        cells=cells,
        metadata={"model": "m1", "seed": None, "config_hash": "abc"},
    )


def _one_quarter_report():
    """An oracle backtest whose test range is one quarter: horizon-1 cells only."""
    from quartercast import backtest, parse_quarter

    ds = generate_synthetic(SynthSpec(n_geos=2, n_quarters=28, seed=5))
    q = parse_quarter("2015Q1")
    report = backtest(
        ds, "m2", (parse_quarter("2013Q1"), parse_quarter("2014Q4")), (q, q),
        oracle=lambda geo, origin, h: ds.series_for(geo).value_at(quarter_add(origin, h)) * 1.01,
    )
    assert sorted(report.cells) == [("Geo_1", 1), ("Geo_2", 1), ("TOTAL", 1)]
    return report


class TestReportSerialization:
    def test_json_round_trip(self, tmp_path):
        rep = sample_report()
        p = tmp_path / "report.json"
        write_report(rep, "json", p)
        back = read_report(p)
        assert back == rep

    def test_csv_rendering(self, tmp_path):
        rep = sample_report()
        p = tmp_path / "report.csv"
        write_report(rep, "csv", p)
        assert p.read_text() == "geo,horizon_1\nA,1.23\nTOTAL,2.50\n"

    def test_table_round_trip_and_na(self, tmp_path):
        table = ComparisonTable(
            mode="model-vs-model",
            row_labels=("A", "TOTAL"),
            col_labels=("horizon_1",),
            cells=((None,), (12.345,)),
            metadata={},
        )
        pj = tmp_path / "table.json"
        write_report(table, "json", pj)
        assert read_table(pj) == table
        assert json.loads(pj.read_text())["cells"][0][0] is None
        pc = tmp_path / "table.csv"
        write_report(table, "csv", pc)
        lines = pc.read_text().splitlines()
        assert lines[1] == "A,n/a"
        assert lines[2] == "TOTAL,12.35"

    def test_bad_format(self, tmp_path):
        with pytest.raises(ValidationError):
            write_report(sample_report(), "xml", tmp_path / "x")

    @pytest.mark.parametrize("fmt", ["json", "csv"])
    def test_non_finite_numbers_are_refused_and_nothing_is_written(self, fmt, tmp_path):
        """The first bad cell in writing order is named, with the path; a detail
        counts in CSV too, although only the MAPEs are rendered there."""
        q = FiscalQuarter(2015, 1)
        nan, inf = float("nan"), float("inf")
        detail = HorizonCell(mape=1.0, details=(ApeDetail(q, 100.0, inf, inf),))
        cases = [
            (EvaluationReport("m1", ("A", "TOTAL"), (1,), {("A", 1): detail, ("TOTAL", 1): HorizonCell(nan, ())}, {}),
             "cell (A, horizon 1) 2015Q1 forecast is inf"),
            (EvaluationReport("m1", ("A",), (1, 2), {("A", 2): HorizonCell(nan, ()), ("A", 1): HorizonCell(-inf, ())}, {}),
             "cell (A, horizon 1) mape is -inf"),
            (ComparisonTable("horizons", ("A", "TOTAL"), ("horizon_2", "horizon_3"), ((1.0, None), (nan, inf)), {}),
             "cell (TOTAL, horizon_2) is nan"),
        ]
        for k, (obj, named) in enumerate(cases):
            path = tmp_path / f"bad{k}.{fmt}"
            with pytest.raises(ValidationError, match=f"^{re.escape(str(path))}: {re.escape(named)}, not a finite number$"):
                write_report(obj, fmt, path)
            assert not path.exists()

    def test_non_finite_metadata_is_refused_in_json(self, tmp_path):
        rep = EvaluationReport("m1", ("A",), (1,), {("A", 1): HorizonCell(1.0, ())}, {"score": float("nan")})
        path = tmp_path / "meta.json"
        with pytest.raises(ValidationError, match=f"^{re.escape(str(path))}: Out of range float values"):
            write_report(rep, "json", path)
        assert not path.exists()
        write_report(rep, "csv", tmp_path / "meta.csv")
        assert (tmp_path / "meta.csv").read_text() == "geo,horizon_1\nA,1.00\n"

    @pytest.mark.parametrize(
        "text, named",
        [
            ('{"kind": "evaluation_report", "schema', "not JSON"),
            ('{"kind": "evaluation_report", "schema_version": 1}', "'results'"),
            ('{"kind": "evaluation_report", "schema_version": 1, "results": [{"geo": "A"}]}', "'details'"),
            ('{"kind": "evaluation_report", "schema_version": 1, "results": 3}', "'results'"),
            ('[1, 2]', "not a recognized evaluation report"),
            (_report_text(geos=[1, "TOTAL"]), "'geos'"),
            (_report_text(geos=[["a"], "TOTAL"]), "'geos'"),
            (_report_text(geos=["A", "A"]), "'geos'"),
            (_report_text(geos="A"), "'geos'"),
            (_report_text(horizons=[True, 2]), "'horizons'"),
            (_report_text(horizons=[0, 1]), "'horizons'"),
            (_report_text(horizons=[1.0]), "'horizons'"),
            (_report_text(horizons=[1, 1]), "'horizons'"),
            (_report_text(result_geo="B"), "field 'geo' is 'B'"),
            (_report_text(result_horizon=5), "field 'horizon' is 5"),
            (_report_text(result_horizon=True), "field 'horizon' must be an integer"),
            (
                json.dumps(dict(json.loads(_report_text()), results=2 * json.loads(_report_text())["results"])),
                "repeats the cell of geo 'A', horizon 1",
            ),
        ],
        ids=[
            "truncated", "no-results", "no-details", "results-not-a-list", "not-an-object",
            "geo-a-number", "geo-a-list", "geos-repeated", "geos-not-a-list", "horizon-a-bool",
            "horizon-zero", "horizon-a-float", "horizons-repeated", "result-geo-unlisted",
            "result-horizon-unlisted", "result-horizon-a-bool", "result-cell-repeated",
        ],
    )
    def test_damaged_report_names_the_path_and_field(self, text, named, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text(text, encoding="utf-8")
        with pytest.raises(SchemaMismatchError, match=f"{path}: .*{named}"):
            read_report(path)
        rc = main(["compare", "--mode", "horizons", "--report", str(path), "--out", str(tmp_path / "t.json")])
        assert rc == 2
        err = capsys.readouterr().err
        assert str(path) in err and named in err

    @pytest.mark.parametrize(
        "text, named",
        [
            ('{"kind": "comparison_table"', "not JSON"),
            ('{"kind": "comparison_table", "schema_version": 1, "mode": "m"}', "'cells'"),
            ('{"kind": "comparison_table", "schema_version": 1, "cells": [1]}', "'cells'[0]"),
        ],
        ids=["truncated", "no-cells", "row-not-a-list"],
    )
    def test_damaged_table_names_the_path_and_field(self, text, named, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(text, encoding="utf-8")
        with pytest.raises(SchemaMismatchError) as info:
            read_table(path)
        assert str(path) in str(info.value) and named in str(info.value)

    def test_horizons_table_csv_shape(self, tmp_path):
        # rows per geography plus TOTAL, one column per horizon beyond 1
        from quartercast import compare_horizons
        from quartercast.pipeline import EvaluationReport, HorizonCell

        mapes = {
            (geo, h): float(h + i)
            for i, geo in enumerate(["Geo_1", "Geo_2", "TOTAL"])
            for h in (1, 2, 3, 4)
        }
        rep = EvaluationReport(
            model="m2",
            geos=("Geo_1", "Geo_2", "TOTAL"),
            horizons=(1, 2, 3, 4),
            cells={k: HorizonCell(mape=v, details=()) for k, v in mapes.items()},
            metadata={},
        )
        p = tmp_path / "h.csv"
        write_report(compare_horizons(rep), "csv", p)
        assert p.read_text() == (
            "row,horizon_2,horizon_3,horizon_4\n"
            "Geo_1,-100.00,-200.00,-300.00\n"
            "Geo_2,-50.00,-100.00,-150.00\n"
            "TOTAL,-33.33,-66.67,-100.00\n"
        )

    def test_cells_a_report_lacks_are_written_as_na(self, tmp_path):
        from quartercast import compare_horizons, compare_reports

        short = _one_quarter_report()
        p = tmp_path / "r.csv"
        write_report(short, "csv", p)
        lines = p.read_text().splitlines()
        assert lines[0] == "geo,horizon_1,horizon_2,horizon_3,horizon_4"
        assert [ln.split(",", 2)[2] for ln in lines[1:]] == ["n/a,n/a,n/a"] * 3
        for table in (compare_reports(short, short), compare_horizons(short)):
            write_report(table, "csv", p)
            lines = p.read_text().splitlines()
            assert [ln.split(",")[0] for ln in lines] == ["row", "Geo_1", "Geo_2", "TOTAL"]
            assert all(ln.endswith(",n/a,n/a,n/a") for ln in lines[1:])
            write_report(table, "json", p)
            assert all(v is None for row in json.loads(p.read_text())["cells"] for v in row[-3:])


class TestCli:
    def test_synth_writes_files(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"synth": {"n_geos": 2, "n_quarters": 24}}))
        out = tmp_path / "rev.csv"
        rc = main(["synth", "--config", str(cfg), "--seed", "3", "--out", str(out)])
        assert rc == 0
        assert out.exists()
        assert (tmp_path / "rev_indicators.csv").exists()
        ds = load_revenue_csv(out)
        assert len(ds.geos()) == 2

    def test_missing_config_file(self, tmp_path):
        rc = main(["backtest", "--config", str(tmp_path / "nope.json"), "--out", "x"])
        assert rc == 2

    def test_validation_exit_code(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"synth": {"n_geos": 0}}))
        rc = main(["synth", "--config", str(cfg), "--out", str(tmp_path / "o.csv")])
        assert rc == 2

    def test_insufficient_data_exit_code(self, tmp_path):
        rev = tmp_path / "rev.csv"
        lines = ["geo,fiscal_year,fiscal_quarter,revenue"]
        from quartercast import quarter_add

        q = START
        for i in range(12):  # far too short for any model
            lines.append(f"Geo_1,{q.year},{q.quarter},{100.0 + i}")
            q = quarter_add(q, 1)
        write_lines(rev, lines)
        cfg = tmp_path / "cfg.json"
        cfg.write_text(
            json.dumps(
                {
                    "model": "m2",
                    "revenue_csv": str(rev),
                    "train_range": ["2010Q1", "2010Q4"],
                    "test_range": ["2011Q1", "2011Q4"],
                    "seed": 1,
                    "forest": {"n_trees": 2},
                }
            )
        )
        rc = main(["backtest", "--config", str(cfg), "--out", str(tmp_path / "r.json")])
        assert rc == 3

    def test_nonconvergence_exit_code(self, tmp_path, monkeypatch):
        from quartercast import NonconvergenceError

        def explode(*a, **k):
            raise NonconvergenceError("nothing converged")

        # The CLI looks ``backtest`` up through the package when the command runs.
        monkeypatch.setattr(pipeline, "backtest", explode)
        rev = tmp_path / "rev.csv"
        lines = ["geo,fiscal_year,fiscal_quarter,revenue"]
        from quartercast import quarter_add

        q = START
        for i in range(24):
            lines.append(f"Geo_1,{q.year},{q.quarter},{100.0 + i}")
            q = quarter_add(q, 1)
        write_lines(rev, lines)
        cfg = tmp_path / "cfg.json"
        cfg.write_text(
            json.dumps(
                {
                    "model": "m1",
                    "revenue_csv": str(rev),
                    "train_range": ["2012Q1", "2013Q4"],
                    "test_range": ["2014Q1", "2014Q4"],
                }
            )
        )
        rc = main(["backtest", "--config", str(cfg), "--out", str(tmp_path / "r.json")])
        assert rc == 4

    def test_compare_modes_from_reports(self, tmp_path):
        rep_a = sample_report()
        pa = tmp_path / "a.json"
        write_report(rep_a, "json", pa)
        pb = tmp_path / "b.json"
        write_report(rep_a, "json", pb)
        out = tmp_path / "cmp.json"
        rc = main(
            [
                "compare",
                "--mode",
                "models",
                "--baseline",
                str(pa),
                "--candidate",
                str(pb),
                "--out",
                str(out),
            ]
        )
        assert rc == 0
        table = read_table(out)
        assert all(v == 0.0 for row in table.cells for v in row)

    @pytest.mark.parametrize("mode", ["models", "horizons"])
    def test_compare_a_report_with_missing_cells(self, mode, tmp_path):
        pr = tmp_path / "r.json"
        write_report(_one_quarter_report(), "json", pr)
        out = tmp_path / "t.json"
        flags = ["--baseline", str(pr), "--candidate", str(pr)] if mode == "models" else ["--report", str(pr)]
        assert main(["compare", "--mode", mode, *flags, "--out", str(out)]) == 0
        table = read_table(out)
        assert table.row_labels == ("Geo_1", "Geo_2", "TOTAL")
        assert table.col_labels[-3:] == ("horizon_2", "horizon_3", "horizon_4")
        assert all(row[-3:] == (None, None, None) for row in table.cells)

    def test_compare_expert_non_finite_forecast_exits_2(self, tmp_path, capsys):
        pr = tmp_path / "r.json"
        write_report(sample_report(), "json", pr)
        exp = tmp_path / "e.csv"
        write_lines(exp, ["geo,fiscal_year,fiscal_quarter,expert_forecast", "TOTAL,2015,1,nan"])
        out = tmp_path / "t.json"
        rc = main(["compare", "--mode", "expert", "--report", str(pr), "--expert", str(exp), "--out", str(out)])
        assert rc == 2
        assert f"{exp}:2: value must be finite, got 'nan'" in capsys.readouterr().err
        assert not out.exists()

    def test_compare_expert_mode(self, tmp_path):
        rep = sample_report()
        pr = tmp_path / "r.json"
        write_report(rep, "json", pr)
        exp = tmp_path / "e.csv"
        write_lines(
            exp,
            [
                "geo,fiscal_year,fiscal_quarter,expert_forecast",
                "TOTAL,2015,1,280.0",
            ],
        )
        out = tmp_path / "t.json"
        rc = main(
            ["compare", "--mode", "expert", "--report", str(pr), "--expert", str(exp), "--out", str(out)]
        )
        assert rc == 0
        table = read_table(out)
        # expert APE = |300-280|/300*100 = 6.667; model APE = 3.333 -> 50%
        assert table.cells[0][0] == pytest.approx(50.0)

    def test_forecast_command_m1_and_m2(self, tmp_path):
        ds = generate_synthetic(SynthSpec(n_geos=1, n_quarters=24, noise_scale=0.3, seed=8))
        rev = tmp_path / "rev.csv"
        write_revenue_csv(ds, rev)
        cfg = tmp_path / "cfg.json"
        cfg.write_text(
            json.dumps(
                {
                    "revenue_csv": str(rev),
                    "train_range": ["2013Q1", "2014Q4"],
                    "seed": 2,
                    "forest": {"n_trees": 10},
                }
            )
        )
        out1 = tmp_path / "m1.csv"
        assert main(["forecast", "--config", str(cfg), "--model", "m1", "--out", str(out1)]) == 0
        lines = out1.read_text().splitlines()
        assert lines[0] == "geo,fiscal_year,fiscal_quarter,horizon,forecast,source"
        assert len(lines) == 1 + 2  # Geo_1 and TOTAL, horizon 1 only

        out2 = tmp_path / "m2.csv"
        assert main(["forecast", "--config", str(cfg), "--model", "m2", "--out", str(out2)]) == 0
        lines2 = out2.read_text().splitlines()
        assert len(lines2) == 1 + 2 * 4  # two series at horizons 1..4
        # every forecast targets a quarter past the end of history (2015Q1..2015Q4)
        for line in lines2[1:]:
            geo, fy, fq, h, fc, source = line.split(",")
            assert (int(fy), int(fq)) >= (2015, 1)
            assert float(fc) > 0

    def test_forecast_m1_fits_every_series_in_one_call(self, tmp_path, monkeypatch):
        ds = generate_synthetic(SynthSpec(n_geos=2, n_quarters=24, noise_scale=0.3, seed=8))
        rev = tmp_path / "rev.csv"
        write_revenue_csv(ds, rev)
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"revenue_csv": str(rev)}))
        calls = []

        def counting_fit_windows(windows, cache=None, fit_windows=pipeline.fit_windows):
            calls.append(windows)
            return fit_windows(windows, cache)

        monkeypatch.setattr(pipeline, "fit_windows", counting_fit_windows)
        out = tmp_path / "m1.csv"
        assert main(["forecast", "--config", str(cfg), "--model", "m1", "--out", str(out)]) == 0
        assert len(calls) == 1

        origin = ds.total.end
        target = quarter_add(origin, 1)
        expected = ["geo,fiscal_year,fiscal_quarter,horizon,forecast,source"]
        for geo in ds.series_ids():  # Geo_1, Geo_2, TOTAL: one call each
            result = model1_forecast(ds.series_for(geo), origin, cache=ForecastCache())
            expected.append(f"{geo},{target.year},{target.quarter},1,{result.forecast!r},{result.chosen}")
        assert len(calls) == 4
        assert out.read_text().splitlines() == expected

    def test_compare_empty_expert_errors(self, tmp_path):
        rep = sample_report()
        pr = tmp_path / "r.json"
        write_report(rep, "json", pr)
        exp = tmp_path / "e.csv"
        write_lines(exp, ["geo,fiscal_year,fiscal_quarter,expert_forecast"])
        rc = main(
            ["compare", "--mode", "expert", "--report", str(pr), "--expert", str(exp),
             "--out", str(tmp_path / "t.json")]
        )
        assert rc == 2


class TestCliBadInputs:
    """Malformed configuration and environment end in exit code 2 with a named input."""

    @staticmethod
    def _no_fit(*args, **kwargs):
        raise AssertionError("a window or indicator was fit")

    def _backtest_config(self, tmp_path, **overrides):
        rev = tmp_path / "rev.csv"
        write_revenue_csv(generate_synthetic(SynthSpec(n_geos=1, n_quarters=24, seed=2)), rev)
        cfg = {
            "model": "m2",
            "revenue_csv": str(rev),
            "train_range": ["2012Q1", "2012Q4"],
            "test_range": ["2013Q1", "2013Q4"],
            "seed": 1,
            "forest": {"n_trees": 2},
        }
        cfg.update(overrides)
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(cfg))
        return path

    def test_unknown_synth_key(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"synth": {"n_geos": 2, "n_geo": 3}}))
        rc = main(["synth", "--config", str(cfg), "--out", str(tmp_path / "o.csv")])
        assert rc == 2
        err = capsys.readouterr().err
        assert "'synth'" in err and "'n_geo'" in err

    def test_bad_synth_value_names_the_section(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"synth": {"n_geos": 0}}))
        rc = main(["synth", "--config", str(cfg), "--out", str(tmp_path / "o.csv")])
        assert rc == 2
        err = capsys.readouterr().err
        assert "'synth'" in err and "n_geos must be >= 1, got 0" in err

    @pytest.mark.parametrize(
        "settings, named",
        [
            ({"n_geos": 1.5}, "n_geos must be an integer, got 1.5"),
            ({"n_geos": 1e9}, "n_geos must be an integer, got 1000000000.0"),
            ({"n_geos": True}, "n_geos must be an integer, got True"),
            ({"n_quarters": 24.5}, "n_quarters must be an integer, got 24.5"),
            ({"seed": -1}, "seed must be a nonnegative integer, got -1"),
            ({"seed": 1.5}, "seed must be an integer, got 1.5"),
            ({"noise_scale": "x"}, "noise_scale must be a finite number, got 'x'"),
            ({"indicator_id": ""}, "indicator_id must be a non-empty string, got ''"),
        ],
    )
    def test_bad_synth_field_exits_2_naming_it(self, settings, named, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"synth": {"n_quarters": 24, **settings}}))
        rc = main(["synth", "--config", str(cfg), "--out", str(tmp_path / "o.csv")])
        assert rc == 2
        assert f"config section 'synth': {named}" in capsys.readouterr().err
        assert not (tmp_path / "o.csv").exists()

    def test_negative_seed_flag_exits_2(self, tmp_path, capsys):
        rc = main(["synth", "--seed", "-5", "--out", str(tmp_path / "o.csv")])
        assert rc == 2
        assert "config section 'synth': seed must be a nonnegative integer, got -5" in capsys.readouterr().err

    @pytest.mark.parametrize("value", [[1], None, "abc"])
    def test_synth_section_not_an_object(self, value, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"synth": value}))
        rc = main(["synth", "--config", str(cfg), "--out", str(tmp_path / "o.csv")])
        assert rc == 2
        assert f"config section 'synth' must be an object, got {value!r}" in capsys.readouterr().err

    def test_unknown_forest_key(self, tmp_path, capsys):
        cfg = self._backtest_config(tmp_path, forest={"n_trees": 2, "trees": 5})
        rc = main(["backtest", "--config", str(cfg), "--out", str(tmp_path / "r.json")])
        assert rc == 2
        err = capsys.readouterr().err
        assert "'forest'" in err and "'trees'" in err

    @pytest.mark.parametrize("value", [2.5, "abc", None, True])
    def test_non_integer_forest_setting_rejected_before_any_fit(self, value, tmp_path, capsys, monkeypatch):
        def no_fit(windows, cache=None):
            raise AssertionError("a window was fit")

        monkeypatch.setattr(pipeline, "fit_windows", no_fit)
        monkeypatch.setattr(features, "fit_windows", no_fit)
        cfg = self._backtest_config(tmp_path, forest={"n_trees": value})
        rc = main(["backtest", "--config", str(cfg), "--out", str(tmp_path / "r.json")])
        assert rc == 2
        err = capsys.readouterr().err
        assert "'forest'" in err and f"n_trees must be an integer, got {value!r}" in err

    @pytest.mark.parametrize(
        "overrides, named",
        [
            ({"indicators": [{"geos": ["A"]}]}, "'indicators' item 0"),
            ({"indicators": [{"id": "gdp", "geos": "A"}]}, "'indicators' item 0"),
            ({"indicators": "gdp"}, "'indicators'"),
            ({"forest": [1]}, "'forest'"),
            ({"forest": None}, "'forest'"),
            ({"forest": {"n_trees": 2, "bootstrap": "no"}}, "'forest': bootstrap must be a boolean, got 'no'"),
            ({"forest": {"n_trees": 2, "bootstrap": "false"}}, "'forest': bootstrap must be a boolean, got 'false'"),
            ({"forest": {"n_trees": 2, "bootstrap": 0}}, "'forest': bootstrap must be a boolean, got 0"),
            ({"output_format": "xml"}, "'output_format'"),
            ({"revenue_csv": ["rev.csv"]}, "'revenue_csv'"),
            ({"revenue_csv": None}, "'revenue_csv'"),
            ({"indicators_csv": 3}, "'indicators_csv'"),
            ({"seed": "abc"}, "'forest': seed must be an integer, got 'abc'"),
            ({"seed": 1.7}, "'forest': seed must be an integer, got 1.7"),
            ({"lag_includes_origin": "false"}, "'lag_includes_origin' must be true or false, got 'false'"),
            ({"macro_at_origin": 1}, "'macro_at_origin' must be true or false, got 1"),
            ({"macro_at_target": None}, "'macro_at_target' must be true or false, got None"),
            ({"model1_include_average": "no"}, "'model1_include_average' must be true or false"),
            ({"model": "m1", "test_range": ["2014Q2", "2015Q1"]}, "ends at 2015Q1, after history ends at 2014Q4"),
            ({"model": "m2", "test_range": ["2014Q2", "2015Q1"]}, "ends at 2015Q1, after history ends at 2014Q4"),
            ({"model": "m3", "indicators": [{"id": "indicator"}, {"id": "indicator"}]},
             "indicator 'indicator' is configured more than once"),
            ({"model": "m3", "indicators": [{"id": "indicator"}], "macro_source": "revenue", "macro_at_origin": False},
             "model m3 has no macro feature with macro_at_origin false, macro_at_target true and macro_source "
             "'revenue'"),
            ({"model": "m3", "indicators": [{"id": "indicator"}], "macro_at_origin": False, "macro_at_target": False},
             "model m3 has no macro feature with macro_at_origin false, macro_at_target false"),
        ],
        ids=["indicator-without-id", "geos-not-a-list", "indicators-not-a-list", "forest-a-list",
             "forest-null", "bootstrap-no", "bootstrap-a-string", "bootstrap-zero", "output-format-xml", "revenue-csv-a-list", "revenue-csv-null",
             "indicators-csv-a-number", "seed-a-string", "seed-a-fraction", "lag-flag-a-string",
             "origin-flag-a-number", "target-flag-null", "average-flag-a-string",
             "m1-test-range-past-history", "m2-test-range-past-history", "m3-indicator-repeated",
             "m3-revenue-source-without-origin", "m3-no-macro-flag"],
    )
    def test_malformed_section_rejected_before_any_fit(self, overrides, named, tmp_path, capsys, monkeypatch):
        def no_fit(windows, cache=None):
            raise AssertionError("a window was fit")

        monkeypatch.setattr(pipeline, "fit_windows", no_fit)
        monkeypatch.setattr(features, "fit_windows", no_fit)
        cfg = self._backtest_config(tmp_path, **overrides)
        rc = main(["backtest", "--config", str(cfg), "--out", str(tmp_path / "r.json")])
        assert rc == 2
        assert named in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["backtest", "forecast"])
    def test_mtry_above_the_feature_count_rejected_before_any_fit(self, command, tmp_path, capsys, monkeypatch):
        monkeypatch.setattr(pipeline, "fit_windows", self._no_fit)
        monkeypatch.setattr(features, "fit_windows", self._no_fit)
        cfg = self._backtest_config(tmp_path, forest={"n_trees": 2, "mtry": 999})
        rc = main([command, "--config", str(cfg), "--out", str(tmp_path / "out")])
        assert rc == 2
        assert "mtry 999 exceeds feature count" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "flags",
        [{"macro_source": "revenue", "macro_at_origin": False}, {"macro_at_origin": False, "macro_at_target": False}],
        ids=["revenue-source-without-origin", "no-macro-flag"],
    )
    def test_forecast_m3_without_a_macro_feature_rejected_before_any_fit(self, flags, tmp_path, capsys, monkeypatch):
        monkeypatch.setattr(pipeline, "fit_windows", self._no_fit)
        monkeypatch.setattr(features, "fit_windows", self._no_fit)
        cfg = self._backtest_config(tmp_path, model="m3", indicators=[{"id": "indicator"}], **flags)
        rc = main(["forecast", "--config", str(cfg), "--out", str(tmp_path / "f.csv")])
        assert rc == 2
        assert "model m3 has no macro feature" in capsys.readouterr().err

    def test_forecast_m1_flag_rejected_before_any_fit(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setattr(pipeline, "fit_windows", self._no_fit)
        cfg = self._backtest_config(tmp_path, model="m1", model1_include_average="false")
        rc = main(["forecast", "--config", str(cfg), "--out", str(tmp_path / "f.csv")])
        assert rc == 2
        assert "'model1_include_average' must be true or false" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "indicators, last, named",
        [
            ([{"id": "gdp"}], None, "no indicator 'gdp' for geography 'Geo_1'"),
            ([{"id": "indicator", "geos": ["Geo_1"]}], None, "'indicator' leaves out series 'TOTAL'"),
            ([{"id": "indicator"}], FiscalQuarter(2010, 4), "'indicator' for geography 'Geo_1' is known through 2010Q4"),
            ([{"id": "indicator", "geos": ["Geo_1", "TOTAL", "Geo_9"]}], None, "'geos' names 'Geo_9'"),
            ([{"id": "indicator", "geos": []}], None, "'indicator' leaves out series 'Geo_1'"),
            ([{"id": "indicator"}, {"id": "indicator"}], None, "indicator 'indicator' is configured more than once"),
        ],
        ids=["absent", "geos-leave-out-a-series", "too-short", "geos-names-no-series", "geos-empty", "repeated"],
    )
    @pytest.mark.parametrize("command", ["backtest", "forecast"])
    def test_bad_m3_indicator_rejected_before_any_fit(
        self, command, indicators, last, named, tmp_path, capsys, monkeypatch
    ):
        monkeypatch.setattr(pipeline, "fit_windows", self._no_fit)
        monkeypatch.setattr(features, "fit_windows", self._no_fit)
        monkeypatch.setattr(features, "auto_select_many", self._no_fit)
        ds = generate_synthetic(SynthSpec(n_geos=1, n_quarters=24, seed=2))  # the revenue of _backtest_config
        ind = tmp_path / "ind.csv"
        end = last or ds.total.end
        write_indicator_csv({key: s.truncated(end) for key, s in ds.indicators.items()}, ind)
        cfg = self._backtest_config(tmp_path, model="m3", indicators_csv=str(ind), indicators=indicators)
        rc = main([command, "--config", str(cfg), "--out", str(tmp_path / "out")])
        assert rc == 2
        assert named in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["backtest", "forecast"])
    def test_indicator_starting_after_the_first_training_row_rejected_before_any_fit(
        self, command, tmp_path, capsys, monkeypatch
    ):
        monkeypatch.setattr(pipeline, "fit_windows", self._no_fit)
        monkeypatch.setattr(features, "fit_windows", self._no_fit)
        monkeypatch.setattr(features, "auto_select_many", self._no_fit)
        ds = generate_synthetic(SynthSpec(n_geos=1, n_quarters=24, seed=2))  # 2009Q1-2014Q4
        ind = tmp_path / "ind.csv"
        late = FiscalQuarter(2012, 1)  # before the last training quarter, after the first growth read
        write_indicator_csv({key: QuarterlySeries(s.id, late, s.values[12:]) for key, s in ds.indicators.items()}, ind)
        cfg = self._backtest_config(
            tmp_path, model="m3", indicators_csv=str(ind), indicators=[{"id": "indicator"}],
            train_range=["2013Q1", "2013Q4"], test_range=["2014Q1", "2014Q4"],
        )
        rc = main([command, "--config", str(cfg), "--out", str(tmp_path / "out")])
        assert rc == 2
        # the first training row forecasts 2013Q1 from 2012Q4, whose growth reads 2011Q4
        assert "'indicator' for geography 'Geo_1' does not cover both 2011Q4 and 2012Q4" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["backtest", "forecast"])
    def test_indicator_starting_after_known_through_rejected_before_any_fit(
        self, command, tmp_path, capsys, monkeypatch
    ):
        monkeypatch.setattr(pipeline, "fit_windows", self._no_fit)
        monkeypatch.setattr(features, "fit_windows", self._no_fit)
        monkeypatch.setattr(features, "auto_select_many", self._no_fit)
        ds = generate_synthetic(SynthSpec(n_geos=1, n_quarters=24, seed=2))  # ends 2014Q4
        ind = tmp_path / "ind.csv"
        late = FiscalQuarter(2015, 1)
        write_indicator_csv({key: QuarterlySeries(s.id, late, s.values[:4]) for key, s in ds.indicators.items()}, ind)
        cfg = self._backtest_config(tmp_path, model="m3", indicators_csv=str(ind), indicators=[{"id": "indicator"}])
        rc = main([command, "--config", str(cfg), "--out", str(tmp_path / "out")])
        assert rc == 2
        known = "2012Q4" if command == "backtest" else "2014Q4"
        assert f"'indicator' for geography 'Geo_1' starts in 2015Q1, after {known}" in capsys.readouterr().err

    @pytest.mark.parametrize("text", ["[1]", '"cfg"', "null", "3"])
    @pytest.mark.parametrize("command", ["synth", "backtest", "forecast", "compare"])
    def test_config_that_is_not_an_object_names_the_file(self, text, command, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(text)
        rc = main([command, "--config", str(cfg), "--out", str(tmp_path / "o.json")])
        assert rc == 2
        err = capsys.readouterr().err
        assert str(cfg) in err and "JSON object" in err

    def test_compare_checks_the_output_format_first(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"output_format": "xml"}))
        missing = str(tmp_path / "missing.json")
        rc = main(["compare", "--config", str(cfg), "--mode", "models", "--baseline", missing,
                   "--candidate", missing, "--out", str(tmp_path / "t.json")])
        assert rc == 2
        assert "'output_format'" in capsys.readouterr().err

    def test_one_element_train_range(self, tmp_path, capsys):
        cfg = self._backtest_config(tmp_path, train_range=["2012Q1"])
        rc = main(["backtest", "--config", str(cfg), "--out", str(tmp_path / "r.json")])
        assert rc == 2
        assert "'train_range'" in capsys.readouterr().err

    def test_non_integer_thread_count(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setenv("QUARTERCAST_THREADS", "abc")
        cfg = self._backtest_config(tmp_path)
        rc = main(["backtest", "--config", str(cfg), "--out", str(tmp_path / "r.json")])
        assert rc == 2
        assert "QUARTERCAST_THREADS" in capsys.readouterr().err

    def test_ragged_indicator(self, tmp_path, capsys):
        ds = generate_synthetic(SynthSpec(n_geos=1, n_quarters=28, seed=8))
        rev = tmp_path / "rev.csv"
        write_revenue_csv(ds, rev)
        last = FiscalQuarter(2013, 4)  # 12 quarters before 2016Q4, the last one forecast
        ind = tmp_path / "ind.csv"
        write_indicator_csv({k: s.truncated(last) for k, s in ds.indicators.items()}, ind)
        cfg = tmp_path / "cfg.json"
        cfg.write_text(
            json.dumps(
                {
                    "revenue_csv": str(rev),
                    "indicators_csv": str(ind),
                    "indicators": [{"id": "indicator"}],
                    "train_range": ["2013Q1", "2013Q4"],
                    "seed": 2,
                    "forest": {"n_trees": 2},
                }
            )
        )
        rc = main(["forecast", "--config", str(cfg), "--model", "m3", "--out", str(tmp_path / "f.csv")])
        assert rc == 2
        err = capsys.readouterr().err
        assert "'indicator'" in err and "2013Q4" in err and "2016Q4" in err

    @pytest.mark.parametrize(
        "settings, key",
        [
            ({"out": True}, "out"),
            ({"out": 1}, "out"),
            ({"out": 5}, "out"),
            ({"out": ["x.csv"]}, "out"),
            ({"out": ""}, "out"),
            ({"indicators_out": ["a"]}, "indicators_out"),
            ({"indicators_out": 7}, "indicators_out"),
            ({"indicators_out": ""}, "indicators_out"),
        ],
        ids=["out-true", "out-one", "out-five", "out-a-list", "out-empty",
             "indicators-out-a-list", "indicators-out-a-number", "indicators-out-empty"],
    )
    def test_synth_path_setting_rejected_before_any_write(self, settings, key, tmp_path, capfd, monkeypatch):
        monkeypatch.chdir(tmp_path)
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"synth": {"n_geos": 1, "n_quarters": 24}, **settings}))
        argv = ["synth", "--config", str(cfg)]
        if key != "out":
            argv += ["--out", str(tmp_path / "o.csv")]
        rc = main(argv)
        assert rc == 2
        out, err = capfd.readouterr()
        assert f"config {key!r} must be a non-empty file path, got {settings[key]!r}" in err
        assert out == ""
        assert sorted(p.name for p in tmp_path.iterdir()) == ["cfg.json"]

    @pytest.mark.parametrize("command", ["backtest", "forecast"])
    @pytest.mark.parametrize("value", [5, True, ["r.json"], ""])
    def test_output_path_setting_rejected_before_any_fit(self, command, value, tmp_path, capsys, monkeypatch):
        monkeypatch.setattr(pipeline, "fit_windows", self._no_fit)
        monkeypatch.setattr(features, "fit_windows", self._no_fit)
        cfg = self._backtest_config(tmp_path, model="m1", out=value)
        rc = main([command, "--config", str(cfg)])
        assert rc == 2
        assert f"config 'out' must be a non-empty file path, got {value!r}" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "mode, settings, key",
        [
            ("horizons", {"report": 5}, "report"),
            ("expert", {"report": ["m1.json"], "expert_csv": "expert.csv"}, "report"),
            ("expert", {"report": "m1.json", "expert_csv": 3}, "expert_csv"),
            ("models", {"baseline_report": ["m1.json"], "candidate_report": "m1.json"}, "baseline_report"),
            ("models", {"baseline_report": "m1.json", "candidate_report": True}, "candidate_report"),
            ("models", {"baseline_report": "m1.json", "candidate_report": ""}, "candidate_report"),
        ],
        ids=["horizons-report", "expert-report", "expert-csv", "models-baseline", "models-candidate",
             "models-candidate-empty"],
    )
    def test_compare_path_setting_is_named(self, mode, settings, key, tmp_path, capsys, monkeypatch):
        monkeypatch.chdir(tmp_path)
        write_report(sample_report(), "json", tmp_path / "m1.json")
        (tmp_path / "expert.csv").write_text("geo,fiscal_year,fiscal_quarter,forecast\n")
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"mode": mode, "out": "t.json", **settings}))
        rc = main(["compare", "--config", str(cfg)])
        assert rc == 2
        assert f"config {key!r} must be a non-empty file path, got {settings[key]!r}" in capsys.readouterr().err
        assert not (tmp_path / "t.json").exists()

    @pytest.mark.parametrize("value", [None, 5, ""])
    def test_indicator_id_must_be_a_non_empty_string(self, value, tmp_path, capsys, monkeypatch):
        monkeypatch.setattr(pipeline, "fit_windows", self._no_fit)
        monkeypatch.setattr(features, "fit_windows", self._no_fit)
        monkeypatch.setattr(features, "auto_select_many", self._no_fit)
        cfg = self._backtest_config(tmp_path, model="m3", indicators=[{"id": value}])
        rc = main(["backtest", "--config", str(cfg), "--out", str(tmp_path / "r.json")])
        assert rc == 2
        assert (
            f"config section 'indicators' item 0: indicator_id must be a non-empty string, got {value!r}"
            in capsys.readouterr().err
        )

    @pytest.mark.parametrize("command", ["forecast", "backtest"])
    def test_unknown_indicator_key_is_named_before_any_work(self, command, tmp_path, capsys, monkeypatch):
        indicators = [{"id": "indicator", "geos": None}, {"id": "indicator", "geo": ["A"], "weight": 3}]
        cfg = self._backtest_config(tmp_path, model="m3", indicators=indicators)
        self._no_work(monkeypatch)
        rc = main([command, "--config", str(cfg), "--out", str(tmp_path / "r.json")])
        assert rc == 2
        assert (
            "config section 'indicators' item 1 has unknown key(s) 'geo', 'weight'; expected some of geos, id"
            in capsys.readouterr().err
        )
        assert not (tmp_path / "r.json").exists()

    # The flags each command reads, beside --config.
    FLAGS = {
        "synth": {"seed", "out"},
        "forecast": {"model", "seed", "out"},
        "backtest": {"model", "seed", "out"},
        "compare": {"mode", "out", "baseline", "candidate", "report", "expert"},
    }

    @pytest.mark.parametrize("command", sorted(FLAGS))
    def test_each_command_takes_only_the_flags_it_reads(self, command, tmp_path, capsys, monkeypatch):
        monkeypatch.chdir(tmp_path)
        self._no_work(monkeypatch)
        parser = cli.build_parser()
        for flag in sorted(set().union(*self.FLAGS.values())):
            argv = [command, "--config", "cfg.json", f"--{flag}", "1"]
            if flag in self.FLAGS[command]:
                assert getattr(parser.parse_args(argv), flag) in (1, "1")
                continue
            with pytest.raises(SystemExit) as exc:
                main(argv)
            assert exc.value.code == 2
            assert f"unrecognized arguments: --{flag} 1" in capsys.readouterr().err
        assert sorted(p.name for p in tmp_path.iterdir()) == []

    def _no_work(self, monkeypatch):
        """Make every window fit and every CLI file write fail the test."""
        for module, name in ((pipeline, "fit_windows"), (features, "fit_windows"), (features, "auto_select_many"),
                             (cli, "write_report"), (cli, "write_revenue_csv"), (cli, "write_indicator_csv")):
            monkeypatch.setattr(module, name, self._no_fit)

    @pytest.mark.parametrize("key", sorted(SETTINGS))
    def test_every_setting_of_the_wrong_kind_is_named_before_any_work(self, key, tmp_path, capsys, monkeypatch):
        # 5 is of the wrong kind for every key but seed, which ForestParams checks.
        value = "abc" if key == "seed" else 5
        check, _ = SETTINGS[key]
        assert key == "seed" or not check(value)
        cfg = self._backtest_config(tmp_path, **{key: value})
        self._no_work(monkeypatch)
        rc = main(["backtest", "--config", str(cfg), "--out", str(tmp_path / "r.json")])
        assert rc == 2
        assert re.search(rf"\b'?{key}'? must be ", capsys.readouterr().err)
        assert not (tmp_path / "r.json").exists()

    @pytest.mark.parametrize(
        "overrides, named",
        [
            ({"train_range": [None, "2014Q4"]}, "config 'train_range' must be a [start, end] pair of quarters"),
            ({"train_range": ["2013Q1", 2014]}, "config 'train_range' must be a [start, end] pair of quarters"),
            ({"test_range": ["2013Q1", "2014Q5"]}, "config 'test_range' must be a [start, end] pair of quarters"),
            ({"macro_source": None}, "config 'macro_source' must be 'indicator' or 'revenue', got None"),
            ({"model": "m4"}, "config 'model' must be 'm1', 'm2' or 'm3', got 'm4'"),
        ],
        ids=["range-start-null", "range-end-a-number", "range-end-no-quarter", "macro-source-null", "model-m4"],
    )
    def test_bad_value_names_its_key_before_any_work(self, overrides, named, tmp_path, capsys, monkeypatch):
        cfg = self._backtest_config(tmp_path, **overrides)
        self._no_work(monkeypatch)
        rc = main(["backtest", "--config", str(cfg), "--out", str(tmp_path / "r.json")])
        assert rc == 2
        assert named in capsys.readouterr().err

    @pytest.mark.parametrize("key", ["indicator_out", "macro_sorce"])
    @pytest.mark.parametrize("command", ["synth", "backtest", "forecast", "compare"])
    def test_unknown_key_is_named_before_any_work(self, command, key, tmp_path, capfd, monkeypatch):
        monkeypatch.chdir(tmp_path)
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"synth": {"n_geos": 1}, "mode": "horizons", key: "x"}))
        rc = main([command, "--config", str(cfg), "--out", "o.csv"])
        assert rc == 2
        out, err = capfd.readouterr()
        assert f"config file {cfg} has unknown key(s) {key!r}; expected some of baseline_report, " in err
        assert out == ""
        assert sorted(p.name for p in tmp_path.iterdir()) == ["cfg.json"]

    @pytest.mark.parametrize("start", [2009, "2009", None], ids=["a-number", "a-year", "null"])
    def test_synth_start_that_names_no_quarter_is_named(self, start, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"synth": {"n_quarters": 24, "start": start}}))
        rc = main(["synth", "--config", str(cfg), "--out", str(tmp_path / "o.csv")])
        assert rc == 2
        assert f"config section 'synth': start must be a FiscalQuarter, got {start!r}" in capsys.readouterr().err
        assert not (tmp_path / "o.csv").exists()

    @pytest.mark.parametrize("top_level", [{"seed": 1}, {}], ids=["with-top-level-seed", "without"])
    def test_seed_inside_forest_is_named_before_any_work(self, top_level, tmp_path, capsys, monkeypatch):
        cfg = self._backtest_config(tmp_path, forest={"n_trees": 5, "seed": 3})
        settings = json.loads(cfg.read_text())
        del settings["seed"]
        cfg.write_text(json.dumps({**settings, **top_level}))
        self._no_work(monkeypatch)
        rc = main(["forecast", "--config", str(cfg), "--out", str(tmp_path / "f.csv")])
        assert rc == 2
        err = capsys.readouterr().err
        assert "config section 'forest' must not set 'seed'" in err and "top-level 'seed'" in err
        assert not (tmp_path / "f.csv").exists()

    def _synth_bytes(self, tmp_path, settings, *flags):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(settings))
        out = tmp_path / "o.csv"
        assert main(["synth", "--config", str(cfg), *flags, "--out", str(out)]) == 0
        return out.read_bytes() + (tmp_path / "o_indicators.csv").read_bytes()

    def test_synth_seed_comes_from_flag_then_section_then_top_level(self, tmp_path):
        def seeded(seed):
            return self._synth_bytes(tmp_path, {"synth": {"n_geos": 1, "seed": seed}})

        unseeded = self._synth_bytes(tmp_path, {"synth": {"n_geos": 1}})
        assert unseeded == seeded(0)
        assert self._synth_bytes(tmp_path, {"seed": 5, "synth": {"n_geos": 1}}) == seeded(5) != unseeded
        assert self._synth_bytes(tmp_path, {"seed": 5, "synth": {"n_geos": 1, "seed": 3}}) == seeded(3)
        assert self._synth_bytes(tmp_path, {"seed": 5, "synth": {"n_geos": 1, "seed": 3}}, "--seed", "4") == seeded(4)

    def test_synth_start_label_is_read(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"synth": {"n_geos": 1, "n_quarters": 24, "start": "FY2011Q3"}}))
        assert main(["synth", "--config", str(cfg), "--out", str(tmp_path / "o.csv")]) == 0
        assert load_revenue_csv(tmp_path / "o.csv").total.start == FiscalQuarter(2011, 3)


def test_readme_config_example_passes_the_table(tmp_path):
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text(encoding="utf-8")
    example = readme.split("A full config looks like:", 1)[1].split("```json\n", 1)[1].split("```", 1)[0]
    path = tmp_path / "cfg.json"
    path.write_text(example)
    assert _load_config(str(path)) == json.loads(example)
    reference = readme.split("### Configuration reference", 1)[1].split("\n#", 1)[0]
    listed = re.findall(r"^\| `(\w+)` \|", reference, flags=re.MULTILINE)
    assert listed == list(SETTINGS)
