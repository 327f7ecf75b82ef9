import json

import numpy as np
import pytest

from quartercast import (
    ContiguityError,
    DuplicateKeyError,
    FiscalQuarter,
    SchemaMismatchError,
    SynthSpec,
    TOTAL_ID,
    ValidationError,
    generate_synthetic,
    load_expert_forecasts_csv,
    load_indicator_csv,
    load_revenue_csv,
    read_report,
    read_table,
    write_indicator_csv,
    write_report,
    write_revenue_csv,
    yoy_growth,
)
from quartercast import features, pipeline
from quartercast.cli import main
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

    def test_bad_header(self, tmp_path):
        p = tmp_path / "rev.csv"
        write_lines(p, ["geo,year,quarter,revenue", "Geo_1,2012,1,5"])
        with pytest.raises(SchemaMismatchError):
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
        with pytest.raises(ValidationError):
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

    def test_empty_file_loads_empty(self, tmp_path):
        p = tmp_path / "exp.csv"
        write_lines(p, ["geo,fiscal_year,fiscal_quarter,expert_forecast"])
        assert load_expert_forecasts_csv(p) == {}


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
        text = p.read_text()
        assert text.splitlines()[0] == "geo,horizon_1"
        assert "A,1.23" in text
        assert "TOTAL,2.50" in text

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
        lines = p.read_text().splitlines()
        assert lines[0] == "row,horizon_2,horizon_3,horizon_4"
        assert [ln.split(",")[0] for ln in lines[1:]] == ["Geo_1", "Geo_2", "TOTAL"]


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
        import quartercast.cli as cli_mod

        def explode(*a, **k):
            raise NonconvergenceError("nothing converged")

        monkeypatch.setattr(cli_mod, "backtest", explode)
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
