"""``import quartercast`` loads submodules on first use, not up front."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import quartercast

SRC = str(Path(__file__).resolve().parent.parent / "src")

FITTING = ("arima", "ets", "stl", "features", "forest", "pipeline", "_optim")
ENGINE = FITTING + ("metrics",)


def _loaded_after(code: str) -> set[str]:
    """The quartercast submodules a fresh interpreter has loaded after running ``code``."""
    script = code + (
        "\nimport sys, json"
        "\nprint(json.dumps(sorted(m for m in sys.modules if m.startswith('quartercast.'))))"
    )
    env = {**os.environ, "PYTHONPATH": SRC + os.pathsep + os.environ.get("PYTHONPATH", "")}
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True, env=env, check=True)
    return set(json.loads(proc.stdout.splitlines()[-1]))


def test_import_loads_no_submodule():
    assert _loaded_after("import quartercast") == set()


def test_generating_and_reading_data_loads_no_fitting_code(tmp_path):
    loaded = _loaded_after(
        "import quartercast as qc\n"
        "ds = qc.generate_synthetic(qc.SynthSpec(n_geos=2, n_quarters=24, seed=1))\n"
        f"qc.write_revenue_csv(ds, {str(tmp_path / 'rev.csv')!r})\n"
        f"qc.write_indicator_csv(ds.indicators, {str(tmp_path / 'ind.csv')!r})\n"
        f"qc.load_revenue_csv({str(tmp_path / 'rev.csv')!r})\n"
    )
    assert "quartercast.io" in loaded and "quartercast.synth" in loaded
    assert not loaded & {f"quartercast.{name}" for name in ENGINE}


def test_reading_a_report_loads_no_fitting_code(tmp_path):
    loaded = _loaded_after(
        "from quartercast.io import read_report, write_report\n"
        "from quartercast.reports import EvaluationReport\n"
        "report = EvaluationReport('m1', ('A',), (1,), {}, {})\n"
        f"write_report(report, 'json', {str(tmp_path / 'r.json')!r})\n"
        f"assert read_report({str(tmp_path / 'r.json')!r}) == report\n"
    )
    assert not loaded & {f"quartercast.{name}" for name in ENGINE}


def test_naming_feature_columns_loads_no_fitting_code():
    # The calls of the forest-sweep bench's set-up, which builds a Model-3
    # matrix from stand-in forecasts.
    loaded = _loaded_after(
        "import quartercast as qc\n"
        "ds = qc.generate_synthetic(qc.SynthSpec(n_geos=2, n_quarters=24, seed=1))\n"
        "config = qc.FeatureConfig(indicators=(qc.IndicatorConfig('indicator'),))\n"
        "names = qc.feature_names(ds.series_ids(), config)\n"
        "origin = qc.quarter_add(qc.parse_quarter('2013Q4'), -1)\n"
        "list(qc.quarter_range(origin, qc.parse_quarter('2014Q4')))\n"
        "qc.quarter_diff(origin, origin)\n"
        "qc.yoy_growth(ds.indicator_for('Geo_1', 'indicator'), origin)\n"
    )
    assert "quartercast.rows" in loaded
    assert not loaded & {f"quartercast.{name}" for name in FITTING}


def test_importing_the_cli_loads_no_fitting_code():
    loaded = _loaded_after("import quartercast.cli")
    assert not loaded & {f"quartercast.{name}" for name in ENGINE}


def _imported_by_command(args: list[str], cwd) -> tuple[int, set[str]]:
    """The exit code of ``python -m quartercast.cli <args>`` and the quartercast submodules it imports
    (read from ``-X importtime``)."""
    env = {**os.environ, "PYTHONPATH": SRC + os.pathsep + os.environ.get("PYTHONPATH", "")}
    proc = subprocess.run(
        [sys.executable, "-X", "importtime", "-m", "quartercast.cli", *args],
        capture_output=True, text=True, env=env, cwd=cwd,
    )
    names = {line.rsplit("|", 1)[-1].strip() for line in proc.stderr.splitlines() if line.startswith("import time:")}
    return proc.returncode, {name for name in names if name.startswith("quartercast.")}


@pytest.mark.parametrize(
    "args, code",
    [
        (["synth", "--seed", "1", "--out", "rev.csv"], 0),
        (["--help"], 0),
        (["backtest", "--config", "missing.json"], 2),
        (["compare", "--mode", "nope", "--out", "t.json"], 2),
    ],
    ids=["synth", "help", "missing-config", "bad-compare-mode"],
)
def test_cli_commands_that_fit_nothing_load_no_fitting_code(args, code, tmp_path):
    returncode, imported = _imported_by_command(args, tmp_path)
    assert returncode == code
    assert "quartercast.io" in imported
    assert not imported & {f"quartercast.{name}" for name in FITTING}
    if args[0] == "synth":
        assert (tmp_path / "rev.csv").exists() and (tmp_path / "rev_indicators.csv").exists()


@pytest.mark.parametrize("name", quartercast.__all__)
def test_public_name_is_its_defining_modules_object(name):
    value = getattr(quartercast, name)
    if name == "__version__":
        assert isinstance(value, str)
        return
    owner = sys.modules[f"quartercast.{quartercast._OWNER[name]}"]
    assert value is vars(owner)[name]
    if hasattr(value, "__module__"):  # functions and classes are defined where they are listed
        assert value.__module__ == owner.__name__
    assert name in dir(quartercast)


def test_names_are_not_stored_in_the_package():
    quartercast.backtest  # noqa: B018  a lookup must not bind the name here
    assert "backtest" not in vars(quartercast)


def test_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="has no attribute 'no_such_name'"):
        quartercast.no_such_name  # noqa: B018
    assert not hasattr(quartercast, "model1_windows")


def test_submodules_are_attributes():
    assert quartercast.arima is sys.modules["quartercast.arima"]
    assert quartercast.io.write_report is quartercast.write_report
    from quartercast import stl

    assert stl.stlf_forecast is quartercast.stlf_forecast


def test_report_types_are_shared_by_pipeline_and_io():
    from quartercast import io, pipeline, reports

    for name in ("ApeDetail", "HorizonCell", "EvaluationReport", "ComparisonTable"):
        assert getattr(pipeline, name) is getattr(io, name) is getattr(reports, name)
