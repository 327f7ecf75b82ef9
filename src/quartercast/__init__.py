"""Quarterly revenue forecasting engine.

Three models over multi-geography quarterly revenue: trailing-MAPE
selection among ARIMA/ETS/STL forecasts, a regression forest over
engineered forecast and lag features at horizons 1-4, and the same forest
extended with macro indicator growth features.  Includes rolling-origin
backtesting, relative-performance reporting, CSV ingestion, and a seeded
synthetic data generator.

``import quartercast`` loads no submodule: each public name is imported
from its submodule the first time it is looked up, so a run that only
generates, reads or writes data never loads the fitting engine.
"""

import importlib
import sys

__version__ = "0.1.0"

# Submodule -> the public names it defines.
_EXPORTS = {
    "arima": (
        "ArimaFit", "ArimaOrder", "auto_select", "auto_select_many", "difference",
        "fit_arima", "forecast_arima", "order_grid",
    ),
    "errors": (
        "CalendarUnderflowError", "ContiguityError", "DuplicateKeyError", "InsufficientDataError",
        "MissingIndicatorError", "NonconvergenceError", "QuartercastError", "SchemaMismatchError",
        "UnknownGeographyError", "ValidationError",
    ),
    "ets": ("EtsFit", "EtsSpec", "auto_select_ets", "auto_select_ets_many", "fit_ets", "forecast_ets"),
    "features": (
        "ForecastCache", "base_forecasts", "build_row", "build_training_matrix", "extend_indicators",
        "fit_windows", "forecast_indicator", "macro_features",
    ),
    "fiscal": ("FiscalQuarter", "parse_quarter", "quarter_add", "quarter_diff", "quarter_range"),
    "forest": (
        "Forest", "ForestParams", "TreeNode", "best_split", "build_tree", "forest_from_json",
        "forest_to_json", "predict_forest", "train_forest",
    ),
    "io": (
        "load_expert_forecasts_csv", "load_indicator_csv", "load_revenue_csv", "read_report",
        "read_table", "with_indicators", "write_indicator_csv", "write_report", "write_revenue_csv",
    ),
    "metrics": ("ape", "mape", "relative_improvement", "yoy_growth"),
    "pipeline": (
        "Model1Result", "backtest", "compare_expert", "compare_horizons", "compare_reports",
        "final_origin_forecasts", "model1_forecast", "model1_run", "model2_run", "model3_run",
        "model_config",
    ),
    "reports": ("ComparisonTable", "EvaluationReport"),
    "rows": ("FeatureConfig", "FeatureRow", "IndicatorConfig", "feature_names", "row_vector", "rows_to_matrix"),
    "series": ("TOTAL_ID", "Dataset", "QuarterlySeries"),
    "stl": ("LoessParams", "StlDecomposition", "loess_smooth", "stl_decompose", "stlf_forecast"),
    "synth": ("SynthSpec", "generate_synthetic"),
}
_OWNER = {name: module for module, names in _EXPORTS.items() for name in names}

# The public API; a star import binds exactly these names, never the submodules
# (``from quartercast import *`` would otherwise replace the standard ``io``).
__all__ = [*_OWNER, "__version__"]


def __getattr__(name):
    # The name is looked up in its submodule on every access, never stored
    # here, so a function rebound in its submodule is what callers get.
    if name in _EXPORTS:
        return importlib.import_module(f"{__name__}.{name}")
    if name in _OWNER:
        module = f"{__name__}.{_OWNER[name]}"
        return getattr(sys.modules.get(module) or importlib.import_module(module), name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__():
    return sorted({*globals(), *_EXPORTS, *__all__})
