"""The feature-row contract: what a row holds and the order of its columns.

A row describes one (geography, origin quarter, horizon) forecasting task.
This module owns the column order (``feature_names``) and turns rows into
vectors and matrices in that order; ``features`` computes the values.  It
imports no fitting code, so naming columns or assembling a matrix loads
none of the model modules.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import UnknownGeographyError, ValidationError
from .fiscal import FiscalQuarter

N_LAGS = 8
MAX_HORIZON = 4


@dataclass(frozen=True)
class IndicatorConfig:
    """One enabled macro indicator and the geographies it applies to."""

    indicator_id: str
    geos: tuple[str, ...] | None = None  # None: every modeled series

    def __post_init__(self):
        if not isinstance(self.indicator_id, str) or not self.indicator_id:
            raise ValidationError(f"indicator_id must be a non-empty string, got {self.indicator_id!r}")
        if self.geos is not None and not (
            isinstance(self.geos, tuple) and all(isinstance(g, str) for g in self.geos)
        ):
            raise ValidationError(f"geos must be None or a tuple of geography names, got {self.geos!r}")


@dataclass(frozen=True)
class FeatureConfig:
    indicators: tuple[IndicatorConfig, ...] = ()
    macro_at_origin: bool = True
    macro_at_target: bool = True
    # "indicator": YoY growth of the indicator series (default reading).
    # "revenue": YoY growth of the revenue series itself at the origin;
    # the target-quarter variant is suppressed in this mode because it
    # would require the value being forecast.
    macro_source: str = "indicator"
    # True: lag 1 is revenue at the origin itself (through lag 8 = origin-7).
    # False: lag 1 is revenue one quarter before the origin.
    lag_includes_origin: bool = True

    def __post_init__(self):
        if self.macro_source not in ("indicator", "revenue"):
            raise ValidationError(f"macro_source must be 'indicator' or 'revenue', got {self.macro_source!r}")
        ids = [cfg.indicator_id for cfg in self.indicators]
        for ind in ids:
            if ids.count(ind) > 1:
                raise ValidationError(f"indicator {ind!r} is configured more than once")

    def macro_feature_names(self) -> list[str]:
        names = []
        for cfg in self.indicators:
            if self.macro_at_origin:
                names.append(f"{cfg.indicator_id}_yoy_origin")
            if self.macro_at_target and self.macro_source == "indicator":
                names.append(f"{cfg.indicator_id}_yoy_target")
        return names

    def applies_to(self, cfg: IndicatorConfig, geo: str) -> bool:
        return cfg.geos is None or geo in cfg.geos


@dataclass(frozen=True)
class FeatureRow:
    geo: str
    origin: FiscalQuarter
    horizon: int
    target_quarter: FiscalQuarter
    arima_fc: float
    ets_fc: float
    stl_fc: float
    avg_ts_fc: float
    lags: tuple[float, ...]
    macro: tuple[tuple[str, float], ...] = ()
    target: float | None = None


def feature_names(series_ids: list[str], config: FeatureConfig) -> list[str]:
    """Canonical column order; macro columns always come last.

    Every row carries every macro column, so each indicator must apply to
    every series, and its ``geos`` may name only modeled series.
    """
    for cfg in config.indicators:
        for geo in cfg.geos or ():
            if geo not in series_ids:
                raise ValidationError(
                    f"indicator {cfg.indicator_id!r} 'geos' names {geo!r}, which is not a modeled series"
                )
        for geo in series_ids:
            if not config.applies_to(cfg, geo):
                raise ValidationError(
                    f"indicator {cfg.indicator_id!r} leaves out series {geo!r}: "
                    "its 'geos' must cover every modeled series"
                )
    names = ["horizon"]
    names += [f"lag_{k}" for k in range(1, N_LAGS + 1)]
    names += ["arima_fc", "ets_fc", "stl_fc", "avg_ts_fc"]
    names += [f"geo_{g}" for g in series_ids]
    names += config.macro_feature_names()
    return names


def row_vector(row: FeatureRow, series_ids: list[str], config: FeatureConfig) -> np.ndarray:
    if row.geo not in series_ids:
        raise UnknownGeographyError(f"geography {row.geo!r} was not in the training set")
    vec = [float(row.horizon)]
    vec += list(row.lags)
    vec += [row.arima_fc, row.ets_fc, row.stl_fc, row.avg_ts_fc]
    vec += [1.0 if row.geo == g else 0.0 for g in series_ids]
    macro = dict(row.macro)
    for name in config.macro_feature_names():
        if name not in macro:
            raise ValidationError(f"row for {row.geo} at {row.origin} lacks macro feature {name!r}")
        vec.append(macro[name])
    return np.asarray(vec, dtype=float)


def rows_to_matrix(
    rows: list[FeatureRow], series_ids: list[str], config: FeatureConfig
) -> tuple[np.ndarray, np.ndarray]:
    """Training matrix (X, y); every row must carry a target."""
    if not rows:
        raise ValidationError("no rows to assemble")
    X = np.vstack([row_vector(r, series_ids, config) for r in rows])
    y = np.asarray([r.target for r in rows], dtype=float)
    if not np.all(np.isfinite(y)):
        raise ValidationError("some rows are missing targets")
    return X, y
