"""Seeded synthetic datasets: trend + quarterly seasonality + noise, with an
optional macro factor shared across geographies.

Each geography follows base*(1 + slope*t/n) + amplitude*s(t mod 4) + noise.
When ``indicator_linkage`` is nonzero the whole series is additionally
scaled toward a common indicator level, so indicator YoY growth becomes
informative about revenue; at linkage 1.0 revenue is proportional to the
indicator and their YoY growths correlate strongly.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass

import numpy as np

from .errors import ValidationError
from .fiscal import FiscalQuarter
from .series import TOTAL_ID, Dataset, QuarterlySeries

log = logging.getLogger(__name__)

SEASONAL_PATTERN = (0.9, -0.3, -0.8, 0.2)  # sums to zero over a cycle

# Common macro cycle: quarterly YoY growth of the indicator level.
_MACRO_BASE_GROWTH = 0.05
_MACRO_GROWTH_SWING = 0.10
_MACRO_PERIOD = 8

_REVENUE_FLOOR = 1e-6


@dataclass(frozen=True)
class SynthSpec:
    n_geos: int = 6
    n_quarters: int = 28
    start: FiscalQuarter = FiscalQuarter(2009, 1)
    base_level: float = 100.0
    trend_slope: float = 0.5
    seasonal_amplitude: float = 8.0
    noise_scale: float = 1.0
    indicator_linkage: float = 0.0
    indicator_id: str = "indicator"
    seed: int = 0

    def __post_init__(self):
        for name in ("n_geos", "n_quarters", "seed"):
            value = getattr(self, name)
            if not isinstance(value, int) or isinstance(value, bool):
                raise ValidationError(f"{name} must be an integer, got {value!r}")
        for name in ("base_level", "trend_slope", "seasonal_amplitude", "noise_scale", "indicator_linkage"):
            value = getattr(self, name)
            if not isinstance(value, (int, float)) or isinstance(value, bool) or not _finite(value):
                raise ValidationError(f"{name} must be a finite number, got {value!r}")
        if not isinstance(self.start, FiscalQuarter):
            raise ValidationError(f"start must be a FiscalQuarter, got {self.start!r}")
        if not isinstance(self.indicator_id, str) or not self.indicator_id:
            raise ValidationError(f"indicator_id must be a non-empty string, got {self.indicator_id!r}")
        if self.n_geos < 1:
            raise ValidationError(f"n_geos must be >= 1, got {self.n_geos}")
        if self.n_quarters < 24:
            raise ValidationError(f"n_quarters must be >= 24, got {self.n_quarters}")
        if self.seed < 0:
            raise ValidationError(f"seed must be a nonnegative integer, got {self.seed}")


def _finite(value) -> bool:
    try:
        return math.isfinite(value)
    except OverflowError:  # an int too large for a float
        return False


def geo_ids(n_geos: int) -> list[str]:
    width = len(str(n_geos))
    return [f"Geo_{i + 1:0{width}d}" for i in range(n_geos)]


def _macro_growth(t: int) -> float:
    return _MACRO_BASE_GROWTH + _MACRO_GROWTH_SWING * math.sin(2.0 * math.pi * t / _MACRO_PERIOD)


def _indicator_level(n: int) -> np.ndarray:
    level = np.empty(n)
    for t in range(min(4, n)):
        level[t] = 100.0 * (1.0 + 0.012 * t)
    for t in range(4, n):
        level[t] = level[t - 4] * (1.0 + _macro_growth(t))
    return level


def generate_synthetic(spec: SynthSpec) -> Dataset:
    """A fully seeded Dataset with per-geography indicator series."""
    rng = np.random.default_rng(np.random.SeedSequence(spec.seed))
    n = spec.n_quarters
    t = np.arange(n)
    common = _indicator_level(n)
    macro_factor = 1.0 + spec.indicator_linkage * (common / common[0] - 1.0)

    revenue: dict[str, QuarterlySeries] = {}
    indicators: dict[tuple[str, str], QuarterlySeries] = {}
    clamped = 0
    for geo in geo_ids(spec.n_geos):
        base = spec.base_level * rng.uniform(0.6, 1.4)
        slope = spec.trend_slope * rng.uniform(0.5, 1.5)
        amplitude = spec.seasonal_amplitude * rng.uniform(0.5, 1.5)
        noise = rng.standard_normal(n) * spec.noise_scale
        ind_scale = rng.uniform(0.5, 2.0)

        core = base * (1.0 + slope * t / n) + amplitude * np.asarray(
            [SEASONAL_PATTERN[i % 4] for i in range(n)]
        ) + noise
        values = core * macro_factor
        low = values < _REVENUE_FLOOR
        if np.any(low):
            clamped += int(np.sum(low))
            values = np.where(low, _REVENUE_FLOOR, values)
        revenue[geo] = QuarterlySeries(geo, spec.start, values)
        indicators[(geo, spec.indicator_id)] = QuarterlySeries(geo, spec.start, ind_scale * common)

    if clamped:
        log.warning("clamped %d non-positive synthetic revenue values to the floor", clamped)

    total_ind = np.zeros(n)
    for (geo, _), s in sorted(indicators.items()):
        total_ind += s.to_array()

    indicators[(TOTAL_ID, spec.indicator_id)] = QuarterlySeries(TOTAL_ID, spec.start, total_ind)
    return Dataset.build(revenue, indicators=indicators)
