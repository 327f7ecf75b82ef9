"""Loess local regression and seasonal-trend decomposition.

The decomposition runs a short inner loop suited to very short quarterly
windows: detrend, take cycle-subseries means (the "periodic" seasonal),
low-pass the reconstituted seasonal with a 3x3x5 moving-average stack and
a degree-1 loess, subtract, then re-smooth the deseasonalized series for
the trend.  The stored seasonal is re-periodized and recentred so that it
is exactly 4-periodic and sums to zero over a cycle.

Forecasting (``stlf_forecast``) is three steps: ``seasonal_adjust``, an
ETS selection on the adjusted series, and ``reseasonalize``.  They are
separate so that ``features.fit_windows`` can put the ETS step of every
window into one selection with the windows' own ETS fits.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import ceil

import numpy as np

from .errors import InsufficientDataError, ValidationError
from .ets import EtsSpec, auto_select_ets, forecast_ets
from .series import QuarterlySeries

PERIOD = 4

# The ETS specs fit to the seasonally adjusted series.
ADJUSTED_SPECS = (EtsSpec("none", "none"), EtsSpec("additive", "none"))

# Fixed trend smoother: the classical span formula degenerates once the
# seasonal is periodic, so a documented constant is used instead.
TREND_SPAN = 0.75
TREND_DEGREE = 1

INNER_ITERATIONS = 2


@dataclass(frozen=True)
class LoessParams:
    span: float = TREND_SPAN
    degree: int = TREND_DEGREE

    def __post_init__(self):
        if not 0.0 < self.span <= 1.0:
            raise ValidationError(f"span must be in (0, 1], got {self.span}")
        if self.degree not in (0, 1, 2):
            raise ValidationError(f"degree must be 0, 1 or 2, got {self.degree}")


def _loess_at(x, y, u, window, degree):
    d = np.abs(x - u)
    idx = np.argsort(d, kind="stable")[:window]
    dmax = float(d[idx].max())
    if dmax == 0.0:
        w = np.ones(idx.size)
    else:
        w = np.clip(1.0 - (d[idx] / dmax) ** 3, 0.0, None) ** 3
    if degree == 0:
        tot = float(np.sum(w))
        if tot == 0.0:
            return float(np.mean(y[idx]))
        return float(np.sum(w * y[idx]) / tot)
    # Centered design: the intercept is the value at the evaluation point.
    dx = x[idx] - u
    design = np.vander(dx, degree + 1, increasing=True)
    sw = np.sqrt(w)
    coef, _, rank, _ = np.linalg.lstsq(design * sw[:, None], y[idx] * sw, rcond=None)
    if rank < degree + 1:
        tot = float(np.sum(w))
        if tot == 0.0:
            return float(np.mean(y[idx]))
        return float(np.sum(w * y[idx]) / tot)
    return float(coef[0])


def loess_smooth(x, y, params: LoessParams, eval_points) -> np.ndarray:
    """Tricube-weighted local polynomial regression at each evaluation point."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    n = x.size
    if n < params.degree + 2:
        raise InsufficientDataError(f"loess needs >= {params.degree + 2} points, have {n}")
    if np.any(np.diff(x) <= 0):
        raise ValidationError("loess x values must be strictly increasing")
    window = min(n, max(params.degree + 2, ceil(params.span * n)))
    return np.asarray([_loess_at(x, y, float(u), window, params.degree) for u in eval_points])


@dataclass(frozen=True)
class StlDecomposition:
    trend: tuple[float, ...]
    seasonal: tuple[float, ...]
    remainder: tuple[float, ...]
    period: int = PERIOD

    def seasonal_by_position(self) -> tuple[float, ...]:
        """The periodic seasonal value for positions 0..3 of the cycle."""
        return self.seasonal[: self.period]


def _moving_average(v: np.ndarray, width: int) -> np.ndarray:
    return np.convolve(v, np.full(width, 1.0 / width), mode="valid")


def _position_means(values: np.ndarray) -> np.ndarray:
    means = np.asarray([np.mean(values[i::PERIOD]) for i in range(PERIOD)])
    return means - np.mean(means)


def stl_decompose(series: QuarterlySeries) -> StlDecomposition:
    """Split a series into trend + (periodic) seasonal + remainder."""
    y = series.to_array()
    n = y.size
    if n < 2 * PERIOD:
        raise InsufficientDataError(f"decomposition needs >= {2 * PERIOD} points, have {n}")

    t_idx = np.arange(n, dtype=float)
    # Starting the loop from a plain smooth of the data (rather than a zero
    # trend) keeps strong trends out of the first seasonal estimate, which
    # two inner iterations cannot otherwise fully unwind.
    trend = loess_smooth(t_idx, y, LoessParams(TREND_SPAN, TREND_DEGREE), t_idx)
    seasonal = np.zeros(n)
    for _ in range(INNER_ITERATIONS):
        detrended = y - trend
        pos = _position_means(detrended)
        # One extra cycle each side so the 3x3x5 stack (total halfwidth 4)
        # covers all n points.
        cycle = np.asarray([pos[t % PERIOD] for t in range(-PERIOD, n + PERIOD)])
        low = _moving_average(_moving_average(_moving_average(cycle, 3), 3), 5)
        low = loess_smooth(t_idx, low, LoessParams(span=TREND_SPAN, degree=1), t_idx)
        candidate = cycle[PERIOD : PERIOD + n] - low
        # Re-periodize and recentre: with four or fewer cycles a seasonal
        # that drifts within the window is not identifiable.
        s_pos = _position_means(candidate)
        seasonal = np.asarray([s_pos[t % PERIOD] for t in range(n)])
        trend = loess_smooth(t_idx, y - seasonal, LoessParams(TREND_SPAN, TREND_DEGREE), t_idx)

    remainder = y - trend - seasonal
    return StlDecomposition(
        trend=tuple(float(v) for v in trend),
        seasonal=tuple(float(v) for v in seasonal),
        remainder=tuple(float(v) for v in remainder),
    )


def seasonal_adjust(series: QuarterlySeries) -> tuple[QuarterlySeries, StlDecomposition]:
    """The series minus its STL seasonal, and the decomposition it came from."""
    dec = stl_decompose(series)
    adjusted = QuarterlySeries(
        series.id, series.start, series.to_array() - np.asarray(dec.seasonal)
    )
    return adjusted, dec


def reseasonalize(dec: StlDecomposition, base) -> np.ndarray:
    """Add the periodic seasonal back to forecasts 1..h of the adjusted series."""
    n = len(dec.seasonal)
    pos = dec.seasonal_by_position()
    seas = np.asarray([pos[(n + k - 1) % PERIOD] for k in range(1, len(base) + 1)])
    return base + seas


def stlf_forecast(series: QuarterlySeries, h: int) -> np.ndarray:
    """Decompose, forecast the seasonally adjusted part, re-seasonalize.

    The seasonally adjusted series is forecast with an ETS restricted to
    ADJUSTED_SPECS ({no trend, additive trend}, no seasonal component: that
    part was already removed), selected by AICc.  ``features.fit_windows``
    runs the same three steps, with the ETS fits of all its windows in
    one search run and one polish run.
    """
    if not 1 <= h <= 8:
        raise ValidationError(f"forecast horizon must be in 1..8, got {h}")
    adjusted, dec = seasonal_adjust(series)
    fit = auto_select_ets(adjusted, specs=ADJUSTED_SPECS)
    return reseasonalize(dec, forecast_ets(fit, h))
