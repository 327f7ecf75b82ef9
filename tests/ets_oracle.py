"""The scalar ETS fit as it was before the lockstep batch: the bit-identity oracle.

A verbatim copy of ``fit_ets``, ``auto_select_ets`` and STL's ETS step
(``stlf_forecast``), frozen here so that the batched kernel in
``quartercast.ets`` can be checked against it bit for bit.  The scalar
``nelder_mead`` is the frozen one in ``arima_oracle``; the recursion and
parameter helpers are copied with them.  Only the imports differ.
"""

from __future__ import annotations

import numpy as np

from arima_oracle import nelder_mead
from quartercast.errors import InsufficientDataError, ValidationError
from quartercast.ets import (
    _ALPHA_HI,
    _ALPHA_LO,
    _LOG_FLOOR,
    _PHI_HI,
    _PHI_LO,
    PERIOD,
    SEASONAL_CHOICES,
    TREND_CHOICES,
    EtsFit,
    EtsSpec,
    forecast_ets,
)
from quartercast.series import QuarterlySeries
from quartercast.stl import stl_decompose


def _run_recursion(y, spec: EtsSpec, alpha, beta, gamma, phi, level, trend, seasonal):
    """One pass of the innovations recursion; returns (sse, final states)."""
    s = list(seasonal) if seasonal is not None else None
    has_trend = spec.has_trend
    damped = spec.damped
    sse = 0.0
    values = y.tolist() if hasattr(y, "tolist") else list(y)
    for t, obs in enumerate(values):
        seas = s[t % PERIOD] if s is not None else 0.0
        bt = (phi * trend) if damped else (trend if has_trend else 0.0)
        err = obs - (level + bt + seas)
        level = level + bt + alpha * err
        if has_trend:
            trend = bt + beta * err
        if s is not None:
            s[t % PERIOD] = seas + gamma * err
        sse += err * err
    return sse, level, (trend if has_trend else None), (tuple(s) if s is not None else None)


def _box(v: float, lo: float, hi: float) -> float:
    return lo if v < lo else hi if v > hi else v


def _clip_params(spec: EtsSpec, raw, fixed_alpha=None):
    """Map a raw optimizer vector onto the admissible parameter box."""
    i = 0
    if fixed_alpha is None:
        alpha = _box(float(raw[0]), _ALPHA_LO, _ALPHA_HI)
        i = 1
    else:
        alpha = float(fixed_alpha)
    beta = gamma = phi = None
    if spec.has_trend:
        beta = _box(float(raw[i]), _ALPHA_LO, alpha)
        i += 1
    if spec.damped:
        phi = _box(float(raw[i]), _PHI_LO, _PHI_HI)
        i += 1
    if spec.has_seasonal:
        gamma = _box(float(raw[i]), _ALPHA_LO, max(1.0 - alpha, _ALPHA_LO))
        i += 1
    level = float(raw[i])
    i += 1
    trend = None
    if spec.has_trend:
        trend = float(raw[i])
        i += 1
    seasonal = None
    if spec.has_seasonal:
        free = [float(v) for v in raw[i : i + PERIOD - 1]]
        seasonal = tuple(free) + (-(free[0] + free[1] + free[2]),)
        i += PERIOD - 1
    return alpha, beta, gamma, phi, level, trend, seasonal


def _initial_vector(z, spec: EtsSpec, fixed_alpha=None):
    head = z[: min(PERIOD, len(z))]
    level0 = float(np.mean(head))
    x0 = []
    if fixed_alpha is None:
        x0.append(0.3)
    if spec.has_trend:
        x0.append(0.1)
    if spec.damped:
        x0.append(0.95)
    if spec.has_seasonal:
        x0.append(0.1)
    x0.append(level0)
    if spec.has_trend:
        x0.append(float(z[PERIOD] - z[0]) / PERIOD if len(z) > PERIOD else 0.0)
    if spec.has_seasonal:
        dev = head - level0
        dev = dev - np.mean(dev)
        x0.extend(float(v) for v in dev[: PERIOD - 1])
    return np.asarray(x0, dtype=float)


def fit_ets(series: QuarterlySeries, spec: EtsSpec, fixed_alpha: float | None = None) -> EtsFit:
    """Fit smoothing parameters and initial states by minimizing one-step SSE.

    ``fixed_alpha`` pins the level smoothing weight (test hook for the
    naive and no-update limits); everything else is still optimized.
    """
    y = series.to_array()
    n = y.size
    if n < 8:
        raise InsufficientDataError(f"ETS needs >= 8 points, have {n}")
    if spec.has_seasonal and n < 2 * PERIOD:
        raise InsufficientDataError(f"seasonal ETS needs >= {2 * PERIOD} points, have {n}")
    if fixed_alpha is not None and not 0.0 <= fixed_alpha <= 1.0:
        raise ValidationError(f"fixed alpha must be in [0, 1], got {fixed_alpha}")

    # Standardize for optimizer conditioning; states map back affinely.
    mu = float(np.mean(y))
    sigma = float(np.std(y))
    if sigma == 0.0:
        sigma = 1.0
    z = (y - mu) / sigma
    z_list = z.tolist()

    def _clip_distance(raw, params):
        alpha, beta, gamma, phi, *_ = params
        i = 0
        dist = 0.0
        if fixed_alpha is None:
            dist += (raw[0] - alpha) ** 2
            i = 1
        if spec.has_trend:
            dist += (raw[i] - beta) ** 2
            i += 1
        if spec.damped:
            dist += (raw[i] - phi) ** 2
            i += 1
        if spec.has_seasonal:
            dist += (raw[i] - gamma) ** 2
        return dist

    def objective(raw):
        params = _clip_params(spec, raw, fixed_alpha)
        sse, *_ = _run_recursion(z_list, spec, *params)
        # Clipping flattens the surface outside the parameter box, which can
        # trap the simplex there; a pull-back on the clip distance restores
        # slope without moving any interior minimum.
        drift = _clip_distance(raw, params)
        return sse * (1.0 + drift) + drift

    x0 = _initial_vector(z, spec, fixed_alpha)
    budget = 200 * max(len(x0), 1)
    best_x, _, _ = nelder_mead(objective, x0, maxiter=budget, xatol=1e-8, fatol=1e-10)
    # One polish pass from the first answer; cheap insurance on the
    # higher-dimensional seasonal specs.
    best_x, _, _ = nelder_mead(objective, best_x, maxiter=budget, xatol=1e-10, fatol=1e-12)

    alpha, beta, gamma, phi, lvl_z, trd_z, seas_z = _clip_params(spec, best_x, fixed_alpha)
    level0 = mu + sigma * lvl_z
    trend0 = sigma * trd_z if trd_z is not None else None
    seas0 = tuple(sigma * v for v in seas_z) if seas_z is not None else None

    sse, final_level, final_trend, final_seasonal = _run_recursion(
        y, spec, alpha, beta, gamma, phi, level0, trend0 if trend0 is not None else 0.0, seas0
    )

    n_smoothing = 1 + (1 if spec.has_trend else 0) + (1 if spec.damped else 0) + (
        1 if spec.has_seasonal else 0
    )
    n_states = 1 + (1 if spec.has_trend else 0) + (PERIOD - 1 if spec.has_seasonal else 0)
    k = n_smoothing + n_states + 1
    if n - k - 1 > 0:
        aicc = n * np.log(max(sse / n, _LOG_FLOOR)) + 2.0 * k * n / (n - k - 1)
    else:
        aicc = np.inf

    return EtsFit(
        spec=spec,
        alpha=alpha,
        beta=beta,
        gamma=gamma,
        phi_damp=phi,
        initial_level=level0,
        initial_trend=trend0,
        initial_seasonal=seas0,
        sse=float(sse),
        aicc=float(aicc),
        training_series=series,
        final_level=float(final_level),
        final_trend=float(final_trend) if final_trend is not None else None,
        final_seasonal=final_seasonal,
    )


def spec_grid(trend_choices=TREND_CHOICES, seasonal_choices=SEASONAL_CHOICES) -> list[EtsSpec]:
    return [EtsSpec(t, s) for t in trend_choices for s in seasonal_choices]


def auto_select_ets(series: QuarterlySeries, specs: list[EtsSpec] | None = None) -> EtsFit:
    """Fit every admissible spec and return the lowest AICc.

    Ties resolve to the earlier spec in enumeration order; the (none, none)
    spec always fits, so selection cannot come up empty.
    """
    if len(series) < 8:
        raise InsufficientDataError(f"auto selection needs >= 8 points, have {len(series)}")
    best = None
    for spec in specs if specs is not None else spec_grid():
        try:
            fit = fit_ets(series, spec)
        except InsufficientDataError:
            continue
        if best is None or fit.aicc < best.aicc:
            best = fit
    if best is None:
        raise InsufficientDataError("no ETS spec admissible on this series")
    return best


def stlf_forecast(series: QuarterlySeries, h: int) -> np.ndarray:
    """Decompose, forecast the seasonally adjusted part, re-seasonalize.

    The seasonally adjusted series is forecast with an ETS restricted to
    {no trend, additive trend} and no seasonal component (that part was
    already removed), selected by AICc.
    """
    if not 1 <= h <= 8:
        raise ValidationError(f"forecast horizon must be in 1..8, got {h}")
    dec = stl_decompose(series)
    n = len(series)
    adjusted = QuarterlySeries(
        series.id, series.start, series.to_array() - np.asarray(dec.seasonal)
    )
    fit = auto_select_ets(adjusted, specs=[EtsSpec("none", "none"), EtsSpec("additive", "none")])
    base = forecast_ets(fit, h)
    pos = dec.seasonal_by_position()
    seas = np.asarray([pos[(n + k - 1) % PERIOD] for k in range(1, h + 1)])
    return base + seas
