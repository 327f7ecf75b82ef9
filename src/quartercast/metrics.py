"""Forecast error metrics and derived growth features.

All percentages are carried unrounded; rounding to two decimals happens
only when reports are rendered.
"""

from __future__ import annotations

from itertools import islice
from typing import Iterable

import numpy as np

from .errors import ValidationError
from .fiscal import FiscalQuarter, quarter_add
from .series import QuarterlySeries

_LOG_FLOOR = 1e-300


def ape(actual: float, forecast: float) -> float:
    """Absolute percentage error |actual - forecast| / |actual| * 100."""
    if actual == 0.0:
        raise ValidationError("APE undefined for actual = 0")
    return abs(actual - forecast) / abs(actual) * 100.0


def mape(pairs: Iterable[tuple[float, float]]) -> float:
    """Mean APE over (actual, forecast) pairs."""
    apes = [ape(a, f) for a, f in pairs]
    if not apes:
        raise ValidationError("MAPE undefined for an empty set of pairs")
    total = 0.0
    for value in apes:  # left to right: from CPython 3.12 ``sum`` compensates
        total += value
    return total / len(apes)


def aicc(sse: float, n: int, k: int, shrink: float = 1.0) -> float:
    """The AICc of a least-squares fit: n residuals, k estimated parameters (the variance among them).

    The variance estimate sse / n is floored at _LOG_FLOOR, so that an exact
    fit scores a finite AICc, and scaled by shrink before the log; at 1.0
    the product is the estimate itself, bit for bit.  ARIMA's AICc floor
    passes a shrink below 1.  With no degrees of freedom left the AICc is
    inf.
    """
    if n - k - 1 <= 0:
        return float(np.inf)
    return float(n * np.log(max(sse / n, _LOG_FLOOR) * shrink) + 2.0 * k * n / (n - k - 1))


def lowest_aicc(jobs, fits, none_fits) -> list:
    """Per job, its lowest-AICc fit, or ``none_fits(error)`` when none of its candidates fit.

    ``jobs`` holds each job's candidates, and ``fits`` yields one fit (with
    an ``aicc``) or error per candidate, job after job.  Errors are skipped
    and a tie goes to the earlier candidate.  ``error`` is the job's last
    error, or None when it has no candidates.
    """
    fits = iter(fits)
    selected = []
    for job in jobs:
        best = error = None
        for fit in islice(fits, len(job)):
            if isinstance(fit, Exception):
                error = fit
            elif best is None or fit.aicc < best.aicc:
                best = fit
        selected.append(none_fits(error) if best is None else best)
    return selected


def relative_improvement(x: float, y: float) -> float:
    """(x - y) / x * 100: how much the candidate error y improves on baseline x.

    Positive means the candidate improved on the baseline.  Callers render
    the x = 0 case as "n/a" rather than letting the ratio blow up.
    """
    if x == 0.0:
        raise ValidationError("relative improvement undefined for zero baseline error")
    return (x - y) / x * 100.0


def yoy_growth(series: QuarterlySeries, fq: FiscalQuarter) -> float:
    """Year-over-year growth (v(fq) - v(fq-4)) / v(fq-4).

    Unit-free: scaling the series by any positive constant leaves the
    result unchanged, so indicator series need no common currency.
    """
    prev_q = quarter_add(fq, -4)
    if fq not in series or prev_q not in series:
        raise ValidationError(f"series {series.id!r} does not cover {fq} and {prev_q}")
    prev = series.value_at(prev_q)
    if prev == 0.0:
        raise ValidationError(f"series {series.id!r}: zero value at {prev_q} in YoY denominator")
    return (series.value_at(fq) - prev) / prev
