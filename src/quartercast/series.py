"""Quarterly series and dataset containers.

A :class:`QuarterlySeries` is a contiguous run of quarterly values for one
geography or indicator.  A :class:`Dataset` bundles the per-geography
revenue series, the worldwide aggregate, and any macro indicator series.
"""

from __future__ import annotations

from typing import Iterable, Mapping, Sequence

import numpy as np

from .errors import ContiguityError, InsufficientDataError, MissingIndicatorError, ValidationError
from .fiscal import FiscalQuarter, quarter_add, quarter_diff

TOTAL_ID = "TOTAL"

# Relative tolerance when validating a supplied TOTAL against the
# per-quarter sum of the geography series.
TOTAL_REL_TOL = 1e-9

# Largest revenue or indicator value accepted.  Squares stay below 1e200,
# so every sum of squares the fits and the forest form, and every
# recursion error, stays far from the float limit (1.8e308).  The model 2
# backtest of the CI smoke data is exact with values up to about 4e151
# and wrong with values up to about 1.4e153.
MAX_VALUE = 1e100


class QuarterlySeries:
    """Contiguous, ordered quarterly values for one id.

    Values are kept as an immutable tuple of floats so a series can be
    shared between tasks and used as a cache key.  A -0.0 is kept as 0.0,
    so no fit depends on the sign of a zero value (an ARIMA residual's
    would, see ``arima._CssObjective``).
    """

    __slots__ = ("id", "start", "values")

    def __init__(self, series_id: str, start: FiscalQuarter, values: Sequence[float]):
        vals = tuple(float(v) + 0.0 for v in values)
        if not vals:
            raise ValidationError(f"series {series_id!r} has no points")
        for v in vals:
            if not np.isfinite(v):
                raise ValidationError(f"series {series_id!r} contains non-finite value {v}")
        object.__setattr__(self, "id", series_id)
        object.__setattr__(self, "start", start)
        object.__setattr__(self, "values", vals)

    def __setattr__(self, name, value):
        raise AttributeError("QuarterlySeries is immutable")

    def __reduce__(self):
        # Pickle through the constructor: the default protocol would set
        # the slots with setattr, which the guard above refuses.
        return (QuarterlySeries, (self.id, self.start, self.values))

    @classmethod
    def from_points(cls, series_id: str, points: Iterable[tuple[FiscalQuarter, float]]) -> "QuarterlySeries":
        """Build from (quarter, value) pairs, validating contiguity."""
        pts = list(points)
        if not pts:
            raise ValidationError(f"series {series_id!r} has no points")
        for (prev_q, _), (cur_q, _) in zip(pts, pts[1:]):
            if cur_q != quarter_add(prev_q, 1):
                raise ContiguityError(
                    f"series {series_id!r}: expected {quarter_add(prev_q, 1)} after {prev_q}, got {cur_q}"
                )
        return cls(series_id, pts[0][0], [v for _, v in pts])

    def __len__(self) -> int:
        return len(self.values)

    def __eq__(self, other) -> bool:
        if not isinstance(other, QuarterlySeries):
            return NotImplemented
        return self.id == other.id and self.start == other.start and self.values == other.values

    def __hash__(self) -> int:
        return hash((self.id, self.start, self.values))

    def __repr__(self) -> str:
        return f"QuarterlySeries({self.id!r}, {self.start}..{self.end}, n={len(self)})"

    @property
    def end(self) -> FiscalQuarter:
        return quarter_add(self.start, len(self.values) - 1)

    def quarters(self) -> list[FiscalQuarter]:
        return [quarter_add(self.start, k) for k in range(len(self.values))]

    def points(self) -> list[tuple[FiscalQuarter, float]]:
        return list(zip(self.quarters(), self.values))

    def __contains__(self, fq: FiscalQuarter) -> bool:
        return 0 <= quarter_diff(fq, self.start) < len(self.values)

    def index_of(self, fq: FiscalQuarter) -> int:
        k = quarter_diff(fq, self.start)
        if not 0 <= k < len(self.values):
            raise ValidationError(f"series {self.id!r} does not cover {fq}")
        return k

    def value_at(self, fq: FiscalQuarter) -> float:
        return self.values[self.index_of(fq)]

    def to_array(self) -> np.ndarray:
        return np.asarray(self.values, dtype=float)

    def window(self, end: FiscalQuarter, length: int) -> "QuarterlySeries":
        """The trailing slice of ``length`` quarters ending at ``end``."""
        if end not in self:
            raise InsufficientDataError(f"series {self.id!r} does not cover {end}")
        stop = self.index_of(end) + 1
        if stop < length:
            raise InsufficientDataError(
                f"series {self.id!r}: need {length} quarters ending at {end}, have {stop}"
            )
        return QuarterlySeries(self.id, quarter_add(end, -(length - 1)), self.values[stop - length : stop])

    def truncated(self, end: FiscalQuarter) -> "QuarterlySeries":
        """The series up to and including ``end``."""
        if end not in self:
            raise InsufficientDataError(f"series {self.id!r} does not cover {end}")
        return QuarterlySeries(self.id, self.start, self.values[: self.index_of(end) + 1])

    def extended(self, extra: Sequence[float]) -> "QuarterlySeries":
        """A new series with ``extra`` values appended after the last quarter."""
        return QuarterlySeries(self.id, self.start, self.values + tuple(float(v) for v in extra))


def require_positive(series: QuarterlySeries) -> None:
    """Reject values that are not positive (revenue and indicator series
    divide by actuals) or that are above MAX_VALUE."""
    for fq, v in series.points():
        if v <= 0.0:
            raise ValidationError(f"series {series.id!r}: non-positive value {v} at {fq}")
        if v > MAX_VALUE:
            raise ValidationError(f"series {series.id!r}: value {v} at {fq} is above {MAX_VALUE:g}")


class Dataset:
    """Per-geography revenue, the TOTAL aggregate, and indicator series."""

    __slots__ = ("revenue", "total", "indicators")

    def __init__(
        self,
        revenue: Mapping[str, QuarterlySeries],
        total: QuarterlySeries,
        indicators: Mapping[tuple[str, str], QuarterlySeries] | None = None,
    ):
        object.__setattr__(self, "revenue", dict(revenue))
        object.__setattr__(self, "total", total)
        object.__setattr__(self, "indicators", dict(indicators or {}))

    def __setattr__(self, name, value):
        raise AttributeError("Dataset is immutable")

    def __reduce__(self):
        return (Dataset, (self.revenue, self.total, self.indicators))

    @classmethod
    def build(
        cls,
        revenue: Mapping[str, QuarterlySeries],
        total: QuarterlySeries | None = None,
        indicators: Mapping[tuple[str, str], QuarterlySeries] | None = None,
    ) -> "Dataset":
        """Validate geography series and attach (or recompute) the TOTAL.

        All geography series must cover the same quarter range.  When a
        TOTAL series is supplied it is checked against the per-quarter sum
        of the geographies at relative tolerance ``TOTAL_REL_TOL``; when
        absent it is computed as that sum.
        """
        if not revenue:
            raise ValidationError("dataset has no geography series")
        if TOTAL_ID in revenue:
            raise ValidationError(f"{TOTAL_ID!r} is a reserved id, not a geography")
        geos = sorted(revenue)
        first = revenue[geos[0]]
        for g in geos:
            s = revenue[g]
            if s.start != first.start or len(s) != len(first):
                raise ValidationError(
                    f"geography {g!r} covers {s.start}..{s.end}, expected {first.start}..{first.end}"
                )
            require_positive(s)
        summed = np.zeros(len(first))
        for g in geos:
            summed += revenue[g].to_array()
        if total is None:
            total = QuarterlySeries(TOTAL_ID, first.start, summed)
        else:
            if total.start != first.start or len(total) != len(first):
                raise ValidationError(
                    f"TOTAL covers {total.start}..{total.end}, expected {first.start}..{first.end}"
                )
            for fq, got, want in zip(first.quarters(), total.values, summed.tolist()):
                if abs(got - want) > TOTAL_REL_TOL * abs(want):
                    raise ValidationError(
                        f"TOTAL at {fq} is {got!r} but geography sum is {want!r}"
                    )
        for (geo, ind), s in (indicators or {}).items():
            require_positive(s)
        return cls(revenue, total, indicators)

    def geos(self) -> list[str]:
        return sorted(self.revenue)

    def series_ids(self) -> list[str]:
        """Geography ids plus TOTAL, in the canonical model order."""
        return self.geos() + [TOTAL_ID]

    def series_for(self, series_id: str) -> QuarterlySeries:
        if series_id == TOTAL_ID:
            return self.total
        if series_id not in self.revenue:
            raise ValidationError(f"unknown geography {series_id!r}")
        return self.revenue[series_id]

    def indicator_for(self, geo: str, indicator_id: str) -> QuarterlySeries:
        key = (geo, indicator_id)
        if key not in self.indicators:
            raise MissingIndicatorError(f"no indicator {indicator_id!r} for geography {geo!r}")
        return self.indicators[key]
