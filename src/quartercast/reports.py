"""The report types: per-horizon backtest scores and relative comparison tables.

``pipeline`` produces them and ``io`` reads and writes them; this module
holds no fitting code, so reading or writing a report loads none.
"""

from __future__ import annotations

from dataclasses import dataclass

from .fiscal import FiscalQuarter


@dataclass(frozen=True)
class ApeDetail:
    target: FiscalQuarter
    actual: float
    forecast: float
    ape: float


@dataclass(frozen=True)
class HorizonCell:
    mape: float
    details: tuple[ApeDetail, ...]


@dataclass(frozen=True)
class EvaluationReport:
    model: str
    geos: tuple[str, ...]
    horizons: tuple[int, ...]
    cells: dict[tuple[str, int], HorizonCell]
    metadata: dict

    def mape_for(self, geo: str, horizon: int) -> float | None:
        """The cell's MAPE, or None where the report has no such cell."""
        cell = self.cells.get((geo, horizon))
        return None if cell is None else cell.mape


@dataclass(frozen=True)
class ComparisonTable:
    """Relative-improvement cells; None (a zero baseline, or a cell either
    report lacks) renders as n/a."""

    mode: str
    row_labels: tuple[str, ...]
    col_labels: tuple[str, ...]
    cells: tuple[tuple[float | None, ...], ...]
    metadata: dict

    def cell(self, row: str, col: str):
        return self.cells[self.row_labels.index(row)][self.col_labels.index(col)]
