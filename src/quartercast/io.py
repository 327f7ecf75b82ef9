"""CSV ingestion and report serialization.

All files are UTF-8 CSV with fixed lowercase headers and '.' decimals;
floats are written with repr so a load-write-load cycle is the identity.
Reports serialize to JSON (full detail, versioned) or CSV (matrix form
with two-decimal percentages).  A report cell the report lacks renders as
``n/a`` in CSV; an undefined comparison cell (a zero baseline, or a cell
either report lacks) renders as ``n/a`` in CSV and ``null`` in JSON.
"""

from __future__ import annotations

import csv
import json
import math
from pathlib import Path

from .errors import ContiguityError, DuplicateKeyError, SchemaMismatchError, ValidationError
from .fiscal import FiscalQuarter, parse_quarter, quarter_add
from .reports import ApeDetail, ComparisonTable, EvaluationReport, HorizonCell
from .series import MAX_VALUE, TOTAL_ID, Dataset, QuarterlySeries

REPORT_SCHEMA_VERSION = 1
REPORT_FORMATS = ("json", "csv")

REVENUE_HEADER = ["geo", "fiscal_year", "fiscal_quarter", "revenue"]
INDICATOR_HEADER = ["geo", "indicator", "fiscal_year", "fiscal_quarter", "value"]
EXPERT_HEADER = ["geo", "fiscal_year", "fiscal_quarter", "expert_forecast"]


def _read_rows(path, expected_header):
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise ValidationError(f"{path}: empty file") from None
        if header != expected_header:
            raise SchemaMismatchError(
                f"{path}: expected header {','.join(expected_header)}, got {','.join(header)}"
            )
        for lineno, row in enumerate(reader, start=2):
            if not row:
                continue
            if len(row) != len(expected_header):
                raise ValidationError(f"{path}:{lineno}: expected {len(expected_header)} fields")
            yield lineno, row


def _parse_id(path, lineno, text, field) -> str:
    value = text.strip()
    if not value:
        raise ValidationError(f"{path}:{lineno}: {field} is blank")
    return value


def _parse_fq(path, lineno, year_text, quarter_text) -> FiscalQuarter:
    try:
        return FiscalQuarter(int(year_text), int(quarter_text))
    except (ValueError, ValidationError) as exc:
        raise ValidationError(f"{path}:{lineno}: bad fiscal quarter: {exc}") from None


def _parse_value(path, lineno, text, require_positive=True) -> float:
    try:
        value = float(text)
    except ValueError:
        raise ValidationError(f"{path}:{lineno}: not a number: {text!r}") from None
    if not math.isfinite(value):
        raise ValidationError(f"{path}:{lineno}: value must be finite, got {text!r}")
    if require_positive and value <= 0.0:
        raise ValidationError(f"{path}:{lineno}: value must be positive, got {value}")
    if require_positive and value > MAX_VALUE:
        raise ValidationError(f"{path}:{lineno}: value must be at most {MAX_VALUE:g}, got {text!r}")
    return value


def _series_from_map(series_id: str, label: str, by_quarter: dict) -> QuarterlySeries:
    quarters = sorted(by_quarter)
    for prev_q, cur_q in zip(quarters, quarters[1:]):
        if cur_q.index != prev_q.index + 1:
            missing = quarter_add(prev_q, 1)
            raise ContiguityError(f"{label} {missing}: missing quarter")
    return QuarterlySeries.from_points(series_id, [(q, by_quarter[q]) for q in quarters])


def load_revenue_csv(path) -> Dataset:
    """Dataset (revenue part) from geo,fiscal_year,fiscal_quarter,revenue rows."""
    data: dict[str, dict[FiscalQuarter, float]] = {}
    for lineno, row in _read_rows(path, REVENUE_HEADER):
        geo = _parse_id(path, lineno, row[0], "geo")
        fq = _parse_fq(path, lineno, row[1], row[2])
        value = _parse_value(path, lineno, row[3])
        per_geo = data.setdefault(geo, {})
        if fq in per_geo:
            raise DuplicateKeyError(f"{path}:{lineno}: duplicate entry for {geo} {fq}")
        per_geo[fq] = value
    if not data:
        raise ValidationError(f"{path}: no data rows")
    total = None
    revenue = {}
    for geo in sorted(data):
        series = _series_from_map(geo, geo, data[geo])
        if geo == TOTAL_ID:
            total = series
        else:
            revenue[geo] = series
    try:
        return Dataset.build(revenue, total=total)
    except ValidationError as exc:
        raise ValidationError(f"{path}: {exc}") from None


def load_indicator_csv(path) -> dict[tuple[str, str], QuarterlySeries]:
    """Indicator map from geo,indicator,fiscal_year,fiscal_quarter,value rows."""
    data: dict[tuple[str, str], dict[FiscalQuarter, float]] = {}
    for lineno, row in _read_rows(path, INDICATOR_HEADER):
        key = (_parse_id(path, lineno, row[0], "geo"), _parse_id(path, lineno, row[1], "indicator"))
        fq = _parse_fq(path, lineno, row[2], row[3])
        value = _parse_value(path, lineno, row[4])
        per_key = data.setdefault(key, {})
        if fq in per_key:
            raise DuplicateKeyError(f"{path}:{lineno}: duplicate entry for {key[0]}/{key[1]} {fq}")
        per_key[fq] = value
    return {
        (geo, ind): _series_from_map(geo, f"{geo}/{ind}", values)
        for (geo, ind), values in sorted(data.items())
    }


def load_expert_forecasts_csv(path) -> dict[tuple[str, FiscalQuarter], float]:
    """Sparse expert forecasts keyed by (geo, quarter)."""
    out: dict[tuple[str, FiscalQuarter], float] = {}
    for lineno, row in _read_rows(path, EXPERT_HEADER):
        key = (_parse_id(path, lineno, row[0], "geo"), _parse_fq(path, lineno, row[1], row[2]))
        if key in out:
            raise DuplicateKeyError(f"{path}:{lineno}: duplicate expert forecast for {key[0]} {key[1]}")
        out[key] = _parse_value(path, lineno, row[3], require_positive=False)
    return out


def with_indicators(dataset: Dataset, indicators) -> Dataset:
    return Dataset.build(dataset.revenue, total=dataset.total, indicators=indicators)


def write_revenue_csv(dataset: Dataset, path) -> None:
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(REVENUE_HEADER)
        for geo in dataset.geos() + [TOTAL_ID]:
            for fq, value in dataset.series_for(geo).points():
                writer.writerow([geo, fq.year, fq.quarter, repr(value)])


def write_indicator_csv(indicators, path) -> None:
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(INDICATOR_HEADER)
        for (geo, ind), series in sorted(indicators.items()):
            for fq, value in series.points():
                writer.writerow([geo, ind, fq.year, fq.quarter, repr(value)])


def report_to_dict(report: EvaluationReport) -> dict:
    return {
        "schema_version": REPORT_SCHEMA_VERSION,
        "kind": "evaluation_report",
        "model": report.model,
        "geos": list(report.geos),
        "horizons": list(report.horizons),
        "metadata": report.metadata,
        "results": [
            {
                "geo": geo,
                "horizon": h,
                "mape": cell.mape,
                "details": [
                    {
                        "quarter": str(d.target),
                        "actual": d.actual,
                        "forecast": d.forecast,
                        "ape": d.ape,
                    }
                    for d in cell.details
                ],
            }
            for (geo, h), cell in sorted(report.cells.items())
        ],
    }


_NUMBER = (int, float)
_KIND_NAMES = {str: "a string", int: "an integer", _NUMBER: "a number", list: "a list", dict: "an object"}


def _field(doc: dict, key: str, where: str, kind):
    """doc[key]; a missing key or a value not of ``kind`` (a bool is not a number)
    raises SchemaMismatchError naming the field."""
    if key not in doc:
        raise SchemaMismatchError(f"{where} has no {key!r}")
    value = doc[key]
    if not isinstance(value, kind) or isinstance(value, bool):
        raise SchemaMismatchError(f"{where} field {key!r} must be {_KIND_NAMES[kind]}, got {value!r}")
    return value


def _objects(doc: dict, key: str, where: str) -> list:
    """doc[key] as a list of JSON objects; anything else raises SchemaMismatchError naming the field."""
    items = _field(doc, key, where, list)
    for k, item in enumerate(items):
        if not isinstance(item, dict):
            raise SchemaMismatchError(f"{where} field {key!r}[{k}] must be an object, got {item!r}")
    return items


def _is_document(doc, kind: str) -> bool:
    return isinstance(doc, dict) and doc.get("kind") == kind and doc.get("schema_version") == REPORT_SCHEMA_VERSION


def _distinct(doc: dict, key: str, ok, what: str) -> tuple:
    """doc[key] as a tuple of distinct items that pass ``ok``; else SchemaMismatchError naming the field."""
    items = _field(doc, key, "report", list)
    if not all(ok(item) for item in items) or len(set(items)) != len(items):
        raise SchemaMismatchError(f"report field {key!r} must be a list of distinct {what}, got {items!r}")
    return tuple(items)


def report_from_dict(doc: dict) -> EvaluationReport:
    """Inverse of ``report_to_dict``; a malformed document raises SchemaMismatchError naming the field."""
    if not _is_document(doc, "evaluation_report"):
        raise SchemaMismatchError("not a recognized evaluation report document")
    results = []
    for k, entry in enumerate(_objects(doc, "results", "report")):
        at = f"report 'results'[{k}]"
        details = []
        for j, d in enumerate(_objects(entry, "details", at)):
            where = f"{at} 'details'[{j}]"
            quarter = parse_quarter(_field(d, "quarter", where, str))
            values = (_field(d, key, where, _NUMBER) for key in ("actual", "forecast", "ape"))
            details.append(ApeDetail(quarter, *values))
        key = (_field(entry, "geo", at, str), _field(entry, "horizon", at, int))
        results.append((at, key, HorizonCell(mape=_field(entry, "mape", at, _NUMBER), details=tuple(details))))
    geos = _distinct(doc, "geos", lambda g: isinstance(g, str), "strings")
    horizons = _distinct(doc, "horizons", lambda h: type(h) is int and h >= 1, "integers >= 1")
    cells = {}
    for at, key, cell in results:
        for name, value, allowed in zip(("geo", "horizon"), key, (geos, horizons)):
            if value not in allowed:
                raise SchemaMismatchError(f"{at} field {name!r} is {value!r}, not one of the report's '{name}s'")
        if key in cells:
            raise SchemaMismatchError(f"{at} repeats the cell of geo {key[0]!r}, horizon {key[1]}")
        cells[key] = cell
    return EvaluationReport(
        model=_field(doc, "model", "report", str),
        geos=geos,
        horizons=horizons,
        cells=cells,
        metadata=_field(doc, "metadata", "report", dict),
    )


def table_to_dict(table: ComparisonTable) -> dict:
    return {
        "schema_version": REPORT_SCHEMA_VERSION,
        "kind": "comparison_table",
        "mode": table.mode,
        "row_labels": list(table.row_labels),
        "col_labels": list(table.col_labels),
        "cells": [list(row) for row in table.cells],
        "metadata": table.metadata,
    }


def table_from_dict(doc: dict) -> ComparisonTable:
    """Inverse of ``table_to_dict``; a malformed document raises SchemaMismatchError naming the field."""
    if not _is_document(doc, "comparison_table"):
        raise SchemaMismatchError("not a recognized comparison table document")
    rows = _field(doc, "cells", "table", list)
    for k, row in enumerate(rows):
        if not isinstance(row, list):
            raise SchemaMismatchError(f"table field 'cells'[{k}] must be a list, got {row!r}")
    return ComparisonTable(
        mode=_field(doc, "mode", "table", str),
        row_labels=tuple(_field(doc, "row_labels", "table", list)),
        col_labels=tuple(_field(doc, "col_labels", "table", list)),
        cells=tuple(tuple(row) for row in rows),
        metadata=_field(doc, "metadata", "table", dict),
    )


def _dump_json(doc: dict) -> str:
    return json.dumps(doc, sort_keys=True, indent=2) + "\n"


def _matrix_csv(obj) -> str:
    """A report's MAPEs (rows ``geo``) or a table's improvements (rows ``row``)
    as a CSV matrix of two-decimal values, with ``n/a`` for a missing cell."""
    if isinstance(obj, EvaluationReport):
        corner, labels, cols = "geo", obj.geos, [f"horizon_{h}" for h in obj.horizons]
        rows = [[obj.mape_for(geo, h) for h in obj.horizons] for geo in obj.geos]
    else:
        corner, labels, cols, rows = "row", obj.row_labels, obj.col_labels, obj.cells
    lines = [corner + "," + ",".join(cols)]
    for label, row in zip(labels, rows):
        lines.append(label + "," + ",".join("n/a" if v is None else f"{v:.2f}" for v in row))
    return "\n".join(lines) + "\n"


def write_report(obj, fmt: str, path) -> None:
    """Write a report or comparison table as json or csv."""
    if fmt not in REPORT_FORMATS:
        raise ValidationError(f"output format must be 'json' or 'csv', got {fmt!r}")
    if isinstance(obj, EvaluationReport):
        to_dict = report_to_dict
    elif isinstance(obj, ComparisonTable):
        to_dict = table_to_dict
    else:
        raise ValidationError(f"cannot serialize {type(obj).__name__}")
    text = _dump_json(to_dict(obj)) if fmt == "json" else _matrix_csv(obj)
    Path(path).write_text(text, encoding="utf-8")


def _read_document(path, from_dict):
    """from_dict of the JSON in the file; text that is not JSON, or a malformed
    document, raises SchemaMismatchError naming the path (and the field)."""
    try:
        return from_dict(json.loads(Path(path).read_text(encoding="utf-8")))
    except json.JSONDecodeError as exc:
        raise SchemaMismatchError(f"{path}: not JSON: {exc}") from None
    except ValidationError as exc:
        raise type(exc)(f"{path}: {exc}") from None


def read_report(path) -> EvaluationReport:
    return _read_document(path, report_from_dict)


def read_table(path) -> ComparisonTable:
    return _read_document(path, table_from_dict)
