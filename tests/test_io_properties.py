"""Properties of the CSV loaders and the config range parser."""

import tempfile
from pathlib import Path

import pytest
from hypothesis import given
from hypothesis import strategies as st

from quartercast import (
    TOTAL_ID,
    Dataset,
    FiscalQuarter,
    QuarterlySeries,
    ValidationError,
    load_indicator_csv,
    load_revenue_csv,
    write_indicator_csv,
    write_revenue_csv,
)
from quartercast.cli import _parse_range

# Ids with the characters CSV has to quote (comma, quotes) and non-ASCII
# letters; the loaders strip surrounding whitespace, so ids have none.
ids = st.text(alphabet="abcXYZ019_-.,'\" éü", min_size=1, max_size=8).filter(
    lambda s: s == s.strip() and s != TOTAL_ID
)
positive = st.floats(min_value=0.0, max_value=1e15, exclude_min=True, allow_nan=False)
quarters = st.builds(FiscalQuarter, st.integers(1, 9999), st.integers(1, 4))


def _round_trip(write, load, obj):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "data.csv"
        write(obj, path)
        return load(path)


@given(st.dictionaries(ids, st.lists(positive, min_size=1, max_size=10), min_size=1, max_size=3),
       quarters, st.integers(1, 10))
def test_revenue_csv_round_trip(columns, start, n):
    revenue = {geo: QuarterlySeries(geo, start, (values * n)[:n]) for geo, values in columns.items()}
    dataset = Dataset.build(revenue)
    loaded = _round_trip(write_revenue_csv, load_revenue_csv, dataset)
    assert loaded.geos() == dataset.geos()
    for geo in dataset.series_ids():
        assert loaded.series_for(geo) == dataset.series_for(geo)
    assert loaded.indicators == {}


@given(st.dictionaries(st.tuples(ids, ids), st.tuples(quarters, st.lists(positive, min_size=1, max_size=10)),
                       max_size=4))
def test_indicator_csv_round_trip(draws):
    indicators = {
        key: QuarterlySeries(key[0], start, values) for key, (start, values) in draws.items()
    }
    assert _round_trip(write_indicator_csv, load_indicator_csv, indicators) == indicators


json_values = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats(allow_nan=False) | st.text(max_size=8),
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(st.text(max_size=4), inner, max_size=3),
    max_leaves=8,
)
non_pairs = (json_values | st.tuples(json_values) | st.tuples(json_values, json_values, json_values)).filter(
    lambda v: not (isinstance(v, (list, tuple)) and len(v) == 2)
)


@given(non_pairs)
def test_parse_range_rejects_every_non_pair(value):
    with pytest.raises(ValidationError, match="'train_range' must be a \\[start, end\\] pair"):
        _parse_range({"train_range": value}, "train_range")


@given(quarters, quarters)
def test_parse_range_reads_a_pair_of_quarters(lo, hi):
    assert _parse_range({"test_range": [str(lo), str(hi)]}, "test_range") == (lo, hi)


def test_parse_range_missing_key():
    with pytest.raises(ValidationError, match="config is missing 'train_range'"):
        _parse_range({}, "train_range")
