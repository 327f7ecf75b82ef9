import pytest
from hypothesis import assume, given
from hypothesis import strategies as st

from quartercast import (
    CalendarUnderflowError,
    FiscalQuarter,
    ValidationError,
    parse_quarter,
    quarter_add,
    quarter_diff,
    quarter_range,
)


def test_year_rollover():
    assert quarter_add(FiscalQuarter(2014, 4), 1) == FiscalQuarter(2015, 1)


def test_identity():
    assert quarter_add(FiscalQuarter(2015, 2), 0) == FiscalQuarter(2015, 2)


def test_full_year_back():
    assert quarter_add(FiscalQuarter(2015, 1), -4) == FiscalQuarter(2014, 1)


def test_underflow():
    with pytest.raises(CalendarUnderflowError):
        quarter_add(FiscalQuarter(1, 1), -1)


def test_quarter_validation():
    with pytest.raises(ValidationError):
        FiscalQuarter(2015, 5)
    with pytest.raises(ValidationError):
        FiscalQuarter(0, 1)


def test_ordering():
    assert FiscalQuarter(2014, 4) < FiscalQuarter(2015, 1)
    assert FiscalQuarter(2015, 1) < FiscalQuarter(2015, 2)
    assert not FiscalQuarter(2015, 2) < FiscalQuarter(2015, 2)


@pytest.mark.parametrize("k", [-9, -4, -1, 0, 1, 3, 8, 17])
def test_add_then_subtract_roundtrip(k):
    fq = FiscalQuarter(2012, 3)
    assert quarter_add(quarter_add(fq, k), -k) == fq


@pytest.mark.parametrize("a,b", [(1, 2), (-3, 5), (7, -2), (0, 0), (-1, -1)])
def test_group_action(a, b):
    fq = FiscalQuarter(2010, 2)
    assert quarter_add(quarter_add(fq, a), b) == quarter_add(fq, a + b)


def test_diff_inverts_add():
    a, b = FiscalQuarter(2013, 2), FiscalQuarter(2011, 4)
    assert quarter_diff(a, b) == 6
    assert quarter_add(b, 6) == a


def test_parse_and_str():
    assert parse_quarter("2015Q3") == FiscalQuarter(2015, 3)
    assert parse_quarter("FY2015Q3") == FiscalQuarter(2015, 3)
    assert str(FiscalQuarter(2015, 3)) == "2015Q3"
    with pytest.raises(ValidationError):
        parse_quarter("2015-03")


def test_quarter_range():
    qs = quarter_range(FiscalQuarter(2014, 3), FiscalQuarter(2015, 2))
    assert qs == [
        FiscalQuarter(2014, 3),
        FiscalQuarter(2014, 4),
        FiscalQuarter(2015, 1),
        FiscalQuarter(2015, 2),
    ]
    with pytest.raises(ValidationError):
        quarter_range(FiscalQuarter(2015, 2), FiscalQuarter(2014, 3))


# The parser reads years of up to six digits.
quarters = st.builds(FiscalQuarter, st.integers(1, 999_999), st.integers(1, 4))


@given(quarters, st.integers(-10**6, 10**6))
def test_diff_inverts_add_everywhere(q, k):
    assume(q.index + k >= FiscalQuarter(1, 1).index)
    assert quarter_diff(quarter_add(q, k), q) == k


@given(quarters)
def test_parse_inverts_str(q):
    assert parse_quarter(str(q)) == q
    assert parse_quarter(f"FY{q}") == q


@given(quarters, st.integers(0, 200))
def test_range_is_consecutive(start, d):
    end = quarter_add(start, d)
    qs = quarter_range(start, end)
    assert len(qs) == quarter_diff(end, start) + 1
    assert qs[0] == start and qs[-1] == end
    assert all(quarter_diff(b, a) == 1 for a, b in zip(qs, qs[1:]))


@given(quarters, st.integers(1, 10**6))
def test_underflow_below_year_one(q, j):
    with pytest.raises(CalendarUnderflowError):
        quarter_add(q, FiscalQuarter(1, 1).index - q.index - j)  # j quarters before 1Q1
