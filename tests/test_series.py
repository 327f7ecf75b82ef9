import pytest

from quartercast import (
    ContiguityError,
    Dataset,
    FiscalQuarter,
    InsufficientDataError,
    QuarterlySeries,
    TOTAL_ID,
    ValidationError,
)

START = FiscalQuarter(2009, 1)


def test_from_points_contiguity():
    pts = [(FiscalQuarter(2009, 1), 1.0), (FiscalQuarter(2009, 3), 2.0)]
    with pytest.raises(ContiguityError):
        QuarterlySeries.from_points("x", pts)


def test_values_immutable_and_hashable():
    s = QuarterlySeries("x", START, [1.0, 2.0])
    with pytest.raises(AttributeError):
        s.values = (3.0,)
    assert hash(s) == hash(QuarterlySeries("x", START, [1.0, 2.0]))


def test_window_and_truncate():
    s = QuarterlySeries("x", START, [float(i) for i in range(10)])
    w = s.window(FiscalQuarter(2010, 4), 4)
    assert w.values == (4.0, 5.0, 6.0, 7.0)
    assert w.start == FiscalQuarter(2010, 1)
    t = s.truncated(FiscalQuarter(2009, 3))
    assert t.values == (0.0, 1.0, 2.0)
    with pytest.raises(InsufficientDataError):
        s.window(FiscalQuarter(2009, 4), 8)
    with pytest.raises(InsufficientDataError):
        s.window(FiscalQuarter(2020, 1), 2)


def test_value_lookup():
    s = QuarterlySeries("x", START, [5.0, 6.0, 7.0])
    assert s.value_at(FiscalQuarter(2009, 2)) == 6.0
    assert FiscalQuarter(2009, 3) in s
    assert FiscalQuarter(2010, 1) not in s


def test_non_finite_rejected():
    with pytest.raises(ValidationError):
        QuarterlySeries("x", START, [1.0, float("nan")])


class TestDataset:
    def _revenue(self, n=8):
        return {
            "A": QuarterlySeries("A", START, [10.0] * n),
            "B": QuarterlySeries("B", START, [20.0] * n),
        }

    def test_total_recomputed(self):
        ds = Dataset.build(self._revenue())
        assert ds.total.values == (30.0,) * 8
        assert ds.series_ids() == ["A", "B", TOTAL_ID]

    def test_supplied_total_validated(self):
        good = QuarterlySeries(TOTAL_ID, START, [30.0] * 8)
        Dataset.build(self._revenue(), total=good)
        bad = QuarterlySeries(TOTAL_ID, START, [30.0 + 3e-5] + [30.0] * 7)
        with pytest.raises(ValidationError):
            Dataset.build(self._revenue(), total=bad)

    def test_total_tolerance_boundary(self):
        # within 1e-9 relative passes, 1e-6 relative fails
        near = QuarterlySeries(TOTAL_ID, START, [30.0 * (1 + 1e-10)] + [30.0] * 7)
        Dataset.build(self._revenue(), total=near)
        off = QuarterlySeries(TOTAL_ID, START, [30.0 * (1 + 1e-6)] + [30.0] * 7)
        with pytest.raises(ValidationError):
            Dataset.build(self._revenue(), total=off)

    def test_mismatched_ranges_rejected(self):
        revenue = self._revenue()
        revenue["C"] = QuarterlySeries("C", START, [5.0] * 4)
        with pytest.raises(ValidationError):
            Dataset.build(revenue)

    def test_positivity_enforced(self):
        revenue = self._revenue()
        revenue["A"] = QuarterlySeries("A", START, [10.0] * 7 + [-1.0])
        with pytest.raises(ValidationError):
            Dataset.build(revenue)

    def test_series_for_and_unknown(self):
        ds = Dataset.build(self._revenue())
        assert ds.series_for("A").values == (10.0,) * 8
        assert ds.series_for(TOTAL_ID) is ds.total
        with pytest.raises(ValidationError):
            ds.series_for("Z")

    def test_reserved_total_id(self):
        revenue = self._revenue()
        revenue[TOTAL_ID] = QuarterlySeries(TOTAL_ID, START, [1.0] * 8)
        with pytest.raises(ValidationError):
            Dataset.build(revenue)


def test_pickle_round_trip_keeps_values_and_guards():
    import pickle

    s = QuarterlySeries("x", START, [1.5, -0.0, 2.25])
    back = pickle.loads(pickle.dumps(s))
    assert back == s and back.values == s.values
    with pytest.raises(AttributeError):
        back.values = (3.0,)
    a = QuarterlySeries("A", START, [1.0, 2.0, 3.0, 4.0])
    ind = QuarterlySeries("ind", START, [5.0, 6.0, 7.0, 8.0])
    ds = Dataset.build({"A": a}, indicators={("A", "ind"): ind})
    ds_back = pickle.loads(pickle.dumps(ds))
    assert ds_back.revenue == ds.revenue
    assert ds_back.total == ds.total
    assert ds_back.indicators == ds.indicators
    with pytest.raises(AttributeError):
        ds_back.total = a
