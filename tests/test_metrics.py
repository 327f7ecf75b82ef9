import math
from typing import NamedTuple

import numpy as np
import pytest

from quartercast import (
    FiscalQuarter,
    QuarterlySeries,
    ValidationError,
    ape,
    mape,
    relative_improvement,
    yoy_growth,
)
from quartercast.metrics import lowest_aicc

START = FiscalQuarter(2009, 1)


class TestApe:
    def test_exact_forecast(self):
        assert ape(100.0, 100.0) == 0.0

    def test_ten_percent(self):
        assert ape(100.0, 90.0) == 10.0

    def test_hand_arithmetic(self):
        assert ape(200.0, 207.0) == pytest.approx(3.5, rel=1e-12)

    def test_zero_actual(self):
        with pytest.raises(ValidationError):
            ape(0.0, 5.0)

    def test_nonnegative_and_symmetric_zero(self):
        rng = np.random.default_rng(3)
        for _ in range(200):
            a = rng.uniform(-100, 100)
            if a == 0:
                continue
            f = rng.uniform(-100, 100)
            assert ape(a, f) >= 0.0
            assert ape(a, a) == 0.0


class TestMape:
    def test_all_exact(self):
        assert mape([(100.0, 100.0), (50.0, 50.0)]) == 0.0

    def test_symmetric_errors(self):
        assert mape([(100.0, 90.0), (100.0, 110.0)]) == 10.0

    def test_hand_mean(self):
        assert mape([(100.0, 95.0), (200.0, 210.0), (400.0, 420.0)]) == pytest.approx(5.0)

    def test_empty(self):
        with pytest.raises(ValidationError):
            mape([])

    def test_apes_add_left_to_right(self):
        # APEs of 1e16, 1 and 1: added in sequence each 1 is lost to rounding
        # (1e16 + 1 == 1e16), while a compensated sum (math.fsum, or sum()
        # from CPython 3.12) keeps both.
        pairs = [(1.0, 1e14 + 1.0), (100.0, 99.0), (100.0, 101.0)]
        apes = [ape(a, f) for a, f in pairs]
        assert apes == [1e16, 1.0, 1.0]
        assert mape(pairs) == (1e16 + 1.0 + 1.0) / 3
        assert mape(pairs) != math.fsum(apes) / 3

    def test_singleton_equals_ape(self):
        rng = np.random.default_rng(9)
        for _ in range(50):
            a, f = rng.uniform(1, 100), rng.uniform(1, 100)
            assert mape([(a, f)]) == ape(a, f)


class Fit(NamedTuple):
    name: str
    aicc: float


class TestLowestAicc:
    @staticmethod
    def none_fits():
        return LookupError("nothing fit")

    def test_tie_goes_to_the_earlier_candidate(self):
        first, second = Fit("first", 1.5), Fit("second", 1.5)
        assert lowest_aicc([["a", "b", "c"]], [Fit("worse", 2.0), first, second], self.none_fits) == [first]

    def test_errors_are_skipped(self):
        best = Fit("best", 3.0)
        fits = [ValueError("no fit"), Fit("worse", 4.0), best, ValueError("no fit")]
        assert lowest_aicc([range(4)], fits, self.none_fits) == [best]

    def test_a_job_with_no_fit_gets_none_fits(self):
        empty, all_errors = lowest_aicc([[], ["a", "b"]], [ValueError("x"), ValueError("y")], self.none_fits)
        assert isinstance(empty, LookupError) and isinstance(all_errors, LookupError)
        assert empty is not all_errors  # one call per job

    def test_jobs_of_different_sizes_take_their_fits_in_order(self):
        fits = [Fit("a1", 5.0), Fit("b1", 2.0), Fit("b2", 1.0), Fit("b3", 3.0), Fit("d1", 9.0), Fit("d2", -1.0)]
        selected = lowest_aicc([["a1"], ["b1", "b2", "b3"], [], ["d1", "d2"]], iter(fits), self.none_fits)
        assert [fit.name if isinstance(fit, Fit) else None for fit in selected] == ["a1", "b2", None, "d2"]


class TestRelativeImprovement:
    def test_hand_arithmetic(self):
        assert relative_improvement(4.0, 3.0) == 25.0

    def test_equal_errors(self):
        assert relative_improvement(2.0, 2.0) == 0.0

    def test_perfect_candidate(self):
        assert relative_improvement(1.0, 0.0) == 100.0

    def test_zero_baseline(self):
        with pytest.raises(ValidationError):
            relative_improvement(0.0, 1.0)

    def test_scale_invariance(self):
        rng = np.random.default_rng(4)
        for _ in range(100):
            x, y, c = rng.uniform(0.1, 10), rng.uniform(0.0, 10), rng.uniform(0.1, 50)
            assert relative_improvement(c * x, c * y) == pytest.approx(
                relative_improvement(x, y), rel=1e-12
            )


class TestYoyGrowth:
    def _series(self, values):
        return QuarterlySeries("s", START, values)

    def test_ten_percent_growth(self):
        s = self._series([100.0] * 4 + [110.0] * 4)
        assert yoy_growth(s, FiscalQuarter(2010, 1)) == pytest.approx(0.10)

    def test_no_growth(self):
        s = self._series([100.0] * 8)
        assert yoy_growth(s, FiscalQuarter(2010, 2)) == 0.0

    def test_negative_growth(self):
        s = self._series([100.0] * 4 + [75.0] * 4)
        assert yoy_growth(s, FiscalQuarter(2010, 3)) == pytest.approx(-0.25)

    def test_out_of_range(self):
        s = self._series([100.0] * 8)
        with pytest.raises(ValidationError):
            yoy_growth(s, FiscalQuarter(2009, 3))  # no prior-year quarter

    def test_zero_denominator(self):
        s = self._series([0.0] * 4 + [5.0] * 4)
        with pytest.raises(ValidationError):
            yoy_growth(s, FiscalQuarter(2010, 1))

    def test_unit_free(self):
        rng = np.random.default_rng(8)
        values = rng.uniform(50, 150, 12)
        s1 = self._series(values)
        s2 = self._series(values * 7.3)
        for q in [FiscalQuarter(2010, 1), FiscalQuarter(2011, 2)]:
            assert yoy_growth(s2, q) == pytest.approx(yoy_growth(s1, q), rel=1e-12)
