"""The ETS and ARIMA objectives at every batch width their code treats
differently, against the scalar oracles, bit for bit.

The squared errors of both objectives are folded by
``_optim._column_sums``, which switches from one ``np.add.accumulate``
call to a row-by-row loop above ``_ACCUMULATE_COLUMNS`` columns.  Each
objective is checked at one row, on both sides of that rule and at 2,048
rows (four trial points of 512 searches), on series of mixed lengths,
with points whose squared errors overflow and points outside the
parameter box by an infinite distance.
"""

import struct

import numpy as np
import pytest

import arima_oracle
import ets_oracle
from quartercast import FiscalQuarter, QuarterlySeries, _optim, arima
from quartercast.ets import _LEVEL, _N_COLUMNS, _prepare, _SseObjective, spec_grid

START = FiscalQuarter(2009, 1)
RULE = _optim._ACCUMULATE_COLUMNS
WIDTHS = [1, RULE - 1, RULE, RULE + 1, 2048]


def bits(values):
    return [struct.pack("<d", float(v)) for v in values]


def series(seed, n, scale=1.0):
    rng = np.random.default_rng(seed)
    y = 50 + np.cumsum(rng.standard_normal(n)) + np.tile([3.0, 0.0, -3.0, 1.0], 7)[:n]
    return QuarterlySeries(f"s{seed}", START, y * scale)


@pytest.mark.parametrize("width", WIDTHS)
def test_column_sums_is_a_left_fold(width):
    """Both sides of the width rule add each column's rows in sequence, as
    Python's loop does.  Eight draws, so that a one-column batch, whose
    sum in another order often rounds the same, still shows an order."""
    rng = np.random.default_rng(width)
    for _ in range(8):
        # Squares of a similar size, whose sum rounds differently in
        # another order, with a few huge and tiny ones, zeros and an infinity.
        E = rng.uniform(0.0, 1.0, (16, width)) ** 2
        draw = rng.random((16, width))
        E[draw < 0.02] *= 1e300
        E[(0.02 <= draw) & (draw < 0.04)] *= 1e-300
        E[(0.04 <= draw) & (draw < 0.09)] = 0.0
        E[(0.09 <= draw) & (draw < 0.10)] = np.inf
        expected = []
        for column in E.T.tolist():
            total = 0.0
            for value in column:
                total += value
            expected.append(total)
        assert bits(_optim._column_sums(E)) == bits(expected)


def ets_oracle_value(job, point):
    """fit_ets's scalar objective in ``tests/ets_oracle.py`` at the raw vector in point's searched columns."""
    raw = [float(v) for v in point[job.cols]]
    spec, fixed = job.spec, job.fixed_alpha
    params = ets_oracle._clip_params(spec, raw, fixed)
    sse = ets_oracle._run_recursion(job.z.tolist(), spec, *params)[0]
    alpha, beta, gamma, phi = params[:4]
    searched = ([alpha] if fixed is None else []) + [v for v in (beta, phi, gamma) if v is not None]
    drift = 0.0
    for value, clipped in zip(raw, searched):
        drift += (value - clipped) ** 2
    return sse * (1.0 + drift) + drift


def ets_points(jobs, members, rng):
    """A point per member: mostly near the box, some whose squared errors
    overflow (a huge level) and some outside the box by an infinite
    distance (an infinite parameter)."""
    X = np.zeros((members.size, _N_COLUMNS))
    for k, (row, i) in enumerate(zip(X, members.tolist())):
        cols = jobs[i].cols
        row[cols] = rng.uniform(-0.3, 1.2, len(cols))
        if k % 7 == 3:
            row[_LEVEL] = 1e200
        elif k % 11 == 5:
            row[cols[0]] = -np.inf if k % 2 else np.inf
    return X


@pytest.mark.parametrize("width", WIDTHS)
def test_ets_objective_matches_the_oracle_at_every_width(width):
    """14- and 16-quarter series, every spec, free and fixed alpha, in one objective."""
    jobs = [
        _prepare(series(seed, n), spec, fixed)
        for seed, n in ((1, 14), (2, 16))
        for spec in spec_grid()
        for fixed in (None, 0.5)
    ]
    rng = np.random.default_rng(100 + width)
    members = rng.integers(0, len(jobs), width).astype(np.intp)
    X = ets_points(jobs, members, rng)
    values = _SseObjective(jobs)(members, X)
    expected = [ets_oracle_value(jobs[i], x) for i, x in zip(members.tolist(), X)]
    assert bits(values) == bits(expected)
    if width >= 7:
        assert np.isinf(values).any()


def arima_members(lengths, scale=1.0):
    """(diffs, orders) of every order with coefficients of series of the given lengths."""
    grid = [order for order in arima.order_grid() if order.n_coeffs]
    diffs, orders = [], []
    for k, n in enumerate(lengths):
        s = series(200 + k, n, scale)
        for order, diffed in zip(grid, arima._prepare(s, grid)):
            if not isinstance(diffed, Exception):
                diffs.append(diffed)
                orders.append(order)
    return diffs, orders


def arima_oracle_value(order, diffed, x):
    """fit_arima's scalar CSS objective in ``tests/arima_oracle.py`` at the six-slot vector x, with its residuals."""
    phi, theta, sphi, stheta = arima_oracle._split_params(x[arima._slots(order)].tolist(), order)
    if not arima_oracle._admissible(phi, theta, sphi, stheta):
        return np.inf, None
    ar, ma = arima_oracle._combined_polys(phi, theta, sphi, stheta, order.s)
    e = arima_oracle._residuals_from_polys(diffed.z, ar, ma)
    return arima_oracle._sum_of_squares(e) / diffed.denom, e


@pytest.mark.parametrize("width", WIDTHS)
@pytest.mark.parametrize("lengths, scale", [((14, 16, 20, 24), 1.0), ((16, 24), 1e153)])
def test_css_objective_matches_the_oracle_at_every_width(width, lengths, scale):
    """Series of 14 to 24 quarters, differenced to ragged lengths, in one
    objective, and series large enough that some residuals' squares
    overflow; the residuals of the admissible rows too."""
    rng = np.random.default_rng(300 + width)
    diffs, orders = arima_members(lengths, scale)
    objective = arima._CssObjective(diffs)
    members = rng.integers(0, len(diffs), width).astype(np.intp)
    X = np.zeros((width, 6))
    for row, i in zip(X, members.tolist()):
        slots = arima._slots(orders[i])
        row[slots] = rng.uniform(-1.1, 1.1, len(slots))
    values = objective(members, X)
    expected = [arima_oracle_value(orders[i], diffs[i], x) for i, x in zip(members.tolist(), X)]
    assert bits(values) == bits([value for value, _ in expected])
    ok = np.flatnonzero([e is not None for _, e in expected])
    residuals = objective.residuals(members[ok], X[ok])
    for row, k in zip(residuals, ok.tolist()):
        e = expected[k][1]
        assert bits(row[row.size - len(e) :]) == bits(e)
    if scale > 1.0 and width > 1:
        assert np.isinf(values[ok]).any()
