"""Seasonal ARIMA estimated by conditional sum of squares.

The estimator is deliberately lightweight: difference the series, subtract
the sample mean when no differencing is applied, and minimize the sum of
squared one-step residuals with a Nelder-Mead search started from a zero
coefficient vector.  Order selection is an exhaustive grid search over a
small seasonal grid: the lowest AICc wins (``metrics.lowest_aicc``).
Every order of every series in one call is searched in a single lockstep
run (``_FitPlan``, where a job is one series' selection), and its
residuals come from the recursion the objective runs, with the bits of the
scalar fits that ``tests/arima_oracle.py`` keeps; ``fit_arima`` is a
one-order job, and ``features.fit_windows`` selects the orders of its
windows with one ``auto_select_many`` call.

Conventions: the AR polynomial is 1 - phi_1 B - ... and the MA polynomial
is 1 + theta_1 B + ... (R/statsmodels sign convention); the seasonal
factors multiply the nonseasonal ones.  Pre-sample values of the centered
differenced series and of the shocks are conditioned to zero, so the
residual count always equals the differenced length.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import _optim
from ._optim import nelder_mead  # noqa: F401  perfbench/selftest.py reads arima.nelder_mead
from .errors import InsufficientDataError, NonconvergenceError, ValidationError
from .metrics import aicc, lowest_aicc
from .series import QuarterlySeries

SEASONAL_PERIOD = 4
MAX_FORECAST_STEPS = 8

# Bounds of the order grid; 14-16 quarterly observations cannot support more.
MAX_P, MAX_D, MAX_Q = 2, 1, 2
MAX_SP, MAX_SD, MAX_SQ = 1, 1, 1

_MAX_ITER = 500
_CSS_TOL = 1e-8

# Shrinks an AICc floor's variance ratio, so that np.log's rounding cannot
# lift the floor above a fit's AICc (see _aicc_floor).  Not a setting.
_FLOOR_SHRINK = 1.0 - 1e-9


@dataclass(frozen=True)
class ArimaOrder:
    """(p,d,q)(P,D,Q) with seasonal period 4."""

    p: int
    d: int
    q: int
    P: int = 0
    D: int = 0
    Q: int = 0
    s: int = SEASONAL_PERIOD

    def __post_init__(self):
        for name, value, bound in (
            ("p", self.p, MAX_P),
            ("d", self.d, MAX_D),
            ("q", self.q, MAX_Q),
            ("P", self.P, MAX_SP),
            ("D", self.D, MAX_SD),
            ("Q", self.Q, MAX_SQ),
        ):
            if not 0 <= value <= bound:
                raise ValidationError(f"order {name}={value} outside 0..{bound}")
        if self.s != SEASONAL_PERIOD:
            raise ValidationError(f"seasonal period must be {SEASONAL_PERIOD}, got {self.s}")

    @property
    def n_coeffs(self) -> int:
        return self.p + self.q + self.P + self.Q

    @property
    def has_intercept(self) -> bool:
        return self.d + self.D == 0

    @property
    def n_free_params(self) -> int:
        return self.n_coeffs + (1 if self.has_intercept else 0)

    def __str__(self) -> str:
        return f"({self.p},{self.d},{self.q})({self.P},{self.D},{self.Q})[{self.s}]"


@dataclass(frozen=True)
class ArimaFit:
    """A fitted model plus everything needed to forecast from it."""

    order: ArimaOrder
    ar_coeffs: tuple[float, ...]
    ma_coeffs: tuple[float, ...]
    seasonal_ar: tuple[float, ...]
    seasonal_ma: tuple[float, ...]
    intercept: float | None
    sigma2: float
    aicc: float
    training_series: QuarterlySeries
    residuals: tuple[float, ...]


def _chain(y, d: int, D: int, s: int):
    """The lags of d first differences then D seasonal ones, and [y, y differenced at the first lag, ...]."""
    lags = [1] * d + [s] * D
    chain = [y]
    for lag in lags:
        chain.append(chain[-1][lag:] - chain[-1][:-lag])
    return lags, chain


def difference(values, d: int, D: int, s: int = SEASONAL_PERIOD) -> np.ndarray:
    """Apply d first differences, then D seasonal (lag-s) differences."""
    out = np.asarray(values, dtype=float)
    if len(out) <= d + s * D:
        raise InsufficientDataError(
            f"need more than {d + s * D} points to difference, have {len(out)}"
        )
    return _chain(out, d, D, s)[1][-1]


def _combined_polys(phi, theta, sphi, stheta, s: int):
    """Multiply nonseasonal and seasonal factors into single lag polynomials.

    With at most two nonseasonal and one seasonal coefficient per side the
    products are written out directly; no polynomial convolution needed.
    """
    ar = [1.0] + [-float(v) for v in phi]
    if len(sphi):
        sp = float(sphi[0])
        ar = ar + [0.0] * (s + 1 - len(ar))
        ar[s] -= sp
        for v in phi:
            ar.append(float(v) * sp)
    ma = [1.0] + [float(v) for v in theta]
    if len(stheta):
        st = float(stheta[0])
        ma = ma + [0.0] * (s + 1 - len(ma))
        ma[s] += st
        for v in theta:
            ma.append(float(v) * st)
    return ar, ma


@dataclass
class _Differenced:
    """One series differenced at one (d, D): the centered values the CSS fits."""

    z: list
    intercept: float | None
    denom: float


def _sum_of_squares(values) -> float:
    """The squares added left to right from 0.0, as ``sum`` does before
    CPython 3.12 (from 3.12 it compensates, which rounds differently)."""
    total = 0.0
    for v in values:
        total += v * v
    return total


def _difference_once(y, d: int, D: int, s: int):
    """The _Differenced of y at (d, D), or the InsufficientDataError differencing raises."""
    try:
        w = difference(y, d, D, s)
    except InsufficientDataError as exc:
        return exc
    intercept = float(np.mean(w)) if d + D == 0 else None
    z = (w - intercept if intercept is not None else w).tolist()
    scale = _sum_of_squares(z)
    # A scale that is not finite (the squares overflow) stays so: _FitPlan rejects those fits.
    return _Differenced(z, intercept, 1.0 if scale == 0.0 else scale)


def _slots(order: ArimaOrder) -> list[int]:
    """Where each of the order's coefficients sits in the kernel's fixed layout
    (phi_1, phi_2, theta_1, theta_2, Phi_1, Theta_1)."""
    return [0, 1][: order.p] + [2, 3][: order.q] + [4][: order.P] + [5][: order.Q]


def _admissible_mask(c) -> np.ndarray:
    """Which columns of c = (phi_1, phi_2, theta_1, theta_2, Phi_1, Theta_1) are admissible.

    Admissible means every factor's roots lie outside the unit circle.  For
    1 - phi_1 B - phi_2 B^2 that is the triangle |phi_2| < 1, phi_1 + phi_2 < 1,
    phi_2 - phi_1 < 1; an MA factor 1 + theta_1 B + theta_2 B^2 passes when
    (-theta_1, -theta_2) does.  A coefficient the order lacks is +0.0, which
    reduces a factor's test to |coefficient| < 1 (or to True).
    """
    p1, p2, t1, t2, sp, st = c
    q1, q2 = -t1, -t2
    return (
        (np.abs(p2) < 1.0) & (p1 + p2 < 1.0) & (p2 - p1 < 1.0)
        & (np.abs(q2) < 1.0) & (q1 + q2 < 1.0) & (q2 - q1 < 1.0)
        & (np.abs(sp) < 1.0) & (np.abs(-st) < 1.0)
    )


# Deepest lag of the combined polynomials: p + s*P = 2 + 4.  Lag 3 always
# has a zero coefficient (p, q <= 2): the AR filter skips it and the MA
# recursion keeps a row of zeros for it.
_LAGS = 6


class _CssObjective:
    """The CSS objective of a batch of (differenced series, order) members, in numpy.

    Each member's centered differenced series is front-padded with zeros to
    the batch's longest, plus _LAGS more: exactly the zero pre-sample
    conditioning of the scalar fit in ``tests/arima_oracle.py``.  Lag
    coefficients are built with the expressions of its _combined_polys
    and the residual recursion adds and subtracts lag terms in the same
    order.  Terms the scalar code omits (pre-sample lags, lags beyond the
    order) are products with a zero factor here; adding such a +-0.0
    changes at most the sign of a -0.0, which needs a -0.0 in the
    differenced series (a QuarterlySeries holds none).  So while they stay
    finite, every residual, and the sequentially summed CSS, has the
    scalar fit's bits.
    """

    def __init__(self, diffs: list):
        groups: dict[int, int] = {}
        columns = []
        for diffed in diffs:
            if id(diffed) not in groups:
                groups[id(diffed)] = len(columns)
                columns.append(diffed.z)
        self.T = max(len(z) for z in columns)
        self.Z = np.zeros((_LAGS + self.T, len(columns)))
        for g, z in enumerate(columns):
            self.Z[_LAGS + self.T - len(z) :, g] = z
        self.group = np.asarray([groups[id(diffed)] for diffed in diffs], dtype=np.intp)
        self.denom = np.asarray([diffed.denom for diffed in diffs])

    def __call__(self, members, X) -> np.ndarray:
        # Overflow and inf - inf pass silently, as in Python float arithmetic.
        with np.errstate(over="ignore", invalid="ignore"):
            return self._values(members, X)

    def residuals(self, members, X) -> np.ndarray:
        """Each member's residuals at its row of X (admissible), front-padded to the batch's length."""
        with np.errstate(over="ignore", invalid="ignore"):
            return self._residuals(members, X.T).T

    def _values(self, members, X) -> np.ndarray:
        K = len(members)
        c = X.T
        out = np.full(K, np.inf)
        ok = np.nonzero(_admissible_mask(c))[0]
        if ok.size == 0:
            return out
        if ok.size < K:
            c = c[:, ok]
            members = members[ok]
        e = self._residuals(members, c)
        # The CSS adds the squares in sequence, as the scalar sum does:
        # accumulate is a left fold at every batch size, while np.add.reduce
        # adds a one-row batch (as a shrink step often scores) pairwise from
        # 8 quarters on.
        np.multiply(e, e, out=e)
        out[ok] = np.add.accumulate(e, axis=0)[-1] / self.denom[members]
        return out

    def _residuals(self, members, c) -> np.ndarray:
        """The residuals (rows, front-padded with zeros) of the members at the coefficient columns c."""
        p1, p2, t1, t2, sp, st = c
        ar = ((-p1, 1), (-p2, 2), (0.0 - sp, 4), (p1 * sp, 5), (p2 * sp, 6))
        n, T, L = len(members), self.T, _LAGS
        # MA coefficients of lags 1..6, one row each (lag 3 stays zero).
        ma = np.zeros((L, n))
        ma[0], ma[1], ma[3], ma[4], ma[5] = t1, t2, 0.0 + st, t1 * st, t2 * st

        Zp = self.Z[:, self.group[members]]
        E = np.empty((L + T, n))
        tmp = np.empty((T, n))
        E[:L] = 0.0
        x = E[L:]
        x[...] = Zp[L:]
        for coef, lag in ar:
            np.multiply(coef, Zp[L - lag : L - lag + T], out=tmp)
            np.add(x, tmp, out=x)
        # e_t = x_t - ma_1 e_{t-1} - ... - ma_6 e_{t-6}: the subtraction
        # reduce over the stacked rows is a left fold, in lag order.
        terms = np.empty((1 + L, n))
        for t in range(L, L + T):
            terms[0] = E[t]
            np.multiply(ma, E[t - L : t][::-1], out=terms[1:])
            np.subtract.reduce(terms, axis=0, out=E[t])
        return x


def _aicc_floor(order: ArimaOrder, diffed: _Differenced) -> float:
    """A value that no CSS fit of order (with coefficients) to diffed has an AICc below.

    With zero pre-sample values, the first residual is z[0] whatever the
    coefficients, and when p = q = 0 so are the first s (the first nonzero
    lag is s): the lags before it have coefficient +0.0, which moves a
    finite value at most by the sign of a zero.  The CSS adds the squares
    in sequence, and a float sum of non-negative terms never falls below
    its prefix, so the CSS is at least this head sum.  Dividing by n_res,
    metrics.aicc's floor, the multiplication by n_res and the added
    penalty are monotone.  np.log is not promised to be: it is within a
    few ulps of the exact logarithm, under 1e-12 as |log x| < 750 for any
    float, and the head's ratio is shrunk by _FLOOR_SHRINK first, which
    lowers its exact logarithm by about 1e-9.  So the AICc _build_fit
    gives any such fit is at least this floor.
    """
    z = diffed.z
    head = _sum_of_squares(z[: order.s if order.p == order.q == 0 else 1])
    return aicc(head, len(z), order.n_free_params + 1, _FLOOR_SHRINK)


def _build_fit(series: QuarterlySeries, order: ArimaOrder, diffed: _Differenced, e: list, x=()) -> ArimaFit:
    """The fit of order to diffed with residuals e, at the six-slot coefficient vector x (a list)."""
    n_res = len(e)
    css = _sum_of_squares(e)
    return ArimaFit(
        order=order,
        ar_coeffs=tuple(x[: order.p]),
        ma_coeffs=tuple(x[2 : 2 + order.q]),
        seasonal_ar=tuple(x[4 : 4 + order.P]),
        seasonal_ma=tuple(x[5 : 5 + order.Q]),
        intercept=diffed.intercept,
        sigma2=css / n_res,
        aicc=aicc(css, n_res, order.n_free_params + 1),
        training_series=series,
        residuals=tuple(e),
    )


def _prepare(series: QuarterlySeries, orders) -> list:
    """Per order, the _Differenced its CSS fits, or the error its fit raises before any search.

    The series is differenced once per (d, D).
    """
    y = series.to_array()
    differenced: dict = {}
    prepared = []
    for order in orders:
        if (order.d, order.D) not in differenced:
            differenced[order.d, order.D] = _difference_once(y, order.d, order.D, order.s)
        diffed = differenced[order.d, order.D]
        if not isinstance(diffed, Exception):
            n_res = len(diffed.z)
            if n_res < order.n_free_params + 3:
                diffed = InsufficientDataError(
                    f"order {order}: differenced length {n_res} < {order.n_free_params + 3}"
                )
            elif order.n_coeffs and not np.isfinite(diffed.denom):
                diffed = NonconvergenceError(
                    f"order {order}: the sum of squares of the differenced series overflows"
                )
        prepared.append(diffed)
    return prepared


def _candidates(series, orders, prepared):
    """The orders of one job that can still win, with what _prepare gave for each.

    The orders without coefficients, one per (d, D), need no search: best
    is the lowest of their AICcs, from the _build_fit call fits() makes
    (inf when the job has none).  An order with coefficients whose
    _aicc_floor is strictly above best has an AICc strictly above it, so
    it can neither win nor tie (a tie goes to the earlier order) and is
    not searched.  Orders whose fit fails before any search stay, to give
    their errors.  So a one-order job keeps its order.
    """
    best = min(
        (
            _build_fit(series, order, diffed, diffed.z).aicc
            for order, diffed in zip(orders, prepared)
            if not order.n_coeffs and not isinstance(diffed, Exception)
        ),
        default=np.inf,
    )
    kept = [
        (order, diffed)
        for order, diffed in zip(orders, prepared)
        if not order.n_coeffs or isinstance(diffed, Exception) or _aicc_floor(order, diffed) <= best
    ]
    return [order for order, _ in kept], [diffed for _, diffed in kept]


class _FitPlan:
    """Every (series, orders) job, each one selection, as the members of a lockstep run.

    Each series is differenced once per (d, D), and a job keeps only the
    orders that can win its selection (_candidates).  Member i fits
    orders[i] (at least one coefficient) to diffs[i], in the kernel's
    fixed six-slot layout with the slots its order lacks held at zero;
    every simplex operation is per coordinate, so the layout does not
    change a bit.  A search starts from the zero vector with a 0.2 step
    per axis.  The zero vector is admissible and scores the series' sum of
    squares over itself, a finite value, and a simplex's best value never
    rises, so every search ends finite; a series whose sum of squares
    overflows has its fits with coefficients rejected up front.
    """

    def __init__(self, jobs):
        self.jobs, self.prepared = [], []
        diffs, self.orders = [], []
        for series, job_orders in jobs:
            job_orders, prepared = _candidates(series, job_orders, _prepare(series, job_orders))
            self.jobs.append((series, job_orders))
            self.prepared += prepared
            for order, diffed in zip(job_orders, prepared):
                if order.n_coeffs and not isinstance(diffed, Exception):
                    diffs.append(diffed)
                    self.orders.append(order)
        self.slots = [_slots(order) for order in self.orders]
        self.dims = np.asarray([len(s) for s in self.slots], dtype=np.intp)
        self.objective = _CssObjective(diffs) if diffs else None

    def start(self, members):
        simplexes = []
        for i in members.tolist():
            order_slots = self.slots[i]
            simplex = np.zeros((len(order_slots) + 1, 6))
            simplex[np.arange(1, len(order_slots) + 1), order_slots] = 0.2
            simplexes.append(simplex)
        return simplexes

    def fits(self):
        """Each kept order's ArimaFit or error, jobs in order and orders in order, from one run.

        A generator, so that a caller that keeps only some fits never
        holds them all; the run, and one residuals call for every member
        with a finite answer, start when the first fit is asked for.
        The errors are those a one-order fit raises:
        InsufficientDataError when the differenced series is shorter than
        the free parameter count plus three, and NonconvergenceError when
        its sum of squares overflows or the optimizer finds no admissible
        coefficient vector.
        """
        best_x, best_f, _ = _optim.nelder_mead_batch(
            self.objective, self.start, self.dims, _MAX_ITER, 1e-3, _CSS_TOL, width=_optim.BATCH_WIDTH
        )
        solved = np.isfinite(best_f)
        found = np.flatnonzero(solved)
        residuals = iter(self.objective.residuals(found, best_x[found]) if found.size else ())
        answers = (x if ok else None for x, ok in zip(best_x, solved.tolist()))
        tasks = ((series, order) for series, job_orders in self.jobs for order in job_orders)
        for (series, order), diffed in zip(tasks, self.prepared):
            if isinstance(diffed, Exception):
                yield diffed
            elif not order.n_coeffs:
                yield _build_fit(series, order, diffed, diffed.z)
            elif (x := next(answers)) is None:
                yield NonconvergenceError(f"order {order}: optimizer found no admissible point")
            else:
                e = next(residuals)[-len(diffed.z) :]
                yield _build_fit(series, order, diffed, e.tolist(), x.tolist())


def fit_arima(series: QuarterlySeries, order: ArimaOrder) -> ArimaFit:
    """Estimate the given order on the series by minimizing the CSS.

    Raises InsufficientDataError when the differenced series is shorter
    than the free parameter count plus three, and NonconvergenceError when
    its sum of squares overflows or the optimizer cannot find an
    admissible coefficient vector.
    """
    (fit,) = _FitPlan([(series, [order])]).fits()
    if isinstance(fit, Exception):
        raise fit
    return fit


def order_grid() -> list[ArimaOrder]:
    """Every candidate order, in the lexicographic tie-break order."""
    grid = []
    for p in range(MAX_P + 1):
        for d in range(MAX_D + 1):
            for q in range(MAX_Q + 1):
                for P in range(MAX_SP + 1):
                    for D in range(MAX_SD + 1):
                        for Q in range(MAX_SQ + 1):
                            grid.append(ArimaOrder(p, d, q, P, D, Q))
    return grid


def auto_select_many(series_list) -> list:
    """Select the order grid of every series, all searched in one lockstep run.

    Returns, per series, the lowest-AICc converged fit, or the exception
    auto_select raises for it (InsufficientDataError below 10 points,
    NonconvergenceError when no order converged).  Orders whose data is
    insufficient after differencing are skipped; ties resolve to the
    earlier order in (p,d,q,P,D,Q) lexicographic order.  Orders that
    provably lose are not searched (_candidates), so the selection is
    that of the whole grid.
    """
    grid = order_grid()
    short = [
        InsufficientDataError(f"auto selection needs >= 10 points, have {len(s)}") if len(s) < 10 else None
        for s in series_list
    ]
    plan = _FitPlan((s, grid) for s, error in zip(series_list, short) if error is None)
    selected = iter(lowest_aicc(
        [orders for _, orders in plan.jobs], plan.fits(),
        lambda: NonconvergenceError("no ARIMA candidate converged on this series"),
    ))
    return [next(selected) if error is None else error for error in short]


def auto_select(series: QuarterlySeries) -> ArimaFit:
    """Fit the whole order grid and return the lowest-AICc converged fit."""
    (fit,) = auto_select_many([series])
    if isinstance(fit, Exception):
        raise fit
    return fit


def forecast_arima(fit: ArimaFit, h: int) -> np.ndarray:
    """Recursive point forecasts h steps ahead on the original scale."""
    if not 1 <= h <= MAX_FORECAST_STEPS:
        raise ValidationError(f"forecast horizon must be in 1..{MAX_FORECAST_STEPS}, got {h}")
    order = fit.order
    y = fit.training_series.to_array()

    # Rebuild the differencing chain so forecasts can be re-integrated.
    lags, chain = _chain(y, order.d, order.D, order.s)
    w = chain[-1]
    mu = fit.intercept if fit.intercept is not None else 0.0
    z = (w - mu).tolist()
    e = list(fit.residuals)

    ar, ma = _combined_polys(fit.ar_coeffs, fit.ma_coeffs, fit.seasonal_ar, fit.seasonal_ma, order.s)
    n = len(z)
    for step in range(h):
        t = n + step
        val = 0.0
        for j in range(1, len(ar)):
            if t - j >= 0:
                val -= ar[j] * z[t - j]
        for j in range(1, len(ma)):
            if 0 <= t - j < n:
                val += ma[j] * e[t - j]
        z.append(val)
    fore = np.asarray(z[n:]) + mu

    # Undo the differences last to first: the seasonal ones, then the first.
    for lag, below in zip(reversed(lags), reversed(chain[:-1])):
        hist = list(below)
        out = []
        for f in fore:
            nxt = f + hist[-lag]
            hist.append(nxt)
            out.append(nxt)
        fore = np.asarray(out)
    return fore
