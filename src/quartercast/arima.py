"""Seasonal ARIMA estimated by conditional sum of squares.

The estimator is deliberately lightweight: difference the series, subtract
the sample mean when no differencing is applied, and minimize the sum of
squared one-step residuals with a Nelder-Mead search started from a zero
coefficient vector.  Order selection is an exhaustive grid search over a
small seasonal grid, scored by AICc.  Every order of every series in one
call is searched in a single lockstep run (``auto_select_many``), with
the bits one scalar search per order would give; ``features.fit_windows``
puts the same searches (``GridPlan``) into one run with its ETS fits.

Conventions: the AR polynomial is 1 - phi_1 B - ... and the MA polynomial
is 1 + theta_1 B + ... (R/statsmodels sign convention); the seasonal
factors multiply the nonseasonal ones.  Pre-sample values of the centered
differenced series and of the shocks are conditioned to zero, so the
residual count always equals the differenced length.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from ._optim import nelder_mead, run_plans  # noqa: F401  perfbench/selftest.py reads arima.nelder_mead
from .errors import InsufficientDataError, NonconvergenceError, ValidationError
from .series import QuarterlySeries

SEASONAL_PERIOD = 4
MAX_FORECAST_STEPS = 8

# Bounds of the order grid; 14-16 quarterly observations cannot support more.
MAX_P, MAX_D, MAX_Q = 2, 1, 2
MAX_SP, MAX_SD, MAX_SQ = 1, 1, 1

_MAX_ITER = 500
_CSS_TOL = 1e-8
_N_RESTARTS = 3
_RESTART_SEED = 20090401  # fixed so refits are bit-reproducible

_LOG_FLOOR = 1e-300

# Points times series length per objective evaluation inside the lockstep
# batch.  Fixed, not a setting: results do not depend on it, only time and
# memory do (see the README's window-fit section).
_EVAL_CELLS = 32 * 1024


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


def difference(values, d: int, D: int, s: int = SEASONAL_PERIOD) -> np.ndarray:
    """Apply d first differences, then D seasonal (lag-s) differences."""
    out = np.asarray(values, dtype=float)
    if len(out) <= d + s * D:
        raise InsufficientDataError(
            f"need more than {d + s * D} points to difference, have {len(out)}"
        )
    for _ in range(d):
        out = out[1:] - out[:-1]
    for _ in range(D):
        out = out[s:] - out[:-s]
    return out


def _ar_factor_stationary(phi) -> bool:
    """Roots of 1 - phi_1 B - phi_2 B^2 outside the unit circle (closed form)."""
    if len(phi) == 0:
        return True
    if len(phi) == 1:
        return abs(phi[0]) < 1.0
    p1, p2 = phi[0], phi[1]
    return abs(p2) < 1.0 and p1 + p2 < 1.0 and p2 - p1 < 1.0


def _ma_factor_invertible(theta) -> bool:
    """Roots of 1 + theta_1 B + theta_2 B^2 outside the unit circle."""
    return _ar_factor_stationary([-t for t in theta])


def _split_params(x, order: ArimaOrder):
    p, q, P, Q = order.p, order.q, order.P, order.Q
    phi = x[:p]
    theta = x[p : p + q]
    sphi = x[p + q : p + q + P]
    stheta = x[p + q + P : p + q + P + Q]
    return phi, theta, sphi, stheta


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


def _residuals_from_polys(z: list, ar: list, ma: list) -> list:
    """One-step residuals with zero pre-sample values on both sides.

    Everything stays in plain Python floats: the series here are at most a
    few hundred points, and short-loop float arithmetic beats array setup.
    """
    n = len(z)
    nar = len(ar) - 1
    if nar > 0:
        ar1 = ar[1:]
        x = []
        push = x.append
        for t in range(n):
            acc = z[t]
            depth = t if t < nar else nar
            for j in range(depth):
                acc += ar1[j] * z[t - 1 - j]
            push(acc)
    else:
        x = z
    nma = len(ma) - 1
    if nma > 0:
        ma1 = ma[1:]
        e: list[float] = []
        push = e.append
        for t in range(n):
            acc = x[t]
            depth = t if t < nma else nma
            for j in range(depth):
                acc -= ma1[j] * e[t - 1 - j]
            push(acc)
        return e
    return list(x)


@dataclass
class _Differenced:
    """One series differenced at one (d, D): the centered values the CSS fits."""

    z: list
    intercept: float | None
    denom: float


def _difference_once(y, d: int, D: int, s: int):
    """The _Differenced of y at (d, D), or the InsufficientDataError differencing raises."""
    try:
        w = difference(y, d, D, s)
    except InsufficientDataError as exc:
        return exc
    intercept = float(np.mean(w)) if d + D == 0 else None
    z = (w - intercept if intercept is not None else w).tolist()
    scale = sum(v * v for v in z)
    return _Differenced(z, intercept, scale if scale > 0.0 else 1.0)


def _slots(order: ArimaOrder) -> list[int]:
    """Where each of the order's coefficients sits in the kernel's fixed layout
    (phi_1, phi_2, theta_1, theta_2, Phi_1, Theta_1)."""
    return [0, 1][: order.p] + [2, 3][: order.q] + [4][: order.P] + [5][: order.Q]


def _admissible_mask(c) -> np.ndarray:
    """Which columns of c = (phi_1, phi_2, theta_1, theta_2, Phi_1, Theta_1) are admissible.

    Admissible means every factor is stationary or invertible, the
    conditions of _ar_factor_stationary and _ma_factor_invertible.  A
    coefficient the order lacks is +0.0 here; the triangle test of a padded
    factor then reduces to |phi_1| < 1 (or to True) with the same
    comparisons, so the mask equals the scalar test bit for bit.
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
    conditioning of _residuals_from_polys.  Lag coefficients are built with
    the same expressions as _combined_polys and the residual recursion adds
    and subtracts lag terms in the same order.  Terms the scalar code omits
    (pre-sample lags, lags beyond the order) are products with a zero
    factor here; adding such a +-0.0 changes at most the sign of a zero, so
    every squared residual, and the sequentially summed CSS, has the same
    bits as the scalar objective's.
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
        self.chunk = max(1, _EVAL_CELLS // self.T)
        self.E = np.empty((_LAGS + self.T, self.chunk))
        self.tmp = np.empty((self.T, self.chunk))
        self.ma = np.zeros((_LAGS, self.chunk))
        self.terms = np.empty((1 + _LAGS, self.chunk))

    def __call__(self, members, X) -> np.ndarray:
        out = np.empty(len(members))
        # Overflow and inf - inf pass silently, as in Python float arithmetic.
        with np.errstate(over="ignore", invalid="ignore"):
            for lo in range(0, len(members), self.chunk):
                out[lo : lo + self.chunk] = self._values(
                    members[lo : lo + self.chunk], X[lo : lo + self.chunk]
                )
        return out

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
        p1, p2, t1, t2, sp, st = c
        ar = ((-p1, 1), (-p2, 2), (0.0 - sp, 4), (p1 * sp, 5), (p2 * sp, 6))
        n, T, L = ok.size, self.T, _LAGS
        # MA coefficients of lags 1..6, one row each (lag 3 stays zero).
        ma = self.ma[:, :n]
        ma[0], ma[1], ma[3], ma[4], ma[5] = t1, t2, 0.0 + st, t1 * st, t2 * st

        Zp = self.Z[:, self.group[members]]
        E = self.E[:, :n]
        tmp = self.tmp[:, :n]
        E[:L] = 0.0
        x = E[L:]
        x[...] = Zp[L:]
        for coef, lag in ar:
            np.multiply(coef, Zp[L - lag : L - lag + T], out=tmp)
            np.add(x, tmp, out=x)
        # e_t = x_t - ma_1 e_{t-1} - ... - ma_6 e_{t-6}: the subtraction
        # reduce over the stacked rows is a left fold, in lag order.
        terms = self.terms[:, :n]
        for t in range(L, L + T):
            terms[0] = E[t]
            np.multiply(ma, E[t - L : t][::-1], out=terms[1:])
            np.subtract.reduce(terms, axis=0, out=E[t])
        # The CSS adds the squares in sequence, as the scalar sum does
        # (np.sum would add them pairwise).
        np.multiply(x, x, out=tmp)
        sse = tmp[0]
        for t in range(1, T):
            np.add(sse, tmp[t], out=sse)
        out[ok] = sse / self.denom[members]
        return out


@lru_cache(maxsize=None)
def _restart_starts(n: int) -> tuple:
    """The restart points of an n-coefficient fit: successive draws of one seeded stream."""
    rng = np.random.default_rng(_RESTART_SEED)
    return tuple(tuple(rng.uniform(-0.2, 0.2, size=n).tolist()) for _ in range(_N_RESTARTS))


def _build_fit(series: QuarterlySeries, order: ArimaOrder, diffed: _Differenced, coeffs) -> ArimaFit:
    z = diffed.z
    n_res = len(z)
    phi, theta, sphi, stheta = _split_params([float(v) for v in coeffs], order)
    ar, ma = _combined_polys(phi, theta, sphi, stheta, order.s)
    e = _residuals_from_polys(z, ar, ma)
    css = sum(v * v for v in e)
    sigma2 = css / n_res

    k = order.n_free_params + 1
    if n_res - k - 1 > 0:
        aicc = n_res * np.log(max(css / n_res, _LOG_FLOOR)) + 2.0 * k * n_res / (n_res - k - 1)
    else:
        aicc = np.inf

    return ArimaFit(
        order=order,
        ar_coeffs=tuple(float(v) for v in phi),
        ma_coeffs=tuple(float(v) for v in theta),
        seasonal_ar=tuple(float(v) for v in sphi),
        seasonal_ma=tuple(float(v) for v in stheta),
        intercept=diffed.intercept,
        sigma2=sigma2,
        aicc=float(aicc),
        training_series=series,
        residuals=tuple(float(v) for v in e),
    )


class _FitPlan:
    """Every (series, order) task of some jobs, as the members of a lockstep run.

    Each series is differenced once per (d, D).  Member i fits
    orders[i] (at least one coefficient) to diffs[i], in the kernel's
    fixed six-slot layout with the slots its order lacks held at zero;
    every simplex operation is per coordinate, so the layout does not
    change a bit.  A search starts from the zero vector with a 0.2 step
    per axis; a member whose best value is not finite restarts from its
    own seeded draws, up to _N_RESTARTS times, exactly as a one-order fit
    would.
    """

    n_columns = 6
    maxiter, xatol, fatol = _MAX_ITER, 1e-3, _CSS_TOL

    def __init__(self, jobs):
        self.jobs = list(jobs)
        self.prepared = []
        diffs, self.orders = [], []
        for series, job_orders in self.jobs:
            y = series.to_array()
            differenced: dict = {}
            for order in job_orders:
                if (order.d, order.D) not in differenced:
                    differenced[order.d, order.D] = _difference_once(y, order.d, order.D, order.s)
                diffed = differenced[order.d, order.D]
                if not isinstance(diffed, Exception):
                    n_res = len(diffed.z)
                    if n_res < order.n_free_params + 3:
                        diffed = InsufficientDataError(
                            f"order {order}: differenced length {n_res} < {order.n_free_params + 3}"
                        )
                    elif order.n_coeffs:
                        diffs.append(diffed)
                        self.orders.append(order)
                self.prepared.append(diffed)
        slots = {order: _slots(order) for order in set(self.orders)}
        self.slots = [slots[order] for order in self.orders]
        self.dims = np.asarray([len(s) for s in self.slots], dtype=np.intp)
        self.objective = _CssObjective(diffs) if diffs else None
        self.attempts = [0] * len(self.orders)

    def _simplex(self, member: int) -> np.ndarray:
        order_slots = self.slots[member]
        k = len(order_slots)
        simplex = np.zeros((k + 1, 6))
        if self.attempts[member]:
            simplex[:, order_slots] = _restart_starts(k)[self.attempts[member] - 1]
        simplex[np.arange(1, k + 1), order_slots] += 0.2
        return simplex

    def start(self, members):
        return [self._simplex(i) for i in members.tolist()]

    def then(self, member, x, fun):
        if np.isfinite(fun) or self.attempts[member] == _N_RESTARTS:
            return None
        self.attempts[member] += 1
        return self._simplex(member), self.maxiter, self.xatol, self.fatol

    def results(self, best_x, best_f, iterations):
        """Each task's ArimaFit or error, jobs in order and orders in order.

        A generator, so that a caller that keeps only some fits never
        holds them all.  The errors are those a one-order fit raises:
        InsufficientDataError when the differenced series is shorter than
        the free parameter count plus three, and NonconvergenceError when
        the optimizer finds no admissible coefficient vector.
        """
        solved = zip(best_x, best_f, self.slots)
        tasks = ((series, order) for series, job_orders in self.jobs for order in job_orders)
        for (series, order), diffed in zip(tasks, self.prepared):
            if isinstance(diffed, Exception):
                yield diffed
                continue
            coeffs = []
            if order.n_coeffs:
                x, fun, order_slots = next(solved)
                if not np.isfinite(fun):
                    yield NonconvergenceError(f"order {order}: optimizer found no admissible point")
                    continue
                coeffs = x[order_slots]
            yield _build_fit(series, order, diffed, coeffs)


def _fit_tasks(jobs):
    """Fit every order of each (series, orders) job by CSS, in one lockstep run; yields as results() does."""
    plan = _FitPlan(jobs)
    (searched,) = run_plans([plan])
    return plan.results(*searched)


def fit_arima(series: QuarterlySeries, order: ArimaOrder) -> ArimaFit:
    """Estimate the given order on the series by minimizing the CSS.

    Raises InsufficientDataError when the differenced series is shorter
    than the free parameter count plus three, and NonconvergenceError when
    the optimizer cannot find an admissible coefficient vector.
    """
    (fit,) = _fit_tasks([(series, [order])])
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


class GridPlan(_FitPlan):
    """The whole order grid of every series, for ``run_plans``: auto_select_many's search."""

    def __init__(self, series_list):
        self.selected: list = [None] * len(series_list)
        self.fitted = []
        grid = order_grid()
        for i, series in enumerate(series_list):
            if len(series) < 10:
                self.selected[i] = InsufficientDataError(
                    f"auto selection needs >= 10 points, have {len(series)}"
                )
            else:
                self.fitted.append(i)
        super().__init__((series_list[i], grid) for i in self.fitted)

    def results(self, best_x, best_f, iterations) -> list:
        """Per series, the lowest-AICc converged fit, or the exception auto_select raises for it."""
        selected = list(self.selected)
        owners = (i for i, (_, grid) in zip(self.fitted, self.jobs) for _ in grid)
        for i, fit in zip(owners, super().results(best_x, best_f, iterations)):
            if isinstance(fit, Exception):
                continue
            if selected[i] is None or fit.aicc < selected[i].aicc:
                selected[i] = fit
        return [
            NonconvergenceError("no ARIMA candidate converged on this series") if r is None else r
            for r in selected
        ]


def auto_select_many(series_list) -> list:
    """Fit the whole order grid on every series in one lockstep run.

    Returns, per series, the lowest-AICc converged fit, or the exception
    auto_select raises for it (InsufficientDataError below 10 points,
    NonconvergenceError when no order converged).  Orders whose data is
    insufficient after differencing are skipped; ties resolve to the
    earlier order in (p,d,q,P,D,Q) lexicographic order.
    """
    plan = GridPlan(series_list)
    (searched,) = run_plans([plan])
    return plan.results(*searched)


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
    chain = [y]
    for _ in range(order.d):
        chain.append(chain[-1][1:] - chain[-1][:-1])
    for _ in range(order.D):
        chain.append(chain[-1][order.s :] - chain[-1][: -order.s])
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

    # Invert seasonal differences first, then the first differences.
    level = len(chain) - 1
    for _ in range(order.D):
        level -= 1
        hist = list(chain[level])
        out = []
        for f in fore:
            nxt = f + hist[-order.s]
            hist.append(nxt)
            out.append(nxt)
        fore = np.asarray(out)
    for _ in range(order.d):
        level -= 1
        hist = list(chain[level])
        out = []
        for f in fore:
            nxt = f + hist[-1]
            hist.append(nxt)
            out.append(nxt)
        fore = np.asarray(out)
    return fore
