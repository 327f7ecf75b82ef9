"""The scalar CSS fit as it was before the lockstep batch: the bit-identity oracle.

A verbatim copy of the list-based ``nelder_mead`` and of ``fit_arima`` /
``auto_select`` with their helpers, frozen here so that the batched kernel
in ``quartercast.arima`` can be checked against it bit for bit.  Only the
imports differ.  The objective's ``sum`` adds in sequence on CPython 3.11;
from 3.12 ``sum`` of floats is compensated, and this oracle (like the
original code) then rounds differently from the sequential kernel.
"""

from __future__ import annotations

import numpy as np

from quartercast.arima import (
    MAX_D,
    MAX_P,
    MAX_Q,
    MAX_SD,
    MAX_SP,
    MAX_SQ,
    _LOG_FLOOR,
    _MAX_ITER,
    _CSS_TOL,
    _N_RESTARTS,
    _RESTART_SEED,
    ArimaFit,
    ArimaOrder,
    difference,
)
from quartercast.errors import InsufficientDataError, NonconvergenceError
from quartercast.series import QuarterlySeries

_INF = float("inf")


def nelder_mead(
    f,
    x0,
    initial_simplex=None,
    maxiter: int = 500,
    xatol: float = 1e-4,
    fatol: float = 1e-8,
):
    """Minimize ``f`` from ``x0``; returns (best_x, best_f, iterations).

    Convergence requires both the simplex coordinate spread (against the
    best vertex) to fall below ``xatol`` and the value spread below
    ``fatol``.  Vertices with infinite values are handled like any other
    bad vertex, so objectives may return inf for infeasible points.
    """
    x0 = [float(v) for v in x0]
    n = len(x0)
    if n == 0:
        return x0, f(x0), 0
    if initial_simplex is not None:
        simplex = [[float(v) for v in row] for row in initial_simplex]
    else:
        simplex = [list(x0)]
        for i in range(n):
            vertex = list(x0)
            vertex[i] = vertex[i] * 1.05 if vertex[i] != 0.0 else 0.00025
            simplex.append(vertex)
    values = [f(v) for v in simplex]

    nit = 0
    while nit < maxiter:
        order = sorted(range(n + 1), key=lambda i: values[i])
        simplex = [simplex[i] for i in order]
        values = [values[i] for i in order]
        best, worst = simplex[0], simplex[-1]

        spread = 0.0
        for vertex in simplex[1:]:
            for a, b in zip(vertex, best):
                d = a - b if a >= b else b - a
                if d > spread:
                    spread = d
        fspread = values[-1] - values[0] if values[-1] < _INF else _INF
        if spread <= xatol and fspread <= fatol:
            break
        nit += 1

        centroid = [0.0] * n
        for vertex in simplex[:-1]:
            for i in range(n):
                centroid[i] += vertex[i]
        for i in range(n):
            centroid[i] /= n

        reflected = [2.0 * centroid[i] - worst[i] for i in range(n)]
        fr = f(reflected)
        if fr < values[0]:
            expanded = [3.0 * centroid[i] - 2.0 * worst[i] for i in range(n)]
            fe = f(expanded)
            if fe < fr:
                simplex[-1], values[-1] = expanded, fe
            else:
                simplex[-1], values[-1] = reflected, fr
        elif fr < values[-2]:
            simplex[-1], values[-1] = reflected, fr
        else:
            if fr < values[-1]:
                contracted = [1.5 * centroid[i] - 0.5 * worst[i] for i in range(n)]
            else:
                contracted = [0.5 * centroid[i] + 0.5 * worst[i] for i in range(n)]
            fc = f(contracted)
            if fc < min(fr, values[-1]):
                simplex[-1], values[-1] = contracted, fc
            else:
                for j in range(1, n + 1):
                    simplex[j] = [0.5 * (simplex[j][i] + best[i]) for i in range(n)]
                    values[j] = f(simplex[j])

    order = sorted(range(n + 1), key=lambda i: values[i])
    return list(simplex[order[0]]), values[order[0]], nit


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


def _admissible(phi, theta, sphi, stheta) -> bool:
    return (
        _ar_factor_stationary(phi)
        and _ma_factor_invertible(theta)
        and _ar_factor_stationary(sphi)
        and _ma_factor_invertible(stheta)
    )


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


def fit_arima(series: QuarterlySeries, order: ArimaOrder) -> ArimaFit:
    """Estimate the given order on the series by minimizing the CSS.

    Raises InsufficientDataError when the differenced series is shorter
    than the free parameter count plus three, and NonconvergenceError when
    the optimizer cannot find an admissible coefficient vector.
    """
    y = series.to_array()
    w = difference(y, order.d, order.D, order.s)
    n_res = w.size
    if n_res < order.n_free_params + 3:
        raise InsufficientDataError(
            f"order {order}: differenced length {n_res} < {order.n_free_params + 3}"
        )

    intercept = float(np.mean(w)) if order.has_intercept else None
    z = (w - intercept if intercept is not None else w).tolist()

    scale = sum(v * v for v in z)
    denom = scale if scale > 0.0 else 1.0

    if order.n_coeffs == 0:
        coeffs = np.empty(0)
    else:

        def objective(xs):
            phi, theta, sphi, stheta = _split_params(xs, order)
            if not _admissible(phi, theta, sphi, stheta):
                return np.inf
            ar, ma = _combined_polys(phi, theta, sphi, stheta, order.s)
            e = _residuals_from_polys(z, ar, ma)
            return sum(v * v for v in e) / denom

        coeffs = None
        rng = np.random.default_rng(_RESTART_SEED)
        x0 = [0.0] * order.n_coeffs
        for attempt in range(1 + _N_RESTARTS):
            # A spread-out starting simplex; a microscopic perturbation of a
            # zero vector wastes iterations expanding.
            simplex = [list(x0)]
            for i in range(order.n_coeffs):
                vertex = list(x0)
                vertex[i] += 0.2
                simplex.append(vertex)
            best_x, best_fun, _ = nelder_mead(
                objective,
                x0,
                initial_simplex=simplex,
                maxiter=_MAX_ITER,
                xatol=1e-3,
                fatol=_CSS_TOL,
            )
            if np.isfinite(best_fun):
                coeffs = best_x
                break
            x0 = rng.uniform(-0.2, 0.2, size=order.n_coeffs).tolist()
        if coeffs is None:
            raise NonconvergenceError(f"order {order}: optimizer found no admissible point")

    phi, theta, sphi, stheta = _split_params(list(coeffs), order)
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
        intercept=intercept,
        sigma2=sigma2,
        aicc=float(aicc),
        training_series=series,
        residuals=tuple(float(v) for v in e),
    )


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


def auto_select(series: QuarterlySeries) -> ArimaFit:
    """Fit the whole order grid and return the lowest-AICc converged fit.

    Candidates whose data is insufficient after differencing are skipped;
    ties resolve to the earlier order in (p,d,q,P,D,Q) lexicographic order.
    """
    if len(series) < 10:
        raise InsufficientDataError(f"auto selection needs >= 10 points, have {len(series)}")
    best: ArimaFit | None = None
    for order in order_grid():
        try:
            fit = fit_arima(series, order)
        except (InsufficientDataError, NonconvergenceError):
            continue
        if best is None or fit.aicc < best.aicc:
            best = fit
    if best is None:
        raise NonconvergenceError("no ARIMA candidate converged on this series")
    return best


