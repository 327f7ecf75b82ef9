"""Additive exponential-smoothing state-space models.

Level, optional (possibly damped) additive trend, optional additive
seasonal with period 4, additive errors.  Smoothing parameters and initial
states are optimized jointly with Nelder-Mead on a standardized copy of
the series, a search and then a polish from its answer; specification
selection uses AICc.  Every (series, spec) fit of one call is searched in
one lockstep run and polished in a second (``auto_select_ets_many``), with
the bits one scalar search and polish per spec would give; ``fit_ets`` and
``auto_select_ets`` are one-task wrappers, and ``features.fit_windows``
selects the specs of its windows and of their STL-adjusted copies in one
``SelectionPlan``.

Multiplicative variants are deliberately out: 14-16 positive observations
cannot distinguish them from the additive forms, and the additive family
keeps the optimization well conditioned.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ._optim import _start_simplex, nelder_mead, run_plan  # noqa: F401  perfbench/selftest.py reads ets.nelder_mead
from .errors import InsufficientDataError, ValidationError
from .metrics import aicc
from .series import QuarterlySeries

PERIOD = 4

TREND_CHOICES = ("none", "additive", "additive-damped")
SEASONAL_CHOICES = ("none", "additive")

_ALPHA_LO, _ALPHA_HI = 1e-4, 0.9999
_PHI_LO, _PHI_HI = 0.8, 0.98

# Columns of a point in the lockstep batch: every spec's raw vector in
# the scalar order, with the parameters and states it lacks held at 0.
_ALPHA, _BETA, _PHI, _GAMMA, _LEVEL, _TREND, _SEASON = range(7)
_N_COLUMNS = _SEASON + PERIOD - 1


@dataclass(frozen=True)
class EtsSpec:
    """Which components the model carries; errors are always additive."""

    trend: str = "none"
    seasonal: str = "none"

    def __post_init__(self):
        if self.trend not in TREND_CHOICES:
            raise ValidationError(f"trend must be one of {TREND_CHOICES}, got {self.trend!r}")
        if self.seasonal not in SEASONAL_CHOICES:
            raise ValidationError(
                f"seasonal must be one of {SEASONAL_CHOICES}, got {self.seasonal!r}"
            )

    @property
    def has_trend(self) -> bool:
        return self.trend != "none"

    @property
    def damped(self) -> bool:
        return self.trend == "additive-damped"

    @property
    def has_seasonal(self) -> bool:
        return self.seasonal != "none"


@dataclass(frozen=True)
class EtsFit:
    spec: EtsSpec
    alpha: float
    beta: float | None
    gamma: float | None
    phi_damp: float | None
    initial_level: float
    initial_trend: float | None
    initial_seasonal: tuple[float, ...] | None
    sse: float
    aicc: float
    training_series: QuarterlySeries
    final_level: float
    final_trend: float | None
    final_seasonal: tuple[float, ...] | None


def _run_recursion(y, spec: EtsSpec, alpha, beta, gamma, phi, level, trend, seasonal):
    """One pass of the innovations recursion; returns (sse, final states)."""
    s = list(seasonal) if seasonal is not None else None
    has_trend = spec.has_trend
    damped = spec.damped
    sse = 0.0
    values = y.tolist() if hasattr(y, "tolist") else list(y)
    for t, obs in enumerate(values):
        seas = s[t % PERIOD] if s is not None else 0.0
        bt = (phi * trend) if damped else (trend if has_trend else 0.0)
        err = obs - (level + bt + seas)
        level = level + bt + alpha * err
        if has_trend:
            trend = bt + beta * err
        if s is not None:
            s[t % PERIOD] = seas + gamma * err
        sse += err * err
    return sse, level, (trend if has_trend else None), (tuple(s) if s is not None else None)


def _box(v: float, lo: float, hi: float) -> float:
    return lo if v < lo else hi if v > hi else v


def _start(z, spec: EtsSpec, fixed_alpha):
    """The batch columns a spec searches, in the order of its scalar vector, and the starting point.

    The point holds each searched column's scalar starting value and 0
    elsewhere; z has at least 2 * PERIOD points.
    """
    head = z[:PERIOD]
    level0 = float(np.mean(head))
    start = {} if fixed_alpha is not None else {_ALPHA: 0.3}
    if spec.has_trend:
        start[_BETA] = 0.1
    if spec.damped:
        start[_PHI] = 0.95
    if spec.has_seasonal:
        start[_GAMMA] = 0.1
    start[_LEVEL] = level0
    if spec.has_trend:
        start[_TREND] = float(z[PERIOD] - z[0]) / PERIOD
    if spec.has_seasonal:
        dev = head - level0
        dev = dev - np.mean(dev)
        start.update(zip(range(_SEASON, _N_COLUMNS), dev[: PERIOD - 1].tolist()))
    point = np.zeros(_N_COLUMNS)
    point[list(start)] = list(start.values())
    return list(start), point


@dataclass(frozen=True)
class _Job:
    """One (series, spec) fit, standardized and ready for the batch."""

    series: QuarterlySeries
    spec: EtsSpec
    fixed_alpha: float | None
    mu: float
    sigma: float
    z: np.ndarray
    cols: list
    start: np.ndarray


def _prepare(series: QuarterlySeries, spec: EtsSpec, fixed_alpha) -> _Job:
    y = series.to_array()
    n = y.size
    if n < 2 * PERIOD:
        raise InsufficientDataError(f"ETS needs >= {2 * PERIOD} points, have {n}")
    if fixed_alpha is not None and not 0.0 <= fixed_alpha <= 1.0:
        raise ValidationError(f"fixed alpha must be in [0, 1], got {fixed_alpha}")
    # Standardize for optimizer conditioning; states map back affinely.
    mu = float(np.mean(y))
    sigma = float(np.std(y))
    if sigma == 0.0:
        sigma = 1.0
    z = (y - mu) / sigma
    return _Job(series, spec, fixed_alpha, mu, sigma, z, *_start(z, spec, fixed_alpha))


def _vbox(v, lo, hi):
    """_box on arrays: lo if v < lo else hi if v > hi else v."""
    return np.where(v < lo, lo, np.minimum(v, hi))


# Rows of _SseObjective's per-member table: box bounds of alpha, then of
# beta, phi, gamma (the upper bounds of beta and gamma depend on alpha and
# are filled in per point), then 0/1 flags.
_A_LO, _A_HI, _LO3, _HI3, _FREE, _HAS_T, _HAS_S, _NOT_DAMPED = 0, 1, 2, 5, 8, 9, 10, 11


class _SseObjective:
    """The penalized one-step SSE of many (series, spec) fits at once.

    A point is a row of _N_COLUMNS raw values; the columns a spec does not
    search are 0.  Per row this is the scalar objective's value, bit for
    bit, for any point whose recursion errors stay finite.  Each member's
    parameters are clipped to its own box, and a parameter the spec lacks
    gets the box [0, 0], so it is exactly 0 with no clip distance; a fixed
    alpha gets the box [alpha, alpha] and a distance times 0.  The
    recursion is _run_recursion's, with per-row multipliers in place of
    its branches: phi is 1.0 without damping, beta and gamma are 0.0
    without trend or seasonal, and the absent trend and seasonal states
    start at +0.0 and, for a finite error, stay +0.0, so every sum sees
    the scalar's literal 0.0.  The squared errors are added in sequence,
    masked past the end of a shorter series.  A nonzero clip distance
    squares with ``float_power``, the C ``pow`` that Python's ``** 2``
    calls (``d * d`` rounds differently on some doubles).
    """

    def __init__(self, jobs: list[_Job]):
        groups: dict = {}
        for job in jobs:
            groups.setdefault(job.series.values, (len(groups), job.z))
        self.T = max(job.z.size for job in jobs)
        self.Z = np.zeros((len(groups), self.T))
        for g, z in groups.values():
            self.Z[g, : z.size] = z
        self.group = np.asarray([groups[job.series.values][0] for job in jobs], dtype=np.intp)
        length = np.asarray([job.z.size for job in jobs])
        self.live = np.arange(self.T)[:, None] < length if length.min() < self.T else None
        self.table = np.zeros((12, len(jobs)))
        for i, job in enumerate(jobs):
            spec, fixed = job.spec, job.fixed_alpha
            column = self.table[:, i]
            column[_A_LO : _A_HI + 1] = (_ALPHA_LO, _ALPHA_HI) if fixed is None else (fixed, fixed)
            column[_FREE] = fixed is None
            if spec.has_trend:
                column[[_LO3, _HAS_T]] = _ALPHA_LO, 1.0
            if spec.damped:
                column[[_LO3 + 1, _HI3 + 1]] = _PHI_LO, _PHI_HI
            if spec.has_seasonal:
                column[[_LO3 + 2, _HAS_S]] = _ALPHA_LO, 1.0
            column[_NOT_DAMPED] = not spec.damped
        self.seasonal = self.table[_HAS_S] == 1.0
        self._last = None

    def __call__(self, members, X) -> np.ndarray:
        # Overflow and inf - inf pass silently, as in Python float arithmetic.
        with np.errstate(all="ignore"):
            return self._values(members, X)

    def _gathered(self, members):
        """The members' table columns, observations, seasonal flags and live mask.

        Consecutive iterations of the batch mostly score the same members,
        so the last gather is kept.
        """
        last = self._last
        if last is None or (members is not last[0] and not np.array_equal(members, last[0])):
            self._last = (
                members,
                np.take(self.table, members, axis=1),
                self.Z[self.group[members]].T,
                self.seasonal[members],
                self.live[:, members] if self.live is not None else None,
            )
        return self._last[1:]

    def _values(self, members, X) -> np.ndarray:
        c, obs, seasonal, live = self._gathered(members)
        x = np.ascontiguousarray(X.T)
        # Parameters in the columns' order: alpha, beta, phi, gamma.
        P = np.empty((4, len(members)))
        P[0] = _vbox(x[_ALPHA], c[_A_LO], c[_A_HI])
        lo, hi = c[_LO3 : _LO3 + 3], c[_HI3 : _HI3 + 3].copy()
        np.multiply(P[0], c[_HAS_T], out=hi[0])
        np.maximum(1.0 - P[0], _ALPHA_LO, out=hi[2])
        hi[2] *= c[_HAS_S]
        P[1:] = _vbox(x[_BETA : _GAMMA + 1], lo, hi)
        # Clipping flattens the surface outside the parameter box, which can
        # trap the simplex there; a pull-back on the clip distance restores
        # slope without moving any interior minimum.  Its squares add in the
        # scalar order, alpha to gamma; an absent parameter adds +0.0, which
        # changes no sum.
        dist = x[_ALPHA : _GAMMA + 1] - P
        dist[0] *= c[_FREE]
        square = dist * dist
        np.float_power(dist, 2.0, out=square, where=dist != 0.0)
        drift = square[0] + square[1]
        drift += square[2]
        drift += square[3]

        phi = P[2] + c[_NOT_DAMPED]
        # Level and slope are adjacent rows, as are lb = level + bt and bt,
        # so one add updates both: level = lb + alpha * e, slope = bt + beta * e.
        # A copy: for one point, x is a view of the caller's X.
        state = x[_LEVEL : _TREND + 1].copy()
        level, slope = state
        S = np.zeros((PERIOD, len(members)))
        S[: PERIOD - 1] = x[_SEASON:]
        np.negative(S[0] + S[1] + S[2], out=S[PERIOD - 1], where=seasonal)

        E = np.empty(obs.shape)
        step = np.empty_like(P)
        tmp = np.empty(len(members))
        base = np.empty((2, len(members)))
        lb, bt = base
        for t in range(self.T):
            seas = S[t % PERIOD]
            np.multiply(phi, slope, out=bt)
            np.add(level, bt, out=lb)
            np.add(lb, seas, out=tmp)
            np.multiply(P, np.subtract(obs[t], tmp, out=E[t]), out=step)
            np.add(base, step[:2], out=state)
            np.add(seas, step[3], out=seas)
        np.multiply(E, E, out=E)
        if live is not None:
            E = np.where(live, E, 0.0)
        # A left fold at every batch size, as the scalar sum adds; np.add.reduce
        # adds a one-row batch (as a shrink step often scores) pairwise from 8
        # quarters on.
        sse = np.add.accumulate(E, axis=0)[-1]
        return sse * (1.0 + drift) + drift


def _build_fit(job: _Job, x) -> EtsFit:
    """The EtsFit at batch point ``x``, its parameters clipped to their box."""
    spec, series, mu, sigma = job.spec, job.series, job.mu, job.sigma
    y = series.to_array()
    x = x.tolist()
    alpha = _box(x[_ALPHA], _ALPHA_LO, _ALPHA_HI) if job.fixed_alpha is None else float(job.fixed_alpha)
    beta = _box(x[_BETA], _ALPHA_LO, alpha) if spec.has_trend else None
    phi = _box(x[_PHI], _PHI_LO, _PHI_HI) if spec.damped else None
    gamma = _box(x[_GAMMA], _ALPHA_LO, max(1.0 - alpha, _ALPHA_LO)) if spec.has_seasonal else None
    level0 = mu + sigma * x[_LEVEL]
    trend0 = sigma * x[_TREND] if spec.has_trend else None
    seas0 = None
    if spec.has_seasonal:
        free = x[_SEASON : _SEASON + PERIOD - 1]
        seas0 = tuple(sigma * v for v in free + [-(free[0] + free[1] + free[2])])

    sse, final_level, final_trend, final_seasonal = _run_recursion(
        y, spec, alpha, beta, gamma, phi, level0, trend0 if trend0 is not None else 0.0, seas0
    )

    # Every parameter and seed state counts, a fixed alpha too, plus the variance.
    k = len(job.cols) + (job.fixed_alpha is not None) + 1
    return EtsFit(
        spec=spec,
        alpha=alpha,
        beta=beta,
        gamma=gamma,
        phi_damp=phi,
        initial_level=level0,
        initial_trend=trend0,
        initial_seasonal=seas0,
        sse=float(sse),
        aicc=aicc(sse, y.size, k),
        training_series=series,
        final_level=float(final_level),
        final_trend=float(final_trend) if final_trend is not None else None,
        final_seasonal=final_seasonal,
    )


class _FitPlan:
    """Every (series, spec, fixed_alpha) task, as the members of a lockstep run.

    ``fits`` runs the plan twice: a member searches from the scalar
    starting vector (tolerances 1e-8 / 1e-10), then polishes from the
    search's answer (1e-10 / 1e-12).  Both runs give a member 200
    iterations per searched coordinate, and both start from the scalar
    default simplex around the member's point.
    """

    def __init__(self, tasks):
        self.prepared: list = []
        self.jobs = []
        for series, spec, fixed_alpha in tasks:
            try:
                job = _prepare(series, spec, fixed_alpha)
            except (InsufficientDataError, ValidationError) as exc:
                self.prepared.append(exc.with_traceback(None))
                continue
            self.prepared.append(job)
            self.jobs.append(job)
        self.dims = np.asarray([len(job.cols) for job in self.jobs], dtype=np.intp)
        self.maxiter = 200 * self.dims
        self.objective = _SseObjective(self.jobs) if self.jobs else None

    def start(self, members):
        return [_start_simplex(self.points[i], self.jobs[i].cols) for i in members.tolist()]

    def fits(self):
        """The EtsFit of every task, or the error its fit raises, from the search and the polish.

        The errors are fit_ets's: InsufficientDataError for a series too
        short for the spec, ValidationError for a fixed alpha outside [0, 1].
        """
        self.points = [job.start for job in self.jobs]
        self.xatol, self.fatol = 1e-8, 1e-10
        self.points = run_plan(self)[0]  # the search
        self.xatol, self.fatol = 1e-10, 1e-12
        points = iter(run_plan(self)[0])  # the polish, from each answer
        return [r if isinstance(r, Exception) else _build_fit(r, next(points)) for r in self.prepared]


def _fit_many(tasks) -> list:
    """The EtsFit of every (series, spec, fixed_alpha) task, or its error, from one search and one polish run."""
    return _FitPlan(tasks).fits()


def fit_ets(series: QuarterlySeries, spec: EtsSpec, fixed_alpha: float | None = None) -> EtsFit:
    """Fit smoothing parameters and initial states by minimizing one-step SSE.

    ``fixed_alpha`` pins the level smoothing weight (test hook for the
    naive and no-update limits); everything else is still optimized.
    """
    (fit,) = _fit_many([(series, spec, fixed_alpha)])
    if isinstance(fit, Exception):
        raise fit
    return fit


def spec_grid(trend_choices=TREND_CHOICES, seasonal_choices=SEASONAL_CHOICES) -> list[EtsSpec]:
    return [EtsSpec(t, s) for t in trend_choices for s in seasonal_choices]


class SelectionPlan(_FitPlan):
    """Every spec of every (series, specs) task: auto_select_ets_many's search and selection."""

    def __init__(self, tasks):
        tasks = [(series, spec_grid() if specs is None else list(specs)) for series, specs in tasks]
        self.selected: list = [None] * len(tasks)
        fits, self.owners = [], []
        for i, (series, specs) in enumerate(tasks):
            if len(series) < 8:
                self.selected[i] = InsufficientDataError(
                    f"auto selection needs >= 8 points, have {len(series)}"
                )
                continue
            fits.extend((series, spec, None) for spec in specs)
            self.owners.extend(i for _ in specs)
        super().__init__(fits)

    def select(self):
        """Per task, the lowest-AICc fit, or the exception auto_select_ets raises for it."""
        selected = list(self.selected)
        for i, fit in zip(self.owners, self.fits()):
            if isinstance(fit, InsufficientDataError):  # the only error a free-alpha fit returns
                continue
            if selected[i] is None or fit.aicc < selected[i].aicc:
                selected[i] = fit
        return [
            InsufficientDataError("no ETS spec admissible on this series") if r is None else r
            for r in selected
        ]


def auto_select_ets_many(tasks) -> list:
    """Fit every spec of every (series, specs) task in one search run and one polish run.

    ``specs`` None means the full spec_grid().  Returns, per task, the
    lowest-AICc fit, or the exception auto_select_ets raises for it
    (InsufficientDataError below 8 points or when no spec is admissible).
    Ties resolve to the earlier spec in enumeration order.
    """
    return SelectionPlan(tasks).select()


def auto_select_ets(series: QuarterlySeries, specs: list[EtsSpec] | None = None) -> EtsFit:
    """Fit every admissible spec and return the lowest AICc.

    Ties resolve to the earlier spec in enumeration order; the (none, none)
    spec always fits, so selection cannot come up empty.
    """
    (fit,) = auto_select_ets_many([(series, specs)])
    if isinstance(fit, Exception):
        raise fit
    return fit


def forecast_ets(fit: EtsFit, h: int) -> np.ndarray:
    """Point forecasts: level, plus damped/linear trend, plus seasonal."""
    if not 1 <= h <= 8:
        raise ValidationError(f"forecast horizon must be in 1..8, got {h}")
    n = len(fit.training_series)
    out = np.empty(h)
    damp_sum = 0.0
    for k in range(1, h + 1):
        trend_term = 0.0
        if fit.spec.damped:
            damp_sum += fit.phi_damp**k
            trend_term = damp_sum * fit.final_trend
        elif fit.spec.has_trend:
            trend_term = k * fit.final_trend
        seas = fit.final_seasonal[(n + k - 1) % PERIOD] if fit.final_seasonal is not None else 0.0
        out[k - 1] = fit.final_level + trend_term + seas
    return out
