"""Additive exponential-smoothing state-space models.

Level, optional (possibly damped) additive trend, optional additive
seasonal with period 4, additive errors.  Smoothing parameters and initial
states are optimized jointly with Nelder-Mead on a standardized copy of
the series, a search and then a polish from its answer; specification
selection uses AICc.  Every (series, spec) fit of one call is searched in
one lockstep run and polished in a second (``auto_select_ets_many``), and
every fit is built by the recursion the objective runs (``_recursion``),
with the bits of the scalar fits that ``tests/ets_oracle.py`` keeps;
``fit_ets`` and ``auto_select_ets`` are one-task wrappers, and
``features.fit_windows`` selects the specs of its windows and of their
STL-adjusted copies in one ``SelectionPlan``.

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
    """lo if v < lo else hi if v > hi else v, elementwise."""
    return np.where(v < lo, lo, np.minimum(v, hi))


# Rows of _SseObjective's per-member table: box bounds of alpha, then of
# beta, phi, gamma (the upper bounds of beta and gamma depend on alpha and
# are filled in per point), then 0/1 flags.
_A_LO, _A_HI, _LO3, _HI3, _FREE, _HAS_T, _HAS_S, _NOT_DAMPED = 0, 1, 2, 5, 8, 9, 10, 11


def _clip(c, x) -> np.ndarray:
    """The rows alpha, beta, phi, gamma at the points x (columns), each
    clipped to its member's box (c: the members' table columns)."""
    P = np.empty((4, x.shape[1]))
    P[0] = _vbox(x[_ALPHA], c[_A_LO], c[_A_HI])
    lo, hi = c[_LO3 : _LO3 + 3], c[_HI3 : _HI3 + 3].copy()
    np.multiply(P[0], c[_HAS_T], out=hi[0])
    np.maximum(1.0 - P[0], _ALPHA_LO, out=hi[2])
    hi[2] *= c[_HAS_S]
    P[1:] = _vbox(x[_BETA : _GAMMA + 1], lo, hi)
    return P


def _states(x, seasonal) -> np.ndarray:
    """The seed states at the points x, a row each: level, slope and the seasonal
    states, the last minus the sum of the others where ``seasonal`` (else 0)."""
    states = np.zeros((2 + PERIOD, x.shape[1]))
    states[:-1] = x[_LEVEL:]
    np.negative(states[2] + states[3] + states[4], out=states[-1], where=seasonal)
    return states


def _recursion(obs, P, phi, states) -> np.ndarray:
    """The one-step errors of the innovations recursion, a series per column of obs.

    P holds the clipped parameters and phi the damping (1.0 without);
    states (as _states gives them) are updated in place, to those after
    the last row of obs.
    """
    E = np.empty(obs.shape)
    step = np.empty_like(P)
    tmp = np.empty(obs.shape[1])
    # Level and slope are adjacent rows, as are lb = level + bt and bt,
    # so one add updates both: level = lb + alpha * e, slope = bt + beta * e.
    state, S = states[:2], states[2:]
    base = np.empty_like(state)
    lb, bt = base
    level, slope = state
    for t in range(obs.shape[0]):
        seas = S[t % PERIOD]
        np.multiply(phi, slope, out=bt)
        np.add(level, bt, out=lb)
        np.add(lb, seas, out=tmp)
        np.multiply(P, np.subtract(obs[t], tmp, out=E[t]), out=step)
        np.add(base, step[:2], out=state)
        np.add(seas, step[3], out=seas)
    return E


def _sse(E, live=None) -> np.ndarray:
    """Each column's squared errors added in sequence, skipping rows where
    ``live`` is False; E is squared in place."""
    np.multiply(E, E, out=E)
    if live is not None:
        E = np.where(live, E, 0.0)
    # A left fold at every batch size, as the scalar sum adds; np.add.reduce
    # adds a one-row batch (as a shrink step often scores) pairwise from 8
    # quarters on.
    return np.add.accumulate(E, axis=0)[-1]


class _SseObjective:
    """The penalized one-step SSE of many (series, spec) fits at once.

    A point is a row of _N_COLUMNS raw values; the columns a spec does not
    search are 0.  Per row this is the value of the scalar objective that
    ``tests/ets_oracle.py`` keeps, bit for bit, for any point whose
    recursion errors stay finite.  Each member's parameters are clipped to
    its own box (_clip), and a parameter the spec lacks gets the box
    [0, 0], so it is exactly 0 with no clip distance; a fixed alpha gets
    the box [alpha, alpha] and a distance times 0.  The recursion
    (_recursion) is the scalar one with per-row multipliers in place of
    its branches: phi is 1.0 without damping, beta and gamma are 0.0
    without trend or seasonal, and the absent trend and seasonal states
    start at +0.0 and, for a finite error, stay +0.0, so every sum sees
    the scalar's literal 0.0.  The squared errors are added in sequence,
    masked past the end of a shorter series (_sse).  A nonzero clip
    distance squares with ``float_power``, the C ``pow`` that Python's
    ``** 2`` calls (``d * d`` rounds differently on some doubles).
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
        P = _clip(c, x)
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
        E = _recursion(obs, P, P[2] + c[_NOT_DAMPED], _states(x, seasonal))
        return _sse(E, live) * (1.0 + drift) + drift


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
        built = iter(self._built(run_plan(self)[0]))  # the polish, from each answer
        return [r if isinstance(r, Exception) else next(built) for r in self.prepared]

    def _built(self, X) -> list[EtsFit]:
        """The EtsFit of every job at its row of X, from one recursion per series
        length: on the raw series, from the seed states mapped back from the
        standardized scale, so each fit's final states follow its own last quarter."""
        fits = [None] * len(self.jobs)
        lengths = np.asarray([job.z.size for job in self.jobs])
        for n in set(lengths.tolist()):
            members = np.flatnonzero(lengths == n)
            jobs = [self.jobs[i] for i in members.tolist()]
            c = self.objective.table[:, members]
            x = np.ascontiguousarray(X[members].T)
            mu, sigma = np.array([(job.mu, job.sigma) for job in jobs]).T
            P = _clip(c, x)
            states = _states(x, self.objective.seasonal[members])
            obs = np.array([job.series.values for job in jobs]).T
            with np.errstate(all="ignore"):
                states[0] = mu + sigma * states[0]
                states[1:] *= sigma
                seeds = states.T.tolist()
                sse = _sse(_recursion(obs, P, P[2] + c[_NOT_DAMPED], states)).tolist()
            rows = zip(members.tolist(), jobs, P.T.tolist(), seeds, states.T.tolist(), sse)
            for i, job, (alpha, beta, phi, gamma), seed, final, job_sse in rows:
                spec, t, s = job.spec, job.spec.has_trend, job.spec.has_seasonal
                # Every parameter and seed state counts, a fixed alpha too, plus the variance.
                k = len(job.cols) + (job.fixed_alpha is not None) + 1
                fits[i] = EtsFit(
                    spec=spec, alpha=alpha, beta=beta if t else None, gamma=gamma if s else None,
                    phi_damp=phi if spec.damped else None,
                    initial_level=seed[0], initial_trend=seed[1] if t else None,
                    initial_seasonal=tuple(seed[2:]) if s else None,
                    sse=job_sse, aicc=aicc(job_sse, n, k), training_series=job.series,
                    final_level=final[0], final_trend=final[1] if t else None,
                    final_seasonal=tuple(final[2:]) if s else None,
                )
        return fits


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
