"""Additive exponential-smoothing state-space models.

Level, optional (possibly damped) additive trend, optional additive
seasonal with period 4, additive errors.  Smoothing parameters and initial
states are optimized jointly with Nelder-Mead on a standardized copy of
the series, a search and then a polish from its answer; specification
selection takes the lowest AICc (``metrics.lowest_aicc``).  Every
(series, spec) fit of one call is searched in one lockstep run and
polished in a second (``_FitPlan``), and every fit is built by the
recursion the objective runs (``_Recursion``), with the bits of the
scalar fits that ``tests/ets_oracle.py`` keeps; ``fit_ets`` and
``auto_select_ets`` are one-task calls, and ``features.fit_windows``
selects the specs of its windows and of their STL-adjusted copies with
one ``auto_select_ets_many`` call.

Multiplicative variants are deliberately out: 14-16 positive observations
cannot distinguish them from the additive forms, and the additive family
keeps the optimization well conditioned.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import _optim
from ._optim import _start_simplex, nelder_mead  # noqa: F401  perfbench/selftest.py reads ets.nelder_mead
from .errors import InsufficientDataError, NonconvergenceError, ValidationError
from .metrics import aicc, lowest_aicc
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


def _prepare(series: QuarterlySeries, spec: EtsSpec, fixed_alpha):
    """The task's _Job, or the error its fit raises before any search."""
    y = series.to_array()
    n = y.size
    if n < 2 * PERIOD:
        return InsufficientDataError(f"ETS needs >= {2 * PERIOD} points, have {n}")
    if fixed_alpha is not None and not 0.0 <= fixed_alpha <= 1.0:
        return ValidationError(f"fixed alpha must be in [0, 1], got {fixed_alpha}")
    # Standardize for optimizer conditioning; states map back affinely.
    with np.errstate(over="ignore", invalid="ignore"):
        mu, sigma = float(np.mean(y)), float(np.std(y))
    if not np.isfinite(sigma):
        return NonconvergenceError(f"series {series.id!r}: the standard deviation of its values overflows")
    if sigma == 0.0:
        sigma = 1.0
    z = (y - mu) / sigma
    return _Job(series, spec, fixed_alpha, mu, sigma, z, *_start(z, spec, fixed_alpha))


def _box(v, lo, hi, out):
    """lo if v < lo else hi if v > hi else v, elementwise, into out."""
    np.minimum(v, hi, out=out)
    np.copyto(out, lo, where=v < lo)


# Rows of _SseObjective's per-member table: box bounds of alpha, then of
# beta, phi, gamma (the upper bounds of beta and gamma depend on alpha and
# are filled in per point), then 0/1 flags.
_A_LO, _A_HI, _LO3, _HI3, _FREE, _HAS_T, _HAS_S, _NOT_DAMPED = 0, 1, 2, 5, 8, 9, 10, 11


def _clip(c, x) -> np.ndarray:
    """The rows alpha, beta, phi, gamma at the points x (columns), each
    clipped to its member's box (c: the members' table columns)."""
    P = np.empty((4, x.shape[1]))
    alpha = P[0]
    _box(x[_ALPHA], c[_A_LO], c[_A_HI], alpha)
    hi = c[_HI3 : _HI3 + 3].copy()
    np.multiply(alpha, c[_HAS_T], hi[0])
    np.maximum(np.subtract(1.0, alpha), _ALPHA_LO, out=hi[2])
    hi[2] *= c[_HAS_S]
    _box(x[_BETA : _GAMMA + 1], c[_LO3 : _LO3 + 3], hi, P[1:])
    return P


def _states(x, seasonal) -> np.ndarray:
    """The seed states at the points x, a row each: level, slope and the seasonal
    states, the last minus the sum of the others where ``seasonal`` (else 0)."""
    states = np.zeros((2 + PERIOD, x.shape[1]))
    states[:-1] = x[_LEVEL:]
    np.negative(states[2] + states[3] + states[4], out=states[-1], where=seasonal)
    return states


# The rows of P that multiply the error: alpha, beta and gamma.
_GAINS = [0, 1, 3]


class _Recursion:
    """The innovations recursion over the columns of obs (T, K), a series each.

    Its buffers and the views of every quarter's step are made once, so a
    batch that scores the same members again reuses them.  The states
    live in H (T + PERIOD, 3, K).  Step t reads the level and slope from
    H[t + PERIOD - 1] (seeded there for t = 0), writes level + damped
    slope and the damped slope to H[t] beside the seasonal state quarter
    t uses, and adds each one's gain times the error into
    H[t + PERIOD]: the level and slope after quarter t, and the seasonal
    state quarter t + PERIOD uses.  So one add updates all three.
    """

    def __init__(self, obs):
        T, K = obs.shape
        self.T = T
        self.E = np.empty((T, K))
        self.H = np.zeros((T + PERIOD, 3, K))
        # Row views, made in bulk: H[u] is blocks[u] and H[u, i] is rows[3 * u + i].
        blocks, rows = list(self.H), list(self.H.reshape(-1, K))
        self.steps = [
            (rows[3 * (t + PERIOD - 1)], rows[3 * (t + PERIOD - 1) + 1], *rows[3 * t : 3 * t + 3], o, e,
             blocks[t], blocks[t + PERIOD])
            for t, (o, e) in enumerate(zip(obs, self.E))
        ]

    def __call__(self, P, phi, states) -> np.ndarray:
        """The one-step errors (T, K), from the seed states (as _states gives them).

        P holds the clipped parameters and phi the damping (1.0 without).
        """
        H = self.H
        H[PERIOD - 1, :2] = states[:2]
        H[:PERIOD, 2] = states[2:]
        gains = P.take(_GAINS, axis=0)
        multiply, add, subtract = np.multiply, np.add, np.subtract
        for level, slope, lb, bt, seas, obs, e, base, after in self.steps:
            multiply(phi, slope, bt)
            add(level, bt, lb)
            add(lb, seas, e)
            subtract(obs, e, e)
            # alpha * e + (level + bt), beta * e + bt, gamma * e + seas
            multiply(gains, e, after)
            add(after, base, after)
        return self.E

    def final_states(self) -> np.ndarray:
        """The states after the last quarter, in the rows _states gives: quarter
        k's seasonal state was last updated in one of the last PERIOD rows of H."""
        T, H = self.T, self.H
        return np.concatenate([H[T + PERIOD - 1, :2], H[[T + (k - T) % PERIOD for k in range(PERIOD)], 2]])


def _sse(E, dead=None) -> np.ndarray:
    """Each column's squared errors added in sequence, skipping rows where
    ``dead`` is True; E is squared in place."""
    np.multiply(E, E, E)
    if dead is not None:
        np.copyto(E, 0.0, where=dead)
    return _optim._column_sums(E)


class _Batch:
    """One set of members of an _SseObjective: their table columns,
    observations (a column each), seasonal flags and the rows past the end
    of each series, with the recursion over them."""

    def __init__(self, objective, members):
        self.members = members
        self.c = objective.table.take(members, axis=1)
        self.seasonal = objective.seasonal[members]
        self.dead = ~objective.live[:, members] if objective.live is not None else None
        self.recursion = _Recursion(objective.Z[:, objective.group[members]])

    def holds(self, members) -> bool:
        mine = self.members
        return mine is members or (mine.shape == members.shape and bool((mine == members).all()))


class _SseObjective:
    """The penalized one-step SSE of many (series, spec) fits at once.

    A point is a row of _N_COLUMNS raw values; the columns a spec does not
    search are 0.  Per row this is the value of the scalar objective that
    ``tests/ets_oracle.py`` keeps, bit for bit, for any point whose
    recursion errors stay finite.  Each member's parameters are clipped to
    its own box (_clip), and a parameter the spec lacks gets the box
    [0, 0], so it is exactly 0 with no clip distance; a fixed alpha gets
    the box [alpha, alpha] and a distance times 0.  The recursion
    (_Recursion) is the scalar one with per-row multipliers in place of
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
        # A column per series, zero past its end.
        self.Z = np.zeros((self.T, len(groups)))
        for g, z in groups.values():
            self.Z[: z.size, g] = z
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
        self._batches: list[_Batch] = []

    def __call__(self, members, X) -> np.ndarray:
        # Overflow and inf - inf pass silently, as in Python float arithmetic.
        with np.errstate(all="ignore"):
            return self._values(members, X)

    def _gathered(self, members) -> _Batch:
        """The _Batch of the members, made when it is not one of the last two.

        The passes of a lockstep run score the same members until some
        search ends or starts, and a pass that shrinks scores other
        members in between, so two batches are kept.
        """
        batches = self._batches
        for k, batch in enumerate(batches):
            if batch.holds(members):
                if k:
                    batches.reverse()
                return batch
        batch = _Batch(self, members)
        self._batches = [batch, *batches[:1]]
        return batch

    def _values(self, members, X) -> np.ndarray:
        batch = self._gathered(members)
        c = batch.c
        x = np.ascontiguousarray(X.T)
        P = _clip(c, x)
        # Clipping flattens the surface outside the parameter box, which can
        # trap the simplex there; a pull-back on the clip distance restores
        # slope without moving any interior minimum.  Its squares add in the
        # scalar order, alpha to gamma; an absent parameter adds +0.0, which
        # changes no sum.
        dist = np.subtract(x[_ALPHA : _GAMMA + 1], P)
        dist[0] *= c[_FREE]
        square = np.multiply(dist, dist)
        clipped = dist != 0.0
        if np.count_nonzero(clipped):
            np.float_power(dist, 2.0, out=square, where=clipped)
        drift = np.add(square[0], square[1])
        drift += square[2]
        drift += square[3]
        E = batch.recursion(P, np.add(P[2], c[_NOT_DAMPED]), _states(x, batch.seasonal))
        sse = _sse(E, batch.dead)
        sse *= np.add(1.0, drift)
        sse += drift
        return sse


class _FitPlan:
    """Every (series, spec, fixed_alpha) task, as the members of two lockstep runs.

    ``fits`` searches every member from the scalar starting vector
    (tolerances 1e-8 / 1e-10), then polishes from the search's answer
    (1e-10 / 1e-12).  Both runs give a member 200 iterations per searched
    coordinate, and both start from the scalar default simplex around the
    member's point.
    """

    def __init__(self, tasks):
        self.prepared = [_prepare(*task) for task in tasks]
        self.jobs = [job for job in self.prepared if not isinstance(job, Exception)]
        self.dims = np.asarray([len(job.cols) for job in self.jobs], dtype=np.intp)
        self.objective = _SseObjective(self.jobs) if self.jobs else None

    def _run(self, points, xatol, fatol):
        """The best point of every member's search from the default simplex around its row of points."""

        def start(members):
            return [_start_simplex(points[i], self.jobs[i].cols) for i in members.tolist()]

        return _optim.nelder_mead_batch(
            self.objective, start, self.dims, 200 * self.dims, xatol, fatol, width=_optim.BATCH_WIDTH
        )[0]

    def fits(self):
        """The EtsFit of every task, or the error its fit raises, from the search and the polish.

        The errors are fit_ets's: InsufficientDataError for a series too
        short for the spec, ValidationError for a fixed alpha outside
        [0, 1], and NonconvergenceError for a series whose standard
        deviation overflows.
        """
        searched = self._run([job.start for job in self.jobs], 1e-8, 1e-10)
        built = iter(self._built(self._run(searched, 1e-10, 1e-12)))
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
                recursion = _Recursion(obs)
                sse = _sse(recursion(P, P[2] + c[_NOT_DAMPED], states)).tolist()
            rows = zip(members.tolist(), jobs, P.T.tolist(), states.T.tolist(), recursion.final_states().T.tolist(), sse)
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


def fit_ets(series: QuarterlySeries, spec: EtsSpec, fixed_alpha: float | None = None) -> EtsFit:
    """Fit smoothing parameters and initial states by minimizing one-step SSE.

    ``fixed_alpha`` pins the level smoothing weight (test hook for the
    naive and no-update limits); everything else is still optimized.
    """
    (fit,) = _FitPlan([(series, spec, fixed_alpha)]).fits()
    if isinstance(fit, Exception):
        raise fit
    return fit


def spec_grid(trend_choices=TREND_CHOICES, seasonal_choices=SEASONAL_CHOICES) -> list[EtsSpec]:
    return [EtsSpec(t, s) for t in trend_choices for s in seasonal_choices]


def auto_select_ets_many(tasks) -> list:
    """Fit every spec of every (series, specs) task in one search run and one polish run.

    ``specs`` None means the full spec_grid().  Returns, per task, the
    lowest-AICc fit, or the exception auto_select_ets raises for it:
    InsufficientDataError below 8 points or when it has no spec, else,
    when no spec fits, the error of its last spec's fit.  Ties resolve to
    the earlier spec in enumeration order.
    """
    tasks = [(series, spec_grid() if specs is None else list(specs)) for series, specs in tasks]
    short = [
        InsufficientDataError(f"auto selection needs >= 8 points, have {len(series)}") if len(series) < 8 else None
        for series, _ in tasks
    ]
    kept = [task for task, error in zip(tasks, short) if error is None]
    fits = _FitPlan([(series, spec, None) for series, specs in kept for spec in specs]).fits()
    selected = iter(lowest_aicc(
        [specs for _, specs in kept], fits,
        lambda error: error or InsufficientDataError("no ETS spec admissible on this series"),
    ))
    return [next(selected) if error is None else error for error in short]


def auto_select_ets(series: QuarterlySeries, specs: list[EtsSpec] | None = None) -> EtsFit:
    """Fit every admissible spec and return the lowest AICc.

    Ties resolve to the earlier spec in enumeration order.  The (none, none)
    spec fits every series of at least 8 points whose standard deviation
    is finite.  A shorter series raises InsufficientDataError; on a series
    whose standard deviation overflows, no spec fits and this raises
    fit_ets's NonconvergenceError, which names the series.
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
