"""Minimal Nelder-Mead simplex search, one at a time or many in lockstep.

Kept in-tree because the fitting loops evaluate tiny objectives millions
of times.  ``nelder_mead_batch`` runs many searches as numpy arrays, each
with the bits of the textbook scalar search; ``nelder_mead`` is its
one-search call, and ``run_plan`` runs the searches of one fitting
module (its plan) as one such run; a module that searches twice (the
ETS polish) calls it twice.  The update rules are the textbook ones
(reflect 1, expand 2, contract 1/2, shrink 1/2) and the whole search is
deterministic.
"""

from __future__ import annotations

import numpy as np

# Searches run at once in a lockstep run.  Fixed, not a setting: results do
# not depend on it, only time and memory do (see the README's window-fit
# section).
BATCH_WIDTH = 512


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
    Without ``initial_simplex`` each coordinate of ``x0`` steps by 5% (from
    zero, to 0.00025).  This is ``nelder_mead_batch`` with one member, so
    ``f`` (called with a list of floats) must be pure.
    """
    x0 = [float(v) for v in x0]
    n = len(x0)
    if n == 0:
        return x0, f(x0), 0
    if initial_simplex is not None:
        simplex = np.array(initial_simplex, dtype=float)
    else:
        simplex = _start_simplex(np.asarray(x0), range(n))
    best_x, best_f, nit = nelder_mead_batch(
        lambda members, points: np.array([f(point) for point in points.tolist()], dtype=float),
        lambda members: simplex[None], [n], maxiter, xatol, fatol,
    )
    return best_x[0].tolist(), float(best_f[0]), int(nit[0])


def _start_simplex(point, cols) -> np.ndarray:
    """The default simplex around point: vertex k steps coordinate cols[k - 1] by 5% (from zero, to 0.00025)."""
    simplex = np.empty((1 + len(cols), len(point)))
    simplex[:] = point
    for k, c in enumerate(cols, start=1):
        v = float(point[c])
        simplex[k, c] = v * 1.05 if v != 0.0 else 0.00025
    return simplex


def nelder_mead_batch(f, start, dims, maxiter=500, xatol=1e-4, fatol=1e-8, width: int | None = None):
    """Run many independent Nelder-Mead searches in lockstep.

    Member m searches in ``dims[m]`` (at least 1) of the N coordinates.
    With V one more than the largest ``dims``, ``start(members)`` returns
    the starting simplexes of the given members as a (len(members), V, N)
    array: member m uses its first ``dims[m] + 1`` vertices, and the
    coordinates it does not search must be 0 in all of them (they stay 0).
    ``f(members, points)`` evaluates the objective of member ``members[k]``
    at ``points[k]`` (an (N,) row whose unused coordinates are 0) and
    returns one value per row; it must be a pure function, because each
    iteration scores all four trial points (reflection, expansion, both
    contractions) at once and keeps those the scalar search would have
    evaluated.  ``maxiter``, ``xatol`` and ``fatol`` are one value for
    every member or one per member.

    At most ``width`` members (default: all) search at once.  A member
    leaves as soon as its search ends; once a quarter of the places are
    free, the next members in order take them.  Memory therefore scales
    with ``width``, not with the number of members.

    Each pass is one iteration of every search in progress.  It calls
    ``f`` once with the trial points of every search and, when some
    searches shrink, once more with the vertices their shrink steps moved.
    A pass that admits members scores their simplexes in one more call
    first.  So with ``width`` at least the number of members, a run takes
    as many passes as its longest search has iterations.

    Returns (best_x (M, N), best_f (M,), iterations (M,)): the best point,
    value and iteration count of each member's search.  Each search
    performs exactly the float operations of the list-based scalar search
    (``tests/arima_oracle.py`` keeps it as the reference) started from its
    simplex (restricted to the coordinates it searches), in the same order,
    so its results are bitwise the same as the scalar search's, provided
    the objective never returns NaN: Python's sort does not order NaN,
    while the stable sort here puts it last.  The vertices beyond a member's ``dims[m] + 1`` hold NaN values,
    so they sort after every real vertex; they are masked out of the
    spread, the centroid and the shrink step.
    """
    all_dims = np.asarray(dims, dtype=np.intp)
    n_members = all_dims.size
    if not n_members:
        return np.empty((0, 0)), np.empty(0), np.empty(0, dtype=np.intp)
    if all_dims.min() < 1:
        raise ValueError("every member needs at least one dimension")
    n_vertices = int(all_dims.max()) + 1
    caps = np.broadcast_to(np.asarray(maxiter, dtype=np.intp), (n_members,))
    xtols = np.broadcast_to(np.asarray(xatol, dtype=float), (n_members,))
    ftols = np.broadcast_to(np.asarray(fatol, dtype=float), (n_members,))
    width = n_members if width is None else max(1, min(int(width), n_members))
    first = start(np.arange(width))
    n_dims = first.shape[2]
    best_x = np.empty((n_members, n_dims))
    best_f = np.empty(n_members)
    iterations = np.empty(n_members, dtype=np.intp)

    # The searches in progress are rows 0..m-1, kept in order of falling
    # dimension.  Their simplexes are stored vertex-major, S[j, r] being
    # vertex j of row r, so that one vertex of every row is one contiguous
    # block; F[r, j] is its value.  Each row also has its member,
    # dimension, iteration count, cap and tolerances.  Sorting and dropping
    # ended searches gather into the spare buffers, which then swap in.
    S = np.empty((n_vertices, width, n_dims))
    S_spare = np.empty_like(S)
    F, F_spare = np.empty((width, n_vertices)), np.empty((width, n_vertices))
    row_ints = np.zeros((4, width), dtype=np.intp)
    ids, dim, nit, cap = row_ints
    row_tols = np.empty((2, width))
    xtol, ftol = row_tols
    slots = np.arange(n_vertices)
    m = queued = 0

    def layout():
        """Index arrays of the current rows: row numbers, dimensions, flat
        offsets of rows in F, flat positions of the worst and second worst
        values in F and of the worst vertex in S, which vertex slots are
        padding, how many rows have each vertex (valid once rows are in
        order of falling dimension), and the members of the four trial
        points."""
        rows = np.arange(m)
        d = dim[:m]
        at = rows * n_vertices
        worst_at = at + d
        members = np.empty((4, m), dtype=np.intp)
        members[:] = ids[:m]
        return (rows, d, at[:, None], worst_at, worst_at - 1, d * width + rows, slots[:, None] > d,
                np.searchsorted(-d, -slots, side="left").tolist(), members.reshape(-1))

    # inf - inf (a value spread with every vertex infeasible) is NaN, which
    # passes no tolerance, as the scalar search's inf spread does not.
    with np.errstate(invalid="ignore"):
        while True:
            free = width - m
            admitted = queued < n_members and (m == 0 or 4 * free >= width)
            if admitted:
                lo, m = m, m + min(free, n_members - queued)
                new = np.arange(queued, queued + m - lo)
                S[:, lo:m] = (first if first is not None else start(new)).transpose(1, 0, 2)
                first = None
                ids[lo:m], cap[lo:m], xtol[lo:m], ftol[lo:m] = new, caps[new], xtols[new], ftols[new]
                queued += m - lo
                dim[lo:m] = all_dims[ids[lo:m]]
                nit[lo:m] = 0
                F[lo:m] = np.nan
                r, c = np.nonzero(slots <= dim[lo:m, None])
                F[lo + r, c] = f(ids[lo + r], S[c, lo + r])
                rows, d, at, worst_at, second_at, worst_in_s, padding, with_vertex, members4 = layout()
            if m == 0:
                break

            # Sort every row's vertices by value (stable, so NaN goes last);
            # end the searches that have converged or reached their cap;
            # gather the rest, sorted, into the front rows, in order of
            # falling dimension.
            order = np.argsort(F[:m], axis=1, kind="stable")
            Fs = F_spare[:m]
            np.take(F, order + at, out=Fs, mode="clip")
            fspread = Fs.take(worst_at) - Fs[:, 0]
            done = nit[:m] >= cap[:m]
            # The coordinate spread (over the real vertices, against the best)
            # is needed only where the value spread passes.
            near = ((fspread <= ftol[:m]) & ~done).nonzero()[0]
            if near.size:
                diff = np.abs(S[:, near] - S[order[near, 0], near])
                diff[padding[:, near]] = 0.0
                done[near] = diff.max(axis=(0, 2)) <= xtol[near]
            if admitted or done.any():
                ended = done.nonzero()[0]
                out = ids[ended]
                best_x[out] = S[order[ended, 0], ended]
                best_f[out] = Fs[ended, 0]
                iterations[out] = nit[ended]
                keep = (~done).nonzero()[0]
                if admitted:
                    keep = keep[np.argsort(-d[keep], kind="stable")]
                m = keep.size
                F[:m] = Fs[keep]
                row_ints[:, :m] = row_ints[:, keep]
                row_tols[:, :m] = row_tols[:, keep]
                order = order[keep]
                np.take(S.reshape(-1, n_dims), order.T * width + keep, axis=0, out=S_spare[:, :m], mode="clip")
                rows, d, at, worst_at, second_at, worst_in_s, padding, with_vertex, members4 = layout()
            else:
                np.take(S.reshape(-1, n_dims), order.T * width + rows, axis=0, out=S_spare[:, :m], mode="clip")
                F, F_spare = F_spare, F
            S, S_spare = S_spare, S
            if not m:
                continue

            # One Nelder-Mead step of every row, its trial points in one
            # evaluation.  Trial points 0-3 of every row: reflection,
            # expansion, inside and outside contraction; the later ones are
            # discarded where the scalar search would not have reached them.
            # Point 4 is the worst vertex, which a row keeps when it shrinks.
            points = np.empty((5, m, n_dims))
            worst = points[4]
            np.take(S.reshape(-1, n_dims), worst_in_s, axis=0, out=worst)
            np.multiply(_CENTROID_WEIGHT, _centroid(S, m, d, with_vertex), out=points[:4])
            points[:4] -= _WORST_WEIGHT * worst
            fworst = F.take(worst_at)
            values = np.concatenate([f(members4, points[:4].reshape(-1, n_dims)), fworst]).reshape(5, m)
            fr, fe = values[0], values[1]

            # The point each row keeps: the one the scalar search would.
            expand = fr < F[:m, 0]
            contract = ~(expand | (fr < F.take(second_at)))
            # A contraction toward the reflection (2) when that beat the worst
            # vertex, else toward the worst (3); it fails, and the simplex
            # shrinks, unless it beats the better of the two.
            toward_reflection = fr < fworst
            pick = np.where(contract, np.where(toward_reflection, 2, 3), expand & (fe < fr))
            shrink = contract & ~(values[pick, rows] < np.where(toward_reflection, fr, fworst))
            nit[:m] += 1
            pick[shrink] = 4
            S.reshape(-1, n_dims)[worst_in_s] = points[pick, rows]
            F.reshape(-1)[worst_at] = values[pick, rows]
            # A shrink moves every vertex but the best halfway toward it, and
            # scores them at once, as the scalar search does.
            if shrink.any():
                r, j = np.nonzero(shrink[:, None] & (slots >= 1) & (slots <= d[:, None]))
                moved = 0.5 * (S[j, r] + S[0, r])
                S[j, r] = moved
                F[r, j] = f(ids[r], moved)

    return best_x, best_f, iterations


# Trial point k is _CENTROID_WEIGHT[k] * centroid - _WORST_WEIGHT[k] * worst:
# 2c - w, 3c - 2w, 1.5c - 0.5w, and 0.5c - (-0.5w), which is 0.5c + 0.5w
# exactly (subtracting a negated product is adding it).
_CENTROID_WEIGHT = np.array([2.0, 3.0, 1.5, 0.5])[:, None, None]
_WORST_WEIGHT = np.array([1.0, 2.0, 0.5, -0.5])[:, None, None]


def _centroid(S, m, dims, with_vertex):
    """The centroid of each row's ``dims`` best vertices, one pass's worth.

    0.0 + v_0 + v_1 + ... + v_{n-1}, then / n, as the scalar search sums
    it.  The rows come in order of falling ``dims``: the first
    ``with_vertex[j]`` of them have vertex j, so each add is one
    contiguous block.
    """
    centroid = S[0, :m] + 0.0
    for j in range(1, len(with_vertex)):
        k = with_vertex[j]
        if not k:
            break
        centroid[:k] += S[j, :k]
    centroid /= dims[:, None]
    return centroid


def run_plan(plan):
    """Search every member of a plan in one ``nelder_mead_batch`` run.

    A plan is the searches of one fitting module.  It has, per member,
    ``dims``, ``maxiter``, ``xatol`` and ``fatol`` (an array, or one value
    for all); members are numbered 0..  ``objective(members, points)`` is
    ``nelder_mead_batch``'s ``f``, and ``start(members)`` returns each
    member's starting simplex as a (dims + 1, N) array, with the same N
    columns for every member.  The simplexes are padded to the run's
    vertex count, and at most ``BATCH_WIDTH`` members search at once.
    Returns ``nelder_mead_batch``'s (best_x (M, N), best_f, iterations).
    """
    dims = np.asarray(plan.dims, dtype=np.intp)
    n_vertices = int(dims.max(initial=0)) + 1

    def start(members):
        simplexes = plan.start(members)
        out = np.zeros((len(simplexes), n_vertices, simplexes[0].shape[1]))
        for padded, simplex in zip(out, simplexes):
            padded[: simplex.shape[0]] = simplex
        return out

    return nelder_mead_batch(
        plan.objective, start, dims, plan.maxiter, plan.xatol, plan.fatol, width=BATCH_WIDTH
    )
