"""Minimal Nelder-Mead simplex search, one at a time or many in lockstep.

Kept in-tree because the fitting loops evaluate tiny objectives millions
of times.  ``nelder_mead_batch`` runs many searches as numpy arrays, each
with the bits of the textbook scalar search; ``nelder_mead`` is its
one-search call.  Each fitting module runs its own searches as one such
run, at most ``BATCH_WIDTH`` at once; a module that searches twice (the
ETS polish) makes two runs.  The update rules are the textbook ones
(reflect 1, expand 2, contract 1/2, shrink 1/2) and the whole search is
deterministic.
"""

from __future__ import annotations

import numpy as np

# Searches run at once in a lockstep run.  Fixed, not a setting: results do
# not depend on it, only time and memory do (see the README's window-fit
# section).
BATCH_WIDTH = 512

# Widest batch whose columns _column_sums folds with one np.add.accumulate
# call: that costs about 60 ns a column, while a row-by-row loop costs
# about 0.4 us a row whatever the width.  Either is the same left fold.
_ACCUMULATE_COLUMNS = 128


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
        lambda members: [simplex], [n], maxiter, xatol, fatol,
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
    ``start(members)`` returns the starting simplex of each given member,
    a (dims[m] + 1, N) array; the coordinates a member does not search
    must be 0 in all its vertices (they stay 0).
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
    n_dims = first[0].shape[1]
    best_x = np.empty((n_members, n_dims))
    best_f = np.empty(n_members)
    iterations = np.empty(n_members, dtype=np.intp)

    # The searches in progress are rows 0..m-1, kept in order of falling
    # dimension.  Their simplexes are stored vertex-major, S[j, r] being
    # vertex j of row r, so that one vertex of every row is one contiguous
    # block, and F[j, r] is its value: a flat position j * width + r
    # indexes both.  Each row also has its member, dimension, iteration
    # count, cap and tolerances.  Sorting and dropping ended searches
    # gather into the spare buffers, which then swap in.
    S = np.empty((n_vertices, width, n_dims))
    S_spare = np.empty_like(S)
    F, F_spare = np.empty((n_vertices, width)), np.empty((n_vertices, width))
    centroid = np.empty((width, n_dims))
    row_ints = np.zeros((4, width), dtype=np.intp)
    ids, dim, nit, cap = row_ints
    row_tols = np.empty((2, width))
    xtol, ftol = row_tols
    slots = np.arange(n_vertices)
    m = queued = 0

    def layout():
        """What a pass needs of the current rows, made when rows start or end.

        Row numbers; dimensions, one per coordinate of every row; the
        flat positions of every row's worst and second worst vertex; for
        the spread test, the flat position of every vertex slot of every
        row, with the padding slots at its slot 0; which
        vertices a shrink moves (a row of rows by a column of slots); the
        positions of every row's worst vertex among the five points of a
        pass; the members of the four trial points; and the centroid's
        blocks in S and in S_spare (see _centroid), valid once rows are in
        order of falling dimension.
        """
        rows = np.arange(m)
        d = dim[:m]
        worst_at = d * width + rows
        members = np.empty((4, m), dtype=np.intp)
        members[:] = ids[:m]
        with_vertex = np.searchsorted(-d, -slots, side="left").tolist()

        def blocks(buffer):
            pairs = [(centroid[:k], buffer[j, :k]) for j, k in enumerate(with_vertex) if j and k]
            return buffer[0, :m], centroid[:m], pairs

        dims = np.empty((m, n_dims))
        dims[:] = d[:, None]
        spread_at = np.where(slots[:, None] <= d, slots[:, None], 0) * width + rows
        return (rows, dims, worst_at, worst_at - width, spread_at, (slots >= 1) & (slots <= d[:, None]),
                rows + 4 * m, members.reshape(-1), blocks(S), blocks(S_spare))

    # inf - inf (a value spread with every vertex infeasible) is NaN, which
    # passes no tolerance, as the scalar search's inf spread does not.
    with np.errstate(invalid="ignore"):
        while True:
            free = width - m
            admitted = queued < n_members and (m == 0 or 4 * free >= width)
            if admitted:
                lo, m = m, m + min(free, n_members - queued)
                new = np.arange(queued, queued + m - lo)
                # Vertices beyond a member's simplex are padding, held at 0
                # with NaN values, which sort last; no centroid, spread test
                # or shrink reads them.
                S[:, lo:m] = 0.0
                for row, simplex in enumerate(first if first is not None else start(new), start=lo):
                    S[: len(simplex), row] = simplex
                first = None
                ids[lo:m], cap[lo:m], xtol[lo:m], ftol[lo:m] = new, caps[new], xtols[new], ftols[new]
                queued += m - lo
                dim[lo:m] = all_dims[ids[lo:m]]
                nit[lo:m] = 0
                F[:, lo:m] = np.nan
                r, c = (slots <= dim[lo:m, None]).nonzero()
                F[c, lo + r] = f(ids[lo + r], S[c, lo + r])
                (rows, dims, worst_at, second_at, spread_at, moves, worst_of_five, members4,
                 blocks, spare_blocks) = layout()
            if m == 0:
                break

            # Sort every row's vertex values (stable, so NaN goes last): at[j, r]
            # is the flat position of row r's j-th best vertex.
            at = F[:, :m].argsort(axis=0, kind="stable")
            at *= width
            at += rows
            F.take(at, out=F_spare[:, :m], mode="clip")
            F, F_spare = F_spare, F

            # End the searches that have reached their cap or converged: the
            # value spread, and where it passes, the coordinate spread of the
            # real vertices against the best (a padding slot stands in for
            # slot 0, a real vertex that counts anyway).
            fspread = F.take(worst_at) - F[0, :m]
            done = nit[:m] >= cap[:m]
            near = ((fspread <= ftol[:m]) & ~done).nonzero()[0]
            S_flat = S.reshape(-1, n_dims)
            if near.size:
                spread = S_flat.take(spread_at.take(near, axis=1), axis=0)
                spread -= S_flat.take(at[0].take(near), axis=0)
                np.abs(spread, spread)
                spread = np.maximum.reduce(np.maximum.reduce(spread, axis=0), axis=1)
                done[near] = spread <= xtol.take(near)
            # Gather the simplexes in sorted order; when searches end or
            # start, only the rows that go on, in order of falling dimension.
            if admitted or np.count_nonzero(done):
                ended = done.nonzero()[0]
                out = ids[ended]
                best_x[out] = S_flat.take(at[0].take(ended), axis=0)
                best_f[out] = F[0, ended]
                iterations[out] = nit[ended]
                keep = (~done).nonzero()[0]
                if admitted:
                    keep = keep[(-dim[keep]).argsort(kind="stable")]
                m = keep.size
                row_ints[:, :m] = row_ints[:, keep]
                row_tols[:, :m] = row_tols[:, keep]
                S_flat.take(at.take(keep, axis=1), axis=0, out=S_spare[:, :m], mode="clip")
                F.take(keep, axis=1, out=F_spare[:, :m], mode="clip")
                S, S_spare, F, F_spare = S_spare, S, F_spare, F
                (rows, dims, worst_at, second_at, spread_at, moves, worst_of_five, members4,
                 blocks, spare_blocks) = layout()
                if not m:
                    continue
            else:
                S_flat.take(at, axis=0, out=S_spare[:, :m], mode="clip")
                S, S_spare = S_spare, S
                blocks, spare_blocks = spare_blocks, blocks

            # One Nelder-Mead step of every row, its trial points in one
            # evaluation.  Trial points 0-3 of every row: reflection,
            # expansion, inside and outside contraction; the later ones are
            # discarded where the scalar search would not have reached them.
            # Point 4 is the worst vertex, which a row keeps when it shrinks.
            points = np.empty((5, m, n_dims))
            worst = points[4]
            S.reshape(-1, n_dims).take(worst_at, axis=0, out=worst)
            np.multiply(_CENTROID_WEIGHT, _centroid(*blocks, dims), out=points[:4])
            points[:4] -= _WORST_WEIGHT * worst
            values = np.concatenate([f(members4, points[:4].reshape(-1, n_dims)), F.take(worst_at)]).reshape(5, m)
            fr, fe, fworst = values[0], values[1], values[4]

            # The point each row keeps, the one the scalar search would: the
            # expansion (1) when the reflection beat the best vertex and the
            # expansion beat it, else the reflection (0) when that beat the
            # second worst vertex, else a contraction, toward the reflection
            # (2) when that beat the worst vertex and toward the worst (3)
            # otherwise.  The contraction fails, and the simplex shrinks,
            # unless it beats the better of the two.
            expand = fr < F[0, :m]
            reflect = expand | (fr < F.take(second_at))
            toward_reflection = fr < fworst
            kept = np.where(reflect, expand & (fe < fr), 3 - toward_reflection)
            kept *= m
            kept += rows
            shrink = ~(reflect | (values.take(kept) < np.where(toward_reflection, fr, fworst)))
            nit[:m] += 1
            np.copyto(kept, worst_of_five, where=shrink)
            S.reshape(-1, n_dims)[worst_at] = points.reshape(-1, n_dims).take(kept, axis=0)
            F.put(worst_at, values.take(kept))
            # A shrink moves every vertex but the best halfway toward it, and
            # scores them at once, as the scalar search does.
            if np.count_nonzero(shrink):
                r, j = (shrink[:, None] & moves).nonzero()
                moved_at = j * width + r
                S_flat = S.reshape(-1, n_dims)
                moved = S_flat.take(moved_at, axis=0)
                moved += S[0].take(r, axis=0)
                moved *= 0.5
                S_flat[moved_at] = moved
                F.put(moved_at, f(ids.take(r), moved))

    return best_x, best_f, iterations


# Trial point k is _CENTROID_WEIGHT[k] * centroid - _WORST_WEIGHT[k] * worst:
# 2c - w, 3c - 2w, 1.5c - 0.5w, and 0.5c - (-0.5w), which is 0.5c + 0.5w
# exactly (subtracting a negated product is adding it).
_CENTROID_WEIGHT = np.array([2.0, 3.0, 1.5, 0.5])[:, None, None]
_WORST_WEIGHT = np.array([1.0, 2.0, 0.5, -0.5])[:, None, None]


def _centroid(first, out, blocks, dims):
    """The centroid of each row's ``dims`` best vertices, one pass's worth, into out.

    0.0 + v_0 + v_1 + ... + v_{n-1}, then / n, as the scalar search sums
    it.  ``first`` holds every row's best vertex, and ``blocks`` pairs,
    for each later vertex j, the rows of out that have vertex j with
    those rows' vertex j.  The rows come in order of falling ``dims``, so
    the rows with vertex j are the first ones and each add is one
    contiguous block.
    """
    np.add(first, 0.0, out)
    for rows, vertex in blocks:
        np.add(rows, vertex, rows)
    np.divide(out, dims, out)
    return out


def _column_sums(E) -> np.ndarray:
    """Each column of E added in sequence, first row to last: a left fold.

    The scalar fits add their squared errors this way.  np.add.reduce
    adds a one-column batch (as a shrink step often scores) pairwise from
    8 rows on, so it is not used.
    """
    if E.shape[1] <= _ACCUMULATE_COLUMNS:
        return np.add.accumulate(E, axis=0)[-1]
    total = E[0].copy()
    for row in E[1:]:
        np.add(total, row, total)
    return total
