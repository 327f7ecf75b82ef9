"""Minimal Nelder-Mead simplex search, one at a time or many in lockstep.

Kept in-tree because the fitting loops evaluate tiny objectives millions
of times.  ``nelder_mead`` is a list-based simplex, which avoids
per-iteration array overhead for one search; ``nelder_mead_batch`` runs
many searches as numpy arrays and gives each the bits ``nelder_mead``
would, and ``run_plans`` puts the searches of several fitting modules
(their plans) into one such run.  The update rules are the
textbook ones (reflect 1, expand 2, contract 1/2, shrink 1/2) and the
whole search is deterministic.
"""

from __future__ import annotations

import numpy as np

_INF = float("inf")

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


def nelder_mead_batch(f, start, dims, maxiter=500, xatol=1e-4, fatol=1e-8,
                      width: int | None = None, then=None):
    """Run many independent ``nelder_mead`` searches in lockstep.

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

    ``then(member, x, fun)``, when given, is called as each search ends,
    with the search's best point (an (N,) row) and value.  It returns None
    to end the member there, or ``(simplex, maxiter, xatol, fatol)`` to
    continue it with a follow-on search from that (V, N) simplex.  The
    follow-on takes the ended search's place in the same pass, ahead of
    every queued member.

    At most ``width`` members (default: all) search at once.  A member
    leaves as soon as its last search ends; once a quarter of the places
    are free, the next members in order take them.  Memory therefore
    scales with ``width``, not with the number of members.

    Each pass calls ``f`` once, with the trial points of every search and
    the vertices the previous pass's shrink steps moved: a search that
    shrinks sits out one pass while those are scored.  A pass that starts
    searches (fresh members or follow-ons) scores their simplexes in one
    more call first.  So with ``width`` at least the number of members, a
    run takes as many passes as its longest chain of searches has
    iterations plus shrink steps.

    Returns (best_x (M, N), best_f (M,), iterations (M,)): the best point
    and value of each member's last search, and its iterations summed over
    its searches.  Each search performs exactly the float operations of
    ``nelder_mead`` started from its simplex (restricted to the coordinates
    it searches), in the same order, so its results are bitwise the same
    as the scalar search's, provided the objective never returns NaN:
    Python's sort does not order NaN, while the stable sort here puts it
    last.  The vertices beyond a member's ``dims[m] + 1`` hold NaN values,
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
    iterations = np.zeros(n_members, dtype=np.intp)

    # The searches in progress are rows 0..m-1, kept in order of falling
    # dimension.  Their simplexes are stored vertex-major, S[j, r] being
    # vertex j of row r, so that one vertex of every row is one contiguous
    # block; F[r, j] is its value.  Each row also has its member,
    # dimension, iteration count, cap, tolerances and a flag for a shrink
    # step whose vertices still await their values.  Sorting and dropping
    # ended searches gather into the spare buffers, which then swap in.
    S = np.empty((n_vertices, width, n_dims))
    S_spare = np.empty_like(S)
    F, F_spare = np.empty((width, n_vertices)), np.empty((width, n_vertices))
    row_ints = np.zeros((5, width), dtype=np.intp)
    ids, dim, nit, cap, wait = row_ints
    row_tols = np.empty((2, width))
    xtol, ftol = row_tols
    slots = np.arange(n_vertices)
    m = queued = 0
    follow = []  # follow-on searches waiting for the next admission
    waiting = False  # whether some row's shrunk vertices await their values

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
            free = width - m - len(follow)
            fresh = 0
            if queued < n_members and (m + len(follow) == 0 or 4 * free >= width):
                fresh = min(free, n_members - queued)
            admitted = bool(follow or fresh)
            if admitted:
                lo = m
                for member, simplex, *limits in follow:
                    S[:, m] = simplex
                    ids[m] = member
                    cap[m], xtol[m], ftol[m] = limits
                    m += 1
                follow = []
                if fresh:
                    new = np.arange(queued, queued + fresh)
                    S[:, m : m + fresh] = (first if first is not None else start(new)).transpose(1, 0, 2)
                    first = None
                    ids[m : m + fresh], cap[m : m + fresh] = new, caps[new]
                    xtol[m : m + fresh], ftol[m : m + fresh] = xtols[new], ftols[new]
                    queued += fresh
                    m += fresh
                dim[lo:m] = all_dims[ids[lo:m]]
                nit[lo:m] = wait[lo:m] = 0
                F[lo:m] = np.nan
                r, c = np.nonzero(slots <= dim[lo:m, None])
                F[lo + r, c] = f(ids[lo + r], S[c, lo + r])
                rows, d, at, worst_at, second_at, worst_in_s, padding, with_vertex, members4 = layout()
            if m == 0:
                break

            # Sort every row's vertices by value (stable, so NaN goes last),
            # except a row whose shrunk vertices are not scored yet; end the
            # searches that have converged or reached their cap; gather the
            # rest, sorted, into the front rows, in order of falling
            # dimension.
            order = np.argsort(F[:m], axis=1, kind="stable")
            if waiting:
                order[wait[:m] == 1] = slots
            Fs = F_spare[:m]
            np.take(F, order + at, out=Fs, mode="clip")
            fspread = Fs.take(worst_at) - Fs[:, 0]
            done = nit[:m] >= cap[:m]
            if waiting:
                ready = wait[:m] == 0
                done &= ready
                fspread[~ready] = _INF
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
                iterations[out] += nit[ended]
                if then is not None:
                    for member in out.tolist():
                        nxt = then(member, best_x[member], float(best_f[member]))
                        if nxt is not None:
                            follow.append((member, *nxt))
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
            if follow or not m:
                continue

            # One Nelder-Mead step of every ready row, and the values of the
            # vertices the last pass's shrink steps moved, in one evaluation.
            # Trial points 0-3 of every row: reflection, expansion, inside and
            # outside contraction; the later ones are discarded where the
            # scalar search would not have reached them.  Point 4 is the
            # worst vertex, which a row keeps when it shrinks or waits.
            points = np.empty((5, m, n_dims))
            worst = points[4]
            np.take(S.reshape(-1, n_dims), worst_in_s, axis=0, out=worst)
            np.multiply(_CENTROID_WEIGHT, _centroid(S, m, d, with_vertex), out=points[:4])
            points[:4] -= _WORST_WEIGHT * worst
            members, trials = members4, points[:4].reshape(-1, n_dims)
            if waiting:
                pr, pj = np.nonzero((wait[:m, None] == 1) & (slots >= 1) & (slots <= d[:, None]))
                members = np.concatenate([members, ids[pr]])
                trials = np.concatenate([trials, S[pj, pr]])
            values = f(members, trials)
            if waiting:
                F[pr, pj] = values[4 * m :]
            fworst = F.take(worst_at)
            values = np.concatenate([values[: 4 * m], fworst]).reshape(5, m)
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
            if waiting:
                ready = wait[:m] == 0
                shrink &= ready
                pick[~ready] = 4
                nit[:m] += ready
            else:
                nit[:m] += 1
            pick[shrink] = 4
            S.reshape(-1, n_dims)[worst_in_s] = points[pick, rows]
            F.reshape(-1)[worst_at] = values[pick, rows]
            waiting = bool(shrink.any())
            wait[:m] = shrink
            if waiting:
                r, j = np.nonzero(shrink[:, None] & (slots >= 1) & (slots <= d[:, None]))
                S[j, r] = 0.5 * (S[j, r] + S[0, r])

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


def run_plans(plans) -> list:
    """Search every member of every plan in one ``nelder_mead_batch`` run.

    A plan is the searches one fitting module submits.  It has
    ``n_columns`` coordinates and, per member, ``dims``, ``maxiter``,
    ``xatol`` and ``fatol`` (an array, or one value for all); members are
    numbered 0.. within the plan.  ``objective(members, points)`` is
    ``nelder_mead_batch``'s ``f`` over the plan's own columns,
    ``start(members)`` returns each member's starting simplex as a
    (dims + 1, n_columns) array, and ``then(member, x, fun)`` is
    ``nelder_mead_batch``'s ``then`` with such a simplex.

    Members queue plan by plan, in the order given, so the plan with the
    longest chains of searches should come first.  The objective is a
    dispatcher: it hands each plan the rows of its own members, restricted
    to its columns.  Returns, per plan, (best_x, best_f, iterations) of
    its members, with the plan's columns only.
    """
    sizes = [len(plan.dims) for plan in plans]
    offsets = np.cumsum([0] + sizes)
    owner = np.repeat(np.arange(len(plans)), sizes)
    n_columns = max(plan.n_columns for plan in plans)

    def per_member(name):
        return np.concatenate([np.broadcast_to(getattr(plan, name), (n,)) for plan, n in zip(plans, sizes)])

    dims = per_member("dims").astype(np.intp)
    n_vertices = int(dims.max(initial=0)) + 1

    def padded(simplexes):
        out = np.zeros((len(simplexes), n_vertices, n_columns))
        for row, simplex in zip(out, simplexes):
            row[: simplex.shape[0], : simplex.shape[1]] = simplex
        return out

    split = [None, []]  # the last members array f saw, and its rows and members per plan

    def f(ids, points):
        if split[0] is not ids:
            kinds = owner[ids]
            split[:] = ids, []
            for k, plan in enumerate(plans):
                rows = (kinds == k).nonzero()[0]
                if rows.size:
                    split[1].append((plan, rows, ids.take(rows) - offsets[k]))
        if len(split[1]) == 1:
            ((plan, _, members),) = split[1]
            return plan.objective(members, points[:, : plan.n_columns])
        out = np.empty(len(ids))
        for plan, rows, members in split[1]:
            out[rows] = plan.objective(members, points.take(rows, axis=0)[:, : plan.n_columns])
        return out

    def start(ids):
        kinds = owner[ids]
        out = np.empty((len(ids), n_vertices, n_columns))
        for k, plan in enumerate(plans):
            rows = (kinds == k).nonzero()[0]
            if rows.size:
                out[rows] = padded(plan.start(ids[rows] - offsets[k]))
        return out

    def then(member, x, fun):
        k = owner[member]
        follow_on = plans[k].then(member - offsets[k], x[: plans[k].n_columns], fun)
        if follow_on is None:
            return None
        simplex, *limits = follow_on
        return (padded([simplex])[0], *limits)

    best_x, best_f, iterations = nelder_mead_batch(
        f, start, dims, maxiter=per_member("maxiter"), xatol=per_member("xatol"),
        fatol=per_member("fatol"), width=BATCH_WIDTH, then=then,
    )
    return [
        (best_x[lo:hi, : plan.n_columns].reshape(hi - lo, plan.n_columns), best_f[lo:hi], iterations[lo:hi])
        for plan, lo, hi in zip(plans, offsets[:-1], offsets[1:])
    ]
