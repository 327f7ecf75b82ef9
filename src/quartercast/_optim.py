"""Minimal Nelder-Mead simplex search, one at a time or many in lockstep.

Kept in-tree because the fitting loops evaluate tiny objectives millions
of times.  ``nelder_mead`` is a list-based simplex, which avoids
per-iteration array overhead for one search; ``nelder_mead_batch`` runs
many searches as numpy arrays and gives each the bits ``nelder_mead``
would.  The update rules are the textbook ones (reflect 1, expand 2,
contract 1/2, shrink 1/2) and the whole search is deterministic.
"""

from __future__ import annotations

import numpy as np

_INF = float("inf")

# Searches run at once in a fitting module's lockstep batch.  Fixed, not a
# setting: results do not depend on it, only time and memory do (see the
# README's window-fit section).
BATCH_WIDTH = 256


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


def nelder_mead_batch(f, start, dims, maxiter=500, xatol: float = 1e-4, fatol: float = 1e-8,
                      width: int | None = None):
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
    evaluated.  ``maxiter`` is one cap for every member or one per member.

    At most ``width`` members (default: all) search at once.  A member
    leaves as soon as it finishes; once a quarter of the places are free,
    the next members in order take them.  Memory therefore scales with
    ``width``, not with the number of members.

    Returns (best_x (M, N), best_f (M,), iterations (M,)).  Each member
    performs exactly the float operations of ``nelder_mead`` started from
    its simplex (restricted to the coordinates it searches), in the same
    order, so its results are bitwise the same as the scalar search's,
    provided the objective never returns NaN: Python's sort does not order
    NaN, while the stable argsort here puts it last.  The vertices beyond a
    member's ``dims[m] + 1`` hold NaN values, so they sort after every real
    vertex; they are masked out of the spread, the centroid and the shrink
    step.
    """
    all_dims = np.asarray(dims, dtype=np.intp)
    n_members = all_dims.size
    if not n_members:
        return np.empty((0, 0)), np.empty(0), np.empty(0, dtype=np.intp)
    if all_dims.min() < 1:
        raise ValueError("every member needs at least one dimension")
    n_vertices = int(all_dims.max()) + 1
    all_maxit = np.broadcast_to(np.asarray(maxiter, dtype=np.intp), (n_members,))
    width = n_members if width is None else max(1, min(int(width), n_members))
    first = start(np.arange(width))
    n_dims = first.shape[2]
    best_x = np.empty((n_members, n_dims))
    best_f = np.empty(n_members)
    iterations = np.empty(n_members, dtype=np.intp)

    # Active members' simplexes and values; sorting and dropping finished
    # members gather into the spare buffers, which then swap in.
    S, S_spare = np.empty((width, n_vertices, n_dims)), np.empty((width, n_vertices, n_dims))
    F, F_spare = np.empty((width, n_vertices)), np.empty((width, n_vertices))
    slots = np.arange(n_vertices)
    ids = np.empty(0, dtype=np.intp)
    nit = np.empty(0, dtype=np.intp)
    queued = 0

    def gather(picks):
        """The vertex slots ``picks`` (flat indices) become the front rows."""
        nonlocal S, F, S_spare, F_spare
        k = picks.size // n_vertices
        np.take(S.reshape(-1, n_dims), picks, axis=0, out=S_spare[:k].reshape(-1, n_dims), mode="clip")
        np.take(F.reshape(-1), picks, out=F_spare[:k].reshape(-1), mode="clip")
        S, S_spare, F, F_spare = S_spare, S, F_spare, F

    while True:
        m = ids.size
        if queued < n_members and (m == 0 or 4 * (width - m) >= width):
            new = np.arange(queued, min(queued + width - m, n_members))
            S[m : m + new.size] = first if queued == 0 else start(new)
            first = None
            queued += new.size
            F[m : m + new.size] = np.nan
            r, c = np.nonzero(slots <= all_dims[new][:, None])
            F[m + r, c] = f(new[r], S[m + r, c])
            ids = np.concatenate([ids, new])
            nit = np.concatenate([nit, np.zeros(new.size, dtype=np.intp)])
            m = ids.size
        if m == 0:
            break
        dims, maxit = all_dims[ids], all_maxit[ids]

        order = np.argsort(F[:m], axis=1, kind="stable")
        gather((order + (n_vertices * np.arange(m))[:, None]).reshape(-1))
        rows = np.arange(m)
        fworst = F[rows, dims]

        real = slots <= dims[:, None]
        spread = np.where(real[:, 1:], np.abs(S[:m, 1:] - S[:m, :1]).max(axis=2), 0.0).max(axis=1)
        fspread = np.full(m, _INF)
        np.subtract(fworst, F[:m, 0], out=fspread, where=fworst < _INF)
        done = (nit >= maxit) | ((spread <= xatol) & (fspread <= fatol))
        if done.any():
            out = ids[done]
            best_x[out] = S[:m][done, 0]
            best_f[out] = F[:m][done, 0]
            iterations[out] = nit[done]
            keep = np.nonzero(~done)[0]
            gather((keep[:, None] * n_vertices + slots).reshape(-1))
            ids, dims, nit, fworst = ids[keep], dims[keep], nit[keep], fworst[keep]
            m = ids.size
            if not m:
                continue
            rows = np.arange(m)
        nit += 1
        Sm, Fm = S[:m], F[:m]

        # 0.0 + v_0 + v_1 + ... over the n best vertices, in order.  A
        # masked-out vertex adds +0.0, which cannot change a sum that
        # starts from +0.0 (such a sum is never -0.0).
        terms = np.where((slots[:-1] < dims[:, None])[:, :, None], Sm[:, :-1], 0.0)
        centroid = 0.0 + terms[:, 0]
        for j in range(1, n_vertices - 1):
            centroid += terms[:, j]
        centroid /= dims[:, None]
        worst = Sm[rows, dims]

        # All four trial points of every member in one evaluation: the
        # later ones are discarded where the scalar search would not have
        # reached them.
        reflected = 2.0 * centroid - worst
        expanded = 3.0 * centroid - 2.0 * worst
        inside = 1.5 * centroid - 0.5 * worst
        outside = 0.5 * centroid + 0.5 * worst
        fr, fe, fi, fo = f(
            np.tile(ids, 4), np.concatenate([reflected, expanded, inside, outside])
        ).reshape(4, m)

        expand = fr < Fm[:, 0]
        better = expand & (fe < fr)
        new_x = np.where(better[:, None], expanded, reflected)
        new_f = np.where(better, fe, fr)
        contract = ~expand & ~(fr < Fm[rows, dims - 1])
        use_inside = fr < fworst
        fc = np.where(use_inside, fi, fo)
        new_x = np.where(contract[:, None], np.where(use_inside[:, None], inside, outside), new_x)
        new_f = np.where(contract, fc, new_f)
        shrink = contract & ~(fc < np.where(fworst < fr, fworst, fr))

        move = np.nonzero(~shrink)[0]
        Sm[move, dims[move]] = new_x[move]
        Fm[move, dims[move]] = new_f[move]

        if shrink.any():
            r, j = np.nonzero(shrink[:, None] & (slots >= 1) & (slots <= dims[:, None]))
            Sm[r, j] = 0.5 * (Sm[r, j] + Sm[r, 0])
            Fm[r, j] = f(ids[r], Sm[r, j])

    return best_x, best_f, iterations
