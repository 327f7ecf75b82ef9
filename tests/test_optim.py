"""nelder_mead_batch against the scalar nelder_mead, bit for bit.

Every member of a batch gets its own objective; the same Python function
scores a point in both searches, so any difference in the results comes
from the simplex bookkeeping alone.
"""

import math
import struct

import numpy as np
import pytest

from quartercast._optim import nelder_mead_batch

from arima_oracle import nelder_mead


def bits(values):
    return [struct.pack("<d", float(v)) for v in values]


def bowl_in_box(center, weight):
    """A weighted quadratic that is infinite outside |x_i| < 1."""

    def f(x):
        if any(abs(v) >= 1.0 for v in x):
            return math.inf
        return sum(w * (v - c) ** 2 for v, c, w in zip(x, center, weight))

    return f


def terraced(scale):
    """A quantized bowl: long runs of tied values, so contractions fail and the simplex shrinks."""

    def f(x):
        return math.floor(scale * sum(v * v for v in x)) / scale

    return f


def rosenbrock(x):
    return sum(100.0 * (b - a * a) ** 2 + (1.0 - a) ** 2 for a, b in zip(x, x[1:])) + x[0] ** 2


def start_simplex(x0, step):
    simplex = [list(x0)]
    for i in range(len(x0)):
        vertex = list(x0)
        vertex[i] += step
        simplex.append(vertex)
    return simplex


def members():
    """(objective, simplex, maxiter) for a mix of dimensions 1..6 and failure modes."""
    rng = np.random.default_rng(3)
    out = []
    for n in range(1, 7):
        x0 = rng.uniform(-0.5, 0.5, size=n).tolist()
        center = rng.uniform(-1.2, 1.2, size=n).tolist()  # some minima outside the box
        weight = rng.uniform(0.5, 3.0, size=n).tolist()
        out.append((bowl_in_box(center, weight), start_simplex(x0, 0.6), 500))
        out.append((terraced(4.0 + n), start_simplex(x0, 0.3), 500))
        out.append((rosenbrock, start_simplex([-1.0] * n, 0.2), 7 * n))  # hits its cap
        out.append((rosenbrock, start_simplex(x0, 0.2), 500))
    # All vertices infeasible: only shrink steps, to the cap.
    out.append((bowl_in_box([0.0], [1.0]), [[2.0], [3.0]], 40))
    # Ties from the first simplex on.
    out.append((lambda x: 1.0, start_simplex([0.0, 0.0], 0.5), 25))
    return out


def run_batch(cases, maxiter, width=None):
    n_dims = max(len(simplex) - 1 for _, simplex, _ in cases)
    simplexes = np.zeros((len(cases), n_dims + 1, n_dims))
    for m, (_, simplex, _) in enumerate(cases):
        k = len(simplex) - 1
        simplexes[m, : k + 1, :k] = simplex
    dims = [len(simplex) - 1 for _, simplex, _ in cases]

    def f(ids, points):
        return np.asarray(
            [cases[m][0](list(p[: dims[m]])) for m, p in zip(ids.tolist(), points)]
        )

    return nelder_mead_batch(
        f, lambda ids: simplexes[ids], dims, maxiter=maxiter, xatol=1e-6, fatol=1e-10, width=width
    )


@pytest.mark.parametrize("width", [None, 5])
def test_batch_matches_scalar_search_bit_for_bit(width):
    """All members at once, and five at a time with the queue refilling freed places."""
    cases = members()
    best_x, best_f, nit = run_batch(cases, [cap for _, _, cap in cases], width)
    shrinks = caps = infeasible = 0
    for m, (f, simplex, cap) in enumerate(cases):
        n = len(simplex) - 1
        calls = []

        def counted(x, f=f):
            value = f(x)
            calls.append(value)
            return value

        x, fun, iters = nelder_mead(counted, simplex[0], initial_simplex=simplex, maxiter=cap,
                                    xatol=1e-6, fatol=1e-10)
        assert bits(best_x[m, :n]) == bits(x), m
        assert bits(best_x[m, n:]) == bits([0.0] * (best_x.shape[1] - n)), m
        assert bits([best_f[m]]) == bits([fun]), m
        assert nit[m] == iters, m
        # At most two evaluations per iteration unless the simplex shrank.
        shrinks += len(calls) > n + 1 + 2 * iters
        caps += iters == cap
        infeasible += math.inf in calls
    assert shrinks and caps and infeasible


def test_one_cap_for_all_members_and_zero_iterations():
    cases = members()[:6]
    for cap in (0, 1, 30):
        best_x, best_f, nit = run_batch(cases, cap)
        for m, (f, simplex, _) in enumerate(cases):
            x, fun, iters = nelder_mead(f, simplex[0], initial_simplex=simplex, maxiter=cap,
                                        xatol=1e-6, fatol=1e-10)
            assert bits(best_x[m, : len(x)]) == bits(x)
            assert bits([best_f[m]]) == bits([fun])
            assert nit[m] == iters


def test_rejects_a_member_without_dimensions():
    with pytest.raises(ValueError):
        nelder_mead_batch(lambda ids, x: np.zeros(len(ids)), lambda ids: np.zeros((len(ids), 3, 2)), [2, 0])
