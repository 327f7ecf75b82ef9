"""nelder_mead_batch, and its one-search call nelder_mead, against the scalar search, bit for bit.

Every member of a batch gets its own objective; the same Python function
scores a point in both searches, so any difference in the results comes
from the simplex bookkeeping alone.  Chained members (a polish from the
answer, restarts while the value is not finite) are checked against the
scalar searches run one after another.
"""

import math
import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from quartercast import _optim
from quartercast._optim import nelder_mead_batch

from arima_oracle import nelder_mead


def bits(values):
    return [struct.pack("<d", float(v)) for v in values]


def assert_same_search(got, expected):
    """Two (best_x, best_f, iterations) results, bit for bit."""
    (x, fun, iters), (x_ref, fun_ref, iters_ref) = got, expected
    assert (bits(x), bits([fun]), iters) == (bits(x_ref), bits([fun_ref]), iters_ref)


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
        assert_same_search(
            _optim.nelder_mead(f, simplex[0], initial_simplex=simplex, maxiter=cap, xatol=1e-6, fatol=1e-10),
            (x, fun, iters),
        )
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
    """Also nelder_mead's own starting simplex (a zero coordinate included) and an empty x0."""
    cases = members()[:6]
    for cap in (0, 1, 30):
        best_x, best_f, nit = run_batch(cases, cap)
        for m, (f, simplex, _) in enumerate(cases):
            x, fun, iters = nelder_mead(f, simplex[0], initial_simplex=simplex, maxiter=cap,
                                        xatol=1e-6, fatol=1e-10)
            assert bits(best_x[m, : len(x)]) == bits(x)
            assert bits([best_f[m]]) == bits([fun])
            assert nit[m] == iters
            x0 = [0.0, *simplex[0][1:]]
            assert_same_search(_optim.nelder_mead(f, x0, maxiter=cap, xatol=1e-6, fatol=1e-10),
                               nelder_mead(f, x0, maxiter=cap, xatol=1e-6, fatol=1e-10))
    assert_same_search(_optim.nelder_mead(lambda x: 7.0 + len(x), []), nelder_mead(lambda x: 7.0 + len(x), []))


def test_rejects_a_member_without_dimensions():
    with pytest.raises(ValueError):
        nelder_mead_batch(lambda ids, x: np.zeros(len(ids)), lambda ids: np.zeros((len(ids), 3, 2)), [2, 0])


# Chains of searches: the property below runs random mixes of members, some
# continued by a polish from their answer and some restarted, only while
# their value is not finite, from fixed simplexes inside the feasible box.

def wall(x):
    """Feasible only inside (2, 3) in every coordinate: a start near 0 never finds a finite value."""
    if all(2.0 < v < 3.0 for v in x):
        return sum((v - 2.5) ** 2 for v in x)
    return math.inf


def plateau(x):
    return 1.0


def around(x):
    """The scalar default simplex around a point, as an ETS polish starts."""
    simplex = [list(x)]
    for i, v in enumerate(x):
        vertex = list(x)
        vertex[i] = v * 1.05 if v != 0.0 else 0.00025
        simplex.append(vertex)
    return simplex


def run_chain_oracle(case):
    """The member's searches one after another with the scalar oracle: (x, f, total iterations)."""
    total = 0
    for k, (simplex, cap, xatol, fatol) in enumerate(case["stages"]):
        if k and case["chain"] == "polish":
            simplex = around(x)
        if k and case["chain"] == "restart" and math.isfinite(fun):
            break
        x, fun, iters = nelder_mead(case["f"], simplex[0], initial_simplex=simplex, maxiter=cap,
                                    xatol=xatol, fatol=fatol)
        total += iters
    return x, fun, total


def run_chain_batch(cases, width):
    """All members in one nelder_mead_batch run, follow-ons through ``then``.

    Also returns the passes: calls of f, less those that score the starting
    simplexes of newly admitted searches (the first call, and the call after
    a ``then`` that continued some member).
    """
    n_dims = max(len(case["stages"][0][0]) - 1 for case in cases)
    dims = [len(case["stages"][0][0]) - 1 for case in cases]

    def padded(simplex):
        out = np.zeros((n_dims + 1, n_dims))
        out[: len(simplex), : len(simplex) - 1] = simplex
        return out

    starts = np.stack([padded(case["stages"][0][0]) for case in cases])
    stage = [0] * len(cases)
    counts = {"calls": 0, "admissions": 0}
    admitting = [True]

    def f(ids, points):
        counts["calls"] += 1
        counts["admissions"] += admitting[0]
        admitting[0] = False
        return np.asarray([cases[m]["f"](list(p[: dims[m]])) for m, p in zip(ids.tolist(), points)])

    def then(m, x, fun):
        case = cases[m]
        stage[m] += 1
        if stage[m] == len(case["stages"]) or (case["chain"] == "restart" and math.isfinite(fun)):
            return None
        simplex, cap, xatol, fatol = case["stages"][stage[m]]
        if case["chain"] == "polish":
            simplex = around(x[: dims[m]].tolist())
        admitting[0] = True
        return padded(simplex), cap, xatol, fatol

    first = [case["stages"][0] for case in cases]
    result = nelder_mead_batch(
        f, lambda ids: starts[ids], dims, maxiter=[s[1] for s in first], xatol=[s[2] for s in first],
        fatol=[s[3] for s in first], width=width, then=then,
    )
    return result, counts["calls"] - counts["admissions"]


objectives = st.sampled_from(["bowl", "terraced", "plateau", "rosenbrock", "wall"])
caps = st.integers(min_value=0, max_value=60)
xatols = st.sampled_from([1e-2, 1e-4, 1e-6])
fatols = st.sampled_from([1e-3, 1e-8, 1e-12])
coords = st.integers(min_value=-40, max_value=40).map(lambda k: k / 80.0)


@st.composite
def chain_members(draw):
    n = draw(st.integers(min_value=1, max_value=9))
    kind = draw(objectives)
    center = [draw(coords) * 2.5 for _ in range(n)]
    f = {
        "bowl": bowl_in_box(center, [1.0 + abs(c) for c in center]),
        "terraced": terraced(draw(st.sampled_from([2.0, 5.0, 9.0]))),
        "plateau": plateau,
        "rosenbrock": rosenbrock,
        "wall": wall,
    }[kind]
    chain = draw(st.sampled_from(["none", "polish", "restart"]))
    n_stages = {"none": 1, "polish": 2, "restart": draw(st.integers(min_value=2, max_value=3))}[chain]
    stages = []
    for k in range(n_stages):
        x0 = [draw(coords) for _ in range(n)]
        if k and chain == "restart":
            x0 = [2.5 + v for v in x0]  # inside the wall's box, mostly
        stages.append((start_simplex(x0, draw(st.sampled_from([0.05, 0.3, 0.6]))),
                       draw(caps), draw(xatols), draw(fatols)))
    return {"f": f, "chain": chain, "stages": stages}


@settings(max_examples=60, deadline=None)
@given(st.lists(chain_members(), min_size=1, max_size=8), st.data())
def test_chained_batch_matches_scalar_searches_in_sequence(cases, data):
    """Random mixes: dims 1-9, per-member caps and tolerances, polish and restart chains, refills."""
    width = data.draw(st.integers(min_value=1, max_value=len(cases)))
    (best_x, best_f, nit), _ = run_chain_batch(cases, width)
    for m, case in enumerate(cases):
        x, fun, iters = run_chain_oracle(case)
        n = len(x)
        assert bits(best_x[m, :n]) == bits(x), m
        assert bits(best_x[m, n:]) == bits([0.0] * (best_x.shape[1] - n)), m
        assert bits([best_f[m]]) == bits([fun]), m
        assert nit[m] == iters, m


def test_passes_with_room_for_every_member_are_the_slowest_chain_alone():
    """With a place for every member, no search waits: the run takes as many
    passes as its slowest member takes on its own, which is that member's
    iterations plus the passes its shrink steps sit out."""
    rng = np.random.default_rng(11)
    cases = []
    for n, kind, chain in [(2, "bowl", "polish"), (5, "terraced", "none"), (9, "rosenbrock", "polish"),
                           (3, "wall", "restart"), (1, "plateau", "none"), (7, "bowl", "restart")]:
        f = {"bowl": bowl_in_box([0.3] * n, [2.0] * n), "terraced": terraced(4.0), "rosenbrock": rosenbrock,
             "wall": wall, "plateau": plateau}[kind]
        stages = [(start_simplex(rng.uniform(-0.5, 0.5, n).tolist(), 0.3), 150, 1e-6, 1e-10)]
        stages += [(start_simplex((2.5 + rng.uniform(-0.3, 0.3, n)).tolist(), 0.1), 120, 1e-6, 1e-10)] * 2
        cases.append({"f": f, "chain": chain, "stages": stages if chain != "none" else stages[:1]})
    (_, _, nit), passes = run_chain_batch(cases, len(cases))
    alone = []
    for m, case in enumerate(cases):
        (_, _, own), own_passes = run_chain_batch([case], None)
        assert own[0] == nit[m] == run_chain_oracle(case)[2]
        assert own_passes >= own[0]
        alone.append(own_passes)
    assert passes == max(alone)
    assert any(a > i for a, i in zip(alone, nit))  # some members' shrink steps sat out passes
    # Here the longest chain (polish after search, 9 dimensions) never
    # shrinks, so the run takes exactly its total iterations.
    assert passes == max(nit)
