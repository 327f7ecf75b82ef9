"""nelder_mead_batch, and its one-search call nelder_mead, against the scalar search, bit for bit.

Every member of a batch gets its own objective; the same Python function
scores a point in both searches, so any difference in the results comes
from the simplex bookkeeping alone.  A plan's members, each with a
starting simplex of its own size as the fitting modules give them, are
checked the same way.
"""

import math
import struct
from unittest import mock

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


# Random mixes of searches, each member with its own objective, simplex,
# cap and tolerances, at every width.

def wall(x):
    """Feasible only inside (2, 3) in every coordinate: a start near 0 never finds a finite value."""
    if all(2.0 < v < 3.0 for v in x):
        return sum((v - 2.5) ** 2 for v in x)
    return math.inf


def plateau(x):
    return 1.0


def run_oracle(case):
    """The member's search with the scalar oracle: (x, f, iterations)."""
    return nelder_mead(case["f"], case["simplex"][0], initial_simplex=case["simplex"], maxiter=case["cap"],
                       xatol=case["xatol"], fatol=case["fatol"])


def run_searches(cases, width):
    """All members in one nelder_mead_batch run.

    Also returns the run's counts: calls of f, admissions (calls of
    ``start``, each scored in one call of f) and passes (one centroid each).
    """
    n_dims = max(len(case["simplex"]) - 1 for case in cases)
    dims = [len(case["simplex"]) - 1 for case in cases]
    starts = np.zeros((len(cases), n_dims + 1, n_dims))
    for m, case in enumerate(cases):
        starts[m, : dims[m] + 1, : dims[m]] = case["simplex"]
    counts = {"calls": 0, "admissions": 0}

    def f(ids, points):
        counts["calls"] += 1
        return np.asarray([cases[m]["f"](list(p[: dims[m]])) for m, p in zip(ids.tolist(), points)])

    def start(ids):
        counts["admissions"] += 1
        return starts[ids]

    with mock.patch.object(_optim, "_centroid", wraps=_optim._centroid) as centroid:
        result = nelder_mead_batch(
            f, start, dims, maxiter=[case["cap"] for case in cases], xatol=[case["xatol"] for case in cases],
            fatol=[case["fatol"] for case in cases], width=width,
        )
    counts["passes"] = centroid.call_count
    return result, counts


objectives = st.sampled_from(["bowl", "terraced", "plateau", "rosenbrock", "wall"])
caps = st.integers(min_value=0, max_value=60)
xatols = st.sampled_from([1e-2, 1e-4, 1e-6])
fatols = st.sampled_from([1e-3, 1e-8, 1e-12])
coords = st.integers(min_value=-40, max_value=40).map(lambda k: k / 80.0)


@st.composite
def search_members(draw):
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
    x0 = [draw(coords) for _ in range(n)]
    if kind == "wall" and draw(st.booleans()):
        x0 = [2.5 + v for v in x0]  # inside the wall's box, mostly
    return {"f": f, "simplex": start_simplex(x0, draw(st.sampled_from([0.05, 0.3, 0.6]))),
            "cap": draw(caps), "xatol": draw(xatols), "fatol": draw(fatols)}


def assert_member(best_x, best_f, nit, m, expected):
    x, fun, iters = expected
    n = len(x)
    assert bits(best_x[m, :n]) == bits(x), m
    assert bits(best_x[m, n:]) == bits([0.0] * (best_x.shape[1] - n)), m
    assert bits([best_f[m]]) == bits([fun]), m
    assert nit[m] == iters, m


@settings(max_examples=60, deadline=None)
@given(st.lists(search_members(), min_size=1, max_size=8), st.data())
def test_random_batches_match_scalar_searches(cases, data):
    """Random mixes: dims 1-9, per-member caps and tolerances, every width, refills."""
    width = data.draw(st.integers(min_value=1, max_value=len(cases)))
    (best_x, best_f, nit), _ = run_searches(cases, width)
    for m, case in enumerate(cases):
        assert_member(best_x, best_f, nit, m, run_oracle(case))


def test_passes_with_room_for_every_member_are_the_slowest_search_alone():
    """With a place for every member, each pass is one iteration of every
    search in progress: the run takes as many passes as its longest search
    has iterations, and each member alone exactly its own iterations."""
    rng = np.random.default_rng(11)
    cases = []
    for n, kind, inside in [(2, "bowl", False), (5, "terraced", False), (9, "rosenbrock", False),
                            (3, "wall", True), (1, "plateau", False), (7, "bowl", False)]:
        f = {"bowl": bowl_in_box([0.3] * n, [2.0] * n), "terraced": terraced(4.0), "rosenbrock": rosenbrock,
             "wall": wall, "plateau": plateau}[kind]
        x0 = rng.uniform(-0.5, 0.5, n) + (2.5 if inside else 0.0)
        cases.append({"f": f, "simplex": start_simplex(x0.tolist(), 0.3), "cap": 300, "xatol": 1e-6,
                      "fatol": 1e-10})
    (_, _, nit), counts = run_searches(cases, len(cases))
    assert counts["passes"] == max(nit)
    shrank = []
    for m, case in enumerate(cases):
        (_, _, own), alone = run_searches([case], None)
        assert own[0] == nit[m] == run_oracle(case)[2]
        assert alone["passes"] == own[0]
        # A pass in which the search shrinks scores the moved vertices in a second call.
        shrank.append(alone["calls"] > alone["passes"] + alone["admissions"])
    assert any(shrank) and not all(shrank)
    assert counts["calls"] > counts["passes"] + counts["admissions"]


def first_shrink(case):
    """The iteration in which the scalar search first shrinks its simplex."""
    n = len(case["simplex"]) - 1
    for cap in range(1, case["cap"] + 1):
        calls = []
        _, _, iters = nelder_mead(lambda x: calls.append(x) or case["f"](x), case["simplex"][0],
                                  initial_simplex=case["simplex"], maxiter=cap, xatol=case["xatol"],
                                  fatol=case["fatol"])
        if len(calls) > n + 1 + 2 * iters:
            return iters
    raise AssertionError("the search never shrinks")


@pytest.mark.parametrize("width", [None, 1])
def test_cap_on_the_iteration_after_the_first_shrink(width):
    """A search capped on the iteration right after its first shrink steps
    from the shrunk simplex, scored in the pass that shrank it; beside it
    the same search capped on the shrink itself, which ends on that
    simplex, and a longer search."""
    case = {"f": terraced(4.0), "simplex": start_simplex([0.4, -0.3, 0.2], 0.3), "cap": 300, "xatol": 1e-6,
            "fatol": 1e-10}
    shrink = first_shrink(case)
    cases = [dict(case, cap=shrink + 1), dict(case, cap=shrink),
             {**case, "f": rosenbrock, "simplex": start_simplex([-0.5] * 4, 0.2)}]
    (best_x, best_f, nit), _ = run_searches(cases, width)
    for m, member in enumerate(cases):
        assert_member(best_x, best_f, nit, m, run_oracle(member))
    assert (nit[0], nit[1]) == (shrink + 1, shrink) and nit[2] > shrink + 1


# One plan's members in one run, each simplex with only its own dims + 1
# vertices, copied in by the kernel when the member is admitted.

class Plan:
    """One search per member, each with its own simplex, cap and tolerances."""

    def __init__(self, cases):
        self.cases = cases
        self.dims = np.asarray([len(case["simplex"]) - 1 for case in cases], dtype=np.intp)
        self.maxiter, self.xatol, self.fatol = ([case[k] for case in cases] for k in ("cap", "xatol", "fatol"))
        self.n_columns = int(self.dims.max(initial=1))

    def objective(self, members, points):
        assert points.shape[1] == self.n_columns
        return np.asarray([self.cases[m]["f"](list(p[: self.dims[m]])) for m, p in zip(members.tolist(), points)])

    def start(self, members):
        """Each member's simplex in the plan's columns, with only its own dims + 1 vertices."""
        simplexes = []
        for m in members.tolist():
            simplex = np.zeros((self.dims[m] + 1, self.n_columns))
            simplex[:, : self.dims[m]] = self.cases[m]["simplex"]
            simplexes.append(simplex)
        return simplexes


@settings(max_examples=40, deadline=None)
@given(st.lists(search_members(), max_size=8))
def test_plan_simplexes_match_scalar_searches(cases):
    """A plan of random member mixes, the empty plan included."""
    plan = Plan(cases)
    best_x, best_f, nit = nelder_mead_batch(
        plan.objective, plan.start, plan.dims, plan.maxiter, plan.xatol, plan.fatol, width=_optim.BATCH_WIDTH
    )
    assert len(best_f) == len(nit) == len(cases)
    for m, case in enumerate(cases):
        assert_member(best_x, best_f, nit, m, run_oracle(case))
