"""The vectorised forest against the frozen per-cut, per-node one, bit for bit."""

import struct

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

import forest_oracle as oracle
from quartercast import ForestParams, best_split, forest_from_json, forest_to_json, predict_forest, train_forest


def bits(value):
    return None if value is None else struct.pack("<d", float(value))


def split_bits(split):
    return None if split is None else (split[0], bits(split[1]), bits(split[2]))


@st.composite
def matrices(draw, min_rows=2, max_rows=60):
    """Small-integer columns (ties and repeats everywhere), some constant or mirrored."""
    n = draw(st.integers(min_rows, max_rows))
    p = draw(st.integers(1, 5))
    seed = draw(st.integers(0, 2**32 - 1))
    rng = np.random.default_rng(seed)
    X = rng.integers(0, draw(st.integers(1, 6)), size=(n, p)).astype(float)
    for j in range(1, p):
        kind = draw(st.sampled_from(["random", "constant", "reversed"]))
        if kind == "constant":
            X[:, j] = X[0, j]
        elif kind == "reversed":  # the same partitions as column 0 at mirrored cuts: exact gain ties
            X[:, j] = -X[:, 0]
    if draw(st.booleans()):
        X[:, -1] += rng.normal(size=n)  # one continuous column beside the ties
    y = rng.integers(0, draw(st.integers(1, 5)), size=n).astype(float)
    if draw(st.booleans()):
        y += rng.normal(size=n) * 0.1
    return X, y


@settings(max_examples=300, deadline=None)
@given(matrices(), st.data())
def test_best_split_matches_oracle(Xy, data):
    X, y = Xy
    p = X.shape[1]
    # unsorted, duplicated and empty candidate lists
    candidates = data.draw(st.lists(st.integers(0, p - 1), max_size=2 * p))
    assert split_bits(best_split(X, y, candidates)) == split_bits(oracle.best_split(X, y, candidates))


@settings(max_examples=60, deadline=None)
@given(
    matrices(),
    st.integers(1, 12),
    st.one_of(st.none(), st.integers(1, 5)),
    st.one_of(st.none(), st.integers(1, 6)),
    st.integers(1, 8),
    st.booleans(),
    st.integers(0, 2**31),
)
def test_forest_matches_oracle(Xy, n_trees, mtry, max_depth, min_node_size, bootstrap, seed):
    X, y = Xy
    if mtry is not None:
        mtry = min(mtry, X.shape[1])
    params = ForestParams(
        n_trees=n_trees, mtry=mtry, min_node_size=min_node_size, max_depth=max_depth,
        seed=seed, bootstrap=bootstrap,
    )
    forest = train_forest(X, y, params)
    roots, oob_mse, n_never = oracle.train(X, y, params)

    text = forest_to_json(forest)
    assert text == oracle.to_json(roots, params, forest.feature_names, oob_mse, n_never)
    assert bits(forest.oob_mse) == bits(oob_mse)
    assert forest.n_never_oob == n_never

    back = forest_from_json(text)
    assert forest_to_json(back) == text
    probes = np.vstack([X, X + 0.5, X - 0.5])
    for x in probes:
        want = bits(oracle.predict(roots, x))
        assert bits(predict_forest(forest, x)) == want
        assert bits(predict_forest(back, x)) == want
        for tree, root in zip(forest.trees, roots):
            assert bits(tree.predict(x)) == bits(root.predict(x))


def test_forest_matches_oracle_on_continuous_data():
    rng = np.random.default_rng(12)
    X = rng.normal(size=(80, 20))
    X[:, 5] = 1.0
    y = X[:, 0] * 3 + np.sin(X[:, 1]) + rng.normal(size=80)
    params = ForestParams(n_trees=40, seed=4)
    forest = train_forest(X, y, params)
    roots, oob_mse, n_never = oracle.train(X, y, params)
    assert forest_to_json(forest) == oracle.to_json(roots, params, forest.feature_names, oob_mse, n_never)
    for x in rng.normal(size=(30, 20)):
        assert bits(predict_forest(forest, x)) == bits(oracle.predict(roots, x))


def test_adjacent_float_midpoint_rounds_down_to_lower_value():
    lo = 1.0
    hi = np.nextafter(lo, 2.0)
    X = np.asarray([[lo], [hi]])
    y = np.asarray([0.0, 1.0])
    assert split_bits(best_split(X, y, [0])) == split_bits(oracle.best_split(X, y, [0]))
    assert best_split(X, y, [0])[1] == lo
