"""The vectorised forest against the frozen per-cut, per-node one, bit for bit."""

import json
import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import forest_oracle as oracle
from quartercast import ForestParams, best_split, forest_from_json, forest_to_json, predict_forest, train_forest

# A padded lane of the batched split scan divides by zero; that must never reach a user's log.
pytestmark = pytest.mark.filterwarnings("error::RuntimeWarning")


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
    noise = draw(st.sampled_from(["none", "normal", "tenths"]))
    if noise == "normal":
        y += rng.normal(size=n) * 0.1
    elif noise == "tenths":  # inexact sums of tied targets: the last bit decides near-equal gains
        y *= 0.1
    return X, y


@settings(max_examples=300, deadline=None)
@given(matrices(), st.data())
def test_best_split_matches_oracle(Xy, data):
    X, y = Xy
    p = X.shape[1]
    # unsorted, duplicated and empty candidate lists
    candidates = data.draw(st.lists(st.integers(0, p - 1), max_size=2 * p))
    assert split_bits(best_split(X, y, candidates)) == split_bits(oracle.best_split(X, y, candidates))


def check_against_oracle(X, y, params, feature_names=None, probes=None):
    """Forest, JSON bytes, OOB error and every prediction equal the oracle's, bit for bit."""
    forest = train_forest(X, y, params, feature_names)
    roots, oob_mse, n_never = oracle.train(X, y, params)

    text = forest_to_json(forest)
    assert text == oracle.to_json(roots, params, forest.feature_names, oob_mse, n_never)
    assert bits(forest.oob_mse) == bits(oob_mse)
    assert forest.n_never_oob == n_never

    back = forest_from_json(text)
    assert forest_to_json(back) == text
    for x in np.vstack([X, X + 0.5, X - 0.5]) if probes is None else probes:
        want = bits(oracle.predict(roots, x))
        assert bits(predict_forest(forest, x)) == want
        assert bits(predict_forest(back, x)) == want
        for tree, root in zip(forest.trees, roots):
            assert bits(tree.predict(x)) == bits(root.predict(x))
    return text


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
    check_against_oracle(X, y, params)


def test_forest_edge_cases_match_oracle():
    X = np.arange(8.0).reshape(4, 2)
    # a leaf whose mean underflows from below to -0.0
    params = ForestParams(n_trees=2, min_node_size=2, seed=3, bootstrap=False)
    text = check_against_oracle(X, np.asarray([-5e-324, 0.0, 6.0, 9.0]), params)
    assert '"value": -0.0\n' in text
    # names that JSON escapes, or writes as \u escapes
    names = ['tab\t"quote"\\back\nline\x01', "umsätz €, 𝔵 ☃"]
    text = check_against_oracle(X, np.asarray([1.0, 2.0, 4.0, 3.0]), ForestParams(n_trees=3, seed=1), names)
    assert json.loads(text)["feature_names"] == names
    # without bootstrap no row is ever out of bag: oob_mse is NaN
    text = check_against_oracle(X, np.asarray([1.0, 2.0, 4.0, 3.0]), params)
    assert '"oob_mse": NaN,' in text


def test_forest_matches_oracle_past_the_pairwise_block():
    """Nodes of 128 rows and more, where numpy's pairwise sums split into blocks."""
    rng = np.random.default_rng(21)
    X = rng.normal(size=(320, 4))
    X[:, 1] = np.round(X[:, 1], 1)  # ties beside the continuous columns
    y = np.round(rng.normal(size=320), 1)  # tied, inexact targets: the last bit of a sum decides splits
    params = ForestParams(n_trees=10, min_node_size=1, seed=7)
    check_against_oracle(X, y, params, probes=rng.normal(size=(40, 4)))


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
