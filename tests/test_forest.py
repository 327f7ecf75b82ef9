import json
import sys

import numpy as np
import pytest

from quartercast import (
    Forest,
    ForestParams,
    SchemaMismatchError,
    ValidationError,
    best_split,
    build_tree,
    forest_from_json,
    forest_to_json,
    predict_forest,
    train_forest,
)
from quartercast.forest import TreeNode, _tree_rng

# A padded lane of the batched split scan divides by zero; that must never reach a user's log.
pytestmark = pytest.mark.filterwarnings("error::RuntimeWarning")


def friedman(n, seed):
    rng = np.random.default_rng(seed)
    X = rng.uniform(size=(n, 5))
    y = (
        10 * np.sin(np.pi * X[:, 0] * X[:, 1])
        + 20 * (X[:, 2] - 0.5) ** 2
        + 10 * X[:, 3]
        + 5 * X[:, 4]
        + rng.standard_normal(n)
    )
    return X, y


class TestBestSplit:
    def test_enumerated_fixture(self):
        X = np.asarray([[1.0], [2.0], [3.0], [4.0]])
        y = np.asarray([0.0, 0.0, 10.0, 10.0])
        f, thr, gain = best_split(X, y, [0])
        assert (f, thr) == (0, 2.5)
        assert gain == pytest.approx(100.0)  # parent SSE 100, children 0

    def test_no_gain_returns_none(self):
        X = np.asarray([[1.0], [2.0], [3.0], [4.0]])
        assert best_split(X, np.ones(4), [0]) is None

    def test_single_distinct_value(self):
        assert best_split(np.ones((4, 1)), np.asarray([0.0, 1, 2, 3]), [0]) is None

    def test_two_point_midpoint_rule(self):
        f, thr, _ = best_split(np.asarray([[1.0], [3.0]]), np.asarray([0.0, 8.0]), [0])
        assert thr == 2.0

    def test_tie_breaks_lowest_feature(self):
        # duplicated feature columns give identical gains; lowest index wins
        X = np.asarray([[1.0, 1.0], [2.0, 2.0], [3.0, 3.0], [4.0, 4.0]])
        y = np.asarray([0.0, 0.0, 10.0, 10.0])
        f, thr, _ = best_split(X, y, [1, 0])
        assert f == 0

    def test_exhaustive_oracle_on_random_fixtures(self):
        rng = np.random.default_rng(31)
        for _ in range(25):
            X = rng.integers(0, 4, size=(8, 2)).astype(float)
            y = rng.integers(0, 5, size=8).astype(float)

            def oracle():
                n = len(y)
                parent = np.sum((y - y.mean()) ** 2)
                best = None
                for f in (0, 1):
                    vs = np.unique(X[:, f])
                    for lo, hi in zip(vs, vs[1:]):
                        thr = (lo + hi) / 2
                        left, right = y[X[:, f] <= thr], y[X[:, f] > thr]
                        sse = np.sum((left - left.mean()) ** 2) + np.sum((right - right.mean()) ** 2)
                        gain = parent - sse
                        if gain > 0 and (best is None or gain > best[2] + 1e-12):
                            best = (f, thr, gain)
                return best

            got = best_split(X, y, [0, 1])
            want = oracle()
            if want is None:
                assert got is None
            else:
                assert got[0] == want[0]
                assert got[1] == pytest.approx(want[1])
                assert got[2] == pytest.approx(want[2])


def oracle_tree(X, y, indices, min_node_size, depth, max_depth):
    """Independent exhaustive recursive partitioning (all features, midpoints)."""
    node_y = y[indices]
    if (
        len(indices) <= min_node_size
        or (max_depth is not None and depth >= max_depth)
        or np.all(node_y == node_y[0])
    ):
        return {"value": float(np.mean(node_y))}
    parent = np.sum((node_y - node_y.mean()) ** 2)
    best = None
    for f in range(X.shape[1]):
        vs = np.unique(X[indices, f])
        for lo, hi in zip(vs, vs[1:]):
            thr = (lo + hi) / 2
            lmask = X[indices, f] <= thr
            left, right = node_y[lmask], node_y[~lmask]
            sse = np.sum((left - left.mean()) ** 2) + np.sum((right - right.mean()) ** 2)
            gain = parent - sse
            if gain > 0 and (best is None or gain > best[2] + 1e-12):
                best = (f, thr, gain)
    if best is None:
        return {"value": float(np.mean(node_y))}
    f, thr, _ = best
    lmask = X[indices, f] <= thr
    return {
        "feature": f,
        "threshold": thr,
        "left": oracle_tree(X, y, indices[lmask], min_node_size, depth + 1, max_depth),
        "right": oracle_tree(X, y, indices[~lmask], min_node_size, depth + 1, max_depth),
    }


class TestBuildTree:
    @pytest.mark.parametrize(
        "X, y, match",
        [
            (np.arange(20.0).reshape(10, 2), np.arange(6.0), "one target per row"),
            (np.asarray([[1.0, np.nan], [2.0, 3.0]]), np.asarray([1.0, 2.0]), "finite"),
            (np.zeros((0, 2)), np.zeros(0), "empty"),
        ],
        ids=["ragged", "nan", "empty"],
    )
    def test_rejects_what_train_forest_rejects(self, X, y, match):
        params = ForestParams(n_trees=1, seed=1)
        for fit in (build_tree, train_forest):
            with pytest.raises(ValidationError, match=match):
                fit(X, y, params)

    def test_constant_targets_single_leaf(self):
        t = build_tree(np.asarray([[1.0], [2.0], [3.0]]), np.asarray([5.0, 5.0, 5.0]),
                       ForestParams(n_trees=1, seed=1))
        assert t.is_leaf and t.value == 5.0

    def test_memorizes_with_bootstrap_disabled(self):
        rng = np.random.default_rng(0)
        X = rng.normal(size=(12, 3))
        y = rng.normal(size=12)
        params = ForestParams(n_trees=3, min_node_size=1, bootstrap=False, seed=3, mtry=3)
        forest = train_forest(X, y, params)
        for i in range(12):
            assert predict_forest(forest, X[i]) == pytest.approx(y[i], abs=1e-12)

    def test_matches_recursive_oracle_on_bootstrap_sample(self):
        rng = np.random.default_rng(55)
        X = rng.integers(0, 5, size=(8, 2)).astype(float)
        y = rng.normal(size=8)
        params = ForestParams(n_trees=1, min_node_size=1, mtry=2, seed=5)
        tree = build_tree(X, y, params, tree_rng=_tree_rng(5, 0))
        # replicate the bootstrap draw from the identical stream
        sample = _tree_rng(5, 0).integers(0, 8, size=8)
        Xb, yb = X[sample], y[sample]
        want = oracle_tree(Xb, yb, np.arange(8), 1, 0, None)
        got = tree.to_dict()

        def compare(a, b):
            if "value" in a or "value" in b:
                assert a["value"] == pytest.approx(b["value"])
                return
            assert a["feature"] == b["feature"]
            assert a["threshold"] == pytest.approx(b["threshold"])
            compare(a["left"], b["left"])
            compare(a["right"], b["right"])

        compare(got, want)


class TestTrainForest:
    def test_constant_targets(self):
        rng = np.random.default_rng(2)
        X = rng.normal(size=(30, 4))
        y = np.full(30, 9.0)
        forest = train_forest(X, y, ForestParams(n_trees=20, seed=6))
        assert forest.oob_mse == 0.0
        assert predict_forest(forest, X[0]) == 9.0

    def test_same_seed_bit_identical(self):
        rng = np.random.default_rng(3)
        X = rng.normal(size=(50, 5))
        y = rng.normal(size=50)
        a = train_forest(X, y, ForestParams(n_trees=25, seed=11))
        b = train_forest(X, y, ForestParams(n_trees=25, seed=11))
        assert forest_to_json(a) == forest_to_json(b)

    def test_thread_count_does_not_change_result(self):
        rng = np.random.default_rng(4)
        X = rng.normal(size=(60, 5))
        y = rng.normal(size=60)
        outs = [
            forest_to_json(train_forest(X, y, ForestParams(n_trees=16, seed=9), n_threads=k))
            for k in (1, 2, 8)
        ]
        assert outs[0] == outs[1] == outs[2]

    def test_tree_count_monotone(self):
        rng = np.random.default_rng(5)
        X = rng.normal(size=(40, 3))
        y = rng.normal(size=40)
        small = train_forest(X, y, ForestParams(n_trees=8, seed=2))
        big = train_forest(X, y, ForestParams(n_trees=16, seed=2))
        for a, b in zip(small.trees, big.trees[:8]):
            assert a.to_dict() == b.to_dict()

    def test_forest_beats_single_tree_on_friedman(self):
        Xtr, ytr = friedman(500, 1)
        Xte, yte = friedman(200, 2)
        forest = train_forest(Xtr, ytr, ForestParams(n_trees=100, seed=5))
        single = train_forest(Xtr, ytr, ForestParams(n_trees=1, seed=5))
        mse_forest = np.mean([(predict_forest(forest, x) - t) ** 2 for x, t in zip(Xte, yte)])
        mse_single = np.mean([(predict_forest(single, x) - t) ** 2 for x, t in zip(Xte, yte)])
        assert mse_forest < mse_single

    def test_prediction_bounds(self):
        rng = np.random.default_rng(6)
        X = rng.normal(size=(40, 4))
        y = rng.normal(size=40)
        forest = train_forest(X, y, ForestParams(n_trees=30, seed=8))
        for _ in range(20):
            p = predict_forest(forest, rng.normal(size=4) * 3)
            assert y.min() <= p <= y.max()

    def test_oob_coverage(self):
        rng = np.random.default_rng(7)
        X = rng.normal(size=(50, 3))
        y = rng.normal(size=50)
        forest = train_forest(X, y, ForestParams(n_trees=100, seed=4))
        assert forest.n_never_oob == 0
        assert np.isfinite(forest.oob_mse)

    def test_param_validation(self):
        X = np.zeros((3, 2))
        with pytest.raises(ValidationError):
            ForestParams(n_trees=0)
        with pytest.raises(ValidationError):
            train_forest(X, np.zeros(3), ForestParams(n_trees=1, mtry=5))
        with pytest.raises(ValidationError):
            train_forest(np.asarray([[np.nan, 1.0]]), np.zeros(1), ForestParams(n_trees=1))


class TestForestParams:
    @pytest.mark.parametrize("field", ["n_trees", "min_node_size", "seed", "mtry", "max_depth"])
    @pytest.mark.parametrize("value", [2.5, 2.0, "abc", True, np.int64(2)])
    def test_non_integer_rejected(self, field, value):
        with pytest.raises(ValidationError, match=f"^{field} must be an integer"):
            ForestParams(**{field: value})

    @pytest.mark.parametrize("field", ["n_trees", "min_node_size", "seed"])
    def test_none_rejected_where_required(self, field):
        with pytest.raises(ValidationError, match=f"^{field} must be an integer, got None"):
            ForestParams(**{field: None})

    def test_none_accepted_where_optional(self):
        params = ForestParams(mtry=None, max_depth=None)
        assert params.mtry is None and params.max_depth is None


class TestPredict:
    def test_mean_of_trees(self):
        rng = np.random.default_rng(8)
        X = rng.normal(size=(20, 2))
        y = rng.normal(size=20)
        forest = train_forest(X, y, ForestParams(n_trees=2, seed=3))
        x = X[0]
        a = forest.trees[0].predict(x)
        b = forest.trees[1].predict(x)
        assert predict_forest(forest, x) == pytest.approx((a + b) / 2)

    def test_schema_mismatch(self):
        forest = train_forest(np.zeros((4, 2)) + np.arange(4)[:, None], np.arange(4.0),
                              ForestParams(n_trees=1, seed=1))
        with pytest.raises(SchemaMismatchError):
            predict_forest(forest, [1.0])
        with pytest.raises(SchemaMismatchError):
            predict_forest(forest, {"x0": 1.0})

    def test_mapping_row(self):
        X = np.asarray([[0.0, 1.0], [1.0, 2.0], [2.0, 3.0], [3.0, 4.0]])
        forest = train_forest(X, np.arange(4.0), ForestParams(n_trees=5, seed=1),
                              feature_names=["a", "b"])
        vec = predict_forest(forest, X[2])
        assert predict_forest(forest, {"a": 2.0, "b": 3.0}) == vec


class TestSerialization:
    def test_round_trip_lossless(self):
        rng = np.random.default_rng(9)
        X = rng.normal(size=(30, 3))
        y = rng.normal(size=30)
        forest = train_forest(X, y, ForestParams(n_trees=7, seed=13))
        doc = forest_to_json(forest)
        back = forest_from_json(doc)
        assert forest_to_json(back) == doc
        for i in range(10):
            assert predict_forest(back, X[i]) == predict_forest(forest, X[i])

    def test_rejects_unknown_document(self):
        with pytest.raises(SchemaMismatchError):
            forest_from_json('{"kind": "something", "schema_version": 1}')


def _document(**changes):
    """A small forest's JSON document as a dict, with top-level changes applied."""
    forest = train_forest(np.arange(12.0).reshape(6, 2), np.asarray([0.0, 0, 1, 1, 5, 5]),
                          ForestParams(n_trees=2, seed=1, min_node_size=1, bootstrap=False),
                          feature_names=["a", "b"])
    doc = json.loads(forest_to_json(forest))
    doc.update(changes)
    return doc


def _first_split(doc):
    node = doc["trees"][0]
    assert "feature" in node
    return node


class TestFromJsonMalformed:
    @pytest.mark.parametrize("text", ['{"kind": "forest", "schema_', ""])
    def test_text_that_is_not_json(self, text):
        with pytest.raises(SchemaMismatchError, match="not JSON"):
            forest_from_json(text)

    @pytest.mark.parametrize("key", ["params", "feature_names", "trees"])
    def test_missing_top_level_field(self, key):
        doc = _document()
        del doc[key]
        with pytest.raises(SchemaMismatchError, match=f"no '{key}'"):
            forest_from_json(json.dumps(doc))

    def test_unknown_params_key(self):
        doc = _document()
        doc["params"]["trees"] = 3
        with pytest.raises(SchemaMismatchError, match="'params'.*'trees'"):
            forest_from_json(json.dumps(doc))

    def test_bad_params_value(self):
        doc = _document()
        doc["params"]["n_trees"] = 2.5
        with pytest.raises(SchemaMismatchError, match="n_trees must be an integer"):
            forest_from_json(json.dumps(doc))

    @pytest.mark.parametrize("value", ["no", "false", 0, None])
    def test_bootstrap_not_a_boolean(self, value):
        doc = _document()
        doc["params"]["bootstrap"] = value
        with pytest.raises(SchemaMismatchError, match=f"forest 'params': bootstrap must be a boolean, got {value!r}"):
            forest_from_json(json.dumps(doc))

    def test_trees_not_a_list(self):
        with pytest.raises(SchemaMismatchError, match="'trees' must be a list"):
            forest_from_json(json.dumps(_document(trees={"0": {"value": 1.0}})))

    @pytest.mark.parametrize("key", ["threshold", "left", "right"])
    def test_split_node_missing_field(self, key):
        doc = _document()
        del _first_split(doc)[key]
        with pytest.raises(SchemaMismatchError, match=f"tree 0 node 0 is a split with no '{key}'"):
            forest_from_json(json.dumps(doc))

    def test_leaf_missing_value(self):
        doc = _document()
        split = _first_split(doc)
        split["left"] = {}
        with pytest.raises(SchemaMismatchError, match="tree 0 node 1 has neither 'value'"):
            forest_from_json(json.dumps(doc))

    @pytest.mark.parametrize("feature", [2, -1, 1.0, "a"])
    def test_feature_outside_feature_names(self, feature):
        doc = _document()
        _first_split(doc)["feature"] = feature
        with pytest.raises(SchemaMismatchError, match="'feature' must index one of the 2 feature_names"):
            forest_from_json(json.dumps(doc))

    @pytest.mark.parametrize("threshold", ["x", None, True, [0.5]])
    def test_bad_threshold_is_named_after_its_subtrees(self, threshold):
        doc = _document()
        split = _first_split(doc)
        split["threshold"] = threshold
        good_left = split["left"]
        split["left"] = {}
        with pytest.raises(SchemaMismatchError, match="tree 0 node 1 has neither 'value'"):
            forest_from_json(json.dumps(doc))
        split["left"] = good_left
        with pytest.raises(SchemaMismatchError, match="tree 0 node 0 'threshold' must be a number"):
            forest_from_json(json.dumps(doc))

    def test_bad_threshold_is_named_before_a_later_subtree(self):
        leaf = {"value": 1.0}
        inner = {"feature": 0, "threshold": "x", "left": leaf, "right": leaf}
        tree = {"feature": 0, "threshold": 0.5, "left": inner, "right": {}}
        with pytest.raises(SchemaMismatchError, match="^tree 0 node 1 'threshold' must be a number"):
            TreeNode.from_dict(tree, 1, "tree 0")
        inner["threshold"] = 2  # an integer threshold is a number
        with pytest.raises(SchemaMismatchError, match="^tree 0 node 4 has neither"):
            TreeNode.from_dict(tree, 1, "tree 0")
        tree["right"] = leaf
        assert TreeNode.from_dict(tree, 1, "tree 0").threshold[:2].tolist() == [0.5, 2.0]

    @pytest.mark.parametrize("number", [float("nan"), float("inf"), -float("inf"), 10**400])
    def test_non_finite_threshold(self, number):
        doc = _document()
        _first_split(doc)["threshold"] = number
        with pytest.raises(SchemaMismatchError, match="^tree 0 node 0 'threshold' must be finite, got "):
            forest_from_json(json.dumps(doc))

    @pytest.mark.parametrize("number", [float("nan"), float("inf"), -float("inf"), 10**400])
    def test_non_finite_leaf_value(self, number):
        doc = _document()
        _first_split(doc)["right"] = {"value": number}
        node = TreeNode.from_dict(_first_split(_document()), 2, "tree 0").right[0]
        with pytest.raises(SchemaMismatchError, match=f"^tree 0 node {node} 'value' must be finite, got "):
            forest_from_json(json.dumps(doc))

    def test_first_non_finite_node_is_named(self):
        leaf = {"value": 1.0}
        inner = {"feature": 0, "threshold": 0.5, "left": leaf, "right": {"value": float("nan")}}
        tree = {"feature": 0, "threshold": float("inf"), "left": inner, "right": leaf}
        with pytest.raises(SchemaMismatchError, match="^tree 0 node 0 'threshold' must be finite, got inf$"):
            TreeNode.from_dict(tree, 1, "tree 0")
        tree["threshold"] = 0.5
        with pytest.raises(SchemaMismatchError, match="^tree 0 node 3 'value' must be finite, got nan$"):
            TreeNode.from_dict(tree, 1, "tree 0")

    @pytest.mark.parametrize(
        "key, value, named",
        [
            ("oob_mse", "abc", "forest 'oob_mse' must be a number, got 'abc'"),
            ("oob_mse", None, "forest 'oob_mse' must be a number, got None"),
            ("oob_mse", True, "forest 'oob_mse' must be a number, got True"),
            ("n_never_oob", -4, "forest 'n_never_oob' must be a non-negative integer, got -4"),
            ("n_never_oob", "x", "forest 'n_never_oob' must be a non-negative integer, got 'x'"),
            ("n_never_oob", 1.0, "forest 'n_never_oob' must be a non-negative integer, got 1.0"),
            ("n_never_oob", False, "forest 'n_never_oob' must be a non-negative integer, got False"),
        ],
        ids=["oob-string", "oob-null", "oob-bool", "never-negative", "never-string", "never-float", "never-bool"],
    )
    def test_bad_oob_fields(self, key, value, named):
        with pytest.raises(SchemaMismatchError, match=f"^{named}$"):
            forest_from_json(json.dumps(_document(**{key: value})))

    def test_oob_defaults(self):
        doc = _document()
        assert doc["oob_mse"] != doc["oob_mse"]  # bootstrap=False writes NaN
        del doc["n_never_oob"]
        forest = forest_from_json(json.dumps(doc))
        assert forest.n_never_oob == 0 and np.isnan(forest.oob_mse)
        doc["oob_mse"] = 2
        assert forest_from_json(json.dumps(doc)).oob_mse == 2.0

    def test_tree_count_differs_from_params(self):
        doc = _document()
        doc["trees"] = doc["trees"][:1]
        with pytest.raises(SchemaMismatchError, match="1 'trees' but params.n_trees is 2"):
            forest_from_json(json.dumps(doc))

    def test_too_deeply_nested(self):
        depth = 3000
        split = '{"feature": 0, "threshold": 0.5, "left": '
        tree = split * depth + '{"value": 1.0}' + ', "right": {"value": 2.0}}' * depth
        text = json.dumps(_document(trees=[])).replace('"trees": []', f'"trees": [{tree}, {tree}]')
        with pytest.raises(SchemaMismatchError, match="nested too deeply"):
            forest_from_json(text)


def test_deep_tree_reads_and_writes_without_recursion():
    depth = 1200  # deeper than the default recursion limit
    d = {"value": 0.0}
    for i in range(depth):
        d = {"feature": 0, "threshold": float(i), "left": {"value": 1.0}, "right": d}
    tree = TreeNode.from_dict(d, 1, "tree 0")
    assert tree.depth == depth and tree.feature.size == 2 * depth + 1
    assert tree.predict([-1.0]) == 1.0 and tree.predict([depth + 1.0]) == 0.0
    forest = Forest(trees=(tree,), params=ForestParams(n_trees=1, seed=1), feature_names=("a",), oob_mse=0.5)
    text = forest_to_json(forest)
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(4 * depth)  # only for json's own recursive encoder and decoder
    try:
        assert json.loads(text)["trees"] == [d]
        assert text == json.dumps(json.loads(text), sort_keys=True, indent=2) + "\n"
    finally:
        sys.setrecursionlimit(limit)
