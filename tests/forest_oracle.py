"""The forest as it was before the flat-array engine: the bit-identity oracle.

A verbatim copy of the per-feature, per-cut ``best_split``, the recursive
``TreeNode`` (with ``predict`` and ``to_dict``), ``_grow``, ``_build_one``,
the row-by-row out-of-bag loop of ``train_forest`` and the mean of
``predict_forest``, frozen here so that the vectorised engine in
``quartercast.forest`` can be checked against it bit for bit.  Only the
imports and the two small wrappers at the end (``train`` and ``to_json``,
the bodies of the old ``train_forest`` and ``forest_to_json`` without their
input checks) are new.
"""

from __future__ import annotations

import json

import numpy as np

from quartercast.forest import (
    FOREST_SCHEMA_VERSION,
    ForestParams,
    _active_features,
    _resolve_mtry,
    _tree_rng,
)


class TreeNode:
    """Internal node (feature, threshold, children) or leaf (value)."""

    __slots__ = ("feature", "threshold", "left", "right", "value")

    def __init__(self, feature=None, threshold=None, left=None, right=None, value=None):
        self.feature = feature
        self.threshold = threshold
        self.left = left
        self.right = right
        self.value = value

    @property
    def is_leaf(self) -> bool:
        return self.value is not None

    def predict(self, x) -> float:
        node = self
        while not node.is_leaf:
            node = node.left if x[node.feature] <= node.threshold else node.right
        return node.value

    def to_dict(self) -> dict:
        if self.is_leaf:
            return {"value": self.value}
        return {
            "feature": self.feature,
            "threshold": self.threshold,
            "left": self.left.to_dict(),
            "right": self.right.to_dict(),
        }


def best_split(X: np.ndarray, y: np.ndarray, candidate_features) -> tuple[int, float, float] | None:
    """The (feature, threshold, sse_reduction) minimizing total child SSE.

    Thresholds are midpoints between consecutive distinct sorted values.
    Returns None when no candidate feature has two distinct values or no
    split has positive gain.
    """
    n = y.size
    if n < 2:
        return None
    tot = float(np.sum(y))
    tot2 = float(np.sum(y * y))
    parent_sse = tot2 - tot * tot / n
    best = None
    for f in sorted(int(c) for c in candidate_features):
        v = X[:, f]
        order = np.argsort(v, kind="stable")
        vs = v[order]
        ys = y[order]
        cum = np.cumsum(ys)
        cum2 = np.cumsum(ys * ys)
        cuts = np.nonzero(vs[:-1] < vs[1:])[0]
        for i in cuts:
            n_l = i + 1
            sse_l = cum2[i] - cum[i] * cum[i] / n_l
            n_r = n - n_l
            sum_r = tot - cum[i]
            sse_r = (tot2 - cum2[i]) - sum_r * sum_r / n_r
            gain = parent_sse - (sse_l + sse_r)
            if gain > 0.0 and (best is None or gain > best[2]):
                thr = 0.5 * (vs[i] + vs[i + 1])
                if thr >= vs[i + 1]:  # midpoint of adjacent floats can round up
                    thr = vs[i]
                best = (f, float(thr), float(gain))
    return best


def _grow(X, y, indices, params: ForestParams, rng, active, mtry, depth) -> TreeNode:
    node_y = y[indices]
    if (
        indices.size <= params.min_node_size
        or (params.max_depth is not None and depth >= params.max_depth)
        or np.all(node_y == node_y[0])
    ):
        return TreeNode(value=float(np.mean(node_y)))
    candidates = rng.permutation(active)[:mtry]
    split = best_split(X[indices], node_y, candidates)
    if split is None:
        return TreeNode(value=float(np.mean(node_y)))
    f, thr, _ = split
    mask = X[indices, f] <= thr
    left = _grow(X, y, indices[mask], params, rng, active, mtry, depth + 1)
    right = _grow(X, y, indices[~mask], params, rng, active, mtry, depth + 1)
    return TreeNode(feature=f, threshold=thr, left=left, right=right)


def _build_one(X, y, params: ForestParams, active, mtry, rng):
    n = y.size
    if params.bootstrap:
        sample = rng.integers(0, n, size=n)
        root = _grow(X[sample], y[sample], np.arange(n), params, rng, active, mtry, 0)
    else:
        sample = np.arange(n)
        root = _grow(X, y, sample, params, rng, active, mtry, 0)
    return root, sample


def train(X, y, params: ForestParams):
    """The old ``train_forest`` body: (roots, oob_mse, n_never_oob)."""
    X = np.asarray(X, dtype=float)
    y = np.asarray(y, dtype=float)
    active = _active_features(X)
    mtry = _resolve_mtry(params, X.shape[1], len(active))
    built = [
        _build_one(X, y, params, active, mtry, _tree_rng(params.seed, i))
        for i in range(params.n_trees)
    ]

    n = y.size
    oob_sum = np.zeros(n)
    oob_count = np.zeros(n, dtype=int)
    for root, sample in built:
        in_bag = np.zeros(n, dtype=bool)
        in_bag[sample] = True
        for row in np.nonzero(~in_bag)[0]:
            oob_sum[row] += root.predict(X[row])
            oob_count[row] += 1
    covered = oob_count > 0
    if np.any(covered):
        oob_pred = oob_sum[covered] / oob_count[covered]
        oob_mse = float(np.mean((oob_pred - y[covered]) ** 2))
    else:
        oob_mse = float("nan")
    n_never = int(np.sum(~covered))
    return tuple(root for root, _ in built), oob_mse, n_never


def predict(roots, x) -> float:
    """The old ``predict_forest`` mean for one feature vector."""
    return float(np.mean([tree.predict(x) for tree in roots]))


def to_json(roots, params: ForestParams, feature_names, oob_mse, n_never_oob) -> str:
    """The old ``forest_to_json`` document, from the oracle's trees."""
    doc = {
        "schema_version": FOREST_SCHEMA_VERSION,
        "kind": "forest",
        "params": {
            "n_trees": params.n_trees,
            "mtry": params.mtry,
            "min_node_size": params.min_node_size,
            "max_depth": params.max_depth,
            "seed": params.seed,
            "bootstrap": params.bootstrap,
        },
        "feature_names": list(feature_names),
        "oob_mse": oob_mse,
        "n_never_oob": n_never_oob,
        "trees": [tree.to_dict() for tree in roots],
    }
    return json.dumps(doc, sort_keys=True, indent=2) + "\n"
