"""Bagged regression trees with per-tree seeded random streams.

Each tree draws its bootstrap sample and feature subsets from a generator
derived only from (seed, tree index), so parallel and sequential training
produce bit-identical forests.  Splits minimize total child SSE over
midpoint thresholds; ties break to the lowest feature index, then the
lowest threshold.
"""

from __future__ import annotations

import json
import logging
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np

from .errors import SchemaMismatchError, ValidationError

log = logging.getLogger(__name__)

THREADS_ENV_VAR = "QUARTERCAST_THREADS"

FOREST_SCHEMA_VERSION = 1


def resolve_threads(n_threads: int | None = None) -> int:
    """Worker count: explicit argument, else QUARTERCAST_THREADS, else all cores."""
    if n_threads is not None:
        return max(1, int(n_threads))
    env = os.environ.get(THREADS_ENV_VAR)
    if env:
        try:
            return max(1, int(env))
        except ValueError:
            raise ValidationError(f"{THREADS_ENV_VAR} must be an integer, got {env!r}") from None
    return os.cpu_count() or 1


@dataclass(frozen=True)
class ForestParams:
    n_trees: int = 500
    mtry: int | None = None  # default: floor(active features / 3), at least 1
    min_node_size: int = 5
    max_depth: int | None = None
    seed: int = 0
    bootstrap: bool = True  # False exists only for memorization tests

    def __post_init__(self):
        if self.n_trees < 1:
            raise ValidationError(f"n_trees must be >= 1, got {self.n_trees}")
        if self.mtry is not None and self.mtry < 1:
            raise ValidationError(f"mtry must be >= 1, got {self.mtry}")
        if self.min_node_size < 1:
            raise ValidationError(f"min_node_size must be >= 1, got {self.min_node_size}")
        if self.max_depth is not None and self.max_depth < 1:
            raise ValidationError(f"max_depth must be >= 1, got {self.max_depth}")
        if self.seed < 0:
            raise ValidationError(f"seed must be a nonnegative integer, got {self.seed}")


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

    @classmethod
    def from_dict(cls, d: dict) -> "TreeNode":
        if "value" in d:
            return cls(value=d["value"])
        return cls(
            feature=d["feature"],
            threshold=d["threshold"],
            left=cls.from_dict(d["left"]),
            right=cls.from_dict(d["right"]),
        )

    def __eq__(self, other):
        if not isinstance(other, TreeNode):
            return NotImplemented
        return self.to_dict() == other.to_dict()


@dataclass(frozen=True)
class Forest:
    trees: tuple[TreeNode, ...]
    params: ForestParams
    feature_names: tuple[str, ...]
    oob_mse: float
    n_never_oob: int = 0


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


def _tree_rng(seed: int, tree_index: int) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(tree_index,)))


def _build_one(X, y, params: ForestParams, active, mtry, rng):
    n = y.size
    if params.bootstrap:
        sample = rng.integers(0, n, size=n)
        root = _grow(X[sample], y[sample], np.arange(n), params, rng, active, mtry, 0)
    else:
        sample = np.arange(n)
        root = _grow(X, y, sample, params, rng, active, mtry, 0)
    return root, sample


def build_tree(X, y, params: ForestParams, tree_rng: np.random.Generator | None = None) -> TreeNode:
    """Grow one tree on its bootstrap sample (or all rows in bypass mode)."""
    X = np.asarray(X, dtype=float)
    y = np.asarray(y, dtype=float)
    if tree_rng is None:
        tree_rng = _tree_rng(0, 0)
    active = _active_features(X)
    mtry = _resolve_mtry(params, X.shape[1], len(active))
    root, _ = _build_one(X, y, params, active, mtry, tree_rng)
    return root


def _active_features(X: np.ndarray) -> np.ndarray:
    """Columns with at least two distinct values; constants can never split."""
    return np.asarray(
        [j for j in range(X.shape[1]) if np.any(X[:, j] != X[0, j])], dtype=int
    )


def _resolve_mtry(params: ForestParams, n_features: int, n_active: int) -> int:
    if params.mtry is not None:
        if params.mtry > n_features:
            raise ValidationError(f"mtry {params.mtry} exceeds feature count {n_features}")
        return params.mtry
    return max(1, n_active // 3)


def train_forest(
    X,
    y,
    params: ForestParams,
    feature_names: Sequence[str] | None = None,
    n_threads: int | None = None,
) -> Forest:
    """Train a bagged forest; bit-identical output for any thread count."""
    X = np.asarray(X, dtype=float)
    y = np.asarray(y, dtype=float)
    if X.ndim != 2 or y.ndim != 1 or X.shape[0] != y.size:
        raise ValidationError("X must be 2-D with one target per row")
    if y.size == 0:
        raise ValidationError("training set is empty")
    if not np.all(np.isfinite(X)) or not np.all(np.isfinite(y)):
        raise ValidationError("features and targets must be finite")
    names = tuple(feature_names) if feature_names is not None else tuple(
        f"x{j}" for j in range(X.shape[1])
    )
    if len(names) != X.shape[1]:
        raise SchemaMismatchError(f"{len(names)} feature names for {X.shape[1]} columns")

    active = _active_features(X)
    mtry = _resolve_mtry(params, X.shape[1], len(active))

    workers = resolve_threads(n_threads)

    def build(i: int):
        return _build_one(X, y, params, active, mtry, _tree_rng(params.seed, i))

    indices = range(params.n_trees)
    if workers == 1:
        built = [build(i) for i in indices]
    else:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            built = list(pool.map(build, indices))

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
    if n_never and params.bootstrap:
        log.warning("%d of %d rows were never out-of-bag; excluded from oob_mse", n_never, n)

    return Forest(
        trees=tuple(root for root, _ in built),
        params=params,
        feature_names=names,
        oob_mse=oob_mse,
        n_never_oob=n_never,
    )


def predict_forest(forest: Forest, row) -> float:
    """Mean of per-tree leaf values for one feature vector or mapping."""
    if isinstance(row, Mapping):
        missing = [name for name in forest.feature_names if name not in row]
        if missing:
            raise SchemaMismatchError(f"row is missing features: {missing}")
        x = np.asarray([float(row[name]) for name in forest.feature_names])
    else:
        x = np.asarray(row, dtype=float)
        if x.shape != (len(forest.feature_names),):
            raise SchemaMismatchError(
                f"row has {x.size} values, model expects {len(forest.feature_names)}"
            )
    return float(np.mean([tree.predict(x) for tree in forest.trees]))


def forest_to_json(forest: Forest) -> str:
    doc = {
        "schema_version": FOREST_SCHEMA_VERSION,
        "kind": "forest",
        "params": {
            "n_trees": forest.params.n_trees,
            "mtry": forest.params.mtry,
            "min_node_size": forest.params.min_node_size,
            "max_depth": forest.params.max_depth,
            "seed": forest.params.seed,
            "bootstrap": forest.params.bootstrap,
        },
        "feature_names": list(forest.feature_names),
        "oob_mse": forest.oob_mse,
        "n_never_oob": forest.n_never_oob,
        "trees": [tree.to_dict() for tree in forest.trees],
    }
    return json.dumps(doc, sort_keys=True, indent=2) + "\n"


def forest_from_json(text: str) -> Forest:
    doc = json.loads(text)
    if doc.get("kind") != "forest" or doc.get("schema_version") != FOREST_SCHEMA_VERSION:
        raise SchemaMismatchError("not a recognized forest document")
    params = ForestParams(**doc["params"])
    return Forest(
        trees=tuple(TreeNode.from_dict(d) for d in doc["trees"]),
        params=params,
        feature_names=tuple(doc["feature_names"]),
        oob_mse=doc["oob_mse"],
        n_never_oob=doc.get("n_never_oob", 0),
    )
