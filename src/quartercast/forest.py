"""Bagged regression trees with per-tree seeded random streams.

Each tree draws its bootstrap sample and feature subsets from a generator
derived only from (seed, tree index), so a forest does not depend on the
order or the worker its trees are built in.  Trees are built serially:
under the interpreter lock, threads only slow the growth down.
Splits minimize total child SSE over midpoint thresholds; ties break to
the lowest feature index, then the lowest threshold.  One numpy pass
scores every candidate feature and cut of a node.

A tree is stored as flat preorder arrays (see ``TreeNode``).  Prediction
walks many (tree, row) pairs at once, one numpy step per tree level.
"""

from __future__ import annotations

import json
import logging
import os
from dataclasses import dataclass, fields
from functools import cached_property
from typing import Mapping, Sequence

import numpy as np

from .errors import SchemaMismatchError, ValidationError

log = logging.getLogger(__name__)

THREADS_ENV_VAR = "QUARTERCAST_THREADS"

FOREST_SCHEMA_VERSION = 1


def resolve_threads(n_threads: int | None = None) -> int:
    """Worker count: explicit argument, else QUARTERCAST_THREADS, else all cores.

    No layer runs in parallel today, so the count changes nothing.  A
    malformed QUARTERCAST_THREADS is still a ValidationError: the variable
    is reserved as the worker bound of a window-fit process pool.
    """
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
        for name in ("n_trees", "mtry", "min_node_size", "max_depth", "seed"):
            value = getattr(self, name)
            optional = name in ("mtry", "max_depth")
            if (value is None and optional) or (isinstance(value, int) and not isinstance(value, bool)):
                continue
            kind = "an integer or None" if optional else "an integer"
            raise ValidationError(f"{name} must be {kind}, got {value!r}")
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
    """A tree as flat preorder arrays; node 0 is the root.

    Node i sends a row x to ``left[i]`` when ``x[feature[i]] <= threshold[i]``
    and to ``right[i]`` otherwise; ``left[i]`` is i + 1.  A leaf has feature
    -1, a NaN threshold, both children pointing at itself and its prediction
    in ``value[i]`` (NaN at split nodes), so a walk that reaches it stays
    there.  ``depth`` is the longest root-to-leaf path, the number of steps
    a walk needs.
    """

    __slots__ = ("feature", "threshold", "left", "right", "value", "depth")

    def __init__(self, feature, threshold, left, right, value, depth: int):
        self.feature = feature
        self.threshold = threshold
        self.left = left
        self.right = right
        self.value = value
        self.depth = depth

    @classmethod
    def _from_nodes(cls, nodes: list, depth: int) -> "TreeNode":
        feature, threshold, left, right, value = zip(*nodes)
        return cls(
            np.array(feature, dtype=np.intp),
            np.array(threshold, dtype=float),
            np.array(left, dtype=np.intp),
            np.array(right, dtype=np.intp),
            np.array(value, dtype=float),
            depth,
        )

    @property
    def is_leaf(self) -> bool:
        """True when the whole tree is one leaf."""
        return bool(self.feature[0] < 0)

    def predict(self, x) -> float:
        return float(_walk(self, np.asarray(x, dtype=float), np.zeros(1, dtype=np.intp))[0])

    def to_dict(self) -> dict:
        """The nested schema-1 form: {"value"} leaves, {"feature", "threshold", "left", "right"} splits."""
        feature, threshold, right, value = (
            a.tolist() for a in (self.feature, self.threshold, self.right, self.value)
        )
        out: list = [None] * len(feature)
        for i in range(len(feature) - 1, -1, -1):  # children before their parent
            out[i] = {"value": value[i]} if feature[i] < 0 else {
                "feature": feature[i], "threshold": threshold[i], "left": out[i + 1], "right": out[right[i]]
            }
        return out[0]

    @classmethod
    def from_dict(cls, d: dict, n_features: int, where: str) -> "TreeNode":
        """Inverse of ``to_dict``; a malformed node raises SchemaMismatchError naming it."""
        nodes: list = []

        def add(d, depth) -> int:
            me = len(nodes)
            at = f"{where} node {me}"
            if not isinstance(d, dict):
                raise SchemaMismatchError(f"{at} must be an object, got {d!r}")
            if "value" in d:
                nodes.append((-1, np.nan, me, me, _number(d["value"], f"{at} 'value'")))
                return depth
            if "feature" not in d:
                raise SchemaMismatchError(f"{at} has neither 'value' (leaf) nor 'feature' (split)")
            for key in ("threshold", "left", "right"):
                if key not in d:
                    raise SchemaMismatchError(f"{at} is a split with no {key!r}")
            f = d["feature"]
            if not isinstance(f, int) or isinstance(f, bool) or not 0 <= f < n_features:
                raise SchemaMismatchError(
                    f"{at} 'feature' must index one of the {n_features} feature_names, got {f!r}"
                )
            nodes.append(None)  # filled in once the right child's index is known
            deepest = add(d["left"], depth + 1)
            right = len(nodes)
            deepest = max(deepest, add(d["right"], depth + 1))
            nodes[me] = (f, _number(d["threshold"], f"{at} 'threshold'"), me + 1, right, np.nan)
            return deepest

        depth = add(d, 0)
        return cls._from_nodes(nodes, depth)

    def __eq__(self, other):
        if not isinstance(other, TreeNode):
            return NotImplemented
        return self.to_dict() == other.to_dict()


def _number(value, what: str) -> float:
    if not isinstance(value, (int, float)) or isinstance(value, bool):
        raise SchemaMismatchError(f"{what} must be a number, got {value!r}")
    return float(value)


def _walk(tree: TreeNode, x: np.ndarray, node: np.ndarray, base=0) -> np.ndarray:
    """Leaf values reached from start nodes ``node``, one row of flat ``x`` each.

    Row k reads its features from ``x[base[k] + feature]`` (``base`` 0: every
    walk reads the one row ``x``).  A leaf's feature -1 reads some other
    value of ``x``, which the walk ignores: both its children are itself.
    """
    for _ in range(tree.depth):
        go_left = x[base + tree.feature[node]] <= tree.threshold[node]
        node = np.where(go_left, tree.left[node], tree.right[node])
    return tree.value[node]


def _stack(trees: Sequence[TreeNode]) -> tuple[TreeNode, np.ndarray]:
    """All trees end to end as one flat tree with many roots, and those roots."""
    sizes = [t.feature.size for t in trees]
    roots = np.cumsum([0] + sizes[:-1])
    shift = np.repeat(roots, sizes)
    flat = TreeNode(
        np.concatenate([t.feature for t in trees]),
        np.concatenate([t.threshold for t in trees]),
        np.concatenate([t.left for t in trees]) + shift,
        np.concatenate([t.right for t in trees]) + shift,
        np.concatenate([t.value for t in trees]),
        max(t.depth for t in trees),
    )
    return flat, roots


@dataclass(frozen=True)
class Forest:
    trees: tuple[TreeNode, ...]
    params: ForestParams
    feature_names: tuple[str, ...]
    oob_mse: float
    n_never_oob: int = 0

    @cached_property
    def _flat(self) -> tuple[TreeNode, np.ndarray]:
        return _stack(self.trees)


def best_split(X: np.ndarray, y: np.ndarray, candidate_features) -> tuple[int, float, float] | None:
    """The (feature, threshold, sse_reduction) minimizing total child SSE.

    Thresholds are midpoints between consecutive distinct sorted values.
    Returns None when no candidate feature has two distinct values or no
    split has positive gain.  Every (feature, cut) is scored in one pass:
    a stable sort and a running sum down each column, the gain expressions
    elementwise, and the first maximum in (sorted feature, cut) order.
    """
    n = y.size
    features = sorted({int(c) for c in candidate_features})
    if n < 2 or not features:
        return None
    tot = float(y.sum())
    tot2 = float((y * y).sum())
    parent_sse = tot2 - tot * tot / n
    v = X[:, features]
    order = v.argsort(axis=0, kind="stable")
    vs = v[order, np.arange(len(features))]
    ys = y[order]
    cum = ys.cumsum(axis=0)[:-1]  # cut i: rows 0..i go left
    cum2 = (ys * ys).cumsum(axis=0)[:-1]
    n_l = np.arange(1, n, dtype=float)[:, None]
    n_r = n - n_l
    sse_l = cum2 - cum * cum / n_l
    sum_r = tot - cum
    sse_r = (tot2 - cum2) - sum_r * sum_r / n_r
    gain = parent_sse - (sse_l + sse_r)
    gain[~((vs[:-1] < vs[1:]) & (gain > 0.0))] = -np.inf
    j, i = divmod(int(np.argmax(gain.T)), n - 1)  # first maximum, feature-major
    if gain[i, j] == -np.inf:
        return None
    thr = 0.5 * (vs[i, j] + vs[i + 1, j])
    if thr >= vs[i + 1, j]:  # midpoint of adjacent floats can round up
        thr = vs[i, j]
    return features[j], float(thr), float(gain[i, j])


def _grow(X, y, indices, params: ForestParams, rng, active, mtry, depth, nodes: list) -> int:
    """Append the subtree over ``indices`` to ``nodes`` in preorder; return its deepest level."""
    node_y = y[indices]
    me = len(nodes)
    if not (
        indices.size <= params.min_node_size
        or (params.max_depth is not None and depth >= params.max_depth)
        or (node_y == node_y[0]).all()
    ):
        candidates = rng.permutation(active)[:mtry]
        split = best_split(X[indices], node_y, candidates)
        if split is not None:
            f, thr, _ = split
            mask = X[indices, f] <= thr
            nodes.append(None)  # filled in once the right child's index is known
            deepest = _grow(X, y, indices[mask], params, rng, active, mtry, depth + 1, nodes)
            right = len(nodes)
            deepest = max(deepest, _grow(X, y, indices[~mask], params, rng, active, mtry, depth + 1, nodes))
            nodes[me] = (f, thr, me + 1, right, np.nan)
            return deepest
    nodes.append((-1, np.nan, me, me, float(node_y.mean())))
    return depth


def _tree_rng(seed: int, tree_index: int) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(tree_index,)))


def _build_one(X, y, params: ForestParams, active, mtry, rng) -> tuple[TreeNode, np.ndarray]:
    n = y.size
    if params.bootstrap:
        sample = rng.integers(0, n, size=n)
        X, y = X[sample], y[sample]
    else:
        sample = np.arange(n)
    nodes: list = []
    depth = _grow(X, y, np.arange(n), params, rng, active, mtry, 0, nodes)
    return TreeNode._from_nodes(nodes, depth), sample


def _training_set(X, y) -> tuple[np.ndarray, np.ndarray]:
    """X and y as float arrays, rejecting a ragged, empty or non-finite training set."""
    X = np.asarray(X, dtype=float)
    y = np.asarray(y, dtype=float)
    if X.ndim != 2 or y.ndim != 1 or X.shape[0] != y.size:
        raise ValidationError(
            f"X must be 2-D with one target per row, got X of shape {X.shape} and y of shape {y.shape}"
        )
    if y.size == 0:
        raise ValidationError("training set is empty")
    if not np.all(np.isfinite(X)) or not np.all(np.isfinite(y)):
        raise ValidationError("features and targets must be finite")
    return X, y


def build_tree(X, y, params: ForestParams, tree_rng: np.random.Generator | None = None) -> TreeNode:
    """Grow one tree on its bootstrap sample (or all rows in bypass mode)."""
    X, y = _training_set(X, y)
    if tree_rng is None:
        tree_rng = _tree_rng(0, 0)
    active = _active_features(X)
    mtry = _resolve_mtry(params, X.shape[1], len(active))
    tree, _ = _build_one(X, y, params, active, mtry, tree_rng)
    return tree


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


def _oob_score(trees, samples, X, y) -> tuple[float, int]:
    """(oob_mse, rows never out of bag): each row scored by the trees it was not drawn for.

    Every (tree, out-of-bag row) pair is walked at once; the predictions
    are then added into each row's sum in tree order, as one tree after
    another would add them.
    """
    n = y.size
    in_bag = np.zeros((len(trees), n), dtype=bool)
    in_bag[np.arange(len(trees))[:, None], np.stack(samples)] = True
    tree_of, rows = np.nonzero(~in_bag)  # tree-major, rows ascending
    flat, roots = _stack(trees)
    preds = _walk(flat, X.ravel(), roots[tree_of], rows * X.shape[1])
    oob_sum = np.zeros(n)
    np.add.at(oob_sum, rows, preds)  # unbuffered: in pair order, so tree by tree
    oob_count = np.bincount(rows, minlength=n)
    covered = oob_count > 0
    if np.any(covered):
        oob_pred = oob_sum[covered] / oob_count[covered]
        oob_mse = float(np.mean((oob_pred - y[covered]) ** 2))
    else:
        oob_mse = float("nan")
    return oob_mse, int(np.sum(~covered))


def train_forest(
    X,
    y,
    params: ForestParams,
    feature_names: Sequence[str] | None = None,
    n_threads: int | None = None,
) -> Forest:
    """Train a bagged forest, building its trees serially in index order.

    ``n_threads`` is resolved (and a malformed QUARTERCAST_THREADS
    rejected) but builds nothing in parallel; the forest is bit-identical
    for every value.
    """
    X, y = _training_set(X, y)
    names = tuple(feature_names) if feature_names is not None else tuple(
        f"x{j}" for j in range(X.shape[1])
    )
    if len(names) != X.shape[1]:
        raise SchemaMismatchError(f"{len(names)} feature names for {X.shape[1]} columns")

    active = _active_features(X)
    mtry = _resolve_mtry(params, X.shape[1], len(active))

    resolve_threads(n_threads)
    built = [
        _build_one(X, y, params, active, mtry, _tree_rng(params.seed, i))
        for i in range(params.n_trees)
    ]
    trees = tuple(tree for tree, _ in built)
    oob_mse, n_never = _oob_score(trees, [sample for _, sample in built], X, y)
    if n_never and params.bootstrap:
        log.warning("%d of %d rows were never out-of-bag; excluded from oob_mse", n_never, y.size)

    return Forest(
        trees=trees,
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
    flat, roots = forest._flat
    return float(np.mean(_walk(flat, x, roots)))


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
    """Read a ``forest_to_json`` document; a malformed one raises SchemaMismatchError naming the field."""
    doc = json.loads(text)
    if (
        not isinstance(doc, dict)
        or doc.get("kind") != "forest"
        or doc.get("schema_version") != FOREST_SCHEMA_VERSION
    ):
        raise SchemaMismatchError("not a recognized forest document")
    for key in ("params", "feature_names", "oob_mse", "trees"):
        if key not in doc:
            raise SchemaMismatchError(f"forest document has no {key!r}")
    settings = doc["params"]
    if not isinstance(settings, dict):
        raise SchemaMismatchError(f"forest 'params' must be an object, got {settings!r}")
    unknown = sorted(set(settings) - {f.name for f in fields(ForestParams)})
    if unknown:
        raise SchemaMismatchError(f"forest 'params' has unknown key(s) {', '.join(map(repr, unknown))}")
    try:
        params = ForestParams(**settings)
    except ValidationError as exc:
        raise SchemaMismatchError(f"forest 'params': {exc}") from None
    names = doc["feature_names"]
    if not isinstance(names, list) or not all(isinstance(name, str) for name in names):
        raise SchemaMismatchError(f"forest 'feature_names' must be a list of strings, got {names!r}")
    trees = doc["trees"]
    if not isinstance(trees, list):
        raise SchemaMismatchError(f"forest 'trees' must be a list, got {type(trees).__name__}")
    if len(trees) != params.n_trees:
        raise SchemaMismatchError(f"forest has {len(trees)} 'trees' but params.n_trees is {params.n_trees}")
    return Forest(
        trees=tuple(TreeNode.from_dict(d, len(names), f"tree {i}") for i, d in enumerate(trees)),
        params=params,
        feature_names=tuple(names),
        oob_mse=doc["oob_mse"],
        n_never_oob=doc.get("n_never_oob", 0),
    )
