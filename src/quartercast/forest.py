"""Bagged regression trees with per-tree seeded random streams.

Each tree draws its bootstrap sample and feature subsets from a generator
derived only from (seed, tree index), so a forest does not depend on the
order its trees are built in.  All trees of a forest grow together in
one thread: each step scores the next node to split of every unfinished
tree in one batched numpy scan.  Splits minimize total child SSE over
midpoint thresholds; ties break to the lowest feature index, then the
lowest threshold.

A tree is stored as flat preorder arrays (see ``TreeNode``).  Prediction
walks many (tree, row) pairs at once, one numpy step per tree level, and
the JSON text of a forest is written straight from the arrays.
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
        """Inverse of ``to_dict``; a malformed node raises SchemaMismatchError naming it.

        Nodes are read in preorder from an explicit stack, so a deep tree
        needs no recursion.  A split's threshold is read once both its
        subtrees are, so the first malformed field named is the one a
        recursive reader would meet first.
        """
        nodes: list = []  # [feature, threshold, left, right, value] in preorder
        deepest = 0
        todo: list = [(d, 0, -1)]  # (subtree, depth, split it is the right child of or -1)
        while todo:
            d, depth, parent = todo.pop()
            me = len(nodes)
            if depth < 0:  # both subtrees of split ``parent`` (d) are read
                nodes[parent][1] = _number(d["threshold"], f"{where} node {parent} 'threshold'")
                continue
            if parent >= 0:
                nodes[parent][3] = me
            at = f"{where} node {me}"
            if not isinstance(d, dict):
                raise SchemaMismatchError(f"{at} must be an object, got {d!r}")
            if "value" in d:
                nodes.append([-1, np.nan, me, me, _number(d["value"], f"{at} 'value'")])
                deepest = max(deepest, depth)
                continue
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
            nodes.append([f, np.nan, me + 1, -1, np.nan])
            todo += [(d, -1, me), (d["right"], depth + 1, me), (d["left"], depth + 1, -1)]
        return cls._from_nodes(nodes, deepest)

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


# Cells (nodes x candidate features x padded rows) that one batched scan
# holds at most, unless a single node is larger: bounds its temporaries.
_SCAN_CELLS = 1 << 13


def _exact_sums(values: np.ndarray, sizes: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Per node, the sum of its targets and of their squares, bit for bit as ``y.sum()``.

    ``values`` holds the nodes' targets end to end, nodes sorted by size.
    numpy sums pairwise, so a sum's bits depend on its exact length: each
    run of nodes of one size is summed as rows of exactly that length,
    never over padding.
    """
    tot, tot2 = np.empty(sizes.size), np.empty(sizes.size)
    starts = np.flatnonzero(np.diff(sizes, prepend=-1)).tolist()
    offset = 0
    for a, b in zip(starts, starts[1:] + [sizes.size]):
        size = int(sizes[a])
        block = values[offset : offset + (b - a) * size].reshape(b - a, size)
        offset += block.size
        tot[a:b] = block.sum(axis=1)
        tot2[a:b] = (block * block).sum(axis=1)
    return tot, tot2


def _scan(V: np.ndarray, Y: np.ndarray, n: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The best cut of K nodes at once: (feature slot, threshold, gain) per node.

    Node k has n[k] real rows, nodes sorted by n.  ``V`` (K, m, L) holds
    its m candidate feature columns along the last axis, ``Y`` (K, L) its
    targets.  Rows past n[k] are padding: +inf in V, so a stable sort puts
    them last, and 0 in Y, so every running sum over real rows keeps its
    bits.  Cuts at or past row n[k] - 1 are masked out.  The gain is -inf
    for a node with no cut of positive gain.
    """
    K, m, L = V.shape
    tot, tot2 = _exact_sums(Y[np.arange(L) < n[:, None]], n)
    parent_sse = tot2 - tot * tot / n
    order = V.argsort(axis=-1, kind="stable")
    vs = np.take_along_axis(V, order, axis=-1)
    ys = Y[np.arange(K)[:, None, None], order]
    cum = ys.cumsum(axis=-1)[..., :-1]  # cut i: sorted rows 0..i go left
    cum2 = (ys * ys).cumsum(axis=-1)[..., :-1]
    n_l = np.arange(1, L, dtype=float)
    n_r = n[:, None, None] - n_l
    with np.errstate(divide="ignore", invalid="ignore"):  # n_r <= 0 past a node's last row
        sse_l = cum2 - cum * cum / n_l
        sum_r = tot[:, None, None] - cum
        sse_r = (tot2[:, None, None] - cum2) - sum_r * sum_r / n_r
        gain = parent_sse[:, None, None] - (sse_l + sse_r)
        gain[~((vs[..., :-1] < vs[..., 1:]) & (gain > 0.0) & (n_r > 0.0))] = -np.inf
    best = gain.reshape(K, -1).argmax(axis=1)  # first maximum, feature-major
    j, i = np.divmod(best, L - 1)
    k = np.arange(K)
    lo, hi = vs[k, j, i], vs[k, j, i + 1]
    thr = 0.5 * (lo + hi)
    thr = np.where(thr >= hi, lo, thr)  # midpoint of adjacent floats can round up
    return j, thr, gain[k, j, i]


def best_split(X: np.ndarray, y: np.ndarray, candidate_features) -> tuple[int, float, float] | None:
    """The (feature, threshold, sse_reduction) minimizing total child SSE.

    Thresholds are midpoints between consecutive distinct sorted values.
    Returns None when no candidate feature has two distinct values or no
    split has positive gain.  This is the batched scan on one node: a
    stable sort and a running sum down each column, the gain expressions
    elementwise, and the first maximum in (sorted feature, cut) order.
    """
    n = y.size
    features = sorted({int(c) for c in candidate_features})
    if n < 2 or not features:
        return None
    j, thr, gain = _scan(X[:, features].T[None], y[None], np.array([n]))
    if gain[0] == -np.inf:
        return None
    return features[j[0]], float(thr[0]), float(gain[0])


def _tree_rng(seed: int, tree_index: int) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(tree_index,)))


class _Growing:
    """A tree being grown: its generator, its stack of pending nodes, its preorder nodes so far."""

    __slots__ = ("rng", "sample", "todo", "nodes", "depth")

    def __init__(self, rng: np.random.Generator, y: np.ndarray, bootstrap: bool):
        self.rng = rng
        self.sample = rng.integers(0, y.size, size=y.size) if bootstrap else np.arange(y.size)
        root_y = y[self.sample]
        # (rows of X in the node, its depth, the split it is the right child of or -1, all targets equal)
        self.todo = [(self.sample, 0, -1, bool((root_y == root_y[0]).all()))]
        self.nodes: list = []  # [feature, threshold, left, right, value], as TreeNode._from_nodes takes them
        self.depth = 0

    def next_tried(self, min_node_size, max_depth, active, mtry, leaves: list):
        """Settle leaves in preorder up to the next node to split: (rows, depth, drawn features), or None."""
        while self.todo:
            rows, depth, parent, pure = self.todo.pop()
            if parent >= 0:
                self.nodes[parent][3] = len(self.nodes)
            if rows.size > min_node_size and depth < max_depth and not pure:
                return rows, depth, self.rng.permutation(active)[:mtry]
            self.leaf(rows, depth, leaves)
        return None

    def leaf(self, rows: np.ndarray, depth: int, leaves: list) -> None:
        """Add a leaf; ``leaves`` gets (its node, rows) so that its value can be filled in."""
        me = len(self.nodes)
        self.nodes.append([-1, np.nan, me, me, np.nan])
        leaves.append((self.nodes[me], rows))
        self.depth = max(self.depth, depth)

    def split(self, f: int, thr: float, depth: int, left, right) -> None:
        """Add a split; ``left`` and ``right`` are each child's (rows, all targets equal)."""
        me = len(self.nodes)
        self.nodes.append([f, thr, me + 1, -1, np.nan])  # right is set when that child is reached
        self.todo.append((right[0], depth + 1, me, right[1]))
        self.todo.append((left[0], depth + 1, -1, left[1]))


def _score(X_pad: np.ndarray, y: np.ndarray, rows: list, F: np.ndarray):
    """(feature slot, threshold, gain) of each node's best cut; gain -inf for no cut.

    Nodes are scanned sorted by row count, in chunks of at most
    ``_SCAN_CELLS`` cells, each padded to its widest node.  Column n of
    ``X_pad`` (feature, row) is the +inf padding row.
    """
    K, m = F.shape
    sizes = np.array([r.size for r in rows])
    slot, thr, gain = np.zeros(K, dtype=np.intp), np.zeros(K), np.full(K, -np.inf)
    by_size = np.argsort(sizes, kind="stable")
    start = 0
    while m and start < K:
        fits = np.arange(1, K - start + 1) * sizes[by_size[start:]] * m <= _SCAN_CELLS
        chunk = by_size[start : start + max(1, int(np.count_nonzero(fits)))]
        start += chunk.size
        n = sizes[chunk]
        real = np.arange(n[-1]) < n[:, None]
        R = np.full(real.shape, y.size)
        R[real] = np.concatenate([rows[k] for k in chunk.tolist()])
        Y = np.zeros(real.shape)
        Y[real] = y[R[real]]
        slot[chunk], thr[chunk], gain[chunk] = _scan(X_pad[F[chunk][:, :, None], R[:, None, :]], Y, n)
    return slot, thr, gain


def _children(X: np.ndarray, y: np.ndarray, rows: list, f: np.ndarray, thr: np.ndarray) -> list:
    """Per split node, its (left, right) children as (rows in node order, all targets equal)."""
    sizes = np.array([r.size for r in rows])
    node_of = np.repeat(np.arange(len(rows)), sizes)
    cat = np.concatenate(rows)
    go_left = X[cat, f[node_of]] <= thr[node_of]
    parts = cat[np.argsort(2 * node_of + ~go_left, kind="stable")]  # each node's left rows, then its right
    n_left = np.bincount(node_of[go_left], minlength=len(rows))
    bounds = np.cumsum(np.stack([n_left, sizes - n_left], axis=1).ravel())
    starts = np.concatenate([[0], bounds[:-1]])
    part_y = y[parts]
    pure = (np.minimum.reduceat(part_y, starts) == np.maximum.reduceat(part_y, starts)).tolist()
    edges = [0] + bounds.tolist()
    return [
        ((parts[edges[2 * k] : edges[2 * k + 1]], pure[2 * k]),
         (parts[edges[2 * k + 1] : edges[2 * k + 2]], pure[2 * k + 1]))
        for k in range(len(rows))
    ]


def _settle(y: np.ndarray, leaves: list) -> None:
    """Give each leaf (node, rows) its value, bit for bit ``y[rows].mean()``."""
    sizes = np.array([rows.size for _, rows in leaves])
    by_size = np.argsort(sizes, kind="stable")
    tot, _ = _exact_sums(y[np.concatenate([leaves[k][1] for k in by_size.tolist()])], sizes[by_size])
    for k, mean in zip(by_size.tolist(), (tot / sizes[by_size]).tolist()):
        leaves[k][0][4] = mean


def _grow(X, y, params: ForestParams, active, mtry, rngs) -> list[tuple[TreeNode, np.ndarray]]:
    """One tree per generator, grown in lockstep; each with its bootstrap sample.

    Each tree walks its nodes in preorder on its own stack and draws from
    its own generator: the bootstrap sample, then one feature subset per
    node it tries to split, as a recursive grower would.  A node that is a
    leaf by size, depth or purity is settled at once.  Every step scores
    the next node that each unfinished tree tries to split, all in one
    batched scan, and splits them all at once.
    """
    X_pad = np.vstack([X, np.full(X.shape[1], np.inf)]).T.copy()
    max_depth = np.inf if params.max_depth is None else params.max_depth
    trees = [_Growing(rng, y, params.bootstrap) for rng in rngs]
    live = trees
    while live:
        leaves: list = []
        tried = []  # (tree, rows, depth, drawn features)
        for tree in live:
            node = tree.next_tried(params.min_node_size, max_depth, active, mtry, leaves)
            if node is not None:
                tried.append((tree, *node))
        live = [tree for tree, _, _, _ in tried]
        if tried:
            rows = [r for _, r, _, _ in tried]
            F = np.sort(np.stack([drawn for _, _, _, drawn in tried]), axis=1)
            slot, thr, gain = _score(X_pad, y, rows, F)
            cut = gain > -np.inf
            for k in np.flatnonzero(~cut).tolist():
                tree, _, depth, _ = tried[k]
                tree.leaf(rows[k], depth, leaves)
            split = np.flatnonzero(cut)
            if split.size:
                f = F[split, slot[split]]
                children = _children(X, y, [rows[k] for k in split.tolist()], f, thr[split])
                for k, fk, tk, (left, right) in zip(split.tolist(), f.tolist(), thr[split].tolist(), children):
                    tree, _, depth, _ = tried[k]
                    tree.split(fk, tk, depth, left, right)
        if leaves:
            _settle(y, leaves)
    return [(TreeNode._from_nodes(tree.nodes, tree.depth), tree.sample) for tree in trees]


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
    [(tree, _)] = _grow(X, y, params, active, mtry, [tree_rng])
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
    built = _grow(X, y, params, active, mtry, [_tree_rng(params.seed, i) for i in range(params.n_trees)])
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


def _number_texts(tree: TreeNode) -> list[str]:
    """Each node's threshold (split) or value (leaf) as ``json.dumps`` writes it.

    Each distinct bit pattern is formatted once: a forest repeats its
    thresholds and leaf values many times over.
    """
    number = np.where(tree.feature < 0, tree.value, tree.threshold)
    distinct, index = np.unique(number.view(np.int64), return_inverse=True)
    texts = json.dumps(distinct.view(float).tolist())[1:-1].split(", ")
    return list(map(texts.__getitem__, index.tolist()))


def _tree_json(feature: list, numbers: list, depth: int, level: int) -> str:
    """``json.dumps(tree.to_dict(), sort_keys=True, indent=2)``, nested ``level`` deep, from preorder lists."""
    pad = ["  " * d for d in range(level, level + depth + 2)]
    out = []
    owed: list = []  # due as subtrees end: a split's closing lines (str), or its right child's depth (int)
    d = 0
    for f, number in zip(feature, numbers):
        inner = pad[d + 1]
        if f >= 0:
            out.append(f'{{\n{inner}"feature": {f},\n{inner}"left": ')
            owed.append(f',\n{inner}"threshold": {number}\n{pad[d]}}}')
            owed.append(d + 1)
            d += 1
            continue
        out.append(f'{{\n{inner}"value": {number}\n{pad[d]}}}')
        while owed:
            due = owed.pop()
            if isinstance(due, int):
                d = due
                out.append(f',\n{pad[d]}"right": ')
                break
            out.append(due)
    return "".join(out)


def forest_to_json(forest: Forest) -> str:
    """The schema-1 document, byte for byte ``json.dumps(doc, sort_keys=True, indent=2) + "\\n"``.

    All but the trees goes through ``json.dumps``.  The trees, nearly all
    of the text, are written straight from their arrays; "trees" sorts
    last among the keys, so their text closes the document.
    """
    head = json.dumps(
        {
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
        },
        sort_keys=True,
        indent=2,
    )
    flat, roots = forest._flat
    numbers = _number_texts(flat)
    bounds = roots.tolist() + [len(numbers)]
    trees = ",\n".join(
        "    " + _tree_json(tree.feature.tolist(), numbers[a:b], tree.depth, 2)
        for tree, a, b in zip(forest.trees, bounds, bounds[1:])
    )
    return f'{head[:-2]},\n  "trees": [\n{trees}\n  ]\n}}\n'


def forest_from_json(text: str) -> Forest:
    """Read a ``forest_to_json`` document; a malformed one raises SchemaMismatchError naming the field."""
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise SchemaMismatchError(f"forest document is not JSON: {exc}") from None
    except RecursionError:
        raise SchemaMismatchError("forest document is nested too deeply to read") from None
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
