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

    No layer runs in parallel, so the count changes nothing.  The name and
    the variable stay because acceptance criterion 05 passes thread counts
    here, and criterion 09 and the bench's determinism repeat set
    QUARTERCAST_THREADS; a malformed value is still a ValidationError.
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
        if not isinstance(self.bootstrap, bool):
            raise ValidationError(f"bootstrap must be a boolean, got {self.bootstrap!r}")
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
        needs no recursion.  A split's threshold that is not a number is
        named only once both its subtrees are read, so the first malformed
        field named is the one a recursive reader would meet first.  A leaf
        value or threshold that is NaN or infinite is named once the whole
        tree is read.
        """
        feature: list = []
        threshold: list = []
        right: list = []
        value: list = []
        deepest = 0
        nan = float("nan")
        todo: list = [(d, 0, -1)]  # (subtree, depth, split it is the right child of or -1)
        while todo:
            d, depth, parent = todo.pop()
            me = len(feature)
            if depth < 0:  # both subtrees of split ``parent`` (d) are read
                threshold[parent] = _number(d["threshold"], f"{where} node {parent} 'threshold'")
                continue
            if parent >= 0:
                right[parent] = me
            if not isinstance(d, dict):
                raise SchemaMismatchError(f"{where} node {me} must be an object, got {d!r}")
            if "value" in d:
                v = d["value"]
                if type(v) is not float:
                    v = _number(v, f"{where} node {me} 'value'")
                feature.append(-1)
                threshold.append(nan)
                right.append(me)
                value.append(v)
                if depth > deepest:
                    deepest = depth
                continue
            try:
                f, t, left_d, right_d = d["feature"], d["threshold"], d["left"], d["right"]
            except KeyError:
                raise SchemaMismatchError(_missing(d, f"{where} node {me}")) from None
            if type(f) is bool or not isinstance(f, int) or not 0 <= f < n_features:
                raise SchemaMismatchError(
                    f"{where} node {me} 'feature' must index one of the {n_features} feature_names, got {f!r}"
                )
            if type(t) is not float:
                todo.append((d, -1, me))
            feature.append(f)
            threshold.append(t)
            right.append(-1)
            value.append(nan)
            todo.append((right_d, depth + 1, me))
            todo.append((left_d, depth + 1, -1))
        feature = np.array(feature, dtype=np.intp)
        threshold = np.array(threshold, dtype=float)
        value = np.array(value, dtype=float)
        numbers = np.where(feature < 0, value, threshold)
        bad = np.flatnonzero(~np.isfinite(numbers))
        if bad.size:
            me = int(bad[0])
            key = "value" if feature[me] < 0 else "threshold"
            got = float(numbers[me])
            raise SchemaMismatchError(f"{where} node {me} {key!r} must be finite, got {got!r}")
        index = np.arange(feature.size)
        return cls(
            feature,
            threshold,
            np.where(feature < 0, index, index + 1),
            np.array(right, dtype=np.intp),
            value,
            deepest,
        )

    def __eq__(self, other):
        if not isinstance(other, TreeNode):
            return NotImplemented
        return self.to_dict() == other.to_dict()


def _missing(d: dict, at: str) -> str:
    """Why split-or-leaf node ``d``, which lacks a key, is malformed."""
    if "feature" not in d:
        return f"{at} has neither 'value' (leaf) nor 'feature' (split)"
    key = next(key for key in ("threshold", "left", "right") if key not in d)
    return f"{at} is a split with no {key!r}"


def _number(value, what: str) -> float:
    if not isinstance(value, (int, float)) or isinstance(value, bool):
        raise SchemaMismatchError(f"{what} must be a number, got {value!r}")
    try:
        return float(value)
    except OverflowError:
        raise SchemaMismatchError(f"{what} must be finite, got {value!r}") from None


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


def _dense_ranks(V: np.ndarray) -> np.ndarray:
    """Each value's rank among the distinct values of its row of ``V``, 0 for the smallest."""
    order = V.argsort(axis=1)
    s = np.take_along_axis(V, order, axis=1)
    step = np.zeros(V.shape, dtype=np.intp)
    step[:, 1:] = s[:, 1:] > s[:, :-1]
    ranks = np.empty_like(step)
    np.put_along_axis(ranks, order, step.cumsum(axis=1), axis=1)
    return ranks


def _scan(rank: np.ndarray, Y: np.ndarray, n: np.ndarray):
    """The best cut of K nodes at once: (feature slot, positions either side of the cut, gain) per node.

    Node k has n[k] real rows, nodes sorted by n.  ``rank`` (K, m, L),
    which the scan overwrites, holds the dense rank of each of its rows in
    m candidate feature columns, ``Y`` (K, L) its targets.  Rows past n[k]
    are padding: a rank above every real one, and 0 in Y, so every running
    sum over real rows keeps its bits.  Each key ``rank << shift |
    position`` is unique, so sorting the keys orders a column as a stable
    sort of its values would.  Cuts at or past row n[k] - 1 are masked
    out.  The gain is -inf for a node with no cut of positive gain.
    """
    K, m, L = rank.shape
    tot, tot2 = _exact_sums(Y[np.arange(L) < n[:, None]], n)
    parent_sse = tot2 - tot * tot / n
    shift = (L - 1).bit_length()
    rank <<= shift
    rank |= np.arange(L)
    rank.sort(axis=-1)
    pos = rank & ((1 << shift) - 1)
    rank >>= shift
    ys = Y[np.arange(K)[:, None, None], pos]
    cum = ys.cumsum(axis=-1)[..., :-1]  # cut i: sorted rows 0..i go left
    cum2 = (ys * ys).cumsum(axis=-1)[..., :-1]
    n_l = np.arange(1, L, dtype=float)
    n_r = n[:, None, None] - n_l
    with np.errstate(divide="ignore", invalid="ignore"):  # n_r <= 0 past a node's last row
        sse_l = cum2 - cum * cum / n_l
        sum_r = tot[:, None, None] - cum
        sse_r = (tot2[:, None, None] - cum2) - sum_r * sum_r / n_r
        gain = parent_sse[:, None, None] - (sse_l + sse_r)
        gain[~((rank[..., :-1] < rank[..., 1:]) & (gain > 0.0) & (n_r > 0.0))] = -np.inf
    best = gain.reshape(K, -1).argmax(axis=1)  # first maximum, feature-major
    j, i = np.divmod(best, L - 1)
    k = np.arange(K)
    return j, pos[k, j, i], pos[k, j, i + 1], gain[k, j, i]


def _midpoint(lo, hi):
    """The threshold between adjacent distinct sorted values lo < hi."""
    thr = 0.5 * (lo + hi)
    return np.where(thr >= hi, lo, thr)  # midpoint of adjacent floats can round up


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
    V = X[:, features].T
    j, lo, hi, gain = _scan(_dense_ranks(V)[None], y[None], np.array([n]))
    if gain[0] == -np.inf:
        return None
    j = j[0]
    return features[j], float(_midpoint(V[j, lo[0]], V[j, hi[0]])), float(gain[0])


def _tree_rng(seed: int, tree_index: int) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(tree_index,)))


# Feature subsets each tree of a forest draws at once.
_DRAW_BLOCK = 32


class _Draws:
    """Each tree's feature subsets, drawn from its generator ``block`` at a time.

    ``Generator.permuted`` on B copies of ``active`` gives the rows that B
    successive ``permutation(active)`` calls would, and leaves the
    generator where they would.  Only the first ``mtry`` columns are kept,
    each row sorted.  A block of 1 leaves each generator where one
    ``permutation`` per subset taken would.
    """

    def __init__(self, rngs: list, active: np.ndarray, mtry: int, block: int):
        self.rngs = rngs
        self.active = active
        self.block = block
        # in the smallest integer type that holds every feature index
        index_type = np.min_scalar_type(active.max(initial=0))
        self.blocks = np.empty((len(rngs), block, min(mtry, active.size)), dtype=index_type)
        self.used = np.full(len(rngs), block)  # rows taken from each tree's block

    def take(self, trees: np.ndarray) -> np.ndarray:
        """The next feature subset of each of ``trees`` (distinct tree indices), one row each."""
        block = self.block
        for t in trees[self.used[trees] == block].tolist():
            drawn = self.rngs[t].permuted(np.broadcast_to(self.active, (block, self.active.size)), axis=1)
            self.blocks[t] = np.sort(drawn[:, : self.blocks.shape[2]])
            self.used[t] = 0
        subsets = self.blocks[trees, self.used[trees]]
        self.used[trees] += 1
        return subsets


def _score(X_pad, rank_pad, y_pad, rows, start, size, F):
    """(feature, threshold, gain) of each node's best cut; gain -inf for no cut.

    Node k's rows are ``rows[start[k] : start[k] + size[k]]`` and ``F[k]``
    its candidate features.  Nodes are scanned sorted by row count, in
    chunks of at most ``_SCAN_CELLS`` cells, each padded to its widest
    node.  Column n of ``X_pad`` (feature, row) is the +inf padding row,
    ``rank_pad`` holds the dense ranks of ``X_pad`` and ``y_pad[n]`` is 0.
    """
    K, m = F.shape
    pad = y_pad.size - 1
    feature, thr, gain = np.zeros(K, dtype=np.intp), np.zeros(K), np.full(K, -np.inf)
    by_size = np.argsort(size, kind="stable")
    begin = 0
    while m and begin < K:
        fits = np.arange(1, K - begin + 1) * size[by_size[begin:]] * m <= _SCAN_CELLS
        chunk = by_size[begin : begin + max(1, int(np.count_nonzero(fits)))]
        begin += chunk.size
        n = size[chunk]
        span = np.arange(n[-1])
        R = np.where(span < n[:, None], rows[start[chunk][:, None] + span], pad)
        Fc = F[chunk]
        j, lo, hi, gain[chunk] = _scan(rank_pad[Fc[:, :, None], R[:, None, :]], y_pad[R], n)
        k = np.arange(chunk.size)
        feature[chunk] = f = Fc[k, j]
        thr[chunk] = _midpoint(X_pad[f, R[k, lo]], X_pad[f, R[k, hi]])
    return feature, thr, gain


def _segments(start: np.ndarray, size: np.ndarray) -> np.ndarray:
    """The positions start[k] .. start[k] + size[k] - 1 of every segment k, end to end."""
    ends = np.cumsum(size)
    return np.arange(ends[-1] if ends.size else 0) + np.repeat(start - ends + size, size)


def _join(records: list) -> list:
    """Records of equal-length arrays, joined column by column."""
    return [np.concatenate(column) for column in zip(*records)]


def _partition(X, y, rows, start, size, f, thr):
    """Split each node's segment of ``rows`` in place: its left rows, then its right rows.

    Returns each node's left row count and whether all targets are equal
    on its left side and on its right side.
    """
    at = _segments(start, size)
    of = np.repeat(np.arange(size.size), size)
    part = rows[at]
    go_left = X[part, f[of]] <= thr[of]
    rows[at] = part = part[np.argsort(2 * of + ~go_left, kind="stable")]
    n_left = np.bincount(of[go_left], minlength=size.size)
    sides = np.stack([n_left, size - n_left], axis=1).ravel()
    part_y = y[part]
    first = np.cumsum(sides) - sides
    pure = np.minimum.reduceat(part_y, first) == np.maximum.reduceat(part_y, first)
    return n_left, pure[0::2], pure[1::2]


# Columns of a node waiting on its tree's stack: where its rows start in the
# row buffers, how many there are, its depth, the split it is the right
# child of (-1 for none) and whether all its targets are equal.
_START, _SIZE, _DEPTH, _PARENT, _PURE = range(5)


def _grow(X, y, params: ForestParams, active, mtry, rngs, block: int):
    """One tree per generator, grown in lockstep, and each tree's bootstrap sample.

    Each tree walks its nodes in preorder on its own stack and draws from
    its own generator: the bootstrap sample, then one feature subset per
    node it tries to split, as a recursive grower would, ``block``
    subsets at a time (``_Draws``).  A tree's rows sit in one row buffer:
    each node's rows are a segment of it, which a split partitions in
    place.  Every step pops each unfinished tree's stack down to the next
    node it tries to split, taking the leaves it pops on the way, scores
    all those nodes in one batched scan and splits them.
    """
    n, T = y.size, len(rngs)
    if params.bootstrap:
        samples = np.stack([rng.integers(0, n, size=n) for rng in rngs])
    else:
        samples = np.broadcast_to(np.arange(n), (T, n))
    draws = _Draws(rngs, active, mtry, block)
    X_pad = np.vstack([X, np.full(X.shape[1], np.inf)]).T.copy()
    rank_pad = _dense_ranks(X_pad)
    y_pad = np.append(y, 0.0)
    rows = np.full(T * n + n, n)  # the row buffers end to end, then room for a scan's padded reads
    rows[: T * n] = samples.ravel()
    max_depth = np.inf if params.max_depth is None else params.max_depth

    stack = np.zeros((T, 8, 5), dtype=np.intp)
    stack[:, 0, _START] = np.arange(T) * n
    stack[:, 0, _SIZE] = n
    stack[:, 0, _PARENT] = -1
    stack[:, 0, _PURE] = (y[samples] == y[samples[:, :1]]).all(axis=1)
    height = np.ones(T, dtype=np.intp)
    count = np.zeros(T, dtype=np.intp)  # each tree's nodes so far, numbered in preorder
    # (tree, node, ...) records, joined at the end
    splits: list = []  # (tree, node, feature, threshold)
    leaves: list = []  # (tree, node, its start, size and depth)
    rights: list = []  # (tree, split, its right child)
    live = np.arange(T)
    while live.size:
        # Pop each tree's run of leaves from the top of its stack, and the
        # node below them that it tries to split, if any.
        h = height[live]
        from_top = h[:, None] - 1 - np.arange(stack.shape[1] + 1)  # < 0 below the bottom
        node = stack[live[:, None], np.maximum(from_top, 0)]
        tries = (node[..., _SIZE] > params.min_node_size) & (node[..., _DEPTH] < max_depth) & (node[..., _PURE] == 0)
        stop = tries | (from_top < 0)
        run = stop.argmax(axis=1)
        n_popped = run + (run < h)
        popped = np.arange(stop.shape[1]) < n_popped[:, None]
        tree = np.broadcast_to(live[:, None], stop.shape)
        index = count[live][:, None] + np.arange(stop.shape[1])  # preorder, as popped
        right = popped & (node[..., _PARENT] >= 0)
        rights.append((tree[right], node[..., _PARENT][right], index[right]))
        leaf = popped & ~stop
        leaves.append((tree[leaf], index[leaf], node[leaf][:, :_PARENT]))
        tried = popped & stop
        t, me, node = tree[tried], index[tried], node[tried]
        count[live] += n_popped
        height[live] -= n_popped
        f, thr, gain = _score(X_pad, rank_pad, y_pad, rows, node[:, _START], node[:, _SIZE], draws.take(t))
        cut = gain > -np.inf
        leaves.append((t[~cut], me[~cut], node[~cut, :_PARENT]))
        splits.append((t[cut], me[cut], f[cut], thr[cut]))
        if cut.any():
            s, me, node = t[cut], me[cut], node[cut]
            start, size = node[:, _START], node[:, _SIZE]
            n_left, pure_left, pure_right = _partition(X, y, rows, start, size, f[cut], thr[cut])
            depth = node[:, _DEPTH] + 1
            h = height[s]
            if h.max() + 2 > stack.shape[1]:
                stack = np.concatenate([stack, np.zeros_like(stack)], axis=1)
            stack[s, h] = np.stack([start + n_left, size - n_left, depth, me, pure_right], axis=1)
            stack[s, h + 1] = np.stack([start, n_left, depth, np.full(s.size, -1), pure_left], axis=1)
            height[s] = h + 2
        live = t[height[t] > 0]
    return _assemble(y, rows, count, splits, leaves, rights), samples


def _assemble(y, rows, count, splits, leaves, rights) -> list[TreeNode]:
    """Each tree as a TreeNode, from ``_grow``'s records; leaf values bit for bit ``y[rows].mean()``."""
    first = np.cumsum(count) - count  # each tree's root in the joined arrays
    local = np.arange(int(count.sum())) - np.repeat(first, count)
    feature = np.full(local.size, -1, dtype=np.intp)
    threshold = np.full(local.size, np.nan)
    value = np.full(local.size, np.nan)
    t, me, f, thr = _join(splits)
    feature[first[t] + me] = f
    threshold[first[t] + me] = thr
    left = np.where(feature < 0, local, local + 1)
    right = local.copy()
    t, split, me = _join(rights)
    right[first[t] + split] = me
    t, me, node = _join(leaves)
    size = node[:, _SIZE]
    by_size = np.argsort(size, kind="stable")
    tot, _ = _exact_sums(y[rows[_segments(node[by_size, _START], size[by_size])]], size[by_size])
    value[(first[t] + me)[by_size]] = tot / size[by_size]
    depth = np.zeros(count.size, dtype=np.intp)
    np.maximum.at(depth, t, node[:, _DEPTH])
    return [
        TreeNode(feature[a:b], threshold[a:b], left[a:b], right[a:b], value[a:b], d)
        for a, b, d in zip(first.tolist(), (first + count).tolist(), depth.tolist())
    ]


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
    # One subset per draw, so the caller's generator ends where the recursive grower leaves it.
    [tree], _ = _grow(X, y, params, active, mtry, [tree_rng], block=1)
    return tree


def _active_features(X: np.ndarray) -> np.ndarray:
    """Columns with at least two distinct values; constants can never split."""
    return np.asarray(
        [j for j in range(X.shape[1]) if np.any(X[:, j] != X[0, j])], dtype=int
    )


def check_mtry(params: ForestParams, n_features: int) -> None:
    """Reject an ``mtry`` above ``n_features``: ``train_forest``'s rule, which callers can apply before fitting."""
    if params.mtry is not None and params.mtry > n_features:
        raise ValidationError(f"mtry {params.mtry} exceeds feature count {n_features}")


def _resolve_mtry(params: ForestParams, n_features: int, n_active: int) -> int:
    check_mtry(params, n_features)
    return params.mtry if params.mtry is not None else max(1, n_active // 3)


def _oob_score(trees, samples, X, y) -> tuple[float, int]:
    """(oob_mse, rows never out of bag): each row scored by the trees it was not drawn for.

    Every (tree, out-of-bag row) pair is walked at once; the predictions
    are then added into each row's sum in tree order, as one tree after
    another would add them.
    """
    n = y.size
    in_bag = np.zeros((len(trees), n), dtype=bool)
    in_bag[np.arange(len(trees))[:, None], samples] = True
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
    rngs = [_tree_rng(params.seed, i) for i in range(params.n_trees)]
    trees, samples = _grow(X, y, params, active, mtry, rngs, _DRAW_BLOCK)
    trees = tuple(trees)
    oob_mse, n_never = _oob_score(trees, samples, X, y)
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
    oob_mse = _number(doc["oob_mse"], "forest 'oob_mse'")  # NaN when no row was ever out of bag
    n_never = doc.get("n_never_oob", 0)
    if type(n_never) is bool or not isinstance(n_never, int) or n_never < 0:
        raise SchemaMismatchError(f"forest 'n_never_oob' must be a non-negative integer, got {n_never!r}")
    return Forest(
        trees=tuple(TreeNode.from_dict(d, len(names), f"tree {i}") for i, d in enumerate(trees)),
        params=params,
        feature_names=tuple(names),
        oob_mse=oob_mse,
        n_never_oob=n_never,
    )
