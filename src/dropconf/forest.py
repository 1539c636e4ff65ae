"""Random forest regression baseline built from scratch.

CART trees with variance-reduction splitting on bootstrap resamples, plus
k-fold out-of-fold predictions for cross-conformal calibration. Per-tree
spread plays the same role as dropout-pass spread in the network pipeline.
Trees grow breadth-first, a fixed number of array passes per depth over row
ids presorted once per tree (SLIQ's layout, Mehta et al. 1996); features
drawn under ``max_features`` are keyed to each node's place in the tree.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .data import Dataset, check_folds
from .ensemble import EnsemblePrediction, from_passes
from .seeds import derive_seed, rng_for

_EPS = np.finfo(np.float64).eps
# rows per _grow call from fit_forest: ~0.7 KB of peak memory a row, no faster when wider
_BATCH_ROWS = 8192


@dataclass(frozen=True)
class ForestConfig:
    n_trees: int = 100
    max_features: int | str = "all"
    min_samples_split: int = 2
    min_samples_leaf: int = 1
    bootstrap: bool = True

    def __post_init__(self):
        if self.n_trees < 1:
            raise ValueError("n_trees must be >= 1")
        if self.max_features != "all" and int(self.max_features) < 1:
            raise ValueError("max_features must be 'all' or >= 1")
        if self.min_samples_split < 2:
            raise ValueError("min_samples_split must be >= 2")
        if self.min_samples_leaf < 1:
            raise ValueError("min_samples_leaf must be >= 1")


@dataclass
class RegressionTree:
    """Flat array representation: feature[i] == -1 marks a leaf."""

    feature: np.ndarray
    threshold: np.ndarray
    left: np.ndarray
    right: np.ndarray
    value: np.ndarray

    @property
    def n_nodes(self) -> int:
        return len(self.feature)

    def predict(self, X: np.ndarray) -> np.ndarray:
        """Route all rows down together, one tree level per step.

        Rows equal to a threshold go left; NaN features go right.
        """
        X = np.atleast_2d(np.asarray(X, dtype=np.float64))
        node = np.zeros(X.shape[0], dtype=np.intp)
        rows = np.arange(X.shape[0])
        while rows.size:
            at = node[rows]
            f = self.feature[at]
            inner = f >= 0
            rows, at, f = rows[inner], at[inner], f[inner]
            node[rows] = np.where(X[rows, f] <= self.threshold[at], self.left[at], self.right[at])
        return self.value[node]


@dataclass
class Forest:
    trees: list
    config: ForestConfig
    n_features: int


def _exact_sse(values) -> float:
    """Sum of squared deviations via exactly-rounded summation: a pure function
    of the value multiset, so splits inducing the same row partition tie."""
    mean = math.fsum(values) / len(values)
    return math.fsum((v - mean) ** 2 for v in values)


def _counts_before(flags, st, m) -> np.ndarray:
    """Per entry of the bool array ``flags``, how many earlier columns of the
    same block (blocks start at ``st`` and span ``m`` columns) are set."""
    c = np.zeros((flags.shape[0], flags.shape[1] + 1), dtype=np.int32)
    np.cumsum(flags, axis=1, dtype=np.int32, out=c[:, 1:])
    return c[:, :-1] - np.repeat(c[:, st], m, axis=1)


def _best_splits(Xt, y, P, st, m, allowed, min_leaf: int):
    """Greedy best (feature, threshold) minimizing summed child SSE for every
    node of one depth; feature -1 marks a node no split strictly improves.

    Node i owns columns st[i]:st[i] + m[i] of ``P``: its row ids sorted by
    each feature in rows 0..d-1, ties in row-id order, and ascending in row
    d. ``allowed`` is None or a (d, nodes) mask of the features each node may
    use. Thresholds are midpoints between consecutive distinct sorted values,
    or the lower value where the midpoint is not strictly between them. Ties
    break to the lowest feature index, then the lowest threshold.

    All cuts are scored in one block from running sums of y and y^2 over the
    whole array, minus each block's offset; a block whose sums that could
    blur by tol/4 is re-summed on its own. Candidates within rounding error
    ``tol`` of a node's minimum are re-scored exactly so ties resolve
    consistently, unless they all cut the node into the same two row sets
    and the split clears the parent by more than ``tol``: then the first wins.
    """
    d, M, k = P.shape[0] - 1, P.shape[1], len(st)
    seg, ends = np.repeat(np.arange(k), m), st + m
    nl = np.arange(1, M + 1) - st[seg]  # left rows of the cut after each column
    nr = m[seg] - nl
    ys = y[P[:d]]
    cum, cum2 = np.zeros((d, M + 1)), np.zeros((d, M + 1))
    np.cumsum(ys, axis=1, out=cum[:, 1:])
    np.cumsum(ys * ys, axis=1, out=cum2[:, 1:])
    reach = cum2[:, ends].max(axis=0)
    cum[:, 1:] -= np.repeat(cum[:, st], m, axis=1)
    cum2[:, 1:] -= np.repeat(cum2[:, st], m, axis=1)
    cum, cum2 = cum[:, 1:], cum2[:, 1:]
    tot, tot2 = cum[0, ends - 1], cum2[0, ends - 1]
    tol = 1e-9 * (tot2 + tot * tot / m) + 1e-300
    # the global prefix puts at most 3 m eps (reach + sqrt(M reach tot2)) of
    # rounding error into a block's SSE
    for s in np.flatnonzero(~(3 * m * _EPS * (reach + np.sqrt(M * reach * tot2)) < tol / 4)):
        a, b = st[s], ends[s]
        np.cumsum(ys[:, a:b], axis=1, out=cum[:, a:b])
        np.cumsum(ys[:, a:b] * ys[:, a:b], axis=1, out=cum2[:, a:b])
        ysub = y[P[d, a:b]]
        tot[s], tot2[s] = ysub.sum(), (ysub * ysub).sum()
        tol[s] = 1e-9 * (tot2[s] + tot[s] * tot[s] / m[s]) + 1e-300
    # sse = (cum2 - cum^2 / nl) + ((tot2 - cum2) - (tot - cum)^2 / nr), in place
    sse = np.square(cum)
    sse /= nl
    np.subtract(cum2, sse, out=sse)
    np.square(np.subtract(tot[seg], cum, out=cum), out=cum)
    np.subtract(tot2[seg], cum2, out=cum2)
    cum2 -= np.divide(cum, np.maximum(nr, 1), out=cum)
    sse += cum2
    del cum, cum2
    xs = Xt.ravel()[P[:d] + Xt.shape[1] * np.arange(d)[:, None]]
    invalid = np.ones((d, M), dtype=bool)
    np.less_equal(xs[:, 1:], xs[:, :-1], out=invalid[:, :-1])
    invalid |= (nl < min_leaf) | (nr < min_leaf)
    if allowed is not None:
        invalid |= ~allowed[:, seg]
    np.copyto(sse, math.inf, where=invalid)
    best = np.minimum.reduceat(sse.min(axis=0), st)
    cf, cp = np.nonzero(sse <= np.where(np.isfinite(best), best + tol, np.nan)[seg])
    cs = seg[cp]  # candidates in feature-major order, and their nodes
    nodes, first = np.unique(cs, return_index=True)
    f, p = np.full(k, -1), np.zeros(k, dtype=np.intp)
    f[nodes], p[nodes] = cf[first], cp[first]
    fast = (f >= 0) & ((tot2 - tot * tot / m) - best > 2 * tol)
    if fast.any():
        # the first candidate's left rows are every candidate's left or right rows
        left0 = np.zeros(len(y), dtype=bool)
        col = np.flatnonzero(fast[seg] & (np.arange(M) <= p[seg]))
        left0[P[f[seg[col]], col]] = True
        c = np.flatnonzero(fast[cs])
        node = cs[c]
        kc, k0 = cp[c] - st[node], p[node] - st[node]
        n0 = _counts_before(left0[P[:d]], st, m)[cf[c], cp[c] + 1]
        agree = ((kc == k0) & (n0 == kc + 1)) | ((kc + k0 + 2 == m[node]) & (n0 == 0))
        fast &= np.bincount(node[~agree], minlength=k) == 0
    for s in np.flatnonzero((f >= 0) & ~fast):
        a, b = st[s], ends[s]
        best_exact, winner = math.inf, -1
        for j in np.flatnonzero(cs == s):
            score = _exact_sse(ys[cf[j], a : cp[j] + 1]) + _exact_sse(ys[cf[j], cp[j] + 1 : b])
            if score < best_exact:
                best_exact, winner = score, j
        f[s], p[s] = (cf[winner], cp[winner]) if best_exact < _exact_sse(ys[0, a:b]) else (-1, 0)
    split = f >= 0
    lo, hi = xs[f[split], p[split]], xs[f[split], p[split] + 1]
    mid, thr = (lo + hi) / 2.0, np.zeros(k)
    # adjacent floats round the midpoint to lo or hi, and values near +/-1e308
    # overflow it; lo keeps the scored partition
    thr[split] = np.where((lo < mid) & (mid < hi), mid, lo)
    return f, thr


def _depth_first(features, thresholds, values, trees) -> list:
    """The trees of per-depth node arrays, each depth holding the children of
    the splits above in left-right pairs, tree by tree as ``trees`` numbers
    them. Each tree is numbered as a depth-first build numbers it: that build
    pops the right child first and gives a node's children the next two ids
    when the node splits."""
    split = [f >= 0 for f in features]
    below = [s.astype(np.intp) for s in split]  # splits in each node's subtree
    for i in range(len(split) - 2, -1, -1):
        below[i][split[i]] += below[i + 1].reshape(-1, 2).sum(axis=1)
    ids, rank = [np.zeros(len(split[0]), dtype=np.intp)], [np.zeros(len(split[0]), dtype=np.intp)]
    for i in range(len(split) - 1):
        r = rank[i][split[i]]  # the place of each split in its tree's pop order
        rank.append(np.column_stack([r + 1 + below[i + 1][1::2], r + 1]).ravel())
        ids.append(np.column_stack([2 * r + 1, 2 * r + 2]).ravel())
    tree = np.concatenate(trees)
    order = np.lexsort((np.concatenate(ids), tree))
    feature, threshold, value, rank = (
        np.concatenate(a)[order] for a in (features, thresholds, values, rank))
    left = np.where(feature >= 0, 2 * rank + 1, -1).astype(np.int32)
    right = np.where(feature >= 0, left + 1, -1).astype(np.int32)
    parts = (np.split(a, np.cumsum(np.bincount(tree))[:-1]) for a in (feature, threshold, left, right, value))
    return [RegressionTree(*t) for t in zip(*parts)]


def _grow(samples, config: ForestConfig, rngs) -> list:
    """One CART tree per (X, y) sample, all grown together breadth-first:
    each pass handles every node of one depth of every tree. Leaves predict
    the mean of their rows.

    The samples' rows are stacked and each sample's columns argsorted once.
    A (d + 1, rows) array holds one column block per node that may split,
    tree by tree: its row ids sorted by each feature, plus a row in ascending
    order. A split moves its block's columns to its two children by a stable
    counting partition, so every node sees its rows sorted as a stable
    per-node argsort of its ascending rows would. Each tree's arrays and node
    ids are those of a depth-first build of that tree alone. Infinite
    features split like any others.

    With ``max_features`` below d, a node draws its features from
    ``default_rng([base, heap])``: ``base`` is drawn from the tree's entry of
    ``rngs`` once, ``heap`` is 1 at the root and 2h, 2h + 1 at the children
    of node h.
    """
    Xt = np.concatenate([X.T for X, _ in samples], axis=1)
    y = np.concatenate([s for _, s in samples])
    (d, n), sizes = Xt.shape, np.array([len(s) for _, s in samples])
    n_feat = d if config.max_features == "all" else min(int(config.max_features), d)
    bases = [int(rng.integers(2**63)) for rng in rngs] if n_feat < d else None
    P = np.vstack([np.hstack([np.argsort(Xt[:, a : a + k], axis=1, kind="stable") + a
                              for a, k in zip(np.cumsum(sizes) - sizes, sizes)]), np.arange(n)])
    tree, heaps, levels = np.arange(len(sizes)), [1] * len(sizes), []
    while True:
        starts, yv = np.cumsum(sizes) - sizes, y[P[d]]
        grow = (sizes >= config.min_samples_split) & (
            np.minimum.reduceat(yv, starts) < np.maximum.reduceat(yv, starts))
        feature = np.full(len(sizes), -1, dtype=np.int32)
        threshold, value = np.zeros(len(sizes)), np.zeros(len(sizes))
        P, m = np.compress(np.repeat(grow, sizes), P, axis=1), sizes[grow]
        if grow.any():
            allowed = None
            if bases is not None:
                allowed = np.zeros((d, len(m)), dtype=bool)
                for j, node in enumerate(np.flatnonzero(grow)):
                    feats = np.random.default_rng([bases[tree[node]], heaps[node]]).choice(
                        d, size=n_feat, replace=False)
                    allowed[feats, j] = True
            feature[grow], threshold[grow] = _best_splits(
                Xt, y, P, np.cumsum(m) - m, m, allowed, config.min_samples_leaf)
        split = feature >= 0
        # + 0.0 makes a sum of one or two rows the bits of yv[a:b].sum()
        value[~split] = (np.add.reduceat(yv, starts) + 0.0)[~split] / sizes[~split]
        for i in np.flatnonzero(~split & (sizes > 2)):
            value[i] = yv[starts[i] : starts[i] + sizes[i]].sum() / sizes[i]
        levels.append((feature, threshold, value, tree))
        if not split.any():
            return _depth_first(*zip(*levels))
        # stable partition of each splitting block, left child first
        P, m = np.compress(np.repeat(split[grow], m), P, axis=1), sizes[split]
        st = np.cumsum(m) - m
        seg = np.repeat(np.arange(len(m)), m)
        go_left = np.zeros(n, dtype=bool)
        go_left[P[d]] = Xt[feature[split][seg], P[d]] <= threshold[split][seg]
        flags = go_left[P]
        n_left = np.add.reduceat(flags[d], st, dtype=np.intp)
        before = _counts_before(flags, st, m)
        to = np.where(flags, st[seg] + before, n_left[seg] + np.arange(P.shape[1]) - before)
        moved = np.empty_like(P)
        moved.ravel()[to + P.shape[1] * np.arange(d + 1)[:, None]] = P
        del flags, before, to  # dead before the next depth's scoring
        P, sizes = moved, np.column_stack([n_left, m - n_left]).ravel()
        tree = np.repeat(tree[split], 2)
        if bases is not None:
            heaps = [c for h, s in zip(heaps, split) if s for c in (2 * h, 2 * h + 1)]


def fit_cart(X: np.ndarray, y: np.ndarray, config: ForestConfig, rng: np.random.Generator) -> RegressionTree:
    """Grow one CART regression tree with ``_grow``. NaN features are rejected:
    a cut between two NaNs would send every row to one side."""
    X = np.atleast_2d(np.asarray(X, dtype=np.float64))
    y = np.asarray(y, dtype=np.float64)
    if len(y) < 1:
        raise ValueError("fit_cart requires at least one row")
    if X.shape[0] != len(y):
        raise ValueError(f"fit_cart got {X.shape[0]} feature rows for {len(y)} labels")
    if np.isnan(X).any():
        raise ValueError("fit_cart features must not be NaN")
    return _grow([(X, y)], config, [rng])[0]


def fit_forest(train: Dataset, config: ForestConfig, seed: int) -> Forest:
    """Fit n_trees CART trees, each on its own bootstrap resample and stream,
    grown together in batches of at most _BATCH_ROWS rows (or one tree)."""
    X, y, n = train.features, train.labels, train.n_rows
    per_batch, trees = max(1, _BATCH_ROWS // n), []
    for first in range(0, config.n_trees, per_batch):
        rngs = [rng_for(seed, "tree", t) for t in range(first, min(first + per_batch, config.n_trees))]
        rows = [rng.integers(0, n, size=n) if config.bootstrap else slice(None) for rng in rngs]
        trees += _grow([(X[r], y[r]) for r in rows], config, rngs)
    return Forest(trees=trees, config=config, n_features=X.shape[1])


def forest_predict(forest: Forest, features) -> EnsemblePrediction:
    """Per-tree predictions as the pass matrix; mean/std over trees."""
    X = np.atleast_2d(np.asarray(features, dtype=np.float64))
    if X.shape[1] != forest.n_features:
        raise ValueError(f"expected {forest.n_features} features, got {X.shape[1]}")
    passes = np.column_stack([tree.predict(X) for tree in forest.trees])
    return from_passes(passes)


def oof_calibration(train: Dataset, config: ForestConfig, k: int, seed: int) -> EnsemblePrediction:
    """k-fold out-of-fold predictions in row order: each instance's row of
    the pass matrix holds the trees of the one forest fit on the other k-1
    folds."""
    n = train.n_rows
    check_folds(n, k)
    perm = rng_for(seed, "folds").permutation(n)
    folds = np.array_split(perm, k)
    passes = np.empty((n, config.n_trees))
    for i, held_out in enumerate(folds):
        rest = np.concatenate([folds[j] for j in range(k) if j != i])
        model = fit_forest(train.subset(rest), config, derive_seed(seed, "fold", i))
        passes[held_out] = forest_predict(model, train.features[held_out]).passes
    return from_passes(passes)
