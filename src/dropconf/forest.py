"""Random forest regression baseline built from scratch.

CART trees with variance-reduction splitting on bootstrap resamples, plus
k-fold out-of-fold predictions for cross-conformal calibration. Per-tree
spread plays the same role as dropout-pass spread in the network pipeline.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .data import Dataset
from .ensemble import EnsemblePrediction, from_passes
from .seeds import derive_seed, rng_for


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
    seed: int
    n_features: int


def _mean(values) -> float:
    """``float(values.mean())`` bit for bit, without np.mean's call overhead."""
    return float(values.sum() / len(values))


def _exact_sse(values) -> float:
    """Sum of squared deviations via exactly-rounded summation.

    fsum makes the result a pure function of the value multiset, so two
    splits inducing the same row partition score identically — which is what
    lets the lowest-feature/lowest-threshold tie rule fire deterministically.
    """
    mean = math.fsum(values) / len(values)
    return math.fsum((v - mean) ** 2 for v in values)


def _best_split(Xt, y, ysub, order, feats, min_leaf: int, member):
    """Greedy best (feature, threshold) minimizing summed child SSE.

    ``order`` holds the node's row ids once per candidate feature ``feats``,
    each row of it sorted by that feature with ties in row-id order; ``ysub``
    is the node's labels in row-id order and ``member`` an all-False scratch
    array over row ids.

    Thresholds are midpoints between consecutive distinct sorted values, or
    the lower value where the midpoint is not strictly between them.
    Ties break to the lowest feature index, then the lowest threshold.
    Returns None when no split strictly reduces the parent SSE.

    Every boundary of every candidate feature is scored in one vectorized
    block from prefix sums of y and y^2 in sorted order. Candidates within
    rounding error ``tol`` of the minimum are then re-scored exactly so ties
    resolve consistently, unless they all cut the node into the same two row
    sets and the split clears the parent by more than the rounding error:
    then they all score the same and the first one wins.
    """
    m = len(ysub)
    tot = ysub.sum()
    tot2 = (ysub * ysub).sum()
    xs = Xt[feats[:, None], order]
    ys = y[order]
    cum = ys.cumsum(axis=1)[:, :-1]
    cum2 = (ys * ys).cumsum(axis=1)[:, :-1]
    nl = np.arange(1, m, dtype=np.float64)
    nr = m - nl
    sse = (cum2 - cum * cum / nl) + ((tot2 - cum2) - (tot - cum) ** 2 / nr)
    invalid = xs[:, 1:] <= xs[:, :-1]
    if min_leaf > 1:
        k = np.arange(1, m)
        invalid |= (k < min_leaf) | (m - k < min_leaf)
    sse[invalid] = math.inf
    best = sse.min()
    if math.isinf(best):
        return None
    tol = 1e-9 * (tot2 + tot * tot / m) + 1e-300
    cand_f, cand_pos = np.nonzero(sse <= best + tol)
    if (tot2 - tot * tot / m) - best > 2 * tol and _one_partition(order, cand_f, cand_pos, member):
        f_local, pos = cand_f[0], cand_pos[0]
    else:
        # re-score everything the fast scan cannot reliably rank, then apply
        # the tie rules in feature-major order
        winner = None
        best_exact = math.inf
        for f_local, pos in zip(cand_f, cand_pos):
            score = _exact_sse(ys[f_local, : pos + 1]) + _exact_sse(ys[f_local, pos + 1 :])
            if score < best_exact:
                best_exact = score
                winner = (f_local, pos)
        if not best_exact < _exact_sse(ysub):
            return None
        f_local, pos = winner
    a, b = xs[f_local, pos], xs[f_local, pos + 1]
    thr = (a + b) / 2.0
    if not a < thr < b:
        # adjacent floats round the midpoint to a or b, and values near
        # +/-1e308 overflow it; a keeps the scored partition
        thr = a
    return int(feats[f_local]), thr


def _one_partition(order, cand_f, cand_pos, member) -> bool:
    """True when every candidate (feature, position) puts the same row set on
    one side of its cut as the first candidate does."""
    if len(cand_f) == 1:
        return True
    first = order[cand_f[0], : cand_pos[0] + 1]
    member[first] = True
    inside = member[order[cand_f]]
    member[first] = False
    agree = inside == (np.arange(order.shape[1]) <= cand_pos[:, None])
    return bool((agree == agree[:, :1]).all())


def fit_cart(X: np.ndarray, y: np.ndarray, config: ForestConfig, rng: np.random.Generator) -> RegressionTree:
    """Grow a CART regression tree; leaves predict the mean of their rows.

    Each column is argsorted once at the root. A node's sorted row ids are
    split between its children in order, so every node sees its rows sorted
    by each feature with ties in row-id order, as a stable per-node argsort
    of its ascending rows would give.
    """
    X = np.atleast_2d(np.asarray(X, dtype=np.float64))
    y = np.asarray(y, dtype=np.float64)
    if len(y) < 1:
        raise ValueError("fit_cart requires at least one row")
    if X.shape[0] != len(y):
        raise ValueError(f"fit_cart got {X.shape[0]} feature rows for {len(y)} labels")
    d = X.shape[1]
    if config.max_features == "all":
        n_feat = d
    else:
        n_feat = min(int(config.max_features), d)
    all_feats = np.arange(d)
    Xt = np.ascontiguousarray(X.T)
    member = np.zeros(X.shape[0], dtype=bool)

    feature, threshold, left, right, value = [], [], [], [], []

    def new_node():
        feature.append(-1)
        threshold.append(0.0)
        left.append(-1)
        right.append(-1)
        value.append(0.0)
        return len(feature) - 1

    root = new_node()
    stack = [(root, np.arange(len(y)), np.argsort(Xt, axis=1, kind="stable"))]
    while stack:
        node, rows, order = stack.pop()
        ysub = y[rows]
        split = None
        if len(rows) >= config.min_samples_split and ysub.min() < ysub.max():
            if n_feat == d:
                split = _best_split(Xt, y, ysub, order, all_feats, config.min_samples_leaf, member)
            else:
                feats = np.sort(rng.choice(d, size=n_feat, replace=False))
                split = _best_split(Xt, y, ysub, order[feats], feats, config.min_samples_leaf, member)
        if split is None:
            value[node] = _mean(ysub)
            continue
        f, thr = split
        feature[node] = f
        threshold[node] = thr
        go_left = Xt[f, rows] <= thr
        member[rows] = go_left
        in_left = member[order]
        member[rows] = False
        left[node] = new_node()
        right[node] = new_node()
        for child, side, mask in ((left[node], go_left, in_left), (right[node], ~go_left, ~in_left)):
            sub = rows[side]
            if len(sub) < config.min_samples_split:
                value[child] = _mean(y[sub])
            else:
                stack.append((child, sub, order[mask].reshape(d, len(sub))))

    return RegressionTree(
        feature=np.array(feature, dtype=np.int32),
        threshold=np.array(threshold, dtype=np.float64),
        left=np.array(left, dtype=np.int32),
        right=np.array(right, dtype=np.int32),
        value=np.array(value, dtype=np.float64),
    )


def fit_forest(train: Dataset, config: ForestConfig, seed: int) -> Forest:
    """Fit n_trees CART trees, each on its own bootstrap resample and stream."""
    X, y = train.features, train.labels
    n = len(y)
    trees = []
    for t in range(config.n_trees):
        rng = rng_for(seed, "tree", t)
        if config.bootstrap:
            idx = rng.integers(0, n, size=n)
            trees.append(fit_cart(X[idx], y[idx], config, rng))
        else:
            trees.append(fit_cart(X, y, config, rng))
    return Forest(trees=trees, config=config, seed=seed, n_features=X.shape[1])


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
    if k < 2:
        raise ValueError("k must be >= 2")
    if n < k:
        raise ValueError("need at least k training rows")
    perm = rng_for(seed, "folds").permutation(n)
    folds = np.array_split(perm, k)
    passes = np.empty((n, config.n_trees))
    for i, held_out in enumerate(folds):
        rest = np.concatenate([folds[j] for j in range(k) if j != i])
        model = fit_forest(train.subset(rest), config, derive_seed(seed, "fold", i))
        passes[held_out] = forest_predict(model, train.features[held_out]).passes
    return from_passes(passes)
