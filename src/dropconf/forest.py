"""Random forest regression baseline built from scratch.

CART trees with variance-reduction splitting on bootstrap resamples, plus
k-fold out-of-fold predictions for cross-conformal calibration. Per-tree
spread plays the same role as dropout-pass spread in the network pipeline.
Trees grow breadth-first, a fixed number of array passes per depth over row
ids presorted once per tree (SLIQ's layout, Mehta et al. 1996); features
drawn under ``max_features`` are keyed to each node's place in the tree. A
forest is one set of node arrays, numbered level by level.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .data import Dataset, bounded, check_bounds, check_folds
from .ensemble import EnsemblePrediction, from_passes
from .seeds import derive_seed, rng_for

_EPS = np.finfo(np.float64).eps
# rows per _grow call, which the k fold forests share: ~0.5 KB peak memory a row, no faster when wider
_BATCH_ROWS = 8192


@dataclass(frozen=True)
class ForestConfig:
    n_trees: int = bounded(100, 1)
    max_features: int | str = "all"
    min_samples_split: int = bounded(2, 2)
    min_samples_leaf: int = bounded(1, 1)
    bootstrap: bool = True

    def __post_init__(self):
        if self.max_features != "all" and int(self.max_features) < 1:
            raise ValueError("max_features: must be 'all' or >= 1")
        check_bounds(self)


@dataclass
class Forest:
    """Every tree's nodes in flat arrays numbered level by level: feature[i]
    == -1 marks a leaf, a split's children are left[i] and right[i] ==
    left[i] + 1, and tree t's root is roots[t]."""

    feature: np.ndarray
    threshold: np.ndarray
    left: np.ndarray
    right: np.ndarray
    value: np.ndarray
    roots: np.ndarray
    n_features: int

    @property
    def n_nodes(self) -> int:
        return len(self.feature)

    def predict(self, X: np.ndarray) -> np.ndarray:
        """The (rows, trees) matrix of leaf values: every (row, tree) pair
        moves down one level per step. Rows equal to a threshold go left;
        NaN features go right."""
        X = np.atleast_2d(np.asarray(X, dtype=np.float64))
        trees = len(self.roots)
        node = np.tile(self.roots, X.shape[0])  # pair i is row i // trees, tree i % trees
        pairs = np.arange(node.size)
        while pairs.size:
            pairs = pairs[self.feature[node[pairs]] >= 0]
            at = node[pairs]
            go_left = X[pairs // trees, self.feature[at]] <= self.threshold[at]
            node[pairs] = np.where(go_left, self.left[at], self.right[at])
        return self.value[node].reshape(X.shape[0], trees)


def _exact_sse(values) -> float:
    """Sum of squared deviations via exactly-rounded summation: a pure function
    of the value multiset, so splits inducing the same row partition tie."""
    mean = math.fsum(values) / len(values)
    return math.fsum((v - mean) ** 2 for v in values)


def _best_splits(Xt, cols, y, P, st, m, allowed, min_leaf: int):
    """Greedy best (feature, threshold) minimizing summed child SSE for every
    node of one depth; feature -1 marks a node no split strictly improves.

    Node i owns columns st[i]:st[i] + m[i] of ``P``: its row ids sorted by
    each feature in rows 0..d-1, ties in row-id order, and ascending in row
    d. Row r's features are column cols[r] of ``Xt`` and its label is y[r].
    ``allowed`` is None or a (d, nodes) mask of the features each node may
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
    np.cumsum(np.square(ys, out=ys), axis=1, out=cum2[:, 1:])
    del ys  # the scoring block's peak holds three (d, M) arrays, not four
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
        np.cumsum(y[P[:d, a:b]], axis=1, out=cum[:, a:b])
        np.cumsum(np.square(y[P[:d, a:b]]), axis=1, out=cum2[:, a:b])
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
    # one flat gather: the 2-D fancy index Xt[rows, cols[P[:d]]] took twice as long
    xs = Xt.ravel()[cols[P[:d]] + Xt.shape[1] * np.arange(d)[:, None]]
    invalid = np.ones((d, M), dtype=bool)
    np.less_equal(xs[:, 1:], xs[:, :-1], out=invalid[:, :-1])
    invalid |= (nl < min_leaf) | (nr < min_leaf)
    if allowed is not None:
        invalid |= ~allowed[:, seg]
    np.copyto(sse, math.inf, where=invalid)
    best = np.minimum.reduceat(sse.min(axis=0), st)
    cf, cp = np.nonzero(sse <= np.where(np.isfinite(best), best + tol, np.nan)[seg])
    cs = seg[cp]  # candidates in feature-major order, and their nodes
    order = np.argsort(cs, kind="stable")  # by node, each node's candidates still feature-major
    lim = np.searchsorted(cs[order], np.arange(k + 1))
    nodes = np.flatnonzero(np.diff(lim))
    first = order[lim[nodes]]
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
        # left0 rows in columns st..cp of each candidate's feature row: two reads
        # of one running count (int32 wraps, but a difference below 2**31 is exact)
        run = np.zeros(d * M + 1, dtype=np.int32)
        np.cumsum(left0[P[:d]], dtype=np.int32, out=run[1:])
        n0 = run[cf[c] * M + cp[c] + 1] - run[cf[c] * M + st[node]]
        agree = ((kc == k0) & (n0 == kc + 1)) | ((kc + k0 + 2 == m[node]) & (n0 == 0))
        fast &= np.bincount(node[~agree], minlength=k) == 0
    for s in np.flatnonzero((f >= 0) & ~fast):
        a, b = st[s], ends[s]
        best_exact, winner = math.inf, -1
        for j in order[lim[s] : lim[s + 1]]:
            score = _exact_sse(y[P[cf[j], a : cp[j] + 1]]) + _exact_sse(y[P[cf[j], cp[j] + 1 : b]])
            if score < best_exact:
                best_exact, winner = score, j
        f[s], p[s] = (cf[winner], cp[winner]) if best_exact < _exact_sse(y[P[0, a:b]]) else (-1, 0)
    split = f >= 0
    lo, hi = xs[f[split], p[split]], xs[f[split], p[split] + 1]
    mid, thr = (lo + hi) / 2.0, np.zeros(k)
    # adjacent floats round the midpoint to lo or hi, and values near +/-1e308
    # overflow it; lo keeps the scored partition
    thr[split] = np.where((lo < mid) & (mid < hi), mid, lo)
    return f, thr


def _grow(Xt, labels, trees, config: ForestConfig, offset: int = 0) -> list:
    """One CART tree per (rows, rng) entry of ``trees``, all grown together
    breadth-first: each pass handles every node of one depth of every tree.
    A tree's rows index the columns of the (d, N) features ``Xt`` and
    ``labels``, repeats allowed. Leaves predict the mean of their rows.

    Each tree's rows are argsorted once. A (d + 1, rows) array holds one
    column block per node that may split, tree by tree: its row ids sorted
    by each feature, plus a row in ascending order. A split moves its
    block's columns to its two children by one stable sort on (node, side),
    so every node sees its rows sorted as a stable per-node argsort of its
    ascending rows would. Infinite features split like any others. Returns
    the Forest arrays, feature to roots, with ids from ``offset`` on in
    level order: for b trees the roots are 0..b-1 and the children of the
    k-th split are b + 2k and b + 2k + 1, plus offset.

    With ``max_features`` below d, a node draws its features from
    ``default_rng([base, heap])``: ``base`` is drawn from the tree's rng
    once, ``heap`` is 1 at the root and 2h, 2h + 1 at the children
    of node h.
    """
    cols, sizes = np.concatenate([c for c, _ in trees]), np.array([len(c) for c, _ in trees])
    d, n, y = Xt.shape[0], len(cols), labels[cols]
    n_feat = d if config.max_features == "all" else min(int(config.max_features), d)
    keys = [(int(rng.integers(2**63)), 1) for _, rng in trees] if n_feat < d else None  # per node
    P = np.vstack([np.hstack([np.argsort(Xt[:, cols[a : a + k]], axis=1, kind="stable") + a
                              for a, k in zip(np.cumsum(sizes) - sizes, sizes)]), np.arange(n)])
    nodes, levels = offset + len(sizes), []  # the next level's first id, and the levels so far
    while True:
        starts, yv = np.cumsum(sizes) - sizes, y[P[d]]
        grow = (sizes >= config.min_samples_split) & (
            np.minimum.reduceat(yv, starts) < np.maximum.reduceat(yv, starts))
        feature = np.full(len(sizes), -1, dtype=np.int32)
        threshold, value = np.zeros(len(sizes)), np.zeros(len(sizes))
        P, m = np.compress(np.repeat(grow, sizes), P, axis=1), sizes[grow]
        if grow.any():
            allowed = None
            if keys is not None:
                allowed = np.zeros((d, len(m)), dtype=bool)
                for j, node in enumerate(np.flatnonzero(grow)):
                    feats = np.random.default_rng(keys[node]).choice(d, size=n_feat, replace=False)
                    allowed[feats, j] = True
            feature[grow], threshold[grow] = _best_splits(
                Xt, cols, y, P, np.cumsum(m) - m, m, allowed, config.min_samples_leaf)
        split = feature >= 0
        # + 0.0 makes a sum of one or two rows the bits of yv[a:b].sum()
        value[~split] = (np.add.reduceat(yv, starts) + 0.0)[~split] / sizes[~split]
        for i in np.flatnonzero(~split & (sizes > 2)):
            value[i] = yv[starts[i] : starts[i] + sizes[i]].sum() / sizes[i]
        left = np.where(split, nodes + 2 * (np.cumsum(split) - 1), -1).astype(np.int32)
        nodes += 2 * np.count_nonzero(split)
        levels.append((feature, threshold, left, left + split, value))  # right: left + 1, -1 at a leaf
        if not split.any():
            return [np.concatenate(a) for a in zip(*levels)] + [np.arange(offset, offset + len(trees))]
        # a stable sort by (node, side) moves each splitting block's columns to
        # its children, left first; a one- or two-byte key sorts by radix
        P, m = np.compress(np.repeat(split[grow], m), P, axis=1), sizes[split]
        seg = np.repeat(np.arange(len(m), dtype=np.min_scalar_type(2 * len(m))), m)
        right = np.zeros(n, dtype=bool)
        right[P[d]] = ~(Xt[feature[split][seg], cols[P[d]]] <= threshold[split][seg])
        key = 2 * seg + right[P]
        P = P[np.arange(d + 1)[:, None], np.argsort(key, axis=1, kind="stable")]
        sizes = np.bincount(key[d], minlength=2 * len(m))  # left, right per split
        if keys is not None:
            keys = [(b, c) for (b, h), s in zip(keys, split) if s for c in (2 * h, 2 * h + 1)]


def fit_cart(X: np.ndarray, y: np.ndarray, config: ForestConfig, rng: np.random.Generator) -> Forest:
    """One CART regression tree grown by ``_grow``, as a Forest. NaN features
    are rejected: a cut between two NaNs would send every row to one side."""
    X = np.atleast_2d(np.asarray(X, dtype=np.float64))
    y = np.asarray(y, dtype=np.float64)
    if len(y) < 1:
        raise ValueError("fit_cart requires at least one row")
    if X.shape[0] != len(y):
        raise ValueError(f"fit_cart got {X.shape[0]} feature rows for {len(y)} labels")
    if np.isnan(X).any():
        raise ValueError("fit_cart features must not be NaN")
    return Forest(*_grow(X.T.copy(), y, [(np.arange(len(y)), rng)], config), n_features=X.shape[1])


def _fit_jobs(data: Dataset, jobs, config: ForestConfig) -> Forest:
    """n_trees trees per (row ids, seed) job over ``data`` as one Forest, roots
    in job order; tree t draws its bootstrap, then its max_features base, from
    rng_for(seed, "tree", t). The trees share the fewest _grow batches of at
    most _BATCH_ROWS rows (or one tree), split evenly across job boundaries."""
    trees = [(ids, rng_for(seed, "tree", t)) for ids, seed in jobs for t in range(config.n_trees)]
    n_batches = -(-len(trees) // max(1, _BATCH_ROWS // max(len(ids) for ids, _ in jobs)))
    Xt, grown = np.ascontiguousarray(data.features.T), []
    for b in range(n_batches):
        batch = trees[b * len(trees) // n_batches : (b + 1) * len(trees) // n_batches]
        sample = [(ids[rng.integers(0, len(ids), size=len(ids))] if config.bootstrap else ids, rng)
                  for ids, rng in batch]
        grown.append(_grow(Xt, data.labels, sample, config, sum(len(g[0]) for g in grown)))
    return Forest(*map(np.concatenate, zip(*grown)), n_features=Xt.shape[0])


def fit_forest(train: Dataset, config: ForestConfig, seed: int) -> Forest:
    """Fit n_trees CART trees, each on its own bootstrap resample and stream:
    the one job of a ``_fit_jobs`` call (oof_calibration's k fold forests
    are the k jobs of one call, sharing its batches)."""
    return _fit_jobs(train, [(np.arange(train.n_rows), seed)], config)


def forest_predict(forest: Forest, features) -> EnsemblePrediction:
    """Per-tree predictions as the pass matrix; mean/std over trees."""
    X = np.atleast_2d(np.asarray(features, dtype=np.float64))
    if X.shape[1] != forest.n_features:
        raise ValueError(f"expected {forest.n_features} features, got {X.shape[1]}")
    return from_passes(forest.predict(X))


def oof_calibration(train: Dataset, config: ForestConfig, k: int, seed: int) -> EnsemblePrediction:
    """k-fold out-of-fold predictions in row order: each instance's row of
    the pass matrix holds the trees of the one forest fit on the other k-1
    folds. The k fold forests share _fit_jobs batches, and fold i's forest is
    the slice of its roots from i * n_trees on."""
    n, trees = train.n_rows, config.n_trees
    check_folds(n, k)
    folds = np.array_split(rng_for(seed, "folds").permutation(n), k)
    jobs = [(np.concatenate(folds[:i] + folds[i + 1 :]), derive_seed(seed, "fold", i)) for i in range(k)]
    forest = _fit_jobs(train, jobs, config)
    passes = np.empty((n, trees))
    for i, held_out in enumerate(folds):
        fold_forest = replace(forest, roots=forest.roots[i * trees : (i + 1) * trees])
        passes[held_out] = forest_predict(fold_forest, train.features[held_out]).passes
    return from_passes(passes)
