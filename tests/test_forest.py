import json
import math
import os
import subprocess
import sys
import tracemalloc

import numpy as np
import pytest

from dropconf import forest as forest_module
from dropconf.data import Dataset, make_synthetic
from dropconf.forest import (
    Forest,
    ForestConfig,
    fit_cart,
    fit_forest,
    forest_predict,
    oof_calibration,
)
from dropconf.seeds import derive_seed, rng_for

from oracles import oracle_cart, oracle_cart_predict


def small_dataset(n=30, d=3, seed=0, noise=0.3):
    return make_synthetic(n, d, "homoscedastic", noise, seed=seed)


# Reference learner: a stable argsort of every candidate column at every
# node, and an fsum re-score of every candidate within tol of the best, built
# depth-first into a one-tree Forest. The presorted learner must build the
# same trees bit for bit, up to the node ids.


def reference_exact_sse(values):
    mean = math.fsum(values) / len(values)
    return math.fsum((v - mean) ** 2 for v in values)


def reference_best_split(X, y, feat_indices, min_leaf):
    m = len(y)
    if m < 2:
        return None
    feats = np.asarray(feat_indices, dtype=np.intp)
    Xf = X[:, feats]
    tot = y.sum()
    tot2 = (y * y).sum()
    order = np.argsort(Xf, axis=0, kind="stable")
    xs = np.take_along_axis(Xf, order, axis=0)
    ys = y[order]
    cum = np.cumsum(ys, axis=0)[:-1]
    cum2 = np.cumsum(ys * ys, axis=0)[:-1]
    nl = np.arange(1, m, dtype=np.float64)[:, None]
    nr = m - nl
    sse = (cum2 - cum * cum / nl) + ((tot2 - cum2) - (tot - cum) ** 2 / nr)
    invalid = xs[1:] <= xs[:-1]
    if min_leaf > 1:
        k = np.arange(1, m)
        invalid |= ((k < min_leaf) | (m - k < min_leaf))[:, None]
    sse[invalid] = math.inf
    best = sse.min()
    if math.isinf(best):
        return None
    tol = 1e-9 * (tot2 + tot * tot / m) + 1e-300
    winner = None
    best_exact = math.inf
    for f_local, pos in np.argwhere(sse.T <= best + tol):
        score = reference_exact_sse(ys[: pos + 1, f_local]) + reference_exact_sse(ys[pos + 1 :, f_local])
        if score < best_exact:
            best_exact = score
            winner = (int(f_local), int(pos))
    if not best_exact < reference_exact_sse(y):
        return None
    f_local, pos = winner
    return int(feats[f_local]), (xs[pos, f_local] + xs[pos + 1, f_local]) / 2.0


def reference_fit_cart(X, y, config, rng):
    d = X.shape[1]
    n_feat = d if config.max_features == "all" else min(int(config.max_features), d)
    base = int(rng.integers(2**63)) if n_feat < d else None
    feature, threshold, left, right, value = [-1], [0.0], [-1], [-1], [0.0]
    stack = [(0, np.arange(len(y)), 1)]
    while stack:
        node, rows, heap = stack.pop()
        ysub = y[rows]
        split = None
        if len(rows) >= config.min_samples_split and ysub.min() < ysub.max():
            feats = range(d) if n_feat == d else np.sort(
                np.random.default_rng([base, heap]).choice(d, size=n_feat, replace=False))
            split = reference_best_split(X[rows], ysub, feats, config.min_samples_leaf)
        if split is None:
            value[node] = float(ysub.mean())
            continue
        feature[node], threshold[node] = split
        go_left = X[rows, split[0]] <= split[1]
        for arrays, fill in ((feature, -1), (threshold, 0.0), (left, -1), (right, -1), (value, 0.0)):
            arrays += [fill, fill]
        left[node], right[node] = len(feature) - 2, len(feature) - 1
        stack.append((left[node], rows[go_left], 2 * heap))
        stack.append((right[node], rows[~go_left], 2 * heap + 1))
    return Forest(
        feature=np.array(feature, dtype=np.int32),
        threshold=np.array(threshold, dtype=np.float64),
        left=np.array(left, dtype=np.int32),
        right=np.array(right, dtype=np.int32),
        value=np.array(value, dtype=np.float64),
        roots=np.array([0]),
        n_features=d,
    )


def walk_predict(tree, X, root=0):
    """One row at a time from ``root``; ties go left, NaN goes right."""
    out = []
    for row in np.atleast_2d(X):
        node = root
        while tree.feature[node] >= 0:
            go_left = row[tree.feature[node]] <= tree.threshold[node]
            node = tree.left[node] if go_left else tree.right[node]
        out.append(tree.value[node])
    return np.array(out, dtype=np.float64)


def nested(tree, node):
    """The subtree at ``node`` as nested (feature, threshold, value, left,
    right) tuples, with None below a leaf."""
    if node < 0:
        return None
    return (int(tree.feature[node]), float(tree.threshold[node]), float(tree.value[node]),
            nested(tree, tree.left[node]), nested(tree, tree.right[node]))


def assert_same_tree(forest, t, reference):
    """Tree t of ``forest`` is the reference tree node for node, bit for bit,
    walked from its root in the forest and from node 0 in the reference."""
    for name in ("feature", "threshold", "left", "right", "value"):
        x, y = getattr(forest, name), getattr(reference, name)
        assert x.dtype == y.dtype, name
    assert nested(forest, forest.roots[t]) == nested(reference, 0)


def tie_heavy_table(rng):
    """A small table drawn to produce exact and near ties in the split scan."""
    n = int(rng.integers(2, 50))
    d = int(rng.integers(1, 5))
    kind = int(rng.integers(0, 6))
    X = rng.random((n, d))
    if kind in (0, 4):  # integer-valued features: many equal values
        X = rng.integers(0, 4, size=(n, d)).astype(np.float64)
    if kind in (1, 4) and d > 1:  # a duplicated column
        X[:, -1] = X[:, 0]
    y = rng.random(n)
    if kind in (2, 4):  # three distinct labels
        y = rng.integers(0, 3, size=n).astype(np.float64)
    if kind == 3:  # a large offset: cancellation in the fast scan
        y = y + 1e6
    if kind == 5:  # subnormal labels
        y = rng.integers(0, 3, size=n) * 5e-324
    config = ForestConfig(
        max_features="all" if rng.random() < 0.5 else int(rng.integers(1, d + 1)),
        min_samples_split=int(rng.integers(2, 6)),
        min_samples_leaf=int(rng.integers(1, 4)),
    )
    return X, y, config


class TestFitCart:
    def test_forced_two_leaf_tree(self):
        X = np.array([[0.0], [1.0]])
        y = np.array([0.0, 1.0])
        tree = fit_cart(X, y, ForestConfig(), rng_for(0))
        assert tree.n_nodes == 3
        assert tree.threshold[0] == 0.5
        assert sorted(tree.value[tree.feature < 0]) == [0.0, 1.0]

    def test_constant_labels_single_leaf(self):
        X = np.random.default_rng(0).random((10, 2))
        y = np.full(10, 3.25)
        tree = fit_cart(X, y, ForestConfig(), rng_for(0))
        assert tree.n_nodes == 1
        assert tree.value[0] == 3.25

    def test_row_count_mismatch_rejected(self):
        with pytest.raises(ValueError, match="3 feature rows for 2 labels"):
            fit_cart(np.zeros((3, 1)), np.array([0.0, 1.0]), ForestConfig(), rng_for(0))

    def test_oracle_equivalence_small_tables(self):
        rng = np.random.default_rng(42)
        for _ in range(30):
            n = int(rng.integers(2, 13))
            d = int(rng.integers(1, 3))
            X = rng.random((n, d))
            y = rng.random(n)
            tree = fit_cart(X, y, ForestConfig(), rng_for(1))
            oracle = oracle_cart(X, y)
            queries = np.vstack([X, rng.random((10, d))])
            for q in queries:
                assert tree.predict(q[None, :])[0, 0] == oracle_cart_predict(oracle, q)

    def test_min_samples_leaf_respected(self):
        rng = np.random.default_rng(1)
        X = rng.random((12, 2))
        y = rng.random(12)
        cfg = ForestConfig(min_samples_leaf=3)
        tree = fit_cart(X, y, cfg, rng_for(2))
        # every leaf holds >= 3 training rows
        leaf_of = {}
        for i in range(12):
            node = 0
            while tree.feature[node] >= 0:
                node = tree.left[node] if X[i, tree.feature[node]] <= tree.threshold[node] else tree.right[node]
            leaf_of.setdefault(node, 0)
            leaf_of[node] += 1
        assert min(leaf_of.values()) >= 3


class TestReferenceEquivalence:
    @pytest.mark.parametrize("seed", range(4))
    def test_tie_heavy_tables_match_reference(self, seed):
        rng = np.random.default_rng(1000 + seed)
        for table in range(100):
            X, y, config = tie_heavy_table(rng)
            tree = fit_cart(X, y, config, rng_for(seed, table))
            assert_same_tree(tree, 0, reference_fit_cart(X, y, config, rng_for(seed, table)))

    def test_bootstrap_forest_matches_reference(self):
        ds = make_synthetic(300, 4, "heteroscedastic", 0.5, seed=2)
        config = ForestConfig(n_trees=3, max_features=2)
        forest = fit_forest(ds, config, seed=4)
        for t in range(config.n_trees):
            rng = rng_for(4, "tree", t)
            idx = rng.integers(0, ds.n_rows, size=ds.n_rows)
            assert_same_tree(forest, t, reference_fit_cart(ds.features[idx], ds.labels[idx], config, rng))

    @pytest.mark.parametrize("min_leaf", [1, 3])
    def test_bootstrap_trees_at_benchmark_scale_match_reference(self, min_leaf):
        # 560 rows as in the rf_cv workload: bootstrap duplicates give many
        # nodes of one depth several tied candidates at once
        ds = make_synthetic(560, 8, "heteroscedastic", 0.5, seed=min_leaf)
        config = ForestConfig(n_trees=2, min_samples_leaf=min_leaf)
        forest = fit_forest(ds, config, seed=5)
        for t in range(config.n_trees):
            rng = rng_for(5, "tree", t)
            idx = rng.integers(0, ds.n_rows, size=ds.n_rows)
            assert_same_tree(forest, t, reference_fit_cart(ds.features[idx], ds.labels[idx], config, rng))

    def test_chain_deeper_than_64_levels_matches_reference(self):
        # each split peels off the largest label, so the node keys of the
        # per-node feature draws grow past 64 bits
        X = np.column_stack([np.arange(80.0), np.arange(80.0)[::-1]])
        y = 4.0 ** np.arange(80)
        config = ForestConfig(max_features=1)
        tree = fit_cart(X, y, config, rng_for(6))
        depth = np.zeros(tree.n_nodes, dtype=int)
        for i in np.flatnonzero(tree.feature >= 0):  # children come after their parent
            depth[tree.left[i]] = depth[tree.right[i]] = depth[i] + 1
        assert depth.max() == 79
        assert set(tree.feature[tree.feature >= 0]) == {0, 1}
        assert_same_tree(tree, 0, reference_fit_cart(X, y, config, rng_for(6)))

    def test_mixed_label_scales_match_reference(self):
        # the root puts labels near 1e6 left of labels near 1e-6, so the
        # level's running sum of y^2 reaches the small ones' block at about
        # 1e26 times their squares; they must still split as on their own
        rng = np.random.default_rng(8)
        X = rng.random((200, 3))
        y = np.where(X[:, 0] < 0.5, 1e6, 1e-6) * (1 + rng.random(200))
        tree = fit_cart(X, y, ForestConfig(), rng_for(7))
        assert_same_tree(tree, 0, reference_fit_cart(X, y, ForestConfig(), rng_for(7)))

    def test_subnormal_two_rows_stay_a_leaf(self):
        # the parent SSE underflows to 0, so no split strictly reduces it
        X = np.array([[0.0], [1.0]])
        y = np.array([0.0, 5e-324])
        tree = fit_cart(X, y, ForestConfig(), rng_for(0))
        assert tree.n_nodes == 1
        assert_same_tree(tree, 0, reference_fit_cart(X, y, ForestConfig(), rng_for(0)))


def assert_forest_matches_reference(ds, config, seed):
    """Every tree of fit_forest equals the reference tree grown alone on the
    same resample, with the same stream."""
    forest = fit_forest(ds, config, seed)
    assert len(forest.roots) == config.n_trees
    nodes = 0
    for t in range(config.n_trees):
        rng = rng_for(seed, "tree", t)
        idx = rng.integers(0, ds.n_rows, size=ds.n_rows) if config.bootstrap else np.arange(ds.n_rows)
        reference = reference_fit_cart(ds.features[idx], ds.labels[idx], config, rng)
        assert_same_tree(forest, t, reference)
        nodes += reference.n_nodes
    assert forest.n_nodes == nodes


class TestBatchedForest:
    # fit_forest grows its trees together, at most _BATCH_ROWS rows at a time

    @pytest.mark.parametrize("config", [
        ForestConfig(n_trees=40),
        ForestConfig(n_trees=40, max_features=2),
        ForestConfig(n_trees=40, min_samples_leaf=3),
        ForestConfig(n_trees=40, bootstrap=False),
    ], ids=["default", "max_features_2", "min_samples_leaf_3", "no_bootstrap"])
    def test_trees_across_batches_match_reference(self, monkeypatch, config):
        # 1,000 rows a batch: 40 trees of 90 rows grow 10 at a time, in the
        # fewest batches of at most 11 trees
        monkeypatch.setattr(forest_module, "_BATCH_ROWS", 1000)
        ds = make_synthetic(90, 4, "heteroscedastic", 0.5, seed=11)
        assert_forest_matches_reference(ds, config, seed=12)

    def test_mixed_scale_bootstraps_match_reference(self):
        # labels near 1e6 and near 1e-6 in every tree of one batch: the running
        # sums reach each later tree's small-label blocks from all before it
        rng = np.random.default_rng(8)
        X = rng.random((200, 3))
        y = np.where(X[:, 0] < 0.5, 1e6, 1e-6) * (1 + rng.random(200))
        ds = Dataset(ids=tuple(f"r{i}" for i in range(200)), labels=y, features=X)
        assert_forest_matches_reference(ds, ForestConfig(n_trees=8), seed=9)

    def test_batched_forest_numbering_and_predict(self, monkeypatch):
        # 300 rows a batch: 10 trees of 60 rows grow 5 and 5 at a time
        monkeypatch.setattr(forest_module, "_BATCH_ROWS", 300)
        ds = make_synthetic(60, 4, "heteroscedastic", 0.5, seed=13)
        forest = fit_forest(ds, ForestConfig(n_trees=10, max_features=2), seed=14)
        split = np.flatnonzero(forest.feature >= 0)
        assert np.array_equal(forest.right[split], forest.left[split] + 1)
        assert np.all(forest.left[split] > split)  # children come after their parent
        parents = np.bincount(np.concatenate([forest.left[split], forest.right[split]]),
                              minlength=forest.n_nodes)
        is_root = np.isin(np.arange(forest.n_nodes), forest.roots)
        assert len(forest.roots) == 10 and np.all(parents == ~is_root)
        leaf = forest.feature < 0
        assert np.all(forest.left[leaf] == -1) and np.all(forest.right[leaf] == -1)

        rng = np.random.default_rng(15)
        ties = rng.random((len(split), 4))  # one row on each split's threshold
        ties[np.arange(len(split)), forest.feature[split]] = forest.threshold[split]
        nans = np.where(rng.random((6, 4)) < 0.5, np.nan, rng.random((6, 4)))
        queries = np.vstack([ds.features, rng.random((20, 4)) * 4 - 2, ties, nans,
                             np.full((1, 4), np.nan)])
        passes = forest.predict(queries)
        assert passes.shape == (len(queries), 10)
        for t, root in enumerate(forest.roots):
            assert np.array_equal(passes[:, t], walk_predict(forest, queries, root))

    def test_peak_memory_at_benchmark_scale(self):
        # a forest of the rf_cv workload's size: 6 trees of 440 rows, d=8, one
        # batch of 2,640 rows. The bound was fixed before this test first ran.
        ds = make_synthetic(440, 8, "heteroscedastic", 0.5, seed=1)
        fit_forest(ds, ForestConfig(n_trees=6), seed=2)
        tracemalloc.start()
        try:
            fit_forest(ds, ForestConfig(n_trees=6), seed=3)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2.2e6


class TestPredict:
    def test_matches_row_walk(self):
        rng = np.random.default_rng(7)
        for table in range(40):
            X, y, config = tie_heavy_table(rng)
            tree = fit_cart(X, y, config, rng_for(table))
            queries = np.vstack([X, rng.random((6, X.shape[1])), np.full((1, X.shape[1]), np.nan)])
            assert np.array_equal(tree.predict(queries)[:, 0], walk_predict(tree, queries))

    def test_threshold_ties_go_left_and_nan_goes_right(self):
        tree = fit_cart(np.array([[0.0, 5.0], [1.0, 5.0], [2.0, 6.0]]), np.array([0.0, 1.0, 4.0]),
                        ForestConfig(), rng_for(0))
        inner = tree.feature >= 0
        at_threshold = np.zeros((inner.sum(), 2))
        at_threshold[np.arange(inner.sum()), tree.feature[inner]] = tree.threshold[inner]
        queries = np.vstack([at_threshold, [[np.nan, np.nan], [np.nan, 0.0], [0.0, np.nan]]])
        assert np.array_equal(tree.predict(queries)[:, 0], walk_predict(tree, queries))
        assert tree.predict([[np.nan, np.nan]])[0, 0] == walk_predict(tree, [[np.inf, np.inf]])[0]

    def test_zero_rows(self):
        tree = fit_cart(np.array([[0.0], [1.0]]), np.array([0.0, 1.0]), ForestConfig(), rng_for(0))
        out = tree.predict(np.empty((0, 1)))[:, 0]
        assert out.shape == (0,) and out.dtype == np.float64

    def test_single_leaf_tree(self):
        tree = fit_cart(np.zeros((3, 2)), np.array([1.5, 1.5, 1.5]), ForestConfig(), rng_for(0))
        assert tree.n_nodes == 1
        queries = np.array([[0.0, 0.0], [np.nan, 7.0]])
        assert np.array_equal(tree.predict(queries)[:, 0], [1.5, 1.5])


class TestForest:
    @pytest.mark.parametrize("name, value", [("n_trees", math.nan), ("n_trees", math.inf),
                                             ("min_samples_split", math.nan),
                                             ("min_samples_leaf", math.inf)])
    def test_nonfinite_count_rejected(self, name, value):
        # nan < 1 and inf < 1 are both false, so these once passed
        with pytest.raises(ValueError, match=rf"^{name}: {value} not in \[[12], inf\)$"):
            ForestConfig(**{name: value})

    def test_single_tree_no_bootstrap_equals_tree(self):
        ds = small_dataset(25)
        cfg = ForestConfig(n_trees=1, bootstrap=False)
        forest = fit_forest(ds, cfg, seed=3)
        pred = forest_predict(forest, ds.features)
        tree_pred = walk_predict(forest, ds.features, forest.roots[0])
        assert np.array_equal(pred.means, tree_pred)
        assert np.all(pred.stds == 0.0)

    def test_default_tree_count(self):
        ds = small_dataset(15)
        forest = fit_forest(ds, ForestConfig(), seed=4)
        assert len(forest.roots) == 100

    def test_deterministic(self):
        ds = small_dataset(20)
        a = fit_forest(ds, ForestConfig(n_trees=5), seed=5)
        b = fit_forest(ds, ForestConfig(n_trees=5), seed=5)
        pa = forest_predict(a, ds.features)
        pb = forest_predict(b, ds.features)
        assert np.array_equal(pa.passes, pb.passes)

    def test_pure_leaf_training_prediction(self):
        # no bootstrap, fully grown, unique rows: forest mean reproduces labels
        ds = small_dataset(12, d=2, noise=0.5)
        forest = fit_forest(ds, ForestConfig(n_trees=3, bootstrap=False), seed=6)
        pred = forest_predict(forest, ds.features)
        assert np.allclose(pred.means, ds.labels, atol=1e-12)

    def test_mean_is_tree_average_and_bounded(self):
        ds = small_dataset(40)
        forest = fit_forest(ds, ForestConfig(n_trees=7), seed=7)
        pred = forest_predict(forest, ds.features[:10])
        assert np.allclose(pred.means, pred.passes.mean(axis=1), atol=1e-12)
        assert np.all(pred.means >= pred.passes.min(axis=1) - 1e-12)
        assert np.all(pred.means <= pred.passes.max(axis=1) + 1e-12)

    def test_two_tree_spread(self):
        leaves = np.full(2, -1, dtype=np.int32)
        forest = Forest(feature=leaves, threshold=np.zeros(2), left=leaves, right=leaves,
                        value=np.array([0.0, 2.0]), roots=np.array([0, 1]), n_features=1)
        pred = forest_predict(forest, np.array([[0.0]]))
        assert pred.means[0] == 1.0 and pred.stds[0] == 1.0

    def test_dimension_mismatch(self):
        ds = small_dataset(15, d=3)
        forest = fit_forest(ds, ForestConfig(n_trees=2), seed=8)
        with pytest.raises(ValueError):
            forest_predict(forest, np.zeros((2, 4)))


SRC = os.path.join(os.path.dirname(__file__), os.pardir, "src")

FIT_TWO_ROWS = """
import json, sys
import numpy as np
from dropconf.forest import ForestConfig, fit_cart
from dropconf.seeds import rng_for
X = np.array(json.loads(sys.argv[1]))
tree = fit_cart(X, np.array([0.0, 1.0]), ForestConfig(), rng_for(0))
print(json.dumps([tree.feature.tolist(), tree.threshold.tolist(), tree.value.tolist()]))
"""

FIT_NAN_ROWS = """
import numpy as np
from dropconf.forest import ForestConfig, fit_cart
from dropconf.seeds import rng_for
try:
    fit_cart(np.array([[0.0], [1.0], [np.nan], [np.nan]]), np.arange(4.0), ForestConfig(), rng_for(0))
except ValueError as exc:
    print(exc)
"""


def run_child(code, *args):
    """Run code in a child Python with src importable; fail after 60 s."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([SRC, os.environ.get("PYTHONPATH", "")]))
    proc = subprocess.run([sys.executable, "-c", code, *args],
                          capture_output=True, text=True, timeout=60, env=env)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


class TestUnrepresentableMidpoint:
    # The fits in this and the next class run in a child process with a
    # timeout: a regression would make fit_cart loop forever, and the suite
    # has no per-test timeout.
    @pytest.mark.parametrize("a, b", [
        (1 + 2**-52, 1 + 2**-51),  # adjacent floats: the midpoint rounds to b
        (1e308, 1.5e308),  # a + b overflows to inf
        (-1.5e308, -1e308),  # a + b overflows to -inf
    ])
    def test_split_uses_lower_value(self, a, b):
        feature, threshold, value = json.loads(run_child(FIT_TWO_ROWS, json.dumps([[a], [b]])))
        assert feature == [0, -1, -1]
        assert threshold[0] == a
        assert value[1:] == [0.0, 1.0]


class TestNanFeatures:
    def test_rejected_before_growing(self):
        # two NaNs in a column once made every split send all rows right
        assert "NaN" in run_child(FIT_NAN_ROWS)


def assert_oof_matches_fold_forests(oof, ds, config, k, seed):
    """Every instance's row of the pass matrix is, bit for bit, the one of the
    forest fit alone on the other folds."""
    folds = np.array_split(rng_for(seed, "folds").permutation(ds.n_rows), k)
    for i, held_out in enumerate(folds):
        rest = np.concatenate([folds[j] for j in range(k) if j != i])
        forest = fit_forest(ds.subset(rest), config, derive_seed(seed, "fold", i))
        pred = forest_predict(forest, ds.features[held_out])
        assert np.array_equal(oof.passes[held_out], pred.passes)
        assert np.array_equal(oof.means[held_out], pred.means)
        assert np.array_equal(oof.stds[held_out], pred.stds)


class TestOofCalibration:
    def test_minimal_two_fold(self):
        ds = small_dataset(10)
        oof = oof_calibration(ds, ForestConfig(n_trees=3), k=2, seed=9)
        assert oof.passes.shape == (10, 3) and oof.n_members == 3
        assert len(oof.means) == len(oof.stds) == 10

    def test_partition_property(self):
        ds = small_dataset(23)
        config, k, seed = ForestConfig(n_trees=2), 5, 10
        oof = oof_calibration(ds, config, k=k, seed=seed)
        # fold sizes are near-equal
        folds = np.array_split(rng_for(seed, "folds").permutation(23), k)
        counts = np.array([len(f) for f in folds])
        assert counts.sum() == 23 and len(np.unique(np.concatenate(folds))) == 23
        assert counts.max() - counts.min() <= 1
        assert_oof_matches_fold_forests(oof, ds, config, k, seed)

    @pytest.mark.parametrize("cap", [100, 250, 8192])
    @pytest.mark.parametrize("config", [
        ForestConfig(n_trees=3),
        ForestConfig(n_trees=3, max_features=2),
        ForestConfig(n_trees=3, bootstrap=False, min_samples_leaf=2),
    ], ids=["default", "max_features_2", "no_bootstrap_leaf_2"])
    def test_shared_batches_match_fold_forests(self, monkeypatch, config, cap):
        # 23 rows in 5 folds of 5, 5, 5, 4 and 4: the fold forests grow on 18
        # or 19 rows. Caps of 100 and 250 rows grow the 15 trees 5, 5 and 5
        # or 7 and 8 at a time, so a batch ends inside a fold forest; 8,192
        # rows grow them all at once. Some batch mixes the two tree sizes.
        monkeypatch.setattr(forest_module, "_BATCH_ROWS", cap)
        batches, grow = [], forest_module._grow
        monkeypatch.setattr(forest_module, "_grow", lambda Xt, labels, trees, *a: (
            batches.append([len(rows) for rows, _ in trees]) or grow(Xt, labels, trees, *a)))
        ds = small_dataset(23)
        oof = oof_calibration(ds, config, k=5, seed=10)
        assert len(batches) == {100: 3, 250: 2, 8192: 1}[cap]
        assert all(sum(b) <= cap for b in batches) and any({18, 19} <= set(b) for b in batches)
        assert_oof_matches_fold_forests(oof, ds, config, 5, 10)

    def test_peak_memory_at_benchmark_scale(self):
        # the rf_cv workload's calibration: 440 rows, d=8, 6 trees, 5 folds,
        # so 30 trees of 352 rows in two batches of 5,280 rows. The bound was
        # fixed before this test first ran.
        ds = make_synthetic(440, 8, "heteroscedastic", 0.5, seed=1)
        oof_calibration(ds, ForestConfig(n_trees=6), k=5, seed=2)
        tracemalloc.start()
        try:
            oof_calibration(ds, ForestConfig(n_trees=6), k=5, seed=3)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2.8e6

    def test_exclusivity(self):
        # an instance's own fold never contributes to the forest predicting it:
        # with distinctive labels, a leak would reproduce the label exactly
        ds = small_dataset(12, noise=1.0)
        oof = oof_calibration(ds, ForestConfig(n_trees=1, bootstrap=False), k=3, seed=11)
        assert not np.allclose(oof.means, ds.labels)

    def test_k_bounds(self):
        ds = small_dataset(10)
        with pytest.raises(ValueError):
            oof_calibration(ds, ForestConfig(n_trees=1), k=1, seed=0)
        with pytest.raises(ValueError):
            oof_calibration(ds, ForestConfig(n_trees=1), k=11, seed=0)


class TestConfigInvariants:
    def test_bad_trees(self):
        with pytest.raises(ValueError):
            ForestConfig(n_trees=0)

    def test_bad_min_split(self):
        with pytest.raises(ValueError):
            ForestConfig(min_samples_split=1)
