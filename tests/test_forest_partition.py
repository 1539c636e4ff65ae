"""The widest key of the per-depth partition in forest._grow.

A depth's rows move to their children by a stable sort on 2 * node + side,
in the smallest unsigned type that holds twice that depth's split count.
Batched trees with more than 127 splits at one depth (a uint16 key) are
compared bit for bit with the reference builder in test_forest.py; this
module covers the uint32 key of more than 32,767 splits.
"""

import numpy as np

from dropconf.forest import ForestConfig, fit_cart
from dropconf.seeds import rng_for


def test_a_depth_of_more_than_32767_splits_keeps_every_row():
    # labels rising with the one feature cut each node near its middle, so
    # depth 15 of 70,000 rows holds 32,768 nodes of two or three rows. The
    # jitter keeps the two cuts of a three-row node from tying exactly, so
    # few nodes go to the exact re-scoring of near-ties.
    n, rng = 70_000, np.random.default_rng(3)
    X = rng.permutation(n).astype(np.float64)[:, None]
    y = X[:, 0] - n / 2 + 0.3 * rng.random(n)
    tree = fit_cart(X, y, ForestConfig(), rng_for(4))
    level, widest = tree.roots, 0
    while level.size:
        level = level[tree.feature[level] >= 0]
        widest = max(widest, level.size)
        level = np.concatenate([tree.left[level], tree.left[level] + 1])
    assert widest > 32_767 and np.min_scalar_type(2 * widest) == np.uint32
    assert tree.n_nodes == 2 * n - 1
    assert np.array_equal(tree.predict(X)[:, 0], y)
