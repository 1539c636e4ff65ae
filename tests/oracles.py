"""Independent brute-force oracles used to check the fast implementations.

These deliberately avoid sharing code paths with the package: gradients come
from central finite differences, trees from exhaustive split enumeration,
and calibration quantiles from a counting scan with exact rational k.
"""

from __future__ import annotations

import math
from decimal import ROUND_CEILING, Context, Decimal
from fractions import Fraction

import numpy as np

from dropconf.net import MLPModel, forward_batch


def fd_gradients(model: MLPModel, X, y, masks, h=1e-5):
    """Central finite differences of the batch MSE, masks held fixed."""

    def loss():
        pred = forward_batch(model, X, masks)
        return float(np.mean((pred - np.asarray(y)) ** 2))

    w_grads, b_grads = [], []
    for params, grads in ((model.weights, w_grads), (model.biases, b_grads)):
        for arr in params:
            g = np.zeros_like(arr)
            it = np.nditer(arr, flags=["multi_index"])
            for _ in it:
                idx = it.multi_index
                orig = arr[idx]
                arr[idx] = orig + h
                up = loss()
                arr[idx] = orig - h
                down = loss()
                arr[idx] = orig
                g[idx] = (up - down) / (2 * h)
            grads.append(g)
    return w_grads, b_grads


def min_abs_preactivation(model: MLPModel, X, masks) -> float:
    """Distance of the closest hidden pre-activation to the ReLU kink.

    Finite differences are only trustworthy when every pre-activation stays
    on one side of zero across the +/- h window.
    """
    p = model.config.dropout_p
    a = np.atleast_2d(np.asarray(X, dtype=np.float64))
    closest = math.inf
    for layer in range(len(model.config.hidden_sizes)):
        z = a @ model.weights[layer] + model.biases[layer]
        closest = min(closest, float(np.min(np.abs(z))))
        a = np.maximum(z, 0.0)
        if masks is not None:
            a = a * masks[layer] / (1.0 - p)
    return closest


def _sse(values: np.ndarray) -> float:
    # exactly-rounded summation: the score depends only on the value
    # multiset, so partition-identical splits tie exactly
    mean = math.fsum(values) / len(values)
    return math.fsum((v - mean) ** 2 for v in values)


def oracle_cart(X, y, min_samples_split=2, min_samples_leaf=1):
    """Exhaustive-split CART: nested tuples ('leaf', mean) or
    ('split', feature, threshold, left, right)."""
    X = np.asarray(X, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)

    def build(rows):
        ysub = y[rows]
        if len(rows) < min_samples_split or ysub.min() == ysub.max():
            return ("leaf", float(ysub.mean()))
        best = None  # (score, feature, threshold)
        for f in range(X.shape[1]):
            vals = np.unique(X[rows, f])
            for a, b in zip(vals[:-1], vals[1:]):
                thr = (a + b) / 2.0
                left = rows[X[rows, f] <= thr]
                right = rows[X[rows, f] > thr]
                if len(left) < min_samples_leaf or len(right) < min_samples_leaf:
                    continue
                score = _sse(y[left]) + _sse(y[right])
                if best is None or score < best[0]:
                    best = (score, f, thr)
        if best is None or best[0] >= _sse(ysub):
            return ("leaf", float(ysub.mean()))
        _, f, thr = best
        return (
            "split",
            f,
            thr,
            build(rows[X[rows, f] <= thr]),
            build(rows[X[rows, f] > thr]),
        )

    return build(np.arange(len(y)))


def oracle_cart_predict(tree, x):
    while tree[0] == "split":
        _, f, thr, left, right = tree
        tree = left if x[f] <= thr else right
    return tree[1]


def oracle_alpha_at_level(alphas_sorted, cl: float, n: int) -> float:
    """Counting-scan quantile with exact rational ceil for k."""
    target = Fraction(cl) * (n + 1)
    k = -((-target.numerator) // target.denominator)  # ceil
    if k > n:
        return math.inf
    for a in alphas_sorted:
        if int(np.sum(np.asarray(alphas_sorted) <= a)) >= k:
            return float(a)
    raise AssertionError("scan must find a value when k <= n")


def oracle_alpha_at_decimal_level(alphas_sorted, cl_text: str, n: int) -> float:
    """Counting-scan quantile at the level as the decimal written, so "0.2"
    is 1/5 and not the binary float just above it: k = ceil(cl*(n+1)), at
    least 1, in exact decimal arithmetic."""
    product = Context(prec=200).multiply(Decimal(cl_text), n + 1)
    k = max(1, int(product.to_integral_value(rounding=ROUND_CEILING)))
    if k > n:
        return math.inf
    for a in alphas_sorted:
        if int(np.sum(np.asarray(alphas_sorted) <= a)) >= k:
            return float(a)
    raise AssertionError("scan must find a value when k <= n")
